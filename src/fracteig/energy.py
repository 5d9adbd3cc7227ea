"""Discrete fractional Gagliardo energy, Rayleigh quotient, gradient, operator.

The continuum objects are the double integral

    E(u) = iint |u(y) - u(x)|^p / |y - x|^(alpha*p) dx dy      over R^n x R^n

and the quotient E(u) / int |u|^p.  For zero-extended grid functions the double
integral splits into three computable pieces:

* interior: midpoint-rule sum over ordered pairs of distinct inside nodes,
  with the kernel read by the pair's offset from geometry's one distance
  table, which `geometry._offset_distances` raises to -alpha;
* cross: twice the sum over (inside, outside-but-in-box) pairs, where u
  vanishes at the outside node.  The kernel depends only on the integer
  lattice offset, and the outside nodes of each lattice line form runs, so
  every run is summed, one at a time, for all the nodes that need a weight
  (the orbit representatives) as a difference of two suffix sums of one
  offset table, accumulated from the far end, at a cost of k times the
  number of runs.  The subtracted suffix holds only terms farther out than
  the run, so no difference cancels the run itself, even at nodes deep
  inside the region: the weights match a 30-digit sum to 1e-15 relative at
  alpha*p from 1.2 to 48, while at alpha*p = 48 a direct pair sum over node
  coordinates is off by up to 7e-14 from the rounding of the coordinates;
* tail: twice the analytic radial integral over the complement of the box,
  bracketed between evaluations at the nearest and farthest box-boundary
  distance of each inside node.  Quotients use the bracket midpoint.

Large exponents (p up to 64 and beyond) are handled by factoring the largest
term out of every p-th-power sum and combining sums in log space, so no p-th
power of the values or of a pair term overflows; the per-node coefficients,
whose nearest-pair kernel is h^(-alpha p), must be finite doubles, and the
tables raise ValueError when one is not.  One pair pass,
`QuotientTables._interior`, computes the interior sum for every evaluation:
quotient, gradient, breakdown, and the Hessian's diagonal and products.  It
runs over blocks of rows of the pair matrix, with each block's largest term
factored out, and combines the block sums in log space; a (3, B, k)
workspace is all it writes, so the k x k `holder` is the only array that
grows with k squared.  The tables are folded
over the k orbits of a group G of lattice reflections, for vectors that are
constant on each orbit, the pair kernel as one sum over G and the cross
weight as the representative's times the orbit size: the solver passes
the lattice's symmetries, and the trivial group, the default, makes every
orbit one inside node (k = m), for which the fold is bit for bit the plain
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (GridDomain, GridFunction, _check_alpha, _check_memory, _coords,
                       _gather, _node_index, _offset_distances, _orbits, block_rows)

__all__ = [
    "FracParams",
    "EnergyBreakdown",
    "QuotientTables",
    "gagliardo_energy",
    "rayleigh_quotient",
    "rayleigh_gradient",
    "apply_Lp",
    "surface_measure",
]


def surface_measure(n: int) -> float:
    """Measure of the unit sphere S^{n-1}: 2 for n=1, 2*pi for n=2."""
    if n == 1:
        return 2.0
    if n == 2:
        return 2.0 * math.pi
    raise ValueError(f"unsupported dimension {n}")


@dataclass(frozen=True)
class FracParams:
    """Exponents of the fractional p-energy kernel |y-x|^(-alpha*p).

    alpha is the Hoelder exponent in (0, 1]; p >= 2 is the summability
    exponent.  The quotient is finite and the minimization well posed when
    n < alpha*p < n + p; the two extra regime flags (not enforced) mark the
    narrower window alpha*p < n + p - 1 and the regularity window
    alpha*p > 2n.
    """

    alpha: float
    p: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (self.p >= 2.0) or not math.isfinite(self.p):
            raise ValueError(f"p must be finite and >= 2, got {self.p}")

    @property
    def ap(self) -> float:
        return self.alpha * self.p

    def validate_for_dim(self, n: int) -> None:
        """Raise unless n < alpha*p < n + p; alpha <= 1 gives alpha*p < n + p."""
        if not (self.ap > n):
            raise ValueError(
                f"invalid exponents: alpha*p = {self.ap} <= n = {n} "
                f"(need n < alpha*p < n + p)"
            )

    def flags(self, n: int) -> dict:
        return {
            "narrow_window": self.ap < n + self.p - 1.0,
            "regularity_window": self.ap > 2.0 * n,
        }


@dataclass(frozen=True)
class EnergyBreakdown:
    """Pieces of the discrete energy; all non-negative, tail bracketed."""

    interior: float
    cross: float
    tail_lower: float
    tail_upper: float

    @property
    def tail_mid(self) -> float:
        return 0.5 * (self.tail_lower + self.tail_upper)

    @property
    def tail_width(self) -> float:
        return self.tail_upper - self.tail_lower

    @property
    def total(self) -> float:
        """interior + cross + tail midpoint (the value quotients use)."""
        return self.interior + self.cross + self.tail_mid


# ---------------------------------------------------------------------------
# stable p-th power sums
# ---------------------------------------------------------------------------


def _log_coef_pow_sum(vals: np.ndarray, coef: np.ndarray | float, p: float) -> float:
    """log(sum coef * vals**p) for vals, coef >= 0; -inf if the sum vanishes."""
    m = float(vals.max()) if vals.size else 0.0
    if m == 0.0:
        return -math.inf
    s = float((coef * (vals / m) ** p).sum())
    if s == 0.0:
        return -math.inf
    return p * math.log(m) + math.log(s)


def _exp(logv: float) -> float:
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------


class QuotientTables:
    """Precomputed kernel tables for one (domain, params) pair, over orbits.

    Holds the pair kernel between orbits of inside nodes plus the per-orbit
    cross and tail coefficients, so repeated quotient/gradient evaluations
    (the solver's inner loop) cost one k*k elementwise pass.  That pass,
    `_interior`, is the only place the pair terms are formed; it and the build
    of `holder` both run in blocks of rows, so the k x k `holder` is the only
    table of that size.

    `group` is a group G of lattice reflections that map the box and the mask
    onto themselves, as `lattice_symmetries` returns it: one permutation of
    the inside nodes per element, identity first.  None is the trivial group.
    `geometry._orbits` numbers its orbits by their smallest inside index,
    which represents them as rep(I), and sorts nothing; the members of orbit
    J are the images g rep(J), one column per element.  Such a group keeps
    every pair distance bit for bit (it permutes index offsets), and every
    cross weight and tail coefficient up to rounding, so a vector that is
    constant on each orbit I has the quotient of the k orbit values v_I with

        W_IJ = |I| |J| / |G| sum_{g in G} K_{rep(I), g rep(J)},
        cross_I = |I| cross_rep(I),   tail_I = sum_{i in I} tail_i,

    and the denominator h^n sum_I |I| |v_I|^p, where K_ij = |x_i - x_j|^(-alpha p)
    is the pair kernel: g rep(J) runs over the members of J, each |G| / |J|
    times.  W is symmetric (both orders count the pairs between I and J).
    `holder` holds W**(1/p) with a zero diagonal; every method takes orbit
    values, and `gradient` returns the orbit sums of the full gradient of the
    expanded vector.  With the trivial group, every step of the fold is
    exact, so the tables are bit for bit the plain kernel |x_i - x_j|^(-alpha)
    and the methods take the inside values.
    """

    def __init__(self, dom: GridDomain, prm: FracParams, group: list | None = None):
        self.dom = dom
        self.prm = prm
        if group is None:
            group = [np.arange(dom.inside_count)]
        self.reps, self.labels, _ = _orbits(group)
        # nodes per orbit: each value's weight in the denominator
        self.sizes = np.bincount(self.labels).astype(float)
        k = self.orbits
        self._block = min(block_rows(k), k)
        # the k x k `holder`, the pair pass's (3, block, k) workspace (the
        # holder build's stack of at most two (block, k) blocks comes first
        # and fits in it) and the cross weights' (lines, n + 1) suffix table,
        # n nodes per line
        lines = dom.n_nodes // dom.lattice_shape[-1]
        _check_memory(8 * (k * (k + 3 * self._block) + dom.n_nodes + lines),
                      f"kernel tables for {k} orbits of {self.labels.size} inside nodes")
        (self.cross_coef, self.tail_lower_coef, self.tail_upper_coef,
         self.ct_coef) = _coefficients(dom, prm, self.reps, self.labels, self.sizes)
        n, h = dom.dim, dom.h
        self.hn = h ** n
        self.h2n = h ** (2 * n)
        self.log_hn = n * math.log(h)
        self.log_h2n = 2 * n * math.log(h)
        self._build_holder(np.stack([g[self.reps] for g in group], axis=1))
        self._work = None  # the pair pass's (3, block, k) workspace, made on first use

    def _build_holder(self, members: np.ndarray) -> None:
        """holder_IJ = g_IJ (|I| |J| / |G| sum_{g in G} (K_{rep(I), g rep(J)} / g_IJ)**p)**(1/p),
        with K_ij = |x_i - x_j|^(-alpha) the plain kernel, g_IJ its largest
        value over the members of J, and members[J, g] the inside index of
        g rep(J).

        K is gathered (`_gather`), block by block, from the `_offset_distances`
        table raised to -alpha, 0 at the zero offset (a node's own entry).
        The fold runs in blocks of representative rows I.  A block gathers
        K_{rep(I), g rep(J)} once per group element g, as one slab of a
        (|G|, rows, cols) stack, and only for the columns J from the block's
        first row on: the closing mirror writes every entry below the
        diagonal.  The stack fits in two of the (B, k) blocks that
        `_check_memory` charges for the pair pass's workspace, which is made
        later, but holds one row of every element at least; no m x m array
        is built.  g_IJ, the stack's maximum over its slabs, is written into
        `holder`, and the slabs are divided by it, raised to p and added in
        group order.  The group maximum of a one-node orbit against itself
        is 0, where 1 stands in for it.  |I| |J| / |G| is a power of two, so
        the weight rounds nothing; with the trivial group each group sum is
        one term, g_IJ (1 * 1**p)**(1/p) = g_IJ, so that case gathers the
        plain kernel straight into `holder`, exactly symmetric, and skips
        the passes that change no bit there."""
        k, order = members.shape
        inside = self.dom.inside_indices  # columns group-major: column g k + J is g rep(J)
        kern, row_keys, col_keys = _offset_distances(self.dom, inside[self.reps],
                                                     inside[members.T.ravel()],
                                                     -self.prm.alpha)
        self.holder = np.empty((k, k))
        if order == 1:  # each group sum is one term: holder is the plain kernel
            for start in range(0, k, self._block):
                _gather(kern, row_keys[start:start + self._block], col_keys,
                        self.holder[start:start + self._block])
            return
        p = self.prm.p
        share = self.sizes / order  # |J| / |G|: each member of J is counted |G| / |J| times
        rows = max(1, 2 * self._block // order)
        stack = np.empty(order * rows * k)
        for start in range(0, k, rows):
            n, cols = min(rows, k - start), k - start
            terms = stack[:order * n * cols].reshape(order, n, cols)
            for e in range(order):
                _gather(kern, row_keys[start:start + n], col_keys[e * k + start:(e + 1) * k],
                        terms[e])
            top = terms.max(axis=0, out=self.holder[start:start + n, start:])  # g_IJ
            top[top == 0.0] = 1.0
            terms /= top
            terms **= p
            w = terms[0]
            for term in terms[1:]:
                w += term
            # |I| |J| / |G| as two powers of two in place, bit for bit their
            # product, with no (n, cols) temporary
            w *= self.sizes[start:start + n, None]
            w *= share[start:]
            w **= 1.0 / p
            top *= w
        np.fill_diagonal(self.holder, 0.0)
        # W is symmetric up to rounding; `value_and_grad` needs it exactly symmetric
        for i in range(1, k):
            self.holder[i, :i] = self.holder[:i, i]

    @property
    def orbits(self) -> int:
        """Number of orbit values the methods take."""
        return self.sizes.size

    def fold(self, v: np.ndarray) -> np.ndarray:
        """Orbit values of inside values v: the orbit means, or, when v is
        constant on every orbit, its values there, bit for bit."""
        rep = v[self.reps]
        if np.array_equal(rep[self.labels], v):
            return rep
        return np.bincount(self.labels, weights=v, minlength=self.orbits) / self.sizes

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Inside values of orbit values v."""
        return v[self.labels]

    # -- energies -------------------------------------------------------------

    def _interior(self, w: np.ndarray, d: np.ndarray | None = None, curvature: bool = False):
        """The one pair pass: log interior energy of w, rmax and the row sums,
        or, with `curvature`, the pair part of the Hessian at w.

        Runs over blocks of B = min(`block_rows(m)`, m) rows.  Block b fills
        the workspace with diff = w_i - w_j, r = r_ij / bmax, where
        r_ij = |diff| * holder_ij and bmax is the block's largest r_ij, and
        the third slab with the block's powers of r.

        Without `curvature` the third slab is rp1 = sign(diff) * holder_ij *
        (r_ij / bmax)**(p-1), and the pass keeps S_b = sum (r_ij / bmax)**p.
        With rmax = max bmax, it returns log(h^2n * sum r_ij**p) =
        log(sum (bmax/rmax)**p * S_b) + p log rmax + log h^2n, rmax, and
        rows_i = sum_j sign(diff) * holder_ij * (r_ij / rmax)**(p-1).

        With `curvature` the third slab holds the Hessian's pair weights
        a_ij = holder_ij**2 (r_ij / bmax)**(p-2), and the pass returns rmax
        and rows_i = sum_j a_ij (or, given a direction d,
        sum_j a_ij (d_i - d_j)), each block scaled by (bmax/rmax)**(p-2).
        Since W_ij |w_i - w_j|**(p-2) = holder_ij**2 r_ij**(p-2) with
        W = holder**p, the Hessian of the interior energy is 2 p (p-1) h^2n
        rmax**(p-2) times the Laplacian of those weights: the first rows are
        its diagonal, the second its product with d.

        With one block (m <= 362) the block factors are exactly 1.  A
        constant w has no pair term and gives (-inf, 0.0, zeros); with
        `curvature` its pair weights are holder**2 at p = 2 and 0 above, at
        rmax = 1.
        """
        holder, block = self.holder, self._block
        m = holder.shape[0]
        if self._work is None:
            self._work = np.empty((3, block, m))
        p = self.prm.p
        power = p - 2.0 if curvature else p - 1.0
        rows = np.zeros(m)
        blocks = []  # (slice, bmax, S_b) of every block with a pair term
        for start in range(0, m, block):
            sl = slice(start, start + block)
            diff, r, rp1 = self._work[:, :min(block, m - start)]
            np.subtract.outer(w[sl], w, out=diff)
            np.abs(diff, out=r)
            r *= holder[sl]
            bmax = float(r.max())
            if bmax == 0.0:
                if not curvature:
                    continue
                bmax = 1.0  # every block is constant: r stays 0, and 0**0 = 1 at p = 2
            r /= bmax
            np.power(r, power, out=rp1)
            if curvature:
                rp1 *= holder[sl]
                rp1 *= holder[sl]
                if d is not None:  # the Laplacian of the weights applied to d
                    np.subtract.outer(d[sl], d, out=diff)
                    rp1 *= diff
                rp1.sum(axis=1, out=rows[sl])
                blocks.append((sl, bmax, 0.0))
                continue
            r *= rp1
            # numpy's pairwise sum, not a BLAS dot: OpenBLAS splits long dots
            # across threads, which would tie the result to the thread count
            blocks.append((sl, bmax, float(r.sum())))
            rp1 *= holder[sl]
            np.copysign(rp1, diff, out=rp1)
            rp1.sum(axis=1, out=rows[sl])
        if not blocks:
            return -math.inf, 0.0, rows
        rmax = max(bmax for _, bmax, _ in blocks)
        total = 0.0
        for sl, bmax, s in blocks:
            ratio = bmax / rmax
            total += ratio ** p * s
            rows[sl] *= ratio ** power
        if curvature:
            return rmax, rows
        return p * math.log(rmax) + math.log(total) + self.log_h2n, rmax, rows

    def breakdown(self, v: np.ndarray) -> EnergyBreakdown:
        """Energy pieces for inside values v (honest floats; may overflow to inf
        for inputs far outside double range, in which case use the quotient)."""
        p = self.prm.p
        a = np.abs(v)
        m = float(a.max()) if v.size else 0.0
        # the pair pass runs on v / max|v|; p * log(max|v|) scales it back
        log_int = self._interior(v / m)[0] + p * math.log(m) if m > 0.0 else -math.inf
        cross = _exp(_log_coef_pow_sum(a, self.cross_coef, p))
        tail_lo = _exp(_log_coef_pow_sum(a, self.tail_lower_coef, p))
        tail_up = _exp(_log_coef_pow_sum(a, self.tail_upper_coef, p))
        return EnergyBreakdown(_exp(log_int), cross, tail_lo, tail_up)

    def quotient(self, v: np.ndarray) -> float:
        """Rayleigh quotient; scale-free in v (evaluated on v / max|v|)."""
        return self.value_and_grad(v)[0]

    def value_and_grad(self, v: np.ndarray):
        """Quotient and its exact gradient w.r.t. inside values, in one pass.

        `_interior` builds the pair differences, the Hoelder quotients
        r = |diff| * holder and r**(p-1) once per block of rows, and both
        results are drawn from its energy and row sums; `quotient` and
        `breakdown` run the same pass.  It works on v / max|v| with the
        largest pair term factored out, so neither result overflows at large
        p; the quotient is 0-homogeneous, so the gradient at v is the gradient
        at v / max|v| divided by max|v|.
        """
        m = float(np.abs(v).max()) if v.size else 0.0
        if m == 0.0:
            raise ValueError("quotient undefined for the zero function")
        w = v / m
        p = self.prm.p
        a = np.abs(w)
        a_pm1 = a ** (p - 1.0)
        a_p = a_pm1 * a
        log_den = math.log(float((self.sizes * a_p).sum())) + self.log_hn
        s_ct = float((self.ct_coef * a_p).sum())
        log_ct = math.log(s_ct) if s_ct > 0.0 else -math.inf

        # dQ/dw = (dN/dw - Q dD/dw) / D, with N the numerator and D = h^n sum sizes |w|^p;
        # the pair pass writes into one O(B*m) workspace, so no call allocates an m x m array
        log_int, rmax, rows = self._interior(w)
        if rmax > 0.0:
            scale = _exp(self.log_h2n + (p - 1.0) * math.log(rmax) - log_den)
            grad = (2.0 * p * scale) * rows
        else:  # constant on the inside nodes: no interior energy
            grad = np.zeros_like(w)
        quot = _exp(np.logaddexp(log_int, log_ct) - log_den)
        odd = np.copysign(a_pm1, w)
        grad += (p / math.exp(log_den)) * odd * (self.ct_coef - quot * self.hn * self.sizes)
        return quot, grad / m

    def hessian(self, v: np.ndarray, q: float, grad: np.ndarray):
        """The quotient's Hessian H at v: (its diagonal, the diagonal of
        hess N / D, a function d -> H d).

        With Q = N / D, N the numerator and D = h^n sum sizes |v|^p,

            H = (hess N - Q hess D - grad Q grad D^T - grad D grad Q^T) / D:

        the pair part of hess N comes from `_interior`, the cross and tail
        part of hess N and hess D are diagonal, p (p-1) |v|^(p-2) times
        ct_coef and h^n sizes, and the last two terms have rank two.  N is
        convex, so the diagonal of hess N / D is positive, while H's own
        diagonal can lose most of it to the Q hess D term.  q and grad are
        `value_and_grad(v)`, which the caller has already computed.  Forming
        the diagonals is one pair pass and every product one more, each on
        v / max|v| with the largest pair term factored out in log space, as
        in `value_and_grad`: the Hessian at v is the one at v / max|v|
        divided by max|v|**2, since the quotient is 0-homogeneous.  The same
        homogeneity gives H v = -grad Q(v).  No k x k array is formed: each
        pass writes the same (3, B, k) workspace.
        """
        m = float(np.abs(v).max())
        w = v / m
        p = self.prm.p
        a_pm2 = np.abs(w) ** (p - 2.0)
        odd = np.copysign(a_pm2 * np.abs(w), w)
        den = float((self.sizes * odd * w).sum())
        # grad D / D and grad Q at w; the pair part's scale h^2n rmax^(p-2) / D
        dlog_den = (p / den) * self.sizes * odd
        dq = grad * m
        rmax, pair_diag = self._interior(w, curvature=True)
        pair = 2.0 * p * (p - 1.0) * _exp(
            self.log_h2n + (p - 2.0) * math.log(rmax) - math.log(den) - self.log_hn)
        own = (p * (p - 1.0) / (den * self.hn)) * a_pm2
        convex = pair * pair_diag + own * self.ct_coef
        local = own * (self.ct_coef - q * self.hn * self.sizes)
        diag = pair * pair_diag + local - 2.0 * dq * dlog_den

        def product(d: np.ndarray) -> np.ndarray:
            hd = pair * self._interior(w, d, curvature=True)[1] + local * d
            # numpy's pairwise sums, not BLAS dots, as in the pass
            hd -= dq * float((dlog_den * d).sum()) + dlog_den * float((dq * d).sum())
            return hd / (m * m)

        return diag / (m * m), convex / (m * m), product

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """Exact gradient of the quotient with respect to inside values."""
        return self.value_and_grad(v)[1]

    def norm(self, v: np.ndarray) -> float:
        """(sum sizes |v|^p h^n)^(1/p), computed without overflow."""
        p = self.prm.p
        return _exp((_log_coef_pow_sum(np.abs(v), self.sizes, p) + self.log_hn) / p)

    def normalize(self, v: np.ndarray) -> np.ndarray:
        """Scale v so that sum sizes |v|^p h^n = 1."""
        c = self.norm(v)
        if c == 0.0:
            raise ValueError("cannot normalize the zero function")
        return v / c


def _coefficients(dom: GridDomain, prm: FracParams, reps: np.ndarray, labels: np.ndarray,
                  sizes: np.ndarray):
    """Per-orbit coefficients of |v_I|^p: cross, tail lower and upper bound, and
    cross plus tail midpoint, for the orbits with representatives reps (inside
    positions), labels[i] the orbit of inside node i and sizes their node counts.

    The group keeps every cross weight up to rounding, so an orbit's cross
    coefficient is its representative's times |I|; the tail coefficients
    are sums over the nodes of an orbit.  Raises ValueError unless
    n < alpha p < n + p, and when a coefficient is not finite: the kernel
    h^(-alpha p) of the nearest pairs overflows double range.  With one node
    per orbit these are the per-node coefficients."""
    prm.validate_for_dim(dom.dim)
    n, h, ap = dom.dim, dom.h, prm.ap
    with np.errstate(over="ignore", invalid="ignore"):
        w_out = _cross_weights(dom, ap, reps)
        tail_lower, tail_upper = _tail_bracket(dom, ap, dom.inside_coords)
    # coefficients multiplying |u_i|^p in each energy piece
    cross = 2.0 * h ** (2 * n) * w_out * sizes
    lower = 2.0 * h ** n * tail_lower
    upper = 2.0 * h ** n * tail_upper
    lower, upper, mid = (np.bincount(labels, weights=c, minlength=sizes.size)
                         for c in (lower, upper, 0.5 * (lower + upper)))
    coefs = [cross, lower, upper, cross + mid]
    if not all(np.isfinite(c).all() for c in coefs):
        raise ValueError(f"kernel coefficients overflow double range at p = {prm.p}, "
                         f"alpha = {prm.alpha}, h = {h}: the nearest-pair kernel "
                         f"h^(-alpha p) = h^-{ap} is too large")
    return coefs


def _cross_weights(dom: GridDomain, ap: float, at: np.ndarray | None = None) -> np.ndarray:
    """Sum over the outside-but-in-box nodes y of |y - x_i|^(-ap), for the
    inside nodes i at positions `at` (default: every inside node).

    The lattice lines run along the last axis (the whole lattice is one line
    in 1D).  The kernel depends only on the offset between two nodes, a lines
    apart and b nodes apart along a line, so one table K[a, b] holds it, and
    S[a, b] = sum over b' >= b of K[a, b'], accumulated from the far end so
    that small terms are added first.  S is the one (lines, n + 1) array:
    the squared offsets, their power, the scale h^(-ap) and the cumulative
    sum are written into it in place.  The outside nodes of a line form runs
    [lo, hi); a run at line offset a from a node at position t on its line
    covers along-line offsets lo - t .. hi - 1 - t.  Its part at offsets >= 0
    and its part at offsets < 0 are each a difference of two lookups in S,
    so a node costs one step per run.
    """
    inside = dom.inside.reshape(-1, dom.lattice_shape[-1])
    nlines, n = inside.shape
    # the runs first, so their byte-per-node temporaries are gone before S is made
    edges = np.diff(np.pad(~inside, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    run_line, run_lo = np.nonzero(edges == 1)
    run_hi = np.nonzero(edges == -1)[1]
    del edges
    # K over b = 0 .. n, contiguous, so no ufunc buffers a strided view; the
    # b = n column is zeroed before the sum, and 0 + x = x leaves every sum's bits
    suffix = np.empty((nlines, n + 1))
    b = np.arange(n + 1, dtype=float)
    b *= b
    for a in range(nlines):  # one line at a time: a broadcast sum would buffer
        np.add(b, a * a, out=suffix[a])
    suffix[0, 0] = np.inf  # zero offset: a node is never its own outside neighbour
    suffix **= -0.5 * ap
    suffix *= np.float64(dom.h) ** -ap  # inf when h^-ap overflows
    suffix[:, n] = 0.0
    np.cumsum(suffix[:, ::-1], axis=1, out=suffix[:, ::-1])
    suffix = suffix.ravel()

    nodes = dom.inside_indices if at is None else dom.inside_indices[at]
    line, t = np.divmod(nodes, n)
    w = np.zeros(len(t))
    for k, lo, hi in zip(run_line.tolist(), run_lo.tolist(), run_hi.tolist()):
        row = np.abs(line - k) * (n + 1)
        w += suffix[row + np.maximum(lo - t, 0)] - suffix[row + np.maximum(hi - t, 0)]
        w += suffix[row + np.maximum(t - hi + 1, 1)] - suffix[row + np.maximum(t - lo + 1, 1)]
    return w


def _tail_bracket(dom: GridDomain, ap: float, pts: np.ndarray):
    """Analytic far-field tail beyond the box at each point, as (lower, upper).

    The radial integral sigma_{n-1} * d^(n-ap) / (ap - n) of |y - x|^(-ap)
    over |y - x| > d, evaluated at the farthest box-boundary distance (lower
    bound) and at the nearest one (upper bound).
    """
    n = dom.dim
    near, far = dom.box_distances(pts)
    sig = surface_measure(n)
    return sig * far ** (n - ap) / (ap - n), sig * near ** (n - ap) / (ap - n)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def _check_input(u: GridFunction) -> None:
    if not u.zero_extended:
        raise ValueError("nonlocal energy requires a zero-extended grid function")


def gagliardo_energy(u: GridFunction, prm: FracParams) -> EnergyBreakdown:
    """Discrete split of the double-integral energy for a zero-extended u."""
    _check_input(u)
    tables = QuotientTables(u.domain, prm)
    return tables.breakdown(u.inside_values())


def rayleigh_quotient(u: GridFunction, prm: FracParams) -> float:
    """(interior + cross + tail midpoint) / sum |u|^p h^n, overflow-safe."""
    _check_input(u)
    tables = QuotientTables(u.domain, prm)
    return tables.quotient(u.inside_values())


def rayleigh_gradient(u: GridFunction, prm: FracParams) -> GridFunction:
    """Exact gradient of the discrete quotient w.r.t. inside node values."""
    _check_input(u)
    tables = QuotientTables(u.domain, prm)
    return GridFunction.from_inside(u.domain, tables.gradient(u.inside_values()))


def apply_Lp(u: GridFunction, prm: FracParams, x: int) -> float:
    """Pointwise fractional p-Laplacian at lattice node x (flat index).

    2 * sum_{y != x, y in box} |u(y)-u(x)|^(p-2) (u(y)-u(x)) |y-x|^(-alpha p) h^n
    plus the analytic far-field term for u == 0 beyond the box, which
    contributes -2 |u(x)|^(p-2) u(x) times the tail-bracket midpoint.
    """
    _check_input(u)
    dom = u.domain
    prm.validate_for_dim(dom.dim)
    x = _node_index(dom, x)
    point = _coords(dom, np.array([x]))
    if np.any((point == dom.box_lo) | (point == dom.box_hi)):
        raise ValueError(f"node {x} lies on the box boundary, where the tail diverges")
    vals = u.flat()
    ux = vals[x]
    table, row_keys, col_keys = _offset_distances(dom, np.array([x]), np.arange(dom.n_nodes),
                                                  -prm.ap)
    kern = _gather(table, row_keys, col_keys, np.empty(dom.n_nodes))[0]  # y = x: kernel 0
    diff = vals - ux
    core = np.abs(diff) ** (prm.p - 2.0) * diff * kern
    lower, upper = _tail_bracket(dom, prm.ap, point)
    tail = 0.5 * (lower[0] + upper[0])
    return float(2.0 * (core.sum() * dom.h ** dom.dim
                        - np.abs(ux) ** (prm.p - 2.0) * ux * tail))
