"""Extremal Hoelder-quotient operators and the limiting eigenvalue equation.

For exponent alpha in (0, 1] and a grid function u, the two half-operators at
a node x are the supremum and infimum over y of

    (u(y) - u(x)) / |y - x|^alpha .

For a zero-extended u the sup/inf run over all of R^n, and every y outside
the region contributes -u(x) / |y - x|^alpha.  Only two such y can be
extreme: the nearest outside node, and the far field, where the quotient
tends to 0.  The nearest outside node lies on the outside ring, the outside
axis neighbours of inside nodes (``geometry.distance_to_complement`` gives the
reason), so the scan covers the inside nodes and that ring, in ascending flat
index, and then offers the far field at value 0 (witness index -1), which
wins only when strictly better.  At a strict positive maximum l_plus is
therefore exactly 0, whatever the box margin.  Comparison functions that are
not zero-extended (cones) are scanned over every box node; the box is all the
lattice knows of them.  Ties go to the lowest flat index.

The scan is folded over the lattice reflections that keep every quotient bit
for bit.  Those are generated by exact moves only (`geometry._reflections`
with exact=True): an axis flip whose node coordinates sum with their mirror
images to one constant with no rounding, and the swap of two bitwise equal
axes; each keeps every coordinate difference bitwise, so every distance.  They
are held in geometry's one form, as permutations of the candidate columns.
Of these, the scan keeps the elements g that map the scanned nodes onto
themselves and keep u bitwise (compared as int64, so -0.0 differs from 0.0).
Then q(g x, g y) = q(x, y) bitwise for every pair, one row per orbit is
scanned (`geometry._orbits` numbers the orbits, as for the solver's tables),
and a member g x takes that row's value and the lowest flat index in g(T),
T the columns tied at the extreme: exactly what a scan of its own row would
give.  An antisymmetric u (u o g = -u) is not folded: a pair with
u(y) = u(x) gives +0.0 directly but -0.0 through the flip.

The first-eigenvalue equation residual at an inside node is

    max( l_plus + l_minus ,  l_minus + lam * u )

and the sign-changing (higher eigenvalue) residual switches branches with the
sign of u, using a dead band proportional to one lattice cell of Hoelder
variation to classify "u = 0" nodes.  Each report makes one scan over the
inside nodes and reads the seminorm that sizes the dead band off that scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .energy import _check_alpha
from .geometry import (
    GridDomain,
    GridFunction,
    Interval,
    NodeSet,
    _dilate,
    _node_index,
    _orbits,
    _reflections,
    block_rows,
    distance_to_complement,
    distance_to_set,
    distances,
    high_ridge,
    inscribed_radius,
    squared_distances,
)

__all__ = [
    "InfinityReport",
    "linf_plus",
    "linf_minus",
    "linf_minus_analytic",
    "first_residual",
    "higher_residual",
    "representation",
    "cone",
    "lambda_infinity",
    "r2_radius",
    "holder_seminorm",
]

EXTERIOR_WITNESS = -1  # witness index marking the far field, where u = 0

# branch labels stored per node
BRANCH_OPERATOR = "op"     # the full-operator branch l_plus + l_minus attains the max
BRANCH_EIGEN = "eig"       # the eigen-balance branch attains it
BRANCH_ZERO = "zero"       # node classified as u = 0 (dead band)


def _invariance(u: GridFunction, cand: np.ndarray, base: np.ndarray) -> list:
    """The exact lattice reflections (`geometry._reflections` with exact=True)
    as permutations of the ascending candidate nodes, which every mask
    reflection maps onto themselves: those that map the ascending base nodes
    onto themselves and keep u bitwise (as int64, so -0.0 differs from 0.0)
    at every candidate, identity first.  When a base node is not a
    candidate, the identity alone."""
    at = np.minimum(np.searchsorted(cand, base), cand.size - 1)
    if not np.array_equal(cand[at], base):
        return [np.arange(cand.size)]
    in_base = np.zeros(cand.size, dtype=bool)
    in_base[at] = True
    flat = u.flat()[cand].view(np.int64)
    return [g for g in _reflections(u.domain, cand, exact=True)
            if in_base[g[at]].all() and np.array_equal(flat[g], flat)]


def _extreme_quotients(u: GridFunction, alpha: float,
                       base: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Max/min Hoelder quotients (and witnesses) for each base node, given as
    ascending flat indices: over R^n for a zero-extended u, over the box
    otherwise (see the module docstring).

    One base node per orbit of the invariance group (`_invariance`) is
    scanned, its smallest (`geometry._orbits` over positions in base), in
    row blocks against every candidate.  The distance, quotient and tie
    blocks are allocated once per call and refilled in place; each extreme
    is its argmax or argmin, and the value is read back at that column, so a
    value and its witness always come from one entry.  A member g x of an
    orbit takes the value of x and the witness min g(T), where T holds the
    columns of row x equal to the extreme: T is listed only on rows with a
    tie (`_ties`), and otherwise g maps the argmax or argmin (`_expand`).

    The fold adds little resident memory.  It sorts nothing (the first sort
    of a process maps about 0.4 MB of numpy's sort kernels), keeps one
    permutation of the candidates per group element, and makes the results
    before the blocks, so the blocks are the last allocation, as in an
    unfolded scan, and freeing them can return their memory.
    """
    dom = u.domain
    if u.zero_extended:
        cand = np.flatnonzero(_dilate(dom.inside))
    else:
        cand = np.arange(dom.n_nodes)
    coords = dom.node_coords[cand]
    vals = u.flat()[cand]
    base = np.asarray(base, dtype=np.int64)
    group = _invariance(u, cand, base)
    # column of each base node among the candidates, where it is one (y = x is excluded)
    col = np.minimum(np.searchsorted(cand, base), cand.size - 1)
    is_cand = cand[col] == base
    # the group as permutations of positions in base, which its elements map onto itself
    reps, orbit, elem = _orbits([np.arange(base.size)]
                                + [np.searchsorted(col, g[col]) for g in group[1:]])
    col, is_cand = col[reps], is_cand[reps]  # the scanned rows, one per orbit
    bc = dom.node_coords[base[reps]]
    bv = u.flat()[base[reps]]

    n = reps.size
    result = (np.empty(base.size), np.empty(base.size, dtype=np.int64),
              np.empty(base.size), np.empty(base.size, dtype=np.int64))
    l_plus = np.empty(n)
    w_plus = np.empty(n, dtype=np.int64)
    l_minus = np.empty(n)
    w_minus = np.empty(n, dtype=np.int64)
    ties_plus, ties_minus = [], []  # (row, tied columns, their quotients)

    rows = min(block_rows(cand.size), n)
    dist = np.empty((rows, cand.size))
    quot = np.empty_like(dist)
    tied = np.empty(dist.shape, dtype=bool) if len(group) > 1 else None
    at = np.arange(rows)
    for k0 in range(0, n, rows):
        sl = slice(k0, min(k0 + rows, n))
        r = sl.stop - k0
        d, q, i = dist[:r], quot[:r], at[:r]
        self_row = np.flatnonzero(is_cand[sl])
        self_col = col[sl][self_row]
        squared_distances(bc[sl], coords, out=d)
        np.sqrt(d, out=d)
        d[self_row, self_col] = np.inf
        d **= alpha  # ** rather than np.power: alpha = 0.5 takes numpy's sqrt path
        np.subtract(vals[None, :], bv[sl, None], out=q)
        q /= d
        q[self_row, self_col] = -np.inf
        best = w_plus[sl] = q.argmax(axis=1)
        l_plus[sl] = q[i, best]
        if tied is not None:
            _ties(q, best, l_plus[sl], tied[:r], k0, ties_plus)
        q[self_row, self_col] = np.inf
        best = w_minus[sl] = q.argmin(axis=1)
        l_minus[sl] = q[i, best]
        if tied is not None:
            _ties(q, best, l_minus[sl], tied[:r], k0, ties_minus)
    # freed before _expand allocates, whose arrays could otherwise sit above the
    # blocks and keep the heap from shrinking (disk_infinity peak RSS +0.9 MB)
    del dist, quot, tied

    l_plus, w_plus = _expand(l_plus, w_plus, ties_plus, orbit, elem, group, cand, result[:2])
    l_minus, w_minus = _expand(l_minus, w_minus, ties_minus, orbit, elem, group, cand,
                               result[2:])
    if u.zero_extended:
        up = 0.0 > l_plus
        l_plus[up] = 0.0
        w_plus[up] = EXTERIOR_WITNESS
        dn = 0.0 < l_minus
        l_minus[dn] = 0.0
        w_minus[dn] = EXTERIOR_WITNESS

    return l_plus, w_plus, l_minus, w_minus


def _ties(q: np.ndarray, best: np.ndarray, extreme: np.ndarray, eq: np.ndarray,
          k0: int, out: list) -> None:
    """Append (row, columns, quotients) for each row of the block q whose
    extreme is attained at more than one column; best is the argmax or
    argmin of each row, and eq a bool workspace of q's shape, the only
    array of that shape made for ties."""
    np.equal(q, extreme[:, None], out=eq)
    eq[np.arange(best.size), best] = False
    for row in np.flatnonzero(eq.any(axis=1)):
        eq[row, best[row]] = True
        cols = np.flatnonzero(eq[row])
        out.append((k0 + row, cols, q[row, cols]))


def _expand(value: np.ndarray, witness: np.ndarray, ties: list, orbit: np.ndarray,
            elem: np.ndarray, group: list, cand: np.ndarray, out: tuple) -> tuple:
    """Values and witnesses of every base node, written into out, from those
    of the scanned rows, whose witnesses are candidate columns: base node i
    takes row orbit[i] through the element group[elem[i]].  A tied row's
    members take the smallest image of its tied columns, and the quotient
    there (equal to the row's, but it may be the other zero).  The columns
    become flat node indices at the end."""
    value = np.take(value, orbit, out=out[0])
    witness = np.take(witness, orbit, out=out[1])
    for k, g in enumerate(group[1:], 1):
        i = np.flatnonzero(elem == k)
        witness[i] = g[witness[i]]
    if ties:
        tied = np.concatenate([cols for _, cols, _ in ties])
        images = np.stack([g[tied] for g in group])  # images[k, j]: image of tied column j under k
        start = 0
        for row, cols, quot in ties:
            i = np.flatnonzero(orbit == row)
            img = images[elem[i], start:start + cols.size]
            k = img.argmin(axis=1)
            witness[i] = img[np.arange(i.size), k]
            value[i] = quot[k]
            start += cols.size
    return value, cand.take(witness, out=witness)


def linf_plus(u: GridFunction, alpha: float, x: int) -> Tuple[float, int]:
    """Sup of the alpha-quotient at node x; returns (value, witness index).

    Witness -1 means the far field won: every other quotient is negative.
    """
    _check_alpha(alpha)
    lp, wp, _, _ = _extreme_quotients(u, alpha, np.array([_node_index(u.domain, x)]))
    return float(lp[0]), int(wp[0])


def linf_minus(u: GridFunction, alpha: float, x: int) -> Tuple[float, int]:
    """Inf of the alpha-quotient at node x; returns (value, witness index).

    Witness -1 means the far field won: every other quotient is positive.
    """
    _check_alpha(alpha)
    _, _, lm, wm = _extreme_quotients(u, alpha, np.array([_node_index(u.domain, x)]))
    return float(lm[0]), int(wm[0])


def linf_minus_analytic(u: GridFunction, delta: GridFunction, alpha: float,
                        x: int) -> float:
    """-u(x) / delta(x)^alpha: the infimum a nonnegative zero-extended function
    attains in the complement of the region."""
    _check_alpha(alpha)
    x = _node_index(u.domain, x)
    dx = delta.flat()[x]
    if not (dx > 0.0):
        raise RuntimeError(f"distance vanishes at node {x}; not an inside node?")
    return float(-u.flat()[x] / dx ** alpha)


def holder_seminorm(u: GridFunction, alpha: float) -> float:
    """Discrete alpha-Hoelder seminorm: max quotient over node pairs.

    Pairs with both values zero contribute nothing, so scanning (nonzero node,
    any node) pairs is exact.  The far-field candidate of a zero-extended u
    is 0, so it cannot raise the maximum of |quotient|.
    """
    _check_alpha(alpha)
    nz = np.flatnonzero(u.flat())
    if nz.size == 0:
        return 0.0
    lp, _, lm, _ = _extreme_quotients(u, alpha, nz)
    return float(max(lp.max(), -lm.min(), 0.0))


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InfinityReport:
    """Per-inside-node evaluation of the limiting eigenvalue equation."""

    domain: GridDomain
    alpha: float
    lam: float
    nodes: np.ndarray            # flat indices of inside nodes
    u: np.ndarray
    delta: np.ndarray
    l_plus: np.ndarray
    witness_plus: np.ndarray
    l_minus: np.ndarray
    witness_minus: np.ndarray
    l_minus_analytic: np.ndarray
    branch: np.ndarray           # per-node label, see BRANCH_* constants
    residual: np.ndarray

    @property
    def interior_mask(self) -> np.ndarray:
        """Nodes deeper than the 2h boundary collar."""
        return self.delta > 2.0 * self.domain.h

    def sup_norm(self, exclude_collar: bool = False) -> float:
        r = np.abs(self.residual)
        if exclude_collar:
            r = r[self.interior_mask]
        return float(r.max()) if r.size else 0.0

    def worst_node(self, exclude_collar: bool = False) -> int:
        r = np.abs(self.residual)
        idx = self.nodes
        if exclude_collar:
            keep = self.interior_mask
            r, idx = r[keep], idx[keep]
        return int(idx[np.argmax(r)]) if r.size else -1

    def summary(self) -> dict:
        return {
            "alpha": self.alpha,
            "lambda": self.lam,
            "nodes": int(self.nodes.size),
            "sup_residual": self.sup_norm(),
            "sup_residual_interior": self.sup_norm(exclude_collar=True),
            "worst_node": self.worst_node(),
            "worst_node_interior": self.worst_node(exclude_collar=True),
        }

    def rows(self):
        """Per-node tuples for CSV export (coords, values, witnesses, branch)."""
        coords = self.domain.node_coords[self.nodes]
        return zip(self.nodes.tolist(), *coords.T.tolist(), self.u.tolist(),
                   self.delta.tolist(), self.l_plus.tolist(),
                   self.witness_plus.tolist(), self.l_minus.tolist(),
                   self.witness_minus.tolist(), self.l_minus_analytic.tolist(),
                   self.branch.tolist(), self.residual.tolist())


def _residual_report(u: GridFunction, alpha: float, lam: float, delta: GridFunction,
                     band_scale: Optional[float], name: str) -> InfinityReport:
    """One extreme-quotient scan over the inside nodes.  band_scale None is the
    first-eigenvalue equation: u >= 0 and no dead band."""
    _check_alpha(alpha)
    if not u.zero_extended:
        raise ValueError(f"{name} expects a zero-extended function")
    if band_scale is not None and not band_scale >= 0.0:  # NaN included
        raise ValueError("band_scale must be >= 0")
    dom = u.domain
    if delta.domain is not dom and not dom.same_lattice(delta.domain):
        raise ValueError("distance function lives on a different lattice")
    nodes = dom.inside_indices
    uin = u.flat()[nodes]
    din = delta.flat()[nodes]
    if np.any(din <= 0.0):
        raise RuntimeError("distance must be positive at inside nodes")
    if band_scale is None and np.any(uin < 0.0):
        raise ValueError(f"{name} expects a nonnegative function")
    lp, wp, lm, wm = _extreme_quotients(u, alpha, nodes)

    # the seminorm is holder_seminorm(u, alpha) exactly: every pair with a
    # nonzero end is a row of this scan, and |x - y| is bitwise symmetric
    band = (-np.inf if band_scale is None
            else band_scale * dom.h ** alpha * max(lp.max(), -lm.min(), 0.0))
    zero = np.abs(uin) <= band
    neg = (uin < 0.0) & ~zero
    pos = ~(zero | neg)

    op = lp + lm
    pos_eig = lm + lam * uin
    neg_eig = lp + lam * uin
    residual = np.empty_like(uin)
    branch = np.empty(uin.shape, dtype="U8")
    residual[zero] = op[zero]
    branch[zero] = BRANCH_ZERO
    residual[pos] = np.maximum(op[pos], pos_eig[pos])
    branch[pos] = np.where(op[pos] >= pos_eig[pos], BRANCH_OPERATOR, BRANCH_EIGEN)
    residual[neg] = np.minimum(op[neg], neg_eig[neg])
    branch[neg] = np.where(op[neg] <= neg_eig[neg], BRANCH_OPERATOR, BRANCH_EIGEN)

    return InfinityReport(domain=dom, alpha=alpha, lam=lam, nodes=nodes,
                          u=uin, delta=din, l_plus=lp, witness_plus=wp,
                          l_minus=lm, witness_minus=wm, l_minus_analytic=-uin / din ** alpha,
                          branch=branch, residual=residual)


def first_residual(u: GridFunction, alpha: float, lam: float,
                   delta: GridFunction) -> InfinityReport:
    """Residual of max{ l_plus + l_minus, l_minus + lam*u } = 0 for u >= 0."""
    return _residual_report(u, alpha, lam, delta, None, "first_residual")


def higher_residual(u: GridFunction, alpha: float, lam: float,
                    delta: GridFunction, band_scale: float = 1.0) -> InfinityReport:
    """Residual of the sign-switching eigenvalue equation.

    Branches: where u > 0 the first-eigenvalue max-branch applies; where u < 0
    the mirrored min{ l_plus + l_minus, l_plus + lam*u }; nodes with |u| below
    the dead band count as u = 0 and must satisfy l_plus + l_minus = 0.  The
    dead band is band_scale * h^alpha * [u]_alpha, one lattice cell's worth of
    Hoelder variation, so it vanishes under refinement.  The seminorm is read
    off the same scan that gives l_plus and l_minus: one scan per report.
    """
    return _residual_report(u, alpha, lam, delta, band_scale, "higher_residual")


# ---------------------------------------------------------------------------
# closed-form objects
# ---------------------------------------------------------------------------


def representation(dom: GridDomain, gamma1: NodeSet, alpha: float, *,
                   delta: Optional[GridFunction] = None) -> GridFunction:
    """First eigenfunction of the limiting equation built from distances.

    u = delta^alpha / (delta^alpha + rho^alpha), where delta is the distance to
    the complement and rho the distance to the chosen subset gamma1 of the
    ridge, high_ridge(delta).  Equals 1 exactly on gamma1, lies in (0, 1]
    inside, 0 outside.  A caller that already holds distance_to_complement(dom)
    passes it as delta; it must live on the lattice of dom.
    """
    _check_alpha(alpha)
    if delta is None:
        delta = distance_to_complement(dom)
    elif delta.domain is not dom and not dom.same_lattice(delta.domain):
        raise ValueError("distance function lives on a different lattice")
    if not np.isin(gamma1.indices, high_ridge(delta).indices).all():
        raise ValueError("gamma1 contains nodes outside the ridge tolerance")
    rho = distance_to_set(dom, gamma1)
    da = delta.flat() ** alpha
    ra = rho.flat() ** alpha
    vals = np.where(dom.inside_flat, da / (da + ra), 0.0)
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


def cone(dom: GridDomain, x0: int, radius: float, alpha: float,
         eps: Optional[float] = None) -> GridFunction:
    """Truncated comparison cone centered at lattice node x0 (not zero-extended).

    alpha < 1: C = min(|x-x0|^alpha, radius^alpha).
    alpha = 1: C = min(|x-x0| - eps|x-x0|^2, radius - eps*radius^2) with
    eps*radius < 1 (default eps = 1/(4*radius)).
    """
    _check_alpha(alpha)
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    x0 = _node_index(dom, x0)
    coords = dom.node_coords
    r = distances(coords[x0:x0 + 1], coords)[0]
    if alpha < 1.0:
        vals = np.minimum(r ** alpha, radius ** alpha)
    else:
        if eps is None:
            eps = 1.0 / (4.0 * radius)
        if not (0.0 < eps * radius < 1.0):
            raise ValueError(f"need 0 < eps*radius < 1, got eps*radius = {eps * radius}")
        vals = np.minimum(r - eps * r ** 2, radius - eps * radius ** 2)
    return GridFunction(dom, vals.reshape(dom.lattice_shape), zero_extended=False)


def lambda_infinity(dom: GridDomain, alpha: float) -> float:
    """Limiting first eigenvalue: (inscribed radius)^(-alpha)."""
    _check_alpha(alpha)
    r = inscribed_radius(distance_to_complement(dom))
    return float(r ** (-alpha))


def r2_radius(dom: GridDomain) -> float:
    """Largest radius such that two disjoint balls of that radius fit inside.

    Canonical intervals get the exact value (b - a) / 4; other domains get a
    grid search over inside-node pairs maximizing
    min(delta(x), delta(y), |x - y| / 2).

    The search visits the inside nodes in descending delta (a stable sort)
    and scans each row block against every node at or before it.  A pair's
    value is at most the delta of its later node, so the search stops at the
    first block whose largest delta does not exceed the best value so far.
    A maximum does not depend on the order of its terms, so the result is the
    maximum over all pairs, bit for bit.
    """
    tag = dom.shape_tag
    if isinstance(tag, Interval):
        return (tag.b - tag.a) / 4.0
    delta = distance_to_complement(dom).flat()[dom.inside_indices]
    order = np.argsort(-delta, kind="stable")
    delta = delta[order]
    pts = dom.inside_coords[order]
    best = 0.0
    # cap is symmetric (bitwise), so a block needs only the columns up to its
    # last row: the pairs after them are rows of a later block
    rows = block_rows(pts.shape[0])
    for k0 in range(0, pts.shape[0], rows):
        if delta[k0] <= best:
            break
        k1 = k0 + rows
        cap = distances(pts[k0:k1], pts[:k1])
        cap *= 0.5
        np.minimum(cap, delta[None, :k1], out=cap)
        np.minimum(cap, delta[k0:k1, None], out=cap)
        best = max(best, float(cap.max()))
    return best
