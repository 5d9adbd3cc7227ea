"""Extremal Hoelder-quotient operators and the limiting eigenvalue equation.

For exponent alpha in (0, 1] and a grid function u, the two half-operators at
a node x are the supremum and infimum over y of

    (u(y) - u(x)) / |y - x|^alpha .

For a zero-extended u the sup/inf run over all of R^n, and every y outside
the region contributes -u(x) / |y - x|^alpha.  Only two such y can be
extreme: the nearest outside node, and the far field, where the quotient
tends to 0.  The nearest outside node lies on the outside ring, the outside
axis neighbours of inside nodes (``geometry.GridDomain.inside_distance`` gives
the reason), so the scan covers the inside nodes and that ring, in ascending
flat index, and then offers the far field at value 0 (witness index -1),
which wins only when strictly better.  At a strict positive maximum l_plus is
therefore exactly 0, whatever the box margin.  Comparison functions that are
not zero-extended (cones) are scanned over every box node; the box is all the
lattice knows of them.  Ties go to the lowest flat index.

The distance |y - x|^alpha is read by the nodes' integer index offset from one
table per scan, which `geometry._offset_distances` builds and
`geometry._gather` reads.  Every lattice reflection permutes index offsets, so
it keeps every distance bit for bit, and the scan is folded over the mask's
reflections (`geometry._reflections`, the solver's group), held in geometry's
one form, as permutations of the candidate columns.  Of these, the scan keeps
the elements g that map the scanned nodes onto themselves and keep u bitwise
(compared as int64, so -0.0 differs from 0.0).  Then q(g x, g y) = q(x, y)
bitwise for every pair, one row per orbit is scanned (`geometry._orbits`
numbers the orbits, as for the solver's tables), and a member g x takes that
row's value and the lowest flat index in g(T), T the columns tied at the
extreme: exactly what a scan of its own row would give.  An antisymmetric u
(u o g = -u) is not folded: a pair with u(y) = u(x) gives +0.0 directly but
-0.0 through the flip.  A scan from one node has nothing to fold.

A scan of more than one row block is bounded (`_patch_bound`): it forms only
the quotients that can reach a row's extreme.  Each block first forms its
quotients against every 16th candidate, the self pair left out; being actual
quotients, their max bp and min bm satisfy bp <= sup and bm >= inf on every
row.  The candidates fall into lattice patches (32 nodes in 1-D, 4 x 4 in
2-D).  Every quotient of a row x against a patch P is at most
U = (max_P u - u(x)) / D, with D the least |y - x|^alpha over the patch when
the numerator is >= 0 and the greatest when it is < 0, and at least the
matching L.  Rounding is monotone in each operand of - and /, and D is read
from envelopes of the scan's own alpha-powered offset table, never a new
power, so U and L bound the rounded quotients bit for bit.  The block forms
the columns of the patches with U >= bp or L <= bm on some row, in ascending
order, and no others: a dropped column is strictly below the sup and above
the inf of every row, so argmax, argmin and the tied set T are those of the
full rows.  The bound only drops columns of the scanned rows, so it composes
with the fold.  A scan that fits in one block (one node, a coarse lattice)
forms every quotient and sets up no bound.

The first-eigenvalue equation residual at an inside node is

    max( l_plus + l_minus ,  l_minus + lam * u )

and the sign-changing (higher eigenvalue) residual switches branches with the
sign of u, using a dead band proportional to one lattice cell of Hoelder
variation to classify "u = 0" nodes.  Each report makes one scan over the
inside nodes and reads the seminorm that sizes the dead band off that scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .energy import _check_alpha
from .geometry import (
    GridDomain,
    GridFunction,
    Interval,
    NodeSet,
    _coords,
    _dilate,
    _gather,
    _nearest_distances,
    _node_index,
    _offset_distances,
    _orbits,
    _reflections,
    block_rows,
    distance_to_complement,
    high_ridge,
)
from .reports import _stream_rows

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

# The bounded scan: candidate patches are lattice tiles of this many nodes per
# axis (32 in 1-D, 4 x 4 in 2-D), and its first pass reads every 16th column.
_PATCH_SIDE = {1: 32, 2: 4}
_SAMPLE_STRIDE = 16


def _invariance(u: GridFunction, cand: np.ndarray, at: Optional[np.ndarray]) -> list:
    """The mask reflections (`geometry._reflections`) as permutations of the
    ascending candidate nodes that map the base nodes, at the ascending
    positions `at` among them, onto themselves and keep u bitwise at every
    candidate (as int64, so -0.0 differs from 0.0), identity first; the
    identity alone for one base node or when one is not a candidate (None)."""
    if at is None or at.size == 1:
        return [np.arange(cand.size)]
    in_base = np.zeros(cand.size, dtype=bool)
    in_base[at] = True
    flat = u.flat()[cand].view(np.int64)
    return [g for g in _reflections(u.domain, cand)
            if in_base[g[at]].all() and np.array_equal(flat[g], flat)]


def _extreme_quotients(u: GridFunction, alpha: float,
                       base: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Max/min Hoelder quotients (and witnesses) for each base node, given as
    ascending flat indices: over R^n for a zero-extended u, over the box
    otherwise (see the module docstring).

    One base node per orbit of the invariance group (`_invariance`) is
    scanned, its smallest (`geometry._orbits` over positions in base), in
    row blocks of `block_rows` rows, gathering each block's |y - x|^alpha
    from the alpha-powered offset table, NaN at y = x (set apart below).
    The sup and the inf are one rule with the direction flipped, so both run
    through one loop, in each block and in the expansion after the blocks.
    Each extreme is its argmax or argmin, and the value is read back
    at that column, so a value and its witness always come from one entry.
    A member g x of an orbit takes the value of x and the witness min g(T),
    where T holds the columns of row x equal to the extreme: on rows with a
    tie, min g(T) is kept for every element g (`_ties`), and otherwise g
    maps the argmax or argmin (`_expand`).

    A scan of more than one block is bounded (`_patch_bound`, from the
    table's layout; the module docstring gives the bound, why it is exact
    and why it composes with the fold).

    The distance, quotient and tie blocks are allocated once per call, for
    every column, and each block writes the leading rows x columns entries
    of them, so pages the bounded blocks never reach stay unmapped.  The
    fold sorts nothing (the first sort of a process maps about 0.4 MB of
    numpy's sort kernels), keeps one permutation of the candidates per
    group element, and makes the results before the blocks, so the blocks
    are the last allocation, as in an unfolded scan, and freeing them can
    return their memory.
    """
    dom = u.domain
    if u.zero_extended:
        cand = np.flatnonzero(_dilate(dom.inside))
    else:
        cand = np.arange(dom.n_nodes)
    vals = u.flat()[cand]
    base = np.asarray(base, dtype=np.int64)
    # column of each base node among the candidates, where it is one (y = x is excluded)
    col = np.minimum(np.searchsorted(cand, base), cand.size - 1)
    is_cand = cand[col] == base
    group = _invariance(u, cand, col if is_cand.all() else None)
    # the group as permutations of positions in base, which its elements map onto itself
    reps, orbit, elem = _orbits([np.arange(base.size)]
                                + [np.searchsorted(col, g[col]) for g in group[1:]])
    col, is_cand = col[reps], is_cand[reps]  # the scanned rows, one per orbit
    bv = u.flat()[base[reps]]
    dist_a, row_keys, col_keys, layout = _offset_distances(dom, base[reps], cand, alpha, np.nan)

    n = reps.size
    result = (np.empty(base.size), np.empty(base.size, dtype=np.int64),
              np.empty(base.size), np.empty(base.size, dtype=np.int64))
    # the sup, then the inf: the self pair's value, which the pick passes
    # over, the pick, the scanned rows' values and witnesses, and the tied
    # rows as (row, least image per element, its quotient)
    extremes = [(self_value, pick, np.empty(n), np.empty(n, dtype=np.int64), [])
                for self_value, pick in ((-np.inf, np.argmax), (np.inf, np.argmin))]

    rows = min(block_rows(cand.size), n)
    every = np.arange(cand.size)
    select = (_patch_bound(dom, bv, vals, dist_a, row_keys, col_keys, layout)
              if rows < n else None)
    dist = np.empty(rows * cand.size)
    quot = np.empty_like(dist)
    tied = np.empty(dist.shape, dtype=bool) if len(group) > 1 else None
    at = np.arange(rows)
    for k0 in range(0, n, rows):
        sl = slice(k0, min(k0 + rows, n))
        i = at[:sl.stop - k0]
        self_row = np.flatnonzero(is_cand[sl])
        self_col = col[sl][self_row]
        sel = every if select is None else select(sl, dist, quot)
        q = _quotients(vals[sel], bv[sl], row_keys[sl], col_keys[sel], dist_a, dist, quot)
        # the self pair, where its column was kept
        pos = np.minimum(np.searchsorted(sel, self_col), sel.size - 1)
        kept = sel[pos] == self_col
        self_at = (self_row[kept], pos[kept])
        eq = None if tied is None else tied[:q.size].reshape(q.shape)
        for self_value, pick, value, witness, ties in extremes:
            q[self_at] = self_value
            best = pick(q, axis=1)
            value[sl] = q[i, best]
            witness[sl] = sel[best]
            if eq is not None:
                _ties(q, best, value[sl], eq, k0, sel, group, ties)
    # freed before _expand allocates, whose arrays could otherwise sit above the
    # blocks and keep the heap from shrinking (disk_infinity peak RSS +0.9 MB)
    del dist, quot, tied

    for (self_value, _, value, witness, ties), out in zip(extremes, (result[:2], result[2:])):
        value, witness = _expand(value, witness, ties, orbit, elem, group, cand, out)
        if u.zero_extended:
            # the far field, at 0, wins where strictly better: where the
            # value lies on the self pair's side of 0
            far = np.sign(value) == np.sign(self_value)
            value[far] = 0.0
            witness[far] = EXTERIOR_WITNESS
    return result


def _quotients(vals: np.ndarray, bv: np.ndarray, row_keys: np.ndarray,
               col_keys: np.ndarray, dist_a: np.ndarray, dist: np.ndarray,
               quot: np.ndarray) -> np.ndarray:
    """The block q[i, j] = (vals[j] - bv[i]) / dist_a[row_keys[i] - col_keys[j]],
    written into the leading entries of the workspace quot, the distances
    gathered (`geometry._gather`) into those of dist."""
    d = _gather(dist_a, row_keys, col_keys, dist)
    q = quot[:d.size].reshape(d.shape)
    np.subtract(vals[None, :], bv[:, None], out=q)
    q /= d
    return q


def _patch_bound(dom: GridDomain, bv: np.ndarray, vals: np.ndarray, dist_a: np.ndarray,
                 row_keys: np.ndarray, col_keys: np.ndarray, layout: tuple):
    """The column selection of a bounded scan (`_extreme_quotients`): rows
    with values bv against candidates with values vals, and the scan's
    alpha-powered `geometry._offset_distances` table dist_a, NaN at the zero
    offset, with its keys and layout.  Returns select(rows, dist, quot): the
    ascending candidate columns kept for the block of rows (a slice of the
    scanned rows), using the workspaces dist and quot of `_quotients`.

    The block first forms its quotients against every `_SAMPLE_STRIDE`-th
    candidate.  The self pair's is NaN, which fmax and fmin pass over, so
    the row maxima bp and minima bm are actual quotients: bp <= max and
    bm >= min on every row (or NaN, when a row sampled only itself).

    A patch P is a lattice tile of `_PATCH_SIDE` nodes per axis.  Every
    quotient of row x against P is at most U = (max_P u - u(x)) / D and at
    least L = (min_P u - u(x)) / D', each a rounded operation: D is the
    smallest distance^alpha from x to the tile when the numerator is >= 0
    and the largest when it is < 0, and D' the other way round.  Rounding is
    monotone in each operand, so the bound holds for the rounded quotients,
    bit for bit.  The distances are envelopes of dist_a itself, never a new
    power, over its quarter a >= 0, which a reflection of offsets keeps
    bitwise ((-a)**2 == a**2): the smallest entry over offsets with
    |a_k| >= n_k on every axis (the zero offset's NaN passed over) and the
    largest over offsets with 0 < |a|, |a_k| <= f_k, where n_k and f_k are
    the least and greatest |a_k| from x to the tile.  A patch is dropped only
    where U < bp and L > bm on every row of the block, so a NaN keeps it."""
    side = _PATCH_SIDE[dom.dim]
    half = side // 2
    at, ext = layout
    quarter = dist_a.reshape([2 * e + 1 for e in ext])[tuple(slice(e, None) for e in ext)]
    low = quarter.copy()
    high = quarter.copy()
    high.flat[0] = 0.0  # the zero offset's NaN, left out of the maxima
    for ax in range(dom.dim):
        back = tuple(slice(None, None, -1) if k == ax else slice(None) for k in range(dom.dim))
        low[back] = np.fmin.accumulate(low[back], axis=ax)
        np.maximum.accumulate(high, axis=ax, out=high)

    # the tile of each candidate, max u and min u over each tile's candidates,
    # and the patches: the occupied tiles, numbered in flat order
    tiles = [e // side + 1 for e in ext]
    tile_of = np.ravel_multi_index(
        [np.repeat(np.arange(t), side)[a[bv.size:]] for t, a in zip(tiles, at)], tiles)
    top = np.full(math.prod(tiles), -np.inf)
    np.maximum.at(top, tile_of, vals)
    bottom = np.full(top.size, np.inf)
    np.minimum.at(bottom, tile_of, vals)
    occupied = np.flatnonzero(top > -np.inf)
    top, bottom = top[occupied], bottom[occupied]
    number = np.empty(math.prod(tiles), dtype=np.int64)
    number[occupied] = np.arange(occupied.size)
    patch = number[tile_of]

    # Along an axis, the nodes of a tile [c_k - side/2, c_k + side/2) lie
    # max(g + 1 - side/2, 0) to g + side/2 steps from a row x_k, where
    # g = max(d, -1 - d) and d = x_k - c_k.  So both distances are tabulated
    # by d, and one subtraction of keys gives every (row, patch) index.
    centre = [t * side + half for t in np.unravel_index(occupied, tiles)]
    row_at = [a[:bv.size] for a in at]
    span = [np.arange(int(r.min()) - int(c.max()), int(r.max()) - int(c.min()) + 1)
            for r, c in zip(row_at, centre)]
    gap = [np.maximum(d, -1 - d) for d in span]
    near = low[np.ix_(*[np.maximum(n + 1 - half, 0) for n in gap])].ravel()
    far = high[np.ix_(*[np.minimum(n + half, e) for n, e in zip(gap, ext)])].ravel()
    stride = [math.prod(d.size for d in span[k + 1:]) for k in range(dom.dim)]
    row_key = sum((r - d[0]) * st for r, d, st in zip(row_at, span, stride))
    patch_key = sum(c * st for c, st in zip(centre, stride))
    # near and far stacked: the upper bound divides by the first where its
    # numerator is >= 0, the lower bound by the second, reversed otherwise
    near_far = np.stack([near, far])
    ends = np.stack([top, bottom])[:, None, :]
    sample = slice(None, None, _SAMPLE_STRIDE)
    sample_vals, sample_keys = vals[sample], col_keys[sample]

    def select(rows: slice, dist: np.ndarray, quot: np.ndarray) -> np.ndarray:
        q = _quotients(sample_vals, bv[rows], row_keys[rows], sample_keys, dist_a, dist, quot)
        bp = np.fmax.reduce(q, axis=1)[:, None]
        bm = np.fmin.reduce(q, axis=1)[:, None]
        d = near_far.take(np.subtract.outer(row_key[rows], patch_key), axis=1, mode="clip")
        bound = ends - bv[None, rows, None]
        bound /= np.where(bound >= 0.0, d, d[::-1])
        drop = ((bound[0] < bp) & (bound[1] > bm)).all(axis=0)
        return np.flatnonzero(~drop[patch])

    return select


def _ties(q: np.ndarray, best: np.ndarray, extreme: np.ndarray, eq: np.ndarray,
          k0: int, sel: np.ndarray, group: list, out: list) -> None:
    """Append (row, images, quotients) for each row of the block q whose
    extreme is attained at more than one column: per element of group, the
    least image of the tied columns and the quotient at that column, so
    |group| pairs however many columns tie.  The columns of q are the
    candidates sel, best is the argmax or argmin of each row, and eq a bool
    workspace of q's shape, the only array of that shape made for ties;
    the tied columns' images are gathered one element at a time."""
    np.equal(q, extreme[:, None], out=eq)
    eq[np.arange(best.size), best] = False
    for row in np.flatnonzero(eq.any(axis=1)):
        eq[row, best[row]] = True
        cols = np.flatnonzero(eq[row])
        tied = sel[cols]
        k = np.array([g[tied].argmin() for g in group])
        images = np.array([g[y] for g, y in zip(group, tied[k])])
        out.append((k0 + row, images, q[row, cols[k]]))


def _expand(value: np.ndarray, witness: np.ndarray, ties: list, orbit: np.ndarray,
            elem: np.ndarray, group: list, cand: np.ndarray, out: tuple) -> tuple:
    """Values and witnesses of every base node, written into out, from those
    of the scanned rows, whose witnesses are candidate columns: base node i
    takes row orbit[i] through the element group[elem[i]].  A tied row's
    members take what `_ties` kept for their element: the smallest image of
    its tied columns, and the quotient there (equal to the row's, but it may
    be the other zero).  The columns become flat node indices at the end."""
    value = np.take(value, orbit, out=out[0])
    witness = np.take(witness, orbit, out=out[1])
    for k, g in enumerate(group[1:], 1):
        i = np.flatnonzero(elem == k)
        witness[i] = g[witness[i]]
    for row, images, quot in ties:
        i = np.flatnonzero(orbit == row)
        witness[i] = images[elem[i]]
        value[i] = quot[elem[i]]
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
    if not u.domain.same_lattice(delta.domain):
        raise ValueError("distance function lives on a different lattice")
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
        """Per-node tuples for CSV export (coords, values, witnesses, branch),
        converted to Python values a chunk of rows at a time."""
        coords = _coords(self.domain, self.nodes)
        return _stream_rows(self.nodes, *coords.T, self.u, self.delta, self.l_plus,
                            self.witness_plus, self.l_minus, self.witness_minus,
                            self.l_minus_analytic, self.branch, self.residual)


def _residual_report(u: GridFunction, alpha: float, lam: float, delta: GridFunction,
                     band_scale: Optional[float], name: str) -> InfinityReport:
    """One extreme-quotient scan over the inside nodes.  band_scale None is the
    first-eigenvalue equation: u >= 0 and no dead band."""
    _check_alpha(alpha)
    if not u.zero_extended:
        raise ValueError(f"{name} expects a zero-extended function")
    if band_scale is not None and not band_scale >= 0.0:  # NaN included
        raise ValueError("band_scale must be >= 0")
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    dom = u.domain
    if not dom.same_lattice(delta.domain):
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
    # where u < 0 the equation mirrors u > 0: the other extreme in the eigen
    # term, and min for max, which is max after an exact flip of sign, bit
    # for bit (ties of the two zeros included)
    sign = np.where((uin < 0.0) & ~zero, -1.0, 1.0)
    op = sign * (lp + lm)
    eig = sign * (np.where(sign < 0.0, lp, lm) + lam * uin)
    residual = np.where(zero, op, sign * np.maximum(op, eig))
    branch = np.where(zero, BRANCH_ZERO, np.where(op >= eig, BRANCH_OPERATOR, BRANCH_EIGEN))

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
    inside, 0 outside, so rho is read (by index offset) at inside nodes only.
    A caller that already holds distance_to_complement(dom) passes it as
    delta; it must live on the lattice of dom.
    """
    _check_alpha(alpha)
    if delta is None:
        delta = distance_to_complement(dom)
    elif not dom.same_lattice(delta.domain):
        raise ValueError("distance function lives on a different lattice")
    if not np.isin(gamma1.indices, high_ridge(delta).indices).all():
        raise ValueError("gamma1 contains nodes outside the ridge tolerance")
    inside = dom.inside_indices
    da = delta.flat()[inside] ** alpha
    ra = _nearest_distances(dom, inside, gamma1.indices) ** alpha
    vals = np.zeros(dom.n_nodes)
    vals[inside] = da / (da + ra)
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


def cone(dom: GridDomain, x0: int, radius: float, alpha: float,
         eps: Optional[float] = None) -> GridFunction:
    """Truncated comparison cone centered at lattice node x0 (not zero-extended).

    alpha < 1: C = min(|x-x0|^alpha, radius^alpha).
    alpha = 1: C = min(|x-x0| - eps|x-x0|^2, radius - eps*radius^2) with
    eps*radius < 1 (default eps = 1/(4*radius)); |x-x0| is the offset distance.
    """
    _check_alpha(alpha)
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    x0 = _node_index(dom, x0)
    dist, row_keys, col_keys = _offset_distances(dom, np.array([x0]), np.arange(dom.n_nodes))[:3]
    r = dist[row_keys[0] - col_keys]
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
    """Limiting first eigenvalue: R^(-alpha), with R the inscribed radius, the
    largest of the domain's `inside_distance` (computed once per domain)."""
    _check_alpha(alpha)
    r = float(dom.inside_distance.max())
    return float(r ** (-alpha))


def r2_radius(dom: GridDomain) -> float:
    """Largest radius such that two disjoint balls of that radius fit inside.

    Canonical intervals get the exact value (b - a) / 4; other domains get a
    grid search over inside-node pairs maximizing
    min(delta(x), delta(y), |x - y| / 2), with delta the domain's
    `inside_distance`, computed once per domain.

    The search visits the inside nodes in descending delta (a stable sort)
    and scans each row block against every node at or before it, reading
    |x - y| by index offset (`geometry._offset_distances`).  A pair's value
    is at most the delta of its later node, so the search stops at the
    first block whose largest delta does not exceed the best value so far.
    A maximum does not depend on the order of its terms, so the result is the
    maximum over all pairs, bit for bit.
    """
    tag = dom.shape_tag
    if isinstance(tag, Interval):
        return (tag.b - tag.a) / 4.0
    delta = dom.inside_distance
    order = np.argsort(-delta, kind="stable")
    delta = delta[order]
    nodes = dom.inside_indices[order]
    table, row_keys, col_keys = _offset_distances(dom, nodes, nodes)[:3]
    best = 0.0
    # cap is symmetric (bitwise), so a block needs only the columns up to its
    # last row: the pairs after them are rows of a later block
    rows = block_rows(nodes.size)
    work = np.empty(min(rows, nodes.size) * nodes.size)
    for k0 in range(0, nodes.size, rows):
        if delta[k0] <= best:
            break
        k1 = k0 + rows
        cap = _gather(table, row_keys[k0:k1], col_keys[:k1], work)
        cap *= 0.5
        np.minimum(cap, delta[None, :k1], out=cap)
        np.minimum(cap, delta[k0:k1, None], out=cap)
        best = max(best, float(cap.max()))
    return best
