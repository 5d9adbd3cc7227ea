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
table per scan, which `geometry._offset_distances` builds, `geometry._gather`
reads and `geometry._tile_envelopes` bounds over lattice tiles.  Every
lattice reflection permutes index offsets, so it keeps every distance bit
for bit, and the scan is folded over the mask's reflections
(`geometry._reflections`, the solver's group), held in geometry's one form,
as permutations of the candidate columns.  Of these, the scan keeps
the elements g that map the scanned nodes onto themselves and keep u up to a
sign s, u o g = s u compared by value, so mixed groups (u odd in x and even in
y) fold too.  One row per orbit is scanned (`geometry._orbits` numbers the
orbits, as for the solver's tables).  Negation commutes with IEEE subtraction
and division, so q(g x, g y) = s q(x, y) compared by value (the two zeros
equal), and a member g x takes its witness from the row's extreme (s = 1) or
its other extreme (s = -1: the sup at g x is minus the inf at x): the lowest
flat index in g(T), T the columns tied at that extreme by value, which is
the witness a scan of its own row would pick.  The fold carries that witness
w and the distance |w - g x|^alpha there, which g keeps bitwise, and forms
the value once, (u(w) - u(g x)) / |w - g x|^alpha, as that scan forms it at
its witness: bit for bit, its sign of zero included, even where g keeps u by
value but not in bits.  A scan from one node has nothing to fold.

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
power, so U and L bound the rounded quotients bit for bit.  The tiles, u's
extremes over them and the envelopes come from `geometry._tile_envelopes`,
so the scan reshapes no table and reads no layout.  The block forms the
columns of the patches with U >= bp or L <= bm on some row, in ascending
order, and no others: a dropped column is strictly below the sup and above
the inf of every row, so argmax, argmin and the tied set T are those of the
full rows.  The bound only drops columns of the scanned rows, so it composes
with the fold.  A scan that fits in one block (one node, a coarse lattice)
forms every quotient and sets up no bound.  Either way a block forms its
quotients in sub-blocks of rows, a bounded number of entries at a time, so
a block near a flat maximum, which keeps almost every column, needs no
larger workspace than one that keeps few; each row is reduced over the same
columns in the same order, so the sub-blocks change no bit.

The scan works on values, not on grid functions: `_extreme_quotients`,
`_scan` and `_invariance` take the domain and u's values at its candidates
(`_candidates`).  The public functions read those with `GridFunction.at`,
so a function held at the inside nodes (`GridFunction.from_inside`:
`representation`, a sampled closed-form profile) is scanned and reported
without an array over the box's nodes.  A function stored over the box is
read as stored, so a -0.0 outside the region keeps its bits.

The distance to the complement, delta, is fixed by the region, so every
function here that needs it reads the domain's `GridDomain.inside_distance`,
computed once per domain: none takes a delta.

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

from .geometry import (
    _BLOCK_ELEMENTS,
    GridDomain,
    GridFunction,
    Interval,
    NodeSet,
    _check_alpha,
    _coords,
    _gather,
    _nearest_distances,
    _node_index,
    _offset_distances,
    _orbits,
    _reflections,
    _tile_envelopes,
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

# Quotient entries one sub-block of a scan forms at a time (`_scan`): 2**15,
# 256 KB per workspace.  A row block near a flat maximum keeps almost every
# column, and forming it whole touched the 1 MB of a full block per
# workspace; this bound took the scans' traced peak on verify1d at
# h = 1/256 from 2.45 to 0.92 MB.
_SUB_BLOCK_ELEMENTS = _BLOCK_ELEMENTS // 4

# The sup, then the inf: the self pair's value, which the pick passes over,
# and the pick.
_EXTREMES = ((-np.inf, np.argmax), (np.inf, np.argmin))


def _candidates(dom: GridDomain, zero_extended: bool) -> np.ndarray:
    """The ascending flat indices a scan compares against (the module
    docstring): the inside nodes and their ring for a zero-extended
    function, every box node otherwise."""
    return dom.inside_and_ring if zero_extended else np.arange(dom.n_nodes)


def _invariance(dom: GridDomain, vals: np.ndarray, cand: np.ndarray,
                at: Optional[np.ndarray]) -> tuple:
    """The mask reflections (`geometry._reflections`) as permutations of the
    ascending candidate nodes cand that map the base nodes, at the ascending
    positions `at` among them, onto themselves and keep u, given by its
    values vals at the candidates, up to sign at every candidate, compared
    by value: ``(group, sign)`` with u o group[k] == sign[k] * u.  Equality
    by value up to sign is transitive, so the elements form a group,
    identity first; the identity alone for one base node or when one is not
    a candidate (None)."""
    if at is None or at.size == 1:
        return [np.arange(cand.size)], np.ones(1)
    in_base = np.zeros(cand.size, dtype=bool)
    in_base[at] = True
    kept = []
    for g in _reflections(dom, cand):
        image = vals[g]
        s = 1.0 if np.array_equal(image, vals) else -1.0
        if in_base[g[at]].all() and np.array_equal(image, s * vals):
            kept.append((g, s))
    group, sign = zip(*kept)
    return list(group), np.array(sign)


def _extreme_quotients(dom: GridDomain, vals: np.ndarray, alpha: float, base: np.ndarray,
                       base_vals: np.ndarray,
                       zero_extended: bool = True) -> Tuple[np.ndarray, ...]:
    """Max/min Hoelder quotients (and witnesses) for each base node, given as
    ascending flat indices, of a function u on dom given by its values vals
    at its candidates (`_candidates`) and base_vals at the base nodes: over
    R^n for a zero-extended u, over the box otherwise (see the module
    docstring).

    One base node per orbit of the invariance group (`_invariance`) is
    scanned (`_scan`), its smallest (`geometry._orbits` over positions in
    base).  A member g x of an orbit takes the witness of an extreme of row
    x through g, and the distance there (`_expand`), and its value is formed
    once, at that witness.  The far field is offered last, to every base
    node alike.

    The fold sorts nothing (the first sort of a process maps about 0.4 MB of
    numpy's sort kernels), keeps one permutation of the candidates per
    group element, and makes the results before the blocks, so the blocks
    are the last allocation, as in an unfolded scan, and freeing them can
    return their memory.
    """
    cand = _candidates(dom, zero_extended)
    base = np.asarray(base, dtype=np.int64)
    # column of each base node among the candidates, where it is one (y = x is excluded)
    col = np.minimum(np.searchsorted(cand, base), cand.size - 1)
    is_cand = cand[col] == base
    group, sign = _invariance(dom, vals, cand, col if is_cand.all() else None)
    # the group as permutations of positions in base, which its elements map onto itself
    reps, orbit, elem = _orbits([np.arange(base.size)]
                                + [np.searchsorted(col, g[col]) for g in group[1:]])
    result = (np.empty(base.size), np.empty(base.size, dtype=np.int64),
              np.empty(base.size), np.empty(base.size, dtype=np.int64))
    scanned = _scan(dom, vals, alpha, cand, base[reps], base_vals[reps], col[reps],
                    is_cand[reps], group)

    for e, (self_value, _) in enumerate(_EXTREMES):
        value, witness = _expand(scanned, e, orbit, elem, group, sign, vals, base_vals,
                                 cand, result[2 * e:2 * e + 2])
        if zero_extended:
            # the far field, at 0, wins where strictly better: where the
            # value lies on the self pair's side of 0
            far = np.sign(value) == np.sign(self_value)
            value[far] = 0.0
            witness[far] = EXTERIOR_WITNESS
    return result


def _scan(dom: GridDomain, vals: np.ndarray, alpha: float, cand: np.ndarray,
          rows: np.ndarray, bv: np.ndarray, col: np.ndarray, is_cand: np.ndarray,
          group: list) -> list:
    """The extremes of the rows (flat indices, where u is bv) over the
    ascending candidates cand (where u is vals): for the sup, then the inf,
    the distances |y - x|^alpha at the witnesses, the witnesses as candidate
    columns, and the rows tied at the extreme (`_ties`, where the group has
    more than the identity).  Row i is candidate column col[i] where
    is_cand[i], and that self pair is passed over.

    The rows run in blocks of `block_rows` rows.  A scan of more than one
    block is bounded (`_patch_bound`, on envelopes of the table that
    `geometry._tile_envelopes` builds; the module docstring gives the bound,
    why it is exact and why it composes with the fold), which keeps a set of
    columns for each block.  The block then forms its quotients in
    sub-blocks of at most `_SUB_BLOCK_ELEMENTS` entries (one row at least),
    gathering |y - x|^alpha from the alpha-powered offset table, NaN at
    y = x (set apart below).  The sup and the inf are one rule with the
    direction flipped, so both run through one loop.  Each extreme
    is its argmax or argmin, and the distance is read back at that column,
    so the value `_expand` forms from it is that entry's quotient, bit for
    bit.  Every row is reduced over the same columns, in the same order,
    whatever its sub-block.

    The distance, quotient and tie workspaces are allocated once per call,
    at the most any sub-block or the bound's first pass writes:
    `_SUB_BLOCK_ELEMENTS`, one row of every column, or a block of the first
    pass's columns, and never more than a block of every column.  Each of
    those writes their leading entries.  So while one row of candidates fits
    in a sub-block they hold about 0.56 MB, however many columns a block
    keeps.
    """
    dist_a, row_keys, col_keys = _offset_distances(dom, rows, cand, alpha, np.nan)
    n = rows.size
    extremes = [(np.empty(n), np.empty(n, dtype=np.int64), []) for _ in _EXTREMES]

    step = min(block_rows(cand.size), n)
    every = np.arange(cand.size)
    select = (_patch_bound(dom, rows, cand, bv, vals, dist_a, row_keys, col_keys, step)
              if step < n else None)
    sampled = -(-cand.size // _SAMPLE_STRIDE)
    dist = np.empty(min(step * cand.size,
                        max(_SUB_BLOCK_ELEMENTS, cand.size, step * sampled)))
    quot = np.empty_like(dist)
    tied = np.empty(dist.shape, dtype=bool) if len(group) > 1 else None
    at = np.arange(step)
    for b0 in range(0, n, step):
        block = slice(b0, min(b0 + step, n))
        sel = every if select is None else select(block, dist, quot)
        sel_vals, sel_keys = vals[sel], col_keys[sel]
        sub = max(1, _SUB_BLOCK_ELEMENTS // sel.size)
        for k0 in range(b0, block.stop, sub):
            sl = slice(k0, min(k0 + sub, block.stop))
            i = at[:sl.stop - k0]
            self_row = np.flatnonzero(is_cand[sl])
            self_col = col[sl][self_row]
            d, q = _quotients(sel_vals, bv[sl], row_keys[sl], sel_keys, dist_a, dist, quot)
            # the self pair, where its column was kept
            pos = np.minimum(np.searchsorted(sel, self_col), sel.size - 1)
            kept = sel[pos] == self_col
            self_at = (self_row[kept], pos[kept])
            eq = None if tied is None else tied[:q.size].reshape(q.shape)
            for (self_value, pick), (d_best, witness, ties) in zip(_EXTREMES, extremes):
                q[self_at] = self_value
                best = pick(q, axis=1)
                d_best[sl] = d[i, best]
                witness[sl] = sel[best]
                if eq is not None:
                    _ties(q, d, best, eq, k0, sel, group, ties)
    return extremes


def _quotients(vals: np.ndarray, bv: np.ndarray, row_keys: np.ndarray,
               col_keys: np.ndarray, dist_a: np.ndarray, dist: np.ndarray,
               quot: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distances d[i, j] = dist_a[row_keys[i] - col_keys[j]], gathered
    (`geometry._gather`) into the leading entries of the workspace dist, and
    the block q[i, j] = (vals[j] - bv[i]) / d[i, j], written into those of
    the workspace quot: ``(d, q)``."""
    d = _gather(dist_a, row_keys, col_keys, dist)
    q = quot[:d.size].reshape(d.shape)
    np.subtract(vals[None, :], bv[:, None], out=q)
    q /= d
    return d, q


def _patch_bound(dom: GridDomain, rows: np.ndarray, cand: np.ndarray, bv: np.ndarray,
                 vals: np.ndarray, dist_a: np.ndarray, row_keys: np.ndarray,
                 col_keys: np.ndarray, step: int):
    """The column selection of a bounded scan (`_extreme_quotients`): rows
    (flat indices) with values bv against the candidates cand with values
    vals, and the scan's alpha-powered `geometry._offset_distances` table
    dist_a, NaN at the zero offset, with its keys.  Returns select(rows,
    dist, quot): the ascending candidate columns kept for the block of rows
    (a slice of at most step of the scanned rows), using the workspaces dist
    and quot of `_quotients`.  The block's (2, rows, patches) bounds are
    written into workspaces made here, once per scan.

    The block first forms its quotients against every `_SAMPLE_STRIDE`-th
    candidate.  The self pair's is NaN, which fmax and fmin pass over, so
    the row maxima bp and minima bm are actual quotients: bp <= max and
    bm >= min on every row (or NaN, when a row sampled only itself).

    A patch P is an occupied lattice tile of `_PATCH_SIDE` nodes per axis;
    `geometry._tile_envelopes` numbers the patches, takes max_P u and
    min_P u, and builds the near and far envelopes of dist_a between every
    row and patch, which are read through their keys.  Every quotient of
    row x against P is at most U = (max_P u - u(x)) / D and at least
    L = (min_P u - u(x)) / D', each a rounded operation: D is the near
    envelope when the numerator is >= 0 and the far one when it is < 0, and
    D' the other way round.  Rounding is monotone in each operand, so the
    bound holds for the rounded quotients, bit for bit.  A patch is dropped
    only where U < bp and L > bm on every row of the block, so a NaN keeps
    it."""
    patch, ends, near_far, row_key, patch_key = _tile_envelopes(
        dom, dist_a, rows, cand, vals, _PATCH_SIDE[dom.dim])
    ends = ends[:, None, :]
    sample = slice(None, None, _SAMPLE_STRIDE)
    sample_vals, sample_keys = vals[sample], col_keys[sample]
    d_work = np.empty(2 * step * patch_key.size)
    bound_work = np.empty_like(d_work)
    nonneg_work = np.empty(d_work.shape, dtype=bool)

    def select(rows: slice, dist: np.ndarray, quot: np.ndarray) -> np.ndarray:
        _, q = _quotients(sample_vals, bv[rows], row_keys[rows], sample_keys, dist_a,
                          dist, quot)
        bp = np.fmax.reduce(q, axis=1)[:, None]
        bm = np.fmin.reduce(q, axis=1)[:, None]
        shape = (2, rows.stop - rows.start, patch_key.size)
        d, bound, nonneg = (w[:math.prod(shape)].reshape(shape)
                            for w in (d_work, bound_work, nonneg_work))
        # the (row, patch) keys in the bound's workspace, read before it is written
        keys = np.subtract.outer(row_key[rows], patch_key, out=bound[0].view(np.int64))
        near_far.take(keys, axis=1, out=d, mode="clip")
        np.subtract(ends, bv[None, rows, None], out=bound)
        # the upper bound divides by the near envelope where its numerator
        # is >= 0, the lower bound by the far one, reversed otherwise
        np.greater_equal(bound, 0.0, out=nonneg)
        np.divide(bound, d, out=bound, where=nonneg)
        np.divide(bound, d[::-1], out=bound, where=np.logical_not(nonneg, out=nonneg))
        drop = ((bound[0] < bp) & (bound[1] > bm)).all(axis=0)
        return np.flatnonzero(~drop[patch])

    return select


def _ties(q: np.ndarray, d: np.ndarray, best: np.ndarray, eq: np.ndarray,
          k0: int, sel: np.ndarray, group: list, out: list) -> None:
    """Append (row, images, distances) for each row of the block q whose
    extreme is attained at more than one column, compared by value (the two
    zeros tie): per element of group, the least image of the tied columns
    and the distance d at that column, so |group| pairs however many columns
    tie.  The columns of q are the candidates sel, best is the argmax or
    argmin of each row, and eq a bool workspace of q's shape, the only array
    of that shape made for ties; the tied columns' images are gathered one
    element at a time."""
    rows = np.arange(best.size)
    np.equal(q, q[rows, best][:, None], out=eq)
    eq[rows, best] = False
    for row in np.flatnonzero(eq.any(axis=1)):
        eq[row, best[row]] = True
        cols = np.flatnonzero(eq[row])
        tied = sel[cols]
        k = np.array([g[tied].argmin() for g in group])
        images = np.array([g[y] for g, y in zip(group, tied[k])])
        out.append((k0 + row, images, d[row, cols[k]]))


def _expand(scanned: list, e: int, orbit: np.ndarray, elem: np.ndarray, group: list,
            sign: np.ndarray, vals: np.ndarray, base_vals: np.ndarray, cand: np.ndarray,
            out: tuple) -> tuple:
    """Values and witnesses of extreme e (0 the sup, 1 the inf) at every
    base node, where u is base_vals, written into out, from the scanned
    rows' witnesses (candidate columns, where u is vals) and distances there
    (`_scan`): base node i takes row orbit[i] through the element
    g = group[elem[i]].  Where g keeps u it takes extreme e of the row;
    where g flips the sign of u, the other extreme (the sup at g x is at g
    of the inf's witness).  The witness is g of the row's, or on a row tied
    at that extreme what `_ties` kept for g: the smallest image of the tied
    columns, and the distance there.  A reflection keeps every distance, so
    the value at y = g x, (u(w) - u(y)) / d, formed once here, is the
    quotient a scan of row y itself forms at its witness w, bit for bit,
    its sign of zero included.  The columns become flat node indices at the
    end."""
    # value holds the distance at the witness until the quotient is formed
    value, witness = out
    flip = sign[elem] < 0
    # the base nodes that take each extreme of their row
    takes = [np.flatnonzero(flip == (s != e)) for s in (0, 1)]
    for (d, w, _), i in zip(scanned, takes):
        value[i] = d[orbit[i]]
        witness[i] = w[orbit[i]]
    for k, g in enumerate(group[1:], 1):
        i = np.flatnonzero(elem == k)
        witness[i] = g[witness[i]]
    for (_, _, ties), i in zip(scanned, takes):
        for row, images, dist in ties:
            j = i[orbit[i] == row]
            witness[j] = images[elem[j]]
            value[j] = dist[elem[j]]
    np.divide(vals[witness] - base_vals, value, out=value)
    return value, cand.take(witness, out=witness)


def _grid_extremes(u: GridFunction, alpha: float, base: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`_extreme_quotients` of a grid function at the base nodes, its values
    read with `GridFunction.at`, bit for bit (a -0.0 stays -0.0)."""
    cand = _candidates(u.domain, u.zero_extended)
    return _extreme_quotients(u.domain, u.at(cand), alpha, base, u.at(base), u.zero_extended)


def linf_plus(u: GridFunction, alpha: float, x: int) -> Tuple[float, int]:
    """Sup of the alpha-quotient at node x; returns (value, witness index).

    Witness -1 means the far field won: every other quotient is negative.
    """
    _check_alpha(alpha)
    lp, wp, _, _ = _grid_extremes(u, alpha, np.array([_node_index(u.domain, x)]))
    return float(lp[0]), int(wp[0])


def linf_minus(u: GridFunction, alpha: float, x: int) -> Tuple[float, int]:
    """Inf of the alpha-quotient at node x; returns (value, witness index).

    Witness -1 means the far field won: every other quotient is positive.
    """
    _check_alpha(alpha)
    _, _, lm, wm = _grid_extremes(u, alpha, np.array([_node_index(u.domain, x)]))
    return float(lm[0]), int(wm[0])


def linf_minus_analytic(u: GridFunction, alpha: float, x: int) -> float:
    """-u(x) / delta(x)^alpha, delta the domain's `inside_distance`: the
    infimum a nonnegative zero-extended function attains in the complement
    of the region.  x must be an inside node (ValueError otherwise)."""
    _check_alpha(alpha)
    dom = u.domain
    x = _node_index(dom, x)
    if not dom.inside_flat[x]:
        raise ValueError(f"node {x} is not an inside node")
    dx = dom.inside_distance[np.searchsorted(dom.inside_indices, x)]
    return float(-u.at(np.array([x]))[0] / dx ** alpha)


def holder_seminorm(u: GridFunction, alpha: float) -> float:
    """Discrete alpha-Hoelder seminorm: max quotient over node pairs.

    Pairs with both values zero contribute nothing, so scanning (nonzero node,
    any node) pairs is exact.  The far-field candidate of a zero-extended u
    is 0, so it cannot raise the maximum of |quotient|.
    """
    _check_alpha(alpha)
    # a zero-extended u vanishes off its candidates
    cand = _candidates(u.domain, u.zero_extended)
    nz = cand[u.at(cand) != 0.0]
    if nz.size == 0:
        return 0.0
    lp, _, lm, _ = _grid_extremes(u, alpha, nz)
    return float(max(lp.max(), -lm.min(), 0.0))


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InfinityReport:
    """Per-inside-node evaluation of the limiting eigenvalue equation.

    delta is the domain's read-only `GridDomain.inside_distance` itself, not
    a copy."""

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


def _residual_report(u: GridFunction, alpha: float, lam: float,
                     band_scale: Optional[float], name: str) -> InfinityReport:
    """One extreme-quotient scan over the inside nodes, u read at its
    candidates (`_candidates`), delta the domain's `inside_distance`.
    band_scale None is the first-eigenvalue equation: u >= 0 and no dead
    band."""
    _check_alpha(alpha)
    if not u.zero_extended:
        raise ValueError(f"{name} expects a zero-extended function")
    if band_scale is not None and not band_scale >= 0.0:  # NaN included
        raise ValueError("band_scale must be >= 0")
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    dom = u.domain
    nodes = dom.inside_indices
    vals = u.at(dom.inside_and_ring)
    uin = vals[dom.inside_flat[dom.inside_and_ring]]
    din = dom.inside_distance
    if band_scale is None and np.any(uin < 0.0):
        raise ValueError(f"{name} expects a nonnegative function")
    lp, wp, lm, wm = _extreme_quotients(dom, vals, alpha, nodes, uin)

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


def first_residual(u: GridFunction, alpha: float, lam: float) -> InfinityReport:
    """Residual of max{ l_plus + l_minus, l_minus + lam*u } = 0 for u >= 0."""
    return _residual_report(u, alpha, lam, None, "first_residual")


def higher_residual(u: GridFunction, alpha: float, lam: float,
                    band_scale: float = 1.0) -> InfinityReport:
    """Residual of the sign-switching eigenvalue equation.

    Branches: where u > 0 the first-eigenvalue max-branch applies; where u < 0
    the mirrored min{ l_plus + l_minus, l_plus + lam*u }; nodes with |u| below
    the dead band count as u = 0 and must satisfy l_plus + l_minus = 0.  The
    dead band is band_scale * h^alpha * [u]_alpha, one lattice cell's worth of
    Hoelder variation, so it vanishes under refinement.  The seminorm is read
    off the same scan that gives l_plus and l_minus: one scan per report.
    """
    return _residual_report(u, alpha, lam, band_scale, "higher_residual")


# ---------------------------------------------------------------------------
# closed-form objects
# ---------------------------------------------------------------------------


def representation(dom: GridDomain, gamma1: NodeSet, alpha: float) -> GridFunction:
    """First eigenfunction of the limiting equation built from distances.

    u = delta^alpha / (delta^alpha + rho^alpha), where delta is the domain's
    distance to the complement (`GridDomain.inside_distance`) and rho the
    distance to the chosen subset gamma1 of the ridge,
    high_ridge(distance_to_complement(dom)).  Equals 1 exactly on gamma1,
    lies in (0, 1] inside, 0 outside, so rho is read (by index offset) at
    inside nodes only.  The result is held at the inside nodes
    (`GridFunction.from_inside`), as delta is read there.
    """
    _check_alpha(alpha)
    if not dom.same_lattice(gamma1.domain):
        raise ValueError("node set lives on a different lattice")
    if not np.isin(gamma1.indices, high_ridge(distance_to_complement(dom)).indices).all():
        raise ValueError("gamma1 contains nodes outside the ridge tolerance")
    da = dom.inside_distance ** alpha
    ra = _nearest_distances(dom, dom.inside_indices, gamma1.indices) ** alpha
    return GridFunction.from_inside(dom, da / (da + ra))


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
    dist, row_keys, col_keys = _offset_distances(dom, np.array([x0]), np.arange(dom.n_nodes))
    r = _gather(dist, row_keys, col_keys, np.empty(dom.n_nodes))[0]
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
    table, row_keys, col_keys = _offset_distances(dom, nodes, nodes)
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
