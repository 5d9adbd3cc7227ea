import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial.distance import cdist

from fracteig import geometry, infinity
from fracteig.geometry import (
    GridFunction,
    NodeSet,
    build_disk,
    build_interval,
    build_rectangle,
    distance_to_complement,
    distance_to_set,
    high_ridge,
    inscribed_radius,
    nearest_node,
)
from fracteig.infinity import (
    BRANCH_EIGEN,
    BRANCH_OPERATOR,
    BRANCH_ZERO,
    EXTERIOR_WITNESS,
    _dilate,
    _extreme_quotients,
    cone,
    first_residual,
    higher_residual,
    holder_seminorm,
    lambda_infinity,
    linf_minus,
    linf_minus_analytic,
    linf_plus,
    r2_radius,
    representation,
)
from fracteig.closedform1d import first_1d, sample, second_1d, third_1d
from test_energy import offset_distances
from test_geometry import triangle_mask

SRC = str(Path(infinity.__file__).resolve().parents[1])


def rep_on_interval(h=0.25, alpha=0.5):
    dom = build_interval(0.0, 2.0, h)
    delta = distance_to_complement(dom)
    ridge = high_ridge(delta)
    return dom, delta, ridge, representation(dom, ridge, alpha)


def test_extremes_of_zero_function():
    dom = build_interval(0.0, 2.0, 0.25)
    u = GridFunction(dom, np.zeros(dom.lattice_shape))
    ix = nearest_node(dom, 0.5)
    assert linf_plus(u, 0.5, ix) == (0.0, EXTERIOR_WITNESS) or linf_plus(u, 0.5, ix)[0] == 0.0
    assert linf_minus(u, 0.5, ix)[0] == 0.0


def test_l_plus_representation_halfway():
    # at x = 0.5 both distances are 0.5; the sup is the quotient to the ridge
    dom, delta, ridge, u = rep_on_interval()
    ix = nearest_node(dom, 0.5)
    val, wit = linf_plus(u, 0.5, ix)
    assert val == pytest.approx(1.0 / (0.5 ** 0.5 + 0.5 ** 0.5), rel=1e-14)
    assert wit == ridge.indices[0]


def test_l_plus_nonpositive_at_unique_max():
    dom, delta, ridge, u = rep_on_interval()
    assert linf_plus(u, 0.5, int(ridge.indices[0]))[0] <= 0.0


@pytest.mark.parametrize("margin", [1.0, 2.0, 4.0, 8.0])
def test_l_plus_at_the_maximum_is_the_far_field(margin):
    # every other quotient at the strict maximum is negative; the sup over
    # R^n is the 0 the zero extension approaches far away, whatever the box
    dom = build_interval(0.0, 2.0, 1 / 16, margin)
    ridge = high_ridge(distance_to_complement(dom))
    u = representation(dom, ridge, 0.5)
    assert linf_plus(u, 0.5, int(ridge.indices[0])) == (0.0, EXTERIOR_WITNESS)


def _brute_extremes(u, alpha, x, d):
    """(value, witness, unique) for the sup and the inf at node x, scanning
    every box node y != x at the distances d from x, and then the far field,
    value 0, which wins only when strictly better."""
    vals = u.flat()
    d = d.copy()
    d[x] = np.inf
    q = (vals - vals[x]) / d ** alpha
    out = []
    for pick, better, own in ((np.argmax, np.greater, -np.inf), (np.argmin, np.less, np.inf)):
        q[x] = own
        k = int(pick(q))
        if better(0.0, q[k]):
            out.append((0.0, EXTERIOR_WITNESS, True))
        else:
            ties = np.count_nonzero(q == q[k]) + (q[k] == 0.0)
            out.append((q[k], k, ties == 1))
    return out


def _slab_function(dom):
    """Positive on most of the region, negative on a slab at its left end, so
    near either end the nearest outside node sets one of the two extremes;
    exact zeros at every fifth inside node."""
    rng = np.random.default_rng(3)
    x0 = dom.node_coords[:, 0]
    sign = np.where(x0 < x0[dom.inside_flat].min() + 0.5, -1.0, 1.0)
    vals = (0.1 + rng.uniform(size=dom.n_nodes)) * sign
    vals[~dom.inside_flat] = 0.0
    vals[dom.inside_indices[::5]] = 0.0
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


_FULL_SCAN_DOMAINS = pytest.mark.parametrize(
    "dom", [build_interval(0.0, 2.0, 1 / 8, 1.0), build_disk((0.1, 0.0), 1.0, 1 / 4, 1.0)],
    ids=["interval", "disk"])


@_FULL_SCAN_DOMAINS
def test_extremes_match_full_box_scan_plus_far_field(dom):
    """Bitwise equal to a scan over every box node at the offset distances,
    h sqrt(sum a_k^2) from the integer index offset a, plus the far field;
    the same witness wherever the extreme is unique."""
    u = _slab_function(dom)
    alpha = 0.6
    nodes = np.arange(dom.n_nodes)
    unique = 0
    for x in range(dom.n_nodes):
        got = (linf_plus(u, alpha, x), linf_minus(u, alpha, x))
        for (value, witness), (want, want_witness, is_unique) in zip(
                got, _brute_extremes(u, alpha, x, offset_distances(dom, [x], nodes)[0])):
            assert np.float64(value).tobytes() == np.float64(want).tobytes()
            if is_unique:
                assert witness == want_witness
                unique += 1
    assert unique > dom.n_nodes  # most extremes are unique


@_FULL_SCAN_DOMAINS
def test_extremes_stay_within_rounding_of_coordinate_distances(dom):
    """Against the same scan at the distances of the rounded node
    coordinates, every extreme agrees to 2 eps relative (measured: equal on
    the interval at h = 1/8, whose coordinates are exact; 1.2 eps on the disk
    centred at (0.1, 0)), and a far-field 0 stays exactly 0."""
    u = _slab_function(dom)
    coords = dom.node_coords
    lp, _, lm, _ = _extreme_quotients(u, 0.6, np.arange(dom.n_nodes))
    tol = 2.0 * np.finfo(float).eps
    for x in range(dom.n_nodes):
        d = np.sqrt(((coords - coords[x]) ** 2).sum(axis=1))
        (want_p, _, _), (want_m, _, _) = _brute_extremes(u, 0.6, x, d)
        assert abs(lp[x] - want_p) <= tol * abs(want_p)
        assert abs(lm[x] - want_m) <= tol * abs(want_m)


def test_l_minus_analytic_values():
    dom, delta, ridge, u = rep_on_interval()
    # at the ridge: -u/delta^alpha = -1
    assert linf_minus_analytic(u, delta, 0.5, int(ridge.indices[0])) == pytest.approx(-1.0)
    with pytest.raises(RuntimeError, match="distance vanishes at node"):
        linf_minus_analytic(u, delta, 0.5, nearest_node(dom, -1.0))


def test_l_minus_analytic_rejects_a_distance_on_another_lattice():
    """delta must live on u's lattice, as in the residual reports: (0, 4) at
    h = 1/4 has the 81 nodes of (0, 2) at h = 1/8 at other coordinates, and
    (0, 2) at h = 1/4 has fewer nodes."""
    dom, delta, ridge, u = rep_on_interval(h=1 / 8)
    same_count, coarser = build_interval(0.0, 4.0, 0.25), build_interval(0.0, 2.0, 0.25)
    assert same_count.n_nodes == dom.n_nodes > coarser.n_nodes
    for other in (same_count, coarser):
        with pytest.raises(ValueError, match="different lattice"):
            linf_minus_analytic(u, distance_to_complement(other), 0.5, int(ridge.indices[0]))


@pytest.mark.parametrize("x", [0.5, 9.9, True, np.float64(3.0)])
def test_node_index_that_is_no_integer_is_rejected(x):
    """A fractional index is not truncated to a node, and a bool is no index."""
    dom, delta, ridge, u = rep_on_interval()
    calls = [lambda: linf_plus(u, 0.5, x), lambda: linf_minus(u, 0.5, x),
             lambda: linf_minus_analytic(u, delta, 0.5, x), lambda: cone(dom, x, 0.5, 0.5)]
    for call in calls:
        with pytest.raises(ValueError, match="node index must be an integer"):
            call()


def test_numpy_integer_node_index_is_accepted():
    dom, delta, ridge, u = rep_on_interval()
    x = np.int64(3)
    assert linf_plus(u, 0.5, x) == linf_plus(u, 0.5, 3)
    assert linf_minus(u, 0.5, x) == linf_minus(u, 0.5, 3)
    np.testing.assert_array_equal(cone(dom, x, 0.5, 0.5).flat(), cone(dom, 3, 0.5, 0.5).flat())
    top = int(ridge.indices[0])
    assert (linf_minus_analytic(u, delta, 0.5, np.int64(top))
            == linf_minus_analytic(u, delta, 0.5, top))


def test_node_index_out_of_range_is_rejected():
    # numpy would wrap x = -1 to the last box node instead of failing
    dom, delta, ridge, u = rep_on_interval()
    for x in (-1, dom.n_nodes):
        with pytest.raises(ValueError, match=f"node index {x} out of range"):
            linf_plus(u, 0.5, x)
        with pytest.raises(ValueError, match=f"node index {x} out of range"):
            linf_minus(u, 0.5, x)
        with pytest.raises(ValueError, match=f"node index {x} out of range"):
            linf_minus_analytic(u, delta, 0.5, x)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_l_minus_brute_equals_analytic_on_interval(alpha):
    dom, delta, ridge, u = rep_on_interval(h=1 / 50, alpha=alpha)
    for ix in dom.inside_indices:
        lm, wm = linf_minus(u, alpha, int(ix))
        assert lm == pytest.approx(linf_minus_analytic(u, delta, alpha, int(ix)), abs=1e-14)
        if alpha < 1.0:
            # the infimum looks out of the region (or beyond the box)
            assert wm == EXTERIOR_WITNESS or not dom.inside_flat[wm]


def test_l_minus_brute_near_analytic_on_disk():
    h = 0.125
    dom = build_disk((0.0, 0.0), 1.0, h)
    delta = distance_to_complement(dom)
    u = representation(dom, high_ridge(delta), 0.5)
    worst = 0.0
    for ix in dom.inside_indices:
        lm, _ = linf_minus(u, 0.5, int(ix))
        lma = linf_minus_analytic(u, delta, 0.5, int(ix))
        worst = max(worst, abs(lm - lma))
    assert worst <= 2.0 * h ** 0.5


def test_monotone_extremes():
    # psi >= phi with equality at x0 pushes both extremes up
    dom, delta, ridge, phi = rep_on_interval(h=1 / 16)
    psi = GridFunction(dom, np.sqrt(phi.values))
    x0 = int(ridge.indices[0])
    assert psi.flat()[x0] == phi.flat()[x0] == 1.0
    assert np.all(psi.values >= phi.values)
    assert linf_plus(psi, 0.5, x0)[0] >= linf_plus(phi, 0.5, x0)[0]
    assert linf_minus(psi, 0.5, x0)[0] >= linf_minus(phi, 0.5, x0)[0]


def test_holder_seminorm_against_brute():
    rng = np.random.default_rng(12)
    dom = build_interval(0.0, 1.0, 1 / 10)
    vals = np.where(dom.inside_flat, rng.normal(size=dom.n_nodes), 0.0)
    u = GridFunction(dom, vals.reshape(dom.lattice_shape))
    alpha = 0.6
    coords = dom.node_coords[:, 0]
    flat = u.flat()
    brute = 0.0
    for i in range(dom.n_nodes):
        for j in range(dom.n_nodes):
            if i != j and (flat[i] != 0.0 or flat[j] != 0.0):
                brute = max(brute, abs(flat[j] - flat[i]) / abs(coords[j] - coords[i]) ** alpha)
    assert holder_seminorm(u, alpha) == pytest.approx(brute, rel=1e-13)


def test_first_residual_validation():
    dom, delta, ridge, u = rep_on_interval()
    with pytest.raises(ValueError, match="nonnegative"):
        first_residual(GridFunction(dom, -u.values), 0.5, 1.0, delta)
    rho = distance_to_set(dom, ridge)
    with pytest.raises(ValueError, match="zero-extended"):
        first_residual(rho, 0.5, 1.0, delta)
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lam must be finite"):
            first_residual(u, 0.5, lam, delta)
        with pytest.raises(ValueError, match="lam must be finite"):
            higher_residual(u, 0.5, lam, delta)


def test_first_residual_small_at_true_lambda():
    dom, delta, ridge, u = rep_on_interval(h=1 / 100)
    rep = first_residual(u, 0.5, lambda_infinity(dom, 0.5), delta)
    assert rep.sup_norm() <= 1e-12
    assert set(rep.branch) <= {BRANCH_OPERATOR, BRANCH_EIGEN}


def test_first_residual_detects_wrong_lambda():
    dom, delta, ridge, u = rep_on_interval(h=1 / 100)
    rep = first_residual(u, 0.5, 0.5 * lambda_infinity(dom, 0.5), delta)
    assert rep.sup_norm() >= 0.2


def test_report_structure():
    dom, delta, ridge, u = rep_on_interval(h=1 / 20)
    lam = lambda_infinity(dom, 0.5)
    rep = first_residual(u, 0.5, lam, delta)
    s = rep.summary()
    assert s["nodes"] == dom.inside_count
    assert s["lambda"] == lam
    assert s["sup_residual"] >= s["sup_residual_interior"] >= 0.0
    k = rep.worst_node()
    assert k in rep.nodes  # worst_node reports a flat lattice index
    pos = int(np.flatnonzero(rep.nodes == k)[0])
    assert abs(rep.residual[pos]) == rep.sup_norm()
    rows = list(rep.rows())
    assert len(rows) == dom.inside_count
    assert len(rows[0]) == 11  # node, x, u, delta, 4 extreme cols, analytic, branch, residual
    np.testing.assert_array_equal(rep.interior_mask, rep.delta > 2.0 * dom.h)


def test_higher_residual_zero_function_and_validation():
    dom = build_interval(0.0, 2.0, 0.25)
    delta = distance_to_complement(dom)
    z = GridFunction(dom, np.zeros(dom.lattice_shape))
    rep = higher_residual(z, 0.5, 1.0, delta)
    assert rep.sup_norm() == 0.0
    assert set(rep.branch) == {BRANCH_ZERO}
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="band_scale must be >= 0"):
            higher_residual(z, 0.5, 1.0, delta, band_scale=bad)
    rho = distance_to_set(dom, high_ridge(delta))
    with pytest.raises(ValueError, match="zero-extended"):
        higher_residual(rho, 0.5, 1.0, delta)


def test_higher_residual_branches_and_reconstruction():
    ex = second_1d(0.5)
    dom = build_interval(0.0, 2.0, 1 / 64)
    delta = distance_to_complement(dom)
    u = sample(ex, dom)
    rep = higher_residual(u, 0.5, ex.lam, delta)
    band = dom.h ** 0.5 * holder_seminorm(u, 0.5)
    op = rep.l_plus + rep.l_minus
    for k in range(rep.u.size):
        if rep.u[k] > band:
            want = max(op[k], rep.l_minus[k] + ex.lam * rep.u[k])
        elif rep.u[k] < -band:
            want = min(op[k], rep.l_plus[k] + ex.lam * rep.u[k])
        else:
            want = op[k]
            assert rep.branch[k] == BRANCH_ZERO
        assert rep.residual[k] == want


def test_higher_residual_mirror_antisymmetry():
    # u(2-x) = -u(x) swaps the sup/inf roles exactly, node for node
    ex = second_1d(0.5)
    dom = build_interval(0.0, 2.0, 1 / 128)
    delta = distance_to_complement(dom)
    rep = higher_residual(sample(ex, dom), 0.5, ex.lam, delta)
    xs = dom.inside_coords[:, 0]
    order = np.argsort(xs)
    r = rep.residual[order]
    assert np.array_equal(r, -r[::-1])


def test_higher_matches_first_on_positive_part():
    ex = first_1d(0.5)
    dom = build_interval(0.0, 2.0, 1 / 64)
    delta = distance_to_complement(dom)
    u = sample(ex, dom)
    hi = higher_residual(u, 0.5, ex.lam, delta)
    lo = first_residual(u, 0.5, ex.lam, delta)
    band = dom.h ** 0.5 * holder_seminorm(u, 0.5)
    strong = hi.u > band
    assert strong.any()
    np.testing.assert_array_equal(hi.residual[strong], lo.residual[strong])


def _seminorm_cases():
    for ex in (second_1d(0.5), third_1d(0.5)):
        for h in (1 / 64, 1 / 128):
            yield f"{ex.kind}-h{round(1 / h)}", sample(ex, build_interval(0.0, 2.0, h))
    dom = build_disk((0.1, -0.2), 1.0, 1 / 8)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(dom.inside_count)
    v[rng.random(v.size) < 0.3] = 0.0
    yield "disk", GridFunction.from_inside(dom, v)
    yield "zero", GridFunction(dom, np.zeros(dom.lattice_shape))
    # steepest at the left edge, a drop whose upward twin starts outside, so
    # only the l_minus side of the scan sees it
    dom = build_interval(0.0, 2.0, 1 / 16)
    ramp = np.maximum(1.0 - 0.125 * np.arange(dom.inside_count), 0.0)
    yield "edge_ramp", GridFunction.from_inside(dom, ramp)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_report_scan_gives_the_holder_seminorm_exactly(alpha):
    # higher_residual sizes its dead band from its own scan over the inside
    # nodes: for a zero-extended u that is holder_seminorm, bit for bit
    for name, u in _seminorm_cases():
        rep = higher_residual(u, alpha, 1.0, distance_to_complement(u.domain))
        seminorm = holder_seminorm(u, alpha)
        assert max(rep.l_plus.max(), -rep.l_minus.min(), 0.0) == seminorm, name
        band = u.domain.h ** alpha * seminorm
        np.testing.assert_array_equal(rep.branch == BRANCH_ZERO, np.abs(rep.u) <= band)
        if name == "disk":
            assert np.count_nonzero(rep.u == 0.0) > 0 and (rep.u < 0.0).any()


def test_giant_band_classifies_everything_zero():
    ex = second_1d(0.5)
    dom = build_interval(0.0, 2.0, 1 / 32)
    delta = distance_to_complement(dom)
    rep = higher_residual(sample(ex, dom), 0.5, ex.lam, delta, band_scale=1e9)
    assert set(rep.branch) == {BRANCH_ZERO}


def test_representation_on_ball_formula():
    dom = build_disk((0.0, 0.0), 1.0, 0.125)
    delta = distance_to_complement(dom)
    center = NodeSet(dom, np.array([nearest_node(dom, (0.0, 0.0))]))
    u = representation(dom, center, 0.5)
    r = np.sqrt((dom.inside_coords ** 2).sum(axis=1))
    want = (1.0 - r) ** 0.5 / ((1.0 - r) ** 0.5 + r ** 0.5)
    np.testing.assert_allclose(u.inside_values(), want, atol=1e-12)


def test_representation_alpha1_midradius_value():
    dom = build_disk((0.0, 0.0), 1.0, 0.25)
    center = NodeSet(dom, np.array([nearest_node(dom, (0.0, 0.0))]))
    u = representation(dom, center, 1.0)
    assert u.flat()[nearest_node(dom, (0.5, 0.0))] == pytest.approx(0.5, abs=1e-15)


def test_representation_bounds_and_gamma1():
    dom, delta, ridge, u = rep_on_interval(h=1 / 20)
    v = u.inside_values()
    assert np.all(v > 0.0) and np.all(v <= 1.0)
    assert u.flat()[ridge.indices[0]] == 1.0
    off_ridge = NodeSet(dom, np.array([nearest_node(dom, 0.25)]))
    with pytest.raises(ValueError, match="outside the ridge tolerance"):
        representation(dom, off_ridge, 0.5)


def test_representation_takes_the_callers_delta():
    dom, delta, ridge, u = rep_on_interval(h=1 / 20)
    np.testing.assert_array_equal(representation(dom, ridge, 0.5, delta=delta).values,
                                  u.values)
    other = distance_to_complement(build_interval(0.0, 2.0, 1 / 40))
    with pytest.raises(ValueError, match="different lattice"):
        representation(dom, ridge, 0.5, delta=other)


def test_lambda_infinity_and_r2_radius_read_the_domains_distance():
    """lambda_infinity and r2_radius read the complement distance the domain
    computes once: their results are those of an explicit
    distance_to_complement, bit for bit, and the cached array is read-only."""
    for dom in (build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0), triangle_mask(1 / 8)):
        delta = distance_to_complement(dom)
        assert lambda_infinity(dom, 0.5) == inscribed_radius(delta) ** -0.5
        inside = dom.inside_indices
        near = np.minimum.outer(delta.flat()[inside], delta.flat()[inside])
        assert r2_radius(dom) == np.minimum(near, 0.5 * offset_distances(dom, inside, inside)).max()
        assert dom.inside_distance is dom.inside_distance
        with pytest.raises(ValueError, match="read-only"):
            dom.inside_distance[0] = 0.0


def test_representation_equals_first_closed_form():
    ex = first_1d(0.5)
    dom, delta, ridge, u = rep_on_interval(h=1 / 40)
    np.testing.assert_allclose(u.flat(), sample(ex, dom).flat(), atol=1e-14)


def test_distinct_gamma1_distinct_eigenfunctions():
    dom = build_rectangle((0.0, 0.0), (4.0, 2.0), 0.25)
    ridge = high_ridge(distance_to_complement(dom))
    assert len(ridge) > 1
    single = NodeSet(dom, ridge.indices[:1])
    u_full = representation(dom, ridge, 0.5)
    u_single = representation(dom, single, 0.5)
    assert np.abs(u_full.values - u_single.values).max() > 0.01


def test_triangle_inequality_for_distances():
    """delta(y)^a rho(x)^a <= |x-y|^a delta(x)^a + |x-y|^a rho(x)^a + delta(x)^a rho(y)^a."""
    a = 0.5
    dom = build_disk((0.0, 0.0), 1.0, 0.125)
    delta = distance_to_complement(dom)
    rho = distance_to_set(dom, high_ridge(delta))
    rng = np.random.default_rng(6)
    ins = dom.inside_indices
    ii = rng.choice(ins, size=2000)
    jj = rng.choice(ins, size=2000)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    d = np.sqrt(((dom.node_coords[ii] - dom.node_coords[jj]) ** 2).sum(axis=1)) ** a
    dx, dy = delta.flat()[ii] ** a, delta.flat()[jj] ** a
    rx, ry = rho.flat()[ii] ** a, rho.flat()[jj] ** a
    lhs = dy * rx
    rhs = d * dx + d * rx + dx * ry
    assert np.all(lhs <= rhs + 1e-12)


def test_cone_values_and_truncation():
    """min(|x - x0|^alpha, R^alpha) at the offset distances, bit for bit,
    with the apex at the centre of the box and off it."""
    dom = build_disk((0.0, 0.0), 1.0, 0.125)
    for x0 in (nearest_node(dom, (0.0, 0.0)), nearest_node(dom, (0.375, -0.25))):
        C = cone(dom, x0, 0.5, 0.5)
        assert C.flat()[x0] == 0.0
        assert not C.zero_extended
        r = offset_distances(dom, [x0], np.arange(dom.n_nodes))[0]
        np.testing.assert_array_equal(C.flat(), np.minimum(r ** 0.5, 0.5 ** 0.5))
        far = np.sqrt(((dom.node_coords - dom.node_coords[x0]) ** 2).sum(axis=1)) >= 0.5
        np.testing.assert_array_equal(C.flat()[far], 0.5 ** 0.5)


def test_cone_alpha1_eps_validation():
    dom = build_disk((0.0, 0.0), 1.0, 0.25)
    x0 = nearest_node(dom, (0.0, 0.0))
    with pytest.raises(ValueError, match="need 0 < eps\\*radius < 1"):
        cone(dom, x0, 1.0, 1.0, eps=1.5)
    C = cone(dom, x0, 1.0, 1.0)  # default eps = 1/(4R)
    r = np.sqrt((dom.node_coords ** 2).sum(axis=1))
    want = np.minimum(r - 0.25 * r ** 2, 0.75)
    np.testing.assert_allclose(C.flat(), want, atol=1e-14)


def test_cone_radius_validation():
    dom = build_disk((0.0, 0.0), 1.0, 0.25)
    with pytest.raises(ValueError, match="radius must be positive"):
        cone(dom, 0, -1.0, 0.5)
    line = build_interval(0.0, 1.0, 0.25)
    for x0 in (-2, -1, line.n_nodes):  # numpy would wrap -2 to a node near the far end
        with pytest.raises(ValueError, match=f"node index {x0} out of range"):
            cone(line, x0, 0.5, 0.5)


def test_lambda_infinity_values():
    assert lambda_infinity(build_interval(0.0, 2.0, 0.125), 0.5) == pytest.approx(1.0)
    assert lambda_infinity(build_interval(0.0, 1.0, 0.125), 0.5) == pytest.approx(np.sqrt(2.0))
    dom = build_disk((0.0, 0.0), 0.75, 0.125)
    assert lambda_infinity(dom, 1.0) == pytest.approx(1.0 / 0.75)


def test_r2_radius_values():
    assert r2_radius(build_interval(0.0, 2.0, 0.125)) == pytest.approx(0.5, abs=1e-15)
    sq = build_rectangle((0.0, 0.0), (1.0, 1.0), 0.125)
    assert r2_radius(sq) == pytest.approx(0.25, abs=1e-12)
    dom = build_disk((0.0, 0.0), 1.0, 0.125)
    delta = distance_to_complement(dom)
    r2 = r2_radius(dom)
    assert r2 == pytest.approx(0.5, abs=1e-12)
    assert r2 <= delta.flat().max() + 1e-15


def test_r2_radius_equals_full_pair_scan(monkeypatch):
    """The early-stopping search returns the maximum over all inside pairs
    at the offset distances h sqrt(sum a_k^2), bit for bit, whether it stops
    in its first block, after several, or (with one-row blocks) after many;
    the same scan at the distances of the rounded coordinates agrees to
    2 eps times the largest coordinate magnitude."""
    doms = [build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0), triangle_mask(1 / 8),
            build_rectangle((0.0, 0.0), (1.1, 0.7), 0.1, margin=1.0),
            build_disk((0.0, 0.0), 1.0, 1 / 16)]
    budgets = (1, 1000, geometry._BLOCK_ELEMENTS)
    for dom in doms:
        inside = dom.inside_indices
        delta = distance_to_complement(dom).flat()[inside]
        near = np.minimum(delta[:, None], delta[None, :])
        cap = np.minimum(near, 0.5 * offset_distances(dom, inside, inside)).max()
        coord_cap = np.minimum(near, 0.5 * cdist(dom.inside_coords, dom.inside_coords)).max()
        assert abs(cap - coord_cap) <= 2 * np.finfo(float).eps * np.abs(dom.node_coords).max()
        for budget in budgets:
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", budget)
            assert r2_radius(dom) == cap


def test_blocked_loops_do_not_depend_on_the_block_size(monkeypatch):
    """Every blocked pairwise loop gives the same bits with one-row blocks,
    with few-row blocks and a ragged last block, and with the default.  The
    scans cover both candidate sets: the inside nodes and their ring for a
    zero-extended function, every box node for a cone."""
    dom = build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0)
    ridge = high_ridge(distance_to_complement(dom))
    u = representation(dom, ridge, 0.5)
    c = cone(dom, int(ridge.indices[0]), 0.5, 0.5)
    line = build_interval(0.0, 2.0, 1 / 100)
    v = representation(line, high_ridge(distance_to_complement(line)), 0.5)

    def run():
        return (*_extreme_quotients(u, 0.5, dom.inside_indices),
                *_extreme_quotients(c, 0.5, dom.inside_indices),
                *_extreme_quotients(v, 0.5, line.inside_indices),
                r2_radius(dom), distance_to_set(dom, ridge).flat())

    want = run()
    for budget in (1, 1000):
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", budget)
        for got, ref in zip(run(), want):
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("shape", [(1,), (2,), (17,), (1, 5), (6, 1), (7, 9), (12, 12)])
def test_axis_dilation_equals_ndimage(shape):
    rng = np.random.default_rng(sum(shape))
    for density in (0.05, 0.3, 0.7):
        mask = rng.random(shape) < density
        np.testing.assert_array_equal(_dilate(mask), ndimage.binary_dilation(mask))
    edges = np.zeros(shape, dtype=bool)  # nodes on the lattice edge and corners
    edges[(0,) * len(shape)] = edges[(-1,) * len(shape)] = True
    np.testing.assert_array_equal(_dilate(edges), ndimage.binary_dilation(edges))


def test_distance_supersolution_alpha1():
    # the distance function solves the limit equation at alpha = 1:
    # inf-quotient is exactly -1 inside, and -1 + lam*delta <= 0 with
    # equality only on the ridge
    dom = build_interval(0.0, 2.0, 0.125)
    delta = distance_to_complement(dom)
    u = GridFunction(dom, np.where(dom.inside_flat, delta.flat(), 0.0).reshape(dom.lattice_shape))
    lam = lambda_infinity(dom, 1.0)
    ridge = high_ridge(delta)
    for ix in dom.inside_indices:
        lm, _ = linf_minus(u, 1.0, int(ix))
        assert lm == -1.0
        slack = lm + lam * u.flat()[ix]
        if ix in ridge.indices:
            assert slack == 0.0
        else:
            assert slack < 0.0


# ---------------------------------------------------------------------------
# the scan's fold over the reflections that keep u
# ---------------------------------------------------------------------------


def _scanned_rows(monkeypatch):
    """Count the rows the scan computes, through the rows it asks
    `_offset_distances` for."""
    rows = []
    real = infinity._offset_distances

    def counted(dom, row_nodes, cols, *args):
        rows.append(len(row_nodes))
        return real(dom, row_nodes, cols, *args)

    monkeypatch.setattr(infinity, "_offset_distances", counted)
    return rows


def _unfolded(monkeypatch, u, alpha, base):
    """The scan with the group forced to the identity alone."""
    with monkeypatch.context() as m:
        m.setattr(infinity, "_reflections",
                  lambda dom, nodes: geometry._reflections(dom, nodes)[:1])
        return _extreme_quotients(u, alpha, base)


def _assert_bitwise(got, want):
    for a, b in zip(got, want):
        if a.dtype == np.float64:
            a, b = a.view(np.int64), b.view(np.int64)
        np.testing.assert_array_equal(a, b)


def _symmetric(dom, values):
    """values made constant on the orbits of the mask reflections, by
    taking the orbit maximum."""
    images = geometry._reflections(dom, np.arange(dom.n_nodes))
    return np.max([values[g] for g in images], axis=0)


def _rep(dom, alpha):
    return representation(dom, high_ridge(distance_to_complement(dom)), alpha)


def _profile(kind):
    h = 1 / 256
    ex = {"first": first_1d, "third": third_1d}[kind](0.5)
    return sample(ex, build_interval(0.0, 2.0, h))


def _ties_integer(dom):
    """An integer-valued function, symmetric, zero outside: many tied quotients."""
    vals = _symmetric(dom, np.random.default_rng(5).integers(-2, 3, dom.n_nodes).astype(float))
    vals[~dom.inside_flat] = 0.0
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


def _ties_signed_zeros(dom):
    """Values in {-1, -0.0, +0.0}, symmetric, -1 outside, as a box function;
    +0.0 on the orbit of the first inside node z0 and -0.0 on that of the
    second, z1.  At a zero node the sup is a tie of +0.0 and -0.0 quotients,
    and the column an unfolded scan picks sets the sign: -0.0 (from z1) at
    z0, +0.0 (from z0) at the other members of its orbit."""
    z0, z1 = dom.inside_indices[:2]
    pick = np.random.default_rng(1).integers(0, 3, dom.n_nodes)
    pick[z0] = 2
    pick = _symmetric(dom, pick)
    pick[[g[z1] for g in geometry._reflections(dom, np.arange(dom.n_nodes))]] = 1
    vals = np.choose(pick, [-1.0, -0.0, 0.0])
    vals[~dom.inside_flat] = -1.0
    return GridFunction(dom, vals.reshape(dom.lattice_shape), zero_extended=False)


def _centre_cone(dom):
    """A truncated cone (radius 0.5, alpha 1/2) at the box-centre node, which
    every reflection fixes: a plateau that ties many columns of each row."""
    return cone(dom, nearest_node(dom, (0.3, -0.7)), 0.5, 0.5)


@pytest.mark.parametrize("make, alpha, order", [
    (lambda: _rep(build_disk((0.0, 0.0), 1.0, 1 / 32, 1.0), 0.5), 0.5, 8),
    (lambda: _rep(build_rectangle((0.0, 0.0), (1.0, 1.0), 1 / 32), 0.9), 0.9, 8),
    (lambda: _rep(build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 32), 0.5), 0.5, 4),
    (lambda: _profile("first"), 0.5, 2),
    (lambda: _profile("third"), 0.5, 2),
    (lambda: _ties_integer(build_disk((0.0, 0.0), 1.0, 1 / 8, 1.0)), 1.0, 8),
    (lambda: _ties_integer(build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 16, 1.0)), 0.5, 4),
    (lambda: _ties_signed_zeros(build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 16, 1.0)),
     1.0, 4),
    (lambda: _centre_cone(build_disk((0.3, -0.7), 0.9, 0.1, 1.0)), 0.5, 8),
], ids=["disk_infinity", "unit_square", "rectangle", "first", "third", "ties_disk",
        "ties_rectangle", "signed_zeros", "plateau_cone"])
def test_folded_scan_equals_the_unfolded_scan(monkeypatch, make, alpha, order):
    """Scanning one row per orbit changes no bit: values as int64, witnesses
    exactly, on the inside nodes and on the nonzero nodes."""
    u = make()
    dom = u.domain
    for base in (dom.inside_indices, np.flatnonzero(u.flat())):
        group = infinity._invariance(u, np.arange(dom.n_nodes), base)
        assert len(group) == order
        _assert_bitwise(_extreme_quotients(u, alpha, base),
                        _unfolded(monkeypatch, u, alpha, base))


def test_a_wide_plateau_folds_in_bounded_memory():
    """The plateau cone above on the lattice of margin 2 (121 x 121 nodes),
    scanned from its nonzero nodes, ties 27,364,346 columns over its folded
    rows.  A tied row keeps one image and quotient per group element, so the
    scan finishes in a process whose address space is capped at 3000 MiB;
    listing every tied column's 8 images took 1.63 GiB more."""
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (3000 << 20, 3000 << 20))
import numpy as np
from fracteig.geometry import build_disk, nearest_node
from fracteig.infinity import _extreme_quotients, _invariance, cone
dom = build_disk((0.3, -0.7), 0.9, 0.1)
c = cone(dom, nearest_node(dom, (0.3, -0.7)), 0.5, 0.5)
base = np.flatnonzero(c.flat())
lp = _extreme_quotients(c, 0.5, base)[0]
print(dom.lattice_shape, len(_invariance(c, np.arange(dom.n_nodes), base)), lp.size)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["(121,", "121)", "8", str(121 * 121 - 1)]


def test_signed_zero_ties_reach_l_plus():
    """The signed-zero case above is not vacuous: the sup is -0.0 at z0 and
    +0.0 at the other members of its orbit, whose row is z0's."""
    u = _ties_signed_zeros(build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 16, 1.0))
    dom = u.domain
    z0 = dom.inside_indices[0]
    members = [g[z0] for g in geometry._reflections(dom, np.arange(dom.n_nodes))]
    lp = _extreme_quotients(u, 1.0, np.array(sorted(members)))[0]
    assert np.array_equal(lp, np.zeros(4))
    assert np.signbit(lp).tolist() == [True, False, False, False]


def test_the_fold_scans_one_row_per_orbit(monkeypatch):
    """On the disk the scan computes one row per orbit of its eight
    reflections, not one per inside node.  A scan from one node, even the
    centre that all eight fix, has no row to fold and builds no group."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 32, 1.0)
    u = _rep(dom, 0.5)
    orbits = np.unique(np.stack(geometry.lattice_symmetries(dom)).min(axis=0)).size
    rows = _scanned_rows(monkeypatch)
    first_residual(u, 0.5, lambda_infinity(dom, 0.5), distance_to_complement(dom))
    assert sum(rows) == orbits == 428
    assert dom.inside_count == 3205
    centre = np.array([nearest_node(dom, (0.0, 0.0))])
    assert len(infinity._invariance(u, np.arange(dom.n_nodes), centre)) == 1


@pytest.mark.parametrize("make", [
    lambda: _rep(build_interval(0.0, 2.0, 0.01), 0.5),
    lambda: _rep(build_disk((0.3, -0.7), 1.0, 0.05), 0.5),
    lambda: sample(second_1d(0.5), build_interval(0.0, 2.0, 1 / 256)),
], ids=["interval_h001", "offcentre_disk", "antisymmetric"])
def test_scan_falls_back_to_every_row(monkeypatch, make):
    """A u that no reflection keeps bitwise leaves the identity alone, and
    every inside node is a scanned row: the representation on axes that do
    not mirror exactly (h = 0.01; a disk centred off the dyadic grid), whose
    analytic delta is evaluated at the rounded node coordinates (rho is read
    by index offset), and the odd second profile."""
    u = make()
    dom = u.domain
    assert len(geometry.lattice_symmetries(dom)) > 1  # the solver would fold these
    assert len(infinity._invariance(u, np.arange(dom.n_nodes), dom.inside_indices)) == 1
    rows = _scanned_rows(monkeypatch)
    _extreme_quotients(u, 0.5, dom.inside_indices)
    assert sum(rows) == dom.inside_count


def test_symmetry_breaking_gamma1_keeps_only_the_reflections_of_u(monkeypatch):
    """A single node at one end of the rectangle's ridge keeps the flip
    across the ridge and breaks the flip along it: the scan folds over the
    two reflections left, bit for bit."""
    dom = build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 32)
    delta = distance_to_complement(dom)
    end = NodeSet(dom, high_ridge(delta).indices[:1])
    u = representation(dom, end, 0.5, delta=delta)
    group = infinity._invariance(u, np.arange(dom.n_nodes), dom.inside_indices)
    assert len(group) == 2 and len(geometry.lattice_symmetries(dom)) == 4
    rows = _scanned_rows(monkeypatch)
    got = _extreme_quotients(u, 0.5, dom.inside_indices)
    assert dom.inside_count / 2 <= sum(rows) < dom.inside_count
    _assert_bitwise(got, _unfolded(monkeypatch, u, 0.5, dom.inside_indices))


def test_reflections_are_kept_only_where_u_is_bitwise_invariant(monkeypatch):
    """-0.0 at z0 alone (its mirror images keep +0.0) leaves u invariant in
    value but not in bits: the reflections that move z0 are dropped, and the
    scan, which folds no row then, equals the unfolded one bitwise."""
    u = _ties_signed_zeros(build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 16, 1.0))
    dom = u.domain
    z0 = dom.inside_indices[0]
    vals = u.flat().copy()
    vals[z0] = -0.0
    v = GridFunction(dom, vals.reshape(dom.lattice_shape), zero_extended=False)
    base = dom.inside_indices
    assert len(infinity._invariance(v, np.arange(dom.n_nodes), base)) == 1
    _assert_bitwise(_extreme_quotients(v, 1.0, base), _unfolded(monkeypatch, v, 1.0, base))


@pytest.mark.parametrize("dom, order", [
    (build_disk((0.3, -0.7), 1.0, 0.05), 8),
    (build_interval(0.0, 2.0, 0.01), 2),
], ids=["offcentre_disk", "interval_h001"])
def test_inexact_axes_fold_a_symmetric_u_bit_for_bit(monkeypatch, dom, order):
    """Node coordinates that do not mirror exactly (a disk centred at
    (0.3, -0.7), h = 0.05; h = 0.01) do not matter to the scan, which reads
    distances by index offset: for u made bitwise symmetric, every mask
    reflection is kept, one row per orbit is scanned, and the result equals
    the unfolded scan bitwise."""
    u = GridFunction(dom, _symmetric(dom, _rep(dom, 0.5).flat()).reshape(dom.lattice_shape))
    base = dom.inside_indices
    assert len(infinity._invariance(u, np.arange(dom.n_nodes), base)) == order
    rows = _scanned_rows(monkeypatch)
    got = _extreme_quotients(u, 0.5, base)
    orbits = np.unique(np.stack(geometry.lattice_symmetries(dom)).min(axis=0)).size
    assert sum(rows) == orbits < dom.inside_count
    _assert_bitwise(got, _unfolded(monkeypatch, u, 0.5, base))


# ---------------------------------------------------------------------------
# the sup and the inf mirror each other: the scan and the residual are odd in u
# ---------------------------------------------------------------------------


_ODD_LATTICES = {
    "disk": lambda: build_disk((0.0, 0.0), 1.0, 1 / 16, 1.0),
    "offcentre_disk": lambda: build_disk((0.3, -0.7), 0.9, 0.1, 1.0),
    "rectangle": lambda: build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 16, 1.0),
    "interval": lambda: build_interval(0.0, 2.0, 1 / 128, 1.0),
}


def _odd_case(lattice, kind):
    """A smooth sign-changing u, or a random u with about 30% of its values
    zero, on one of the lattices above; or the second closed-form profile."""
    if kind == "second":
        return sample(second_1d(0.5), build_interval(0.0, 2.0, 1 / 256))
    dom = _ODD_LATTICES[lattice]()
    if kind == "smooth":
        v = dom.inside_distance * np.sin(3.0 * dom.inside_coords.sum(axis=1) + 0.5)
    else:
        rng = np.random.default_rng(3)
        v = rng.standard_normal(dom.inside_count)
        v[rng.random(v.size) < 0.3] = 0.0
    return GridFunction.from_inside(dom, v)


@pytest.mark.parametrize("lattice, kind", [
    *[(lattice, kind) for lattice in _ODD_LATTICES for kind in ("smooth", "random")],
    ("interval_h256", "second"),
])
def test_scan_and_higher_residual_are_odd_in_u(lattice, kind):
    """-u (zero outside as +0.0) swaps the extremes with their signs flipped,
    witnesses kept, and flips the sign-switching residual, branch labels
    kept.  Values compare with ==, so the two zeros count as equal."""
    u = _odd_case(lattice, kind)
    dom = u.domain
    neg = GridFunction.from_inside(dom, -u.inside_values())
    assert (u.flat() < 0.0).any() and (u.flat() > 0.0).any()
    for base in (dom.inside_indices, np.flatnonzero(u.flat())):
        lp, wp, lm, wm = _extreme_quotients(u, 0.5, base)
        neg_lp, neg_wp, neg_lm, neg_wm = _extreme_quotients(neg, 0.5, base)
        assert np.array_equal(neg_lp, -lm) and np.array_equal(neg_lm, -lp)
        np.testing.assert_array_equal(neg_wp, wm)
        np.testing.assert_array_equal(neg_wm, wp)
    delta = distance_to_complement(dom)
    lam = lambda_infinity(dom, 0.5)
    signed = set()
    for band_scale in (1.0, 0.0):
        rep, mirror = (higher_residual(f, 0.5, lam, delta, band_scale) for f in (u, neg))
        assert np.array_equal(mirror.residual, -rep.residual)
        np.testing.assert_array_equal(mirror.branch, rep.branch)
        signed |= set(np.sign(rep.u[rep.branch != BRANCH_ZERO]))
    assert signed == {-1.0, 1.0}  # both mirrored branches ran


# ---------------------------------------------------------------------------
# the bounded scan: only the candidate patches that can reach an extreme
# ---------------------------------------------------------------------------


def _unpruned(u, alpha, base):
    """Reference for `_extreme_quotients`: every quotient of each base node
    against every candidate (the inside nodes and their ring for a
    zero-extended u, the box otherwise), at the offset distances raised to
    alpha as one table, the self pair set apart.  Ties go to the lowest
    column; then the far field of a zero-extended u wins where strictly
    better."""
    dom = u.domain
    cand = np.flatnonzero(_dilate(dom.inside)) if u.zero_extended else np.arange(dom.n_nodes)
    table, row_keys, col_keys, _ = geometry._offset_distances(dom, base, cand)
    table **= alpha
    with np.errstate(invalid="ignore"):
        q = (u.flat()[cand] - u.flat()[base][:, None]) / table[np.subtract.outer(row_keys, col_keys)]
    own = cand == base[:, None]
    rows = np.arange(base.size)
    out = []
    for pick, worst, better in ((np.argmax, -np.inf, np.greater), (np.argmin, np.inf, np.less)):
        q[own] = worst
        k = pick(q, axis=1)
        value, witness = q[rows, k], cand[k]
        if u.zero_extended:
            far = better(0.0, value)
            value[far], witness[far] = 0.0, EXTERIOR_WITNESS
        out += [value, witness]
    return out


def _formed(monkeypatch):
    """Count the quotient entries the scan forms, through the blocks it asks
    `_quotients` for: the first pass and the kept columns of a bounded
    scan, every column of a one-block scan."""
    entries = []
    real = infinity._quotients

    def counted(vals, bv, row_keys, col_keys, *rest):
        entries.append(row_keys.size * col_keys.size)
        return real(vals, bv, row_keys, col_keys, *rest)

    monkeypatch.setattr(infinity, "_quotients", counted)
    return entries


@functools.lru_cache(maxsize=None)
def _lattice(name):
    return {
        "dyadic": lambda: build_interval(0.0, 2.0, 1 / 64),
        "h001": lambda: build_interval(0.0, 2.0, 0.01, 1.0),
        "disk": lambda: build_disk((0.0, 0.0), 1.0, 1 / 8, 1.0),
        "offcentre_disk": lambda: build_disk((0.3, -0.7), 1.0, 0.15, 1.0),
        "rectangle": lambda: build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 16, 1.0),
        "mask": lambda: triangle_mask(1 / 16),
    }[name]()


def _test_function(dom, kind, alpha, rng):
    """A grid function of the given kind on dom; rng draws its values."""
    inside = dom.inside_flat
    if kind == "cone":
        x0 = int(rng.choice(dom.inside_indices))
        return cone(dom, x0, float(rng.uniform(0.2, 1.5)), alpha)
    if kind in ("smooth", "signed"):
        vals = _rep(dom, alpha).flat().copy()
        if kind == "signed":  # changes sign across a line through the region
            vals *= np.cos(3.0 * dom.node_coords[:, 0] + 1.0)
    elif kind == "noise":
        vals = np.where(inside, rng.normal(size=dom.n_nodes), 0.0)
    elif kind == "plateaus":  # few values: exact ties at equal distances
        vals = np.where(inside, rng.integers(0, 3, dom.n_nodes).astype(float), 0.0)
    else:  # "signed_zeros": -1, -0.0, +0.0 and 1 inside, either zero outside
        vals = np.choose(rng.integers(0, 4, dom.n_nodes), [-1.0, -0.0, 0.0, 1.0])
        vals[~inside] = np.choose(rng.integers(0, 2, dom.n_nodes), [-0.0, 0.0])[~inside]
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(lattice=st.sampled_from(["dyadic", "h001", "disk", "offcentre_disk", "rectangle",
                                "mask"]),
       kind=st.sampled_from(["smooth", "signed", "noise", "plateaus", "signed_zeros", "cone"]),
       alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
       base_kind=st.sampled_from(["inside", "nonzero", "one"]),
       rows=st.one_of(st.none(), st.integers(1, 40)),
       seed=st.integers(0, 2**32 - 1))
# a truncated cone: rows whose quotients are all <= 0, bounded by the largest distance
@example(lattice="rectangle", kind="cone", alpha=0.25, base_kind="inside", rows=None, seed=0)
def test_bounded_scan_equals_the_unpruned_scan(lattice, kind, alpha, base_kind, rows, seed):
    """The bounded scan gives the unpruned scan's values (as int64) and
    witnesses exactly: on dyadic and inexact intervals, centred and
    off-centre disks, a rectangle and a free-form mask; for nonnegative and
    sign-changing zero-extended functions, plateaus with exact ties, signed
    zeros and cones; from the inside nodes, the nonzero nodes (the base of
    `holder_seminorm`; not for cones, nonzero on the whole box) and one
    node; at the default block size and at blocks of 1 to 40 rows."""
    assume(not (kind == "cone" and base_kind == "nonzero"))
    dom = _lattice(lattice)
    rng = np.random.default_rng(seed)
    u = _test_function(dom, kind, alpha, rng)
    base = {"inside": dom.inside_indices,
            "nonzero": np.flatnonzero(u.flat()),
            "one": np.array([rng.integers(dom.n_nodes)])}[base_kind]
    assume(base.size > 0)
    with pytest.MonkeyPatch.context() as m:
        if rows is not None:
            ncols = dom.n_nodes if kind == "cone" else np.count_nonzero(_dilate(dom.inside))
            m.setattr(geometry, "_BLOCK_ELEMENTS", rows * ncols)
        got = _extreme_quotients(u, alpha, base)
    _assert_bitwise(got, _unpruned(u, alpha, base))


def test_a_patch_whose_bound_is_the_extreme_is_kept(monkeypatch):
    """A spike at the first node of a tile, a column the first pass reads,
    is the sup for every row left of the tile.  For those rows the tile's
    bound U, read at the tile's nearest node, is that very quotient, and so
    is bp: the scan keeps the tile, as it drops only where U < bp."""
    dom = build_interval(0.0, 2.0, 1 / 128, 1.0)  # a box of 513 nodes: three row blocks
    side = infinity._PATCH_SIDE[1]
    spike = 10 * side
    assert spike % infinity._SAMPLE_STRIDE == 0  # the box is the candidate set
    vals = 1e-3 * np.cos(dom.node_coords[:, 0])
    vals[spike] = 10.0
    u = GridFunction(dom, vals.reshape(dom.lattice_shape), zero_extended=False)
    base = np.arange(dom.n_nodes)
    formed = _formed(monkeypatch)
    got = _extreme_quotients(u, 0.5, base)
    want = _unpruned(u, 0.5, base)
    _assert_bitwise(got, want)
    assert sum(formed) < base.size * dom.n_nodes / 2  # the scan was bounded

    table = geometry._offset_distances(dom, base, base)[0]
    table **= 0.5
    half = table[table.size // 2:]  # offset 0, 1, ...: the smallest over offsets >= j
    smallest = np.minimum.accumulate(np.concatenate([half[1:], [np.inf]])[::-1])[::-1]
    left = np.arange(spike)
    assert (want[1][left] == spike).all()
    bound = (vals[spike] - vals[left]) / smallest[spike - left - 1]
    assert bound.tobytes() == want[0][left].tobytes()


def test_verify1d_finest_scans_form_under_a_fifth_of_the_pairs(monkeypatch):
    """verify1d's three profiles at h = 1/1024 form under a fifth of the
    quotients a full scan of the same rows forms, the first pass included
    (about 12-14 % measured)."""
    dom = build_interval(0.0, 2.0, 1 / 1024)
    delta = distance_to_complement(dom)
    ncols = np.count_nonzero(_dilate(dom.inside))
    rows = _scanned_rows(monkeypatch)
    formed = _formed(monkeypatch)
    shares = {}
    for ex in (first_1d(0.5), second_1d(0.5), third_1d(0.5)):
        rows.clear()
        formed.clear()
        u = sample(ex, dom)
        if ex.kind == "first":
            first_residual(u, 0.5, ex.lam, delta)
        else:
            higher_residual(u, 0.5, ex.lam, delta)
        shares[ex.kind] = sum(formed) / (sum(rows) * ncols)
    print("shares of the full scan's pairs formed at h = 1/1024:",
          {kind: round(share, 3) for kind, share in shares.items()})
    assert max(shares.values()) < 0.2, shares


def test_one_block_scans_compute_no_bound(monkeypatch):
    """A scan that fits in one block forms every quotient and sets up no
    bound: one node on a fine box, every node of a coarse lattice.  A scan
    of several blocks sets up one."""
    calls = []
    real = infinity._patch_bound

    def counted(*args):
        calls.append(args[1].size)
        return real(*args)

    monkeypatch.setattr(infinity, "_patch_bound", counted)
    dom = build_disk((0.0, 0.0), 1.0, 1 / 32, 1.0)
    u = _rep(dom, 0.5)
    c = cone(dom, nearest_node(dom, (0.0, 0.0)), 0.5, 0.5)
    for x in dom.inside_indices[::400]:
        linf_plus(u, 0.5, x)
        linf_minus(c, 0.5, x)
    coarse = build_disk((0.0, 0.0), 1.0, 1 / 4, 1.0)
    first_residual(_rep(coarse, 0.5), 0.5, 1.0, distance_to_complement(coarse))
    assert calls == []
    first_residual(u, 0.5, 1.0, distance_to_complement(dom))
    assert len(calls) == 1
