import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from fracteig import energy, geometry
from fracteig.energy import (
    FracParams,
    QuotientTables,
    _cross_weights,
    apply_Lp,
    gagliardo_energy,
    rayleigh_gradient,
    rayleigh_quotient,
    surface_measure,
)
from fracteig.geometry import (
    GridFunction,
    block_rows,
    build_disk,
    build_interval,
    build_mask2d,
    build_rectangle,
    distance_to_complement,
    high_ridge,
    lattice_symmetries,
    nearest_node,
)
from fracteig.infinity import representation


def random_function(dom, seed, signed=True):
    rng = np.random.default_rng(seed)
    vals = np.where(dom.inside_flat, rng.normal(size=dom.n_nodes), 0.0)
    if not signed:
        vals = np.abs(vals)
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


def brute_quotient(u, prm):
    """Direct double sum over the lattice, no chunking, no log tricks."""
    dom = u.domain
    h, n = dom.h, dom.dim
    flat = u.flat()
    coords = dom.node_coords
    inside = np.flatnonzero(dom.inside_flat)
    num = 0.0
    for i in inside:
        for j in range(dom.n_nodes):
            if j == i:
                continue
            w = np.linalg.norm(coords[i] - coords[j]) ** (-prm.ap)
            if dom.inside_flat[j]:
                num += abs(flat[j] - flat[i]) ** prm.p * w * h ** (2 * n)
            else:
                num += 2.0 * abs(flat[i]) ** prm.p * w * h ** (2 * n)
        near = min(coords[i, 0] - dom.box_lo[0], dom.box_hi[0] - coords[i, 0])
        far = max(coords[i, 0] - dom.box_lo[0], dom.box_hi[0] - coords[i, 0])
        sig = surface_measure(n)
        tail = lambda d: 2.0 * sig * d ** (n - prm.ap) / (prm.ap - n) * h ** n
        num += abs(flat[i]) ** prm.p * 0.5 * (tail(near) + tail(far))
    den = np.sum(np.abs(flat[inside]) ** prm.p) * h ** n
    return num / den


def test_params_validation():
    with pytest.raises(ValueError, match="alpha must lie in"):
        FracParams(0.0, 2.0)
    with pytest.raises(ValueError, match="alpha must lie in"):
        FracParams(1.5, 2.0)
    with pytest.raises(ValueError, match="p must be finite and >= 2"):
        FracParams(0.5, 1.5)
    with pytest.raises(ValueError, match="<= n = 1"):
        FracParams(0.3, 2.0).validate_for_dim(1)
    # alpha <= 1 makes the upper window bound automatic; the plane still
    # rejects alpha*p = 2 at the lower end
    with pytest.raises(ValueError, match="<= n = 2"):
        FracParams(1.0, 2.0).validate_for_dim(2)


def test_params_flags():
    f = FracParams(0.75, 4.0).flags(1)  # ap = 3
    assert f["narrow_window"]       # 3 < 1 + 4 - 1
    assert f["regularity_window"]   # 3 > 2
    f = FracParams(0.6, 2.0).flags(1)  # ap = 1.2
    assert f["narrow_window"]
    assert not f["regularity_window"]


def test_zero_function_energy():
    dom = build_interval(0.0, 1.0, 0.25)
    u = GridFunction(dom, np.zeros(dom.lattice_shape))
    b = gagliardo_energy(u, FracParams(0.75, 2.0))
    assert b.interior == 0.0 and b.cross == 0.0
    assert b.tail_lower == 0.0 and b.tail_upper == 0.0
    with pytest.raises(ValueError, match="quotient undefined for the zero function"):
        rayleigh_quotient(u, FracParams(0.75, 2.0))


@pytest.mark.parametrize("alpha,p", [(0.75, 2.0), (0.6, 3.0)])
def test_single_node_cross_by_hand(alpha, p):
    """One inside node at 0, h=1, box [-3,3]: the whole energy is explicit."""
    dom = build_interval(-1.0, 1.0, 1.0, margin=1.0)
    assert dom.inside_count == 1
    u = GridFunction.from_inside(dom, np.array([1.0]))
    prm = FracParams(alpha, p)
    b = gagliardo_energy(u, prm)
    ap = alpha * p
    assert b.interior == 0.0
    expected_cross = 2.0 * 2.0 * (1.0 + 2.0 ** (-ap) + 3.0 ** (-ap))
    assert b.cross == pytest.approx(expected_cross, rel=1e-14)
    # both box endpoints sit at distance 3, so the bracket collapses
    expected_tail = 2.0 * 2.0 * 3.0 ** (1.0 - ap) / (ap - 1.0)
    assert b.tail_lower == pytest.approx(expected_tail, rel=1e-14)
    assert b.tail_width == pytest.approx(0.0, abs=1e-16)


def direct_cross_weights(dom, ap):
    """Sum of |y - x|^(-ap) over the outside box nodes y, by broadcasting over coordinates."""
    xin = dom.inside_coords
    out = dom.node_coords[~dom.inside_flat]
    d_out = np.sqrt(((xin[:, None, :] - out[None, :, :]) ** 2).sum(-1))
    return (d_out ** (-ap)).sum(axis=1)


def offset_distances(dom, rows, cols):
    """(len(rows), len(cols)) distances h * sqrt(sum_k a_k**2) between
    nodes given by flat index, a their integer index offset: the lattice
    distance that the pair kernels and the Hoelder quotients read, built here
    by index arithmetic alone."""
    shape = dom.lattice_shape
    at_rows = np.stack(np.unravel_index(np.asarray(rows), shape), axis=-1)
    at_cols = np.stack(np.unravel_index(np.asarray(cols), shape), axis=-1)
    a = (at_rows[:, None, :] - at_cols[None, :, :]).astype(float)
    return np.sqrt((a * a).sum(axis=-1)) * dom.h


def annulus_mask(h):
    """Free-form annulus: lines through the hole have an outside run between two inside runs."""
    c = np.array([0.25, -0.125])

    def inside(pts):
        r = np.hypot(*(pts - c).T)
        return (r > 0.375) & (r < 1.0)

    return build_mask2d((c - 1.0, c + 1.0), h, inside, margin=1.0)


_TRIANGLE = build_mask2d(((0.0, 0.0), (1.0, 1.0)), 1 / 8,  # no lattice reflection
                         lambda pts: pts[:, 0] + 2.0 * pts[:, 1] < 1.6, margin=1.0)


@pytest.mark.filterwarnings("error")  # no 0/0 at a one-node orbit's own column
@pytest.mark.parametrize("dom, p", [
    (build_interval(0.0, 1.0, 1 / 16), 4.0),
    (build_disk((0.0, 0.0), 1.0, 0.25, margin=1.0), 4.0),
    (build_interval(0.0, 1.0, 1 / 16), 64.0),
    (build_disk((0.0, 0.0), 1.0, 0.25, margin=1.0), 64.0),
    (_TRIANGLE, 4.0),
    (_TRIANGLE, 64.0),
], ids=["interval", "disk", "interval-p64", "disk-p64", "triangle", "triangle-p64"])
def test_kernel_tables_equal_broadcast_reference(dom, p):
    """With one node per orbit the fold changes no bit: holder equals the
    explicit broadcast expression bitwise at every p, sizes are ones and the
    orbit sums of the coefficients are the coefficients; the cross weights,
    summed over outside runs, equal the direct pair sum to 1e-13 relative."""
    prm = FracParams(0.75, p)
    tables = QuotientTables(dom, prm)
    assert tables.orbits == dom.inside_count
    np.testing.assert_array_equal(tables.sizes, 1.0)
    xin = dom.inside_coords
    d2 = ((xin[:, None, :] - xin[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    holder = np.sqrt(d2) ** (-prm.alpha)
    np.fill_diagonal(holder, 0.0)
    np.testing.assert_array_equal(tables.holder, holder)
    want = 2.0 * dom.h ** (2 * dom.dim) * direct_cross_weights(dom, prm.ap)
    np.testing.assert_allclose(tables.cross_coef, want, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(tables.cross_coef,
                                  2.0 * dom.h ** (2 * dom.dim) * _cross_weights(dom, prm.ap))
    v = np.random.default_rng(2).normal(size=dom.inside_count)
    np.testing.assert_array_equal(tables.fold(v), v)
    np.testing.assert_array_equal(tables.expand(v), v)


def test_overflowing_kernel_is_a_value_error():
    """(0, 2) at h = 1/200, alpha = 1/2, p = 512: the nearest-pair kernel
    h^(-alpha p) = 200^256 exceeds double range, and the build says so
    instead of raising OverflowError from deep inside."""
    dom = build_interval(0.0, 2.0, 1 / 200)
    prm = FracParams(0.5, 512.0)
    with pytest.raises(ValueError, match=r"overflow .* p = 512.0, alpha = 0.5, h = 0.005"):
        QuotientTables(dom, prm)
    with pytest.raises(ValueError, match="overflow"):
        rayleigh_quotient(distance_to_complement(dom), prm)
    QuotientTables(dom, FracParams(0.5, 256.0))  # 200^128 still fits


@pytest.mark.parametrize("ap", [1.2, 2.2, 3.0, 32.0, 48.0])
@pytest.mark.parametrize("dom, max_runs", [
    (build_interval(0.125, 1.375, 1 / 16), 2),
    (build_disk((0.25, -0.75), 0.9, 1 / 8, margin=1.0), 2),
    (build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.0), 2),
    (annulus_mask(1 / 8), 3),
], ids=["interval", "disk", "rectangle", "annulus"])
def test_cross_weights_match_direct_sum(dom, max_runs, ap):
    """Every grid has outside runs that reach the lattice edge and runs that
    cross a node's own position; the 2D grids have lines with no inside node,
    and the annulus has lines with an inner outside run.  Spacings and anchors
    are dyadic, so the reference's coordinate differences are exact: at h = 0.1
    its own rounding reaches 7e-14 relative at ap = 48."""
    outside = ~dom.inside.reshape(-1, dom.lattice_shape[-1])
    runs = (np.diff(outside.astype(np.int8), axis=1) == 1).sum(axis=1) + outside[:, 0]
    assert runs.max() == max_runs
    assert dom.dim == 1 or outside.all(axis=1).any()
    got = _cross_weights(dom, ap)
    np.testing.assert_allclose(got, direct_cross_weights(dom, ap), rtol=1e-13, atol=0.0)


def test_disk_tail_bracket_by_hand():
    """Box [-4, 4]^2: the bracket runs from the nearest side to the far corner."""
    dom = build_disk((0.0, 0.0), 1.0, 0.25, margin=1.0)
    np.testing.assert_array_equal(dom.box_lo, [-4.0, -4.0])
    np.testing.assert_array_equal(dom.box_hi, [4.0, 4.0])
    prm = FracParams(0.75, 4.0)  # ap = 3
    tables = QuotientTables(dom, prm)
    tail = lambda d: 2.0 * 0.25 ** 2 * 2.0 * np.pi * d ** (2.0 - 3.0) / (3.0 - 2.0)
    for point, near, far in [((0.0, 0.0), 4.0, np.hypot(4.0, 4.0)),
                             ((0.25, -0.5), 3.5, np.hypot(4.25, 4.5))]:
        k = int(np.flatnonzero((dom.inside_coords == point).all(axis=1))[0])
        assert tables.tail_lower_coef[k] == pytest.approx(tail(far), rel=1e-14)
        assert tables.tail_upper_coef[k] == pytest.approx(tail(near), rel=1e-14)


def test_energy_homogeneity():
    dom = build_interval(0.0, 1.0, 1 / 8)
    u = random_function(dom, 1)
    v = GridFunction(dom, 2.0 * u.values)
    prm = FracParams(0.6, 3.5)
    a, b = gagliardo_energy(u, prm), gagliardo_energy(v, prm)
    c = 2.0 ** 3.5
    assert b.interior == pytest.approx(c * a.interior, rel=1e-13)
    assert b.cross == pytest.approx(c * a.cross, rel=1e-13)
    assert b.tail_lower == pytest.approx(c * a.tail_lower, rel=1e-13)
    assert b.tail_upper == pytest.approx(c * a.tail_upper, rel=1e-13)


def test_breakdown_nonnegative_and_ordered():
    dom = build_interval(0.0, 1.0, 1 / 10)
    for seed in range(4):
        b = gagliardo_energy(random_function(dom, seed), FracParams(0.7, 2.5))
        assert b.interior >= 0.0 and b.cross >= 0.0
        assert 0.0 <= b.tail_lower <= b.tail_upper
        assert b.total == pytest.approx(b.interior + b.cross + b.tail_mid)


@pytest.mark.parametrize("alpha,p", [(0.75, 2.0), (0.5, 8.0), (0.5, 16.0), (0.6, 3.5)])
def test_quotient_against_brute_force(alpha, p):
    dom = build_interval(0.0, 1.0, 1 / 12)
    u = random_function(dom, 42)
    got = rayleigh_quotient(u, FracParams(alpha, p))
    want = brute_quotient(u, FracParams(alpha, p))
    assert got == pytest.approx(want, rel=1e-13)


def test_quotient_zero_homogeneity():
    dom = build_interval(0.0, 1.0, 1 / 16)
    u = random_function(dom, 5)
    prm = FracParams(0.6, 4.0)
    q = rayleigh_quotient(u, prm)
    # scaling by a power of two is exact in floating point
    assert rayleigh_quotient(GridFunction(dom, 2.0 * u.values), prm) == q
    assert rayleigh_quotient(GridFunction(dom, 3.0 * u.values), prm) == pytest.approx(q, rel=1e-13)
    assert rayleigh_quotient(GridFunction(dom, -u.values), prm) == q


def test_modulus_contraction():
    dom = build_interval(0.0, 1.0, 1 / 16)
    prm = FracParams(0.75, 3.0)
    u = random_function(dom, 9)
    assert np.any(u.inside_values() < 0) and np.any(u.inside_values() > 0)
    v = GridFunction(dom, np.abs(u.values))
    assert rayleigh_quotient(v, prm) < rayleigh_quotient(u, prm)


def test_exact_scaling_law():
    """Doubling the domain and the spacing rescales the quotient by k^(n-ap)."""
    k = 2.0
    for alpha, p in ((0.75, 4.0), (0.6, 8.0)):
        prm = FracParams(alpha, p)
        dom1 = build_interval(0.0, 1.0, 1 / 16)
        dom2 = build_interval(0.0, 2.0, 2 / 16)
        vals = random_function(dom1, 17).values
        u1 = GridFunction(dom1, vals)
        u2 = GridFunction(dom2, vals)
        q1 = rayleigh_quotient(u1, prm)
        q2 = rayleigh_quotient(u2, prm)
        assert q2 == pytest.approx(k ** (1 - alpha * p) * q1, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.5, 8.0])
def test_gradient_matches_central_differences(p):
    dom = build_interval(0.0, 1.0, 1 / 12)
    prm = FracParams(0.6, p)
    u = random_function(dom, 23)
    g = rayleigh_gradient(u, prm).inside_values()
    rng = np.random.default_rng(24)
    eps = 1e-6
    for _ in range(5):
        v = rng.normal(size=dom.inside_count)
        v /= np.linalg.norm(v)

        def q_at(s):
            w = u.flat().copy()
            w[dom.inside_indices] += s * v
            return rayleigh_quotient(GridFunction(dom, w.reshape(dom.lattice_shape)), prm)

        fd = (q_at(eps) - q_at(-eps)) / (2.0 * eps)
        gv = float(g @ v)
        assert abs(fd - gv) <= 1e-6 * max(abs(gv), abs(fd))


@pytest.mark.parametrize("scale", [1.0, 1e200])
@pytest.mark.parametrize("p", [2.0, 8.0, 64.0])
def test_value_and_grad_matches_quotient_and_differences(p, scale):
    dom = build_interval(0.0, 1.0, 1 / 16)
    tables = QuotientTables(dom, FracParams(0.6, p))
    rng = np.random.default_rng(11)
    v = (0.5 + rng.random(dom.inside_count)) * scale
    q, g = tables.value_and_grad(v)
    # the quotient is 0-homogeneous, so the brute-force sum runs on unscaled values
    want = brute_quotient(GridFunction.from_inside(dom, v / scale), tables.prm)
    assert q == pytest.approx(want, rel=1e-13, abs=0.0)
    np.testing.assert_array_equal(tables.gradient(v), g)
    eps = 1e-6 * scale
    for _ in range(5):
        d = rng.normal(size=v.size)
        d /= np.linalg.norm(d)
        fd = (tables.quotient(v + eps * d) - tables.quotient(v - eps * d)) / (2.0 * eps)
        gd = float(g @ d)
        assert abs(fd - gd) <= 1e-6 * max(abs(fd), abs(gd))


def reference_value_and_grad(tables, v):
    """value_and_grad written with fresh m x m temporaries, expression by expression."""
    m = float(np.abs(v).max())
    w = v / m
    p = tables.prm.p
    a = np.abs(w)
    a_pm1 = a ** (p - 1.0)
    a_p = a_pm1 * a
    log_den = math.log(float(a_p.sum())) + tables.log_hn
    s_ct = float((tables.ct_coef * a_p).sum())
    log_ct = math.log(s_ct) if s_ct > 0.0 else -math.inf
    diff = w[:, None] - w[None, :]
    r = np.abs(diff)
    r *= tables.holder
    rmax = float(r.max())
    r /= rmax
    rp1 = r ** (p - 1.0)
    r *= rp1
    log_int = p * math.log(rmax) + math.log(float(r.sum())) + tables.log_h2n
    rp1 *= tables.holder
    np.copysign(rp1, diff, out=rp1)
    scale = math.exp(tables.log_h2n + (p - 1.0) * math.log(rmax) - log_den)
    grad = (2.0 * p * scale) * rp1.sum(axis=1)
    quot = math.exp(np.logaddexp(log_int, log_ct) - log_den)
    odd = np.copysign(a_pm1, w)
    grad += (p / math.exp(log_den)) * odd * (tables.ct_coef - quot * tables.hn)
    return quot, grad / m


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0, 64.0])
def test_value_and_grad_equals_reference_bitwise(p):
    """The workspace changes no bit, and nothing of one call leaks into the next."""
    dom = build_interval(0.125, 1.375, 1 / 32)
    prm = FracParams(0.6, p)
    tables = QuotientTables(dom, prm)
    rng = np.random.default_rng(int(p))
    inputs = [0.5 + rng.random(dom.inside_count), rng.normal(size=dom.inside_count)]
    for v in inputs:
        q, g = tables.value_and_grad(v)
        q_ref, g_ref = reference_value_and_grad(tables, v)
        assert q == q_ref
        np.testing.assert_array_equal(g, g_ref)
        q_fresh, g_fresh = QuotientTables(dom, prm).value_and_grad(v)
        assert q == q_fresh
        np.testing.assert_array_equal(g, g_fresh)


@pytest.mark.parametrize("case, p", [
    *[(case, p) for case in ("forced", "interval399") for p in (2.0, 8.0, 64.0)],
    # at p = 2 no alpha <= 1 puts alpha * p above n = 2
    *[("disk", p) for p in (3.5, 8.0, 64.0)],
])
def test_blocked_pair_pass_matches_the_dense_reference(case, p, monkeypatch):
    """Several row blocks, the last one ragged: each block's own maximum is
    factored out and the blocks are recombined without changing the result
    beyond rounding, and the holder build changes no bit: it is the kernel
    of the offset distances h sqrt(sum a_k^2).  Against the coordinate
    distances it is equal on the dyadic lattices, and within 2e-14 relative
    at h = 1/200 (measured 1.4e-14, at the nearest pairs, from the rounded
    node coordinates)."""
    if case == "forced":  # 39 inside nodes in blocks of 10, 10, 10 and 9 rows
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 10 * 39)
        dom = build_interval(0.125, 1.375, 1 / 32)
    elif case == "interval399":  # past the one-block size: blocks of 328 and 71 rows
        dom = build_interval(0.0, 2.0, 1 / 200)
    else:
        # 109 inside nodes in 13 blocks of 8 rows and one of 5
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 8 * 109)
        dom = build_disk((0.25, -0.125), 0.75, 1 / 8, margin=1.0)
    m = dom.inside_count
    rows = block_rows(m)
    assert 1 < rows < m and m % rows != 0
    alpha = 0.75 if dom.dim == 2 else 0.6
    tables = QuotientTables(dom, FracParams(alpha, p))

    d = offset_distances(dom, dom.inside_indices, dom.inside_indices)
    np.fill_diagonal(d, np.inf)
    np.testing.assert_array_equal(tables.holder, d ** -alpha)
    d = cdist(dom.inside_coords, dom.inside_coords)
    np.fill_diagonal(d, np.inf)
    np.testing.assert_allclose(tables.holder, d ** -alpha, rtol=2e-14, atol=0.0)

    rng = np.random.default_rng(int(p) + m)
    for v in (0.5 + rng.random(m), rng.normal(size=m)):
        q, g = tables.value_and_grad(v)
        q_ref, g_ref = reference_value_and_grad(tables, v)
        assert abs(q - q_ref) <= 1e-14 * q_ref
        assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()
    assert tables._work.shape == (3, rows, m)
    assert tables.breakdown(np.full(m, 3.0)).interior == 0.0


def test_value_and_grad_of_a_constant():
    """No pair term: only cross and tail remain, and the gradient stays finite."""
    dom = build_interval(0.0, 1.0, 1 / 8)
    tables = QuotientTables(dom, FracParams(0.75, 4.0))
    v = np.ones(dom.inside_count)
    q, g = tables.value_and_grad(v)
    assert q == pytest.approx(brute_quotient(GridFunction.from_inside(dom, v), tables.prm),
                              rel=1e-13)
    assert tables.breakdown(v).interior == 0.0
    assert np.all(np.isfinite(g))
    with pytest.raises(ValueError, match="quotient undefined for the zero function"):
        tables.value_and_grad(np.zeros(dom.inside_count))


@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
@pytest.mark.parametrize("shape, p", [
    *[("interval", p) for p in (2.0, 3.5, 8.0, 64.0)],
    # at p = 2 no alpha <= 1 puts alpha * p above n = 2
    *[("disk", p) for p in (3.5, 8.0, 64.0)],
])
def test_breakdown_total_over_denominator_is_the_quotient(shape, p, signed):
    """The energy pieces and the quotient come from one pair pass."""
    dom = (build_interval(0.0, 1.0, 1 / 16) if shape == "interval"
           else build_disk((0.25, -0.125), 0.75, 1 / 8, margin=1.0))
    tables = QuotientTables(dom, FracParams(0.75, p))
    v = random_function(dom, 8, signed=signed).inside_values()
    b = tables.breakdown(v)
    den = dom.h ** dom.dim * np.sum(np.abs(v) ** p)
    assert b.total / den == pytest.approx(tables.quotient(v), rel=1e-13, abs=0.0)


def test_gradient_zero_homogeneity():
    dom = build_interval(0.0, 1.0, 1 / 12)
    prm = FracParams(0.7, 3.0)
    u = random_function(dom, 31)
    g1 = rayleigh_gradient(u, prm).inside_values()
    g2 = rayleigh_gradient(GridFunction(dom, 2.0 * u.values), prm).inside_values()
    np.testing.assert_allclose(g2, g1 / 2.0, rtol=1e-12, atol=1e-14)


def test_gradient_vanishes_outside():
    dom = build_interval(0.0, 1.0, 1 / 12)
    g = rayleigh_gradient(random_function(dom, 2), FracParams(0.7, 3.0))
    assert np.all(g.flat()[~dom.inside_flat] == 0.0)


def test_apply_Lp_zero_and_range():
    dom = build_interval(0.0, 1.0, 0.25)
    u = GridFunction(dom, np.zeros(dom.lattice_shape))
    prm = FracParams(0.75, 2.0)
    for ix in dom.inside_indices:
        assert apply_Lp(u, prm, int(ix)) == 0.0
    with pytest.raises(ValueError, match="out of range"):
        apply_Lp(u, prm, dom.n_nodes)
    with pytest.raises(ValueError, match="box boundary"):
        apply_Lp(u, prm, dom.n_nodes - 1)


@pytest.mark.parametrize("x", [0.5, 9.9, True, np.float64(3.0)])
def test_apply_Lp_rejects_a_node_index_that_is_no_integer(x):
    dom = build_interval(0.0, 1.0, 0.25)
    u = random_function(dom, 1)
    with pytest.raises(ValueError, match="node index must be an integer"):
        apply_Lp(u, FracParams(0.75, 2.0), x)


def test_apply_Lp_accepts_a_numpy_integer_node_index():
    dom = build_interval(0.0, 1.0, 0.25)
    u = random_function(dom, 1)
    prm = FracParams(0.75, 3.0)
    assert apply_Lp(u, prm, np.int64(3)) == apply_Lp(u, prm, 3)


def test_apply_L2_odd_symmetry():
    # odd function about the midpoint of a symmetric lattice: both half-sums cancel
    dom = build_interval(0.0, 2.0, 0.25)
    xs = dom.inside_coords[:, 0]
    u = GridFunction.from_inside(dom, np.sin(np.pi * (xs - 1.0)))
    mid = nearest_node(dom, 1.0)
    assert apply_Lp(u, FracParams(0.75, 2.0), mid) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.5, 8.0])
def test_apply_Lp_consistent_with_gradient(p):
    """The quotient gradient encodes the operator: check the algebraic identity."""
    dom = build_interval(0.0, 1.0, 1 / 12)
    prm = FracParams(0.6, p)
    u = random_function(dom, 7)
    q = rayleigh_quotient(u, prm)
    g = rayleigh_gradient(u, prm)
    den = float(np.sum(np.abs(u.inside_values()) ** p) * dom.h)
    for ix in dom.inside_indices[::3]:
        ux = u.flat()[ix]
        want = -(g.flat()[ix] * den / (p * dom.h) + q * abs(ux) ** (p - 2) * ux)
        assert apply_Lp(u, prm, int(ix)) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_apply_Lp_monotone_in_upper_function():
    # psi >= phi with equality at the evaluation node forces L_p(psi) >= L_p(phi)
    dom = build_interval(0.0, 1.0, 1 / 16)
    delta = distance_to_complement(dom)
    phi_vals = np.where(dom.inside_flat, delta.flat(), 0.0)
    psi_vals = np.where(dom.inside_flat, np.sqrt(0.5 * delta.flat()), 0.0)
    phi = GridFunction(dom, phi_vals.reshape(dom.lattice_shape))
    psi = GridFunction(dom, psi_vals.reshape(dom.lattice_shape))
    x0 = nearest_node(dom, 0.5)
    assert psi.flat()[x0] == pytest.approx(phi.flat()[x0], abs=1e-15)
    assert np.all(psi.values >= phi.values)
    prm = FracParams(0.6, 3.0)
    assert apply_Lp(psi, prm, x0) >= apply_Lp(phi, prm, x0)


def test_tail_bracket_nesting():
    """A wider box moves cross + tail into the narrower box's bracket."""
    prm = FracParams(0.6, 3.0)
    mids, brackets = {}, {}
    for margin in (2.0, 3.0):
        dom = build_interval(0.0, 1.0, 1 / 16, margin=margin)
        delta = distance_to_complement(dom)
        u = GridFunction(dom, np.where(dom.inside_flat, delta.flat(), 0.0).reshape(dom.lattice_shape))
        b = gagliardo_energy(u, prm)
        mids[margin] = b.interior + b.cross + b.tail_mid
        brackets[margin] = (b.interior + b.cross + b.tail_lower,
                            b.interior + b.cross + b.tail_upper)
    lo, hi = brackets[2.0]
    assert lo <= mids[3.0] <= hi


def test_energy_requires_zero_extension():
    dom = build_interval(0.0, 2.0, 0.25)
    delta = distance_to_complement(dom)
    rho = GridFunction(dom, delta.values + 1.0, zero_extended=False)
    with pytest.raises(ValueError, match="requires a zero-extended"):
        gagliardo_energy(rho, FracParams(0.75, 2.0))


def test_quotient_survives_p64():
    dom = build_interval(0.0, 2.0, 1 / 32)
    delta = distance_to_complement(dom)
    ridge = high_ridge(delta)
    u = representation(dom, ridge, 0.5)
    q = rayleigh_quotient(u, FracParams(0.5, 64.0))
    assert np.isfinite(q) and q > 0.0
    g = rayleigh_gradient(u, FracParams(0.5, 64.0))
    assert np.all(np.isfinite(g.values))


def test_surface_measure():
    assert surface_measure(1) == 2.0
    assert surface_measure(2) == pytest.approx(2.0 * np.pi)
    with pytest.raises(ValueError, match="unsupported dimension"):
        surface_measure(3)


# ---------------------------------------------------------------------------
# tables over the orbits of a lattice symmetry group
# ---------------------------------------------------------------------------


def orbit_tables(dom, prm):
    return QuotientTables(dom, prm, lattice_symmetries(dom))


_SYMMETRIC = {
    "interval": lambda: build_interval(0.0, 2.0, 1 / 16),
    "disk": lambda: build_disk((0.0, 0.0), 1.0, 1 / 8),
    "rectangle": lambda: build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.0),
    "annulus": lambda: annulus_mask(1 / 8),
}


def gradient_term_scale(tables, v, q):
    """Sum of the magnitudes of the terms that make up each component of the
    full gradient at v, with q its quotient: the scale of their rounding."""
    p = tables.prm.p
    c = np.abs(v).max()
    w = v / c
    den = tables.hn * np.sum(np.abs(w) ** p)
    pair = (tables.holder ** p * np.abs(w[:, None] - w[None, :]) ** (p - 1.0)).sum(axis=1)
    own = np.abs(w) ** (p - 1.0) * (tables.ct_coef + q * tables.hn)
    return p * (2.0 * tables.h2n * pair + own) / (den * c)


@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
@pytest.mark.parametrize("shape, p", [
    *[("interval", p) for p in (2.0, 8.0, 64.0)],
    # at p = 2 no alpha <= 1 puts alpha * p above n = 2
    *[(shape, p) for shape in ("disk", "rectangle", "annulus") for p in (8.0, 64.0)],
])
def test_orbit_tables_equal_the_full_tables_on_invariant_vectors(shape, p, signed):
    """The reduced quotient is the full quotient of the expanded vector, and the
    reduced gradient the orbit sums of the full gradient.

    The vectors are the distance profile and a sign-changing multiple of it.
    Each path rounds a pair term to about eps relative before raising it to
    the p-th power, which multiplies that rounding by p, so the tolerance is
    1e-14 or 2 p eps, whichever is larger: 2.8e-14 at p = 64, where one ulp
    in the dominant term moves the quotient by 1.4e-14.  Near an eigenfunction
    the gradient is a small difference of large terms, so the gradients are
    compared on the scale of their terms: measured against max|g| they differ
    by up to 4e-14 at p = 64, and the full path itself by up to 1.2e-13 from
    an 80-bit reference."""
    dom = _SYMMETRIC[shape]()
    prm = FracParams(0.75, p)
    tables, full = orbit_tables(dom, prm), QuotientTables(dom, prm)
    assert tables.orbits < dom.inside_count
    delta = tables.fold(distance_to_complement(dom).inside_values())
    v = delta * (delta - 0.5 * delta.max()) if signed else delta
    q, g = tables.value_and_grad(v)
    q_full, g_full = full.value_and_grad(tables.expand(v))
    tol = max(1e-14, 2.0 * p * np.finfo(float).eps)
    assert abs(q - q_full) <= tol * q_full
    g_sum = np.bincount(tables.labels, g_full)
    scale = np.bincount(tables.labels, gradient_term_scale(full, tables.expand(v), q_full))
    assert np.abs(g - g_sum).max() <= tol * scale.max()
    assert tables.quotient(v) == q
    assert tables.breakdown(v).total / tables.norm(v) ** p == pytest.approx(q, rel=1e-13)


@pytest.mark.filterwarnings("error")  # a node's own zero distance must never reach **-alpha
@pytest.mark.parametrize("p", [4.0, 64.0])
@pytest.mark.parametrize("shape, k, m", [
    ("interval", 16, 31),  # 2 reflections; the midpoint is fixed by both
    ("disk", 31, 193),  # 8 reflections; orbits of 1, 4 and 8 nodes
    ("rectangle", 8, 21),  # 4 reflections; orbits of 1, 2 and 4 nodes
    ("annulus", 24, 164),  # 8 reflections; orbits of 4 and 8 nodes
])
def test_orbit_tables_fold_the_full_kernel(shape, k, m, p):
    """holder**p is the folded kernel sum over orbit pairs, exactly symmetric
    with a zero diagonal, and no table grows with m squared; the coefficients
    are orbit sums."""
    dom = _SYMMETRIC[shape]()
    prm = FracParams(0.75, p)
    tables, full = orbit_tables(dom, prm), QuotientTables(dom, prm)
    assert (tables.orbits, dom.inside_count) == (k, m)
    np.testing.assert_array_equal(tables.holder, tables.holder.T)
    assert not np.diag(tables.holder).any()
    assert max(a.size for a in vars(tables).values() if isinstance(a, np.ndarray)) == k * k
    # orbits are numbered by their smallest inside index, which represents them
    np.testing.assert_array_equal(tables.labels[tables.reps], np.arange(k))
    assert np.all(np.diff(tables.reps) > 0)
    assert tables.sizes.sum() == m
    one_hot = np.zeros((k, m))
    one_hot[tables.labels, np.arange(m)] = 1.0
    folded = one_hot @ full.holder ** prm.p @ one_hot.T
    np.fill_diagonal(folded, 0.0)
    np.testing.assert_allclose(tables.holder ** prm.p, folded, rtol=1e-13, atol=0.0)
    for name in ("cross_coef", "tail_lower_coef", "tail_upper_coef", "ct_coef"):
        np.testing.assert_allclose(getattr(tables, name), one_hot @ getattr(full, name),
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p", [4.0, 64.0])
@pytest.mark.parametrize("shape", ["interval", "disk", "rectangle", "annulus"])
def test_orbit_cross_coefficient_is_the_representative_weight_times_the_orbit_size(shape, p):
    """The folded cross coefficient is the representative's weight times |I|:
    the orbit sum of the plain coefficients to 1e-14 relative, and bit for bit
    on the interval, whose mirror images add the same two run sums in the
    other order.  The tail coefficients stay orbit sums of the plain ones,
    bit for bit, and ct is the cross coefficient plus the tail midpoints."""
    dom = _SYMMETRIC[shape]()
    prm = FracParams(0.75, p)
    tables, full = orbit_tables(dom, prm), QuotientTables(dom, prm)
    assert tables.orbits < dom.inside_count
    orbit_sum = lambda c: np.bincount(tables.labels, c)
    want = orbit_sum(full.cross_coef)
    if shape == "interval":
        np.testing.assert_array_equal(tables.cross_coef, want)
    else:
        np.testing.assert_allclose(tables.cross_coef, want, rtol=1e-14, atol=0.0)
    w = _cross_weights(dom, prm.ap, tables.reps)
    np.testing.assert_array_equal(tables.cross_coef,
                                  2.0 * dom.h ** (2 * dom.dim) * w * tables.sizes)
    np.testing.assert_array_equal(tables.tail_lower_coef, orbit_sum(full.tail_lower_coef))
    np.testing.assert_array_equal(tables.tail_upper_coef, orbit_sum(full.tail_upper_coef))
    np.testing.assert_array_equal(
        tables.ct_coef,
        tables.cross_coef + orbit_sum(0.5 * (full.tail_lower_coef + full.tail_upper_coef)))


def test_cross_weights_at_given_nodes_are_those_of_the_whole_pass():
    """Weights at chosen inside positions are the whole pass's at those positions, bitwise."""
    dom = annulus_mask(1 / 8)
    at = np.array([0, 5, 17, dom.inside_count - 1])
    np.testing.assert_array_equal(_cross_weights(dom, 3.0, at), _cross_weights(dom, 3.0)[at])


def suffix_table_bytes(dom):
    """8 (lines x (n + 1)) bytes: the cross weights' suffix table, n nodes per line."""
    n = dom.lattice_shape[-1]
    return 8 * (dom.n_nodes // n) * (n + 1)


def test_cross_weights_peak_is_the_suffix_table(traced_peak):
    """On the disk at h = 1/16, margin 2 (a 215 x 215 lattice), the cross
    weights at the orbit representatives allocate little beyond their one
    (lines, n + 1) table: its powers and sums are written in place."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 16)
    assert dom.lattice_shape == (215, 215)
    reps = geometry._orbits(lattice_symmetries(dom))[0]
    peak = traced_peak(_cross_weights, dom, 3.0, reps)
    assert peak <= 1.1 * suffix_table_bytes(dom)


def test_tables_check_the_suffix_table_before_allocating(monkeypatch):
    """A small disk in a wide box: 45 inside nodes in 9 orbits, 56,169 box
    nodes.  The folded tables themselves are a few KiB, so only the suffix
    table's bytes exceed the memory allowed, and the build stops before
    it computes any coefficient."""
    dom = build_disk((0.0, 0.0), 1.0, 0.25, margin=10.0)
    group = lattice_symmetries(dom)
    k = geometry._orbits(group)[0].size
    holder = 8 * k * (k + 3 * k)  # one block of rows
    need = holder + suffix_table_bytes(dom)
    assert (dom.inside_count, k, dom.n_nodes) == (45, 9, 56169) and holder < 4096
    calls = []
    monkeypatch.setattr(energy, "_cross_weights", lambda *args: calls.append(args))
    monkeypatch.setattr(geometry, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=f"kernel tables for 9 orbits of 45 inside nodes "
                                         f"need {geometry._size(need)}, more than"):
        QuotientTables(dom, FracParams(0.75, 4.0), group)
    assert not calls
    monkeypatch.undo()
    monkeypatch.setattr(geometry, "_physical_memory", lambda: need)
    QuotientTables(dom, FracParams(0.75, 4.0), group)


def test_orbit_fold_in_row_blocks_changes_no_bit(monkeypatch):
    """113 orbit rows against 793 columns: folded one block at a time, or in
    blocks of 7 rows, the holder is the same."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 16)
    prm = FracParams(0.75, 8.0)
    whole = orbit_tables(dom, prm).holder
    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 7 * dom.inside_count)
    np.testing.assert_array_equal(orbit_tables(dom, prm).holder, whole)


def two_pass_fold(dom, prm, group):
    """The folded holder by two passes over the whole (|G|, k, k) kernel of
    every representative against every image of every representative: its
    maximum over the group, then the sum of the scaled p-th powers in group
    order, mirrored from above the diagonal."""
    reps, labels, _ = geometry._orbits(group)
    k, order = reps.size, len(group)
    sizes = np.bincount(labels).astype(float)
    inside = dom.inside_indices
    members = np.concatenate([g[reps] for g in group])
    kern, row_keys, col_keys = geometry._offset_distances(dom, inside[reps], inside[members],
                                                          -prm.alpha)
    kernel = kern[np.subtract.outer(row_keys, col_keys)].reshape(k, order, k).transpose(1, 0, 2)
    top = kernel.max(axis=0)
    top[top == 0.0] = 1.0
    total = np.zeros((k, k))
    for slab in kernel:
        total += (slab / top) ** prm.p
    total *= sizes[:, None] * (sizes / order)
    holder = top * total ** (1.0 / prm.p)
    np.fill_diagonal(holder, 0.0)
    return np.triu(holder) + np.triu(holder, 1).T


@pytest.mark.parametrize("p", [8.0, 64.0])
@pytest.mark.parametrize("shape, rows, blocks", [
    ("interval", None, 1),  # 16 orbits, 2 reflections: one stack of 16 rows
    ("interval", 5, 4),  # stacks of 5 rows
    ("rectangle", None, 2),  # 8 orbits, 4 reflections: stacks of 4 rows
    ("disk", None, 5),  # 31 orbits, 8 reflections: stacks of 7 rows
    ("disk", 3, 31),  # one row per stack
    ("nine_nodes", None, 3),  # 3 orbits, fewer than the 8 reflections
])
def test_folded_holder_is_the_two_pass_fold_bit_for_bit(monkeypatch, shape, rows, blocks, p):
    """The build gathers each block of rows once per group element, on and
    above the diagonal, and its holder is the two-pass fold's bit for bit:
    in one block, in several (`rows` forces the pair pass's block, and the
    stack holds twice its rows over |G|), and with fewer orbits than
    reflections, where a stack holds one row of every element."""
    dom = build_disk((0.0, 0.0), 0.5, 0.25) if shape == "nine_nodes" else _SYMMETRIC[shape]()
    prm = FracParams(0.75, p)
    group = lattice_symmetries(dom)
    k = geometry._orbits(group)[0].size
    if rows is not None:
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", rows * k)
    gathers = []
    real = energy._gather
    monkeypatch.setattr(energy, "_gather", lambda *args: gathers.append(1) or real(*args))
    holder = QuotientTables(dom, prm, group).holder
    assert len(gathers) == blocks * len(group)
    np.testing.assert_array_equal(holder, two_pass_fold(dom, prm, group))


@pytest.mark.parametrize("h, margin", [(1 / 16, 2.0), (1 / 32, 1.0)])
def test_a_table_build_stays_within_the_bytes_its_memory_check_charged(
        monkeypatch, traced_peak, h, margin):
    """On disk_eig's lattice (the disk at h = 1/16, margin 2: 113 orbits, one
    block of pair-pass rows) and on the disk at h = 1/32, margin 1 (428
    orbits, blocks of 306 rows), the folded build's traced peak stays within
    the bytes `_check_memory` charged, 0.74 and 4.86 MiB: the holder's stack
    is part of what the check counts."""
    dom = build_disk((0.0, 0.0), 1.0, h, margin)
    prm = FracParams(0.75, 4.0)
    group = lattice_symmetries(dom)
    QuotientTables(dom, prm, group)  # the domain's cached arrays are made here
    charged = []
    real = energy._check_memory
    monkeypatch.setattr(energy, "_check_memory",
                        lambda need, what: charged.append(need) or real(need, what))
    peak = traced_peak(QuotientTables, dom, prm, group)
    assert len(charged) == 1 and peak <= charged[0]


def test_orbit_fold_and_expand():
    """fold takes orbit means, and returns an invariant vector's values bit for
    bit, where summing the 4 or 8 equal values of an orbit would round."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 8)
    tables = orbit_tables(dom, FracParams(0.75, 4.0))
    assert set(tables.sizes) == {1.0, 4.0, 8.0}
    v = np.random.default_rng(4).normal(size=tables.orbits) / 3.0
    np.testing.assert_array_equal(tables.fold(tables.expand(v)), v)
    x = dom.inside_coords[:, 0]  # odd under the flip of the first axis
    u = tables.expand(v) + x
    np.testing.assert_allclose(tables.fold(u), v, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# the p = 2 energy against the continuum
# ---------------------------------------------------------------------------


def getoor_energy(alpha):
    """The double integral of (u(x) - u(y))^2 |x - y|^-(1 + 2s) over R x R for
    u = (1 - x^2)_+^s, s = alpha - 1/2: (-Delta)^s u = Gamma(1 + 2s) on (-1, 1)
    (R. K. Getoor, "First passage times for symmetric stable processes in
    space", Trans. AMS 101, 1961), so the integral is
    (2 / C_1s) Gamma(1 + 2s) B(1/2, s + 1), with
    C_1s = s 4^s Gamma(1/2 + s) / (sqrt(pi) Gamma(1 - s))."""
    s = alpha - 0.5
    c = s * 4.0 ** s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s))
    beta = math.gamma(0.5) * math.gamma(s + 1.0) / math.gamma(s + 1.5)
    return 2.0 / c * math.gamma(1.0 + 2.0 * s) * beta


def test_getoor_energy_at_alpha_one_is_pi_squared():
    assert getoor_energy(1.0) == pytest.approx(math.pi ** 2, rel=1e-14)


@pytest.mark.parametrize("alpha, finest", [(0.75, 4.0e-4), (0.9, 2.6e-4)])
def test_p2_energy_of_the_torsion_function_tends_to_the_continuum(alpha, finest):
    """On (-1, 1), margin 2, p = 2, the lab's energy of u = (1 - x^2)_+^s
    (pair sum, cross term and tail midpoint) lies above the closed form at
    h = 1/128 ... 1/1024, and the error falls by a ratio in [0.50, 0.58]
    per halving of h, so it is O(h).  Measured: +2.281e-3 ... +3.867e-4,
    ratios 0.570 / 0.552 / 0.539, at alpha = 0.75; +1.714e-3 ... +2.473e-4,
    ratios 0.536 / 0.523 / 0.514, at alpha = 0.9."""
    errors = []
    for h in (1 / 128, 1 / 256, 1 / 512, 1 / 1024):
        dom = build_interval(-1.0, 1.0, h, 2.0)
        tables = QuotientTables(dom, FracParams(alpha, 2.0), lattice_symmetries(dom))
        u = np.maximum(1.0 - dom.inside_coords[:, 0] ** 2, 0.0) ** (alpha - 0.5)
        errors.append(tables.breakdown(tables.fold(u)).total / getoor_energy(alpha) - 1.0)
    errors = np.array(errors)
    assert (errors > 0.0).all()
    ratios = errors[1:] / errors[:-1]
    assert ((ratios >= 0.50) & (ratios <= 0.58)).all()
    assert errors[-1] < finest


# ---------------------------------------------------------------------------
# the quotient's Hessian
# ---------------------------------------------------------------------------


_HESSIAN_DOMAINS = {
    "interval": (lambda: build_interval(0.0, 2.0, 1 / 16), 0.6),
    "disk": (lambda: build_disk((0.0, 0.0), 1.0, 1 / 8), 0.75),
    # x + 2y < 1.6 in the unit square: no lattice reflection
    "triangle": (lambda: build_mask2d(((0.0, 0.0), (1.0, 1.0)), 1 / 8,
                                      lambda x: x[:, 0] + 2.0 * x[:, 1] < 1.6, margin=1.0),
                 0.75),
}

HESSIAN_CASES = pytest.mark.parametrize("group", ["trivial", "folded"])
HESSIAN_SHAPES = pytest.mark.parametrize("shape, p", [
    *[("interval", p) for p in (2.0, 4.0, 8.0, 64.0)],
    # at p = 2 no alpha <= 1 puts alpha * p above n = 2
    *[(shape, p) for shape in ("disk", "triangle") for p in (4.0, 8.0, 64.0)],
])


def hessian_tables(shape, p, group):
    build, alpha = _HESSIAN_DOMAINS[shape]
    dom = build()
    return QuotientTables(dom, FracParams(alpha, p),
                          lattice_symmetries(dom) if group == "folded" else None)


@HESSIAN_CASES
@HESSIAN_SHAPES
def test_hessian_product_matches_central_differences_of_the_gradient(shape, p, group):
    """H d against (grad(v + eps d) - grad(v - eps d)) / (2 eps) at eps = 1e-6
    on values in [0.5, 1.5]: the two differ by at most 1e-8 of max|H d|
    (measured up to 1e-8 at p = 64, where the third derivative is largest)."""
    tables = hessian_tables(shape, p, group)
    rng = np.random.default_rng(int(p) + tables.orbits)
    v = 0.5 + rng.random(tables.orbits)
    q, g = tables.value_and_grad(v)
    _, _, product = tables.hessian(v, q, g)
    eps = 1e-6
    for _ in range(3):
        d = rng.normal(size=v.size)
        d /= np.linalg.norm(d)
        fd = (tables.gradient(v + eps * d) - tables.gradient(v - eps * d)) / (2.0 * eps)
        hd = product(d)
        assert np.abs(fd - hd).max() <= 1e-7 * np.abs(hd).max()


@HESSIAN_CASES
@HESSIAN_SHAPES
def test_hessian_is_symmetric_with_its_diagonal_and_sends_v_to_minus_the_gradient(
        shape, p, group):
    """The products with the unit vectors assemble an exactly symmetric matrix
    whose diagonal is the returned one.  The quotient is 0-homogeneous, so
    H(v) v = -grad Q(v), here to 1e-14 of the size of the terms, max |H| |v|
    (measured up to 3e-15), and H(c v) = H(v) / c**2."""
    tables = hessian_tables(shape, p, group)
    v = 0.5 + np.random.default_rng(int(p)).random(tables.orbits)
    q, g = tables.value_and_grad(v)
    diag, _, product = tables.hessian(v, q, g)
    h = np.column_stack([product(e) for e in np.eye(tables.orbits)])
    np.testing.assert_array_equal(h, h.T)
    np.testing.assert_array_equal(np.diag(h), diag)
    assert np.abs(h @ v + g).max() <= 1e-14 * (np.abs(h) @ np.abs(v)).max()
    scaled = tables.hessian(1e100 * v, *tables.value_and_grad(1e100 * v))[0] * 1e200
    assert np.abs(scaled - diag).max() <= 1e-13 * np.abs(diag).max()


def test_hessian_of_a_constant_at_p2_keeps_its_pair_weights():
    """At p = 2 the pair weights are the constant holder**2, also where all
    values are equal and no pair term is left to factor out."""
    dom = build_interval(0.0, 1.0, 1 / 8)
    tables = QuotientTables(dom, FracParams(0.75, 2.0))
    v = np.ones(dom.inside_count)
    diag, convex, product = tables.hessian(v, *tables.value_and_grad(v))
    rng = np.random.default_rng(3)
    d = rng.normal(size=v.size)
    eps = 1e-6
    fd = (tables.gradient(v + eps * d) - tables.gradient(v - eps * d)) / (2.0 * eps)
    assert np.abs(fd - product(d)).max() <= 1e-7 * np.abs(fd).max()
    assert np.all(np.isfinite(diag)) and np.all(convex > 0.0)


@pytest.mark.parametrize("shape, p", [("interval", 4.0), ("interval", 8.0), ("disk", 4.0),
                                      ("triangle", 8.0)])
def test_hessian_convex_diagonal_is_the_numerator_curvature_over_the_denominator(shape, p):
    """The second entry is the diagonal of hess N / D, from second differences
    of the energy N = breakdown(v).total at D = norm(v)**p: positive, and at
    least H's own diagonal plus its Q hess D / D term."""
    tables = hessian_tables(shape, p, "folded")
    v = 0.5 + np.random.default_rng(int(p)).random(tables.orbits)
    diag, convex, _ = tables.hessian(v, *tables.value_and_grad(v))
    den = tables.norm(v) ** p
    eps = 1e-4
    for i in range(0, tables.orbits, max(1, tables.orbits // 5)):
        e = np.zeros(tables.orbits)
        e[i] = eps
        n = [tables.breakdown(v + s * e).total for s in (-1.0, 0.0, 1.0)]
        second = (n[0] - 2.0 * n[1] + n[2]) / (eps * eps * den)
        assert convex[i] == pytest.approx(second, rel=1e-4)  # truncation about 1e-5 at p = 8
    assert np.all(convex > 0.0)
