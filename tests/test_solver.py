import math

import numpy as np
import pytest
import scipy.linalg
from test_geometry import half_square, triangle_mask

from fracteig import solver
from fracteig.energy import (
    FracParams,
    QuotientTables,
    rayleigh_gradient,
    rayleigh_quotient,
    surface_measure,
)
from fracteig.geometry import (
    GridFunction,
    Rectangle,
    build_disk,
    build_interval,
    build_rectangle,
    distance_to_complement,
    lattice_symmetries,
)
from fracteig.solver import (
    SolverOptions,
    minimize_first,
    monotonicity_check,
    p2_matrix,
    p2_oracle,
    p_sweep,
)


def hand_matrix_3nodes(alpha):
    """Quadratic form of the discrete energy on (0,1), h=1/4, margin=1.

    Three inside nodes at 0.25, 0.5, 0.75; every weight written out from the
    kernel |y-x|^(-2a), the box sums, and the radial tail bracket midpoint.
    """
    h = 0.25
    ap = 2.0 * alpha
    xs = np.array([0.25, 0.5, 0.75])
    lattice = np.arange(-1.0, 2.0 + 1e-12, h)
    out = np.array([x for x in lattice if not np.any(np.isclose(x, xs))])
    sig = surface_measure(1)
    A = np.zeros((3, 3))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            if i != j:
                A[i, j] = -2.0 * abs(y - x) ** (-ap) * h ** 2
        row = sum(abs(y - x) ** (-ap) for j, y in enumerate(xs) if j != i)
        cross = 2.0 * h ** 2 * np.sum(np.abs(out - x) ** (-ap))
        tail = lambda d: 2.0 * sig * d ** (1.0 - ap) / (ap - 1.0) * h
        tmid = 0.5 * (tail(x + 1.0) + tail(2.0 - x))
        A[i, i] = 2.0 * row * h ** 2 + cross + tmid
    return A


def test_p2_oracle_matches_hand_matrix():
    alpha = 0.75
    dom = build_interval(0.0, 1.0, 0.25, margin=1.0)
    A = hand_matrix_3nodes(alpha)
    np.testing.assert_allclose(p2_matrix(dom, alpha), A, rtol=1e-13)
    lam_hand = np.linalg.eigvalsh(A)[0] / dom.h
    res = p2_oracle(dom, alpha)
    assert res.lam == pytest.approx(lam_hand, rel=1e-12)
    assert res.converged


def test_p2_oracle_eigenvector():
    dom = build_interval(0.0, 1.0, 1 / 32)
    res = p2_oracle(dom, 0.8)
    v = res.u.inside_values()
    assert np.all(v > 0.0)
    assert np.sum(np.abs(v) ** 2) * dom.h == pytest.approx(1.0, abs=1e-12)
    # dense solve leaves an absolute residual that scales with lambda/h
    assert res.residual < 1e-6
    assert res.final_grad_norm is None
    # scipy's subset eigensolver as the reference: the same pair to rounding
    evals, vecs = scipy.linalg.eigh(p2_matrix(dom, 0.8), subset_by_index=[0, 0])
    assert res.lam == pytest.approx(evals[0] / dom.h, rel=1e-14)
    ref = np.abs(vecs[:, 0]) / (np.sqrt(dom.h) * np.linalg.norm(vecs[:, 0]))
    np.testing.assert_allclose(v, ref, rtol=0.0, atol=1e-13)


def test_p2_matrix_validity_range():
    dom = build_interval(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match=r"invalid exponents: alpha\*p = 0.8 <= n = 1"):
        p2_matrix(dom, 0.4)


def test_minimizer_agrees_with_oracle():
    dom = build_interval(0.0, 1.0, 1 / 32)
    res = minimize_first(dom, FracParams(0.9, 2.0), SolverOptions())
    oracle = p2_oracle(dom, 0.9)
    assert abs(res.lam - oracle.lam) <= 1e-8
    assert res.converged


def test_distance_init_positive_minimizer():
    dom = build_interval(0.0, 1.0, 1 / 24)
    res = minimize_first(dom, FracParams(0.75, 3.0), SolverOptions())
    assert res.u.inside_values().min() > 0.0


def test_random_seeds_agree_after_normalization():
    dom = build_interval(0.0, 1.0, 1 / 32)
    prm = FracParams(0.75, 4.0)
    outs = []
    for seed in (1, 2):
        res = minimize_first(dom, prm, SolverOptions(init_mode="random", seed=seed))
        assert res.converged
        v = res.u.inside_values().copy()
        v /= np.abs(v).max()
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        outs.append(v)
    assert np.abs(outs[0] - outs[1]).max() <= 1e-6


def test_descent_history_is_monotone():
    """The descent does not depend on max_iters, so a run cut at k iterations
    returns the k-th iterate: the quotient never rises along the path, and the
    last iterate is the unrestricted run's result."""
    dom = build_interval(0.0, 1.0, 1 / 16)
    prm = FracParams(0.7, 3.0)
    res = minimize_first(dom, prm)
    assert res.converged and res.iters > 1
    hist = np.array([minimize_first(dom, prm, SolverOptions(max_iters=k)).lam
                     for k in range(1, res.iters + 1)])
    assert np.all(np.diff(hist) <= 0.0)
    assert hist[-1] == res.lam


def test_result_normalization():
    dom = build_interval(0.0, 1.0, 1 / 16)
    for p in (2.0, 4.0):
        res = minimize_first(dom, FracParams(0.75, p), SolverOptions())
        mass = np.sum(np.abs(res.u.inside_values()) ** p) * dom.h
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert res.lam == pytest.approx(rayleigh_quotient(res.u, FracParams(0.75, p)), rel=1e-12)


def test_nonconvergence_is_flagged_not_raised():
    dom = build_interval(0.0, 1.0, 1 / 16)
    res = minimize_first(dom, FracParams(0.75, 4.0), SolverOptions(max_iters=1))
    assert not res.converged
    assert res.iters == 1
    assert res.stop_reason == "max_iters"
    assert res.evals >= 2  # the start point plus at least one trial


def test_stop_reasons_and_eval_counts():
    dom = build_interval(0.0, 1.0, 1 / 16)
    prm = FracParams(0.75, 4.0)
    res = minimize_first(dom, prm, SolverOptions(tol_grad=1e6))
    assert (res.stop_reason, res.converged, res.iters, res.evals) == ("grad", True, 0, 1)
    res = minimize_first(dom, prm, SolverOptions())
    assert res.stop_reason in ("grad", "rel_drop") and res.converged
    assert res.evals >= res.iters + 1
    assert res.final_grad_norm == pytest.approx(
        float(np.linalg.norm(rayleigh_gradient(res.u, prm).inside_values())), rel=1e-6)


def test_no_trial_point_with_a_finite_quotient_stops_on_no_descent(monkeypatch):
    """Tables whose every point after the start has an infinite quotient:
    the first iteration's Newton search and its steepest-descent fallback
    both backtrack to their smallest step without an Armijo point, so the
    run stops on `no_descent` after 1 iteration and 137 evaluations (the
    start and 136 trials), flagged as not converged."""

    class Blind(QuotientTables):
        evaluated = 0

        def value_and_grad(self, v):
            q, g = super().value_and_grad(v)
            self.evaluated += 1
            return (q if self.evaluated == 1 else math.inf), g

    monkeypatch.setattr(solver, "QuotientTables", Blind)
    res = minimize_first(build_interval(0.0, 2.0, 1 / 16), FracParams(0.5, 8.0))
    assert (res.stop_reason, res.converged, res.iters, res.evals) == ("no_descent", False, 1, 137)


def test_sweep1d_p32_step_matches_the_reference():
    """The p=32 step of the (0,2), h=1/100, alpha=1/2 sweep: the eigenvalue may
    not rise above the steepest-descent reference, and the root keeps 5 digits."""
    dom = build_interval(0.0, 2.0, 1 / 100)
    row = p_sweep(dom, 0.5, [8.0, 16.0, 32.0]).rows[-1]
    assert row.converged and row.stop_reason in ("grad", "rel_drop")
    assert row.lam <= 0.29568468460880976 * (1.0 + 1e-9)
    assert abs(row.root - 0.9626388856283133) <= 0.5e-5


# lambda of the (0, 2), h = 1/100, alpha = 1/2 sweep under the limited-memory
# BFGS descent that the truncated Newton descent replaced
SWEEP1D_LBFGS_LAMBDA = {8.0: 1.765813532829455, 16.0: 0.675164486027245,
                        32.0: 0.2956843881114733, 64.0: 0.15036769917367798}


def test_sweep1d_eigenvalues_only_fall_and_take_few_iterations():
    """Against the descent it replaced, which took 28/48/208/466 iterations,
    no eigenvalue of the sweep rises beyond rounding, no step takes more than
    50 Newton iterations, and the eigenfunction stays positive."""
    dom = build_interval(0.0, 2.0, 1 / 100)
    out = p_sweep(dom, 0.5, list(SWEEP1D_LBFGS_LAMBDA))
    for row in out.rows:
        assert row.converged
        assert row.lam <= SWEEP1D_LBFGS_LAMBDA[row.p] * (1.0 + 1e-12)
        assert row.iters <= 50
        assert row.hess_products >= row.iters  # each Newton step takes at least one
    assert out.final_u.inside_values().min() > 0.0


def test_random_starts_at_p32_reach_the_positive_minimizer():
    """From sign-changing starts at p = 32 the Newton steps are often too
    damped to count; steepest descent then competes with each of them, so
    the run does not stop on a negligible step far above the minimum (seeds
    5 and 6 stopped near 1e30 without that rule) and every start ends at the
    eigenpair of the distance start."""
    dom = build_interval(0.0, 2.0, 1 / 100)
    prm = FracParams(0.5, 32.0)
    base = minimize_first(dom, prm)
    for seed in (4, 5, 6):
        res = minimize_first(dom, prm, SolverOptions(init_mode="random", seed=seed))
        assert res.converged
        assert abs(res.lam - base.lam) <= 1e-10 * base.lam
        assert np.abs(res.u.inside_values() - base.u.inside_values()).max() <= 1e-6
        assert res.u.inside_values().min() > 0.0


@pytest.mark.xfail(strict=True, reason="converged is only a stop rule; ROADMAP item 2's "
                   "certified bracket makes it honest, and this case then passes")
def test_converged_means_the_minimum_from_a_random_start_at_p64():
    """(0, 2), h = 1/50, alpha = 1/2, p = 64 from random seed 12 stops on
    rel_drop after 4 iterations at lambda near 9.3e52 and reports converged."""
    dom = build_interval(0.0, 2.0, 1 / 50)
    prm = FracParams(0.5, 64.0)
    base = minimize_first(dom, prm)
    res = minimize_first(dom, prm, SolverOptions(init_mode="random", seed=12))
    assert not res.converged or abs(res.lam - base.lam) <= 1e-6 * base.lam


@pytest.mark.parametrize("kwargs,msg", [
    ({"max_iters": 0}, "max_iters must be >= 1"),
    ({"tol_rel_q": 0.0}, "tolerances must be positive"),
    ({"tol_grad": -1.0}, "tolerances must be positive"),
    ({"step0": 0.0}, "step0 must be positive"),
    ({"backtrack_factor": 1.0}, "backtrack_factor must lie in"),
    ({"init_mode": "warmglow"}, "unknown init_mode"),
    ({"init_mode": "custom"}, "custom init requires init_values"),
    ({"max_iters": 1.5}, "max_iters must be an integer"),
    ({"max_iters": 2.0}, "max_iters must be an integer"),
    ({"max_iters": np.inf}, "max_iters must be an integer"),
    ({"max_iters": True}, "max_iters must be an integer"),
    ({"seed": 1.5, "init_mode": "random"}, "seed must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"step0": np.inf}, "step0 must be positive and finite"),
])
def test_options_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        SolverOptions(**kwargs)


def test_custom_init_shape_and_content_checked():
    dom = build_interval(0.0, 1.0, 1 / 8)
    prm = FracParams(0.75, 3.0)
    with pytest.raises(ValueError, match="init_values must hold"):
        minimize_first(dom, prm, SolverOptions(init_mode="custom",
                                               init_values=np.ones(3)))
    with pytest.raises(ValueError, match="finite and not identically zero"):
        minimize_first(dom, prm, SolverOptions(init_mode="custom",
                                               init_values=np.zeros(dom.inside_count)))


def test_p_sweep_validation():
    dom = build_interval(0.0, 1.0, 1 / 8)
    with pytest.raises(ValueError, match="empty p list"):
        p_sweep(dom, 0.75, [])
    with pytest.raises(ValueError, match="strictly ascending"):
        p_sweep(dom, 0.75, [4.0, 2.0])


def test_p_sweep_rows_and_target():
    dom = build_interval(0.0, 2.0, 1 / 16)
    out = p_sweep(dom, 0.75, [2.0, 4.0, 8.0])
    assert out.target == pytest.approx(1.0)  # inradius 1
    assert [r.p for r in out.rows] == [2.0, 4.0, 8.0]
    assert all(r.converged for r in out.rows)
    for r in out.rows:
        assert r.root == pytest.approx(r.lam ** (1.0 / r.p), rel=1e-12)
    assert len(out.gaps()) == 3
    assert out.final_u is not None
    # eigenvalues grow with p here; the roots head toward the target
    assert out.gaps()[-1] < out.gaps()[0]


def test_p_sweep_single_entry():
    dom = build_interval(0.0, 1.0, 1 / 8)
    out = p_sweep(dom, 0.75, [3.0])
    assert len(out.rows) == 1
    assert out.target == pytest.approx(0.5 ** (-0.75))


def test_monotonicity_equal_domains():
    dom = build_interval(0.0, 1.0, 1 / 16)
    assert monotonicity_check(dom, dom, FracParams(0.75, 4.0))


def test_monotonicity_interval_pair():
    dom = build_interval(0.0, 2.0, 1 / 16)
    sub = dom.restricted(lambda c: (c[:, 0] > 0.0) & (c[:, 0] < 1.0))
    assert monotonicity_check(dom, sub, FracParams(0.75, 4.0))


def test_monotonicity_halved_square():
    sq = build_rectangle((0.0, 0.0), (1.0, 1.0), 1 / 8)
    half = sq.restricted(None, shape_tag=Rectangle(0.0, 0.0, 0.5, 1.0))
    assert monotonicity_check(sq, half, FracParams(0.75, 4.0))


def test_monotonicity_check_validation():
    dom = build_interval(0.0, 2.0, 1 / 16)
    other = build_interval(0.0, 1.0, 1 / 16)
    with pytest.raises(ValueError, match="different lattices"):
        monotonicity_check(dom, other, FracParams(0.75, 4.0))
    sub = dom.restricted(lambda c: c[:, 0] < 1.0)
    with pytest.raises(ValueError, match="not contained in the first"):
        monotonicity_check(sub, dom, FracParams(0.75, 4.0))


def test_scaling_covariance_of_eigenvalue():
    k = 2.0
    prm = FracParams(0.75, 4.0)
    l1 = minimize_first(build_interval(0.0, 1.0, 1 / 24), prm, SolverOptions()).lam
    l2 = minimize_first(build_interval(0.0, 2.0, 2 / 24), prm, SolverOptions()).lam
    assert l2 == pytest.approx(k ** (1.0 - prm.ap) * l1, rel=1e-10)


def test_flipped_sign_increases_quotient():
    dom = build_interval(0.0, 1.0, 1 / 16)
    prm = FracParams(0.75, 4.0)
    res = minimize_first(dom, prm, SolverOptions())
    lam = rayleigh_quotient(res.u, prm)
    flipped = res.u.inside_values().copy()
    flipped[3] = -flipped[3]
    u2 = GridFunction.from_inside(dom, flipped)
    assert rayleigh_quotient(u2, prm) > lam


@pytest.mark.parametrize("dom, p, orbits", [
    (build_interval(0.0, 2.0, 1 / 16), 8.0, 16),
    (build_disk((0.0, 0.0), 1.0, 1 / 8), 4.0, 31),
    (half_square(1 / 12), 4.0, 30),
], ids=["interval", "disk", "half_square"])
def test_minimizer_is_invariant_and_its_quotient_is_the_full_one(dom, p, orbits):
    """The solve runs over orbits, and the expanded minimizer is exactly
    invariant under every lattice symmetry; its full quotient is lam and its
    full gradient norm is final_grad_norm."""
    prm = FracParams(0.75, p)
    res = minimize_first(dom, prm)
    assert res.converged and res.orbits == orbits
    u = res.u.inside_values()
    for perm in lattice_symmetries(dom):
        np.testing.assert_array_equal(u[perm], u)
    assert abs(res.lam - QuotientTables(dom, prm).quotient(u)) <= 1e-13 * res.lam
    assert res.final_grad_norm == pytest.approx(
        float(np.linalg.norm(rayleigh_gradient(res.u, prm).inside_values())), rel=1e-6)


def test_asymmetric_mask_solves_over_every_inside_node():
    dom = triangle_mask(1 / 8)
    assert len(lattice_symmetries(dom)) == 1
    res = minimize_first(dom, FracParams(0.75, 4.0))
    assert res.converged and res.orbits == dom.inside_count
    random = minimize_first(dom, FracParams(0.75, 4.0), SolverOptions(init_mode="random"))
    assert random.orbits == dom.inside_count


def test_custom_start_without_symmetry_gives_a_symmetric_minimizer():
    """A start that no reflection fixes enters through its orbit means."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 8)
    prm = FracParams(0.75, 4.0)
    base = minimize_first(dom, prm)
    x = dom.inside_coords
    delta = distance_to_complement(dom).inside_values()
    start = delta * (1.0 + 0.5 * x[:, 0] + 0.25 * x[:, 1] ** 3)
    assert not any(np.array_equal(start[perm], start) for perm in lattice_symmetries(dom)[1:])
    res = minimize_first(dom, prm, SolverOptions(init_mode="custom", init_values=start))
    u = res.u.inside_values()
    for perm in lattice_symmetries(dom):
        np.testing.assert_array_equal(u[perm], u)
    assert abs(res.lam - base.lam) <= 1e-10 * base.lam


def test_random_start_draws_one_value_per_orbit():
    dom = build_disk((0.0, 0.0), 1.0, 1 / 8)
    prm = FracParams(0.75, 4.0)
    res = minimize_first(dom, prm, SolverOptions(init_mode="random", seed=5, tol_grad=1e30))
    assert (res.iters, res.orbits) == (0, 31)
    draw = np.random.default_rng(5).standard_normal(31)
    start = QuotientTables(dom, prm, lattice_symmetries(dom)).expand(draw)
    u = res.u.inside_values()
    np.testing.assert_allclose(u / u[0], start / start[0], rtol=1e-14, atol=0.0)


def test_a_negative_start_ends_at_the_positive_eigenfunction():
    """The quotient is even: the result's largest value is made positive."""
    dom = build_interval(0.0, 1.0, 1 / 16)
    prm = FracParams(0.75, 4.0)
    base = minimize_first(dom, prm)
    start = -distance_to_complement(dom).inside_values()
    res = minimize_first(dom, prm, SolverOptions(init_mode="custom", init_values=start))
    assert res.lam == base.lam
    np.testing.assert_array_equal(res.u.inside_values(), base.u.inside_values())


def test_custom_start_with_zero_orbit_means_is_rejected():
    dom = build_interval(0.0, 2.0, 1 / 16)
    odd = dom.inside_coords[:, 0] - 1.0  # odd about the centre of (0, 2)
    with pytest.raises(ValueError, match="average to zero on every orbit"):
        minimize_first(dom, FracParams(0.75, 4.0),
                       SolverOptions(init_mode="custom", init_values=odd))


# The first eigenvalue of (-Delta)^(1/2) on an interval of length 2 (T. Kulczycki,
# M. Kwasnicki, J. Malecki and A. Stos, "Spectral properties of the Cauchy process
# on half-line and interval", Proc. LMS 101, 2010).
CAUCHY_LAMBDA1 = 1.1577738836977


def test_p2_alpha1_eigenvalue_tends_to_the_cauchy_process_eigenvalue():
    """At p = 2 and alpha = 1 the kernel is |x - y|^-2, and the quadratic form
    of (-Delta)^(1/2) in 1-D is (1/2 pi) times the lab's double integral, which
    has no normalizing constant: on (0, 2) the lattice lambda tends to
    2 pi lambda_1.  It lies below that limit with error c h log(1/h), so
    lambda_0 + a h + b h log h, fitted through h = 1/128, 1/256 and 1/512,
    meets it to 1e-5 relative (3.4e-6 measured)."""
    hs = np.array([1 / 128, 1 / 256, 1 / 512])
    lams = np.array([minimize_first(build_interval(0.0, 2.0, h, 2.0), FracParams(1.0, 2.0)).lam
                     for h in hs])
    target = 2.0 * math.pi * CAUCHY_LAMBDA1
    gaps = target - lams
    assert (gaps > 0.0).all() and (np.diff(gaps) < 0.0).all()
    lam0 = np.linalg.solve(np.stack([np.ones(3), hs, hs * np.log(hs)], axis=1), lams)[0]
    assert abs(lam0 / target - 1.0) <= 1e-5
