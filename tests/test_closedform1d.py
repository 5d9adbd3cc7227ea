import numpy as np
import pytest

from fracteig.closedform1d import first_1d, sample, second_1d, third_1d
from fracteig.geometry import build_disk, build_interval, nearest_node
from fracteig.infinity import BRANCH_OPERATOR, higher_residual


def test_constants_at_half():
    ex2 = second_1d(0.5)
    assert ex2.a == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ex2.lam == pytest.approx(np.sqrt(3.0), abs=1e-15)
    ex3 = third_1d(0.5)
    assert ex3.a == pytest.approx(1.0 / 5.0, abs=1e-15)
    assert ex3.lam == pytest.approx(np.sqrt(5.0), abs=1e-15)


def test_constants_at_one():
    ex2 = second_1d(1.0)
    assert ex2.a == pytest.approx(0.5, abs=1e-15)
    assert ex2.lam == pytest.approx(2.0, abs=1e-15)
    ex3 = third_1d(1.0)
    assert ex3.a == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ex3.lam == pytest.approx(3.0, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_break_point_left_of_midpoint(alpha):
    assert second_1d(alpha).a < 0.5
    assert third_1d(alpha).a < 1.0 / 3.0


def test_first_values():
    ex = first_1d(0.5)
    assert ex.lam == 1.0
    assert ex(np.array([1.0]))[0] == pytest.approx(1.0)
    assert ex(np.array([0.5]))[0] == pytest.approx(0.5)
    ex1 = first_1d(1.0)
    # piecewise rational in the distances: min(x,2-x)/(min(x,2-x)+|x-1|)
    assert ex1(np.array([0.25]))[0] == pytest.approx(0.25)


def _first_by_min(alpha, x):
    """The first profile's former stand-alone formula, m / (m + |x - 1|^alpha)
    with m = min(x, 2 - x)^alpha, on the support (0, 2)."""
    sup = (x > 0.0) & (x < 2.0)
    xs = x[sup]
    m = np.minimum(xs, 2.0 - xs) ** alpha
    out = np.zeros_like(x)
    out[sup] = m / (m + np.abs(xs - 1.0) ** alpha)
    return out


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 2.0 / 3.0, 0.9, 1.0])
def test_first_mirrored_build_equals_the_min_formula_bitwise(alpha):
    """For x in (1, 2) both 2 - x and x - 1 are exact, so reflecting the left
    half gives the former formula's bits on dyadic and non-dyadic lattices and
    at arbitrary points."""
    ex = first_1d(alpha)
    assert ex.a is None
    rng = np.random.default_rng(3)
    points = [build_interval(0.0, 2.0, h).axes[0]
              for h in (1 / 16, 1 / 128, 1 / 1024, 0.01, 0.03, 1 / 3)]
    points.append(rng.uniform(-0.1, 2.1, 20_000))
    for x in points:
        assert np.array_equal(ex(x), _first_by_min(alpha, x))


def test_second_break_values():
    ex = second_1d(0.5)
    np.testing.assert_allclose(ex(np.array([ex.a, 1.0])), [1.0, 0.0], atol=1e-15)
    # the sqrt cusp at the break turns the 1 ulp rounding of 2-a into ~1e-8
    np.testing.assert_allclose(ex(np.array([2.0 - ex.a])), [-1.0], atol=1e-7)


def test_second_antisymmetry_exact_on_dyadic_points():
    ex = second_1d(0.5)
    x = np.arange(1, 256) / 128.0
    assert np.array_equal(ex(2.0 - x), -ex(x))


def test_third_break_values_and_symmetry():
    ex = third_1d(0.5)
    pts = np.array([ex.a, (1.0 + ex.a) / 2.0, 1.0])
    np.testing.assert_allclose(ex(pts), [1.0, 0.0, -1.0], atol=1e-15)
    x = np.arange(1, 256) / 128.0
    assert np.array_equal(ex(2.0 - x), ex(x))


def test_third_nodal_interval_lengths():
    ex = third_1d(0.5)
    outer = (1.0 + ex.a) / 2.0
    middle = (3.0 - ex.a) / 2.0 - outer
    assert middle == pytest.approx(0.8)
    assert outer == pytest.approx(0.6)
    assert middle > outer


def test_evaluators_vanish_outside():
    x = np.array([-0.5, 0.0, 2.0, 2.5])
    for ex in (first_1d(0.5), second_1d(0.5), third_1d(0.7)):
        np.testing.assert_array_equal(ex(x), np.zeros(4))


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.2])
def test_alpha_validation(alpha):
    for make in (first_1d, second_1d, third_1d):
        with pytest.raises(ValueError, match="alpha must lie in"):
            make(alpha)


def test_sample_zero_extension_and_values():
    ex = second_1d(0.5)
    dom = build_interval(0.0, 2.0, 1 / 16)
    u = sample(ex, dom)
    assert u.zero_extended
    assert np.all(u.flat()[~dom.inside_flat] == 0.0)
    xs = dom.inside_coords[:, 0]
    np.testing.assert_array_equal(u.inside_values(), ex(xs))


def test_sample_domain_validation():
    ex = second_1d(0.5)
    with pytest.raises(ValueError, match="canonical 1D interval grid"):
        sample(ex, build_disk((0.0, 0.0), 1.0, 0.25))
    with pytest.raises(ValueError, match="the profiles live on"):
        sample(ex, build_interval(0.0, 1.0, 0.125))


def test_sampled_max_sits_next_to_break_point():
    ex = second_1d(0.5)
    for h in (1 / 50, 1 / 100):
        dom = build_interval(0.0, 2.0, h)
        u = sample(ex, dom)
        xmax = dom.inside_coords[np.argmax(u.inside_values()), 0]
        assert abs(xmax - ex.a) <= h


@pytest.mark.parametrize("make, opposite, h, plateau, at", [
    (second_1d, lambda a: 2.0 - a, 1 / 3072, 0.12813, 0.29499),
    (third_1d, lambda a: 1.0, 1 / 2560, 0.16541, 0.17700),
], ids=["second", "third"])
def test_sign_changing_profiles_have_a_continuum_plateau(make, opposite, h, plateau, at):
    """Criterion 7, measured (alpha = 1/2).  On the band (a/2, a) between
    the wall and the first peak a (u = 1) the sup of the Hoelder quotient is
    attained at a, and the inf across the nodal line, at the opposite-sign
    peak p (u = -1; 2 - a for the second profile, 1 for the third), where
    below a/2 it is attained at the wall.  Both branches of the equation are
    then negative: r = max(l+ + l-, l- + lam u) < 0, a strict supersolution,
    whose residual tends to the band's minimum, -plateau, and not to 0.

    A scan at a spacing that makes a and p nodes finds those witnesses at
    every node of the band, and its sup residual, on the band, with a
    negative sign, is the continuum plateau to 1e-4."""
    ex = make(0.5)
    a, p = ex.a, opposite(ex.a)
    x = np.linspace(a / 2, a, 100_001)[1:-1]
    u = ex(x)
    l_minus = (-1.0 - u) / (p - x) ** 0.5
    r = np.maximum((1.0 - u) / (a - x) ** 0.5 + l_minus, l_minus + ex.lam * u)
    # the opposite peak is below the wall's quotient -u / x^alpha on the band
    assert np.all(l_minus < -u / x ** 0.5)
    assert r.max() < 0.0
    k = np.argmin(r)
    assert abs(-r[k] - plateau) < 5e-6 and abs(x[k] - at) < 1e-5

    dom = build_interval(0.0, 2.0, h)
    peak, far = nearest_node(dom, a), nearest_node(dom, p)
    assert abs(dom.axes[0][peak] - a) < 1e-12 and abs(dom.axes[0][far] - p) < 1e-12
    rep = higher_residual(sample(ex, dom), 0.5, ex.lam)
    xs = dom.inside_coords[:, 0]
    band = (xs > a / 2 + h) & (xs < a - h)
    assert band.sum() > 200
    assert np.all(rep.witness_plus[band] == peak) and np.all(rep.witness_minus[band] == far)
    assert np.all(rep.residual[band] < 0.0) and np.all(rep.branch[band] == BRANCH_OPERATOR)
    left = np.flatnonzero(xs < 1.0)
    worst = left[np.argmax(np.abs(rep.residual[left]))]
    assert band[worst] and abs(xs[worst] - at) < 2 * h
    assert rep.residual[worst] < 0.0
    assert abs(rep.residual[worst] - r[k]) < 1e-4
    assert abs(rep.sup_norm() - plateau) < 1e-4
