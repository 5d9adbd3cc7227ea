import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from test_energy import annulus_mask

from fracteig.geometry import (
    Disk,
    GridFunction,
    Interval,
    NodeSet,
    Rectangle,
    build_disk,
    build_interval,
    build_mask2d,
    build_rectangle,
    distance_to_complement,
    distance_to_set,
    distances,
    lattice_symmetries,
    high_ridge,
    inscribed_radius,
    nearest_node,
    squared_distances,
)


def _unit_disk_mask(h):
    pred = lambda pts: (pts ** 2).sum(axis=1) < 1.0
    return build_mask2d(((-1.0, -1.0), (1.0, 1.0)), h, pred, anchor=(0.0, 0.0))


def _l_shape_mask(h):
    def in_l(pts):
        a = (pts[:, 0] > 0) & (pts[:, 0] < 2) & (pts[:, 1] > 0) & (pts[:, 1] < 1)
        b = (pts[:, 0] > 0) & (pts[:, 0] < 1) & (pts[:, 1] > 0) & (pts[:, 1] < 2)
        return a | b

    return build_mask2d(((0.0, 0.0), (2.0, 2.0)), h, in_l)


def test_interval_inside_nodes():
    dom = build_interval(0.0, 2.0, 0.5, margin=1.0)
    assert dom.dim == 1
    np.testing.assert_allclose(dom.inside_coords[:, 0], [0.5, 1.0, 1.5])
    # endpoints 0 and 2 are lattice nodes but not inside
    assert not dom.inside_flat[nearest_node(dom, 0.0)]
    assert not dom.inside_flat[nearest_node(dom, 2.0)]


def test_interval_counts_and_box():
    dom = build_interval(0.0, 1.0, 0.25, margin=1.0)
    assert dom.inside_count == 3

    dom = build_interval(0.0, 2.0, 1 / 200, margin=2.0)
    assert dom.inside_count == 399
    np.testing.assert_allclose(dom.box_lo, [-4.0], atol=1e-12)
    np.testing.assert_allclose(dom.box_hi, [6.0], atol=1e-12)


def test_unit_square_coarse_mask():
    dom = build_rectangle((0.0, 0.0), (1.0, 1.0), 0.25)
    assert dom.inside_count == 9  # 3x3 interior lattice


def test_mask2d_predicate_matches_canonical_disk():
    free = _unit_disk_mask(0.25)
    tagged = build_disk((0.0, 0.0), 1.0, 0.25)
    assert free.inside_count == tagged.inside_count
    np.testing.assert_allclose(free.inside_coords, tagged.inside_coords)


def test_mask2d_l_shape_union():
    """Union of two rectangles; count checked against a direct lattice scan."""
    h = 0.25
    dom = _l_shape_mask(h)
    xs = np.arange(1, 8) * h
    count = sum(1 for x in xs for y in xs
                if (x < 2 and y < 1) or (x < 1 and y < 2))
    assert dom.inside_count == count


def test_distance_interval_analytic():
    dom = build_interval(0.0, 2.0, 0.25)
    delta = distance_to_complement(dom)
    flat = delta.flat()
    assert flat[nearest_node(dom, 1.0)] == pytest.approx(1.0)
    assert flat[nearest_node(dom, 0.5)] == pytest.approx(0.5)
    assert np.all(flat[~dom.inside_flat] == 0.0)


def test_distance_disk_analytic():
    dom = build_disk((0.0, 0.0), 1.0, 0.125)
    delta = distance_to_complement(dom)
    r = np.sqrt((dom.inside_coords ** 2).sum(axis=1))
    np.testing.assert_allclose(delta.inside_values(), 1.0 - r, atol=1e-12)


@pytest.mark.parametrize("dom,rtol", [
    (_unit_disk_mask(1 / 4), 0.0),
    (annulus_mask(1 / 8), 0.0),
    (_l_shape_mask(1 / 4), 0.0),
    (_unit_disk_mask(0.1), 1e-15),
], ids=["disk", "annulus", "l_shape", "disk_h0.1"])
def test_edt_equals_brute_nearest_outside_node(dom, rtol):
    """Free-form masks: the outside-ring distance equals scipy's Euclidean
    distance transform, bitwise on dyadic spacings (coordinates are exact) and
    to rounding at h = 0.1, and a direct O(N^2) nearest-outside-node scan."""
    delta = distance_to_complement(dom)
    edt = ndimage.distance_transform_edt(dom.inside, sampling=dom.h)
    np.testing.assert_allclose(delta.values, edt, rtol=rtol, atol=0.0)
    coords = dom.node_coords
    out = coords[~dom.inside_flat]
    for k in np.flatnonzero(dom.inside_flat):
        brute = np.sqrt(((out - coords[k]) ** 2).sum(axis=1)).min()
        assert delta.flat()[k] == pytest.approx(brute, abs=1e-12)
    assert np.all(delta.flat()[~dom.inside_flat] == 0.0)


def test_edt_close_to_analytic():
    h = 0.125
    dom = _unit_disk_mask(h)
    delta = distance_to_complement(dom).inside_values()
    exact = 1.0 - np.sqrt((dom.inside_coords ** 2).sum(axis=1))
    assert np.abs(delta - exact).max() <= h * np.sqrt(2.0)


def test_inscribed_radius():
    assert inscribed_radius(distance_to_complement(build_interval(0.0, 2.0, 0.125))) == pytest.approx(1.0)
    assert inscribed_radius(distance_to_complement(build_disk((0.0, 0.0), 0.75, 0.125))) == pytest.approx(0.75)
    dom = build_rectangle((0.0, 0.0), (4.0, 2.0), 0.25)
    assert inscribed_radius(distance_to_complement(dom)) == pytest.approx(1.0)


def test_high_ridge_examples():
    dom = build_interval(0.0, 2.0, 0.25)
    ridge = high_ridge(distance_to_complement(dom))
    np.testing.assert_allclose(ridge.coords(), [[1.0]])

    dom = build_disk((0.0, 0.0), 1.0, 0.25)
    ridge = high_ridge(distance_to_complement(dom))
    np.testing.assert_allclose(ridge.coords(), [[0.0, 0.0]], atol=1e-12)

    dom = build_rectangle((0.0, 0.0), (4.0, 2.0), 0.25)
    ridge = high_ridge(distance_to_complement(dom))
    pts = ridge.coords()
    np.testing.assert_allclose(pts[:, 1], 1.0)
    np.testing.assert_allclose(np.sort(pts[:, 0]), np.arange(1.0, 3.0 + 1e-9, 0.25))


def test_high_ridge_tol_validation():
    dom = build_interval(0.0, 2.0, 0.25)
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        high_ridge(distance_to_complement(dom), tol=-0.1)


def test_distance_to_set():
    dom = build_interval(0.0, 2.0, 0.25)
    ridge = high_ridge(distance_to_complement(dom))
    rho = distance_to_set(dom, ridge)
    assert rho.flat()[nearest_node(dom, 0.25)] == pytest.approx(0.75)
    assert rho.flat()[ridge.indices[0]] == 0.0
    assert not rho.zero_extended

    every = NodeSet(dom, np.arange(dom.n_nodes))
    assert distance_to_set(dom, every).flat().max() == 0.0

    dom = build_rectangle((0.0, 0.0), (4.0, 2.0), 0.25)
    ridge = high_ridge(distance_to_complement(dom))
    rho = distance_to_set(dom, ridge)
    assert rho.flat()[nearest_node(dom, (0.5, 1.0))] == pytest.approx(0.5)


def test_distance_functions_are_lipschitz():
    rng = np.random.default_rng(3)
    dom = build_disk((0.0, 0.0), 1.0, 0.125)
    delta = distance_to_complement(dom)
    rho = distance_to_set(dom, high_ridge(delta))
    coords = dom.node_coords
    i = rng.integers(0, dom.n_nodes, size=400)
    j = rng.integers(0, dom.n_nodes, size=400)
    gap = np.sqrt(((coords[i] - coords[j]) ** 2).sum(axis=1))
    assert np.all(np.abs(delta.flat()[i] - delta.flat()[j]) <= gap + 1e-12)
    assert np.all(np.abs(rho.flat()[i] - rho.flat()[j]) <= gap + 1e-12)


def test_restricted_predicate_and_shape():
    dom = build_interval(0.0, 2.0, 0.125)
    sub = dom.restricted(lambda c: c[:, 0] < 1.0)
    assert dom.same_lattice(sub)
    assert sub.inside_count == 7
    assert np.all(sub.inside_flat <= dom.inside_flat)

    sq = build_rectangle((0.0, 0.0), (1.0, 1.0), 0.25)
    half = sq.restricted(None, shape_tag=Rectangle(0.0, 0.0, 0.5, 1.0))
    assert half.inside_count == 3  # x = 0.25, y in {0.25, 0.5, 0.75}
    with pytest.raises(ValueError, match="need a predicate or a canonical shape"):
        sq.restricted(None)


def test_same_lattice_detects_mismatch():
    a = build_interval(0.0, 1.0, 0.25)
    b = build_interval(0.0, 1.0, 0.125)
    assert not a.same_lattice(b)


def test_grid_function_validation():
    dom = build_interval(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="contains non-finite values"):
        GridFunction(dom, np.full(dom.lattice_shape, np.nan))
    bad = np.ones(dom.lattice_shape)  # nonzero at outside nodes
    with pytest.raises(ValueError, match="nonzero outside the region"):
        GridFunction(dom, bad)
    with pytest.raises(ValueError):
        GridFunction(dom, np.zeros((2, 2)))


def test_grid_function_from_inside():
    dom = build_interval(0.0, 1.0, 0.25)
    u = GridFunction.from_inside(dom, np.array([1.0, -2.0, 3.0]))
    assert u.max_abs() == 3.0
    np.testing.assert_allclose(u.inside_values(), [1.0, -2.0, 3.0])
    assert np.all(u.flat()[~dom.inside_flat] == 0.0)


def test_node_set_validation():
    dom = build_interval(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="node set is empty"):
        NodeSet(dom, np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="out of lattice range"):
        NodeSet(dom, np.array([dom.n_nodes]))
    ns = NodeSet(dom, np.array([3, 1, 3]))
    assert len(ns) == 2
    np.testing.assert_array_equal(ns.indices, [1, 3])


@pytest.mark.parametrize("dom", [
    build_interval(0.0, 1.0, 1 / 8),
    build_disk((0.3, -0.2), 0.7, 1 / 8, margin=1.0),
    build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.5),
], ids=["interval", "disk", "rectangle"])
def test_box_distances_match_brute_force(dom):
    pts = dom.node_coords
    lo, hi = dom.box_lo, dom.box_hi
    near, far = dom.box_distances(pts)
    faces = [pts[:, k] - lo[k] for k in range(dom.dim)]
    faces += [hi[k] - pts[:, k] for k in range(dom.dim)]
    np.testing.assert_array_equal(near, np.min(faces, axis=0))
    if dom.dim == 1:
        want = np.maximum(pts[:, 0] - lo[0], hi[0] - pts[:, 0])
    else:
        corners = [(cx, cy) for cx in (lo[0], hi[0]) for cy in (lo[1], hi[1])]
        want = np.max([np.sqrt(((pts - np.array(c)) ** 2).sum(axis=1))
                       for c in corners], axis=0)
    np.testing.assert_array_equal(far, want)


# non-dyadic h and centre: coordinates and their differences round, so any
# other distance formula (say |a|^2 + |b|^2 - 2 a.b) would show
_DISTANCE_DOMAINS = pytest.mark.parametrize("dom", [
    build_interval(0.1, 1.3, 0.1),
    build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0),
    build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.5),
], ids=["interval", "disk", "rectangle"])


@_DISTANCE_DOMAINS
def test_distances_equal_cdist_bitwise(dom):
    a, b = dom.inside_coords, dom.node_coords
    np.testing.assert_array_equal(distances(a, b), cdist(a, b))
    np.testing.assert_array_equal(squared_distances(a, b), cdist(a, b, "sqeuclidean"))
    np.testing.assert_array_equal(distances(b[:1], b), cdist(b[:1], b))


@_DISTANCE_DOMAINS
def test_distance_to_set_equals_kdtree_query(dom):
    ridge = high_ridge(distance_to_complement(dom))
    if isinstance(dom.shape_tag, Rectangle):  # the ridge is a segment of nodes
        assert len(ridge) == 5
    for nodes in (NodeSet(dom, ridge.indices[:1]), ridge):
        want, _ = cKDTree(nodes.coords()).query(dom.node_coords)
        np.testing.assert_array_equal(distance_to_set(dom, nodes).flat(), want)


def test_nearest_node_validation():
    dom = build_interval(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="point must have 1 coordinates"):
        nearest_node(dom, (0.5, 0.5))


@pytest.mark.parametrize("a,b,h,margin,msg", [
    (1.0, 1.0, 0.1, 2.0, "degenerate interval"),
    (0.0, 1.0, -0.1, 2.0, "spacing h must be positive"),
    (0.0, 1.0, 0.1, 0.5, "margin must be >= 1"),
])
def test_builder_validation(a, b, h, margin, msg):
    with pytest.raises(ValueError, match=msg):
        build_interval(a, b, h, margin)


def test_domain_needs_inside_nodes():
    with pytest.raises(ValueError, match="no inside nodes"):
        build_interval(0.0, 0.1, 0.5)
    with pytest.raises(ValueError, match="radius must be positive"):
        build_disk((0.0, 0.0), -1.0, 0.25)


def test_canonical_shapes():
    assert Interval(0.0, 2.0).diameter == 2.0
    assert Disk(0.0, 0.0, 1.0).diameter == 2.0
    assert Rectangle(0.0, 0.0, 4.0, 2.0).diameter == pytest.approx(np.sqrt(20.0))
    pts = np.array([[0.5, 0.5], [3.0, 3.0]])
    np.testing.assert_allclose(Rectangle(0.0, 0.0, 1.0, 1.0).distance(pts), [0.5, 0.0])


def triangle_mask(h):
    """A free-form mask with no lattice reflection: x + 2y < 1.6 in the unit square."""
    return build_mask2d(((0.0, 0.0), (1.0, 1.0)), h,
                        lambda pts: pts[:, 0] + 2.0 * pts[:, 1] < 1.6, margin=1.0)


def half_square(h):
    square = build_rectangle((0.0, 0.0), (1.0, 1.0), h)
    return square.restricted(None, shape_tag=Rectangle(0.0, 0.0, 0.5, 1.0))


@pytest.mark.parametrize("dom, order", [
    (build_interval(0.0, 2.0, 1 / 100), 2),
    (build_disk((0.0, 0.0), 1.0, 1 / 16), 8),
    (build_rectangle((0.0, 0.0), (1.0, 1.0), 1 / 12), 8),
    (half_square(1 / 12), 2),
    (build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.0), 4),
    (triangle_mask(1 / 8), 1),
    (build_interval(0.0, 1.0, 0.3), 1),
], ids=["interval", "disk", "unit_square", "half_square", "rectangle", "free_form",
        "lopsided_interval"])
def test_lattice_symmetries_group_orders(dom, order):
    """Each element is a permutation of the inside nodes that maps them to inside
    nodes at the same distances from every other image; the identity comes
    first and the set is closed under composition."""
    perms = lattice_symmetries(dom)
    m = dom.inside_count
    assert len(perms) == order
    np.testing.assert_array_equal(perms[0], np.arange(m))
    keys = {g.tobytes() for g in perms}
    assert len(keys) == order
    x = dom.inside_coords
    d = distances(x, x)
    for g in perms:
        np.testing.assert_array_equal(np.sort(g), np.arange(m))
        np.testing.assert_allclose(d[np.ix_(g, g)], d, rtol=1e-13, atol=0.0)
        for f in perms:
            assert g[f].tobytes() in keys
