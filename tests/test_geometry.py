import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from test_energy import annulus_mask, offset_distances

from fracteig import geometry, infinity
from fracteig.geometry import (
    Disk,
    GridFunction,
    Interval,
    NodeSet,
    Rectangle,
    _coords,
    _offset_distances,
    _orbits,
    _reflections,
    build_disk,
    build_interval,
    build_mask2d,
    build_rectangle,
    distance_to_complement,
    distance_to_set,
    lattice_symmetries,
    high_ridge,
    inscribed_radius,
    nearest_node,
)
from fracteig.infinity import representation


_SQUARE = ((-1.0, -1.0), (1.0, 1.0))


def _in_unit_disk(pts):
    return (pts ** 2).sum(axis=1) < 1.0


def _unit_disk_mask(h):
    return build_mask2d(_SQUARE, h, _in_unit_disk, anchor=(0.0, 0.0))


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
    """Free-form masks: the outside-ring distance is the least offset
    distance h sqrt(sum a_k^2) to any outside node, bit for bit, found by a
    direct scan of every outside node, on dyadic spacings and at h = 0.1;
    and it equals scipy's Euclidean distance transform, bitwise on dyadic
    spacings (coordinates are exact) and to rounding at h = 0.1."""
    delta = distance_to_complement(dom)
    edt = ndimage.distance_transform_edt(dom.inside, sampling=dom.h)
    np.testing.assert_allclose(delta.values, edt, rtol=rtol, atol=0.0)
    outside = np.flatnonzero(~dom.inside_flat)
    for k in dom.inside_indices:
        assert delta.flat()[k] == offset_distances(dom, [k], outside).min()
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


def test_restricted_takes_a_predicate_or_a_shape_tag_not_both():
    """Each alone keeps its own nodes; together one would be dropped
    without a word, so the pair is refused."""
    dom = build_interval(0.0, 2.0, 1 / 8)
    assert dom.restricted(lambda c: c[:, 0] < 0.5).inside_count == 3
    assert dom.restricted(None, shape_tag=Interval(0.0, 1.5)).inside_count == 11
    with pytest.raises(ValueError, match="a predicate or a shape_tag, not both"):
        dom.restricted(lambda c: c[:, 0] < 0.5, shape_tag=Interval(0.0, 1.5))


def test_restricted_refuses_a_shape_tag_beyond_the_inside_nodes():
    """(0.5, 2) on the inside nodes of (0, 1) keeps the nodes of (0.5, 1)
    but would read their distance to the complement from the wrong shape
    (an inscribed radius of 0.375 for 0.25), so it is refused."""
    small = build_interval(0.0, 2.0, 1 / 8).restricted(None, shape_tag=Interval(0.0, 1.0))
    with pytest.raises(ValueError, match=r"shape_tag Interval\(a=0.5, b=2.0\) has lattice "
                                         "nodes outside the domain"):
        small.restricted(None, shape_tag=Interval(0.5, 2.0))
    sub = small.restricted(None, shape_tag=Interval(0.5, 1.0))
    assert sub.inside_count == 3 and sub.inside_distance.max() == 0.25


def test_same_lattice_detects_mismatch():
    a = build_interval(0.0, 1.0, 0.25)
    b = build_interval(0.0, 1.0, 0.125)
    assert not a.same_lattice(b)
    assert a.same_lattice(a)
    assert a.same_lattice(build_interval(0.0, 1.0, 0.25))


@pytest.mark.parametrize("parent, shape, predicate", [
    (build_interval(0.1, 2.3, 0.1, margin=1.0), Interval(0.5, 1.7), None),
    (build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0), Disk(0.2, -0.6, 0.55), None),
    (build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.5),
     Rectangle(0.0, 0.0, 0.5, 0.5), None),
    (build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0), None,
     lambda pts: pts[:, 0] + 2.0 * pts[:, 1] < -0.9),
], ids=["interval", "disk", "rectangle", "predicate"])
def test_restricted_equals_the_point_form_mask(parent, shape, predicate):
    """A sub-domain's mask, tested on the axes, is the parent's mask and the
    shape's (or predicate's) test of every node's coordinates, bit for bit."""
    sub = parent.restricted(predicate, shape_tag=shape)
    coords = parent.node_coords
    if shape is None:
        want = parent.inside_flat & predicate(coords)
    else:
        want = parent.inside_flat & shape.contains(coords, geometry._BOUNDARY_GUARD * parent.h)
    assert 0 < sub.inside_count < parent.inside_count
    np.testing.assert_array_equal(sub.inside_flat, want)
    assert sub.same_lattice(parent) and sub.shape_tag is shape


def test_restricted_with_a_predicate_passes_the_memory_check(monkeypatch):
    """A predicate sees every node's coordinates, so it is charged as a
    predicate lattice build; a canonical sub-shape tests the axes."""
    sq = build_rectangle((0.0, 0.0), (1.0, 1.0), 1 / 8)
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 32 * sq.n_nodes)
    with pytest.raises(ValueError, match=f"lattice arrays for {sq.n_nodes} nodes need"):
        sq.restricted(lambda c: c[:, 0] < 0.5)
    assert sq.restricted(None, shape_tag=Rectangle(0.0, 0.0, 0.5, 1.0)).inside_count == 21


def test_restricted_and_nearest_node_read_the_axes_alone(monkeypatch):
    """Neither a canonical sub-shape nor a nearest-node query builds the whole
    box's coordinates, cached or not."""
    calls = []
    real = geometry._node_coords
    monkeypatch.setattr(geometry, "_node_coords", lambda axes: calls.append(1) or real(axes))
    sq = build_rectangle((0.0, 0.0), (1.0, 1.0), 1 / 8)
    half = sq.restricted(None, shape_tag=Rectangle(0.0, 0.0, 0.5, 1.0))
    assert nearest_node(half, (0.3, 0.7)) == nearest_node(sq, (0.3, 0.7))
    assert calls == []
    assert "node_coords" not in sq.__dict__ and "node_coords" not in half.__dict__


def test_grid_function_validation():
    dom = build_interval(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="contains non-finite values"):
        GridFunction(dom, np.full(dom.lattice_shape, np.nan))
    bad = np.ones(dom.lattice_shape)  # nonzero at outside nodes
    with pytest.raises(ValueError, match="nonzero outside the region"):
        GridFunction(dom, bad)
    with pytest.raises(ValueError):
        GridFunction(dom, np.zeros((2, 2)))


def test_zero_extension_check_counts_instead_of_copying(traced_peak):
    """On the disk at h = 1/16, margin 2 (46,225 box nodes, 793 inside), the
    check counts the nonzeros over the box and at the inside nodes, so it
    allocates well under one box-sized float array beyond the values (the
    finiteness test's byte mask and the inside values).  -0.0 outside is
    zero; one nonzero outside node, or a NaN, is rejected."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 16)
    values = np.zeros(dom.n_nodes)
    values[dom.inside_indices] = 1.0
    values = values.reshape(dom.lattice_shape)
    assert traced_peak(GridFunction, dom, values) < 8 * dom.n_nodes
    outside = np.flatnonzero(~dom.inside_flat)
    signed_zero = values.copy()
    signed_zero.ravel()[outside] = -0.0
    GridFunction(dom, signed_zero)
    one = values.copy()
    one.ravel()[outside[len(outside) // 2]] = 1e-300
    with pytest.raises(ValueError, match="^zero-extended grid function is nonzero outside "
                                         "the region$"):
        GridFunction(dom, one)
    GridFunction(dom, one, zero_extended=False)
    for at in (outside[0], dom.inside_indices[0]):
        nan = values.copy()
        nan.ravel()[at] = np.nan
        with pytest.raises(ValueError, match="contains non-finite values"):
            GridFunction(dom, nan)


def test_grid_function_from_inside():
    dom = build_interval(0.0, 1.0, 0.25)
    u = GridFunction.from_inside(dom, np.array([1.0, -2.0, 3.0]))
    assert u.max_abs() == 3.0
    np.testing.assert_allclose(u.inside_values(), [1.0, -2.0, 3.0])
    assert np.all(u.flat()[~dom.inside_flat] == 0.0)


def _spread(dom, inside_values):
    """The array over the box a function with these inside values holds:
    0.0 at every other node, as an int64 view, so -0.0 differs from 0.0."""
    full = np.zeros(dom.n_nodes)
    full[dom.inside_indices] = inside_values
    return full.view(np.int64)


@pytest.mark.parametrize("dom", [
    build_interval(0.0, 2.0, 0.1),
    build_disk((0.25, -0.5), 1.0, 1 / 8, 1.0),
], ids=["interval", "disk"])
def test_a_function_held_inside_reads_what_its_box_array_holds(dom):
    """A function built from inside values holds no array over the box
    until `values` is read; `at`, `inside_values`, `max_value` and
    `max_abs` read what that array then holds, bit for bit (a -0.0 inside
    stays -0.0).  The function keeps its own copy of the inside values."""
    rng = np.random.default_rng(5)
    given = rng.normal(size=dom.inside_count)
    given[::5] = -0.0
    u = GridFunction.from_inside(dom, given)
    want = _spread(dom, given)
    nodes = np.concatenate([rng.permutation(dom.n_nodes)[:500], dom.inside_and_ring])
    given[:] = 7.0  # the caller's array may change
    assert np.array_equal(u.at(nodes).view(np.int64), want[nodes])
    assert np.array_equal(u.inside_values().view(np.int64), want[dom.inside_indices])
    u.inside_values()[:] = 7.0  # a copy
    stored = want.view(float)
    for lazy, box in ((u.max_value(), stored.max()), (u.max_abs(), np.abs(stored).max())):
        assert np.float64(lazy).view(np.int64) == np.float64(box).view(np.int64)
    assert u._values is None
    assert np.array_equal(u.flat().view(np.int64), want)
    assert u.values.shape == dom.lattice_shape
    assert np.array_equal(u.at(nodes).view(np.int64), want[nodes])
    # below zero inside, the outside nodes hold the largest value
    assert GridFunction.from_inside(dom, -np.ones(dom.inside_count)).max_value() == 0.0
    with pytest.raises(ValueError, match="contains non-finite values"):
        GridFunction.from_inside(dom, np.full(dom.inside_count, np.inf))


def test_node_set_validation():
    """Empty and out-of-range sets are refused, and so are indices that are
    not integers, naming the dtype: 12.7 is not truncated to node 12, nor a
    boolean mask read as the indices 0 and 1.  Unsigned integers are
    indices."""
    dom = build_interval(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="node set is empty"):
        NodeSet(dom, np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="node set is empty"):
        NodeSet(dom, [])
    with pytest.raises(ValueError, match="out of lattice range"):
        NodeSet(dom, np.array([dom.n_nodes]))
    for indices, dtype in (([12.7], "float64"), (np.array([True, False]), "bool"),
                           (np.array([1.0, 3.0]), "float64"), (["1"], "<U1")):
        with pytest.raises(ValueError, match=f"must be integers, got dtype {dtype}"):
            NodeSet(dom, indices)
    ns = NodeSet(dom, np.array([3, 1, 3]))
    assert len(ns) == 2
    np.testing.assert_array_equal(ns.indices, [1, 3])
    np.testing.assert_array_equal(NodeSet(dom, np.array([3, 1], dtype=np.uint8)).indices,
                                  [1, 3])


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
def test_distance_to_set_equals_the_offset_reference(dom):
    """The distance to a node set is the least offset distance h sqrt(sum
    a_k^2) to its nodes, bit for bit, on lattices whose coordinates round;
    a KD-tree over the rounded coordinates agrees to 2 eps times the largest
    coordinate magnitude."""
    ridge = high_ridge(distance_to_complement(dom))
    if isinstance(dom.shape_tag, Rectangle):  # the ridge is a segment of nodes
        assert len(ridge) == 5
    scale = np.abs(dom.node_coords).max()
    for nodes in (NodeSet(dom, ridge.indices[:1]), ridge):
        got = distance_to_set(dom, nodes).flat()
        want = offset_distances(dom, np.arange(dom.n_nodes), nodes.indices).min(axis=1)
        np.testing.assert_array_equal(got, want)
        near, _ = cKDTree(nodes.coords()).query(dom.node_coords)
        np.testing.assert_allclose(got, near, rtol=0.0, atol=2 * np.finfo(float).eps * scale)


def test_distance_to_set_larger_than_memory_is_a_value_error(monkeypatch):
    """Its offset table spans the whole box, so it passes the memory check
    first; the representation reads rho at the inside nodes alone, and
    builds no such table."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 8)
    delta = distance_to_complement(dom)
    ridge = high_ridge(delta)
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 1 << 18)
    with pytest.raises(ValueError, match=f"distance_to_set arrays for {dom.n_nodes} box "
                                         "nodes need .* MiB, more than the 256 KiB"):
        distance_to_set(dom, ridge)
    assert representation(dom, ridge, 0.5).flat()[ridge.indices[0]] == 1.0


_NEAREST = {
    "interval": build_interval(0.1, 1.3, 0.1),
    "disk": build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0),
    "dyadic_interval": build_interval(0.0, 2.0, 1 / 8, margin=1.0),
    "dyadic_disk": build_disk((0.0, 0.0), 1.0, 1 / 16, margin=1.0),
    "dyadic_rectangle": build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.5),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_NEAREST)), at=st.tuples(st.floats(-0.2, 1.2),
                                                            st.floats(-0.2, 1.2)),
       steps=st.tuples(st.integers(0, 10**4), st.integers(0, 10**4)),
       midpoint=st.tuples(st.booleans(), st.booleans()))
def test_nearest_node_is_a_brute_force_argmin(name, at, steps, midpoint):
    """The node nearest along each axis minimizes the squared distance over
    every node.  Points lie in the box widened by 20% on every side, or on
    the lattice with any coordinates moved half a step, where two or four
    nodes tie; on a dyadic lattice the tie is exact, and the lower index wins,
    as in an argmin over flat order.  Elsewhere the rounded sum of the axes'
    squares can tie nodes whose squares differ, so only the minimum is
    compared."""
    dom = _NEAREST[name]
    lo, hi, dim = dom.box_lo, dom.box_hi, dom.dim
    d2_of = lambda p: ((dom.node_coords - p) ** 2).sum(axis=1)
    p = lo + (hi - lo) * np.array(at[:dim])
    d2 = d2_of(p)
    assert d2[nearest_node(dom, p)] == d2.min()
    p = np.array([ax[k % (ax.size - 1)] + 0.5 * dom.h * m
                  for ax, k, m in zip(dom.axes, steps, midpoint)])
    d2 = d2_of(p)
    assert d2[nearest_node(dom, p)] == d2.min()
    if name.startswith("dyadic"):
        assert nearest_node(dom, p) == np.argmin(d2)


def test_nearest_node_validation():
    dom = build_interval(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="point must have 1 coordinates"):
        nearest_node(dom, (0.5, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_node_rejects_a_point_that_is_not_finite(bad):
    """A NaN or infinite coordinate names no node, on the line or in the plane."""
    line = build_interval(0.0, 1.0, 0.25)
    disk = build_disk((0.0, 0.0), 1.0, 0.25)
    for dom, point in ((line, bad), (disk, (bad, 0.0)), (disk, (0.0, bad))):
        with pytest.raises(ValueError, match="point must be finite"):
            nearest_node(dom, point)


@pytest.mark.parametrize("a,b,h,margin,msg", [
    (1.0, 1.0, 0.1, 2.0, "degenerate interval"),
    (0.0, 1.0, -0.1, 2.0, "spacing h must be positive"),
    (0.0, 1.0, 0.1, 0.5, "margin must be >= 1"),
    (0.0, np.inf, 0.1, 2.0, "is not finite"),
    (0.0, 1.0, 0.1, np.inf, "is not finite"),
    (0.0, 1.0, 1e-320, 2.0, "is not finite"),  # 5e320 nodes overflow double range
    (0.0, 1.0, 1e-300, 2.0, "lattice arrays for [0-9]{301} nodes need .* PiB, more than"),
])
def test_builder_validation(a, b, h, margin, msg):
    with pytest.raises(ValueError, match=msg):
        build_interval(a, b, h, margin)


@pytest.mark.parametrize("build", [
    lambda: build_disk((0.0, 0.0), np.inf, 0.1),
    lambda: build_rectangle((0.0, 0.0), (1.0, 1.0), 1e-200),  # 1e402 nodes in all
    lambda: build_mask2d(((0.0, 0.0), (1.0, 1.0)), 0.1, lambda pts: pts[:, 0] < 0.5,
                         margin=np.inf),
], ids=["radius", "spacing", "margin"])
def test_non_finite_2d_lattice_is_a_value_error(build):
    with pytest.raises(ValueError, match="is not finite"):
        build()


@pytest.mark.parametrize("vector, msg", [
    ((0.0, 0.0, 5.0), "must have 2 coordinates"),
    ((0.0,), "must have 2 coordinates"),
    ((0.0, np.inf), "must be finite"),
], ids=["three", "one", "inf"])
@pytest.mark.parametrize("field, build", [
    ("center", lambda v: build_disk(v, 1.0, 0.25)),
    ("lo", lambda v: build_rectangle(v, _SQUARE[1], 0.25)),
    ("hi", lambda v: build_rectangle(_SQUARE[0], v, 0.25)),
    ("lo", lambda v: build_mask2d((v, _SQUARE[1]), 0.25, _in_unit_disk)),
    ("hi", lambda v: build_mask2d((_SQUARE[0], v), 0.25, _in_unit_disk)),
    ("anchor", lambda v: build_mask2d(_SQUARE, 0.25, _in_unit_disk, anchor=v)),
], ids=["disk-center", "rectangle-lo", "rectangle-hi", "mask-lo", "mask-hi", "mask-anchor"])
def test_shape_vectors_take_two_finite_coordinates(field, build, vector, msg):
    """A third entry is not dropped and a single one is no IndexError."""
    with pytest.raises(ValueError, match=f"^{field} {msg}"):
        build(vector)


def test_domain_needs_inside_nodes():
    with pytest.raises(ValueError, match="no inside nodes"):
        build_interval(0.0, 0.1, 0.5)
    with pytest.raises(ValueError, match="radius must be positive"):
        build_disk((0.0, 0.0), -1.0, 0.25)


def test_canonical_shapes():
    pts = np.array([[0.5, 0.5], [3.0, 3.0]])
    np.testing.assert_allclose(Rectangle(0.0, 0.0, 1.0, 1.0).distance(pts), [0.5, 0.0])


def triangle_mask(h):
    """A free-form mask with no lattice reflection: x + 2y < 1.6 in the unit square."""
    return build_mask2d(((0.0, 0.0), (1.0, 1.0)), h,
                        lambda pts: pts[:, 0] + 2.0 * pts[:, 1] < 1.6, margin=1.0)


def half_square(h):
    square = build_rectangle((0.0, 0.0), (1.0, 1.0), h)
    return square.restricted(None, shape_tag=Rectangle(0.0, 0.0, 0.5, 1.0))


GROUP_ORDERS = pytest.mark.parametrize("dom, order", [
    (build_interval(0.0, 2.0, 1 / 100), 2),
    (build_disk((0.0, 0.0), 1.0, 1 / 16), 8),
    (build_rectangle((0.0, 0.0), (1.0, 1.0), 1 / 12), 8),
    (half_square(1 / 12), 2),
    (build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8, margin=1.0), 4),
    (triangle_mask(1 / 8), 1),
    (build_interval(0.0, 1.0, 0.3), 1),
], ids=["interval", "disk", "unit_square", "half_square", "rectangle", "free_form",
        "lopsided_interval"])


@GROUP_ORDERS
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
    d = cdist(x, x)
    for g in perms:
        np.testing.assert_array_equal(np.sort(g), np.arange(m))
        np.testing.assert_allclose(d[np.ix_(g, g)], d, rtol=1e-13, atol=0.0)
        for f in perms:
            assert g[f].tobytes() in keys


def test_lattice_symmetries_list_the_disk_group_in_breadth_first_order():
    """The order of the elements sets the order of the group sum in the
    solver's tables, so their bits: identity, flip of axis 0, flip of axis 1,
    swap, then the products g s of the listed g with the generators s, in
    breadth-first order.  Built here from flat index arithmetic on the
    square lattice of the disk."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 16)
    n = dom.lattice_shape[0]
    assert dom.lattice_shape == (n, n)
    inside = dom.inside_indices
    i, j = np.divmod(inside, n)
    images = [(i, j), (n - 1 - i, j), (i, n - 1 - j), (j, i),
              (n - 1 - i, n - 1 - j), (n - 1 - j, i), (j, n - 1 - i), (n - 1 - j, n - 1 - i)]
    want = [np.searchsorted(inside, a * n + b) for a, b in images]
    got = lattice_symmetries(dom)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@GROUP_ORDERS
def test_orbits_equal_the_sorted_reference(dom, order):
    """`_orbits` numbers the orbits as np.unique of the orbit minima does,
    and each position i is the image of its orbit's smallest position under
    the element it names, the first that maps it there: the identity at the
    smallest positions."""
    group = lattice_symmetries(dom)
    reps, labels, elem = _orbits(group)
    want_reps, want_labels, want_sizes = np.unique(np.minimum.reduce(group),
                                                   return_inverse=True, return_counts=True)
    np.testing.assert_array_equal(reps, want_reps)
    np.testing.assert_array_equal(labels, want_labels)
    np.testing.assert_array_equal(np.bincount(labels), want_sizes)
    m = dom.inside_count
    np.testing.assert_array_equal(np.stack(group)[elem, reps[labels]], np.arange(m))
    np.testing.assert_array_equal(
        elem, np.argmax(np.stack(group)[:, reps[labels]] == np.arange(m), axis=0))
    assert not elem[reps].any()


_REFLECTION_LATTICES = pytest.mark.parametrize("dom, order", [
    (build_interval(0.0, 2.0, 1 / 128), 2),
    (build_interval(0.0, 2.0, 1 / 100), 2),
    (build_disk((0.0, 0.0), 1.0, 1 / 16, 1.0), 8),
    (build_disk((0.3, -0.7), 1.0, 0.05), 8),
    (build_rectangle((0.0, 0.0), (1.0, 1.0), 1 / 12), 8),
    (build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 32), 4),
    (triangle_mask(1 / 8), 1),
], ids=["dyadic_interval", "interval_h001", "disk", "offcentre_disk", "square_h12",
        "rectangle", "free_form"])


@_REFLECTION_LATTICES
def test_reflections_keep_every_offset_distance_bitwise(dom, order):
    """The box reflections restricted to the inside nodes are the
    symmetries, and every one of them keeps every offset distance between
    inside nodes bit for bit, whether or not the node coordinates mirror
    exactly (h = 1/100 and 1/12 and the disk centred at (0.3, -0.7) do not)."""
    nodes = np.arange(dom.n_nodes)
    group = _reflections(dom, nodes)
    assert len(group) == order
    np.testing.assert_array_equal(group[0], nodes)
    pos = np.full(dom.n_nodes, -1)
    pos[dom.inside_indices] = np.arange(dom.inside_count)
    for g, perm in zip(group, lattice_symmetries(dom)):
        np.testing.assert_array_equal(pos[g[dom.inside_indices]], perm)
    keys = {e.tobytes() for e in group}
    inside = dom.inside_indices
    table, rows, cols = _offset_distances(dom, inside, inside)
    d = table[np.subtract.outer(rows, cols)]
    for g in group:
        assert all(g[f].tobytes() in keys for f in group)
        np.testing.assert_array_equal(np.sort(g), nodes)
        table, rows, cols = _offset_distances(dom, g[inside], g[inside])
        np.testing.assert_array_equal(table[np.subtract.outer(rows, cols)].view(np.int64),
                                      d.view(np.int64))


def _breadth_first_reflections(dom, nodes):
    """The group of `_reflections` as first built: each candidate tested by
    comparing the whole moved mask with the mask, and the products kept
    when their bytes are new."""
    shape = dom.lattice_shape
    at = np.unravel_index(nodes, shape)
    moves = [(np.flip(dom.inside, ax), at[:ax] + (shape[ax] - 1 - at[ax],) + at[ax + 1:])
             for ax in range(dom.dim)]
    if dom.dim == 2 and shape[0] == shape[1]:
        moves.append((dom.inside.T, at[::-1]))
    gens = [np.searchsorted(nodes, np.ravel_multi_index(image, shape))
            for mask, image in moves if np.array_equal(mask, dom.inside)]
    group = [np.arange(nodes.size)]
    seen = {group[0].tobytes()}
    for g in group:
        for s in gens:
            if g[s].tobytes() not in seen:
                seen.add(g[s].tobytes())
                group.append(g[s])
    return group


@_REFLECTION_LATTICES
def test_reflections_equal_the_whole_mask_breadth_first_group(dom, order):
    """Testing the mask at the inside nodes' images and comparing each new
    product with the kept elements give the group that whole-mask
    comparisons and a set of byte keys gave: element for element and in
    order, as permutations of the inside nodes (`lattice_symmetries`), of
    the inside nodes and their ring (the scan's candidates) and of the box."""
    for nodes in (dom.inside_indices, np.flatnonzero(geometry._dilate(dom.inside)),
                  np.arange(dom.n_nodes)):
        got = _reflections(dom, nodes)
        want = _breadth_first_reflections(dom, nodes)
        assert len(got) == len(want) == order
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


_OFFSET_LATTICES = pytest.mark.parametrize("dom, dyadic", [
    (build_interval(0.0, 2.0, 1 / 128), True),
    (build_interval(0.0, 2.0, 1 / 100), False),
    (build_disk((0.0, 0.0), 1.0, 1 / 8, 1.0), True),
    (build_disk((0.3, -0.7), 1.0, 0.1, 1.0), False),
    (build_rectangle((0.0, 0.0), (1.1, 0.7), 0.1, margin=1.0), False),
    (triangle_mask(1 / 8), True),
], ids=["dyadic_interval", "interval_h001", "disk", "offcentre_disk", "rectangle",
        "free_form"])


@_OFFSET_LATTICES
def test_offset_distances_are_the_coordinate_distances_up_to_rounding(dom, dyadic):
    """The table read at row key minus column key is h sqrt(sum a_k^2) for
    the index offset a, bit for bit, on two node sets in no order (the
    inside nodes reversed against every box node).  On dyadic lattices whose
    nodes are exact multiples of h it is the coordinate distance bit for
    bit.  Elsewhere the coordinates are rounded, and the two differ by at
    most 2 eps times the largest coordinate magnitude X (measured: 0.67,
    1.74 and 0.80 eps X on the interval, the disk and the rectangle; up to
    96 eps relative, at the interval's nearest pairs).  The table has
    fewer than 2^dim entries per node of the sets' bounding box, and its
    middle entry is the zero offset."""
    rows_at, cols_at = dom.inside_indices[::-1], np.arange(dom.n_nodes)
    table, rows, cols = _offset_distances(dom, rows_at, cols_at)
    got = table[np.subtract.outer(rows, cols)]
    np.testing.assert_array_equal(got, offset_distances(dom, rows_at, cols_at))
    assert table[table.size // 2] == 0.0
    assert table.size < 2 ** dom.dim * dom.n_nodes
    want = cdist(dom.node_coords[rows_at], dom.node_coords[cols_at])
    if dyadic:
        np.testing.assert_array_equal(got, want)
    else:
        assert not np.array_equal(got, want)
        scale = np.abs(dom.node_coords).max()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2 * np.finfo(float).eps * scale)


# the (power, zero) pairs the callers pass: the plain distance (cone, the
# two-ball radius, nearest distances), the holder's kernel at alpha = 1/2 and
# 3/4, apply_Lp's at alpha p = 6, and the scan's quotient denominators
_POWERS = [(1.0, 0.0), (-0.5, 0.0), (-0.75, 0.0), (-6.0, 0.0), (0.25, np.nan),
           (0.5, np.nan), (1.0, np.nan)]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@_OFFSET_LATTICES
def test_offset_distances_raise_the_plain_table_and_set_the_zero_offset(dom, dyadic):
    """Every (power, zero) pair in use gives the plain table raised
    elementwise, bit for bit, with `zero` (bit for bit) at the zero offset
    and the plain keys.  The layout (`geometry._layout`) is each node's
    index along every axis from the low corner of the nodes' bounding box,
    rows first, and the box's extents, which size the table."""
    rows_at, cols_at = dom.inside_indices[::-1], np.arange(dom.n_nodes)
    plain, rows, cols = _offset_distances(dom, rows_at, cols_at)
    at, ext = geometry._layout(dom, rows_at, cols_at)
    middle = int(np.flatnonzero(plain == 0.0)[0])
    others = np.delete(plain, middle)
    for power, zero in _POWERS:
        table, r, c = _offset_distances(dom, rows_at, cols_at, power, zero)
        np.testing.assert_array_equal(r, rows)
        np.testing.assert_array_equal(c, cols)
        np.testing.assert_array_equal(_bits(np.delete(table, middle)), _bits(others ** power))
        assert _bits(table[middle]) == _bits(zero)
    nodes = np.unravel_index(np.concatenate([rows_at, cols_at]), dom.lattice_shape)
    for a, e, k in zip(at, ext, nodes):
        np.testing.assert_array_equal(a, k - k.min())
        assert e == k.max() - k.min()
    assert plain.size == np.prod([2 * e + 1 for e in ext])


@_OFFSET_LATTICES
def test_gather_into_a_larger_workspace_equals_fancy_indexing(dom, dyadic):
    """`geometry._gather` writes the block table[row_keys[i] - col_keys[j]]
    into the leading entries of a larger flat workspace, or the leading rows
    of a 2-D one, bit for bit what fancy indexing gives, and leaves the rest
    of the workspace alone.  Self pairs are among the columns."""
    rng = np.random.default_rng(1)
    rows_at = rng.permutation(dom.inside_indices)[:7]
    cols_at = np.concatenate([rows_at[:3], rng.permutation(dom.n_nodes)[:47]])
    for power, zero in _POWERS:
        table, rows, cols = _offset_distances(dom, rows_at, cols_at, power, zero)
        want = table[np.subtract.outer(rows, cols)]
        for work in (np.full(1000, -1.0), np.full((10, cols.size), -1.0)):
            got = geometry._gather(table, rows, cols, work)
            assert got.shape == want.shape and np.shares_memory(got, work)
            np.testing.assert_array_equal(_bits(got), _bits(want))
            assert (work.ravel()[want.size:] == -1.0).all()


def _brute_tile_envelopes(dom, table, rows, cols, vals, side):
    """The patches of the columns, their largest and smallest value, and
    the least and greatest entry of an `_offset_distances` table between
    each row and each patch, by a loop over every (row, tile) pair.  Tiles
    hold side nodes per axis from the low corner of the nodes' bounding
    box; an entry is read at each offset from the row to a node of the tile
    that the table holds, the zero offset left out."""
    at = np.stack(np.unravel_index(np.concatenate([rows, cols]), dom.lattice_shape), axis=1)
    at -= at.min(axis=0)
    ext = at.max(axis=0)
    box = table.reshape(2 * ext + 1)
    row_at, col_at = at[:len(rows)], at[len(rows):]
    tiles = ext // side + 1
    tile_of = np.ravel_multi_index(tuple((col_at // side).T), tiles)
    occupied = np.unique(tile_of)
    ends = np.array([[vals[tile_of == t].max() for t in occupied],
                     [vals[tile_of == t].min() for t in occupied]])
    within = np.stack(np.meshgrid(*[np.arange(side)] * dom.dim, indexing="ij"), axis=-1)
    near = np.empty((len(rows), occupied.size))
    far = np.empty_like(near)
    for j, t in enumerate(occupied):
        nodes = np.array(np.unravel_index(t, tiles)) * side + within.reshape(-1, dom.dim)
        for i, r in enumerate(row_at):
            a = r - nodes
            a = a[(np.abs(a) <= ext).all(axis=1) & a.any(axis=1)]
            entries = box[tuple((a + ext).T)]
            near[i, j], far[i, j] = entries.min(), entries.max()
    return np.searchsorted(occupied, tile_of), ends, near, far


@_OFFSET_LATTICES
def test_tile_envelopes_are_the_extremes_of_the_table_over_each_tile(dom, dyadic):
    """`geometry._tile_envelopes` of the scan's alpha-powered tables (NaN at
    the zero offset) of rows against the scan's candidates, the inside nodes
    and their ring, with values drawn at random: the patch of each column,
    the patches' largest and smallest values, and the near and far
    envelopes read through the keys are bit for bit those of a brute-force
    loop over every (row, tile) pair (`_brute_tile_envelopes`).  The table
    grows with every |a_k|, so the envelopes are the least and greatest
    entries over the tile.  The rows are inside nodes, which lie in tiles of
    their own columns, and the box's corners, outside the columns' span."""
    rng = np.random.default_rng(3)
    cols = dom.inside_and_ring
    corners = np.ravel_multi_index(np.meshgrid(*[[0, n - 1] for n in dom.lattice_shape],
                                               indexing="ij"), dom.lattice_shape).ravel()
    inside = rng.choice(dom.inside_indices, min(12, dom.inside_count), replace=False)
    rows = np.concatenate([inside, corners])
    vals = rng.normal(size=cols.size)
    side = infinity._PATCH_SIDE[dom.dim]
    for alpha in (0.25, 0.5, 1.0):
        table = _offset_distances(dom, rows, cols, alpha, np.nan)[0]
        patch, ends, envelopes, row_keys, patch_keys = geometry._tile_envelopes(
            dom, table, rows, cols, vals, side)
        want_patch, want_ends, near, far = _brute_tile_envelopes(dom, table, rows, cols, vals,
                                                                 side)
        np.testing.assert_array_equal(patch, want_patch)
        np.testing.assert_array_equal(_bits(ends), _bits(want_ends))
        got = envelopes[:, np.subtract.outer(row_keys, patch_keys)]
        np.testing.assert_array_equal(_bits(got[0]), _bits(near))
        np.testing.assert_array_equal(_bits(got[1]), _bits(far))


# canonical lattices whose nodes are rounded off the dyadic grid, at spacing h
_CANONICAL = {
    "interval": lambda h: build_interval(0.1, 2.3, h, margin=1.0),
    "offcentre_disk": lambda h: build_disk((0.3, -0.7), 0.9, h, margin=1.0),
    "rectangle": lambda h: build_rectangle((0.1, -0.2), (1.3, 0.5), h, margin=1.0),
}


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def check_inside_node_geometry(dom):
    """What a canonical lattice computes without its whole-box coordinates
    equals what those coordinates give, bit for bit: the mask (tested on
    sparse axes) equals the shape's test of every node, coordinates gathered
    by index equal the rows of node_coords, and the complement distance,
    evaluated at the inside nodes alone, equals the shape's distance of
    every node, masked."""
    shape, coords = dom.shape_tag, dom.node_coords
    np.testing.assert_array_equal(
        dom.inside_flat, shape.contains(coords, geometry._BOUNDARY_GUARD * dom.h))
    for idx in (dom.inside_indices, np.arange(dom.n_nodes)[::-1], np.array([0])):
        assert_bitwise_equal(_coords(dom, idx), coords[idx])
    assert_bitwise_equal(dom.inside_coords, coords[dom.inside_indices])
    ridge = high_ridge(distance_to_complement(dom))
    assert_bitwise_equal(ridge.coords(), coords[ridge.indices])
    assert_bitwise_equal(distance_to_complement(dom).flat(),
                         np.where(dom.inside_flat, shape.distance(coords), 0.0))


@pytest.mark.parametrize("name, h", [
    ("interval", 0.01), ("offcentre_disk", 0.05), ("rectangle", 0.1),
])
def test_inside_node_geometry_equals_the_whole_box_coordinates(name, h):
    check_inside_node_geometry(_CANONICAL[name](h))


def test_inside_node_geometry_on_a_dyadic_disk():
    check_inside_node_geometry(build_disk((0.0, 0.0), 1.0, 1 / 16, margin=1.0))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_CANONICAL)), h=st.floats(0.04, 0.5))
def test_inside_node_geometry_over_h(name, h):
    check_inside_node_geometry(_CANONICAL[name](h))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(anchor=st.floats(-1e3, 1e3), h=st.floats(1e-6, 10.0),
       k0=st.integers(-10**6, 0), count=st.integers(1, 300))
def test_axis_built_in_place_equals_the_product_of_an_int_arange(anchor, h, k0, count):
    """The axis scaled and shifted in place is the float product of an int64
    arange plus the anchor, bit for bit."""
    k1 = k0 + count - 1
    assert_bitwise_equal(geometry._axis(anchor, k0, k1, h), anchor + h * np.arange(k0, k1 + 1))


def test_lattice_check_charges_a_canonical_build_less_than_a_predicate_mask(monkeypatch):
    """A canonical shape tests membership on sparse axes, so its build is
    charged 16 bytes per box node; a predicate sees every node's
    coordinates, and is charged 48.  The unit disk and its predicate mask
    share one lattice."""
    nodes = build_disk((0.0, 0.0), 1.0, 1 / 8).n_nodes
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 32 * nodes)
    assert build_disk((0.0, 0.0), 1.0, 1 / 8).n_nodes == nodes
    with pytest.raises(ValueError, match=f"lattice arrays for {nodes} nodes need"):
        _unit_disk_mask(1 / 8)


# ---------------------------------------------------------------------------
# the lattice mask, formed one band of lattice lines at a time
# ---------------------------------------------------------------------------


def whole_box_mask(axes, h, shape, predicate, within=None):
    """Reference for `geometry._membership`: the test of the whole box at
    once, a canonical shape's `_inside` on the sparse axes or the predicate
    of every node's coordinates, and'ed with the open rectangle `within`."""
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    guard = geometry._BOUNDARY_GUARD * h
    if shape is not None:
        return shape._inside(*grids, guard=guard)
    mask = predicate(geometry._node_coords(axes)).reshape(tuple(map(len, axes)))
    return mask if within is None else mask & within._inside(*grids, guard=guard)


def _triangle(pts):
    return pts[:, 0] + 2.0 * pts[:, 1] < 1.6


def _lower_right(pts):
    return pts[:, 0] + 2.0 * pts[:, 1] < -0.9


def _offcentre_disk():
    return build_disk((0.3, -0.7), 0.9, 0.1, margin=1.0)


# name: (build, reference mask from the built domain's axes, and for a
# predicate the lattice lines along axis 0 and nodes per line it sees).  The
# triangle's counts only in its tight box, the unit square: 31 lines of 31
# nodes at h = 1/32.  A sub-domain's sees the parent's 71 x 71 box.
_BANDED = {
    "centred_disk": (lambda: build_disk((0.0, 0.0), 1.0, 1 / 8, margin=1.0),
                     lambda d: whole_box_mask(d.axes, d.h, Disk(0.0, 0.0, 1.0), None), None),
    "offcentre_disk": (_offcentre_disk,
                       lambda d: whole_box_mask(d.axes, d.h, Disk(0.3, -0.7, 0.9), None), None),
    "rectangle": (lambda: build_rectangle((0.0, 0.0), (1.0, 0.5), 1 / 8),
                  lambda d: whole_box_mask(d.axes, d.h, Rectangle(0.0, 0.0, 1.0, 0.5), None),
                  None),
    "dyadic_interval": (lambda: build_interval(0.0, 2.0, 1 / 64),
                        lambda d: whole_box_mask(d.axes, d.h, Interval(0.0, 2.0), None), None),
    "decimal_interval": (lambda: build_interval(0.1, 2.3, 0.1),
                         lambda d: whole_box_mask(d.axes, d.h, Interval(0.1, 2.3), None), None),
    "triangle": (lambda: build_mask2d(((0.0, 0.0), (1.0, 1.0)), 1 / 32, _triangle, margin=1.0),
                 lambda d: whole_box_mask(d.axes, d.h, None, _triangle,
                                          Rectangle(0.0, 0.0, 1.0, 1.0)),
                 (31, 31)),
    "restricted_predicate": (
        lambda: _offcentre_disk().restricted(_lower_right),
        lambda d: _offcentre_disk().inside & whole_box_mask(d.axes, d.h, None, _lower_right),
        (71, 71)),
    "restricted_shape": (
        lambda: _offcentre_disk().restricted(None, shape_tag=Disk(0.2, -0.6, 0.55)),
        lambda d: _offcentre_disk().inside & whole_box_mask(d.axes, d.h, Disk(0.2, -0.6, 0.55),
                                                            None),
        None),
}


@pytest.mark.parametrize("split", ["one_line", "partial_last"])
@pytest.mark.parametrize("name", sorted(_BANDED))
def test_banded_mask_equals_the_whole_box_test(monkeypatch, name, split):
    """With a band budget that splits the lattice into many bands, of one
    line each or of k lines with a shorter last band, the mask equals the
    whole box's test bit for bit.  A predicate is called once per band, on
    that band's nodes alone, and a build's predicate only on the lines of
    its tight box."""
    build, reference, seen = _BANDED[name]
    lines, *rest = build().lattice_shape if seen is None else seen
    per_line = int(np.prod(rest))
    k = 1 if split == "one_line" else next(k for k in range(3, lines) if lines % k)
    assert -(-lines // k) > 5
    monkeypatch.setattr(geometry, "_BAND_ELEMENTS", k * per_line)
    calls = []
    real = geometry._node_coords
    monkeypatch.setattr(geometry, "_node_coords",
                        lambda axes: calls.append(tuple(map(len, axes))) or real(axes))
    dom = build()
    bands = list(calls)
    assert dom.inside.dtype == bool and 0 < dom.inside_count < dom.n_nodes
    np.testing.assert_array_equal(dom.inside, reference(dom))
    if seen is not None:
        sizes = [k] * (lines // k) + [lines % k] * bool(lines % k)
        assert bands == [(n, *rest) for n in sizes]
        assert split == "one_line" or bands[-1][0] < k


def test_build_disk_traces_about_a_byte_per_box_node(traced_peak):
    """The disk at h = 1/64, margin 2 (731,025 box nodes in 214 bands)
    traces a peak under 2 bytes per box node: the mask itself, one byte a
    node, and one band's temporaries (1.15 bytes a node measured).  Testing
    the whole box at once traced 9.02 bytes a node: its hypot alone took 8."""
    dom = build_disk((0.0, 0.0), 1.0, 1 / 64)
    assert dom.lattice_shape == (855, 855)
    assert -(-855 // (geometry._BAND_ELEMENTS // 855)) == 214
    peak = traced_peak(build_disk, (0.0, 0.0), 1.0, 1 / 64)
    assert peak < 2 * dom.n_nodes, peak / dom.n_nodes
