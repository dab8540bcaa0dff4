"""Convex bodies: hulls, diameter, intersection predicates.

Exact comparisons against the conftest oracles are legitimate because test
inputs sit on a dyadic lattice: every cross product and dot product below is
computed without rounding on both sides.
"""

from __future__ import annotations

import copy
import math
import pickle
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    body_check_oracle,
    body_intersects_box,
    box_contains,
    box_dimension,
    grid_components,
    intersects_boxes_oracle,
    lattice_body,
    numpy_body_oracle,
    oracle_convex_hull,
    partitions,
    point_in_convex,
)
from eulerdp import ConvexBody, build_partition, convex_hull, diameter
from eulerdp.geometry import _NOT_CONVEX, _NOT_FINITE, convex_bodies, convex_hulls, intersects_boxes

lattice_coord = st.integers(min_value=0, max_value=4096).map(lambda k: k / 1024.0)
lattice_point = st.tuples(lattice_coord, lattice_coord)


def signed_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def test_hull_square_with_interior_points():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (0.5, 1.5), (2, 1)]
    hull = convex_hull(pts)
    assert set(map(tuple, hull.vertices)) == {(0, 0), (2, 0), (2, 2), (0, 2)}
    assert signed_area(hull.vertices) == 4.0


def test_hull_degenerate_inputs():
    pt = convex_hull([(3, 4), (3, 4), (3, 4)])
    assert pt.vertices.shape == (1, 2)
    seg = convex_hull([(0, 0), (1, 1), (2, 2), (1.5, 1.5)])
    assert set(map(tuple, seg.vertices)) == {(0, 0), (2, 2)}
    assert seg.vertices.shape == (2, 2)
    with pytest.raises(ValueError):
        convex_hull(np.empty((0, 2)))


@given(st.lists(lattice_point, min_size=1, max_size=12))
@settings(max_examples=150)
def test_hull_contains_inputs_and_is_idempotent(pts):
    hull = convex_hull(pts)
    verts = [tuple(v) for v in hull.vertices]
    for pt in pts:
        assert point_in_convex(pt, verts)
    again = convex_hull(hull.vertices)
    assert set(map(tuple, again.vertices)) == set(verts)


_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_point = st.tuples(_coord, _coord)


@st.composite
def _line_points(draw, nudge: bool):
    """Points on one line through a float origin; ``nudge`` moves some of
    them one ulp off it."""
    ox, oy = draw(_point)
    dx, dy = draw(st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    ts = draw(st.lists(st.floats(-100, 100), min_size=2, max_size=10))
    pts = [(ox + t * dx, oy + t * dy) for t in ts]
    if nudge:
        ups = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(pts), max_size=len(pts)))
        pts = [(x, math.nextafter(y, up * math.inf) if up else y) for (x, y), up in zip(pts, ups)]
    return pts


_signed_zero = st.sampled_from([0.0, -0.0, 1.0])

_hull_inputs = st.one_of(
    st.lists(_point, min_size=1, max_size=12),
    _point.map(lambda p: [p]),
    st.lists(_point, min_size=1, max_size=4).flatmap(
        lambda ps: st.lists(st.sampled_from(ps), min_size=1, max_size=12)
    ),
    st.lists(st.tuples(_signed_zero, _signed_zero), min_size=1, max_size=12),
    _line_points(nudge=False),
    _line_points(nudge=True),
    st.tuples(
        st.lists(_point, max_size=6),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.booleans(),
    ).map(lambda t: t[0] + [(t[1], 0.5) if t[2] else (0.5, t[1])]),
)


def _hull_or_error(hull, *args):
    try:
        return hull(*args)
    except ValueError as e:
        return str(e)


def _same_body(got, want) -> bool:
    return (
        isinstance(got, ConvexBody)
        and got.vertices.shape == want.vertices.shape
        and got.vertices.tobytes() == want.vertices.tobytes()
        and np.array(got.bbox).tobytes() == np.array(want.bbox).tobytes()  # the signs of zeros too
        and not got.vertices.flags.writeable
    )


@given(st.lists(_hull_inputs, min_size=1, max_size=6), st.sampled_from([0.0, math.nan]))
@settings(max_examples=300)
def test_hull_equals_the_fully_checked_body(sets, fill):
    """``convex_hull`` and a stack of sets through ``convex_hulls`` skip the
    constructor's re-check of the turns their chains made, yet build, set
    by set, the same body and raise the same errors as ``ConvexBody`` on
    the chain the oracle runs on that set alone. Entries past a set's
    count are ``fill``, which the stack must ignore."""
    wants = [_hull_or_error(oracle_convex_hull, pts) for pts in sets]
    for pts, want in zip(sets, wants):
        got = _hull_or_error(convex_hull, pts)
        assert got == want if isinstance(want, str) else _same_body(got, want)
    counts = [len(pts) for pts in sets]
    stack = np.full((len(sets), max(counts), 2), fill)
    for row, pts in zip(stack, sets):
        row[: len(pts)] = pts
    got = _hull_or_error(convex_hulls, stack, counts)
    errors = {want for want in wants if isinstance(want, str)}
    if errors:  # a stack reports non-finite vertices before a bad turn
        assert got == min(errors, key=lambda e: "finite" not in e)
    else:
        assert all(map(_same_body, got, wants))


# Three nearly collinear points near 1e-160, where cross products are
# subnormal and ConvexBody's slack rounds to -0.0. The lower chain keeps the
# middle point (its turn computes to +5e-324) and the upper chain drops it,
# yet the turn where the chains meet at the largest point computes, from
# other coordinate differences, to -5e-324. Negated, the set turns clockwise
# where the chains meet at the smallest point instead.
_CLOCKWISE_JUNCTION = [
    (0.0, 0.0),
    (float.fromhex("0x1.3c083126e978dp-537"), float.fromhex("0x1.9ebe28da279b8p-538")),
    (float.fromhex("0x1.3e804189374bep-531"), float.fromhex("0x1.a1fba52bdbeaep-532")),
]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["largest-point", "smallest-point"])
def test_hull_refuses_a_clockwise_junction(sign):
    """The two junction turns ``hull_vertices`` checks can fail: each set
    here raises ConvexBody's error, alone and in a stack."""
    pts = sign * np.array(_CLOCKWISE_JUNCTION)
    assert _hull_or_error(oracle_convex_hull, pts) == _NOT_CONVEX
    assert _hull_or_error(convex_hull, pts) == _NOT_CONVEX
    stack = np.stack([np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), pts])
    assert _hull_or_error(convex_hulls, stack, [3, 3]) == _NOT_CONVEX


@given(st.lists(lattice_point, min_size=1, max_size=10))
@settings(max_examples=150)
def test_diameter_is_max_pairwise_distance(pts):
    arr = np.array(pts, dtype=np.float64)
    diff = arr[:, None, :] - arr[None, :, :]
    want = float(np.sqrt((diff * diff).sum(axis=2).max()))
    assert diameter(convex_hull(pts)) == want


def test_diameter_hand_values():
    assert diameter(ConvexBody(np.array([[1.0, 2.0]]))) == 0.0
    tri = ConvexBody(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    assert diameter(tri) == 5.0


def test_body_validation():
    with pytest.raises(ValueError):
        ConvexBody(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))  # clockwise
    with pytest.raises(ValueError):
        ConvexBody(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ConvexBody(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        ConvexBody(np.empty((0, 2)))
    # non-convex chain: (1,0.25) is a reflex vertex
    with pytest.raises(ValueError):
        ConvexBody(np.array([[0.0, 0.0], [1.0, 0.25], [2.0, 0.0], [1.0, 2.0]]))


def test_body_slack_boundary():
    # (0,0), (L,e), (2L,0) turns clockwise by 2Le at every vertex; the slack
    # is 1e-9 * (2L)^2, so the body passes up to e = 2e-9 * L and fails beyond
    big = 1000.0
    for t, ok in ((0.99, True), (1.01, False)):
        tri = np.array([[0.0, 0.0], [big, t * 2e-9 * big], [2 * big, 0.0]])
        assert (numpy_body_oracle(tri) is not None) == ok
        if ok:
            assert ConvexBody(tri).bbox == (0.0, 2 * big, 0.0, t * 2e-9 * big)
        else:
            with pytest.raises(ValueError, match="counterclockwise"):
                ConvexBody(tri)


coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def vertex_lists(draw) -> np.ndarray:
    """Vertex arrays about ConvexBody's accept/reject boundary: points on a
    circle in counterclockwise order, then reversed, given a duplicate, given
    one vertex nudged across its neighbours' chord by about the 1e-9 slack,
    given a NaN or infinity, or replaced by arbitrary points; or k >= 3
    zeros of either sign, the circle's unit form rounded to integers with
    zeros of either sign, or that unit form scaled to subnormal or near
    overflowing coordinates, in either winding."""
    k = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 40))
    ang = np.sort(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=k, max_size=k)))
    cx, cy, r = draw(coordinate), draw(coordinate), draw(st.floats(1e-6, 1e4))
    pts = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
    how = draw(st.sampled_from(
        ["ccw", "clockwise", "duplicate", "nudge", "special", "arbitrary", "zero", "signed zero", "tiny", "huge"]
    ))
    unit = np.column_stack([np.cos(ang), np.sin(ang)])[:: draw(st.sampled_from([1, -1]))]
    if how in ("zero", "signed zero"):
        zeros = np.zeros((max(k, 3), 2)) if how == "zero" else np.round(unit)
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=zeros.size, max_size=zeros.size))
        pts = np.where(zeros == 0.0, zeros * np.reshape(signs, zeros.shape), zeros)
    elif how in ("tiny", "huge"):
        tiny = [5e-324, 1e-322, 1e-315, 2.2250738585072014e-308, 1e-160]
        huge = [1e154, 1e200, 1e307, 1.7976931348623157e308]
        pts = unit * draw(st.sampled_from(tiny if how == "tiny" else huge))
    elif how == "clockwise":
        pts = pts[::-1]
    elif how == "duplicate":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k))
        pts = np.insert(pts, j, pts[i], axis=0)
    elif how == "nudge" and k >= 3:
        i = draw(st.integers(0, k - 1))
        prev, nxt = pts[i - 1], pts[(i + 1) % k]
        chord = nxt - prev
        length = float(np.hypot(*chord))
        if length > 0.0:
            scale = float(np.abs(pts).max())
            t = draw(st.sampled_from([1.0, -1.0]) | st.floats(-3.0, 3.0))
            inward = np.array([-chord[1], chord[0]]) / length  # left of prev -> nxt
            pts[i] = (prev + nxt) / 2.0 + t * 1e-9 * scale * scale / length * inward
    elif how == "special":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, 1))
        pts[i, j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif how == "arbitrary":
        pts = np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40)))
    return pts


@given(vertex_lists())
@settings(max_examples=400, deadline=None)
def test_body_checks_match_numpy_oracle(pts):
    want = numpy_body_oracle(pts)
    if want is None:
        with pytest.raises(ValueError):
            ConvexBody(pts)
        return
    body = ConvexBody(pts)
    assert body.bbox == want
    assert body.vertices.tobytes() == pts.tobytes()


def _bbox_or_error(make, pts):
    """The bbox bytes ``make`` gives for ``pts``, signs of zeros too, or
    the text of its ValueError."""
    try:
        return np.array(make(pts)).tobytes()
    except ValueError as e:
        return str(e)


@given(vertex_lists())
@settings(max_examples=600, deadline=None)
def test_body_checks_match_the_python_float_check(pts):
    """``ConvexBody`` accepts what the Python-float check it used to run
    accepts, with the same bbox bytes, and refuses the rest with its text."""
    want = _bbox_or_error(body_check_oracle, pts)
    assert _bbox_or_error(lambda v: ConvexBody(v).bbox, pts) == want


@given(st.lists(vertex_lists(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_convex_bodies_match_the_python_float_check(lists):
    """A block of drawn bodies raises the Python-float check's text for a
    non-finite coordinate anywhere in it before its text for a bad turn
    anywhere, as ``convex_bodies`` did; else each body has the check's
    bbox bytes, its own vertex bytes and its diameter cached."""
    wants = [_bbox_or_error(body_check_oracle, pts) for pts in lists]
    errors = [want for want in wants if want in (_NOT_FINITE, _NOT_CONVEX)]
    vertices, sizes = np.concatenate(lists), np.array([len(pts) for pts in lists])
    if errors:
        with pytest.raises(ValueError) as err:
            convex_bodies(vertices, sizes)
        assert str(err.value) == min(errors, key=lambda e: e != _NOT_FINITE)
        return
    bodies = convex_bodies(vertices, sizes)
    assert [np.array(b.bbox).tobytes() for b in bodies] == wants
    assert [b.vertices.tobytes() for b in bodies] == [pts.tobytes() for pts in lists]
    assert all(b.__dict__["cached_diameter"] == diameter(ConvexBody(b.vertices)) for b in bodies)


@pytest.mark.parametrize(
    "bad, message",
    [([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]], _NOT_CONVEX), ([[0.0, 0.0], [np.inf, 1.0]], _NOT_FINITE)],
    ids=["clockwise", "infinite"],
)
def test_convex_bodies_raise_the_body_texts(bad, message):
    """A block with one bad body among good ones raises the text
    ``ConvexBody`` raises for it."""
    good = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]]
    with pytest.raises(ValueError) as want:
        ConvexBody(bad)
    with pytest.raises(ValueError) as got:
        convex_bodies(np.array(good + bad + good), np.array([3, len(bad), 3]))
    assert str(got.value) == str(want.value) == message


@given(vertex_lists())
@settings(max_examples=200, deadline=None)
def test_cached_diameter_is_bitwise_diameter(pts):
    if numpy_body_oracle(pts) is None:
        return
    body = ConvexBody(pts)
    assert "cached_diameter" not in body.__dict__  # lazy: not paid on construction
    assert np.float64(body.cached_diameter).tobytes() == np.float64(diameter(body)).tobytes()
    assert "cached_diameter" in body.__dict__


def test_body_is_read_only_and_compares_by_identity():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    body = ConvexBody(src)
    assert body.cached_diameter == math.sqrt(2.0)
    src[1, 0] = 5.0  # construction copied its input
    assert body.vertices[1, 0] == 1.0 and body.bbox == (0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        body.vertices[0, 0] = 2.0
    with pytest.raises(FrozenInstanceError):
        body.vertices = src
    for twin in (copy.copy(body), copy.deepcopy(body), pickle.loads(pickle.dumps(body))):
        assert twin is not body and twin.bbox == body.bbox
        assert "cached_diameter" not in twin.__dict__
        assert twin.vertices.tobytes() == body.vertices.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            twin.vertices[0, 0] = 2.0
        assert twin != body
    same = ConvexBody(body.vertices)
    assert body == body and same != body
    assert body in {body} and same not in {body} and hash(body) == hash(body)


def test_intersects_boxes_matches_oracle():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(120):
        body = lattice_body(rng, 6.0)
        raw = rng.integers(0, 7, (40, 4)).astype(np.float64)
        boxes = np.column_stack([
            np.minimum(raw[:, 0], raw[:, 1]), np.maximum(raw[:, 0], raw[:, 1]),
            np.minimum(raw[:, 2], raw[:, 3]), np.maximum(raw[:, 2], raw[:, 3]),
        ])
        got = intersects_boxes(body, boxes)
        for row, flag in zip(boxes, got):
            assert bool(flag) == body_intersects_box(body, tuple(row))
            checked += 1
    assert checked == 4800


def test_intersects_boxes_empty_input():
    body = ConvexBody(np.array([[0.0, 0.0]]))
    out = intersects_boxes(body, np.empty((0, 4)))
    assert out.shape == (0,) and out.dtype == bool


def test_component_predicates_and_monotonicity():
    """A body meeting an edge meets both faces; meeting a vertex meets all
    four edges. Holds by box containment, checked empirically here."""
    p = build_partition(4.0, 4)
    boxes = np.array([box for _, box in grid_components(p)])
    dims = [box_dimension(box) for box in boxes]
    # (smaller, larger) component pairs one dimension apart, larger box containing the smaller
    pairs = [
        (i, j)
        for i, inner in enumerate(boxes)
        for j, outer in enumerate(boxes)
        if dims[j] == dims[i] + 1 and box_contains(outer, inner)
    ]
    assert len(pairs) == 2 * 24 + 4 * 9  # two faces per edge, four edges per vertex
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(200):
        body = lattice_body(rng, 4.0)
        meets = intersects_boxes(body, boxes)
        for i, j in pairs:
            if meets[i]:
                hits += dims[i] == 1
                assert meets[j]
    assert hits > 50  # the sweep must actually exercise the implication


@st.composite
def area_bodies(draw, p):
    """Up to eight hulls of one to six points in the area of ``p``. A point
    lies anywhere or on a grid line; a body may also be a point or segment
    drawn along one grid line."""
    (ox, oy), span = p.origin, p.n * p.cell_side
    line = st.integers(0, p.n).map(lambda k: k / p.n)
    fraction = st.floats(0.0, 1.0) | line

    def at(fx: float, fy: float) -> tuple[float, float]:
        return min(ox + fx * span, ox + span), min(oy + fy * span, oy + span)

    bodies = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            pts = [at(draw(fraction), draw(fraction)) for _ in range(draw(st.integers(1, 6)))]
        else:
            on, flip = draw(line), draw(st.booleans())
            ends = [draw(fraction) for _ in range(draw(st.integers(1, 2)))]
            pts = [at(on, f) if flip else at(f, on) for f in ends]
        bodies.append(convex_hull(pts))
    return bodies


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_edges_and_vertices_are_hit_with_all_their_faces(data):
    """A body meets an edge box exactly when it meets both face boxes beside
    it, and a vertex box exactly when it meets all four round it, on inexact
    grid lines too. ``build`` counts edges and vertices from its face hits
    on this fact alone."""
    p = data.draw(partitions)
    bodies = data.draw(area_bodies(p))
    comps = grid_components(p)
    boxes = np.array([box for _, box in comps])
    faces_of = {}
    for label, _ in comps:
        kind, r, c = re.fullmatch(r"([a-z]+)(\d+)_(\d+)", label).groups()
        r, c = int(r), int(c)
        faces_of[label] = {
            "f": [(r, c)],
            "he": [(r, c), (r + 1, c)],
            "ve": [(r, c), (r, c + 1)],
            "x": [(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)],
        }[kind]
    for body in bodies:
        hit = dict(zip((label for label, _ in comps), intersects_boxes(body, boxes).tolist()))
        for label, faces in faces_of.items():
            assert hit[label] == all(hit[f"f{r}_{c}"] for r, c in faces), label


# coordinates as small multiples of a scale: subnormal, normal, and so large
# that edge vectors and box-corner products overflow to +-inf, and their sums
# to NaN
extreme_scales = st.sampled_from([5e-324, 1e-310, 2.0**-1022, 1.0, 1e154, 1e300, 2.0**1020])


@st.composite
def extreme_bodies_and_boxes(draw):
    scale = draw(extreme_scales)
    coord = (st.integers(-8, 8) | st.floats(-8.0, 8.0)).map(lambda k: k * scale)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    pairs = st.tuples(coord, coord).map(sorted)
    rows = draw(st.lists(st.tuples(pairs, pairs), min_size=1, max_size=30))
    return convex_hull(pts), np.array([[*xs, *ys] for xs, ys in rows])


def _kernel_and_oracle(body, boxes):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return intersects_boxes(body, boxes), intersects_boxes_oracle(body, boxes)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_intersects_boxes_equals_the_eight_product_oracle(data):
    """Forming each box-corner product once leaves every hit as it was:
    elementwise equal to the eight-product oracle on points, segments along
    grid lines and polygons touching them, against every component box of a
    drawn grid, and on bodies and boxes at subnormal and near-overflow
    coordinates, where products become +-inf or NaN."""
    p = data.draw(partitions)
    boxes = np.array([box for _, box in grid_components(p)])
    for body in data.draw(area_bodies(p)):
        got, want = _kernel_and_oracle(body, boxes)
        assert got.dtype == bool and np.array_equal(got, want)
    body, boxes = data.draw(extreme_bodies_and_boxes())
    got, want = _kernel_and_oracle(body, boxes)
    assert got.dtype == bool and np.array_equal(got, want)


def test_kernel_and_oracle_agree_where_products_overflow():
    """A segment whose direction overflows to inf: its axes carry inf and
    the products inf * 0 are NaN, which drops even the unit box the segment
    crosses, on both sides alike."""
    body = convex_hull([(-(2.0**1023), 0.0), (2.0**1023, 1.0)])
    boxes = np.array([[0.0, 1.0, 0.0, 1.0], [-1e308, 1e308, -1e308, 1e308], [0.0, 0.0, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        dx = body.vertices[1, 0] - body.vertices[0, 0]
        assert dx == math.inf and math.isnan(dx * 0.0)
    got, want = _kernel_and_oracle(body, boxes)
    assert np.array_equal(got, want)
