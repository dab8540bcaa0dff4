"""Convex bodies: hulls, diameter, intersection predicates.

Exact comparisons against the conftest oracles are legitimate because test
inputs sit on a dyadic lattice: every cross product and dot product below is
computed without rounding on both sides.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    body_intersects_box,
    box_contains,
    box_dimension,
    grid_components,
    lattice_body,
    point_in_convex,
)
from eulerdp import ConvexBody, build_partition, convex_hull, diameter
from eulerdp.geometry import intersects_boxes

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


def test_tol_is_axis_distance():
    body = ConvexBody(np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]))
    probe = np.array([[0.5, 0.5, 1.5, 1.5]])  # point 0.5 left of the body
    assert not intersects_boxes(body, probe, tol=0.49)[0]
    assert intersects_boxes(body, probe, tol=0.51)[0]
    assert not intersects_boxes(body, probe)[0]


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
