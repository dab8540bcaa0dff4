"""Grid partition: census, dense layout, incidence, geometry, windowing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import box_dimension, grid_components, point_in_box
from eulerdp import GridPartition, build, build_partition, convex_hull, validate_bodies


def boxes_overlap(a, b) -> bool:
    return a[0] <= b[1] and a[1] >= b[0] and a[2] <= b[3] and a[3] >= b[2]


@given(st.integers(min_value=2, max_value=60))
def test_census_identity(n):
    """faces - edges + vertices telescopes to 1 at every resolution."""
    p = build_partition(float(n), n)
    assert p.n_faces - p.n_edges + p.n_vertices == 1
    assert p.size == (2 * n - 1) ** 2


def test_census_n20():
    p = build_partition(20000.0, 20)
    assert (p.n_faces, p.n_edges, p.n_vertices) == (400, 760, 361)
    assert p.size == 1521


def test_section_offsets_n3():
    p = build_partition(3.0, 3)
    assert p.hedge_offset == 9
    assert p.vedge_offset == 15
    assert p.vertex_offset == 21
    assert p.size == 25


def test_dense_layout_pinned_n2():
    # the dense order keys files and noise streams; pin it exactly
    p = build_partition(2.0, 2)
    comps = grid_components(p)
    assert [label for label, _ in comps] == [
        "f0_0", "f0_1", "f1_0", "f1_1",
        "he0_0", "he0_1",
        "ve0_0", "ve1_0",
        "x0_0",
    ]
    idx, boxes = p.window(0.0, 2.0, 0.0, 2.0)
    assert idx.tolist() == list(range(p.size))
    assert [tuple(b) for b in boxes] == [box for _, box in comps]


def test_incidence_matches_geometry():
    """A point body at the centre of a component meets exactly the components
    whose closed boxes contain that point: an edge and its two faces, or a
    vertex with its four edges and four faces."""
    p = build_partition(4.0, 4)
    boxes = [box for _, box in grid_components(p)]
    for i, box in enumerate(boxes):
        centre = ((box[0] + box[1]) / 2, (box[2] + box[3]) / 2)
        got = build([convex_hull([centre])], p).counts
        assert got.tolist() == [float(point_in_box(centre, b)) for b in boxes]
        assert got[i] == 1.0
        assert got.sum() == {2: 1, 1: 3, 0: 9}[box_dimension(box)]


def test_box_of_hand_values():
    p = build_partition(8.0, 8, origin=(2.0, 3.0))
    assert p.cell_side == 1.0
    idx, boxes = p.window(2.0, 10.0, 3.0, 11.0)
    labels = [label for label, _ in grid_components(p)]
    box_of = {labels[i]: tuple(b) for i, b in zip(idx.tolist(), boxes)}
    assert box_of["f1_2"] == (4.0, 5.0, 4.0, 5.0)
    assert box_of["he0_0"] == (2.0, 3.0, 4.0, 4.0)
    assert box_of["ve0_0"] == (3.0, 3.0, 3.0, 4.0)
    assert box_of["x0_0"] == (3.0, 3.0, 4.0, 4.0)
    # the area is [2, 10] x [3, 11], closed
    corner_to_corner = convex_hull([(2.0, 3.0), (10.0, 11.0)])
    past_the_top = convex_hull([(2.0, 3.0), (10.0, 11.5)])
    _, rejected = validate_bodies([corner_to_corner, past_the_top], p)
    assert [i for i, _ in rejected] == [1]


def test_grid_lines():
    p = build_partition(10.0, 4, origin=(-1.0, 5.0))
    assert p.cell_side == 2.5
    idx, boxes = p.window(-1.0, 9.0, 5.0, 15.0)
    faces = boxes[idx < p.n_faces]
    assert sorted(set(faces[:, 0]) | set(faces[:, 1])) == [-1.0, 1.5, 4.0, 6.5, 9.0]
    assert sorted(set(faces[:, 2]) | set(faces[:, 3])) == [5.0, 7.5, 10.0, 12.5, 15.0]


def test_window_is_superset_of_overlaps():
    p = build_partition(5.0, 5)
    boxes_all = [box for _, box in grid_components(p)]
    rng = np.random.default_rng(42)
    for _ in range(80):
        pts = rng.uniform(-1.0, 6.0, 4)
        q = (min(pts[0], pts[1]), max(pts[0], pts[1]), min(pts[2], pts[3]), max(pts[2], pts[3]))
        idx, boxes = p.window(*q)
        got = set(idx.tolist())
        for i, b in enumerate(boxes_all):
            if boxes_overlap(b, q):
                assert i in got
        # returned boxes agree with the geometry of their dense indices
        for j, i in enumerate(idx.tolist()):
            assert tuple(boxes[j]) == boxes_all[i]


def test_window_far_outside_is_empty():
    p = build_partition(5.0, 5)
    idx, boxes = p.window(100.0, 101.0, 100.0, 101.0)
    assert idx.size == 0 and boxes.shape == (0, 4)


def test_partition_validation():
    with pytest.raises(ValueError):
        build_partition(5.0, 1)
    with pytest.raises(ValueError):
        build_partition(0.0, 4)
    with pytest.raises(ValueError):
        build_partition(-2.0, 4)
    with pytest.raises(ValueError):
        GridPartition((float("nan"), 0.0), 1.0, 3)
