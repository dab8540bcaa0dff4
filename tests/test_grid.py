"""Grid partition: census, dense layout, incidence, geometry, windowing."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    box_dimension,
    build_oracle_counts,
    grid_components,
    hit_stacks_oracle,
    lattice_body,
    partitions,
    point_in_box,
    window_oracle,
)
from eulerdp import GridPartition, build, build_partition, convex_hull, validate_bodies
from eulerdp.geometry import intersects_boxes
from eulerdp.grid import incidences


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
    assert idx.tolist() == list(range(p.n_faces))
    assert [tuple(b) for b in boxes] == [box for _, box in comps[: p.n_faces]]


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_incidence_ands_equal_the_hit_stack_oracle(bodies, h, w, seed):
    """Edge and vertex stacks that start True and take ``lower &= upper``
    over the incidence table, edges from faces then vertices from edges,
    equal the three ANDs of neighbouring slices, on (bodies, h, w) face hit
    stacks whose windows are padded with False, as ``build`` pads them."""
    rng = np.random.default_rng(seed)
    hit = np.zeros((bodies, h, w), dtype=bool)
    for j in range(bodies):
        rows, cols = rng.integers(1, h + 1), rng.integers(1, w + 1)
        hit[j, :rows, :cols] = rng.random((rows, cols)) < rng.random()
    shapes = ((h - 1, w), (h, w - 1), (h - 1, w - 1))
    stacks = (hit, *(np.ones((bodies, *shape), dtype=bool) for shape in shapes))
    for lower, upper in incidences(*stacks):
        lower &= upper
    for got, want in zip(stacks[1:], hit_stacks_oracle(hit)):
        assert np.array_equal(got, want)


def test_box_of_hand_values():
    p = build_partition(8.0, 8, origin=(2.0, 3.0))
    assert p.cell_side == 1.0
    idx, boxes = p.window(2.0, 10.0, 3.0, 11.0)
    assert tuple(boxes[idx.tolist().index(1 * p.n + 2)]) == (4.0, 5.0, 4.0, 5.0)  # face (1, 2)
    box_of = dict(grid_components(p))
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
    faces = [box for _, box in grid_components(p)][: p.n_faces]
    rng = np.random.default_rng(42)
    for _ in range(80):
        pts = rng.uniform(-1.0, 6.0, 4)
        q = (min(pts[0], pts[1]), max(pts[0], pts[1]), min(pts[2], pts[3]), max(pts[2], pts[3]))
        idx, boxes = p.window(*q)
        got = set(idx.tolist())
        for i, b in enumerate(faces):
            if boxes_overlap(b, q):
                assert i in got
        # returned boxes agree with the geometry of their dense indices
        for j, i in enumerate(idx.tolist()):
            assert tuple(boxes[j]) == faces[i]


def test_window_far_outside_is_empty():
    p = build_partition(5.0, 5)
    idx, boxes = p.window(100.0, 101.0, 100.0, 101.0)
    assert idx.size == 0 and boxes.shape == (0, 4)
    idx, boxes = p.window(-np.inf, -np.inf, 0.0, 1.0)
    assert idx.size == 0 and boxes.shape == (0, 4)
    with pytest.raises(ValueError, match="NaN"):
        p.window(np.nan, 1.0, 0.0, 1.0)


@st.composite
def bbox_spans(draw, p: GridPartition) -> tuple[float, float]:
    """One axis of a bounding box, as fractions of the area: inside it, on a
    grid line or the border, straddling the border, or far outside."""
    place = st.sampled_from(["inside", "line", "straddle", "far"])
    fractions = {
        "inside": st.floats(0.0, 1.0),
        "line": st.integers(0, p.n).map(lambda k: k / p.n),
        "straddle": st.floats(-0.5, 1.5),
        "far": st.floats(-1e6, -1.0) | st.floats(2.0, 1e6),
    }
    a, b = (draw(fractions[draw(place)]) for _ in range(2))
    return min(a, b), max(a, b)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_window_matches_meshgrid_oracle(data):
    """Each box's window, alone and as one row of the batched ranges, is the
    oracle's: the same faces, their boxes byte for byte."""
    p = data.draw(partitions)
    (ox, oy), side = p.origin, p.area_side
    spans = st.tuples(bbox_spans(p), bbox_spans(p))
    bboxes = [
        (ox + x0 * side, ox + x1 * side, oy + y0 * side, oy + y1 * side)
        for (x0, x1), (y0, y1) in data.draw(st.lists(spans, min_size=1, max_size=4))
    ]
    ranges = p.windows(np.array(bboxes))
    assert ranges.dtype == np.int64 and ranges.shape == (len(bboxes), 4)
    for bbox, (c0, c1, r0, r1) in zip(bboxes, ranges.tolist()):
        idx, boxes = p.window(*bbox)
        # the oracle lists the window's faces first, row-major, then its
        # edges and vertices
        want_idx, want_boxes = window_oracle(p, *bbox)
        faces = want_idx < p.n_faces
        want_idx, want_boxes = want_idx[faces], want_boxes[faces]
        assert idx.dtype == want_idx.dtype and idx.tolist() == want_idx.tolist()
        assert boxes.shape == want_boxes.shape and boxes.tobytes() == want_boxes.tobytes()
        if want_idx.size:
            rows, cols = np.divmod(want_idx, p.n)
            assert (c0, c1, r0, r1) == (cols.min(), cols.max(), rows.min(), rows.max())
        else:
            assert c0 > c1 or r0 > r1


def test_partition_copies_and_pickles_compare_equal():
    p = build_partition(10.0, 7, origin=(-1.5, 2.0))
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and hash(twin) == hash(p) and twin in {p}
    assert build_partition(10.0, 7, origin=(-1.5, 2.5)) != p


def test_build_matches_oracle_on_lattice_corpus():
    """The bodies of acceptance gate 2: sixteen sets of twelve lattice bodies
    at every n = 2..10."""
    rng = np.random.default_rng(4401)
    for n in range(2, 11):
        p = build_partition(float(n), n)
        for _ in range(16):
            bodies = [lattice_body(rng, float(n)) for _ in range(12)]
            assert np.array_equal(build(bodies, p).counts, build_oracle_counts(bodies, p))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_build_matches_oracle_on_drawn_bodies(data):
    p = data.draw(partitions)
    (ox, oy), span = p.origin, p.n * p.cell_side
    fraction = st.floats(0.0, 1.0) | st.integers(0, p.n).map(lambda k: k / p.n)
    point = st.tuples(fraction, fraction).map(
        lambda t: (min(ox + t[0] * span, ox + span), min(oy + t[1] * span, oy + span))
    )
    clouds = st.lists(st.lists(point, min_size=1, max_size=6), min_size=1, max_size=8)
    bodies = [convex_hull(pts) for pts in data.draw(clouds)]
    assert np.array_equal(build(bodies, p).counts, build_oracle_counts(bodies, p))


def test_build_tests_faces_only(monkeypatch):
    """Edges and vertices are counted from their faces' hits: every box that
    ``build`` hands to the predicate is a face."""
    seen = []

    def recording(body, boxes):
        seen.append(boxes)
        return intersects_boxes(body, boxes)

    monkeypatch.setattr("eulerdp.histogram.intersects_boxes", recording)
    p = build_partition(6.0, 6)
    rng = np.random.default_rng(5)
    bodies = [lattice_body(rng, 6.0) for _ in range(20)]
    assert np.array_equal(build(bodies, p).counts, build_oracle_counts(bodies, p))
    assert len(seen) == len(bodies)
    for boxes in seen:
        assert (boxes[:, 0] < boxes[:, 1]).all() and (boxes[:, 2] < boxes[:, 3]).all()


def test_build_counts_exact_closed_set_meets():
    """A unit square whose right edge sits 1e-12 short of a grid line meets
    only its own face; a square with a vertex on a grid point meets the
    closed cells on both sides of both lines, their edges and that vertex."""
    p = build_partition(8.0, 4)  # cell side 2
    x0, x1 = 1.0 - 1e-12, 2.0 - 1e-12  # the right edge 1e-12 short of the grid line x = 2
    short = convex_hull([(x0, 0.5), (x1, 0.5), (x1, 1.5), (x0, 1.5)])
    faces, hedges, vedges, vertices = p.sections(build([short], p).counts)
    assert (faces[0, 0], faces.sum(), hedges.sum(), vedges.sum(), vertices.sum()) == (1, 1, 0, 0, 0)
    corner = convex_hull([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)])  # vertex (2, 2) on a grid point
    counts = build([corner], p).counts
    assert np.array_equal(counts, build_oracle_counts([corner], p))
    faces, hedges, vedges, vertices = p.sections(counts)
    assert faces[:2, :2].all() and faces.sum() == 4
    assert hedges[0, :2].all() and vedges[:2, 0].all() and hedges.sum() + vedges.sum() == 4
    assert vertices[0, 0] == 1 and vertices.sum() == 1


def test_partition_validation():
    with pytest.raises(ValueError):
        build_partition(5.0, 1)
    with pytest.raises(ValueError):
        build_partition(0.0, 4)
    with pytest.raises(ValueError):
        build_partition(-2.0, 4)
    with pytest.raises(ValueError):
        GridPartition((float("nan"), 0.0), 1.0, 3)
