"""Constrained inference: project noisy counts back onto the consistent set.

Raw histograms satisfy structural constraints that independent noise destroys:

* C1: an edge count never exceeds either incident face count (2 rows per edge);
* C2: a vertex count never exceeds any of its four incident edge counts
  (4 rows per vertex);
* C3: around each vertex, faces minus edges plus the vertex is non-negative
  (one aggregate row per vertex).

Inference finds non-negative counts satisfying all rows while staying close to
the noisy input, in L1 (the default) or worst-case deviation. Around a vertex
the four edges match four distinct incident faces, so C1 and x >= 0 imply C3.
C3 is never checked, since its four-term float sums would need a tolerance,
and the projection is an isotonic regression under vertex <= edge <= face:
L1 by threshold partitioning with one minimum cut per level (Hochbaum &
Queyranne 2003), L-infinity in closed form (Barlow et al. 1972). Each level's
cut is a maximum bipartite matching, found by vectorised greedy rounds and
finished by Hopcroft-Karp phases (Hopcroft & Karp 1973), so inference needs
numpy alone. Both depend on the noisy counts only, so inference is
post-processing and spends no extra privacy budget.

Every check of the rows, and the L-infinity projection, compares
neighbouring slices of the face, edge and vertex sections. The rows'
dense-index pairs are built on first access, for the tests' oracles; the
L1 projection builds its pair list from the same grid arithmetic and frees
it on return, so no index table outlives a call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridPartition
from .histogram import EulerHistogram, HistogramState


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint rows for one partition, in canonical order.

    ``violation_counts`` compares neighbouring slices of the partition's
    sections and needs no index table, so ``verify``, rounding and repair
    never build one. The index pairs are built on first access, by the
    tests' oracles and census; the ``l1`` projection builds its own and
    frees them. ``c1`` holds (edge, face) dense-index pairs ordered by edge then by the
    edge's face order; ``c2`` holds (vertex, edge) pairs ordered by vertex
    then edge; ``c3`` holds one row (vertex, f1..f4, e1..e4) per vertex.
    """

    partition: GridPartition

    @property
    def counts_by_family(self) -> tuple[int, int, int]:
        p = self.partition
        return 2 * p.n_edges, 4 * p.n_vertices, p.n_vertices

    def violation_counts(self, counts: np.ndarray) -> tuple[int, int, int]:
        """Violated C1 rows, violated C2 rows and negative components: exact.
        Each family is four comparisons of neighbouring sections' slices, as
        :mod:`eulerdp.grid` lays out which edges bound a face or vertex."""
        faces, hedges, vedges, vertices = self.partition.sections(counts)
        over = np.count_nonzero
        c1 = over(hedges > faces[:-1]) + over(hedges > faces[1:])
        c1 += over(vedges > faces[:, :-1]) + over(vedges > faces[:, 1:])
        c2 = over(vertices > hedges[:, :-1]) + over(vertices > hedges[:, 1:])
        c2 += over(vertices > vedges[:-1]) + over(vertices > vedges[1:])
        return int(c1), int(c2), int(over(counts < 0))

    @cached_property
    def c1(self) -> np.ndarray:
        return _c1_rows(self.partition)

    @cached_property
    def c2(self) -> np.ndarray:
        return np.column_stack([np.repeat(self.c3[:, 0], 4), self.c3[:, 5:].ravel()])

    @cached_property
    def c3(self) -> np.ndarray:
        return _c3_rows(self.partition)


def _c1_rows(p: GridPartition) -> np.ndarray:
    """(edge, face) dense-index pairs, by edge then by the edge's faces."""
    faces, hedges, vedges, _ = p.sections(np.arange(p.size, dtype=np.int64))
    return np.concatenate([
        np.stack([hedges, faces[:-1], hedges, faces[1:]], axis=-1).reshape(-1, 2),
        np.stack([vedges, faces[:, :-1], vedges, faces[:, 1:]], axis=-1).reshape(-1, 2),
    ])


def _c3_rows(p: GridPartition) -> np.ndarray:
    """One row (vertex, f1..f4, e1..e4) of dense indices per vertex."""
    faces, hedges, vedges, vertices = p.sections(np.arange(p.size, dtype=np.int64))
    return np.stack([
        vertices, faces[:-1, :-1], faces[:-1, 1:], faces[1:, :-1], faces[1:, 1:],
        hedges[:, :-1], hedges[:, 1:], vedges[:-1], vedges[1:],
    ], axis=-1).reshape(-1, 9)


def build_constraints(p: GridPartition) -> ConstraintSet:
    """The constraint set of ``p``; its index pairs wait for first access."""
    return ConstraintSet(p)


@dataclass
class SolveReport:
    """``iterations`` counts the minimum-cut levels of ``l1`` (0 for
    ``linf``); ``wall_time`` is the projection's time in seconds."""

    objective: float
    iterations: int
    wall_time: float


def _maximal_matching(eu: np.ndarray, ed: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """A maximal matching of the bipartite edges ``eu[i] -- ed[i]`` as mate
    arrays over node indices (-1 when unmatched), in vectorised rounds.

    Each round matches the edges of a node left with one free neighbour,
    which some maximum matching also does (Karp & Sipser 1981); a round with
    none matches any edges. A node proposing twice keeps one proposal.
    """
    mate_u = np.full(size, -1, dtype=np.int64)
    mate_d = np.full(size, -1, dtype=np.int64)
    claim = np.empty(size, dtype=np.int64)
    while True:
        live = (mate_u[eu] < 0) & (mate_d[ed] < 0)
        eu, ed = eu[live], ed[live]
        if not len(eu):
            return mate_u, mate_d
        pick = (np.bincount(eu, minlength=size)[eu] == 1) | (np.bincount(ed, minlength=size)[ed] == 1)
        pu, pd = (eu[pick], ed[pick]) if pick.any() else (eu, ed)
        idx = np.arange(len(pu))
        claim[pu] = idx
        keep = claim[pu] == idx
        claim[pd[keep]] = idx[keep]
        keep &= claim[pd] == idx
        mate_u[pu[keep]] = pd[keep]
        mate_d[pd[keep]] = pu[keep]


def _alternating_layers(eu, ed, mate_u, mate_d, size):
    """Breadth-first search from the free up-nodes along alternating paths,
    stopped at the first layer that reaches a free down-node.

    Returns the up-node and down-node layers (-1 where unreached) and the
    free down-nodes reached, none when the matching is maximum.
    """
    dist_u = np.full(size, -1, dtype=np.int64)
    dist_d = np.full(size, -1, dtype=np.int64)
    frontier = eu[mate_u[eu] < 0]
    dist_u[frontier] = 0
    k = 0
    while len(frontier):
        step = (dist_u[eu] == k) & (dist_d[ed] < 0)
        reached = ed[step]
        dist_d[reached] = k
        free = reached[mate_d[reached] < 0]
        if len(free):
            return dist_u, dist_d, np.unique(free)
        frontier = mate_d[reached]
        dist_u[frontier] = k + 1
        k += 1
    return dist_u, dist_d, frontier


def _augment(eu, ed, mate_u, mate_d, dist_u, dist_d, free_d, size) -> None:
    """Augment the matching along vertex-disjoint shortest alternating paths,
    one Hopcroft-Karp phase: an iterative depth-first search backwards from
    each free down-node through the layers to a free up-node."""
    order = np.argsort(ed, kind="stable")
    below = eu[order]
    start = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(ed, minlength=size), out=start[1:])
    used = np.zeros(size, dtype=bool)
    for d0 in free_d.tolist():
        downs, ups, pos = [d0], [], [int(start[d0])]
        while downs:
            d = downs[-1]
            layer, end = dist_d[d], start[d + 1]
            i = pos[-1]
            while i < end:
                u = int(below[i])
                i += 1
                if dist_u[u] == layer and not used[u]:
                    break
            else:
                downs.pop()
                pos.pop()
                if ups:
                    ups.pop()
                continue
            pos[-1] = i
            used[u] = True
            ups.append(u)
            if layer == 0:
                mate_u[ups] = downs
                mate_d[downs] = ups
                break
            downs.append(int(mate_u[u]))
            pos.append(int(start[downs[-1]]))


def _maximize(eu, ed, mate_u, mate_d, size) -> np.ndarray:
    """Grow the matching in place to a maximum one by Hopcroft-Karp phases.
    Returns the up-node layers of the last search, which reaches no free
    down-node: -1 on the up-nodes no alternating path from a free one
    reaches."""
    while True:
        dist_u, dist_d, free_d = _alternating_layers(eu, ed, mate_u, mate_d, size)
        if not len(free_d):
            return dist_u
        _augment(eu, ed, mate_u, mate_d, dist_u, dist_d, free_d, size)


def _isotonic_l1(h: np.ndarray, p: GridPartition) -> tuple[np.ndarray, int]:
    """Smallest L1 isotonic regression of ``h`` under the C2 and C1 pairs
    (lower, upper), and the number of minimum-cut levels it took. The pairs
    are built here from ``p``'s sections and freed on return; nothing is
    cached on a ``ConstraintSet``.

    Each node keeps an index interval [lo, hi) into the sorted distinct
    values. A level cuts every open interval at mid: a node ranked at or
    above mid (an up-node) gains 1 by going up, any other open node (a
    down-node) by going down, and no ordered pair inside one interval may
    send its lower node up and its upper node down. Paths through those
    uncuttable pairs may share nodes, so the level's minimum cut has the
    size of a maximum matching of up-nodes to the down-nodes one or two
    links above them in their interval. The smallest minimum cut sends up
    the unmatched up-nodes, closed under "matched down-node -> its partner"
    and under going up: the up-nodes that alternating paths from the free
    ones reach, and everything above them. That set is the same for every
    maximum matching.
    """
    vals, rank = np.unique(h, return_inverse=True)
    size = len(h)
    # every ordered pair (lower, upper): vertex-edge (the C2 rows), edge-face
    # (the C1 rows), vertex-face
    c1, c3 = _c1_rows(p), _c3_rows(p)
    vertex = np.repeat(c3[:, 0], 4)
    lower = np.concatenate([vertex, c1[:, 0], vertex])
    upper = np.concatenate([c3[:, 5:].ravel(), c1[:, 1], c3[:, 1:5].ravel()])
    del c1, c3, vertex
    lo = np.zeros(size, dtype=np.int64)
    hi = np.full(size, len(vals), dtype=np.int64)
    levels = 0
    while (is_open := hi - lo > 1).any():
        # a pair split between two intervals stays split; intervals of one
        # level are disjoint, so equal lo means one interval
        inside = is_open[lower] & (lo[lower] == lo[upper])
        lower, upper = lower[inside], upper[inside]
        mid = (lo + hi) // 2
        up = is_open & (rank >= mid)
        cross = up[lower] & ~up[upper]
        eu, ed = lower[cross], upper[cross]
        mate_u, mate_d = _maximal_matching(eu, ed, size)
        dist_u = _maximize(eu, ed, mate_u, mate_d, size)
        goes_up = up.copy()
        goes_up[eu[dist_u[eu] < 0]] = False
        # the pairs are closed under transitivity, so one pass closes upward
        goes_up[upper[goes_up[lower]]] = True
        lo = np.where(goes_up, mid, lo)
        hi = np.where(is_open & ~goes_up, mid, hi)
        levels += 1
    return vals[lo], levels


def _isotonic_linf(h: np.ndarray, p: GridPartition) -> np.ndarray:
    """L-infinity isotonic regression of ``h``: the midpoint of the largest
    value at or below each node and the smallest value at or above it.

    Each section takes the maximum (minimum) with its neighbours' slices,
    in the order of the C2 and C1 rows, so a tie between 0.0 and -0.0 keeps
    the sign a pass over the rows, one pair at a time, would keep."""
    below, above = h.copy(), h.copy()
    faces, hedges, vedges, vertices = p.sections(below)
    for lower, upper in ((vertices, hedges[:, 1:]), (vertices, hedges[:, :-1]), (vertices, vedges[1:]),
                         (vertices, vedges[:-1]), (hedges, faces[1:]), (hedges, faces[:-1]),
                         (vedges, faces[:, 1:]), (vedges, faces[:, :-1])):
        np.maximum(upper, lower, out=upper)
    faces, hedges, vedges, vertices = p.sections(above)
    for lower, upper in ((hedges, faces[:-1]), (hedges, faces[1:]), (vedges, faces[:, :-1]),
                         (vedges, faces[:, 1:]), (vertices, hedges[:, :-1]), (vertices, hedges[:, 1:]),
                         (vertices, vedges[:-1]), (vertices, vedges[1:])):
        np.minimum(lower, upper, out=lower)
    return (below + above) / 2


def infer(
    hn: EulerHistogram,
    cs: ConstraintSet | None = None,
    objective: str = "l1",
) -> tuple[EulerHistogram, SolveReport]:
    """Project a NOISY histogram onto the constraint polytope, minimizing the
    L1 (``"l1"``) or the largest (``"linf"``) deviation from its counts."""
    if hn.state is not HistogramState.NOISY:
        raise ValueError(f"infer expects a NOISY histogram, got {hn.state.value}")
    if objective not in ("l1", "linf"):
        raise ValueError(f"objective must be 'l1' or 'linf', got {objective!r}")
    if cs is None:
        cs = build_constraints(hn.partition)
    t0 = time.perf_counter()
    if objective == "l1":
        x, levels = _isotonic_l1(hn.counts, hn.partition)
    else:
        x, levels = _isotonic_linf(hn.counts, hn.partition), 0
    # Clipping an isotonic optimum at 0 keeps it isotonic, and optimal under
    # x >= 0 too, which noisy counts below zero need.
    counts = np.maximum(x, 0.0)
    wall = time.perf_counter() - t0
    deviation = np.abs(counts - hn.counts)
    objective_value = deviation.sum() if objective == "l1" else deviation.max()
    c1, c2, negative = cs.violation_counts(counts)
    if c1 or c2 or negative:  # isotonic and clipped at 0, so exact: this is a bug
        raise RuntimeError(f"inference left rows still violated: c1={c1} c2={c2} negative={negative}")
    report = SolveReport(float(objective_value), levels, wall)
    return hn.with_counts(counts, HistogramState.CONSISTENT), report
