"""Constrained inference: project noisy counts back onto the consistent set.

Raw histograms satisfy structural constraints that independent noise destroys:

* C1: an edge count never exceeds either incident face count (2 rows per edge);
* C2: a vertex count never exceeds any of its four incident edge counts
  (4 rows per vertex);
* C3: around each vertex, faces minus edges plus the vertex is non-negative
  (one aggregate row per vertex).

Inference finds non-negative counts satisfying all rows while staying close to
the noisy input: the default program minimizes the L1 deviation via one
residual variable per component; the alternative minimizes the worst-case
deviation via a single shared residual. Both are linear programs; since they
depend on the noisy counts only, solving them is post-processing and spends no
extra privacy budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridPartition
from .histogram import EulerHistogram, HistogramState

# scipy is imported inside _assemble and solve, so commands that build no LP
# never pay for loading it
if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint rows for one partition, in canonical order.

    ``c1`` holds (edge, face) dense-index pairs ordered by edge then by the
    edge's face order; ``c2`` holds (vertex, edge) pairs ordered by vertex
    then edge; ``c3`` holds one row (vertex, f1..f4, e1..e4) per vertex.
    """

    partition: GridPartition
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray

    @property
    def counts_by_family(self) -> tuple[int, int, int]:
        return len(self.c1), len(self.c2), len(self.c3)

    def c1_excess(self, counts: np.ndarray) -> np.ndarray:
        return counts[self.c1[:, 0]] - counts[self.c1[:, 1]]

    def c2_excess(self, counts: np.ndarray) -> np.ndarray:
        return counts[self.c2[:, 0]] - counts[self.c2[:, 1]]

    def c3_excess(self, counts: np.ndarray) -> np.ndarray:
        faces = counts[self.c3[:, 1:5]].sum(axis=1)
        edges = counts[self.c3[:, 5:9]].sum(axis=1)
        return edges - faces - counts[self.c3[:, 0]]

    def violation_counts(self, counts: np.ndarray, tol: float = 0.0) -> tuple[int, int, int]:
        return (
            int((self.c1_excess(counts) > tol).sum()),
            int((self.c2_excess(counts) > tol).sum()),
            int((self.c3_excess(counts) > tol).sum()),
        )


def build_constraints(p: GridPartition) -> ConstraintSet:
    n = p.n
    # Horizontal edge local index k maps to faces (k, k + n): both sections
    # are row-major over the same columns.
    hk = np.arange(p.n_hedges)
    h_edges = p.hedge_offset + hk
    h_f1, h_f2 = hk, hk + n
    vk = np.arange(p.n_vedges)
    vr, vc = vk // (n - 1), vk % (n - 1)
    v_edges = p.vedge_offset + vk
    v_f1, v_f2 = vr * n + vc, vr * n + vc + 1

    edges = np.concatenate([h_edges, v_edges])
    f1 = np.concatenate([h_f1, v_f1])
    f2 = np.concatenate([h_f2, v_f2])
    c1 = np.empty((2 * len(edges), 2), dtype=np.int64)
    c1[0::2, 0] = edges
    c1[0::2, 1] = f1
    c1[1::2, 0] = edges
    c1[1::2, 1] = f2

    xk = np.arange(p.n_vertices)
    xr, xc = xk // (n - 1), xk % (n - 1)
    verts = p.vertex_offset + xk
    e_around = np.column_stack([
        p.hedge_offset + xr * n + xc,
        p.hedge_offset + xr * n + xc + 1,
        p.vedge_offset + xk,
        p.vedge_offset + xk + (n - 1),
    ])
    c2 = np.empty((4 * len(verts), 2), dtype=np.int64)
    c2[:, 0] = np.repeat(verts, 4)
    c2[:, 1] = e_around.ravel()

    f_around = np.column_stack([
        xr * n + xc,
        xr * n + xc + 1,
        (xr + 1) * n + xc,
        (xr + 1) * n + xc + 1,
    ])
    c3 = np.column_stack([verts, f_around, e_around]).astype(np.int64)
    return ConstraintSet(p, c1, c2, c3)


# Solver dust tolerance for real-valued counts: a row whose excess stays at
# or below this still counts as satisfied.
REAL_TOL = 1e-7


@dataclass
class LinearProgram:
    """Minimize c @ x s.t. a_ub @ x <= b_ub, x >= 0.

    Rows are the lower residual rows of every component, then the upper
    ones, then the rows of ``constraints`` family by family.
    """

    c: np.ndarray
    a_ub: sp.csr_matrix
    b_ub: np.ndarray
    kind: str
    constraints: ConstraintSet

    @property
    def n_components(self) -> int:
        return self.constraints.partition.size

    @property
    def n_rows(self) -> int:
        return len(self.b_ub)


@dataclass
class SolveReport:
    status: str
    objective: float | None
    iterations: int
    wall_time: float


# C3 row coefficients in ConstraintSet.c3 column order: vertex, 4 faces, 4 edges.
_C3_COEFS = np.array([-1.0] * 5 + [1.0] * 4)


def _constraint_rows(
    cs: ConstraintSet, row_offset: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C1 then C2 rows ``x[a] - x[b] <= 0``, then C3 rows, numbered from
    ``row_offset``."""
    pairs = np.concatenate([cs.c1, cs.c2])
    k = len(pairs)
    rows = np.concatenate([
        np.repeat(np.arange(row_offset, row_offset + k), 2),
        np.repeat(np.arange(row_offset + k, row_offset + k + len(cs.c3)), 9),
    ])
    cols = np.concatenate([pairs.ravel(), cs.c3.ravel()])
    vals = np.concatenate([np.tile([1.0, -1.0], k), np.tile(_C3_COEFS, len(cs.c3))])
    return rows, cols, vals


def _residual_rows(n: int, resid_col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows |x_i - h_i| <= r: first all lower rows, then all upper rows.
    ``resid_col`` maps component index to its residual variable column."""
    i = np.arange(n)
    rows = np.concatenate([np.repeat(i, 2), np.repeat(n + i, 2)])
    pair = np.column_stack([i, resid_col]).ravel()
    cols = np.concatenate([pair, pair])
    vals = np.concatenate([
        np.tile([-1.0, -1.0], n),
        np.tile([1.0, -1.0], n),
    ])
    return rows, cols, vals


def _assemble(
    hn: EulerHistogram, cs: ConstraintSet, kind: str
) -> LinearProgram:
    import scipy.sparse as sp

    n = cs.partition.size
    if kind == "l1":
        n_vars = 2 * n
        resid_col = np.arange(n, 2 * n)
        c = np.concatenate([np.zeros(n), np.ones(n)])
    else:
        n_vars = n + 1
        resid_col = np.full(n, n)
        c = np.concatenate([np.zeros(n), [1.0]])

    r_rows, r_cols, r_vals = _residual_rows(n, resid_col)
    c_rows, c_cols, c_vals = _constraint_rows(cs, 2 * n)
    total_rows = 2 * n + sum(cs.counts_by_family)
    rows = np.concatenate([r_rows, c_rows])
    cols = np.concatenate([r_cols, c_cols])
    vals = np.concatenate([r_vals, c_vals])
    a_ub = sp.coo_matrix((vals, (rows, cols)), shape=(total_rows, n_vars)).tocsr()
    b_ub = np.concatenate([-hn.counts, hn.counts, np.zeros(total_rows - 2 * n)])
    return LinearProgram(c, a_ub, b_ub, kind, cs)


def build_lad_program(hn: EulerHistogram, cs: ConstraintSet) -> LinearProgram:
    """Least-absolute-deviations program: one residual per component."""
    return _assemble(hn, cs, "l1")


def build_linf_program(hn: EulerHistogram, cs: ConstraintSet) -> LinearProgram:
    """Minimax program: a single residual bounds every deviation."""
    return _assemble(hn, cs, "linf")


_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded"}


def solve(lp: LinearProgram) -> tuple[np.ndarray | None, SolveReport]:
    """Solve with the HiGHS backend; deterministic for a fixed program."""
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, bounds=(0, None), method="highs")
    wall = time.perf_counter() - t0
    status = _STATUS.get(res.status, "error")
    report = SolveReport(
        status=status,
        objective=float(res.fun) if res.fun is not None else None,
        iterations=int(res.nit),
        wall_time=wall,
    )
    if res.x is None:
        return None, report
    counts = np.maximum(res.x[: lp.n_components], 0.0)  # clamp solver dust
    return counts, report


def infer(
    hn: EulerHistogram,
    cs: ConstraintSet | None = None,
    objective: str = "l1",
    dump_path: str | None = None,
) -> tuple[EulerHistogram, SolveReport]:
    """Project a NOISY histogram onto the constraint polytope."""
    if hn.state is not HistogramState.NOISY:
        raise ValueError(f"infer expects a NOISY histogram, got {hn.state.value}")
    if objective not in ("l1", "linf"):
        raise ValueError(f"objective must be 'l1' or 'linf', got {objective!r}")
    if cs is None:
        cs = build_constraints(hn.partition)
    lp = build_lad_program(hn, cs) if objective == "l1" else build_linf_program(hn, cs)
    if dump_path is not None:
        with open(dump_path, "w") as f:
            f.write(write_lp_text(lp))
    counts, report = solve(lp)
    if counts is None or report.status in ("infeasible", "unbounded", "error"):
        # The polytope always contains the raw histogram, so this is a bug,
        # not a data problem.
        raise RuntimeError(f"inference solve failed with status {report.status}")
    violated = cs.violation_counts(counts, REAL_TOL)
    if violated != (0, 0, 0):
        # e.g. an iteration-limit stop: the counts are not CONSISTENT.
        raise RuntimeError(
            f"inference solve ended with status {report.status} and "
            f"C1/C2/C3 rows still violated: {violated}"
        )
    return hn.with_counts(counts, HistogramState.CONSISTENT), report


def _lp_names(lp: LinearProgram) -> tuple[list[str], list[str]]:
    """Variable and row names, in column and row order."""
    cs = lp.constraints
    n = cs.partition.n
    comp = (
        [f"f{r}_{c}" for r in range(n) for c in range(n)]
        + [f"he{r}_{c}" for r in range(n - 1) for c in range(n)]
        + [f"ve{r}_{c}" for r in range(n) for c in range(n - 1)]
        + [f"x{r}_{c}" for r in range(n - 1) for c in range(n - 1)]
    )
    resid = [f"r_{lab}" for lab in comp] if lp.kind == "l1" else ["r_max"]
    var_names = [f"x_{lab}" for lab in comp] + resid
    row_names = (
        [f"lo_{lab}" for lab in comp]
        + [f"hi_{lab}" for lab in comp]
        + [f"c1_{comp[e]}_{comp[f]}" for e, f in cs.c1.tolist()]
        + [f"c2_{comp[v]}_{comp[e]}" for v, e in cs.c2.tolist()]
        + [f"c3_{comp[v]}" for v in cs.c3[:, 0].tolist()]
    )
    return var_names, row_names


def write_lp_text(lp: LinearProgram) -> str:
    """Serialize in LP interchange format (CPLEX dialect). Deterministic:
    fixed row order, repr-formatted coefficients."""
    var_names, row_names = _lp_names(lp)
    lines = [f"\\ kind={lp.kind} components={lp.n_components}", "Minimize"]
    obj_terms = [var_names[j] for j in np.nonzero(lp.c)[0]]
    for i in range(0, max(len(obj_terms), 1), 8):
        chunk = " + ".join(obj_terms[i : i + 8])
        prefix = " obj: " if i == 0 else "      + "
        if chunk:
            lines.append(prefix + chunk)
    lines.append("Subject To")
    indptr, indices, data = lp.a_ub.indptr, lp.a_ub.indices, lp.a_ub.data
    for r in range(lp.n_rows):
        terms = []
        for k in range(indptr[r], indptr[r + 1]):
            coef, var = data[k], var_names[indices[k]]
            sign = "-" if coef < 0 else "+"
            mag = "" if abs(coef) == 1.0 else f"{float(abs(coef))!r} "
            terms.append(f"{sign} {mag}{var}")
        body = " ".join(terms).removeprefix("+ ")
        lines.append(f" {row_names[r]}: {body} <= {float(lp.b_ub[r])!r}")
    lines.append("Bounds")
    lines.append("\\ all variables >= 0 (LP-format default)")
    lines.append("End")
    return "\n".join(lines) + "\n"
