"""Differentially private rectangle counting over convex planar regions.

The pipeline: build an exact grid histogram that counts each body once per
query via face/edge/vertex bookkeeping, add calibrated Laplace noise, project
the noisy counts back onto the consistency constraints with a linear program,
then round (and repair) so the release looks like an ordinary count table.
Any number of rectangle queries can then be answered from the released
structure at no further privacy cost.
"""

from .geometry import ConvexBody, convex_hull, diameter
from .grid import ComponentId, ComponentKind, GridPartition, Orientation, build_partition
from .histogram import (
    BodyValidationError,
    EulerHistogram,
    HistogramState,
    QueryRegion,
    build,
    min_rectangle_count,
    query,
    validate_bodies,
)
from .inference import (
    ConstraintSet,
    LinearProgram,
    SolveReport,
    build_constraints,
    build_lad_program,
    build_linf_program,
    infer,
    solve,
    write_lp_text,
)
from .ingest import (
    EmptyTrackError,
    IngestConfig,
    IngestError,
    UserTrack,
    extract_body,
    generate_synthetic,
    ingest_tracks,
    kde_density,
    kde_mode,
    project,
)
from .privacy import (
    PrivacyParams,
    RandomSource,
    ZeroNoiseSource,
    derive_seed,
    global_sensitivity,
    laplace_inverse_cdf,
    perturb,
    sensitivity_closed_form,
    utility_bound_dp,
    utility_bound_end_to_end,
)
from .rounding import RepairReport, repair, round_counts, verify_violations
from .harness import (
    ConfigError,
    ExperimentConfig,
    MetricsReport,
    config_from_mapping,
    load_experiment_bodies,
    resolve_grid_n,
    run_query_experiment,
    shapes_for_percent,
    write_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "BodyValidationError",
    "ComponentId",
    "ComponentKind",
    "ConfigError",
    "ConstraintSet",
    "ConvexBody",
    "EmptyTrackError",
    "EulerHistogram",
    "ExperimentConfig",
    "GridPartition",
    "HistogramState",
    "IngestConfig",
    "IngestError",
    "LinearProgram",
    "MetricsReport",
    "Orientation",
    "PrivacyParams",
    "QueryRegion",
    "RandomSource",
    "RepairReport",
    "SolveReport",
    "UserTrack",
    "ZeroNoiseSource",
    "build",
    "build_constraints",
    "build_lad_program",
    "build_linf_program",
    "build_partition",
    "config_from_mapping",
    "convex_hull",
    "derive_seed",
    "diameter",
    "extract_body",
    "generate_synthetic",
    "global_sensitivity",
    "infer",
    "ingest_tracks",
    "kde_density",
    "kde_mode",
    "laplace_inverse_cdf",
    "load_experiment_bodies",
    "min_rectangle_count",
    "perturb",
    "project",
    "query",
    "repair",
    "resolve_grid_n",
    "round_counts",
    "run_query_experiment",
    "sensitivity_closed_form",
    "shapes_for_percent",
    "solve",
    "utility_bound_dp",
    "utility_bound_end_to_end",
    "validate_bodies",
    "verify_violations",
    "write_lp_text",
    "write_metrics",
]
