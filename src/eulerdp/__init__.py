"""Differentially private rectangle counting over convex planar regions.

The pipeline: build an exact grid histogram that counts each body once per
query via face/edge/vertex bookkeeping, add calibrated Laplace noise, project
the noisy counts back onto the consistency constraints by isotonic regression,
then round (and repair) so the release looks like an ordinary count table.
Any number of rectangle queries can then be answered from the released
structure at no further privacy cost.
"""

from .geometry import ConvexBody, convex_hull, diameter
from .grid import GridPartition, build_partition
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
    SolveReport,
    build_constraints,
    infer,
)
from .ingest import (
    IngestConfig,
    IngestError,
    UserTrack,
    generate_synthetic,
    ingest_tracks,
)
from .privacy import (
    PrivacyParams,
    RandomSource,
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
    "ConfigError",
    "ConstraintSet",
    "ConvexBody",
    "EulerHistogram",
    "ExperimentConfig",
    "GridPartition",
    "HistogramState",
    "IngestConfig",
    "IngestError",
    "MetricsReport",
    "PrivacyParams",
    "QueryRegion",
    "RandomSource",
    "RepairReport",
    "SolveReport",
    "UserTrack",
    "build",
    "build_constraints",
    "build_partition",
    "config_from_mapping",
    "convex_hull",
    "derive_seed",
    "diameter",
    "generate_synthetic",
    "global_sensitivity",
    "infer",
    "ingest_tracks",
    "laplace_inverse_cdf",
    "load_experiment_bodies",
    "min_rectangle_count",
    "perturb",
    "query",
    "repair",
    "resolve_grid_n",
    "round_counts",
    "run_query_experiment",
    "sensitivity_closed_form",
    "shapes_for_percent",
    "utility_bound_dp",
    "utility_bound_end_to_end",
    "validate_bodies",
    "verify_violations",
    "write_metrics",
]
