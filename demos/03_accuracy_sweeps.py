"""
How accuracy moves with the privacy budget and query size
==========================================================

Two rules of thumb, measured rather than asserted. First, halving epsilon
doubles the noise, so relative error climbs as the budget shrinks. Second,
bigger query windows aggregate more signal against the same noise floor,
so their relative error falls. The experiment harness repeats the whole
pipeline with fresh noise per repetition and reports pooled medians.
"""

import sys

from eulerdp.harness import ExperimentConfig, run_query_experiment, write_metrics

PERCENTS = (10.0, 25.0, 50.0)


def sweep(epsilon):
    # 10x10 grid of 500 m cells, regions no wider than a cell, synthetic
    # clustered population. Same seed everywhere: only epsilon varies.
    return run_query_experiment(ExperimentConfig(
        area_side=5000.0,
        cell_side=500.0,
        diameter_bound=500.0,
        epsilon=epsilon,
        synthetic="clustered",
        count=4000,
        repetitions=12,
        seed=99,
        qr_percents=PERCENTS,
    ))


reports = {eps: sweep(eps) for eps in (0.25, 1.0, 4.0)}

print("median relative error of released answers (R), by window size\n")
print("epsilon " + "".join(f"{f'{p:g}% area':>12}" for p in PERCENTS))
for eps, report in reports.items():
    row = "".join(f"{report.median_error(f'{p:g}%', 'R'):12.3f}" for p in PERCENTS)
    print(f"{eps:7.2f} {row}")

print("\nnoisy counts (DP) vs constrained (C) vs release (R), epsilon = 1:\n")
write_metrics(reports[1.0], sys.stdout)
