"""
Releasing a private histogram end to end
=========================================

From raw GPS pings to a publishable count structure in five stages:
extract one convex region per user, tally the grid, add calibrated noise,
restore consistency, then round and repair so the release looks like an
ordinary exact histogram. The released file carries only public
parameters; raw tallies, noise values, and seeds never leave this script.
"""

import io
import math
import pathlib
import tempfile

import numpy as np

from eulerdp import (
    PrivacyParams,
    QueryRegion,
    RandomSource,
    build,
    build_partition,
    global_sensitivity,
    infer,
    min_rectangle_count,
    perturb,
    query,
    repair,
    round_counts,
    verify_violations,
)
from eulerdp.fileio import read_tracks, write_histogram_file
from eulerdp.ingest import IngestConfig, ingest_tracks

rng = np.random.default_rng(20240817)

# ---------------------------------------------------------------- tracks ---
# Fake a town's worth of pings: forty users, each hovering around one of
# three hangouts. Coordinates are degrees, so convert meter offsets back
# through the local scale factors.
CENTER = (47.62, -122.33)
M_PER_DEG_LAT = 111194.92664455873
M_PER_DEG_LON = M_PER_DEG_LAT * math.cos(math.radians(CENTER[0]))

hangouts = np.array([[-800.0, -600.0], [300.0, 500.0], [900.0, -200.0], [-400.0, 900.0]])
lines = ["user_id, lat, lon"]
for u in range(1500):
    home = hangouts[u % len(hangouts)]
    for _ in range(30):
        x, y = home + rng.normal(0.0, 150.0, 2)
        lines.append(
            f"u{u:03d}, {CENTER[0] + y / M_PER_DEG_LAT:.6f}, {CENTER[1] + x / M_PER_DEG_LON:.6f}"
        )
tracks = read_tracks(io.StringIO("\n".join(lines) + "\n"))

config = IngestConfig(area_side=4000.0, diameter_bound=800.0, k=20, center=CENTER)
bodies, ids, skipped = ingest_tracks(tracks, config)
print(f"{len(bodies)} users ingested, {len(skipped)} skipped")

# -------------------------------------------------------------- pipeline ---
p = build_partition(4000.0, 5)  # 5x5 grid, 800 m cells
raw = build(bodies, p, diameter_bound=800.0)

params = PrivacyParams.for_partition(1.0, 800.0, p)
print(f"noise scale: sensitivity {global_sensitivity(800.0, p.cell_side)} / epsilon 1.0 = "
      f"{params.noise_scale(p.cell_side):g}")

noisy = perturb(raw, params, RandomSource(4242))
consistent, report = infer(noisy)
released, cost = repair(round_counts(consistent))

print("violations (c1, c2, negative), noisy -> consistent -> released:",
      verify_violations(noisy), "->", verify_violations(consistent),
      "->", verify_violations(released))
worst, where = min_rectangle_count(released)
print(f"smallest rectangle answer in the release: {worst:g} "
      f"(rows {where.r0}..{where.r1}, cols {where.c0}..{where.c1})")

# --------------------------------------------------------------- queries ---
print("\nwindow                      true  released")
for qr in (QueryRegion(0, 4, 0, 4), QueryRegion(0, 2, 0, 2), QueryRegion(3, 4, 1, 3)):
    print(f"rows {qr.r0}..{qr.r1} cols {qr.c0}..{qr.c1}    "
          f"{query(raw, qr):5d} {query(released, qr):9d}")

# ---------------------------------------------------------------- output ---
out = pathlib.Path(tempfile.mkdtemp()) / "release.hist"
write_histogram_file(released, str(out))
print(f"\nrelease written to {out}; header:")
for line in out.read_text().splitlines()[:8]:
    print("   ", line)
