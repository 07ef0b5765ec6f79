"""Continuously monitored decaying qubit: trajectories and the measure change.

The same physical expectation can be estimated two ways: simulate the
linear equation under the reference measure and reweight by the
squared norm, or simulate the normalized equation under the physical
measure directly.  The two estimates must agree.

Run: python3 demos/measurement_record.py
"""

import numpy as np

from ousse import (SeedPolicy, TimeGrid, girsanov_crosscheck,
                   make_measurement_model, observable_series, propagate,
                   run_ensemble, sigma_minus, sigma_z)

DT = 1e-3
T = 1.0
N_TRAJ = 4000
SEED = 23

m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
grid = TimeGrid(DT, int(round(T / DT)))
excited = np.array([1.0, 0.0], dtype=complex)

print("three individual measurement records (conditional <sigma_z>):")
for i in range(3):
    traj = propagate("nonlinear", excited, SeedPolicy(SEED).stream(i), m, grid)
    zs = [float(np.real(np.vdot(traj.states[k], sigma_z @ traj.states[k])))
          for k in (0, 250, 500, 750, 1000)]
    print(f"  path {i}: " + "  ".join(f"{z:+.3f}" for z in zs))
print()

est = run_ensemble(m, grid, N_TRAJ, SeedPolicy(SEED), "nonlinear", excited,
                   output_nodes=[0, 250, 500, 750, 1000])
print(f"ensemble mean of <sigma_z> over {N_TRAJ} trajectories:")
for t, mean, se in observable_series(est, sigma_z):
    print(f"  t = {t:4.2f}:  {mean:+.4f} +/- {se:.4f}")
print()

print("change of measure: weighted reference runs vs physical runs")
# independent substreams, so the two estimates are independent
seeds = SeedPolicy(SEED + 1)
nodes = [grid.node(t) for t in (0.25, 0.5, 1.0)]
reference = run_ensemble(m, grid, N_TRAJ, seeds.substream("girsanov-reference"), "linear",
                         excited, output_nodes=nodes)
physical = run_ensemble(m, grid, N_TRAJ, seeds.substream("girsanov-physical"), "nonlinear",
                        excited, output_nodes=nodes)
report = girsanov_crosscheck(reference, physical, sigma_z)
for e in report.entries:
    print(f"  t = {e.time:4.2f}:  |difference| = {e.statistic:.4f}"
          f"  (allowed {e.threshold:.4f})  {'ok' if e.passed else 'MISMATCH'}")
print(f"overall: {'pass' if report.passed else 'FAIL'}")
