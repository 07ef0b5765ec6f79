"""Acceptance battery: the ten headline guarantees, one test each.

Every test prints a single pass line (visible with ``pytest -s``) and
enforces its own runtime budget, so the whole battery doubles as a
performance smoke test.
"""

import time

import numpy as np
import pytest

from ousse import (
    SeedPolicy,
    TimeGrid,
    build_liouvillian,
    dephasing_coherence,
    exact_commuting_solution,
    girsanov_crosscheck,
    make_measurement_model,
    make_random_hamiltonian,
    martingale_check,
    mean_equation_residual,
    ou_covariance_check,
    propagate,
    propagate_lindblad,
    run_ensemble,
    sample_wiener,
    sigma_minus,
    sigma_x,
    sigma_z,
    step,
)

from ousse.ensemble import _consistency_report

from conftest import random_model, random_unit_state

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
E0 = np.array([1.0, 0.0], dtype=complex)
Z2 = np.zeros((2, 2))


class budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit}s budget")
        return False


def ok(n, label, b):
    print(f"[criterion {n}] {label}: PASS ({b.elapsed:.2f}s)")


def test_criterion_01_consistency_condition():
    # D_j + D_j^dag + sum_{k+l=j} b_l^dag b_k = 0 on the drift coefficients the vector steps
    # run, power by power; the verify suite passes on every stepped coefficient too
    with budget(1.0) as b:
        rng = np.random.default_rng(101)
        for _ in range(100):
            m = random_model(rng)
            bc = m.b_poly.coefficients
            for j, dj in enumerate(m._drift):
                bb = sum(bl.conj().T @ bk for k, bk in enumerate(bc) for l, bl in enumerate(bc)
                         if k + l == j)
                tol = 1e-12 * (1.0 + float(np.abs(dj).max()))
                assert np.abs(dj + dj.conj().T + bb).max() <= tol
            assert _consistency_report(m).passed
    ok(1, "consistency condition on 100 random models", b)


def test_criterion_02_martingale_weight():
    with budget(60.0) as b:
        m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
        grid = TimeGrid(1e-3, 1000)
        est = run_ensemble(m, grid, 10**4, SeedPolicy(202), "linear", E0)
        report = martingale_check(est, c_disc=5.0)
        assert report.passed
        for e in report.entries:
            assert e.statistic <= e.threshold
    ok(2, "mean weight stays at one", b)


def _refined_paths(model, base, levels, n_paths, seed, psi0):
    """Worst norm drift and terminal states per refinement level."""
    out = []
    for level in levels:
        grid = base.refined(level)
        sup = 0.0
        finals = []
        for i in range(n_paths):
            dw = sample_wiener(base, SeedPolicy(seed).stream(i), level)
            traj = propagate("linear", psi0, dw, model, grid)
            sup = max(sup, float(np.max(np.abs(traj.weights - 1.0))))
            finals.append((traj.states[-1], float(traj.X[-1])))
        out.append((sup, finals))
    return out


def test_criterion_03_pathwise_unitarity_order():
    with budget(10.0) as b:
        m = make_random_hamiltonian(sigma_z, sigma_x, 1.0)
        base = TimeGrid(4e-3, 250)
        sups = [s for s, _ in _refined_paths(m, base, (0, 2, 4), 20, 303, E0)]
        assert sups[0] > sups[1] > sups[2]
        assert 1.5 <= sups[0] / sups[1] <= 2.7
        assert 1.5 <= sups[1] / sups[2] <= 2.7
    ok(3, f"norm drift halves per 4x refinement (ratios "
          f"{sups[0] / sups[1]:.2f}, {sups[1] / sups[2]:.2f})", b)


def test_criterion_04_strong_order_against_commuting_solution():
    with budget(30.0) as b:
        m = make_random_hamiltonian(Z2, sigma_z, 1.0)
        base = TimeGrid(4e-3, 250)
        errs = []
        for _, finals in _refined_paths(m, base, (0, 2, 4), 100, 404, PLUS):
            sq = [np.linalg.norm(psi - exact_commuting_solution(PLUS, Z2, sigma_z, x, 1.0)) ** 2
                  for psi, x in finals]
            errs.append(float(np.sqrt(np.mean(sq))))
        assert 1.6 <= errs[0] / errs[1] <= 2.6
        assert 1.6 <= errs[1] / errs[2] <= 2.6
    ok(4, f"strong order 1/2 vs the commuting closed form (ratios "
          f"{errs[0] / errs[1]:.2f}, {errs[1] / errs[2]:.2f})", b)


def test_criterion_05_coloured_dephasing_coherence():
    with budget(60.0) as b:
        m = make_random_hamiltonian(Z2, sigma_z, 1.0)
        grid = TimeGrid(1e-3, 1000)
        est = run_ensemble(m, grid, 10**4, SeedPolicy(505), "linear", PLUS,
                           output_nodes=[0, 500, 1000])
        target = 0.5 * dephasing_coherence(1.0, 1.0)
        assert target == pytest.approx(0.2106, abs=5e-5)
        got = abs(est.eta[-1][0, 1])
        se = float(est.eta_stderr[-1][0, 1])
        assert abs(got - target) <= 3.0 * se + 5.0 * grid.dt
    ok(5, f"coherence at t=1 is {got:.4f} vs {target:.4f}", b)


def test_criterion_06_markovian_limit():
    with budget(60.0) as b:
        m = make_random_hamiltonian(Z2, sigma_z, 0.0)
        grid = TimeGrid(1e-3, 1000)
        est = run_ensemble(m, grid, 10**4, SeedPolicy(606), "linear", PLUS)
        liou = build_liouvillian(Z2, m.b_poly.coefficients[0])
        rho0 = np.outer(PLUS, PLUS)
        for j, t in enumerate(est.times):
            ref = propagate_lindblad(liou, rho0, float(t))
            assert abs(ref[0, 1] - 0.5 * np.exp(-2.0 * float(t))) < 1e-10
            dev = abs(est.eta[j][0, 1] - ref[0, 1])
            assert dev <= 3.0 * float(est.eta_stderr[j][0, 1]) + 5.0 * grid.dt
    ok(6, "white-noise limit reproduces the semigroup", b)


def test_criterion_07_girsanov_crosscheck():
    with budget(120.0) as b:
        m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
        grid = TimeGrid(1e-3, 1000)
        seeds = SeedPolicy(707)
        nodes = [grid.node(t) for t in (0.25, 0.5, 1.0)]
        reference = run_ensemble(m, grid, 10**4, seeds.substream("girsanov-reference"),
                                 "linear", E0, output_nodes=nodes)
        physical = run_ensemble(m, grid, 10**4, seeds.substream("girsanov-physical"),
                                "nonlinear", E0, output_nodes=nodes)
        report = girsanov_crosscheck(reference, physical, sigma_z, c_disc=5.0)
        assert report.passed
        for e in report.entries:
            assert e.statistic <= e.threshold
    ok(7, "weighted and physical averages agree", b)


def test_criterion_08_mean_equation_residual():
    with budget(120.0) as b:
        m = make_random_hamiltonian(Z2, sigma_z, 1.0)
        grid = TimeGrid(5e-2, 20)
        nodes = list(range(0, 21, 2))
        coarse = run_ensemble(m, grid, 10**4, SeedPolicy(808), "linear", PLUS,
                              output_nodes=nodes)
        fine = run_ensemble(m, grid, 10**4, SeedPolicy(808), "linear", PLUS,
                            output_nodes=nodes, level=1)
        rc = mean_equation_residual(m, coarse)
        rf = mean_equation_residual(m, fine)
        assert rc.passed and rf.passed
        for route in ("assembled", "generator"):
            assert rf.details["mean_residual"][route] < rc.details["mean_residual"][route]
    ok(8, "mean-state residual shrinks when dt halves", b)


def test_criterion_09_ou_covariance_surface():
    with budget(30.0) as b:
        grid = TimeGrid(1e-3, 1000)
        nodes = [200, 400, 600, 800, 1000]
        for gamma in (0.0, 0.5, 2.0):
            report = ou_covariance_check(SeedPolicy(909).substream(f"gamma-{gamma}"),
                                         grid, gamma, 10**5, nodes)
            assert len(report.entries) == 15
            assert report.passed, (gamma, report.details)
    ok(9, "covariance surface matches the closed form for three rates", b)


def test_criterion_10_nonlinear_linear_identity():
    with budget(1.0) as b:
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            d = int(rng.integers(2, 4))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = make_random_hamiltonian(h + h.conj().T, k + k.conj().T, float(rng.uniform(0, 2)))
            psi = random_unit_state(rng, d)
            x = float(rng.normal())
            dt = 1e-3
            dw = float(rng.normal()) * np.sqrt(dt)
            nl, mv = step("nonlinear", psi, x, dw, dt, m)
            assert mv == 0.0
            lin = step("linear", psi, x, dw, dt, m)[0]
            lin = lin / np.linalg.norm(lin)
            assert np.max(np.abs(nl - lin)) <= 1e-12
    ok(10, "nonlinear step equals the normalized linear step", b)
