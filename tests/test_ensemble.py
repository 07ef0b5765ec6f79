import dataclasses
import logging
import multiprocessing
import tracemalloc
import types

import numpy as np
import pytest

from ousse import (
    DivergenceError,
    EnsembleEstimate,
    SeedPolicy,
    TimeGrid,
    ValidationError,
    dephasing_coherence,
    girsanov_crosscheck,
    lindblad_apply,
    make_measurement_model,
    make_random_hamiltonian,
    martingale_check,
    matrix_exp,
    mean_equation_residual,
    observable_series,
    ou_covariance_check,
    outer,
    propagate,
    run_ensemble,
    sample_wiener,
    sigma_minus,
    sigma_x,
    sigma_z,
)
from ousse import ensemble, parallel
from ousse.model import OperatorPolynomial

from conftest import (MODE_IDS, MODES_AND_KINDS, random_hermitian, random_model,
                      random_operator, random_unit_state)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
E0 = np.array([1.0, 0.0], dtype=complex)


def dephasing_model(gamma=1.0):
    return make_random_hamiltonian(np.zeros((2, 2)), sigma_z, gamma)


def zero_model():
    z = np.zeros((2, 2))
    return make_random_hamiltonian(z, z, 0.0)


def test_zero_model_is_exact():
    grid = TimeGrid(1e-2, 100)
    est = run_ensemble(zero_model(), grid, 16, SeedPolicy(1), "linear", E0)
    rho0 = outer(E0)
    for j in range(est.times.size):
        assert np.array_equal(est.eta[j], rho0)
    assert np.array_equal(est.mean_weight, np.ones_like(est.mean_weight))
    assert np.all(est.mean_weight_stderr == 0.0)
    assert np.all(est.eta_stderr == 0.0)
    assert martingale_check(est).passed


def test_trace_equals_mean_weight():
    grid = TimeGrid(1e-2, 100)
    est = run_ensemble(dephasing_model(), grid, 400, SeedPolicy(2), "linear", PLUS)
    traces = np.real(np.trace(est.eta, axis1=1, axis2=2))
    assert np.max(np.abs(traces - est.mean_weight)) < 1e-10


def test_eta_structure():
    grid = TimeGrid(1e-2, 100)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    est = run_ensemble(m, grid, 300, SeedPolicy(3), "nonlinear", E0)
    assert est.mode == "nonlinear"
    assert est.n_used == 300
    herm = np.max(np.abs(est.eta - est.eta.conj().transpose(0, 2, 1)))
    assert herm < 1e-12
    # physical-mode averages of projectors stay unit trace and near-PSD
    traces = np.real(np.trace(est.eta, axis1=1, axis2=2))
    assert np.max(np.abs(traces - 1.0)) < 1e-10
    eigs = np.linalg.eigvalsh(est.eta)
    assert eigs.min() > -1e-10


def test_bitwise_determinism():
    grid = TimeGrid(1e-2, 50)
    m = dephasing_model()
    a = run_ensemble(m, grid, 150, SeedPolicy(4), "linear", PLUS)
    b = run_ensemble(m, grid, 150, SeedPolicy(4), "linear", PLUS)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.mean_weight, b.mean_weight)
    assert np.array_equal(a.memory_term, b.memory_term)
    assert np.array_equal(a.eta_stderr, b.eta_stderr)
    # a different master seed must actually change the draw
    c = run_ensemble(m, grid, 150, SeedPolicy(5), "linear", PLUS)
    assert not np.array_equal(a.eta, c.eta)


@pytest.fixture
def chunk_rows(monkeypatch):
    """Set the trajectories per ensemble chunk; forked workers inherit the value."""
    return lambda rows: monkeypatch.setattr(ensemble, "_CHUNK_ROWS", rows)


def test_chunk_progress_logs_at_debug_only(caplog, capsys, chunk_rows):
    chunk_rows(64)
    grid = TimeGrid(1e-2, 20)
    run_ensemble(dephasing_model(), grid, 150, SeedPolicy(4), "linear", PLUS)
    assert capsys.readouterr() == ("", "")
    assert not logging.getLogger("ousse").handlers
    with caplog.at_level(logging.DEBUG, logger="ousse"):
        run_ensemble(dephasing_model(), grid, 150, SeedPolicy(4), "linear", PLUS)
    assert [r.getMessage() for r in caplog.records if r.name == "ousse"] == [
        "chunk rows [0, 64): 0 reruns, 0 diverged",
        "chunk rows [64, 128): 0 reruns, 0 diverged",
        "chunk rows [128, 150): 0 reruns, 0 diverged",
    ]


@pytest.fixture
def two_cpus(monkeypatch):
    """Let runs use two worker processes even on a one-CPU host."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)


def assert_same_estimate(a, b):
    for f in dataclasses.fields(EnsembleEstimate):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("mode, kind, dim, rows", [
    *((mode, kind, 2, 64) for mode, kind in MODES_AND_KINDS),
    # (2048, 16) @ (16, 16) products are large enough for a threaded BLAS,
    # which workers run on one thread
    ("sme", "measurement", 4, 2048),
], ids=[*(f"{i}-2-64" for i in MODE_IDS), "sme-4-2048"])
def test_workers_do_not_change_a_bit(mode, kind, dim, rows, two_cpus, chunk_rows):
    chunk_rows(rows)
    rng = np.random.default_rng(41)
    m = _mode_model(rng, kind, dim)
    psi0 = random_unit_state(rng, dim)
    initial = outer(psi0) if mode in ("density_linear", "sme") else psi0
    grid = TimeGrid(1e-2, 30)
    n_traj = 2 * rows + 8
    runs = [run_ensemble(m, grid, n_traj, SeedPolicy(42), mode, initial, workers=w)
            for w in (1, 2)]
    assert runs[0].n_used == n_traj
    assert_same_estimate(*runs)
    assert multiprocessing.active_children() == []


def test_budget_halves_the_rows_as_an_explicit_chunk_size_does(monkeypatch, two_cpus,
                                                               chunk_rows):
    # 256 rows of the 60 refined steps exceed the budget, and 128 rows fit it
    m = _degree2_measurement_model(np.random.default_rng(45), 2)
    grid = TimeGrid(1e-2, 30)

    def run(workers):
        return run_ensemble(m, grid, 300, SeedPolicy(46), "nonlinear", E0, level=1,
                            workers=workers)

    chunk_rows(128)
    explicit = [run(w) for w in (1, 2)]
    chunk_rows(256)
    monkeypatch.setattr(ensemble, "_CHUNK_BUDGET", 128 * 60)
    assert ensemble._chunk_rows(60) == 128
    for w, want in zip((1, 2), explicit):
        assert_same_estimate(run(w), want)
    assert multiprocessing.active_children() == []


def test_workers_do_not_change_a_bit_on_a_refined_grid(two_cpus, chunk_rows):
    chunk_rows(64)
    rng = np.random.default_rng(43)
    m = _degree2_measurement_model(rng, 2)
    grid = TimeGrid(1e-2, 30)
    runs = [run_ensemble(m, grid, 136, SeedPolicy(44), "nonlinear", E0, level=2, workers=w)
            for w in (1, 2)]
    assert runs[0].grid.n_steps == 120 and runs[0].n_used == 136
    assert_same_estimate(*runs)
    assert multiprocessing.active_children() == []


def explosive_model():
    # B(x) = 0.7 x^2 I drives x by 1.4 x^2 dt under the physical measure:
    # the rows whose x wanders high blow up, the rest stay bounded
    z = np.zeros((2, 2))
    return make_measurement_model(z, OperatorPolynomial((z, z, 0.7 * np.eye(2))), 1.0)


def test_divergence_is_independent_of_workers(two_cpus, chunk_rows):
    chunk_rows(64)
    grid = TimeGrid(1e-2, 100)
    runs = [run_ensemble(explosive_model(), grid, 640, SeedPolicy(2), "nonlinear", E0, workers=w)
            for w in (1, 2)]
    # every diverged row lies past the first chunk of 64
    assert runs[0].diverged == (238, 287, 386, 462)
    assert runs[0].n_used == 636
    assert_same_estimate(*runs)
    assert multiprocessing.active_children() == []
    # rows 133, 221, 261 and 312 diverge: the abort comes at the fifth chunk
    messages = []
    for w in (1, 2):
        with pytest.raises(DivergenceError) as err:
            run_ensemble(explosive_model(), grid, 320, SeedPolicy(6), "nonlinear", E0, workers=w)
        messages.append(str(err.value))
        assert multiprocessing.active_children() == []
    assert messages == ["4 of 320 trajectories diverged (> 1%); refine the grid or check the model"] * 2


def test_rerun_steps_the_surviving_increments_column_major(monkeypatch, chunk_rows):
    chunk_rows(64)
    seen = []
    chunk_partials = ensemble._chunk_partials

    def spy(stepper, grid_eff, dws, *args):
        seen.append(dws)
        return chunk_partials(stepper, grid_eff, dws, *args)

    monkeypatch.setattr(ensemble, "_chunk_partials", spy)
    grid = TimeGrid(1e-2, 100)
    est = run_ensemble(explosive_model(), grid, 640, SeedPolicy(2), "nonlinear", E0, workers=1)
    assert est.diverged == (238, 287, 386, 462)
    assert len(seen) == 10 + 4
    for dws in seen:
        assert dws.flags.f_contiguous
    # the chunk holding row 238 (rows 192..255) and its rerun without it
    first, rerun = seen[3], seen[4]
    assert rerun.shape == (63, 100)
    assert np.array_equal(rerun, np.delete(first, 238 - 192, axis=0))


def test_workers_must_be_positive(monkeypatch, chunk_rows):
    chunk_rows(64)

    def no_fork():
        raise AssertionError("started a process")

    monkeypatch.setattr("os.fork", no_fork)
    for bad in (0, -1):
        with pytest.raises(ValidationError, match="workers"):
            run_ensemble(dephasing_model(), TimeGrid(1e-2, 5), 200, SeedPolicy(1), "linear",
                         PLUS, workers=bad)


def test_reduction_options_agree_to_rounding(chunk_rows):
    grid = TimeGrid(1e-2, 50)
    m = dephasing_model()
    a = run_ensemble(m, grid, 200, SeedPolicy(6), "linear", PLUS)
    chunk_rows(64)
    b = run_ensemble(m, grid, 200, SeedPolicy(6), "linear", PLUS)
    assert np.max(np.abs(a.eta - b.eta)) < 1e-12


def test_partials_memory_is_flat_in_chunks(chunk_rows):
    # d = 8 keeps the (101, 64, 64) second-moment block, about 6.6 MB per
    # chunk; a run that held every chunk's partials would grow with n_traj
    rng = np.random.default_rng(51)
    m = make_random_hamiltonian(random_hermitian(rng, 8), random_hermitian(rng, 8), 0.8)
    initial = random_unit_state(rng, 8)
    grid = TimeGrid(1e-2, 100)
    peaks = []
    chunk_rows(64)
    tracemalloc.start()
    try:
        for n_chunks in (4, 16):
            tracemalloc.reset_peak()
            run_ensemble(m, grid, 64 * n_chunks, SeedPolicy(9), "linear", initial, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def _assert_matches_scalar(mode, m, initial, seed, n_traj=3):
    # the batched engine must agree with the one-path integrator row by row
    grid = TimeGrid(1e-2, 60)
    seeds = SeedPolicy(seed)
    nodes = [0, 17, 30, 60]
    est = run_ensemble(m, grid, n_traj, seeds, mode, initial, output_nodes=nodes)
    etas, mems, gens, ws = [], [], [], []
    for i in range(n_traj):
        traj = propagate(mode, initial, sample_wiener(grid, seeds.stream(i)), m, grid)
        rhos = [traj.matrices[k] if mode in ("density_linear", "sme") else outer(traj.states[k])
                for k in nodes]
        etas.append(rhos)
        mems.append([traj.X[k] * r for k, r in zip(nodes, rhos)])
        gens.append([lindblad_apply(m, traj.X[k], r) for k, r in zip(nodes, rhos)])
        ws.append([np.trace(r).real for r in rhos])
    assert np.max(np.abs(est.eta - np.mean(etas, axis=0))) < 5e-12
    assert np.max(np.abs(est.memory_term - np.mean(mems, axis=0))) < 5e-12
    assert np.max(np.abs(est.generator_mean - np.mean(gens, axis=0))) < 5e-12
    assert np.max(np.abs(est.mean_weight - np.mean(ws, axis=0))) < 5e-12


def test_matches_scalar_propagation():
    m = make_random_hamiltonian(random_hermitian(np.random.default_rng(7), 2),
                                random_hermitian(np.random.default_rng(8), 2), 0.7)
    _assert_matches_scalar("linear", m, PLUS, 9, n_traj=2)


def _degree2_measurement_model(rng, d):
    h = OperatorPolynomial(tuple(random_hermitian(rng, d) for _ in range(3)))
    b = OperatorPolynomial(tuple(0.4 * random_operator(rng, d) for _ in range(3)))
    return make_measurement_model(h, b, 0.8)


def _mode_model(rng, kind, d):
    """A random_hamiltonian model, or a degree-2 measurement model, of dimension ``d``."""
    if kind == "random_hamiltonian":
        return make_random_hamiltonian(random_hermitian(rng, d), random_hermitian(rng, d), 0.6)
    return _degree2_measurement_model(rng, d)


@pytest.mark.parametrize("mode, kind", MODES_AND_KINDS, ids=MODE_IDS)
def test_every_mode_matches_scalar_propagation(mode, kind):
    # degree-2 H(x) and B(x) reach the x^4 terms of the generator
    rng = np.random.default_rng(31)
    m = _mode_model(rng, kind, 3)
    psi0 = random_unit_state(rng, 3)
    initial = outer(psi0) if mode in ("density_linear", "sme") else psi0
    _assert_matches_scalar(mode, m, initial, 32)


def _ladder(d=4):
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    return a, a.conj().T @ a


@pytest.mark.parametrize("mode, kind", [
    ("density_linear", "random_hamiltonian"), ("sme", "measurement"),
    ("density_linear", "measurement"),
], ids=["density_linear", "sme", "density_linear-measurement"])
def test_density_outputs_are_exactly_hermitian(mode, kind):
    # the driven, monitored 4-level ladder, or a random_hamiltonian model on its levels
    a, n = _ladder()
    h = n + (a + a.conj().T)
    m = (make_random_hamiltonian(n, a + a.conj().T, 1.0) if kind == "random_hamiltonian"
         else make_measurement_model(h, a, 1.0))
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[-1, -1] = 1.0
    grid = TimeGrid(0.0025, 100)
    est = run_ensemble(m, grid, 64, SeedPolicy(14), mode, rho0)
    traj = propagate(mode, rho0, SeedPolicy(14).stream(0), m, grid)
    for mats in (est.eta, est.memory_term, est.generator_mean, traj.matrices):
        assert np.array_equal(mats, np.conj(mats.transpose(0, 2, 1)))
        assert np.all(np.diagonal(mats, axis1=1, axis2=2).imag == 0.0)
    for se in (est.eta_stderr, est.memory_term_stderr, est.generator_mean_stderr):
        assert np.array_equal(se, se.transpose(0, 2, 1))


def test_density_linear_mean_is_the_euler_map_of_the_generator():
    # with constant H and B the noise term of a step has mean zero given rho_k, so
    # E_Q[rho_k] = (I + dt L)^k rho0 exactly; the monitored ladder's estimate lies
    # within 3 stderr of it at every entry
    a, n = _ladder()
    m = make_measurement_model(n + (a + a.conj().T), a, 1.0)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[-1, -1] = 1.0
    grid = TimeGrid(0.0025, 400)
    nodes = [0, 100, 200, 300, 400]
    est = run_ensemble(m, grid, 4096, SeedPolicy(17), "density_linear", rho0, output_nodes=nodes)
    assert np.array_equal(est.eta[0], rho0)
    rho = rho0
    for k in range(1, grid.n_steps + 1):
        rho = rho + grid.dt * lindblad_apply(m, 0.0, rho)
        if k in nodes:
            j = nodes.index(k)
            assert np.all(np.abs(est.eta[j] - rho) <= 3.0 * est.eta_stderr[j])


@pytest.mark.parametrize("mode, kind", MODES_AND_KINDS, ids=MODE_IDS)
def test_every_mode_matches_scalar_sample_statistics(mode, kind):
    # stderrs and second moments against sample statistics of one-path runs; a
    # stderr is compared as its square, the variance of the mean, which the
    # engine forms as (sum |v|^2 - n |mean|^2) / (n (n - 1)), good to rounding
    # of sum |v|^2 only; its square root would turn that into noise of order
    # 1e-8 wherever every row agrees (node 0, or the weights of a normalized run)
    rng = np.random.default_rng(47)
    m = _mode_model(rng, kind, 3)
    psi0 = random_unit_state(rng, 3)
    initial = outer(psi0) if mode in ("density_linear", "sme") else psi0
    grid = TimeGrid(1e-2, 60)
    seeds = SeedPolicy(48)
    nodes = [0, 17, 30, 60]
    n_traj = 5
    est = run_ensemble(m, grid, n_traj, seeds, mode, initial, output_nodes=nodes)
    rhos, mems, gens = [], [], []
    for i in range(n_traj):
        traj = propagate(mode, initial, sample_wiener(grid, seeds.stream(i)), m, grid)
        rows = [traj.matrices[k] if mode in ("density_linear", "sme") else outer(traj.states[k])
                for k in nodes]
        rhos.append(rows)
        mems.append([traj.X[k] * r for k, r in zip(nodes, rows)])
        gens.append([lindblad_apply(m, traj.X[k], r) for k, r in zip(nodes, rows)])
    rhos, mems, gens = np.array(rhos), np.array(mems), np.array(gens)
    ws = np.trace(rhos, axis1=2, axis2=3).real

    def var_of_mean(samples):
        return np.var(samples, axis=0, ddof=1) / n_traj

    for got, samples in ((est.eta_stderr, rhos), (est.memory_term_stderr, mems),
                         (est.generator_mean_stderr, gens), (est.mean_weight_stderr, ws)):
        assert got.shape == samples.shape[1:]
        assert np.max(np.abs(got**2 - var_of_mean(samples))) < 5e-12
    vecs = rhos.transpose(0, 1, 3, 2).reshape(n_traj, len(nodes), -1)
    second = np.einsum("rja,rjb->jab", vecs, np.conj(vecs)) / n_traj
    assert est.second_moments.shape == second.shape
    assert np.max(np.abs(est.second_moments - second)) < 5e-12


def test_global_phase_coupling_leaves_projector_alone():
    # K proportional to the identity only turns the global phase
    h = 0.5 * sigma_x
    m = make_random_hamiltonian(h, np.eye(2), 1.0)
    grid = TimeGrid(1e-3, 500)
    est = run_ensemble(m, grid, 256, SeedPolicy(10), "linear", E0,
                       output_nodes=[0, 250, 500])
    for j, t in enumerate(est.times):
        u = matrix_exp(-1j * float(t) * h)
        want = u @ outer(E0) @ u.conj().T
        assert np.max(np.abs(est.eta[j] - want)) < 1e-2


def test_default_output_nodes_cover_endpoints():
    grid = TimeGrid(1e-3, 1000)
    est = run_ensemble(zero_model(), grid, 2, SeedPolicy(11), "linear", PLUS)
    assert est.node_indices[0] == 0
    assert est.node_indices[-1] == 1000
    assert est.times[-1] == pytest.approx(1.0)
    assert est.node_indices.size <= 202


def test_levels_share_times_and_paths():
    base = TimeGrid(4e-3, 250)
    m = dephasing_model()
    nodes = [0, 125, 250]
    e0 = run_ensemble(m, base, 96, SeedPolicy(12), "linear", PLUS, output_nodes=nodes)
    e2 = run_ensemble(m, base, 96, SeedPolicy(12), "linear", PLUS, output_nodes=nodes, level=2)
    assert np.array_equal(e0.times, e2.times)
    assert e2.grid.dt == pytest.approx(1e-3)
    assert e2.grid.n_steps == 1000
    assert np.array_equal(e2.node_indices, np.asarray(nodes))
    # same Brownian paths, so the gap is pure time-discretization error
    assert np.max(np.abs(e0.eta - e2.eta)) < 0.05


def test_dephasing_moves_toward_closed_form():
    grid = TimeGrid(1e-3, 1000)
    est = run_ensemble(dephasing_model(), grid, 2000, SeedPolicy(13), "linear", PLUS,
                       output_nodes=[0, 500, 1000])
    for j, t in enumerate(est.times):
        want = 0.5 * dephasing_coherence(float(t), 1.0)
        se = est.eta_stderr[j][0, 1]
        assert abs(est.eta[j][0, 1] - want) < 3.0 * se + 5.0 * grid.dt


def test_validation():
    grid = TimeGrid(1e-2, 10)
    m = dephasing_model()
    with pytest.raises(ValidationError, match="mode"):
        run_ensemble(m, grid, 4, SeedPolicy(0), "weak", PLUS)
    with pytest.raises(ValidationError, match="2"):
        run_ensemble(m, grid, 1, SeedPolicy(0), "linear", PLUS)
    with pytest.raises(ValidationError, match="unstable|gamma"):
        run_ensemble(dephasing_model(gamma=150.0), grid, 4, SeedPolicy(0), "linear", PLUS)
    with pytest.raises(ValidationError, match="norm"):
        run_ensemble(m, grid, 4, SeedPolicy(0), "linear", 2.0 * PLUS)
    with pytest.raises(ValidationError, match="trace"):
        run_ensemble(m, grid, 4, SeedPolicy(0), "density_linear", 2.0 * outer(PLUS))
    # density_linear runs on a measurement model too; its initial passes the same gates
    mm = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    assert run_ensemble(mm, grid, 4, SeedPolicy(0), "density_linear", outer(PLUS)).n_used == 4
    with pytest.raises(ValidationError, match="trace"):
        run_ensemble(mm, grid, 4, SeedPolicy(0), "density_linear", 2.0 * outer(PLUS))
    with pytest.raises(ValidationError, match="nodes"):
        run_ensemble(m, grid, 4, SeedPolicy(0), "linear", PLUS, output_nodes=[0, 11])


def test_empty_output_nodes_are_rejected():
    grid = TimeGrid(0.1, 10)
    with pytest.raises(ValidationError, match="^need at least one output node$"):
        run_ensemble(dephasing_model(), grid, 4, SeedPolicy(0), "linear", PLUS, output_nodes=[])


def test_divergence_abort():
    # the decay drift alone overflows the state well before the horizon
    grid = TimeGrid(0.5, 50)
    wild = make_measurement_model(np.zeros((2, 2)), 5000.0 * np.eye(2), 0.0)
    with pytest.raises(DivergenceError, match="diverged"):
        run_ensemble(wild, grid, 32, SeedPolicy(14), "linear", E0)


def test_near_collapse_is_a_divergence(monkeypatch):
    # the ensemble twin of the one-step test: dt just under 2 with zero increments
    # leaves a norm of about 5e-14 that is still finite, so only the collapse rule fires
    mx = make_measurement_model(np.zeros((2, 2)), sigma_x, 0.0)
    monkeypatch.setattr("ousse.ensemble.sample_wiener_rows",
                        lambda seeds, grid, lo, hi, level=0: np.zeros((hi - lo, grid.n_steps)))
    with pytest.raises(DivergenceError, match="2 of 2 trajectories diverged"):
        run_ensemble(mx, TimeGrid(2.0 - 1e-13, 1), 2, SeedPolicy(0), "nonlinear", E0, workers=1)


def test_overflowed_norm_is_a_divergence():
    # the squared norm overflows in the first step (see the propagate twin); on a
    # one-step grid no later step is left to collapse the zeroed state
    m = make_random_hamiltonian(np.zeros((2, 2)), 1e154 * sigma_z, 0.0)
    for n_steps in (1, 3):
        with pytest.raises(DivergenceError, match="100 of 100 trajectories diverged"):
            run_ensemble(m, TimeGrid(1e-3, n_steps), 100, SeedPolicy(3), "nonlinear", E0)


def test_observable_series():
    grid = TimeGrid(1e-2, 100)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    est = run_ensemble(m, grid, 200, SeedPolicy(15), "nonlinear", E0)
    ident = observable_series(est, np.eye(2))
    for t, mean, se in ident:
        assert mean == pytest.approx(1.0, abs=1e-12)
    sz = observable_series(est, sigma_z)
    assert sz[0][1] == pytest.approx(1.0, abs=1e-12)  # excited initial state
    assert sz[-1][1] < sz[0][1]  # decay toward the dark state
    assert all(s[2] >= 0.0 for s in sz)
    with pytest.raises(ValidationError, match="hermitian"):
        observable_series(est, sigma_minus)
    with pytest.raises(ValidationError, match="dimension"):
        observable_series(est, np.eye(3))


def test_observable_stderr_routes_agree():
    # exact second-moment route vs the triangle bound it falls back to
    grid = TimeGrid(1e-2, 50)
    est = run_ensemble(dephasing_model(), grid, 300, SeedPolicy(16), "linear", PLUS,
                       output_nodes=[0, 25, 50])
    assert est.second_moments is not None
    series = observable_series(est, sigma_x)
    stripped = est.__class__(**{**{f: getattr(est, f) for f in est.__dataclass_fields__},
                                "second_moments": None})
    bound = observable_series(stripped, sigma_x)
    for (t, mean, se), (_, mean2, se2) in zip(series, bound):
        assert mean == mean2
        if t == 0.0:
            continue  # both are rounding noise at the deterministic start
        assert se <= se2 + 1e-9
        assert se > 0.0


def test_martingale_rejects_physical_mode():
    grid = TimeGrid(1e-2, 20)
    m = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    est = run_ensemble(m, grid, 8, SeedPolicy(17), "nonlinear", E0)
    with pytest.raises(ValidationError, match="mode"):
        martingale_check(est)


def test_martingale_passes_on_linear_run():
    grid = TimeGrid(1e-3, 500)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    est = run_ensemble(m, grid, 1000, SeedPolicy(18), "linear", E0)
    report = martingale_check(est)
    assert report.passed
    assert report.entries[0].statistic == 0.0  # weight starts at exactly 1


def girsanov_legs(m, grid, n_traj, seeds, t_list, initial, **kwargs):
    """The reference and physical estimates at ``t_list``, on independent substreams."""
    nodes = [grid.node(t) for t in t_list]
    vector = np.ndim(initial) == 1
    return (run_ensemble(m, grid, n_traj, seeds.substream("girsanov-reference"),
                         "linear" if vector else "density_linear", initial,
                         output_nodes=nodes, **kwargs),
            run_ensemble(m, grid, n_traj, seeds.substream("girsanov-physical"),
                         "nonlinear" if vector else "sme", initial, output_nodes=nodes, **kwargs))


def test_girsanov_identity_observable():
    # a density initial runs density_linear against sme, a state vector linear against nonlinear
    grid = TimeGrid(1e-3, 400)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    for initial in (E0, outer(E0)):
        report = girsanov_crosscheck(*girsanov_legs(m, grid, 800, SeedPolicy(19), [0.2, 0.4],
                                                    initial), np.eye(2))
        assert report.passed
        for e in report.entries:
            assert e.statistic <= e.threshold


def test_girsanov_degenerate_for_hamiltonian_noise():
    # B = -iK leaves the measures equal; both sides see weight one
    grid = TimeGrid(1e-3, 200)
    for initial in (PLUS, outer(PLUS)):
        report = girsanov_crosscheck(*girsanov_legs(dephasing_model(), grid, 100, SeedPolicy(20),
                                                    [0.1, 0.2], initial), sigma_x)
        assert report.passed


def test_girsanov_rejects_estimates_it_cannot_compare():
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    grid = TimeGrid(1e-2, 20)
    reference, physical = girsanov_legs(m, grid, 8, SeedPolicy(25), [0.1, 0.2], E0)
    density_physical = girsanov_legs(m, grid, 8, SeedPolicy(25), [0.1, 0.2], outer(E0))[1]
    with pytest.raises(ValidationError, match="linear with nonlinear"):
        girsanov_crosscheck(reference, density_physical, sigma_z)
    with pytest.raises(ValidationError, match="linear with nonlinear"):
        girsanov_crosscheck(physical, reference, sigma_z)
    # another grid, another level, and another level on the same refined grid
    for other in (girsanov_legs(m, TimeGrid(1e-2, 40), 8, SeedPolicy(25), [0.1, 0.2], E0)[1],
                  girsanov_legs(m, grid, 8, SeedPolicy(25), [0.1, 0.2], E0, level=1)[1],
                  girsanov_legs(m, TimeGrid(2e-2, 10), 8, SeedPolicy(25), [0.1, 0.2], E0,
                                level=1)[1]):
        with pytest.raises(ValidationError, match="one grid and level"):
            girsanov_crosscheck(reference, other, sigma_z)
    off_node = girsanov_legs(m, grid, 8, SeedPolicy(25), [0.1, 0.15], E0)[1]
    with pytest.raises(ValidationError, match="lacks nodes"):
        girsanov_crosscheck(reference, off_node, sigma_z)
    # the reference may hold more nodes than the physical estimate; entries follow the latter
    report = girsanov_crosscheck(girsanov_legs(m, grid, 8, SeedPolicy(25), [0.1, 0.15, 0.2], E0)[0],
                                 physical, sigma_z)
    assert [e.time for e in report.entries] == [0.1, 0.2]


def test_mean_equation_zero_model():
    grid = TimeGrid(1e-2, 100)
    est = run_ensemble(zero_model(), grid, 16, SeedPolicy(21), "linear", PLUS,
                       output_nodes=[0, 25, 50, 75, 100])
    report = mean_equation_residual(zero_model(), est)
    assert report.passed
    for e in report.entries:
        assert e.statistic < 1e-12


def test_mean_equation_dephasing():
    grid = TimeGrid(2e-2, 50)
    m = dephasing_model()
    est = run_ensemble(m, grid, 4000, SeedPolicy(22), "linear", PLUS)
    report = mean_equation_residual(m, est)
    assert report.passed
    assert set(report.details["mean_residual"]) == {"assembled", "generator"}
    labels = {e.label for e in report.entries}
    assert labels == {"assembled", "generator"}


def test_mean_equation_needs_interior_nodes():
    grid = TimeGrid(1e-2, 10)
    est = run_ensemble(zero_model(), grid, 4, SeedPolicy(23), "linear", PLUS,
                       output_nodes=[0, 10])
    with pytest.raises(ValidationError, match="3"):
        mean_equation_residual(zero_model(), est)
    m = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    phys = run_ensemble(m, grid, 4, SeedPolicy(23), "nonlinear", E0)
    with pytest.raises(ValidationError, match="measure"):
        mean_equation_residual(m, phys)



def test_mean_equation_entry_is_its_worst_element():
    # at a small c_fd some nodes pass and some fail; each entry reports the element
    # closest to (or past) its threshold and passes only when every element does
    m = make_measurement_model(2.0 * sigma_z, sigma_minus, 1.0)
    est = run_ensemble(m, TimeGrid(1e-2, 100), 200, SeedPolicy(24), "linear", PLUS,
                       output_nodes=list(range(0, 101, 10)))
    report = mean_equation_residual(m, est, c_fd=1.0)
    assert {e.passed for e in report.entries} == {True, False}
    assert report.passed == all(e.passed for e in report.entries)
    assert len(report.entries) == est.times.size - 2
    for j, e in enumerate(report.entries, start=1):
        span = est.times[j + 1] - est.times[j - 1]
        fd = (est.eta[j + 1] - est.eta[j - 1]) / span
        fd_sd = np.sqrt(est.eta_stderr[j + 1] ** 2 + est.eta_stderr[j - 1] ** 2) / span
        resid = np.abs(fd - est.generator_mean[j])
        thr = 3.0 * (fd_sd + est.generator_mean_stderr[j]) + 1.0 * est.grid.dt
        w = int(np.argmax(resid - thr))
        assert (e.label, e.time) == ("generator", est.times[j])
        assert (e.statistic, e.threshold) == (resid.flat[w], thr.flat[w])
        assert e.passed == bool(np.all(resid <= thr))


@pytest.mark.parametrize("name", ["_drift", "_gen", "_flow"])
def test_consistency_fails_on_a_shift_in_any_stepped_coefficient(name):
    # eps I planted in one power of a coefficient tuple the steppers hold, in the model's
    # cached value; the suite reads 2 eps on the drift (D + D^dag) and eps on the others
    rng = np.random.default_rng(23)
    eps = 1e-2
    suite = ensemble._SUITES["consistency"]
    for kind in ("random_hamiltonian", "measurement"):
        for gamma in (0.0, None, None, None):  # gamma = 0 keeps random_hamiltonian constant
            m = random_model(rng, kind=kind, gamma=gamma)
            coeffs = getattr(m, name)
            assert suite(types.SimpleNamespace(model=m), None, None).passed
            for j, c in enumerate(coeffs):
                m.__dict__[name] = coeffs[:j] + (c + eps * np.eye(len(c)),) + coeffs[j + 1:]
                report = suite(types.SimpleNamespace(model=m), None, None)
                assert not report.passed
                worst = max(e.statistic for e in report.entries)
                assert worst == pytest.approx(2 * eps if name == "_drift" else eps, rel=1e-9)
            m.__dict__[name] = coeffs


def test_ou_covariance_check_runs():
    grid = TimeGrid(1e-2, 100)
    report = ou_covariance_check(SeedPolicy(24), grid, 1.0, 4000, [25, 50, 75, 100])
    assert len(report.entries) == 10  # unique unordered pairs of 4 nodes
    assert report.details == {"gamma": 1.0, "n_paths": 4000}
    assert report.passed and all(e.passed for e in report.entries)


@pytest.mark.parametrize("nodes, seed", [([50, 100], 65), ([25, 50, 75, 100], 47),
                                         ([20, 40, 60, 80, 100], 189)],
                         ids=["3-points", "10-points", "15-points"])
def test_ou_covariance_passes_when_every_point_does(nodes, seed):
    # each seed puts exactly one point past 3 stderr, and that fails the suite
    grid = TimeGrid(1e-2, 100)
    for s, failed in ((seed, 1), (24, 0)):
        report = ou_covariance_check(SeedPolicy(s), grid, 1.0, 1000, nodes, workers=1)
        assert len(report.entries) == len(nodes) * (len(nodes) + 1) // 2
        assert sum(not e.passed for e in report.entries) == failed
        assert report.passed == all(e.passed for e in report.entries)


def test_ou_covariance_check_needs_a_node():
    with pytest.raises(ValidationError, match="at least one time node"):
        ou_covariance_check(SeedPolicy(24), TimeGrid(1e-2, 100), 1.0, 100, [])


@pytest.mark.filterwarnings("error")
def test_ou_covariance_check_needs_two_paths():
    # one path has no sample variance: a ValidationError, not a warning and NaN thresholds
    with pytest.raises(ValidationError, match="at least 2 paths"):
        ou_covariance_check(SeedPolicy(1), TimeGrid(0.01, 10), 1.0, 1, [5])
