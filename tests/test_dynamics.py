import numpy as np
import pytest

from ousse import dynamics, ensemble, model, oracle
from ousse import (
    DivergenceError,
    SeedPolicy,
    TimeGrid,
    ValidationError,
    diffusion_operator,
    drift_operator,
    exact_commuting_solution,
    girsanov_drift,
    lindblad_apply,
    make_measurement_model,
    make_random_hamiltonian,
    matrix_exp,
    outer,
    ou_path,
    ou_path_physical,
    propagate,
    run_ensemble,
    sample_wiener,
    sigma_minus,
    sigma_x,
    sigma_z,
    step,
)

from conftest import MODE_IDS, MODES_AND_KINDS, random_hermitian, random_model, random_unit_state

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def zero_model(gamma=0.0):
    z = np.zeros((2, 2))
    return make_random_hamiltonian(z, z, gamma)


def test_step_linear_pure_drift():
    # H=0, K=sigma_z, x=0, dW=0: drift is -I/2, so psi' = (1 - dt/2) psi
    m = make_random_hamiltonian(np.zeros((2, 2)), sigma_z, 1.3)
    dt = 1e-3
    out = step("linear", PLUS, 0.0, 0.0, dt, m)[0]
    assert np.allclose(out, (1.0 - dt / 2) * PLUS, atol=1e-15)


def test_step_linear_zero_model():
    out = step("linear", PLUS, 0.7, 0.2, 1e-2, zero_model())[0]
    assert np.array_equal(out, PLUS)


def test_step_linear_one_step_order():
    # single Euler step vs the commuting closed form at t=dt, X=dW
    m = make_random_hamiltonian(np.zeros((2, 2)), sigma_z, 1.0)
    rng = np.random.default_rng(19)
    z = float(rng.normal())
    errs = []
    for dt in (1e-2, 2.5e-3, 6.25e-4):
        dw = z * np.sqrt(dt)
        euler = step("linear", PLUS, 0.0, dw, dt, m)[0]
        exact = exact_commuting_solution(PLUS, np.zeros((2, 2)), sigma_z, dw, dt)
        errs.append(np.linalg.norm(euler - exact))
    # local error is O(dt): each 4x dt cut divides it by about 4
    assert 2.5 < errs[0] / errs[1] < 6.5
    assert 2.5 < errs[1] / errs[2] < 6.5


def test_step_nonlinear_zero_model():
    out, mv = step("nonlinear", PLUS, 0.3, -0.1, 1e-2, zero_model())
    assert mv == 0.0
    assert np.allclose(out, PLUS, atol=1e-15)


def test_step_nonlinear_dark_state():
    # the state annihilated by B is a fixed point for any increment
    m = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    for dw in (-0.5, 0.0, 0.3):
        out, mv = step("nonlinear", E1, 0.2, dw, 1e-2, m)
        assert mv == 0.0
        assert np.allclose(out, E1, atol=1e-15)


def test_step_nonlinear_matches_normalized_linear_for_rh():
    rng = np.random.default_rng(20)
    m = make_random_hamiltonian(random_hermitian(rng, 3), random_hermitian(rng, 3), 0.8)
    for _ in range(50):
        psi = random_unit_state(rng, 3)
        x, dw, dt = float(rng.normal()), float(rng.normal(0, 0.03)), 1e-3
        nl, mv = step("nonlinear", psi, x, dw, dt, m)
        assert mv == 0.0
        lin = step("linear", psi, x, dw, dt, m)[0]
        lin = lin / np.linalg.norm(lin)
        assert np.max(np.abs(nl - lin)) < 1e-12


def test_step_nonlinear_gates():
    m = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    with pytest.raises(ValidationError, match="norm"):
        step("nonlinear", 2.0 * E0, 0.0, 0.0, 1e-3, m)
    # a full decay step with no noise annihilates the state
    mx = make_measurement_model(np.zeros((2, 2)), sigma_x, 0.0)
    with pytest.raises(DivergenceError):
        step("nonlinear", E0, 0.0, 0.0, 2.0, mx)


def test_step_nonlinear_near_collapse_is_a_divergence():
    # dt just under 2 leaves a norm of about 5e-14 that is still finite,
    # so only the collapse gate (not a NaN from the division) can fire
    mx = make_measurement_model(np.zeros((2, 2)), sigma_x, 0.0)
    dt = 2.0 - 1e-13
    with pytest.raises(DivergenceError, match="collapsed"):
        step("nonlinear", E0, 0.0, 0.0, dt, mx)
    with pytest.raises(DivergenceError, match="collapsed") as info:
        propagate("nonlinear", E0, np.zeros(1), mx, TimeGrid(dt, 1))
    assert info.value.step == 0


def _euler_reference(mode, m, psi, x, dw, dt):
    """One Euler step written out from the model operators: (state, m value, term scale)."""
    drift = drift_operator(m, x)
    b = diffusion_operator(m, x)
    if mode == "linear":
        terms = [psi, dt * (drift @ psi), dw * (b @ psi)]
        return sum(terms), None, sum(np.max(np.abs(t)) for t in terms)
    mv = girsanov_drift(m, x, psi)
    bp = b @ psi
    terms = [psi, dt * (drift @ psi), (0.5 * dt * mv) * bp, (-dt * mv * mv / 8.0) * psi,
             dw * bp, (-0.5 * dw * mv) * psi]
    out = sum(terms)
    nrm = np.linalg.norm(out)
    return out / nrm, mv, sum(np.max(np.abs(t)) for t in terms) / nrm


def test_vector_steps_match_operator_euler_step():
    # the batched step kernel against D(x), B(x) and m evaluated directly, for x-dependent B
    rng = np.random.default_rng(53)
    b_degrees = set()
    for _ in range(32):
        m = random_model(rng)
        b_degrees.add(m.b_poly.degree)
        psi = random_unit_state(rng, m.dim)
        for x in (-1.7, 0.0, 0.45, 2.3):
            dw, dt = float(rng.normal(0.0, 0.1)), 1e-2
            want, _, scale = _euler_reference("linear", m, psi, x, dw, dt)
            assert np.max(np.abs(step("linear", psi, x, dw, dt, m)[0] - want)) <= 1e-12 * scale
            want, mv_want, scale = _euler_reference("nonlinear", m, psi, x, dw, dt)
            got, mv = step("nonlinear", psi, x, dw, dt, m)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
            s = diffusion_operator(m, x)
            assert abs(mv - mv_want) <= 1e-12 * np.max(np.abs(s + s.conj().T)) * m.dim
    assert b_degrees >= {0, 1, 2}


def _density_reference(mode, m, rho, x, dw, dt):
    """One density Euler step from ``lindblad_apply`` and the flow ``B rho + rho B^dag``.

    Returns (matrix, term scale); ``sme`` subtracts the flow's trace times
    rho from the noise term and divides by the stepped trace.
    """
    b = diffusion_operator(m, x)
    flow = b @ rho + rho @ b.conj().T
    if mode == "sme":
        flow = flow - np.trace(flow) * rho
    terms = [rho, dt * lindblad_apply(m, x, rho), dw * flow]
    out = sum(terms)
    scale = sum(np.max(np.abs(t)) for t in terms)
    if mode == "sme":
        tr = np.trace(out).real
        return out / tr, scale / tr
    return out, scale


def test_density_steps_match_lindblad_apply_step():
    rng = np.random.default_rng(59)
    degrees = set()
    for _ in range(32):
        m = random_model(rng)
        degrees.update((m.h_poly.degree, m.b_poly.degree))
        a = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        for x in (-1.7, 0.0, 0.45, 2.3):
            dw, dt = float(rng.normal(0.0, 0.1)), 1e-2
            want, scale = _density_reference("sme", m, rho, x, dw, dt)
            assert np.max(np.abs(step("sme", rho, x, dw, dt, m)[0] - want)) <= 1e-12 * scale
            want, scale = _density_reference("density_linear", m, rho, x, dw, dt)
            got = step("density_linear", rho, x, dw, dt, m)[0]
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert degrees >= {0, 1, 2}


def test_step_density_linear():
    m = make_random_hamiltonian(np.zeros((2, 2)), sigma_z, 1.0)
    # identity is a fixed point of every commutator
    half = np.eye(2, dtype=complex) / 2
    assert np.allclose(step("density_linear", half, 1.1, 0.4, 1e-2, m)[0], half, atol=1e-15)
    # dephasing drift scales the off-diagonal by exactly (1 - 2 dt) when dW=0
    rho = outer(PLUS)
    dt = 1e-3
    out = step("density_linear", rho, 0.0, 0.0, dt, m)[0]
    assert out[0, 1] == pytest.approx(0.5 * (1.0 - 2.0 * dt), abs=1e-15)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-15)
    # a measurement model steps the same linear equation, with flow B rho + rho B^dag
    mm = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    flow = sigma_minus @ rho + rho @ sigma_minus.conj().T
    want = rho + dt * lindblad_apply(mm, 0.0, rho) + 0.3 * flow
    assert np.allclose(step("density_linear", rho, 0.0, 0.3, dt, mm)[0], want, rtol=0.0, atol=1e-15)


def test_step_density_linear_tracks_outer_of_state_step():
    # one-step gap between the projector of the state step and the density step
    m = make_random_hamiltonian(sigma_z, sigma_x, 1.0)
    rng = np.random.default_rng(21)
    gaps = []
    for dt in (4e-2, 1e-2, 2.5e-3):
        g = 0.0
        for k in range(200):
            psi = random_unit_state(rng, 2)
            x = float(rng.normal())
            dw = float(rng.normal()) * np.sqrt(dt)
            a = outer(step("linear", psi, x, dw, dt, m)[0])
            b = step("density_linear", outer(psi), x, dw, dt, m)[0]
            g += np.max(np.abs(a - b))
        gaps.append(g / 200)
    # Ito order counting: the mean gap shrinks ~linearly with dt
    assert 2.8 < gaps[0] / gaps[1] < 5.6
    assert 2.8 < gaps[1] / gaps[2] < 5.6


def test_step_sme_matches_density_linear_for_rh():
    m = make_random_hamiltonian(sigma_z, sigma_x, 0.6)
    rng = np.random.default_rng(22)
    for _ in range(30):
        psi = random_unit_state(rng, 2)
        rho = outer(psi)
        x, dw, dt = float(rng.normal()), float(rng.normal(0, 0.05)), 1e-3
        a = step("sme", rho, x, dw, dt, m)[0]
        b = step("density_linear", rho, x, dw, dt, m)[0]
        # B = -iK kills the trace flow, so only rounding separates the two
        assert np.max(np.abs(a - b)) < 1e-12


def test_step_sme_zero_model_and_gates():
    rho = outer(PLUS)
    assert np.allclose(step("sme", rho, 0.5, 0.2, 1e-2, zero_model())[0], rho, atol=1e-15)
    m = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    with pytest.raises(ValidationError, match="trace"):
        step("sme", 2.0 * rho, 0.0, 0.0, 1e-3, m)


def test_density_gates_take_non_contiguous_matrices():
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    rho = outer(PLUS)
    once = np.asfortranarray(step("sme", rho, 0.1, 0.05, 1e-2, m)[0])
    assert not once.flags.c_contiguous
    twice = step("sme", once, 0.2, -0.05, 1e-2, m)[0]
    assert np.array_equal(twice, step("sme", np.ascontiguousarray(once), 0.2, -0.05, 1e-2, m)[0])
    rh = make_random_hamiltonian(sigma_x.T, sigma_z, 1.0)
    assert np.array_equal(rh.h_poly.coefficients[0], sigma_x)
    grid = TimeGrid(1e-2, 10)
    dw = 0.1 * np.sin(np.arange(10.0))
    a = propagate("sme", np.asfortranarray(rho), dw, m, grid)
    b = propagate("sme", rho, dw, m, grid)
    assert np.array_equal(a.matrices, b.matrices)


def test_density_initials_are_density_matrices():
    grid = TimeGrid(1e-2, 10)
    rh = make_random_hamiltonian(np.zeros((2, 2)), sigma_z, 1.0)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    skew = np.array([[0.5, 3.0], [0.0, 0.5]], dtype=complex)
    negative = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    for rho, what in ((skew, "hermitian"), (negative, "negative")):
        for mode, model in (("density_linear", rh), ("sme", m)):
            with pytest.raises(ValidationError, match=what):
                propagate(mode, rho, np.zeros(10), model, grid)
            with pytest.raises(ValidationError, match=what):
                run_ensemble(model, grid, 4, SeedPolicy(3), mode, rho)
    # a stepped matrix may leave the cone: the per-step gate checks the trace only
    assert np.isclose(np.trace(step("sme", negative, 0.0, 0.0, 1e-2, m)[0]).real, 1.0)


def test_density_steps_reject_non_hermitian_matrices():
    # the steps read a matrix through its Hermitian coordinates, the upper triangle only
    rh = make_random_hamiltonian(np.zeros((2, 2)), sigma_z, 1.0)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    skew = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValidationError, match="not hermitian"):
        step("density_linear", skew, 0.0, 0.1, 1e-2, rh)
    with pytest.raises(ValidationError, match="not hermitian"):
        step("sme", skew, 0.0, 0.1, 1e-2, m)
    # the results are exactly hermitian, with a real diagonal
    rho = outer(PLUS)
    for out in (step("density_linear", rho, 0.3, 0.1, 1e-2, rh)[0],
                step("sme", rho, 0.3, 0.1, 1e-2, m)[0]):
        assert np.array_equal(out, out.conj().T)
        assert np.all(np.diag(out).imag == 0.0)


@pytest.mark.parametrize("mode", dynamics.MODES, ids=lambda mode: f"step_{mode}")
def test_steps_gate_their_state(mode):
    # every step checks that its state fits the model, the linear ones included
    m = make_random_hamiltonian(0.5 * sigma_z, sigma_x, 1.0)
    density = mode in dynamics.DENSITY_MODES
    good = outer(PLUS) if density else PLUS
    step(mode, good, 0.1, 0.05, 1e-2, m)
    non_finite = np.array(good, dtype=complex)
    non_finite.flat[0] = np.nan
    wrong_dim = np.eye(3) / 3 if density else np.array([1.0, 0.0, 0.0])
    wrong_ndim = PLUS if density else outer(PLUS)
    for state, problem in ((wrong_dim, "dimension 3 != model dimension 2"),
                           (wrong_ndim, "square matrix" if density else "1-D vector"),
                           (non_finite, "non-finite")):
        with pytest.raises(ValidationError, match=problem):
            step(mode, state, 0.1, 0.05, 1e-2, m)


@pytest.mark.parametrize("mode, kind", MODES_AND_KINDS, ids=MODE_IDS)
def test_step_is_row_one_of_propagate(mode, kind):
    # the one-step function and propagate step through the same kernel, bit for bit
    rng = np.random.default_rng(29)
    m = random_model(rng, 3, kind)
    psi = random_unit_state(rng, 3)
    density = mode in dynamics.DENSITY_MODES
    initial = outer(psi) if density else psi
    dt, dw = 1e-2, 0.07
    got, mv = step(mode, initial, 0.0, dw, dt, m)
    traj = propagate(mode, initial, [dw], m, TimeGrid(dt, 1))
    want = traj.matrices[1] if density else traj.states[1]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if mode in dynamics.PHYSICAL_MODES:
        assert np.float64(mv).tobytes() == traj.m_record[0].tobytes()
    else:
        assert mv is None


def test_step_rejects_an_unknown_mode():
    with pytest.raises(ValidationError, match="unknown mode 'weak'"):
        step("weak", PLUS, 0.0, 0.0, 1e-2, zero_model())


def test_steps_build_the_model_coefficients_once(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return oracle.generator_coefficients(*args)

    # in every module of the package that holds a reference to it
    for module in (dynamics, ensemble, model):
        if hasattr(module, "generator_coefficients"):
            monkeypatch.setattr(module, "generator_coefficients", spy)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    rho = step("sme", outer(PLUS), 0.1, 0.05, 1e-2, m)[0]
    step("sme", rho, 0.2, -0.05, 1e-2, m)
    assert len(calls) == 1


def test_step_sme_tracks_outer_of_nonlinear_step():
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    rng = np.random.default_rng(23)
    gaps = []
    for dt in (4e-2, 1e-2, 2.5e-3):
        g = 0.0
        for k in range(200):
            psi = random_unit_state(rng, 2)
            x = float(rng.normal())
            dw = float(rng.normal()) * np.sqrt(dt)
            nl, _ = step("nonlinear", psi, x, dw, dt, m)
            a = outer(nl)
            b = step("sme", outer(psi), x, dw, dt, m)[0]
            g += np.max(np.abs(a - b))
        gaps.append(g / 200)
    assert 2.8 < gaps[0] / gaps[1] < 5.6
    assert 2.8 < gaps[1] / gaps[2] < 5.6


def test_lindblad_apply_values():
    m = make_measurement_model(np.zeros((2, 2)), sigma_z, 0.0)
    assert np.allclose(lindblad_apply(m, 0.0, np.eye(2) / 2), 0.0, atol=1e-15)
    assert np.allclose(lindblad_apply(m, 0.0, outer(E0)), 0.0, atol=1e-15)
    got = lindblad_apply(m, 0.0, outer(PLUS))
    assert np.allclose(got, np.array([[0.0, -1.0], [-1.0, 0.0]]), atol=1e-15)


def test_propagate_zero_model_all_modes():
    grid = TimeGrid(1e-2, 50)
    m = zero_model()
    dw = sample_wiener(grid, SeedPolicy(30).stream(0))
    for mode, init in [("linear", PLUS), ("nonlinear", PLUS),
                       ("density_linear", outer(PLUS)), ("sme", outer(PLUS))]:
        traj = propagate(mode, init, dw, m, grid)
        final = traj.states[-1] if init.ndim == 1 else traj.matrices[-1]
        assert np.allclose(final, init, atol=1e-13)


def test_propagate_noise_forms_agree():
    grid = TimeGrid(1e-2, 60)
    m = make_random_hamiltonian(sigma_z, sigma_x, 0.9)
    pol = SeedPolicy(31)
    dw = sample_wiener(grid, pol.stream(0))
    t1 = propagate("linear", PLUS, dw, m, grid)
    t2 = propagate("linear", PLUS, pol.stream(0), m, grid)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.X, ou_path(dw, 0.9, grid))
    assert t1.measure == "Q"


def test_propagate_physical_mode_x_replay():
    # nonlinear mode must rebuild X with the running drift record
    grid = TimeGrid(1e-2, 80)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    dw = sample_wiener(grid, SeedPolicy(32).stream(1))
    traj = propagate("nonlinear", E0, dw, m, grid)
    assert traj.measure == "physical"
    assert traj.m_record.shape == (80,)
    assert np.array_equal(traj.X, ou_path_physical(dw, traj.m_record, 1.0, grid))
    assert np.any(traj.m_record != 0.0)
    # weights of a normalized run are identically one
    assert np.allclose(traj.weights, 1.0, atol=1e-12)


@pytest.mark.parametrize("mode", ["density_linear", "sme"])
def test_propagate_density_mode_x_replay(mode):
    # the density modes advance X exactly as the linear and nonlinear ones above
    grid = TimeGrid(1e-2, 80)
    dw = sample_wiener(grid, SeedPolicy(34).stream(2))
    if mode == "sme":
        m = make_measurement_model(0.5 * sigma_z, sigma_minus, 0.9)
    else:
        m = make_random_hamiltonian(sigma_z, sigma_x, 0.9)
    traj = propagate(mode, outer(PLUS), dw, m, grid)
    if mode == "sme":
        assert np.any(traj.m_record != 0.0)
        assert np.array_equal(traj.X, ou_path_physical(dw, traj.m_record, 0.9, grid))
    else:
        assert np.array_equal(traj.X, ou_path(dw, 0.9, grid))


def test_propagate_linear_tracks_commuting_solution():
    grid = TimeGrid(1e-3, 1000)
    m = make_random_hamiltonian(np.zeros((2, 2)), sigma_z, 1.0)
    traj = propagate("linear", PLUS, sample_wiener(grid, SeedPolicy(33).stream(0)), m, grid)
    err = 0.0
    for k in (250, 500, 1000):
        ref = exact_commuting_solution(PLUS, np.zeros((2, 2)), sigma_z,
                                       float(traj.X[k]), float(grid.times[k]))
        err = max(err, np.linalg.norm(traj.states[k] - ref))
    assert err < 0.05  # strong error ~ sqrt(dt); order checked in the acceptance suite


def test_propagate_validation():
    grid = TimeGrid(1e-2, 10)
    m = zero_model()
    with pytest.raises(ValidationError, match="mode"):
        propagate("weak", PLUS, np.zeros(10), m, grid)
    with pytest.raises(ValidationError):
        propagate("linear", 2.0 * PLUS, np.zeros(10), m, grid)
    with pytest.raises(ValidationError):
        propagate("linear", np.array([1.0, 0.0, 0.0]), np.zeros(10), m, grid)
    with pytest.raises(ValidationError, match="steps"):
        propagate("linear", PLUS, np.zeros(10**6 + 1), zero_model(), TimeGrid(1e-9, 10**6 + 1))
    with pytest.raises(ValidationError):
        # gamma dt >= 1 rejected before stepping
        propagate("linear", PLUS, np.zeros(10), make_random_hamiltonian(
            np.zeros((2, 2)), sigma_z, 150.0), grid)


@pytest.mark.parametrize("dw, problem", [
    (np.where(np.arange(10) == 4, np.nan, 0.0), "non-finite"),
    (np.where(np.arange(10) == 4, np.inf, 0.0), "non-finite"),
    (np.zeros(9), "expected 10 increments"),
], ids=["nan", "inf", "short"])
def test_increments_pass_one_gate(dw, problem):
    # raw increments and the OU paths they drive reject the same arrays
    grid = TimeGrid(1e-2, 10)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    for call in (lambda: propagate("linear", PLUS, dw, m, grid),
                 lambda: ou_path(dw, 1.0, grid),
                 lambda: ou_path_physical(dw, np.zeros(10), 1.0, grid)):
        with pytest.raises(ValidationError, match=problem):
            call()
    # the drift record of a physical-measure path passes the same rules
    with pytest.raises(ValidationError, match=problem.replace("increments", "drift values")):
        ou_path_physical(np.zeros(10), dw, 1.0, grid)


def test_propagate_rejects_a_noise_of_neither_form():
    # noise is increments or a Generator; a SeedPolicy is not a stream of its own
    grid = TimeGrid(1e-2, 10)
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    for noise, name in ((SeedPolicy(3), "SeedPolicy"), ("abc", "str"), (object(), "object")):
        with pytest.raises(ValidationError, match=f"^expected 10 increments, got a {name}$"):
            propagate("linear", PLUS, noise, m, grid)


def test_propagate_divergence_reports_step():
    grid = TimeGrid(0.5, 50)
    big = make_measurement_model(np.zeros((2, 2)), 5000.0 * np.eye(2), 0.0)
    with pytest.raises(DivergenceError, match="step"):
        propagate("linear", E0, np.zeros(50), big, grid)


def _divergence(mode, initial, dw, m, grid):
    with pytest.raises(DivergenceError) as info:
        propagate(mode, initial, dw, m, grid)
    return str(info.value), info.value.step


@pytest.mark.parametrize("mode, kind", MODES_AND_KINDS, ids=MODE_IDS)
def test_propagate_reports_first_non_finite_step(mode, kind):
    # without noise E0 and |E0><E0| keep B psi (or the flow) at about 10 off the diagonal,
    # so the one increment of 1e308 overflows it
    grid = TimeGrid(1e-4, 40)
    dw = np.zeros(40)
    dw[7] = 1e308
    if kind == "random_hamiltonian":
        m = make_random_hamiltonian(np.zeros((2, 2)), 10.0 * sigma_x, 0.7)
    else:
        m = make_measurement_model(np.zeros((2, 2)), 10.0 * sigma_x, 0.7)
    initial = outer(E0) if mode in ("density_linear", "sme") else E0
    what = "matrix" if mode in ("density_linear", "sme") else "state"
    text, k = _divergence(mode, initial, dw, m, grid)
    assert text == f"{mode} step produced a non-finite {what} at step 7 (t = 0.0007)"
    assert k == 7


@pytest.mark.parametrize("mode", ["linear", "nonlinear", "density_linear", "sme"])
def test_propagate_reports_first_non_finite_ou_value(mode):
    # at gamma = 0 two increments of 1e308 carry X past the largest float at step 1,
    # while the zero model leaves the state as it was; an ensemble drops such a row
    initial = outer(E0) if mode in ("density_linear", "sme") else E0
    what = "matrix" if mode in ("density_linear", "sme") else "state"
    text, k = _divergence(mode, initial, [1e308, 1e308, 0.0], zero_model(), TimeGrid(1e-3, 3))
    assert text == f"{mode} step produced a non-finite {what} at step 1 (t = 0.001)"
    assert k == 1


def test_propagate_reports_first_norm_collapse():
    # B = sigma_x at dt = 2 maps E0 to dW E1 and back; a zero increment annihilates the state
    mx = make_measurement_model(np.zeros((2, 2)), sigma_x, 0.0)
    dw = np.full(12, 0.5)
    dw[5] = 0.0
    text, k = _divergence("nonlinear", E0, dw, mx, TimeGrid(2.0, 12))
    assert text == "state norm collapsed to 0.000e+00 before renormalization at step 5 (t = 10)"
    assert k == 5


def test_propagate_reports_first_trace_collapse():
    # B = c sigma_z puts +-dW c on the diagonal of |+><+|: at dW c = 1e17 the trace rounds to 0
    c = 3.0
    m = make_measurement_model(np.zeros((2, 2)), c * sigma_z, 0.0)
    dw = np.zeros(20)
    dw[9] = 1e17 / c
    text, k = _divergence("sme", outer(PLUS), dw, m, TimeGrid(1e-2, 20))
    assert text == "trace collapsed to 0.000e+00 before renormalization at step 9 (t = 0.09)"
    assert k == 9


def test_propagate_stops_soon_after_an_early_divergence(monkeypatch):
    # a divergence at step 5 of 100 000 costs at most one block of further steps
    calls = []
    original = dynamics._Stepper.step

    def spy(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(dynamics._Stepper, "step", spy)
    n = 100_000
    dw = np.zeros(n)
    dw[5] = 1e308
    m = make_measurement_model(np.zeros((2, 2)), 10.0 * sigma_x, 0.0)
    text, k = _divergence("linear", E0, dw, m, TimeGrid(1e-5, n))
    assert k == 5 and "at step 5 " in text
    assert 6 <= len(calls) <= 6 + dynamics._CHECK_BLOCK


def test_overflowed_norm_is_a_divergence_at_its_step():
    # K = 1e154 sigma_z puts a drift of about 5e304 into the first step: the state stays
    # finite, its squared norm overflows, and dividing by that infinite norm would zero it
    m = make_random_hamiltonian(np.zeros((2, 2)), 1e154 * sigma_z, 0.0)
    text, k = _divergence("nonlinear", E0, np.zeros(3), m, TimeGrid(1e-3, 3))
    assert text == "nonlinear step produced a non-finite state at step 0 (t = 0)"
    assert k == 0
    with pytest.raises(DivergenceError, match="non-finite state"):
        step("nonlinear", E0, 0.0, 0.0, 1e-3, m)


# kind None draws either kind for each model
@pytest.mark.parametrize("mode, kind, seed", [
    ("linear", None, 71), ("nonlinear", None, 72), ("density_linear", "random_hamiltonian", 73),
    ("sme", None, 74), ("density_linear", "measurement", 76),
], ids=MODE_IDS)
def test_propagate_path_matches_reference_steps(mode, kind, seed):
    # every step of a whole path against the operator-written step from the path's own state
    rng = np.random.default_rng(seed)
    density = mode in ("density_linear", "sme")
    b_degrees = set()
    for _ in range(12):
        m = random_model(rng, kind=kind)
        b_degrees.add(m.b_poly.degree)
        grid = TimeGrid(float(rng.uniform(2e-3, 2e-2)), 40)
        dw = rng.normal(0.0, np.sqrt(grid.dt), grid.n_steps)
        psi = random_unit_state(rng, m.dim)
        traj = propagate(mode, outer(psi) if density else psi, dw, m, grid)
        path = traj.matrices if density else traj.states
        for k in range(grid.n_steps):
            x = float(traj.X[k])
            if density:
                want, scale = _density_reference(mode, m, path[k], x, dw[k], grid.dt)
            else:
                want, mv, scale = _euler_reference(mode, m, path[k], x, dw[k], grid.dt)
            assert np.max(np.abs(path[k + 1] - want)) <= 1e-12 * scale
            if mode == "nonlinear":
                s = diffusion_operator(m, x)
                tol = 1e-12 * np.max(np.abs(s + s.conj().T)) * m.dim
                assert abs(traj.m_record[k] - mv) <= tol
            if mode == "sme":
                b = diffusion_operator(m, x)
                flow = b @ path[k] + path[k] @ b.conj().T
                tol = 1e-12 * np.max(np.abs(flow)) * m.dim
                assert abs(traj.m_record[k] - np.trace(flow).real) <= tol
        if mode in ("nonlinear", "sme"):
            assert np.array_equal(traj.X, ou_path_physical(dw, traj.m_record, m.gamma, grid))
        else:
            assert np.array_equal(traj.X, ou_path(dw, m.gamma, grid))
    if kind != "random_hamiltonian":
        assert b_degrees >= {0, 1, 2}


def test_exact_commuting_solution():
    assert np.allclose(exact_commuting_solution(PLUS, np.zeros((2, 2)), sigma_z, 0.0, 1.0), PLUS)
    x = 0.83
    got = exact_commuting_solution(PLUS, np.zeros((2, 2)), sigma_z, x, 2.0)
    want = np.array([np.exp(-1j * x), np.exp(1j * x)]) / np.sqrt(2)
    assert np.max(np.abs(got - want)) < 1e-14
    # H contributes through t, K through x_t
    h = 0.5 * sigma_z
    got = exact_commuting_solution(E0, h, sigma_z, 0.3, 0.7)
    want = matrix_exp(-1j * (0.7 * h + 0.3 * sigma_z)) @ E0
    assert np.max(np.abs(got - want)) < 1e-14
    with pytest.raises(ValidationError, match="commut"):
        exact_commuting_solution(PLUS, sigma_x, sigma_z, 0.1, 1.0)


def test_density_steps_preserve_hermiticity():
    rng = np.random.default_rng(26)
    m = make_random_hamiltonian(random_hermitian(rng, 2), random_hermitian(rng, 2), 1.0)
    rho = outer(random_unit_state(rng, 2))
    for _ in range(100):
        x, dw = float(rng.normal()), float(rng.normal(0, 0.03))
        rho = step("density_linear", rho, x, dw, 1e-3, m)[0]
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
