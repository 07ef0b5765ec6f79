import math

import numpy as np
import pytest

from ousse import (
    SeedPolicy,
    TimeGrid,
    ValidationError,
    build_liouvillian,
    dephasing_coherence,
    drift_operator,
    lindblad_apply,
    make_measurement_model,
    propagate_lindblad,
    sample_ou_values,
    sigma_minus,
    sigma_z,
    unvec,
    vec,
)

from ousse.model import OperatorPolynomial
from ousse.oracle import (drift_coefficients, flow_coefficients, generator_coefficients, hvec,
                          hvec_basis, hvec_coefficients, unhvec)

from conftest import random_hermitian, random_model, random_operator


def _bits(a):
    """The raw bits of a complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        a = random_operator(rng, d)
        assert np.array_equal(unvec(vec(a), d), a)
    # column stacking: vec reads columns in order
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), np.array([1.0, 3.0, 2.0, 4.0]))


def test_hvec_roundtrip_is_bitwise_exact():
    rng = np.random.default_rng(3)
    for d in range(1, 9):
        for _ in range(5):
            rho = random_hermitian(rng, d)
            c = hvec(rho)
            assert c.dtype == float and c.shape == (d * d,)
            assert np.array_equal(_bits(unhvec(c, d)), _bits(rho))
            assert np.array_equal(hvec(unhvec(c, d)), c)
        # a stack converts matrix by matrix
        stack = np.stack([random_hermitian(rng, d) for _ in range(3)])
        assert np.array_equal(_bits(unhvec(hvec(stack), d)), _bits(stack))
        assert np.array_equal(hvec(stack)[1], hvec(stack[1]))
    # the order: diagonal, then Re and Im of the upper triangle, row-major
    rho = np.array([[1.0, 2 + 3j, 4 + 5j], [2 - 3j, 6.0, 7 + 8j], [4 - 5j, 7 - 8j, 9.0]])
    assert np.array_equal(hvec(rho), [1.0, 6.0, 9.0, 2.0, 4.0, 7.0, 3.0, 5.0, 8.0])
    # the basis matrix takes coordinates to vec form
    for d in (1, 2, 3, 5):
        rho = random_hermitian(rng, d)
        assert np.array_equal(hvec_basis(d) @ hvec(rho), vec(rho))


def test_hvec_coefficients_reproduce_vec_form_products():
    # the real generator and flow matrices act on coordinates as the complex
    # vec-form coefficients act on vec(rho), power by power and summed in x
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 4):
        for _ in range(6):
            h = OperatorPolynomial(tuple(random_hermitian(rng, d) for _ in range(3)))
            b = OperatorPolynomial(tuple(0.5 * random_operator(rng, d) for _ in range(3)))
            for coeffs in (generator_coefficients(h.coefficients, b.coefficients),
                           flow_coefficients(b.coefficients)):
                real = hvec_coefficients(coeffs)
                assert len(real) == len(coeffs)
                for r in real:
                    assert r.dtype == float and r.shape == (d * d, d * d)
                rho = random_hermitian(rng, d)
                for x in (-1.5, 0.0, 0.8):
                    want = sum(x**j * (g @ vec(rho)) for j, g in enumerate(coeffs))
                    got = sum(x**j * (r @ hvec(rho)) for j, r in enumerate(real))
                    scale = sum(abs(x) ** j * np.max(np.abs(g) @ np.abs(vec(rho)))
                                for j, g in enumerate(coeffs))
                    assert np.max(np.abs(hvec(unvec(want, d)) - got)) <= 1e-13 * scale


def test_liouvillian_matches_direct_generator():
    # the superoperator matrix must agree with the dense generator on a basis
    rng = np.random.default_rng(13)
    for d in (2, 3):
        h = random_hermitian(rng, d)
        b = random_operator(rng, d)
        liou = build_liouvillian(h, b)
        m = make_measurement_model(h, b, 0.0)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                direct = lindblad_apply(m, 0.0, e)
                via_matrix = unvec(liou.matrix @ vec(e), d)
                assert np.max(np.abs(direct - via_matrix)) <= 1e-12
                assert np.max(np.abs(liou.apply(e) - direct)) <= 1e-12


def test_generator_coefficients_match_lindblad_apply():
    # sum_j x^j G_j vec(rho) is the generator for every degree pair, up to x^4
    rng = np.random.default_rng(41)
    degrees = set()
    for kind in ("random_hamiltonian", "measurement"):
        for d in (2, 3, 4):
            for gamma in (0.0,) + (None,) * 7:  # gamma = 0 keeps random_hamiltonian constant
                m = random_model(rng, d=d, kind=kind, gamma=gamma)
                h, b = m.h_poly.coefficients, m.b_poly.coefficients
                degrees.add((len(h) - 1, len(b) - 1))
                coeffs = generator_coefficients(h, b)
                assert len(coeffs) == max(len(h), 2 * len(b) - 1)
                dcoeffs = drift_coefficients(h, b)
                assert len(dcoeffs) == len(coeffs)
                v = vec(random_operator(rng, d))
                for x in (-2.0, 0.0, 0.7, 3.0):
                    terms = [x**j * (g @ v) for j, g in enumerate(coeffs)]
                    scale = sum(abs(x) ** j * np.max(np.abs(g) @ np.abs(v))
                                for j, g in enumerate(coeffs))
                    want = vec(lindblad_apply(m, x, unvec(v, d)))
                    assert np.max(np.abs(sum(terms) - want)) <= 1e-12 * scale
                    # the state drift D(x) = sum_j x^j D_j that the vector steps apply
                    drift = sum(x**j * dj for j, dj in enumerate(dcoeffs))
                    dscale = sum(abs(x) ** j * np.max(np.abs(dj)) for j, dj in enumerate(dcoeffs))
                    assert np.max(np.abs(drift - drift_operator(m, x))) <= 1e-12 * dscale
                if len(coeffs) == 1:
                    assert np.array_equal(coeffs[0], build_liouvillian(h[0], b[0]).matrix)
                    assert np.array_equal(dcoeffs[0], drift_operator(m, 0.0))
    assert degrees >= {(0, 0), (1, 0), (2, 2), (0, 2), (2, 0)}


def test_build_liouvillian_validation():
    with pytest.raises(ValidationError, match="hermitian"):
        build_liouvillian(np.array([[0.0, 1.0], [0.0, 0.0]]), sigma_z)
    with pytest.raises(ValidationError):
        build_liouvillian(np.eye(2), np.eye(3))


def test_propagate_lindblad_preserves_density_structure():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 2)
    liou = build_liouvillian(h, sigma_minus)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for t in (0.0, 0.3, 2.0):
        rho = propagate_lindblad(liou, rho0, t)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
    with pytest.raises(ValidationError):
        propagate_lindblad(liou, rho0, -0.5)


def test_propagate_lindblad_decay_rates():
    # spontaneous decay: populations relax at rate 1, coherences at 1/2
    liou = build_liouvillian(np.zeros((2, 2)), sigma_minus)
    rho0 = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
    t = 0.8
    rho = propagate_lindblad(liou, rho0, t)
    assert rho[0, 0] == pytest.approx(0.6 * math.exp(-t), abs=1e-12)
    assert rho[0, 1] == pytest.approx(0.3 * math.exp(-t / 2), abs=1e-12)
    assert rho[1, 1] == pytest.approx(1.0 - 0.6 * math.exp(-t), abs=1e-12)


def test_propagate_lindblad_dephasing_closed_form():
    # B = -i sigma_z, H = 0: off-diagonal decays as e^{-2t}
    liou = build_liouvillian(np.zeros((2, 2)), -1j * sigma_z)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    for t in (0.1, 0.5, 1.0):
        rho = propagate_lindblad(liou, rho0, t)
        assert rho[0, 1] == pytest.approx(0.5 * math.exp(-2 * t), abs=1e-12)
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-13)


def test_dephasing_coherence_values():
    # gamma=0 limit is the white-noise law e^{-2t}
    assert dephasing_coherence(1.0, 0.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    # finite gamma: e^{-2 Var X_t} with Var X_t = (1 - e^{-2 gamma t}) / (2 gamma)
    want = math.exp(-(1.0 - math.exp(-2.0)))
    assert dephasing_coherence(1.0, 1.0) == pytest.approx(want, abs=1e-15)
    assert dephasing_coherence(0.0, 3.0) == 1.0
    with pytest.raises(ValidationError):
        dephasing_coherence(-1.0, 1.0)
    with pytest.raises(ValidationError):
        dephasing_coherence(1.0, -1.0)


def test_dephasing_coherence_gamma_continuity_and_monotonicity():
    t = np.array([0.25, 1.0, 4.0])
    assert np.max(np.abs(dephasing_coherence(t, 1e-10) - dephasing_coherence(t, 0.0))) < 1e-8
    # memory slows dephasing: coherence increases with gamma at fixed t
    gammas = [0.0, 0.5, 1.0, 2.0, 5.0]
    vals = [dephasing_coherence(1.0, g) for g in gammas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # and decays monotonically in time at fixed gamma
    ts = np.linspace(0.0, 3.0, 20)
    v = dephasing_coherence(ts, 0.7)
    assert np.all(np.diff(v) < 0.0)


def test_dephasing_coherence_confirmed_by_direct_mc():
    # independent confirmation: average e^{-2 i X_t} over sampled OU paths.
    # The law is real, so the imaginary part must vanish statistically too.
    grid = TimeGrid(1e-3, 1000)
    for gamma, seed in [(0.0, 41), (1.0, 42)]:
        xs = sample_ou_values(SeedPolicy(seed), grid, gamma, 10**5, [500, 1000])
        for col, t in [(0, 0.5), (1, 1.0)]:
            z = np.exp(-2j * xs[:, col])
            se = z.real.std(ddof=1) / math.sqrt(10**5)
            assert abs(z.real.mean() - dephasing_coherence(t, gamma)) < 3 * se + 5e-3
            se_im = z.imag.std(ddof=1) / math.sqrt(10**5)
            assert abs(z.imag.mean()) < 3 * se_im + 5e-3
