import numpy as np
import pytest

from ousse import (
    ValidationError,
    consistency_residual,
    diffusion_operator,
    drift_operator,
    girsanov_drift,
    make_measurement_model,
    make_random_hamiltonian,
    sigma_minus,
    sigma_x,
    sigma_z,
)
from ousse import model
from ousse.model import MAX_DEGREE, OperatorPolynomial

from conftest import random_hermitian, random_model, random_unit_state


def test_operator_polynomial():
    c0 = np.eye(2, dtype=complex)
    c1 = sigma_x
    p = OperatorPolynomial((c0, c1))
    assert p.degree == 1 and p.dim == 2 and not p.is_constant
    assert np.allclose(p(2.0), c0 + 2.0 * c1)
    vals = p.at(np.array([0.0, 1.0, -1.0]))
    assert vals.shape == (3, 2, 2)
    assert np.allclose(vals[2], c0 - c1)
    q = OperatorPolynomial.constant(sigma_z)
    assert q.is_constant and np.allclose(q(17.0), sigma_z)


def test_operator_polynomial_validation():
    with pytest.raises(ValidationError):
        OperatorPolynomial(())
    with pytest.raises(ValidationError):
        OperatorPolynomial((np.eye(2), np.eye(3)))  # mixed dims
    too_many = tuple(np.eye(2) for _ in range(MAX_DEGREE + 2))
    with pytest.raises(ValidationError, match="degree"):
        OperatorPolynomial(too_many)


def test_make_random_hamiltonian():
    m = make_random_hamiltonian(sigma_z, sigma_x, 0.7)
    assert m.kind == "random_hamiltonian" and m.dim == 2 and m.gamma == 0.7
    # the OU coupling is folded into the hermitian family: H(x) = H - gamma x K
    assert np.allclose(m.h_poly(2.0), sigma_z - 0.7 * 2.0 * sigma_x)
    assert np.allclose(m.b_poly(5.0), -1j * sigma_x)
    assert m.b_poly.is_constant
    # errors name the offending operator
    with pytest.raises(ValidationError, match="H"):
        make_random_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), sigma_x, 1.0)
    with pytest.raises(ValidationError, match="K"):
        make_random_hamiltonian(sigma_z, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValidationError):
        make_random_hamiltonian(sigma_z, np.eye(3), 1.0)  # dim mismatch


def test_make_measurement_model():
    m = make_measurement_model(0.5 * sigma_z, sigma_minus, 1.0)
    assert m.kind == "measurement"
    assert np.allclose(m.b_poly(3.0), sigma_minus)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="H coefficient 0"):
        make_measurement_model(bad, sigma_minus, 1.0)
    h = OperatorPolynomial((sigma_z, bad))
    with pytest.raises(ValidationError, match="H coefficient 1"):
        make_measurement_model(h, sigma_minus, 1.0)


def test_drift_and_diffusion():
    m = make_random_hamiltonian(sigma_z, sigma_x, 1.0)
    x = 1.3
    b = diffusion_operator(m, x)
    assert np.allclose(b, -1j * sigma_x)
    d = drift_operator(m, x)
    assert np.allclose(d, -1j * (sigma_z - x * sigma_x) - 0.5 * np.eye(2))


def test_consistency_residual_sweep():
    rng = np.random.default_rng(1)
    xs = np.linspace(-5.0, 5.0, 21)
    for _ in range(40):
        m = random_model(rng)
        for x in xs:
            a = drift_operator(m, float(x)) + (m.gamma * x) * diffusion_operator(m, float(x))
            tol = 1e-12 * (1.0 + float(np.max(np.abs(a))))
            assert consistency_residual(m, float(x)) <= tol


def test_consistency_perturbation_hook(monkeypatch):
    rng = np.random.default_rng(2)
    m = random_model(rng)
    eps = 1e-3

    def shift_drift(shift):
        monkeypatch.setattr(model, "drift_operator",
                            lambda m, x: drift_operator(m, x) + shift * np.eye(m.dim))

    for x in (-2.0, 0.0, 3.5):
        # a real shift of the drift breaks the condition by exactly 2 eps
        shift_drift(eps)
        assert consistency_residual(m, x) == pytest.approx(2 * eps, rel=1e-9)
        # an imaginary shift is a Hamiltonian-like term and stays invisible
        shift_drift(1j * eps)
        assert consistency_residual(m, x) < 1e-12 * (1 + 10 * eps)


def test_girsanov_drift():
    m = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    # m-value is <psi|(B + B^dag)psi>
    assert girsanov_drift(m, 0.0, e0) == pytest.approx(0.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert girsanov_drift(m, 0.0, plus) == pytest.approx(1.0)
    assert girsanov_drift(m, 0.0, e1) == pytest.approx(0.0)
    with pytest.raises(ValidationError, match="norm"):
        girsanov_drift(m, 0.0, 2.0 * e0)


def test_girsanov_drift_rejects_bad_states():
    m = make_measurement_model(np.zeros((2, 2)), sigma_minus, 1.0)
    with pytest.raises(ValidationError, match="non-finite"):
        girsanov_drift(m, 0.0, np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError, match="dimension"):
        girsanov_drift(m, 0.0, np.array([1.0, 0.0, 0.0]))


def test_girsanov_drift_rh_kind_vanishes():
    rng = np.random.default_rng(4)
    m = make_random_hamiltonian(random_hermitian(rng, 3), random_hermitian(rng, 3), 1.2)
    for _ in range(10):
        v = random_unit_state(rng, 3)
        assert girsanov_drift(m, float(rng.normal()), v) == 0.0
