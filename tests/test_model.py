import numpy as np
import pytest

from ousse import (
    ModelSpec,
    ValidationError,
    girsanov_drift,
    make_measurement_model,
    make_random_hamiltonian,
    sigma_minus,
    sigma_x,
    sigma_z,
)
from ousse.ensemble import _consistency_report
from ousse.model import MAX_DEGREE, OperatorPolynomial

from conftest import random_hermitian, random_model, random_unit_state


def test_operator_polynomial():
    c0 = np.eye(2, dtype=complex)
    c1 = sigma_x
    p = OperatorPolynomial((c0, c1))
    assert p.degree == 1 and p.dim == 2 and not p.is_constant
    assert np.allclose(p(2.0), c0 + 2.0 * c1)
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
    assert np.allclose(m.b_poly(x), -1j * sigma_x)
    # the drift the vector steps run, sum_j x^j D_j
    d = sum(x**j * dj for j, dj in enumerate(m._drift))
    assert np.allclose(d, -1j * (sigma_z - x * sigma_x) - 0.5 * np.eye(2))


def test_model_spec_gates_h_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = OperatorPolynomial((sigma_z, bad))
    for kind in ("measurement", "random_hamiltonian"):
        with pytest.raises(ValidationError, match="H coefficient 1 is not hermitian"):
            ModelSpec(kind, 1.0, h, OperatorPolynomial((sigma_minus,)))
    with pytest.raises(ValidationError, match="H coefficient 0 is not hermitian"):
        ModelSpec("measurement", 1.0, OperatorPolynomial((bad,)), OperatorPolynomial((sigma_minus,)))


def test_consistency_perturbation_hook():
    rng = np.random.default_rng(2)
    m = random_model(rng)
    eps = 1e-3
    drift = m._drift

    def shift_drift(j, shift):
        m.__dict__["_drift"] = drift[:j] + (drift[j] + shift * np.eye(m.dim),) + drift[j + 1:]
        return _consistency_report(m)

    for j in range(len(drift)):
        # a real shift of the drift breaks the condition by exactly 2 eps
        report = shift_drift(j, eps)
        assert not report.passed
        assert max(e.statistic for e in report.entries) == pytest.approx(2 * eps, rel=1e-9)
        # an imaginary shift moves H by a multiple of I, a phase, and stays invisible
        report = shift_drift(j, 1j * eps)
        assert report.passed
        assert max(e.statistic for e in report.entries) < 1e-12 * (1 + 10 * eps)


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
