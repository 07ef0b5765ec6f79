import numpy as np
import pytest

from ousse import (
    ValidationError,
    anticommutator,
    check_density_matrix,
    commutator,
    dagger,
    expectation,
    hermitian_residual,
    hermitian_tolerance,
    matrix_exp,
    outer,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
)
from ousse.linalg import as_operator, as_state

from conftest import random_hermitian, random_operator, random_unit_state


def test_pauli_algebra():
    assert np.allclose(sigma_x @ sigma_y, 1j * sigma_z)
    assert np.allclose(sigma_y @ sigma_z, 1j * sigma_x)
    assert np.allclose(sigma_z @ sigma_x, 1j * sigma_y)
    for s in (sigma_x, sigma_y, sigma_z):
        assert np.allclose(s @ s, np.eye(2))
    assert np.allclose(sigma_minus, (sigma_x - 1j * sigma_y) / 2)
    assert np.allclose(sigma_plus, dagger(sigma_minus))
    # lowering convention: basis state 0 is the excited one
    assert np.allclose(sigma_minus @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_commutators():
    rng = np.random.default_rng(11)
    a, b = random_operator(rng, 3), random_operator(rng, 3)
    assert np.allclose(commutator(a, b), a @ b - b @ a)
    assert np.allclose(anticommutator(a, b), a @ b + b @ a)
    assert np.allclose(commutator(a, a), 0.0)
    assert np.allclose(commutator(a, b), -commutator(b, a))


def test_matrix_exp_basics():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    # nilpotent: series terminates
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(n), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


def test_matrix_exp_vs_eigendecomposition():
    # independent route for hermitian arguments
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        h = random_hermitian(rng, d)
        w, v = np.linalg.eigh(h)
        ref = (v * np.exp(w)) @ v.conj().T
        got = matrix_exp(h)
        assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


def test_matrix_exp_inverse_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = random_operator(rng, d)
        a *= 5.0 / max(np.linalg.norm(a, 2), 5.0)  # keep norm <= 5
        prod = matrix_exp(a) @ matrix_exp(-a)
        assert np.max(np.abs(prod - np.eye(d))) < 1e-10


def test_expectation():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert expectation(sigma_x, plus) == pytest.approx(1.0)
    assert expectation(sigma_z, plus) == pytest.approx(0.0)
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        h = random_hermitian(rng, d)
        v = random_unit_state(rng, d)
        assert abs(expectation(h, v).imag) < 1e-12


def test_outer():
    rng = np.random.default_rng(5)
    v = random_unit_state(rng, 4)
    p = outer(v)
    assert np.trace(p) == pytest.approx(1.0)
    assert np.allclose(p, dagger(p))
    assert np.allclose(p @ p, p)  # projector for a unit vector
    u = 2.0 * v
    assert np.trace(outer(u)) == pytest.approx(4.0)


def test_hermitian_residual():
    assert hermitian_residual(sigma_x) == 0.0
    assert hermitian_residual(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert hermitian_tolerance(a) == pytest.approx(1e-10 * 4.0)


def test_check_density_matrix():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    check_density_matrix(rho)
    with pytest.raises(ValidationError, match="hermitian"):
        check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="trace"):
        check_density_matrix(np.array([[0.6, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="negative"):
        check_density_matrix(np.array([[1.1, 0.0], [0.0, -0.1]]))
    # trace check can be waived for unnormalized averages
    check_density_matrix(np.array([[0.6, 0.0], [0.0, 0.5]]), unit_trace=False)


def test_validators_take_arrays_in_any_layout():
    rng = np.random.default_rng(5)
    a = random_operator(rng, 3)
    for view in (a.T, np.asfortranarray(a), a[:, ::-1]):
        assert np.array_equal(as_operator(view), view)
    assert np.array_equal(as_state(a[:, 1]), a[:, 1])
    bad = a.copy()
    bad[2, 0] = complex(0.0, np.inf)
    with pytest.raises(ValidationError, match="non-finite"):
        as_operator(bad.T)
    with pytest.raises(ValidationError, match="non-finite"):
        as_state(bad[:, 0])


def test_validators():
    with pytest.raises(ValidationError):
        as_state(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        as_state(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        as_operator(np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        as_operator(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
