"""Dense complex linear algebra for small Hilbert spaces.

States are one dimensional complex ndarrays and operators are square
complex ndarrays.  Dimensions stay small (a handful of levels), so
everything is dense and no attempt is made at sparsity.  All checks
use scaled tolerances: an operator entry of size ``s`` is compared at
``1e-10 * (1 + s)`` unless a caller overrides it.  Only ``matrix_exp``
needs scipy, and it loads ``scipy.linalg`` at its first call, so
importing ousse loads no scipy module.
"""

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_state",
    "as_operator",
    "dagger",
    "commutator",
    "anticommutator",
    "matrix_exp",
    "expectation",
    "outer",
    "hermitian_residual",
    "hermitian_tolerance",
    "check_density_matrix",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "sigma_minus",
    "sigma_plus",
]

#: Pauli matrices in the basis where ``[1, 0]`` is the excited state.
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: Lowering operator: maps ``[1, 0]`` to ``[0, 1]`` and kills ``[0, 1]``.
sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

TRACE_TOL = 1e-9
PSD_TOL = 1e-8


def as_state(v) -> np.ndarray:
    """Coerce ``v`` to a finite 1-D complex vector.

    Raises
    ------
    ValidationError
        If the array is not one dimensional, is empty, or contains
        non-finite entries.
    """
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"state must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("state contains non-finite entries")
    return arr


def as_operator(a) -> np.ndarray:
    """Coerce ``a`` to a finite square complex matrix."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"operator must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("operator contains non-finite entries")
    return arr


def _unit_state(state, density: bool, dim: int, what: str = "initial", cone: bool = True):
    """``state`` as a complex vector of unit norm, or matrix of unit trace, of dimension ``dim``.

    With ``cone``, a matrix must also be hermitian and PSD, as stepped SME matrices need not be.
    """
    if density:
        state = as_operator(state)
        tr = float(np.real(np.trace(state)))
        if abs(tr - 1.0) > 1e-9:
            raise ValidationError(f"{what} trace must be 1, got {tr:.12g}")
        if cone:
            check_density_matrix(state)
    else:
        state = as_state(state)
        nrm2 = float(np.real(np.vdot(state, state)))
        if abs(nrm2 - 1.0) > 1e-9:
            raise ValidationError(f"{what} norm^2 must be 1, got {nrm2:.12g}")
    if state.shape[0] != dim:
        raise ValidationError(f"{what} dimension {state.shape[0]} != model dimension {dim}")
    return state


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[A, B] = AB - BA``."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``{A, B} = AB + BA``."""
    return a @ b + b @ a


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential ``exp(A)`` of a square complex matrix.

    Delegates to scipy's scaling-and-squaring Pade implementation,
    which is accurate to close to machine precision for the small
    well-conditioned matrices used here.  ``scipy.linalg`` is imported
    at the first call: its import costs most of a cold start, and only
    the Lindblad-limit oracle and the closed-form solutions call this.
    """
    from scipy.linalg import expm

    return expm(as_operator(a))


def expectation(op, state) -> complex:
    """Quadratic form ``<psi|A|psi>``.

    The state is used as given; divide by ``<psi|psi>`` yourself if it
    is not normalized.  Real part only would discard information for
    non-hermitian ``A``, so the full complex value is returned.
    """
    psi = np.asarray(state)
    return complex(np.vdot(psi, np.asarray(op) @ psi))


def outer(state) -> np.ndarray:
    """Rank-one projector-like matrix ``|psi><psi|`` (not normalized)."""
    psi = np.asarray(state)
    return np.outer(psi, np.conj(psi))


def hermitian_tolerance(a: np.ndarray) -> float:
    """Scale-aware tolerance for hermiticity checks."""
    return 1e-10 * (1.0 + float(np.max(np.abs(a), initial=0.0)))


def hermitian_residual(a: np.ndarray) -> float:
    """Largest entry of ``|A - A^dag|``; zero iff ``A`` is hermitian."""
    return float(np.max(np.abs(a - dagger(a)), initial=0.0))


def _require_hermitian(a: np.ndarray, name: str):
    """ValidationError naming ``name`` unless ``a`` is hermitian at the scaled tolerance."""
    res = hermitian_residual(a)
    tol = hermitian_tolerance(a)
    if res > tol:
        raise ValidationError(f"{name} is not hermitian: residual {res:.3e} exceeds {tol:.3e}")


def check_density_matrix(rho, *, unit_trace: bool = True) -> np.ndarray:
    """Validate a density matrix and return it as a complex ndarray.

    Checks hermiticity at the scaled tolerance, trace one within
    ``TRACE_TOL`` (skipped when ``unit_trace`` is false, as for the
    unnormalized matrices evolved under the reference measure), and
    eigenvalues above ``-PSD_TOL``.
    """
    arr = as_operator(rho)
    _require_hermitian(arr, "density matrix")
    tr = complex(np.trace(arr))
    if unit_trace and abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"density matrix trace {tr:.17g} differs from 1 beyond {TRACE_TOL:.1e}")
    # eigvalsh is safe after the hermiticity gate above
    w = np.linalg.eigvalsh(0.5 * (arr + dagger(arr)))
    if w.min(initial=0.0) < -PSD_TOL:
        raise ValidationError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return arr
