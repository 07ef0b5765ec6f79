"""Dynamics models: operator coefficients as polynomials in the OU value.

A model couples a hermitian Hamiltonian family ``H(x)`` and a noise
operator family ``B(x)`` to the OU process, with the total state drift

    D(x) = -i H(x) - (1/2) B(x)^dag B(x).

Two kinds exist.  ``random_hamiltonian`` takes constant hermitian
operators ``H`` and ``K``, sets ``B = -iK`` and absorbs the OU reversion
into the Hamiltonian, ``H(x) = H - gamma x K``; the state evolution is
then unitary along each path.  ``measurement`` takes arbitrary
polynomial families ``H(x)`` (hermitian-valued) and ``B(x)`` and models
a diffusive measurement record.  In both cases the drift is derived,
never stored, so the norm-consistency condition holds by construction;
``consistency_residual`` re-checks it numerically anyway.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import (_require_hermitian, _unit_state, as_operator, dagger, expectation,
                     hermitian_residual)
from .noise import _check_gamma

__all__ = [
    "OperatorPolynomial",
    "ModelSpec",
    "make_random_hamiltonian",
    "make_measurement_model",
    "drift_operator",
    "diffusion_operator",
    "consistency_residual",
    "girsanov_drift",
]

MAX_DEGREE = 2


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class OperatorPolynomial:
    """Operator-valued polynomial ``x -> sum_k x^k M_k``, degree <= 2."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(_freeze(as_operator(c)) for c in self.coefficients)
        if not coeffs:
            raise ValidationError("polynomial needs at least one coefficient")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValidationError(
                f"polynomial degree {len(coeffs) - 1} exceeds the supported bound {MAX_DEGREE}"
            )
        dims = {c.shape[0] for c in coeffs}
        if len(dims) != 1:
            raise ValidationError(f"coefficient dimensions differ: {sorted(dims)}")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def constant(cls, op) -> "OperatorPolynomial":
        return cls((op,))

    @property
    def dim(self) -> int:
        return self.coefficients[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coefficients) == 1

    def __call__(self, x: float) -> np.ndarray:
        out = self.coefficients[0].copy()
        xp = 1.0
        for c in self.coefficients[1:]:
            xp = xp * x
            out += xp * c
        return out

    def at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at an array of x values; returns shape ``(len(x), d, d)``."""
        x = np.asarray(x, dtype=float)
        powers = np.vander(x, len(self.coefficients), increasing=True)
        return np.einsum("nk,kij->nij", powers, np.stack(self.coefficients))

    def max_hermitian_residual(self) -> float:
        return max(hermitian_residual(c) for c in self.coefficients)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model: kind tag, OU rate and the two operator families.

    ``h_poly`` is the full physical Hamiltonian family (for the
    random_hamiltonian kind it already contains the ``-gamma x K``
    term); ``k`` keeps the bare coupling operator of that kind for the
    commutator-form density update and the exact commuting solution.
    """

    kind: str
    gamma: float
    h_poly: OperatorPolynomial
    b_poly: OperatorPolynomial
    k: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("random_hamiltonian", "measurement"):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        _check_gamma(self.gamma)
        if self.h_poly.dim != self.b_poly.dim:
            raise ValidationError(
                f"H dimension {self.h_poly.dim} != B dimension {self.b_poly.dim}"
            )
        if self.k is not None:
            object.__setattr__(self, "k", _freeze(self.k))

    @property
    def dim(self) -> int:
        return self.h_poly.dim


def make_random_hamiltonian(h, k, gamma: float) -> ModelSpec:
    """Model with ``B = -iK`` and effective Hamiltonian ``H - gamma x K``.

    ``h`` and ``k`` are constant hermitian operators of equal dimension.
    Along every noise path the generated evolution is unitary, so the
    squared state norm is conserved pathwise (up to integrator error).
    """
    h = as_operator(h)
    k = as_operator(k)
    _require_hermitian(h, "H")
    _require_hermitian(k, "K")
    if h.shape != k.shape:
        raise ValidationError(f"H shape {h.shape} != K shape {k.shape}")
    gamma = float(gamma)
    # at gamma = 0 the coupling term vanishes and the model is genuinely constant
    coeffs = (h,) if gamma == 0.0 else (h, -gamma * k)
    h_poly = OperatorPolynomial(coeffs)
    b_poly = OperatorPolynomial.constant(-1j * k)
    return ModelSpec("random_hamiltonian", gamma, h_poly, b_poly, k=k)


def make_measurement_model(h_poly, b_poly, gamma: float) -> ModelSpec:
    """General diffusive model with hermitian-valued ``H(x)`` and free ``B(x)``."""
    if not isinstance(h_poly, OperatorPolynomial):
        h_poly = OperatorPolynomial.constant(h_poly)
    if not isinstance(b_poly, OperatorPolynomial):
        b_poly = OperatorPolynomial.constant(b_poly)
    for j, c in enumerate(h_poly.coefficients):
        _require_hermitian(c, f"H coefficient {j}")
    if h_poly.dim != b_poly.dim:
        raise ValidationError(f"H dimension {h_poly.dim} != B dimension {b_poly.dim}")
    return ModelSpec("measurement", float(gamma), h_poly, b_poly)


def drift_operator(m: ModelSpec, x: float) -> np.ndarray:
    """Total state drift ``-i H(x) - (1/2) B(x)^dag B(x)``."""
    b = m.b_poly(x)
    return -1j * m.h_poly(x) - 0.5 * (dagger(b) @ b)


def diffusion_operator(m: ModelSpec, x: float) -> np.ndarray:
    return m.b_poly(x)


def consistency_residual(m: ModelSpec, x: float, drift_shift: complex = 0.0) -> float:
    """Numerical check of the norm-consistency condition at one x.

    Reconstructs ``A(x) = D(x) + gamma x B(x)`` from the derived drift
    and returns the max-abs entry of ``A^dag + A - gamma x (B^dag + B)
    + B^dag B``, which vanishes identically for constructor-built
    models.  ``drift_shift`` adds a multiple of the identity to the
    drift before the check (a deliberate-defect hook: a shift ``eps``
    raises the residual to ``2 eps``, an imaginary shift leaves it
    unchanged).
    """
    b = m.b_poly(x)
    d = drift_operator(m, x)
    if drift_shift != 0.0:
        d = d + drift_shift * np.eye(m.dim)
    a = d + (m.gamma * x) * b
    resid = dagger(a) + a - (m.gamma * x) * (dagger(b) + b) + dagger(b) @ b
    return float(np.max(np.abs(resid)))


def girsanov_drift(m: ModelSpec, x: float, psi_hat) -> float:
    """Measurement drift ``m(t) = <psi|(B^dag + B)|psi>`` for a unit state.

    Identically zero for the random_hamiltonian kind, where ``B`` is
    anti-hermitian.
    """
    psi = _unit_state(psi_hat, False, m.dim, "state")
    b = m.b_poly(x)
    return float(expectation(b + dagger(b), psi).real)
