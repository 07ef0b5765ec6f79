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
never given, so the norm-consistency condition holds by construction.
``ModelSpec`` refuses an ``H(x)`` with a non-hermitian coefficient, and
caches, once per model, the per-power coefficients the steppers run:
the drift ``D_j``, and the generator and flow in real Hermitian
coordinates.  The ``consistency`` suite of ``ousse verify`` checks those
cached coefficients against ``H`` and ``B``.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import _require_hermitian, _unit_state, as_operator, dagger, expectation
from .noise import _check_gamma
from .oracle import drift_coefficients, flow_coefficients, generator_coefficients, hvec_coefficients

__all__ = [
    "OperatorPolynomial",
    "ModelSpec",
    "make_random_hamiltonian",
    "make_measurement_model",
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


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model: kind tag, OU rate and the two operator families.

    ``h_poly`` is the full physical Hamiltonian family (for the
    random_hamiltonian kind it already contains the ``-gamma x K``
    term); ``k`` keeps the bare coupling operator of that kind for the
    memory form of the mean-state equation and the canonical document.
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
        for j, c in enumerate(self.h_poly.coefficients):
            _require_hermitian(c, f"H coefficient {j}")
        if self.k is not None:
            object.__setattr__(self, "k", _freeze(self.k))

    @property
    def dim(self) -> int:
        return self.h_poly.dim

    # dynamics._Stepper's coefficients per power, each built once per model, at first use

    @functools.cached_property
    def _drift(self) -> tuple:
        return drift_coefficients(self.h_poly.coefficients, self.b_poly.coefficients)

    @functools.cached_property
    def _gen(self) -> tuple:
        return hvec_coefficients(generator_coefficients(self.h_poly.coefficients,
                                                        self.b_poly.coefficients))

    @functools.cached_property
    def _flow(self) -> tuple:
        return hvec_coefficients(flow_coefficients(self.b_poly.coefficients))


def make_random_hamiltonian(h, k, gamma: float) -> ModelSpec:
    """Model with ``B = -iK`` and effective Hamiltonian ``H - gamma x K``.

    ``h`` and ``k`` are constant hermitian operators of equal dimension.
    Along every noise path the generated evolution is unitary, so the
    squared state norm is conserved pathwise (up to integrator error).
    """
    h = _require_hermitian(as_operator(h), "H")
    k = _require_hermitian(as_operator(k), "K")
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
    return ModelSpec("measurement", float(gamma), h_poly, b_poly)


def girsanov_drift(m: ModelSpec, x: float, psi_hat) -> float:
    """Measurement drift ``m(t) = <psi|(B^dag + B)|psi>`` for a unit state.

    Identically zero for the random_hamiltonian kind, where ``B`` is
    anti-hermitian.
    """
    psi = _unit_state(psi_hat, False, m.dim, "state")
    b = m.b_poly(x)
    return float(expectation(b + dagger(b), psi).real)
