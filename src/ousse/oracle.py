"""Independent reference solutions for closed or constant-coefficient cases.

Vectorization convention (fixed, do not change): ``vec`` stacks
columns, i.e. ``vec(rho) = rho.ravel(order="F")``, under which
``vec(A X B) = (B^T kron A) vec(X)``.  Both superoperator factors below
follow from that choice; mixing conventions is the classic silent bug
in Liouvillian code, so every builder here goes through the same two
helpers.

Hermitian coordinates: ``hvec`` writes a Hermitian ``d x d`` matrix as
``d^2`` real numbers, the ``d`` diagonal entries, then ``Re rho_ij``
for ``i < j``, then ``Im rho_ij`` for ``i < j`` (both in row-major
order of the upper triangle), and ``unhvec`` is its inverse.  The map
is unscaled, so both directions are exact.  ``hvec_coefficients``
turns vec-form coefficients that map Hermitian matrices to Hermitian
ones (the generator and the flow) into real ``d^2 x d^2`` matrices
acting on these coordinates; the steppers and the ensemble recording
work in them, while the complex vec form here stays the reference.
"""

import functools
import math

import numpy as np

from .errors import ValidationError
from .linalg import _fit_state, _require_hermitian, as_operator, dagger, matrix_exp
from .noise import _check_gamma

__all__ = [
    "build_liouvillian",
    "generator_coefficients",
    "drift_coefficients",
    "flow_coefficients",
    "propagate_lindblad",
    "dephasing_coherence",
    "vec",
    "unvec",
    "hvec",
    "unhvec",
    "hvec_basis",
    "hvec_coefficients",
]


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).ravel(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


@functools.lru_cache(maxsize=None)
def _upper(dim: int):
    """Row and column indices of the upper triangle, ``i < j``, in row-major order."""
    i, j = np.triu_indices(dim, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def hvec(rho) -> np.ndarray:
    """Real Hermitian coordinates of ``rho``, or of each matrix of a stack on the leading axes.

    The diagonal, then ``Re`` and ``Im`` of the upper triangle; the lower
    triangle is not read.
    """
    rho = np.asarray(rho)
    i, j = _upper(rho.shape[-1])
    upper = rho[..., i, j]
    return np.concatenate([np.diagonal(rho, axis1=-2, axis2=-1).real, upper.real, upper.imag],
                          axis=-1)


def unhvec(c, dim: int) -> np.ndarray:
    """The Hermitian ``(dim, dim)`` matrix (or stack of them) with coordinates ``c``."""
    c = np.asarray(c, dtype=float)
    i, j = _upper(dim)
    re, im = np.split(c[..., dim:], 2, axis=-1)
    rho = np.zeros(c.shape[:-1] + (dim, dim), dtype=complex)
    k = np.arange(dim)
    rho.real[..., k, k] = c[..., :dim]
    rho.real[..., i, j] = re
    rho.real[..., j, i] = re
    rho.imag[..., i, j] = im
    rho.imag[..., j, i] = -im
    return rho


def hvec_basis(dim: int) -> np.ndarray:
    """The complex ``(dim^2, dim^2)`` matrix T with ``vec(rho) = T hvec(rho)`` for Hermitian rho."""
    dd = dim * dim
    # row k of the transposed stack, read row-major, is vec of basis matrix k
    return unhvec(np.eye(dd), dim).transpose(0, 2, 1).reshape(dd, dd).T


def hvec_coefficients(coeffs) -> tuple:
    """Real matrices ``R_j`` with ``hvec(unvec(G_j vec(rho))) = R_j hvec(rho)``, rho Hermitian.

    Each vec-form ``G_j`` must map Hermitian matrices to Hermitian ones,
    as those of :func:`generator_coefficients` and
    :func:`flow_coefficients` do.  Column k of ``R_j`` is the coordinate
    vector of ``G_j`` applied to the basis matrix of coordinate k:
    ``E_ii``, ``E_ij + E_ji`` or ``i (E_ij - E_ji)``.
    """
    dim = math.isqrt(coeffs[0].shape[0])
    i, j = _upper(dim)
    diag = np.arange(dim) * (dim + 1)
    up, lo = i + dim * j, j + dim * i
    out = []
    for g in coeffs:
        g = g[np.concatenate([diag, up])]       # the rows hvec reads
        cols = np.concatenate([g[:, diag], g[:, up] + g[:, lo], 1j * (g[:, up] - g[:, lo])], axis=1)
        # C order: the layout picks the BLAS kernel, so it fixes the rounding of every step
        out.append(np.ascontiguousarray(
            np.concatenate([cols[:dim].real, cols[dim:].real, cols[dim:].imag])))
    return tuple(out)


def _left(a: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho."""
    return np.kron(np.eye(a.shape[0]), a)


def _right(a: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> rho a."""
    return np.kron(a.T, np.eye(a.shape[0]))


def generator_coefficients(h_coeffs, b_coeffs) -> tuple:
    """Vec-form coefficients ``G_j`` with ``vec(L(x) rho) = sum_j x^j G_j vec(rho)``.

    ``L(x)`` is the generator of ``build_liouvillian`` for ``H(x) = sum_k
    x^k h_k`` and ``B(x) = sum_k x^k b_k``; the ``b_l^dag b_k`` and ``b_k rho
    b_l^dag`` terms sit at power ``k + l``, so the degree is at most 4.
    """
    g = [None] * max(len(h_coeffs), 2 * len(b_coeffs) - 1)
    for j, h in enumerate(h_coeffs):
        g[j] = -1j * (_left(h) - _right(h))
    for k, bk in enumerate(b_coeffs):
        for l, bl in enumerate(b_coeffs):
            bb = dagger(bl) @ bk
            half = 0.5 * (_left(bb) + _right(bb))
            g[k + l] = (-half if g[k + l] is None else g[k + l] - half) + np.kron(np.conj(bl), bk)
    return tuple(g)


def drift_coefficients(h_coeffs, b_coeffs) -> tuple:
    """Coefficients ``D_j`` of the state drift ``-i H(x) - 1/2 B(x)^dag B(x) = sum_j x^j D_j``.

    ``b_l^dag b_k`` sits at power ``k + l``, as in :func:`generator_coefficients`.
    """
    dmats = [None] * max(len(h_coeffs), 2 * len(b_coeffs) - 1)
    for j, h in enumerate(h_coeffs):
        dmats[j] = -1j * h
    for k, bk in enumerate(b_coeffs):
        for l, bl in enumerate(b_coeffs):
            half = 0.5 * (dagger(bl) @ bk)
            dmats[k + l] = -half if dmats[k + l] is None else dmats[k + l] - half
    return tuple(dmats)


def flow_coefficients(b_coeffs) -> tuple:
    """Vec-form coefficients of ``rho -> B(x) rho + rho B(x)^dag``, one per power."""
    return tuple(_left(b) + _right(dagger(b)) for b in b_coeffs)


def build_liouvillian(h, b) -> np.ndarray:
    """The ``(d^2, d^2)`` matrix M with ``vec(L rho) = M vec(rho)``.

    ``L rho = -i[H,rho] - 1/2 {B^dag B, rho} + B rho B^dag``, for
    constant operators only: this is the generator of the closed mean
    equation in the memoryless limit and of the constant-B case, used
    as the deterministic cross-check for trajectory averages.
    """
    h = _require_hermitian(as_operator(h), "H")
    b = as_operator(b)
    if h.shape != b.shape:
        raise ValidationError(f"H shape {h.shape} != B shape {b.shape}")
    return generator_coefficients((h,), (b,))[0]


def propagate_lindblad(liou: np.ndarray, rho0, t: float) -> np.ndarray:
    """``unvec(exp(t M) vec(rho0))`` for the matrix ``M = liou`` of ``build_liouvillian``.

    Trace-preserving by construction.
    """
    if t < 0.0:
        raise ValidationError(f"time must be >= 0, got {t!r}")
    dim = math.isqrt(len(liou))
    if np.shape(liou) != (dim * dim, dim * dim):
        raise ValidationError(f"expected a (d^2, d^2) matrix, got shape {np.shape(liou)}")
    rho0 = _fit_state(rho0, True, dim, "state")
    return unvec(matrix_exp(t * liou) @ vec(rho0), dim)


def dephasing_coherence(t, gamma: float):
    """Coherence decay factor of the pure-dephasing model, ``E[e^{-2i X_t}]``.

    Derivation: with commuting constant ``K = sigma_z`` and ``H = 0``
    the state is ``exp(-i X_t sigma_z) psi0``, so the off-diagonal term
    picks up ``e^{-2i X_t}``; X_t is a centred Gaussian, and the
    characteristic function gives ``exp(-2 Var X_t)``.  Written via
    ``expm1`` so small gamma*t does not cancel:

        gamma > 0:  exp(expm1(-2 gamma t) / gamma)
        gamma = 0:  exp(-2 t)            (Brownian phase limit)

    Decreasing in t, increasing in gamma: coloured noise dephases more
    slowly than its white-noise limit.
    """
    gamma = _check_gamma(gamma)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValidationError("time must be >= 0")
    if gamma == 0.0:
        out = np.exp(-2.0 * t_arr)
    else:
        out = np.exp(np.expm1(-2.0 * gamma * t_arr) / gamma)
    if np.isscalar(t):
        return float(out)
    return out
