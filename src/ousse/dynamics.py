"""Euler-Maruyama integrators for the four stochastic equations.

Modes
-----
``linear``          non-normalized state under the reference measure,
                    d psi = D(x) psi dt + B(x) psi dW
``nonlinear``       normalized state under the physical measure; the
                    measurement drift m = <B + B^dag> feeds back into
                    both the state update and the OU path
``density_linear``  density-matrix form of the linear equation,
                    d rho = L(x) rho dt + (B(x) rho + rho B(x)^dag) dW
``sme``             nonlinear stochastic master equation with trace
                    renormalization after every step

Each mode's step is written once, in ``_Stepper``; ``run_ensemble``,
``propagate`` and the one-step function ``step(mode, ...)`` all step
through it.  The density modes step the real Hermitian coordinates of
rho (see :func:`ousse.oracle.hvec`) with real GEMMs; ``propagate`` and
``step`` take and return ``(d, d)`` matrices.  The OU value x advances
with the same increment that drives the state, and a non-finite or
collapsing state, or a non-finite OU value, raises a structured error
naming the step.  The scheme is plain Euler-Maruyama
throughout; accuracy is checked by convergence-order tests, not by
higher-order steppers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .linalg import _fit_state, _unit_state, as_operator, as_state, dagger, matrix_exp
from .model import ModelSpec
from .noise import TimeGrid, _check_gamma, _check_increments, _ou_next, sample_wiener
from .oracle import hvec, unhvec

__all__ = [
    "Trajectory",
    "step",
    "lindblad_apply",
    "propagate",
    "exact_commuting_solution",
]

MODES = ("linear", "nonlinear", "density_linear", "sme")
DENSITY_MODES = ("density_linear", "sme")       # step density matrices
PHYSICAL_MODES = ("nonlinear", "sme")           # evolve under the physical measure
MAX_STEPS = 10**6
_CHECK_BLOCK = 256      # steps a single trajectory runs between two checks of its gates


@dataclass(frozen=True)
class Trajectory:
    """One realized state path with its noise and likelihood weights."""

    grid: TimeGrid
    states: np.ndarray          # (n_steps+1, d), or (n_steps+1, d, d) in the density modes
    weights: np.ndarray         # (n_steps+1,) squared norms or traces
    X: np.ndarray               # (n_steps+1,) OU values
    m_record: np.ndarray        # (n_steps,) drift record; empty outside the physical modes
    measure: str                # "Q" | "physical"

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


# ---------------------------------------------------------------------------
# the step kernel

def _poly_apply(mats, x, s):
    """``sum_j x^j mats[j] @ s`` for a batch of columns: one GEMM per power."""
    out = mats[0] @ s
    xp = x
    for mj in mats[1:]:
        out += xp * (mj @ s)
        xp = xp * x
    return out


def _trace(c, d):
    """Trace of each Hermitian coordinate column of a (d*d, n) or (d*d,) batch."""
    return np.add.reduce(c[:d], axis=0)


def _check_mode(mode):
    """``mode`` if it is one of ``MODES``."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def _measure_modes(initial):
    """The (reference-measure, physical-measure) modes that integrate ``initial``."""
    return ("density_linear", "sme") if np.ndim(initial) == 2 else ("linear", "nonlinear")


class _Stepper:
    """One Euler-Maruyama step of a batch of columns and their OU values.

    The trajectory axis is last and contiguous: states are complex
    ``(d, n)`` columns or real ``(d*d, n)`` Hermitian coordinate columns
    (``hvec(rho)``), and ``x``, ``dw``, m and the scale are ``(n,)``
    vectors broadcast along it.  A single trajectory steps as one 1-D
    ``(d,)`` or ``(d*d,)`` column with float ``x`` and ``dw``; m and
    the scale are then numpy scalars.  ``step(state, x, dw, dt)``
    returns ``(state, x, m_values, scale)``: the stepped columns; the
    next OU values, ``decay x + m dt + dw`` under the physical measure
    and ``decay x + dw`` otherwise; the measurement drift at the step
    start (None in the linear modes); and the norm (``nonlinear``) or
    trace (``sme``) the columns were divided by (None in the linear
    modes).  Every operator is held as per-power coefficients ``M_j``,
    applied as ``M_j @ state``: ``D(x)`` and ``B(x)`` for state vectors,
    with m = 2 Re <psi|B(x) psi> from the same ``B(x) psi``; the
    generator and flow as real matrices on Hermitian coordinates, for
    density columns and node recording, built once per model.  The trace of
    a coordinate column is the sum of its first d rows.  If every
    ``B_k + B_k^dag`` is zero (random_hamiltonian),
    m is exactly zero and not computed.
    """

    def __init__(self, m: ModelSpec, mode: str):
        _check_mode(mode)
        self.m = m
        self.mode = mode
        self.d = m.dim
        self.density = mode in DENSITY_MODES
        self.b = m.b_poly.coefficients
        self.m_zero = not any(np.any(bk + dagger(bk)) for bk in self.b)

    def step(self, state, x, dw, dt):
        mv = scale = None
        if not self.density:
            drift = _poly_apply(self.m._drift, x, state)
            bp = _poly_apply(self.b, x, state)
        if self.mode == "linear":
            out = state + dt * drift + dw * bp
        elif self.mode == "nonlinear":
            if self.m_zero:
                # with m = 0 the m terms add exact zeros: the linear step, renormalized
                mv = np.zeros(state.shape[1:])
                out = state + dt * drift + dw * bp
            else:
                mv = 2.0 * np.add.reduce((np.conj(state) * bp).real, axis=0)
                out = state + dt * (drift + (0.5 * mv) * bp - (mv * mv / 8.0) * state)
                out += dw * (bp - (0.5 * mv) * state)
            scale = np.sqrt(np.add.reduce((out * np.conj(out)).real, axis=0))
            out *= 1.0 / scale
        else:
            # the flow is B(x) rho + rho B(x)^dag, the generator L(x) rho
            flow = _poly_apply(self.m._flow, x, state)
            out = state + dt * _poly_apply(self.m._gen, x, state)
            if self.mode == "density_linear":
                out += dw * flow
            else:
                mv = _trace(flow, self.d)
                out += dw * (flow - mv * state)
                scale = _trace(out, self.d)
                out *= 1.0 / scale
        x = _ou_next(x, dw, 1.0 - self.m.gamma * dt, None if mv is None else mv * dt)
        return out, x, mv, scale


# ---------------------------------------------------------------------------
# gates

def _collapsed(scale):
    """Whether a norm or trace a step divided by was too small to renormalize by."""
    return scale < 1e-12


def _diverged(scale):
    """Whether the norm or trace a step divided by leaves no usable state.

    It may have collapsed, or be non-finite: an overflowed norm or trace
    divides a finite state to zeros, which the next step then collapses.
    """
    return _collapsed(scale) | ~np.isfinite(scale)


def _first_divergence(mode: str, cols, scales, xs=None):
    """(index, message) of the first of consecutive steps that broke a gate, or None.

    ``cols`` holds the stepped columns as rows, ``scales`` the norms or
    traces they were divided by (None in the linear modes) and ``xs`` the
    OU values the steps produced (None to skip them).  A collapse is
    reported as such; a non-finite scale, column or OU value as a
    non-finite state, as an ensemble drops such a column.
    """
    bad = ~np.isfinite(cols).all(axis=1)
    if xs is not None:
        bad |= ~np.isfinite(xs)
    if scales is not None:
        bad |= _diverged(scales)
    if not bad.any():
        return None
    i = int(bad.argmax())
    if scales is not None and _collapsed(scales[i]):
        what = "trace" if mode == "sme" else "state norm"
        return i, f"{what} collapsed to {scales[i]:.3e} before renormalization"
    what = "matrix" if mode in DENSITY_MODES else "state"
    return i, f"{mode} step produced a non-finite {what}"


def step(mode: str, state, x: float, dw: float, dt: float, m: ModelSpec):
    """One Euler-Maruyama step of a single state in ``mode``; returns ``(state, m value)``.

    The m value is the measurement drift at the step start: ``nonlinear``
    and ``sme`` use it in the step, and a caller needs it to advance the
    OU path under the physical measure.  It is None in the linear modes.  A state is a vector, or a hermitian ``(d, d)`` matrix
    in the density modes (the result is exactly hermitian too); the
    ``nonlinear`` and ``sme`` steps need it at unit norm or trace.
    """
    stepper = _Stepper(m, mode)
    # a matrix's coordinates read only its upper triangle, so _fit_state's hermiticity matters
    gate = _unit_state if mode in PHYSICAL_MODES else _fit_state
    state = gate(state, stepper.density, m.dim, f"{mode} step state")
    col = hvec(state) if stepper.density else state
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out, _, mv, scale = stepper.step(col, float(x), float(dw), dt)
    failure = _first_divergence(mode, out[None], None if scale is None else np.array([scale]))
    if failure is not None:
        raise DivergenceError(failure[1])
    out = unhvec(out, m.dim) if stepper.density else out
    return out, (None if mv is None else float(mv))


def lindblad_apply(m: ModelSpec, x: float, rho) -> np.ndarray:
    """Generator value ``-i[H(x), rho] - 1/2 {B^dag B, rho} + B rho B^dag``.

    Written out from the operators, apart from the vec-form
    coefficients the stepper uses, so it can serve as their reference.
    """
    h = m.h_poly(x)
    b = m.b_poly(x)
    bdag = dagger(b)
    bb = bdag @ b
    return -1j * (h @ rho - rho @ h) - 0.5 * (bb @ rho + rho @ bb) + b @ rho @ bdag


# ---------------------------------------------------------------------------
# single trajectories

def propagate(mode: str, initial, noise, m: ModelSpec, grid: TimeGrid):
    """Integrate one trajectory and keep the full path.

    ``noise`` is a raw increment array or a Generator (increments drawn
    in the documented order).  X is always stepped with the state:
    linear modes evolve under the reference measure; nonlinear and sme
    modes evolve under the physical measure, advancing X with the
    recorded m values.

    The state steps through ``_Stepper.step`` as one 1-D column, with
    ``x`` and ``dw`` as floats.  The gates are checked once per block of
    ``_CHECK_BLOCK`` steps over the stored rows, scales and OU values; a
    ``DivergenceError`` names the first failing step, as a check after
    every step would, and costs at most one block of extra steps.
    """
    stepper = _Stepper(m, mode)
    if grid.n_steps > MAX_STEPS:
        raise ValidationError(f"n_steps {grid.n_steps} exceeds the per-trajectory cap {MAX_STEPS}")
    _check_gamma(m.gamma, grid.dt)
    dw = (sample_wiener(grid, noise) if isinstance(noise, np.random.Generator)
          else _check_increments(noise, grid))
    state = _unit_state(initial, stepper.density, m.dim, cone=True)
    n = grid.n_steps
    dt = grid.dt

    # the physical modes are exactly those with m values and scales
    physical = mode in PHYSICAL_MODES
    x_out = np.zeros(n + 1)
    m_record = np.empty(n if physical else 0)
    scales = np.empty(n) if physical else None

    col = hvec(state) if stepper.density else state
    rows = np.empty((n + 1, col.shape[0]), dtype=col.dtype)
    rows[0] = col
    advance = stepper.step
    dws = dw.tolist()
    x = 0.0
    # overflow is the very condition the finiteness checks detect
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, n, _CHECK_BLOCK):
            hi = min(lo + _CHECK_BLOCK, n)
            for k in range(lo, hi):
                col, x, mv, scale = advance(col, x, dws[k], dt)
                rows[k + 1] = col
                x_out[k + 1] = x
                if physical:
                    m_record[k] = mv
                    scales[k] = scale
            failure = _first_divergence(mode, rows[lo + 1:hi + 1],
                                        None if scales is None else scales[lo:hi],
                                        x_out[lo + 1:hi + 1])
            if failure is not None:
                k = lo + failure[0]
                raise DivergenceError(f"{failure[1]} at step {k} (t = {k * dt:.6g})", step=k)

    if stepper.density:
        states, weights = unhvec(rows, m.dim), _trace(rows.T, m.dim)
    else:
        states, weights = rows, np.einsum("ki,ki->k", rows, np.conj(rows)).real
    return Trajectory(grid, states, weights, x_out, m_record, "physical" if physical else "Q")


def exact_commuting_solution(psi0, h, k, x_t: float, t: float):
    """Closed-form state for constant commuting ``H`` and ``K``.

    When ``[H, K] = 0`` the linear equation integrates to
    ``psi_t = exp(-i (H t + X_t K)) psi0``: the Ito correction of the
    stochastic exponential cancels the ``-K^2/2`` drift term exactly,
    and the OU reversion is absorbed because ``X_t = W_t - gamma
    int X ds``.  Propagation is unitary, so the input norm is
    preserved.  Evaluate at the integrator's own discrete ``X[k]`` to
    isolate the state-stepping error from the noise discretization.
    """
    h = as_operator(h)
    k = as_operator(k)
    scale = 1.0 + float(np.max(np.abs(h))) * float(np.max(np.abs(k)))
    comm = float(np.max(np.abs(h @ k - k @ h)))
    if comm > 1e-12 * scale:
        raise ValidationError(
            f"H and K do not commute (residual {comm:.3e}); no closed-form solution"
        )
    return matrix_exp(-1j * (t * h + x_t * k)) @ as_state(psi0)
