"""Wiener and Ornstein-Uhlenbeck sample paths on a fixed time grid.

Reproducibility contract
------------------------
Every stochastic quantity in the package is a pure function of
``(master seed, trajectory index, draw index)``.  Streams come from the
counter-based Philox generator keyed per trajectory, and all Gaussian
variates are produced by an explicit Box-Muller transform,

    z = sqrt(-2 log(1 - u1)) * cos(2 pi u2),

consuming exactly two uniforms per normal.  Relying on a fixed
transform rather than ``Generator.normal`` pins the uniform-to-normal
mapping, so results are stable across numpy versions and platforms.

Draw order within one trajectory stream: first the ``n_steps`` base
Wiener increments, then, per refinement level, the bridge variates that
split each coarse increment in two (in time order).  Refining therefore
extends a stream instead of reshuffling it, and estimates at different
step sizes can share the same Brownian path.

The OU path follows the Euler rule

    X[k+1] = (1 - gamma dt) X[k] + dW[k],    X[0] = 0,

with ``m[k] dt`` added before ``dW[k]`` under the physical measure.
Every OU path in the package, single, sampled or stepped with a state,
advances through the one update ``_ou_next``, so they agree bitwise.  A
path is never taken as input: a single trajectory gets its increments,
or the stream they are drawn from, and steps X from them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .parallel import map_chunks, worker_count

__all__ = [
    "TimeGrid",
    "SeedPolicy",
    "gaussians",
    "sample_wiener",
    "refine_increments",
    "ou_path",
    "ou_covariance",
    "ou_covariance_estimates",
    "sample_ou_values",
    "sample_wiener_rows",
]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK_BUDGET = 1 << 19          # bytes of uniforms transformed at once: 32 rows of 1000 steps
_CHUNK_ROWS = 4096               # trajectories per chunk of a batched run or OU sample


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_k = k dt`` for ``k = 0 .. n_steps``."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValidationError(f"dt must be positive and finite, got {self.dt!r}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps!r}")

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @classmethod
    def spanning(cls, dt: float, horizon: float) -> "TimeGrid":
        """The grid of steps ``dt`` that ends at ``horizon``, a positive multiple of ``dt``."""
        n_steps = _node_index(horizon, dt) if dt > 0.0 else None
        if n_steps is None or n_steps < 1:
            raise ValidationError(
                f"dt must be > 0 and T a positive integer multiple of dt, got dt = {dt!r}, "
                f"T = {horizon!r}"
            )
        return cls(dt, n_steps)

    def node(self, t: float) -> int:
        """The index ``k`` of the node ``k dt = t`` (see ``_node_index``); off the grid is an error."""
        k = _node_index(t, self.dt)
        if k is None or not 0 <= k <= self.n_steps:
            raise ValidationError(
                f"{t!r} is not a node of the grid (dt = {self.dt}, T = {self.horizon})"
            )
        return k

    def refined(self, level: int) -> "TimeGrid":
        """The grid with each step halved ``level`` times."""
        if level < 0:
            raise ValidationError("refinement level must be >= 0")
        return TimeGrid(self.dt / (1 << level), self.n_steps * (1 << level))


def _check_increments(dw, grid: TimeGrid) -> np.ndarray:
    """``dw`` as a float array of ``grid.n_steps`` finite increments: the one increments gate."""
    try:
        dw = np.asarray(dw, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(
            f"expected {grid.n_steps} increments, got a {type(dw).__name__}") from None
    if dw.shape != (grid.n_steps,):
        raise ValidationError(f"expected {grid.n_steps} increments, got shape {dw.shape}")
    if not np.isfinite(dw).all():
        raise ValidationError("increments contain non-finite entries")
    return dw


@dataclass(frozen=True)
class SeedPolicy:
    """Maps (master seed, trajectory index) to independent streams.

    Trajectory ``i`` gets a Philox key derived by avalanche-mixing the
    master seed with ``i``; the mixing is injective in ``i``, so stream
    collisions cannot occur within one policy.  ``substream`` derives a
    policy for an independent family of streams (used e.g. to give the
    two legs of a measure-change comparison unrelated noise).
    """

    master_seed: int

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool):
            raise ValidationError(f"master seed must be an int, got {self.master_seed!r}")
        if self.master_seed < 0:
            raise ValidationError("master seed must be non-negative")

    def stream_key(self, index: int) -> int:
        if index < 0:
            raise ValidationError("trajectory index must be non-negative")
        h = _mix64((self.master_seed & _MASK) ^ _mix64(index & _MASK))
        return (h << 64) | _mix64(h ^ (index & _MASK))

    def stream(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.stream_key(index)))

    def substream(self, label: str) -> "SeedPolicy":
        h = self.master_seed & _MASK
        for byte in label.encode("utf8"):
            h = _mix64(h ^ byte)
        return SeedPolicy(h)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from the uniform pairs along the last axis of ``u`` (the pinned transform)."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    return r * np.cos(2.0 * np.pi * u[..., 1::2])


def _bridge_split(dw: np.ndarray, h: float, xi: np.ndarray) -> np.ndarray:
    """Halve steps of size ``h`` along the last axis, driven by the normals ``xi``.

    Increment ``dw`` becomes ``first, dw - first`` with
    ``first = dw/2 + sqrt(h)/2 * xi``, so each pair sums back bitwise.
    """
    first = 0.5 * dw + (0.5 * np.sqrt(h)) * xi
    out = np.empty(dw.shape[:-1] + (2 * dw.shape[-1],))
    out[..., 0::2] = first
    out[..., 1::2] = dw - first
    return out


def _increments(u: np.ndarray, dt: float, level: int) -> np.ndarray:
    """Increments coded by a stream's uniforms ``u`` (last axis, in draw order).

    ``u`` holds ``2 n 2**level`` uniforms: ``2 n`` for the base steps of
    size ``dt``, then ``2 m`` for each level that splits ``m`` steps.
    """
    n = u.shape[-1] >> (level + 1)
    dw = np.sqrt(dt) * _box_muller(u[..., :2 * n])
    h = dt
    for _ in range(level):
        m = dw.shape[-1]
        dw = _bridge_split(dw, h, _box_muller(u[..., 2 * m:4 * m]))
        h *= 0.5
    return dw


def gaussians(stream: np.random.Generator, n: int) -> np.ndarray:
    """``n`` standard normals via the pinned Box-Muller transform."""
    return _box_muller(stream.random(2 * n))


def sample_wiener(grid: TimeGrid, stream: np.random.Generator, level: int = 0) -> np.ndarray:
    """Wiener increments over ``grid``, optionally bridge-refined.

    ``level = 0`` returns the ``n_steps`` base increments with standard
    deviation ``sqrt(dt)``.  ``level = L`` halves every step ``L``
    times using Brownian-bridge midpoints, consuming the stream in the
    documented draw order; the result has ``n_steps * 2**L`` entries
    whose pairwise sums reproduce the coarser increments exactly.
    """
    return _increments(stream.random(2 * grid.n_steps << level), grid.dt, level)


def refine_increments(dw: np.ndarray, h: float, stream: np.random.Generator) -> np.ndarray:
    """Split increments over steps of size ``h`` into halves.

    The first half is ``dw/2 + sqrt(h)/2 * xi`` with ``xi`` standard
    normal; the second is the exact remainder, so the sum of each pair
    equals the original increment bitwise.
    """
    return _bridge_split(dw, h, gaussians(stream, dw.size))


def _check_gamma(gamma: float, dt: float = 0.0) -> float:
    """``gamma`` as a float, if finite, >= 0 and stable on steps of ``dt`` (``gamma dt < 1``)."""
    gamma = float(gamma)
    if not (gamma >= 0.0 and np.isfinite(gamma)):
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma!r}")
    if gamma * dt >= 1.0:
        raise ValidationError(
            f"gamma*dt = {gamma * dt:.3g} >= 1: the Euler OU update is unstable; refine the grid"
        )
    return gamma


def _node_index(t: float, dt: float):
    """The k with ``k dt = t`` to within ``1e-9 max(1, |t|)``, or None when t is off the grid."""
    t = float(t)
    q = t / dt
    if not math.isfinite(q):
        return None
    k = int(round(q))
    return k if abs(k * dt - t) <= 1e-9 * max(1.0, abs(t)) else None


def _ou_next(x, dw, decay: float, drift=None):
    """The Euler OU update ``decay x + dw``, or ``decay x + drift + dw``, in that order.

    ``drift`` is ``m dt`` under the physical measure.  Without it no zero
    is added, so a drift-free path keeps the signed zeros of its ``dw``.
    """
    return decay * x + dw if drift is None else decay * x + drift + dw


def ou_path(dw: np.ndarray, gamma: float, grid: TimeGrid, m=None) -> np.ndarray:
    """OU path at every node of ``grid``, driven by ``dw`` and, if given, the drift ``m``.

    The Euler rule of the module docstring, applied literally in that
    arithmetic form (replay contract), with ``m`` held at the step starts
    (physical measure).  ``dw`` must contain exactly ``n_steps``
    increments.  An all-zero ``m`` turns a ``-0.0`` of the drift-free
    path into ``+0.0``.
    """
    gamma = _check_gamma(gamma, grid.dt)
    dw = _check_increments(dw, grid)
    if m is None:
        drift = [None] * grid.n_steps
    else:
        m = np.asarray(m, dtype=float)
        if m.shape != dw.shape:
            raise ValidationError(f"expected {grid.n_steps} drift values, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("drift values contain non-finite entries")
        drift = (m * grid.dt).tolist()
    decay = 1.0 - gamma * grid.dt
    x = np.empty(grid.n_steps + 1)
    x[0] = 0.0
    acc = 0.0
    for k, dwk in enumerate(dw.tolist()):
        acc = x[k + 1] = _ou_next(acc, dwk, decay, drift[k])
    return x


def ou_covariance(t, s, gamma: float):
    """Exact covariance ``E[X_t X_s]`` of the OU process started at zero.

    For ``gamma > 0`` this is ``exp(-gamma (t+s)) expm1(2 gamma min(t,s)) / (2 gamma)``,
    written with ``expm1`` so small ``gamma t`` does not cancel; the
    ``gamma = 0`` limit is ``min(t, s)`` (plain Brownian motion).
    """
    gamma = _check_gamma(gamma)
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(t_arr < 0.0) or np.any(s_arr < 0.0):
        raise ValidationError("times must be non-negative")
    lo = np.minimum(t_arr, s_arr)
    if gamma == 0.0:
        out = lo
    else:
        out = np.exp(-gamma * (t_arr + s_arr)) * np.expm1(2.0 * gamma * lo) / (2.0 * gamma)
    if np.isscalar(t) and np.isscalar(s):
        return float(out)
    return out


def sample_wiener_rows(policy: SeedPolicy, grid: TimeGrid, lo: int, hi: int,
                       level: int = 0) -> np.ndarray:
    """Wiener increments of streams ``lo .. hi-1`` of ``policy``, one row each.

    Row ``i - lo`` is :func:`sample_wiener` on stream ``i`` bit for bit,
    so a row does not depend on the range, block or chunk it is drawn
    in.  One Philox generator serves the range: for each stream it is
    reset, not rebuilt, to the state a fresh ``Philox(key=...)`` of that
    stream has (its key, counter 0, an empty buffer), and fills the row's
    uniforms with one call.  Rows are then transformed in blocks of
    about ``_BLOCK_BUDGET`` bytes of uniforms, which stay in cache.  The
    result is column-major (Fortran order), so the increments of one
    step, ``dws[:, k]``, are contiguous.
    """
    if not 0 <= lo <= hi:
        raise ValidationError(f"row range [{lo}, {hi}) must have 0 <= lo <= hi")
    width = 2 * grid.n_steps << level
    block = max(1, _BLOCK_BUDGET // (8 * width))
    dws = np.empty((hi - lo, grid.n_steps << level), order="F")
    u = np.empty((min(block, hi - lo), width))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    for b0 in range(lo, hi, block):
        b1 = min(b0 + block, hi)
        for i in range(b0, b1):
            k = policy.stream_key(i)
            key[0], key[1] = k & _MASK, k >> 64
            bitgen.state = fresh
            gen.random(out=u[i - b0])
        dws[b0 - lo:b1 - lo] = _increments(u[:b1 - b0], grid.dt, level)
    return dws


def sample_ou_values(
    policy: SeedPolicy,
    grid: TimeGrid,
    gamma: float,
    n_paths: int,
    at_indices=None,
    workers=None,
) -> np.ndarray:
    """OU path values for many trajectories, shape ``(n_paths, len(at_indices))``.

    Row ``i`` is driven by stream ``i`` of ``policy`` with the same
    draw order as the single-path functions, so any row can be replayed
    in isolation.  ``at_indices`` defaults to every grid node.  Rows are
    drawn in chunks of at most ``_CHUNK_ROWS`` on up to ``workers``
    processes (see :mod:`ousse.parallel`); neither changes a bit.
    """
    gamma = _check_gamma(gamma, grid.dt)
    if at_indices is None:
        at_indices = np.arange(grid.n_steps + 1)
    idx = np.asarray(at_indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() > grid.n_steps):
        raise ValidationError(f"output indices must lie in [0, {grid.n_steps}]")
    n_chunks = max(1, -(-n_paths // _CHUNK_ROWS))
    n_workers = worker_count(workers, n_chunks)
    # rows are independent, so equal chunks, as many for every worker,
    # balance the pool without changing a bit
    n_chunks = -(-n_chunks // n_workers) * n_workers
    decay = 1.0 - gamma * grid.dt
    # the output columns of each wanted node; a node may be asked for more than once
    cols = {int(k): np.flatnonzero(idx == k) for k in np.unique(idx)}

    def chunk(lo, hi):
        dw = sample_wiener_rows(policy, grid, lo, hi)
        out = np.zeros((hi - lo, idx.size))         # the columns of node 0 stay X[0] = 0
        x = np.zeros(hi - lo)
        for k in range(grid.n_steps):
            x = _ou_next(x, dw[:, k], decay)
            if k + 1 in cols:
                out[:, cols[k + 1]] = x[:, None]
        return out

    bounds = [(n_paths * c // n_chunks, n_paths * (c + 1) // n_chunks) for c in range(n_chunks)]
    with map_chunks(chunk, bounds, n_workers) as results:
        return np.concatenate(list(results))


def ou_covariance_estimates(policy: SeedPolicy, grid: TimeGrid, gamma: float, n_paths: int,
                            nodes, *, workers=None) -> dict:
    """Sampled and closed-form OU covariance at every node pair ``a <= b``.

    Returns ``{(a, b): (analytic, empirical, stderr)}`` for the sorted
    grid ``nodes``.  The process has known zero mean, so the uncentred
    product estimator is used; its standard error comes from the
    empirical fourth moments.
    """
    nodes = np.asarray(nodes, dtype=int)
    if n_paths < 2:
        raise ValidationError(f"need at least 2 paths, got {n_paths}")
    if nodes.size == 0:
        raise ValidationError("the covariance table needs at least one time node")
    samples = sample_ou_values(policy, grid, gamma, n_paths, nodes, workers=workers)
    times = nodes * grid.dt
    out = {}
    for a in range(nodes.size):
        for b in range(a, nodes.size):
            prod = samples[:, a] * samples[:, b]
            out[a, b] = (ou_covariance(float(times[a]), float(times[b]), gamma),
                         float(prod.mean()), float(prod.std(ddof=1) / math.sqrt(n_paths)))
    return out
