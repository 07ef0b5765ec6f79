"""Monte Carlo ensembles with deterministic seeding and structural checks.

Estimates are averages over independent trajectories, each driven by
its own counter-based stream (see the noise module), propagated in
chunks of ``_CHUNK_ROWS`` trajectories by ``run_ensemble``.  A run is
bitwise reproducible for a given (model, grid, n_traj, SeedPolicy,
mode) regardless of how work is scheduled.  When a refined grid would
make a chunk exceed a memory budget the chunk is halved by a fixed
rule, which is again a pure function of the inputs.

A trajectory that diverges (its state leaves the finite range, or the
norm or trace it is divided by collapses or overflows, as ``propagate``
would reject) poisons only its own column; the chunk is then recomputed
without the dead ones, the failure is counted, and the run aborts if
more than 1% of trajectories diverge (silent exclusion at a higher rate
would bias the averages).

Every recorded quantity is a Hermitian matrix, summed over trajectories
in its real coordinates ``c`` (see :func:`ousse.oracle.hvec`): the
state, the memory term and the generator value, their squares entry by
entry, and the second moments ``c c^T``.  ``run_ensemble`` converts the
merged sums to matrices once, after the last chunk, so the estimate's
matrices are exactly Hermitian.

Linear-mode averages are unnormalized under the reference measure: the
mean projector, the memory term E[X rho] and the mean squared norm are
exactly the quantities appearing in the mean-state equation and the
martingale property, so no weight normalization is applied anywhere.

The checks section owns the battery of ``ousse verify``: its suite table
``_SUITES``, the one pass rule ``_entry`` (``statistic <= 3 stderr +
allowance``) and the one report rule ``_report``.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PHYSICAL_MODES, _diverged, _measure_modes, _poly_apply, _Stepper, _trace
from .errors import DivergenceError, ValidationError
from .linalg import _fit_state, _unit_state, dagger
from .model import ModelSpec, consistency_residual, diffusion_operator, drift_operator
from .noise import (_CHUNK_ROWS, SeedPolicy, TimeGrid, _check_gamma, ou_covariance_estimates,
                    sample_wiener_rows)
from .oracle import (_upper, build_liouvillian, hvec, hvec_basis, propagate_lindblad, unhvec,
                     vec)
from .parallel import map_chunks, worker_count

__all__ = [
    "EnsembleEstimate",
    "CheckEntry",
    "CheckReport",
    "run_ensemble",
    "martingale_check",
    "girsanov_crosscheck",
    "mean_equation_residual",
    "observable_series",
    "ou_covariance_check",
]

_log = logging.getLogger("ousse")

_CHUNK_BUDGET = 5 * 10**7        # max floats of increment storage per chunk
_SECOND_MOMENT_MAX_DIM = 8       # full E[vv^H] matrices kept up to this dimension


# ---------------------------------------------------------------------------
# batched propagation

def _chunk_rows(n_eff: int) -> int:
    rows = _CHUNK_ROWS
    while rows > 64 and rows * n_eff > _CHUNK_BUDGET:
        rows //= 2
    return rows


def _new_partials(n_out: int, dd: int, want_second: bool) -> dict:
    """Zeroed sums over trajectories at ``n_out`` nodes of ``dd`` Hermitian coordinates.

    A chunk allocates its partials here, from their known shapes, before
    its increments are drawn, and the first chunk's partials become the
    running total.  Made after a freed increments block, a small
    long-lived array could sit inside that block, and the next
    increments would then no longer fit there: the heap grows by a
    whole block, and a run's peak memory with it.
    """
    p = {"n": np.zeros(1), "w": np.zeros(n_out), "w2": np.zeros(n_out)}
    p.update({k: np.zeros((n_out, dd)) for k in ("v", "xv", "g", "v2", "x2v2", "g2")})
    if want_second:
        p["s"] = np.zeros((n_out, dd, dd))
    return p


def _chunk_partials(stepper: _Stepper, grid_eff: TimeGrid, dws, initial, out_mask, p):
    """Propagate one chunk and write its sums at the flagged nodes into ``p``.

    States are columns, one per trajectory (see ``_Stepper``), and
    ``dws`` is column-major.  A node records ``c = hvec(rho)``; a state
    column gives it as ``|psi_i|^2``, then ``psi_i conj(psi_j)`` for
    ``i < j``.  ``p`` comes from ``_new_partials``; every entry of it is
    overwritten.  Returns the valid mask.  Columns that
    diverged (see the module docstring) contaminate only themselves;
    the caller drops them and reruns.
    """
    rows = dws.shape[0]
    d = stepper.d
    dd = d * d
    density = stepper.density
    state = np.tile((hvec(initial) if density else initial)[:, None], rows)
    x = np.zeros(rows)
    dt = grid_eff.dt
    want_second = "s" in p

    upper = _upper(d)
    powers = np.ones((3, rows))

    def record(j, state, x):
        if density:
            c = state
        else:
            z = state[upper[0]] * np.conj(state[upper[1]])
            c = np.concatenate([(state * np.conj(state)).real, z.real, z.imag])
        # one pass: the rows c, L(x) c, Tr c and their squares, each reduced
        # by one GEMM against the columns 1, x, x^2
        parts = np.concatenate([c, _poly_apply(stepper.m._gen, x, c), _trace(c, d)[None]])
        powers[1:] = x, x * x
        lin, sq = parts @ powers.T, (parts * parts) @ powers.T
        p["v"][j], p["xv"][j], p["g"][j] = lin[:dd, 0], lin[:dd, 1], lin[dd:-1, 0]
        p["v2"][j], p["x2v2"][j], p["g2"][j] = sq[:dd, 0], sq[:dd, 2], sq[dd:-1, 0]
        p["w"][j], p["w2"][j] = lin[-1, 0], sq[-1, 0]
        if want_second:
            p["s"][j] = c @ c.T

    # smallest norm or trace each column was divided by
    min_scale = np.full(rows, np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        j = 0
        if out_mask[0]:
            record(0, state, x)
            j = 1
        for k in range(grid_eff.n_steps):
            state, x, _, scale = stepper.step(state, x, dws[:, k], dt)
            if scale is not None:
                np.minimum(min_scale, scale, out=min_scale)
            if out_mask[k + 1]:
                record(j, state, x)
                j += 1

    valid = np.isfinite(state).all(axis=0) & np.isfinite(x)
    if scale is not None:
        # an overflowed scale zeroes its columns, which the next step collapses;
        # only the last step has no next one
        valid &= ~_diverged(min_scale) & ~_diverged(scale)
    p["n"][0] = rows
    return valid


@dataclass(frozen=True)
class EnsembleEstimate:
    """Ensemble averages with per-quantity standard errors.

    ``eta`` is the mean state (unnormalized under the reference
    measure in linear modes), ``memory_term`` the mean of ``X rho``,
    ``generator_mean`` the mean of the Lindblad generator applied along
    the paths; ``second_moments``, kept for small dimensions, holds the
    per-node matrices E[vec(rho) vec(rho)^H] from which the standard
    error of any linear observable follows.
    """

    grid: TimeGrid              # the grid actually integrated (refined if level > 0)
    level: int
    mode: str
    master_seed: int
    n_traj: int
    n_used: int
    diverged: tuple
    node_indices: np.ndarray    # output nodes, in base-grid units
    times: np.ndarray
    mean_weight: np.ndarray
    mean_weight_stderr: np.ndarray
    eta: np.ndarray             # (n_out, d, d)
    eta_stderr: np.ndarray
    memory_term: np.ndarray
    memory_term_stderr: np.ndarray
    generator_mean: np.ndarray
    generator_mean_stderr: np.ndarray
    second_moments: np.ndarray  # (n_out, d^2, d^2) or None

    @property
    def dim(self) -> int:
        return self.eta.shape[1]


@dataclass(frozen=True)
class CheckEntry:
    label: str
    time: float
    statistic: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    entries: tuple
    details: dict


def _entry_se(sum2, mean_abs2, n):
    var = np.maximum(0.0, (sum2 - n * mean_abs2) / max(n - 1, 1))
    return np.sqrt(var / n)


def _entry_abs2(q, d):
    """``(..., d, d)`` sums of ``|rho_ij|^2`` from per-coordinate sums of squares ``q``."""
    k = d * (d - 1) // 2
    re, im = q[..., d:d + k], q[..., d + k:]
    return unhvec(np.concatenate([q[..., :d], re + im, np.zeros_like(re)], axis=-1), d).real


def run_ensemble(m: ModelSpec, grid: TimeGrid, n_traj: int, seeds: SeedPolicy, mode: str,
                 initial, *, output_nodes=None, level: int = 0, workers=None) -> EnsembleEstimate:
    """Propagate ``n_traj`` trajectories and average at the output nodes.

    ``output_nodes`` are node indices of the base grid (default: every
    node up to 200, then a uniform stride), and ``level`` halves every
    step that many times via bridge refinement of the same per-stream
    noise, so runs at different levels share their Brownian paths and
    report at identical times.  Chunks run on up to ``workers``
    processes (see :mod:`ousse.parallel`); each chunk's partials are
    added to a running total here in chunk order and then dropped, so
    the estimate does not depend on the worker count and memory does
    not grow with ``n_traj``.
    """
    stepper = _Stepper(m, mode)
    if n_traj < 2:
        raise ValidationError(f"need at least 2 trajectories, got {n_traj}")
    _check_gamma(m.gamma, grid.dt)
    initial = _unit_state(initial, stepper.density, m.dim, cone=True)

    if output_nodes is None:
        stride = max(1, math.ceil(grid.n_steps / 200))
        nodes = list(range(0, grid.n_steps + 1, stride))
        if nodes[-1] != grid.n_steps:
            nodes.append(grid.n_steps)
        output_nodes = nodes
    nodes = np.asarray(sorted(set(int(k) for k in output_nodes)), dtype=int)
    if nodes.size == 0:
        raise ValidationError("need at least one output node")
    if nodes[0] < 0 or nodes[-1] > grid.n_steps:
        raise ValidationError(f"output nodes must lie in [0, {grid.n_steps}]")

    grid_eff = grid.refined(level)
    out_mask = np.zeros(grid_eff.n_steps + 1, dtype=bool)
    out_mask[nodes << level] = True

    want_second = m.dim <= _SECOND_MOMENT_MAX_DIM
    rows = _chunk_rows(grid_eff.n_steps)
    bounds = [(lo, min(lo + rows, n_traj)) for lo in range(0, n_traj, rows)]
    n_workers = worker_count(workers, len(bounds))

    def chunk(lo, hi):
        """(partials or None if a rerun diverged again, diverged row indices)."""
        p = _new_partials(nodes.size, m.dim**2, want_second)
        dws = sample_wiener_rows(seeds, grid, lo, hi, level)
        valid = _chunk_partials(stepper, grid_eff, dws, initial, out_mask, p)
        bad = lo + np.flatnonzero(~valid)
        # divergence is row-local and deterministic, so a rerun on the
        # surviving rows reproduces them exactly; past 1% the run aborts
        if bad.size and bad.size <= 0.01 * n_traj:
            # dws[valid] would be C-ordered; compressing the transpose keeps steps contiguous
            if not _chunk_partials(stepper, grid_eff, dws.T.compress(valid, axis=1).T,
                                   initial, out_mask, p).all():
                p = None
        return p, bad

    total = None
    diverged = []
    with map_chunks(chunk, bounds, n_workers) as results:
        for (lo, hi), (p, bad) in zip(bounds, results):
            _log.debug("chunk rows [%d, %d): %d reruns, %d diverged",
                       lo, hi, int(bad.size > 0), bad.size)
            if bad.size:
                diverged.extend(int(i) for i in bad)
                if len(diverged) > 0.01 * n_traj:
                    raise DivergenceError(
                        f"{len(diverged)} of {n_traj} trajectories diverged (> 1%); "
                        f"refine the grid or check the model"
                    )
                if p is None:
                    raise DivergenceError("trajectories diverged irreproducibly across reruns")
            if total is None:
                # the first partials become the total, with no new array (see
                # _new_partials); adding 0.0 turns -0.0 into +0.0, as a sum
                # started from zeros would, and changes no other bit
                total = p
                for v in total.values():
                    v += 0.0
            else:
                for k in total:
                    total[k] += p[k]

    n = int(round(float(total["n"][0])))
    if n < 2:
        raise DivergenceError("fewer than 2 trajectories survived")

    d = m.dim
    mean_w, vmean, cmean, gmean = (total[k] / n for k in ("w", "v", "xv", "g"))

    def stderr(sum2, mean):
        return _entry_se(_entry_abs2(sum2, d), _entry_abs2(mean * mean, d), n)

    # E[vec rho vec rho^H] = T E[c c^T] T^H, with vec rho = T c
    t = hvec_basis(d)

    est = EnsembleEstimate(
        grid=grid_eff,
        level=level,
        mode=mode,
        master_seed=seeds.master_seed,
        n_traj=n_traj,
        n_used=n,
        diverged=tuple(diverged),
        node_indices=nodes,
        times=nodes * grid.dt,
        mean_weight=mean_w,
        mean_weight_stderr=_entry_se(total["w2"], mean_w**2, n),
        eta=unhvec(vmean, d),
        eta_stderr=stderr(total["v2"], vmean),
        memory_term=unhvec(cmean, d),
        memory_term_stderr=stderr(total["x2v2"], cmean),
        generator_mean=unhvec(gmean, d),
        generator_mean_stderr=stderr(total["g2"], gmean),
        second_moments=(t @ (total["s"] / n) @ t.conj().T) if want_second else None,
    )
    return est


# ---------------------------------------------------------------------------
# checks: one entry rule, one report rule, and the battery of ``ousse verify``

def _entry(label: str, t: float, statistic, stderr, allowance: float) -> CheckEntry:
    """A check point that passes when ``statistic <= 3 stderr + allowance``.

    Given arrays, the entry reports the element closest to (or past) its
    own threshold, which passes exactly when every element does.
    """
    threshold = 3.0 * stderr + allowance
    if np.ndim(threshold):
        w = int(np.argmax(statistic - threshold))
        statistic, threshold = float(statistic.flat[w]), float(threshold.flat[w])
    return CheckEntry(label, t, statistic, threshold, statistic <= threshold)


def _report(name: str, entries: list, details: dict) -> CheckReport:
    """A suite's report; it passes when every entry does."""
    return CheckReport(name, all(e.passed for e in entries), tuple(entries), details)


def _require_reference(est: EnsembleEstimate, what: str) -> None:
    if est.mode in PHYSICAL_MODES:
        raise ValidationError(
            f"{what} is estimated under the reference measure; got mode {est.mode!r}")


def observable_series(est: EnsembleEstimate, observable):
    """Series of ``Tr(O eta_t)`` with standard errors; list of (t, mean, se).

    When the full second-moment matrices are stored the standard error
    is the exact sample one for the scalar ``Tr(O rho_i)``; otherwise a
    conservative triangle-inequality bound from the entrywise errors.
    """
    o = _fit_state(observable, True, est.dim, "observable")
    w = vec(dagger(o))
    out = []
    n = est.n_used
    for j, t in enumerate(est.times):
        mean = float(np.real(np.einsum("i,i->", np.conj(w), vec(est.eta[j]))))
        if est.second_moments is not None:
            e_abs2 = float(np.real(np.conj(w) @ est.second_moments[j] @ w))
            var = max(0.0, (e_abs2 - mean * mean) * n / (n - 1))
            se = math.sqrt(var / n)
        else:
            se = float(np.sum(np.abs(o) * est.eta_stderr[j].T))
        out.append((float(t), mean, se))
    return out


def martingale_check(est: EnsembleEstimate, c_disc: float = 5.0) -> CheckReport:
    """Mean squared norm against 1 at every output node.

    Pass rule per node: ``|mean - 1| <= 3 stderr + c_disc * dt`` with
    dt the step actually integrated.
    """
    _require_reference(est, "the martingale statistic")
    dt = est.grid.dt
    entries = [_entry("mean_weight", float(t), abs(float(est.mean_weight[j]) - 1.0),
                      float(est.mean_weight_stderr[j]), c_disc * dt)
               for j, t in enumerate(est.times)]
    return _report("martingale", entries, {"n_traj": est.n_used, "dt": dt, "c_disc": c_disc})


def girsanov_crosscheck(m: ModelSpec, grid: TimeGrid, n_traj: int, seeds: SeedPolicy,
                        observable, t_list, initial, *, c_disc: float = 5.0,
                        level: int = 0, workers=None) -> CheckReport:
    """Weighted reference-measure vs physical-measure estimates of one mean.

    The two sides, ``linear`` and ``nonlinear`` for a state vector or
    ``density_linear`` and ``sme`` for a density matrix, use independent
    substreams of ``seeds`` and are therefore independent estimators of
    the same physical expectation; they must agree within
    ``3 sqrt(se_Q^2 + se_P^2) + c_disc dt``.
    """
    o = _fit_state(observable, True, m.dim, "observable")
    nodes = [grid.node(t) for t in t_list]
    reference, physical = _measure_modes(initial)
    est_q = run_ensemble(m, grid, n_traj, seeds.substream("girsanov-reference"), reference,
                         initial, output_nodes=nodes, level=level, workers=workers)
    est_p = run_ensemble(m, grid, n_traj, seeds.substream("girsanov-physical"), physical,
                         initial, output_nodes=nodes, level=level, workers=workers)
    series_q = observable_series(est_q, o)
    series_p = observable_series(est_p, o)
    dt = est_q.grid.dt
    entries = [_entry("weighted_vs_physical", t, abs(mq - mp), math.hypot(sq, sp), c_disc * dt)
               for (t, mq, sq), (_, mp, sp) in zip(series_q, series_p)]
    return _report("girsanov", entries,
                   {"n_traj": n_traj, "dt": dt, "c_disc": c_disc,
                    "diverged": {"reference": est_q.diverged, "physical": est_p.diverged}})


def _sd_commutator(a_abs: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Upper bound on the entrywise sd of [A, M] from the sd of M."""
    return a_abs @ sd + sd @ a_abs


def mean_equation_residual(m: ModelSpec, est: EnsembleEstimate, c_fd: float = 5.0) -> CheckReport:
    """Finite-difference check of the mean-state equation on an estimate.

    At each interior output node the central difference of ``eta`` is
    compared against the equation's right-hand side.  Two routes exist:
    the random_hamiltonian kind also assembles the memory form
    ``-i[H, eta] - 1/2 [K, [K, eta]] + i gamma [K, E[X rho]]`` from the
    stored memory term, and every kind is checked against the stored
    ensemble mean of the generator values (the non-closed general
    equation).  Pass rule per node and route: every residual entry
    within ``3 * propagated stderr + c_fd * dt``, with the stderr
    propagated entrywise by triangle inequality (conservative); the
    entry closest to (or past) its own allowance is reported.
    """
    _require_reference(est, "the mean-state equation")
    if est.times.size < 3:
        raise ValidationError("need at least 3 output nodes for a central difference")
    dt = est.grid.dt
    entries = []
    aggregates = {"assembled": [], "generator": []}
    routes = []
    if m.kind == "random_hamiltonian":
        h0 = m.h_poly.coefficients[0]
        k_abs = np.abs(m.k)
        h_abs = np.abs(h0)
        routes.append("assembled")
    routes.append("generator")

    for j in range(1, est.times.size - 1):
        span = est.times[j + 1] - est.times[j - 1]
        fd = (est.eta[j + 1] - est.eta[j - 1]) / span
        fd_sd = np.sqrt(est.eta_stderr[j + 1] ** 2 + est.eta_stderr[j - 1] ** 2) / span
        t = float(est.times[j])
        for route in routes:
            if route == "assembled":
                eta = est.eta[j]
                kk = m.k @ eta - eta @ m.k
                rhs = (-1j * (h0 @ eta - eta @ h0)
                       - 0.5 * (m.k @ kk - kk @ m.k)
                       + 1j * m.gamma * (m.k @ est.memory_term[j] - est.memory_term[j] @ m.k))
                sd_eta = est.eta_stderr[j]
                rhs_sd = (_sd_commutator(h_abs, sd_eta)
                          + 0.5 * _sd_commutator(k_abs, _sd_commutator(k_abs, sd_eta))
                          + m.gamma * _sd_commutator(k_abs, est.memory_term_stderr[j]))
            else:
                rhs = est.generator_mean[j]
                rhs_sd = est.generator_mean_stderr[j]
            resid = np.abs(fd - rhs)
            entries.append(_entry(route, t, resid, fd_sd + rhs_sd, c_fd * dt))
            aggregates[route].append(float(resid.max()))
    details = {"dt": dt, "c_fd": c_fd,
               "mean_residual": {r: float(np.mean(v)) for r, v in aggregates.items() if v}}
    return _report("mean_equation", entries, details)


def ou_covariance_check(seeds: SeedPolicy, grid: TimeGrid, gamma: float, n_paths: int,
                        t_nodes, *, workers=None) -> CheckReport:
    """Empirical OU covariance on a (t, s) grid against the closed form.

    The estimates are :func:`ousse.noise.ou_covariance_estimates`.  A
    point passes at 3 stderr; the check passes when every point does.
    """
    nodes = np.asarray(sorted(set(int(k) for k in t_nodes)), dtype=int)
    estimates = ou_covariance_estimates(seeds, grid, gamma, n_paths, nodes, workers=workers)
    times = nodes * grid.dt
    entries = [_entry(f"cov({times[a]:g},{times[b]:g})", float(times[b]), abs(emp - ana), se, 0.0)
               for (a, b), (ana, emp, se) in estimates.items()]
    return _report("ou_covariance", entries, {"gamma": gamma, "n_paths": n_paths})


def _covariance_nodes(grid: TimeGrid, points: int = 5):
    return sorted({max(1, round(grid.n_steps * i / points)) for i in range(1, points + 1)})


def _consistency_report(cfg) -> CheckReport:
    m = cfg.model
    entries = []
    for x in np.linspace(-5.0, 5.0, 21):
        a = drift_operator(m, float(x)) + (m.gamma * x) * diffusion_operator(m, float(x))
        entries.append(_entry(f"x={x:g}", 0.0, consistency_residual(m, float(x)),
                              0.0, 1e-12 * (1.0 + float(np.max(np.abs(a))))))
    return _report("consistency", entries, {"x_range": [-5.0, 5.0], "points": 21})


def _lindblad_oracle_report(cfg, est: EnsembleEstimate) -> CheckReport:
    m = cfg.model
    liou = build_liouvillian(m.h_poly.coefficients[0], m.b_poly.coefficients[0])
    rho0 = cfg.initial if cfg.initial.ndim == 2 else np.outer(cfg.initial, cfg.initial.conj())
    dt = est.grid.dt
    entries = [_entry("eta_vs_exponential", float(t),
                      float(np.max(np.abs(est.eta[j] - propagate_lindblad(liou, rho0, float(t))))),
                      float(est.eta_stderr[j].max()), cfg.checks.c_disc * dt)
               for j, t in enumerate(est.times)]
    return _report("lindblad_oracle", entries, {"dt": dt, "c_disc": cfg.checks.c_disc})


# Suite name -> runner (ExperimentConfig, reference(), workers) -> CheckReport, in the
# default battery's order; reference() is the config's reference-measure ensemble.  The
# lambdas look the checks up when they run, so wrappers bound to this module's names
# (perfbench's tracer) see the battery's calls.
_SUITES = {
    "consistency": lambda cfg, reference, workers: _consistency_report(cfg),
    "martingale": lambda cfg, reference, workers: martingale_check(
        reference(), c_disc=cfg.checks.c_disc),
    "covariance": lambda cfg, reference, workers: ou_covariance_check(
        SeedPolicy(cfg.master_seed).substream("verify-ou"), cfg.grid, cfg.model.gamma,
        cfg.checks.covariance_n_paths, _covariance_nodes(cfg.grid), workers=workers),
    "mean_equation": lambda cfg, reference, workers: mean_equation_residual(
        cfg.model, reference(), c_fd=cfg.checks.c_fd),
    # the first observable, or else the projector on the first basis state
    "girsanov": lambda cfg, reference, workers: girsanov_crosscheck(
        cfg.model, cfg.grid, cfg.n_traj, SeedPolicy(cfg.master_seed).substream("verify-girsanov"),
        cfg.observables[0][1] if cfg.observables else np.diag(np.eye(cfg.model.dim)[0]),
        list(cfg.checks.girsanov_times), cfg.initial, c_disc=cfg.checks.c_disc,
        level=cfg.level, workers=workers),
    "lindblad_oracle": lambda cfg, reference, workers: _lindblad_oracle_report(cfg, reference()),
}


def _suite_problems(suites, model):
    """Why each of ``suites`` is unknown, or cannot run on ``model`` (if any)."""
    constant = model is None or (model.h_poly.is_constant and model.b_poly.is_constant)
    problems = []
    for s in suites:
        if s not in _SUITES:
            problems.append(f"unknown suite {s!r}; known: {tuple(_SUITES)}")
        elif s == "lindblad_oracle" and not constant:
            problems.append("lindblad_oracle needs an x-independent generator "
                            "(for the random_hamiltonian kind, gamma = 0)")
    return problems
