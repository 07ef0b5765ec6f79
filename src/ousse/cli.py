"""Command-line entry point: simulate, verify, covariance.

Outputs are machine-readable and deterministic: a rerun with the same
config and seed produces byte-identical CSV.  Numbers are written with
Python's shortest round-trip repr, which preserves every bit of a
double.  JSON summaries carry seeds, library versions and wall-clock
timings (the one part of an output that is allowed to differ between
reruns).

Exit codes: 0 success (verify: all checks passed), 1 validation or
usage error, 2 runtime abort (divergent ensemble), 3 verification
failure.

``verify`` runs suites of the battery that :mod:`ousse.ensemble` owns;
this module runs their shared reference ensemble once and writes files.
"""

import argparse
import dataclasses
import functools
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__, config
from .config import ExperimentConfig, parse_config
from .dynamics import _measure_modes
from .ensemble import (_SUITES, _covariance_nodes, _default_nodes, _girsanov_nodes,
                       observable_series, run_ensemble)
from .errors import ConfigError, DivergenceError, OusseError, ValidationError
from .noise import SeedPolicy, TimeGrid, ou_covariance_estimates

__all__ = ["main", "cmd_simulate", "cmd_verify", "cmd_covariance"]


def _fmt(x) -> str:
    # repr of a double is the shortest string that round-trips exactly
    return repr(float(x))


def _dump_json(doc, path):
    # json writes np.float64, a float, with float's repr; other numpy scalars and
    # arrays reach ``default``
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True,
                  default=lambda o: o.tolist() if isinstance(o, np.ndarray) else o.item())
        f.write("\n")


def _versions():
    import scipy  # the bare package is cheap; scipy.linalg is what costs a cold start

    return {"ousse": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# simulate

def _series_header(dim: int, observables) -> list:
    cols = ["t", "mean_weight", "mean_weight_stderr"]
    for i in range(dim):
        for j in range(i, dim):
            cols += [f"eta_re_{i}_{j}", f"eta_im_{i}_{j}"]
    for name, _ in observables:
        cols += [f"{name}_mean", f"{name}_stderr"]
    return cols


def _estimate(cfg: ExperimentConfig, mode: str, workers, extra_nodes=()):
    """The ensemble of ``cfg`` run in ``mode``, at its output nodes and ``extra_nodes``."""
    nodes = list(cfg.output_nodes or _default_nodes(cfg.grid.n_steps)) + list(extra_nodes)
    return run_ensemble(cfg.model, cfg.grid, cfg.n_traj, SeedPolicy(cfg.master_seed),
                        mode, cfg.initial, output_nodes=nodes, level=cfg.level, workers=workers)


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, workers=None) -> int:
    t0 = time.perf_counter()
    est = _estimate(cfg, cfg.mode, workers)
    series = {name: observable_series(est, o) for name, o in cfg.observables}
    elapsed = time.perf_counter() - t0

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "series.csv")
    d = est.dim
    with open(csv_path, "w", newline="") as f:
        f.write(",".join(_series_header(d, cfg.observables)) + "\n")
        for row, t in enumerate(est.times):
            vals = [t, est.mean_weight[row], est.mean_weight_stderr[row]]
            for i in range(d):
                for j in range(i, d):
                    vals += [est.eta[row, i, j].real, est.eta[row, i, j].imag]
            for name, _ in cfg.observables:
                vals += [series[name][row][1], series[name][row][2]]
            f.write(",".join(_fmt(v) for v in vals) + "\n")

    summary = {
        "command": "simulate",
        "versions": _versions(),
        "master_seed": cfg.master_seed,
        "mode": cfg.mode,
        "n_traj": cfg.n_traj,
        "n_used": est.n_used,
        "divergence_count": len(est.diverged),
        "diverged_indices": list(est.diverged),
        "grid": {"dt": cfg.grid.dt, "T": cfg.grid.horizon, "level": cfg.level},
        "output_times": [float(t) for t in est.times],
        "timings": {"seconds": elapsed},
        "files": {"series": "series.csv"},
    }
    _dump_json(summary, os.path.join(out_dir, "summary.json"))
    print(f"wrote {csv_path} ({est.times.size} rows, {est.n_used} trajectories)")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(cfg: ExperimentConfig, out_dir: str, workers=None) -> int:
    t0 = time.perf_counter()
    # a config rebuilt with dataclasses.replace skips parse_config's gates, so pass them again
    try:
        config.parse_config(cfg._document())
    except ConfigError as e:
        raise ValidationError(e.errors[0]) from None
    # one reference ensemble for every suite; girsanov compares at its own times too
    extra = _girsanov_nodes(cfg) if "girsanov" in cfg.checks.suites else ()
    reference = functools.cache(
        functools.partial(_estimate, cfg, _measure_modes(cfg.initial)[0], workers, extra))
    reports = [_SUITES[suite](cfg, reference, workers) for suite in cfg.checks.suites]

    passed = all(r.passed for r in reports)
    doc = {
        "command": "verify",
        "versions": _versions(),
        "master_seed": cfg.master_seed,
        "passed": passed,
        "checks": [dataclasses.asdict(r) for r in reports],
        "timings": {"seconds": time.perf_counter() - t0},
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    _dump_json(doc, path)
    for r in reports:
        worst = max(r.entries, key=lambda e: e.statistic - e.threshold, default=None)
        extra = f" (worst statistic {worst.statistic:.3g} vs {worst.threshold:.3g})" if worst else ""
        print(f"{r.name}: {'pass' if r.passed else 'FAIL'}{extra}")
    print(f"report: {path}")
    return 0 if passed else 3


# ---------------------------------------------------------------------------
# covariance

def cmd_covariance(gamma: float, horizon: float, dt: float, n_paths: int, seed: int,
                   out_dir: str, points: int = 5, workers=None) -> int:
    grid = TimeGrid.spanning(dt, horizon)
    nodes = np.asarray(_covariance_nodes(grid, points), dtype=int)
    # n_paths, gamma and gamma*dt are checked by the estimator and its sampler
    estimates = ou_covariance_estimates(SeedPolicy(seed), grid, gamma, n_paths, nodes,
                                        workers=workers)
    times = nodes * dt
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "covariance.csv")
    with open(path, "w", newline="") as f:
        f.write("t,s,analytic,empirical,stderr\n")
        for a in range(nodes.size):
            for b in range(a + 1):
                ana, emp, se = estimates[b, a]
                f.write(",".join([_fmt(times[a]), _fmt(times[b]), _fmt(ana),
                                  _fmt(emp), _fmt(se)]) + "\n")
    print(f"wrote {path} ({nodes.size * (nodes.size + 1) // 2} pairs, {n_paths} paths)")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

class _UsageError(Exception):
    pass


_THREADS_HELP = ("worker processes (default: every usable CPU), capped at the usable CPUs "
                 "and at the run's chunks; never changes results")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="ousse", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    for name, text in (("simulate", "run an ensemble and write the time series"),
                       ("verify", "run the structural check battery")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override run.master_seed")
        cmd.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
        cmd.add_argument("--out", default=None, help="output directory (default: from config)")

    cov = sub.add_parser("covariance", help="tabulate OU covariance, closed form vs sampled")
    cov.add_argument("--gamma", type=float, required=True)
    cov.add_argument("--tmax", type=float, required=True, metavar="T")
    cov.add_argument("--dt", type=float, required=True)
    cov.add_argument("--n-paths", type=int, default=100000)
    cov.add_argument("--seed", type=int, default=0)
    cov.add_argument("--points", type=int, default=5)
    cov.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    cov.add_argument("--out", default=".")
    return p


def _load_config(args) -> ExperimentConfig:
    try:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError([f"$: cannot read config file: {e}"])
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if args.threads is not None and args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 1
    try:
        if args.command == "covariance":
            return cmd_covariance(args.gamma, args.tmax, args.dt, args.n_paths,
                                  args.seed, args.out, args.points, args.threads)
        cfg = _load_config(args)
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.threads)
        return cmd_verify(cfg, out_dir, args.threads)
    except ConfigError as e:
        for line in e.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 2
    except OusseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
