"""Run one benchmark workload of ousse and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (importing ousse from ``src/`` next to this directory, and
building and validating the workload's inputs from the seed) is timed
from the first statement of this file.  Then the workload's round of
commands runs again and again until ``--seconds`` have passed; a round
that has started is always finished.  Outputs are checked outside the
timed spans.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``traj_steps_per_s`` (lower quartile over rounds) and ``peak_rss_mb``.  With
``--trace 1`` rounds alternate untraced and traced, and the metrics are
the per-layer ones, per traced round (see README.md).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (set-up is timed from the line above)
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_ousse():
    """Import ousse from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ousse
    import ousse.cli  # noqa: F401  (the CLI entry point the workloads drive)

    if not Path(ousse.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ousse was imported from {ousse.__file__}, not from {SRC}")
    return ousse


def peak_rss_mb():
    """Peak resident set of this process or its children, in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def lower_quartile(rates):
    """First quartile of the per-round rates.

    The host runs in a common state and in bursts up to 40% faster; the
    median follows the share of a run that fell in a burst, the lower
    quartile follows the common state.
    """
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=4, method="inclusive")[0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    try:
        ousse = load_ousse()
    except ImportError as e:
        print(f"cannot import ousse from {SRC}: {e}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_mark = tracer.mark() if tracer else 0
    workload = workloads.WORKLOADS[args.workload](ousse, args.seed, str(out_dir))
    setup_s = time.perf_counter() - _START
    if tracer:
        # untraced rounds record no spans, so every later span is a traced round's
        setup_span = (setup_mark, tracer.mark())
        tracer.uninstall()

    import checks

    first = None
    problems = []
    walls = []
    traced_walls = []
    rates = []
    n_rounds = attempted = failed = 0
    min_rounds = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    while n_rounds < min_rounds or time.perf_counter() < deadline:
        traced = bool(tracer) and n_rounds % 2 == 1
        if traced:
            tracer.install()
            twin_before = tracer.twin_seconds
        t0 = time.perf_counter()
        result = workload.run_round()
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            traced_walls.append(wall - (tracer.twin_seconds - twin_before))
        else:
            walls.append(wall)
        rnd = workload.collect(result)
        if not traced:
            rates.append(rnd.steps / wall)
        attempted += rnd.ops
        failed += rnd.failed
        # only the first round's outputs are kept, so memory does not grow with the run
        if first is None:
            first = rnd
        elif not workloads.same_outputs(rnd.outputs, first.outputs):
            problems.append(f"round {n_rounds} output differs from round 0 with the same inputs")
        n_rounds += 1

    problems = workload.check(first, checks) + problems
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer:
        n_traced = len(traced_walls)
        overhead = statistics.median(t - u for t, u in zip(traced_walls, walls))
        values, absent = spans.layer_metrics(tracer, setup_span, (setup_span[1], tracer.mark()),
                                             n_traced, first.bytes_written, overhead)
        for name, reason in absent.items():
            print(f"absent: {name}: {reason}")
        tracer.save(HERE / "out" / f"{args.workload}.trace.npz")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in spans.METRICS.items()}
    else:
        print(f"{len(rates)} rounds, trajectory-steps/s: "
              + " ".join(f"{r:.6g}" for r in rates), file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "traj_steps_per_s": {"value": lower_quartile(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
