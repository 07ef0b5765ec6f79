"""Spans around ousse's public functions, recorded from outside the package.

``Tracer.install`` replaces each function named in ``SPANS`` with a
wrapper wherever ousse's modules hold a reference to it (module globals
and the names a module imported from another), and ``uninstall`` puts
the originals back.  A span is (name, start, end, parent) and lives in
flat arrays until ``save`` writes them out.  A layer's self time is the
duration of its spans minus the time their child spans cover.

``run_ensemble`` gets a step-only twin: after each call the wrapper
calls the original again with the output nodes cut to the first and the
last.  The twin's self time is the stepping cost; the call's own self
time minus it is the recording cost.  Spans under a twin count only
towards ``ensemble.step_s``.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute path), for every wrapped function
SPANS = {
    "noise.stream": [("ousse.noise", "SeedPolicy.stream")],
    "noise.draw": [("ousse.noise", "gaussians"), ("ousse.noise", "sample_wiener"),
                   ("ousse.noise", "refine_increments")],
    "noise.ou_sample": [("ousse.noise", "sample_ou_values")],
    "model.operator": [("ousse.model", "OperatorPolynomial.__call__"),
                       ("ousse.model", "OperatorPolynomial.at"),
                       ("ousse.model", "drift_operator"), ("ousse.model", "diffusion_operator")],
    "dynamics.step": [("ousse.dynamics", n) for n in
                      ("step_linear", "step_nonlinear", "step_density_linear", "step_sme",
                       "lindblad_apply")],
    "dynamics.propagate": [("ousse.dynamics", "propagate")],
    "ensemble.run": [("ousse.ensemble", "run_ensemble")],
    "ensemble.check.martingale": [("ousse.ensemble", "martingale_check")],
    "ensemble.check.mean_equation": [("ousse.ensemble", "mean_equation_residual")],
    "ensemble.check.girsanov": [("ousse.ensemble", "girsanov_crosscheck")],
    "ensemble.check.ou_covariance": [("ousse.ensemble", "ou_covariance_check")],
    "ensemble.check.observable_series": [("ousse.ensemble", "observable_series")],
    "config.parse": [("ousse.config", "parse_config")],
    "cli.cmd": [("ousse.cli", n) for n in ("cmd_simulate", "cmd_verify", "cmd_covariance")],
}
TWIN = "ensemble.twin"

# per-layer metric -> (unit, the span names it needs); a metric whose
# spans could not all be installed is reported as absent
METRICS = {
    "noise.stream_setup_s": ("s", ["noise.stream"]),
    "noise.streams": ("count", ["noise.stream"]),
    "noise.draw_s": ("s", ["noise.draw"]),
    "noise.normals": ("count", ["noise.draw"]),
    "noise.ns_per_normal": ("ns", ["noise.draw"]),
    "noise.ou_sample_s": ("s", ["noise.ou_sample"]),
    "ensemble.run_s": ("s", ["ensemble.run"]),
    "ensemble.self_s": ("s", ["ensemble.run"]),
    "ensemble.step_s": ("s", ["ensemble.run"]),
    "ensemble.record_s": ("s", ["ensemble.run"]),
    "ensemble.traj_steps": ("count", ["ensemble.run"]),
    "ensemble.step_ns_per_traj_step": ("ns", ["ensemble.run"]),
    "ensemble.record_us_per_traj_node": ("us", ["ensemble.run"]),
    "ensemble.diverged": ("count", ["ensemble.run"]),
    "ensemble.check.martingale_s": ("s", ["ensemble.check.martingale"]),
    "ensemble.check.mean_equation_s": ("s", ["ensemble.check.mean_equation"]),
    "ensemble.check.girsanov_s": ("s", ["ensemble.check.girsanov"]),
    "ensemble.check.ou_covariance_s": ("s", ["ensemble.check.ou_covariance"]),
    "ensemble.check.observable_series_s": ("s", ["ensemble.check.observable_series"]),
    "dynamics.propagate_s": ("s", ["dynamics.propagate"]),
    "dynamics.step_s": ("s", ["dynamics.step"]),
    "dynamics.loop_s": ("s", ["dynamics.propagate"]),
    "dynamics.steps": ("count", ["dynamics.propagate"]),
    "dynamics.us_per_step": ("us", ["dynamics.propagate"]),
    "model.operator_s": ("s", ["model.operator"]),
    "config.parse_s": ("s", ["config.parse"]),
    "cli.self_s": ("s", ["cli.cmd"]),
    "cli.bytes_written": ("count", []),
    "trace.overhead_s": ("s", []),
}


# function -> (count, argument position, argument name, size of the argument)
COUNTERS = {
    "gaussians": ("normals", 1, "n", int),
    "propagate": ("steps", 4, "grid", lambda grid: grid.n_steps),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.sid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.counts = {"normals": 0, "traj_steps": 0, "traj_nodes": 0, "diverged": 0, "steps": 0}
        self.twin_seconds = 0.0
        self.in_twin = False
        self.missing = {}
        self._patches = []
        self._wrappers = []     # (owner, attr, original, wrapper, is_class_attr)

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        i = len(self.t0)
        self.sid.append(nid)
        self.parent.append(self.stack[-1])
        self.stack.append(i)
        self.t1.append(0.0)
        self.t0.append(time.perf_counter())
        return i

    def _close(self, i):
        self.t1[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        if name == "ensemble.run":
            return functools.wraps(fn)(self._wrap_run_ensemble(self._id(name), fn))
        nid = self._id(name)
        tracer = self
        counter = COUNTERS.get(fn.__name__)

        def traced(*args, **kwargs):
            if counter and not tracer.in_twin:
                key, pos, kw, size = counter
                tracer.counts[key] += size(args[pos] if len(args) > pos else kwargs[kw])
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return functools.wraps(fn)(traced)

    def _wrap_run_ensemble(self, nid, fn):
        tracer = self
        twin_id = self._id(TWIN)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                est = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            n_nodes = est.node_indices.size
            tracer.counts["traj_steps"] += a["n_traj"] * (a["grid"].n_steps << a["level"])
            tracer.counts["traj_nodes"] += a["n_traj"] * max(0, n_nodes - 2)
            tracer.counts["diverged"] += len(est.diverged)
            a["output_nodes"] = [int(est.node_indices[0]), int(est.node_indices[-1])]
            j = tracer._open(twin_id)
            tracer.in_twin = True
            try:
                fn(*call.args, **call.kwargs)
            finally:
                tracer.in_twin = False
                tracer._close(j)
            tracer.twin_seconds += tracer.t1[j] - tracer.t0[j]
            return est

        return traced

    def install(self):
        """Wrap every function in ``SPANS``; remember the ones that are gone."""
        if not self._wrappers:
            self._build()
        ousse_modules = [m for n, m in list(sys.modules.items())
                         if m is not None and (n == "ousse" or n.startswith("ousse."))]
        for owner, attr, original, wrapper, is_class_attr in self._wrappers:
            if is_class_attr:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
                continue
            for mod in ousse_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _build(self):
        for name, targets in SPANS.items():
            for modname, path in targets:
                mod = sys.modules.get(modname)
                owner_path, _, attr = path.rpartition(".")
                owner = mod
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                original = None if owner is None else vars(owner).get(attr)
                if not callable(original):
                    self.missing[name] = f"{modname}.{path} not found"
                    continue
                self._wrappers.append((owner, attr, original, self._wrap(name, original),
                                       inspect.isclass(owner)))

    def mark(self):
        """Index of the next span, to split the record into set-up and rounds."""
        return len(self.t0)

    def layer_times(self, lo, hi):
        """Self and inclusive seconds per span name over spans ``lo:hi``."""
        sid = np.asarray(self.sid)[lo:hi]
        parent = np.asarray(self.parent)[lo:hi] - lo
        dur = np.asarray(self.t1)[lo:hi] - np.asarray(self.t0)[lo:hi]
        has_parent = parent >= 0
        child = np.zeros(sid.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        twin = self.names.index(TWIN) if TWIN in self.names else -1
        under_twin = sid == twin
        while True:
            spread = under_twin | (has_parent & under_twin[np.where(has_parent, parent, 0)])
            if np.array_equal(spread, under_twin):
                break
            under_twin = spread
        out = {}
        for k, name in enumerate(self.names):
            pick = (sid == k) & ((sid == twin) | ~under_twin)
            out[name] = (float(own[pick].sum()), float(dur[pick].sum()), int(pick.sum()))
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), span=np.asarray(self.sid),
                 parent=np.asarray(self.parent), start=np.asarray(self.t0),
                 end=np.asarray(self.t1))


def layer_metrics(tracer, setup_span, round_spans, n_rounds, bytes_written, overhead_s):
    """Per-layer metrics, per traced round; set-up metrics from the set-up spans."""
    times = tracer.layer_times(round_spans[0], round_spans[1])
    setup = tracer.layer_times(setup_span[0], setup_span[1])

    def own(name):
        return times.get(name, (0.0, 0.0, 0))[0] / n_rounds

    def incl(name):
        return times.get(name, (0.0, 0.0, 0))[1] / n_rounds

    def calls(name):
        return times.get(name, (0.0, 0.0, 0))[2] / n_rounds

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    c = {k: v / n_rounds for k, v in tracer.counts.items()}
    step_s = own(TWIN)
    m = {
        "noise.stream_setup_s": own("noise.stream"),
        "noise.streams": calls("noise.stream"),
        "noise.draw_s": own("noise.draw"),
        "noise.normals": c["normals"],
        "noise.ns_per_normal": ratio(own("noise.draw"), c["normals"], 1e9),
        "noise.ou_sample_s": own("noise.ou_sample"),
        "ensemble.run_s": incl("ensemble.run"),
        "ensemble.self_s": own("ensemble.run"),
        "ensemble.step_s": step_s,
        "ensemble.record_s": own("ensemble.run") - step_s,
        "ensemble.traj_steps": c["traj_steps"],
        "ensemble.step_ns_per_traj_step": ratio(step_s, c["traj_steps"], 1e9),
        "ensemble.record_us_per_traj_node": ratio(own("ensemble.run") - step_s,
                                                  c["traj_nodes"], 1e6),
        "ensemble.diverged": c["diverged"],
        "ensemble.check.martingale_s": own("ensemble.check.martingale"),
        "ensemble.check.mean_equation_s": own("ensemble.check.mean_equation"),
        "ensemble.check.girsanov_s": own("ensemble.check.girsanov"),
        "ensemble.check.ou_covariance_s": own("ensemble.check.ou_covariance"),
        "ensemble.check.observable_series_s": own("ensemble.check.observable_series"),
        "dynamics.propagate_s": incl("dynamics.propagate"),
        "dynamics.step_s": own("dynamics.step"),
        "dynamics.loop_s": own("dynamics.propagate"),
        "dynamics.steps": c["steps"],
        "dynamics.us_per_step": ratio(incl("dynamics.propagate"), c["steps"], 1e6),
        "model.operator_s": own("model.operator"),
        "config.parse_s": setup.get("config.parse", (0.0, 0.0, 0))[1],
        "cli.self_s": own("cli.cmd"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": overhead_s,
    }
    absent = {}
    for metric, (_, spans) in METRICS.items():
        gone = [tracer.missing[s] for s in spans if s in tracer.missing]
        if gone:
            absent[metric] = "; ".join(gone)
            m[metric] = 0.0
    return m, absent
