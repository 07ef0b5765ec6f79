"""The four benchmark workloads.

A workload is built from the run's seed during set-up (its config
written and parsed, or its model constructed), then runs the same
round of ousse commands as often as the run length allows.  Every
round repeats identical inputs, so its outputs must repeat byte for
byte (the determinism contract); the first round's outputs are also
checked against the references in ``checks``.  Trajectory-steps and
operations are counted here from the inputs; only divergences are read
back from ousse's outputs.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

# Box-Muller, the OU recursion and the chunked reduction make any seed
# equally expensive, so the seed only picks the master seed.
SEED_MASK = (1 << 63) - 1


def _c(z):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix(m):
    return [[_c(v) for v in row] for row in np.asarray(m)]


def _quiet_main(cli, argv):
    """Run ``ousse.cli.main`` with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read(path):
    with open(path) as f:
        return f.read()


def _sizes(paths):
    return sum(os.path.getsize(p) for p in paths)


@dataclass
class Round:
    """What one timed round did: its outputs, steps, operations and failures."""

    outputs: dict
    steps: int
    ops: int
    failed: int
    bytes_written: int


class OuCovariance:
    """``ousse covariance`` on criterion 9's grid at gamma = 0.5."""

    name = "ou-covariance"
    GAMMA = 0.5
    DT = 1e-3
    N_STEPS = 1000
    POINTS = 5
    N_PATHS = 28672             # seven sampler chunks of 4096 paths

    def __init__(self, ousse, seed, out_dir):
        self.cli = ousse.cli
        self.out_dir = out_dir
        self.argv = ["covariance", "--gamma", repr(self.GAMMA),
                     "--tmax", repr(self.DT * self.N_STEPS), "--dt", repr(self.DT),
                     "--n-paths", str(self.N_PATHS), "--seed", str(seed & SEED_MASK),
                     "--points", str(self.POINTS), "--out", out_dir]
        self.nodes = [round(self.N_STEPS * i / self.POINTS) for i in range(1, self.POINTS + 1)]

    def run_round(self):
        return _quiet_main(self.cli, self.argv)

    def collect(self, code):
        path = os.path.join(self.out_dir, "covariance.csv")
        text = _read(path)
        return Round({"code": code, "csv": text}, self.N_PATHS * self.N_STEPS,
                     self.N_PATHS, 0, len(text.encode()))

    def check(self, rnd, checks):
        problems = [] if rnd.outputs["code"] == 0 else [f"covariance exited {rnd.outputs['code']}"]
        return problems + checks.check_ou_covariance(rnd.outputs["csv"], self.GAMMA, self.DT,
                                                     self.nodes, self.N_PATHS)


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class DephasingVerify:
    """The README session: coloured-noise dephasing of |+>, simulate then verify."""

    name = "dephasing-verify"
    GAMMA = 1.0
    DT = 0.0025
    N_STEPS = 400               # 201 default output nodes
    N_TRAJ = 2048
    # the default battery for this model, without "covariance": its
    # all-points-must-pass rule fails a correct sampler on a few percent
    # of seeds (see CHANGES.md)
    SUITES = ("consistency", "martingale", "mean_equation", "girsanov")

    def __init__(self, ousse, seed, out_dir):
        self.cli = ousse.cli
        self.out_dir = out_dir
        doc = {
            "model": {"kind": "random_hamiltonian", "dim": 2, "gamma": self.GAMMA,
                      "H": {"coefficients": [_matrix(np.zeros((2, 2)))]},
                      "K": {"coefficients": [_matrix(SZ)]}},
            "grid": {"dt": self.DT, "T": self.DT * self.N_STEPS},
            "run": {"mode": "nonlinear", "n_traj": self.N_TRAJ, "master_seed": seed & SEED_MASK,
                    "initial": [_c(v) for v in np.array([1.0, 1.0]) / np.sqrt(2.0)],
                    "observables": {"sx": _matrix(SX)}},
            "checks": {"suites": list(self.SUITES)},
            "output": {"directory": out_dir},
        }
        self.config = os.path.join(out_dir, "dephasing.json")
        with open(self.config, "w") as f:
            json.dump(doc, f)
        ousse.parse_config(_read(self.config))

    def run_round(self):
        sim = _quiet_main(self.cli, ["simulate", "--config", self.config])
        ver = _quiet_main(self.cli, ["verify", "--config", self.config])
        return sim, ver

    def collect(self, codes):
        series = _read(os.path.join(self.out_dir, "series.csv"))
        summary = json.loads(_read(os.path.join(self.out_dir, "summary.json")))
        report = json.loads(_read(os.path.join(self.out_dir, "report.json")))
        failed = summary["divergence_count"]
        for c in report["checks"]:
            if c["name"] == "martingale":
                failed += self.N_TRAJ - c["details"]["n_traj"]
            if c["name"] == "girsanov":
                failed += sum(len(v) for v in c["details"]["diverged"].values())
        report.pop("timings")
        # simulate; verify's linear reference; girsanov's linear and nonlinear legs
        n_ensembles = 4
        written = _sizes([os.path.join(self.out_dir, f)
                          for f in ("series.csv", "summary.json", "report.json")])
        return Round({"codes": codes, "series": series, "report": report},
                     n_ensembles * self.N_TRAJ * self.N_STEPS, n_ensembles * self.N_TRAJ,
                     failed, written)

    def check(self, rnd, checks):
        sim, ver = rnd.outputs["codes"]
        problems = [] if sim == 0 else [f"simulate exited {sim}"]
        problems += checks.check_dephasing_series(rnd.outputs["series"], self.GAMMA, self.DT,
                                                  self.N_STEPS, self.N_TRAJ)
        problems += checks.check_verify_report(rnd.outputs["report"], ver, self.SUITES,
                                               checks.default_nodes(self.N_STEPS).size)
        return problems


def ladder_operators(d):
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    return a, a.conj().T @ a


class LadderSme:
    """``ousse simulate`` in sme mode on a driven, monitored 4-level ladder."""

    name = "ladder-sme"
    DIM = 4
    GAMMA = 1.0
    OMEGA = 1.0                 # level spacing
    DRIVE = 1.0                 # amplitude of a + a^dag
    KAPPA = 1.0                 # B = sqrt(kappa) a
    DT = 0.0025
    N_STEPS = 400               # 201 default output nodes
    N_TRAJ = 1024

    def __init__(self, ousse, seed, out_dir):
        self.cli = ousse.cli
        self.out_dir = out_dir
        a, n = ladder_operators(self.DIM)
        self.h = self.OMEGA * n + self.DRIVE * (a + a.conj().T)
        self.b = np.sqrt(self.KAPPA) * a
        self.rho0 = np.zeros((self.DIM, self.DIM), dtype=complex)
        self.rho0[-1, -1] = 1.0
        # CSV columns follow the sorted observable names
        self.observables = [("number", n), ("quadrature", a + a.conj().T)]
        doc = {
            "model": {"kind": "measurement", "dim": self.DIM, "gamma": self.GAMMA,
                      "H": {"coefficients": [_matrix(self.h)]},
                      "B": {"coefficients": [_matrix(self.b)]}},
            "grid": {"dt": self.DT, "T": self.DT * self.N_STEPS},
            "run": {"mode": "sme", "n_traj": self.N_TRAJ, "master_seed": seed & SEED_MASK,
                    "initial": _matrix(self.rho0),
                    "observables": {name: _matrix(o) for name, o in self.observables}},
            "output": {"directory": out_dir},
        }
        self.config = os.path.join(out_dir, "ladder.json")
        with open(self.config, "w") as f:
            json.dump(doc, f)
        ousse.parse_config(_read(self.config))

    def run_round(self):
        return _quiet_main(self.cli, ["simulate", "--config", self.config])

    def collect(self, code):
        series = _read(os.path.join(self.out_dir, "series.csv"))
        summary = json.loads(_read(os.path.join(self.out_dir, "summary.json")))
        written = _sizes([os.path.join(self.out_dir, f) for f in ("series.csv", "summary.json")])
        return Round({"code": code, "series": series}, self.N_TRAJ * self.N_STEPS, self.N_TRAJ,
                     summary["divergence_count"], written)

    def check(self, rnd, checks):
        problems = [] if rnd.outputs["code"] == 0 else [f"simulate exited {rnd.outputs['code']}"]
        return problems + checks.check_ladder_series(rnd.outputs["series"], self.h, self.b,
                                                     self.rho0, self.observables, self.DT,
                                                     self.N_STEPS, self.N_TRAJ)


class QubitRecords:
    """Single ``propagate("nonlinear", ...)`` records of the monitored decaying qubit."""

    name = "qubit-records"
    GAMMA = 1.0
    DT = 1e-3
    N_STEPS = 1000
    N_RECORDS = 50

    def __init__(self, ousse, seed, out_dir):
        self.ousse = ousse
        self.b = np.array([[0, 0], [1, 0]], dtype=complex)    # sigma_minus
        self.model = ousse.make_measurement_model(0.5 * SZ, self.b, self.GAMMA)
        self.grid = ousse.TimeGrid(self.DT, self.N_STEPS)
        self.policy = ousse.SeedPolicy(seed & SEED_MASK)
        self.excited = np.array([1.0, 0.0], dtype=complex)

    def run_round(self):
        out = []
        for i in range(self.N_RECORDS):
            try:
                traj = self.ousse.propagate("nonlinear", self.excited, self.policy.stream(i),
                                            self.model, self.grid)
            except self.ousse.DivergenceError:
                out.append(None)
                continue
            out.append((traj.states, traj.X, traj.m_record))
        return out

    def collect(self, records):
        failed = sum(r is None for r in records)
        return Round({"records": records}, self.N_RECORDS * self.N_STEPS, self.N_RECORDS,
                     failed, 0)

    def check(self, rnd, checks):
        kept = [(r, self.policy.stream_key(i)) for i, r in enumerate(rnd.outputs["records"])
                if r is not None]
        return checks.check_records([r for r, _ in kept], [k for _, k in kept], self.GAMMA,
                                    self.DT, self.N_STEPS, self.b, SZ, self.DT * self.N_STEPS)


def same_outputs(a, b):
    """True when two rounds' outputs are identical, arrays compared bitwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_outputs(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_outputs(a[k], b[k]) for k in a)
    return a == b


WORKLOADS = {w.name: w for w in (OuCovariance, DephasingVerify, LadderSme, QubitRecords)}
