"""Each output checker accepts real ousse output and refuses corrupted copies.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np

import checks
import run
import spans
import workloads

ousse = run.load_ousse()


def _edit(text, row, column, fn):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(fn(float(cells[j])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def corruptions(text, column, delta):
    """One perturbed value, one flipped sign and one dropped row of a CSV.

    The perturbed and flipped value is the one in the middle row, where
    the statistical allowances are open, not the exact initial row.
    """
    lines = text.strip("\n").split("\n")
    row = (len(lines) - 1) // 2
    return {
        "perturbed": _edit(text, row, column, lambda v: v + delta),
        "flipped": _edit(text, row, column, lambda v: -v),
        "dropped": "\n".join(lines[:row + 1] + lines[row + 2:]) + "\n",
    }


def _round(cls, tmp_path, **sizes):
    """One round of a workload class, at test sizes."""
    w = type("Small", (cls,), sizes)(ousse, 3, str(tmp_path))
    return w, w.collect(w.run_round())


def test_ou_covariance_checker_refuses_corruption(tmp_path):
    w, rnd = _round(workloads.OuCovariance, tmp_path, N_PATHS=4096)
    assert w.check(rnd, checks) == []
    for kind, bad in corruptions(rnd.outputs["csv"], "empirical", 0.1).items():
        problems = checks.check_ou_covariance(bad, w.GAMMA, w.DT, w.nodes, w.N_PATHS)
        assert problems, kind


def test_dephasing_checker_refuses_corruption(tmp_path):
    w = type("Small", (workloads.DephasingVerify,), {"N_TRAJ": 256})(ousse, 3, str(tmp_path))
    assert ousse.cli.main(["simulate", "--config", w.config]) == 0
    text = (tmp_path / "series.csv").read_text()
    assert checks.check_dephasing_series(text, w.GAMMA, w.DT, w.N_STEPS, w.N_TRAJ) == []
    for column in ("sx_mean", "eta_re_0_0"):
        for kind, bad in corruptions(text, column, 0.5).items():
            problems = checks.check_dephasing_series(bad, w.GAMMA, w.DT, w.N_STEPS, w.N_TRAJ)
            assert problems, (column, kind)


def test_verify_report_checker_refuses_failures():
    entries = [{"label": "x", "time": 0.0, "statistic": 0.1, "threshold": 0.2, "passed": True}]
    doc = {"passed": True, "checks": [{"name": s, "passed": True, "entries": list(entries)}
                                      for s in ("martingale", "girsanov")]}
    assert checks.check_verify_report(doc, 0, ("martingale", "girsanov"), 1) == []
    assert checks.check_verify_report(doc, 3, ("martingale", "girsanov"), 1)
    assert checks.check_verify_report(doc, 0, ("martingale", "girsanov", "consistency"), 1)
    bad = json.loads(json.dumps(doc))
    bad["checks"][1]["passed"] = False
    assert checks.check_verify_report(bad, 0, ("martingale", "girsanov"), 1)
    bad = json.loads(json.dumps(doc))
    bad["checks"][0]["entries"][0]["statistic"] = 0.3
    assert checks.check_verify_report(bad, 0, ("martingale", "girsanov"), 1)


def test_ladder_checker_refuses_corruption(tmp_path):
    w, rnd = _round(workloads.LadderSme, tmp_path, N_TRAJ=512)
    assert w.check(rnd, checks) == []
    for column in ("number_mean", "quadrature_mean", "eta_re_3_3"):
        for kind, bad in corruptions(rnd.outputs["series"], column, 0.5).items():
            problems = checks.check_ladder_series(bad, w.h, w.b, w.rho0, w.observables, w.DT,
                                                  w.N_STEPS, w.N_TRAJ)
            assert problems, (column, kind)


def test_records_checker_refuses_corruption(tmp_path):
    w, rnd = _round(workloads.QubitRecords, tmp_path, N_RECORDS=5)
    assert w.check(rnd, checks) == []
    records = rnd.outputs["records"]
    keys = [w.policy.stream_key(i) for i in range(len(records))]

    def refused(recs):
        return checks.check_records(recs, keys, w.GAMMA, w.DT, w.N_STEPS, w.b, workloads.SZ,
                                    w.DT * w.N_STEPS)

    states, x, m = records[2]
    k = int(np.argmax(np.abs(m)))
    perturbed = x.copy()
    perturbed[500] += 1e-3
    flipped = m.copy()
    flipped[k] = -flipped[k]
    for bad in ((states, perturbed, m), (states, x, flipped), (states[:-1], x, m)):
        assert refused(records[:2] + [bad] + records[3:])


def test_rounds_must_repeat_bitwise():
    a = {"records": [(np.zeros(3), np.ones(2))]}
    b = {"records": [(np.zeros(3), np.ones(2))]}
    assert workloads.same_outputs(a, b)
    b["records"][0][1][1] = np.nextafter(1.0, 2.0)
    assert not workloads.same_outputs(a, b)


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.SPANS, "noise.ou_sample", [("ousse.noise", "no_such_sampler")])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    values, absent = spans.layer_metrics(tracer, (0, 0), (0, 0), 1, 0, 0.0)
    assert "no_such_sampler" in absent["noise.ou_sample_s"]
    assert set(values) == set(spans.METRICS)


def test_benchmark_json_names_what_run_prints():
    doc = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "traj_steps_per_s",
                                                       "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (unit, _) in spans.METRICS.items()}
