import dataclasses
import json
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from ousse import ConfigError, ValidationError, dephasing_coherence, parse_config
from ousse import cli, ensemble, model, parallel
from ousse.config import KNOWN_SUITES
from ousse.cli import cmd_verify, main

I2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
Z2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
SZ = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
SX = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
PLUS = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]


def dephasing_doc(n_traj=64, dt=1e-2, T=0.5, gamma=1.0, **run_extra):
    return {
        "model": {"kind": "random_hamiltonian", "dim": 2, "gamma": gamma,
                  "H": {"coefficients": [Z2]}, "K": {"coefficients": [SZ]}},
        "grid": {"dt": dt, "T": T},
        "run": {"mode": "linear", "n_traj": n_traj, "master_seed": 7,
                "initial": PLUS, **run_extra},
    }


def test_parse_minimal():
    cfg = parse_config(json.dumps(dephasing_doc()))
    assert cfg.mode == "linear"
    assert cfg.model.kind == "random_hamiltonian"
    assert cfg.model.gamma == 1.0
    assert cfg.grid.n_steps == 50
    assert cfg.n_traj == 64
    assert cfg.master_seed == 7
    assert cfg.level == 0
    assert cfg.output_nodes == ()
    # defaults: battery without the oracle (the generator depends on x here)
    assert "consistency" in cfg.checks.suites
    assert "girsanov" in cfg.checks.suites
    assert "lindblad_oracle" not in cfg.checks.suites
    assert cfg.checks.girsanov_times == (0.25, 0.5)


def test_canonical_round_trip_is_a_fixed_point():
    cfg = parse_config(json.dumps(dephasing_doc()))
    text = cfg.canonical_text()
    again = parse_config(text)
    assert again.canonical_text() == text
    assert again.model.gamma == cfg.model.gamma
    assert np.array_equal(again.initial, cfg.initial)


def test_with_seed_changes_only_the_seed():
    cfg = parse_config(json.dumps(dephasing_doc()))
    other = cfg.with_seed(99)
    assert other.master_seed == 99
    a = json.loads(cfg.canonical_text())
    b = json.loads(other.canonical_text())
    a["run"].pop("master_seed"), b["run"].pop("master_seed")
    assert a == b


def test_replaced_fields_reach_the_document_and_the_seed_override(tmp_path, capsys):
    # the document is derived from the fields, so a replaced field is neither lost nor reverted
    cfg = dataclasses.replace(parse_config(dephasing_doc()), n_traj=4)
    assert json.loads(cfg.canonical_text())["run"]["n_traj"] == 4
    other = cfg.with_seed(3)
    assert (other.n_traj, other.master_seed) == (4, 3)
    assert dataclasses.replace(other, master_seed=cfg.master_seed).canonical_text() == \
        cfg.canonical_text()
    with pytest.raises(ConfigError) as exc:
        cfg.with_seed(-1)
    assert exc.value.errors == ["run.master_seed: must be >= 0, got -1"]
    cfg_path = write_config(tmp_path, dephasing_doc(n_traj=8, T=0.1))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--seed", "-1", "--out", str(out)]) == 1
    assert "config error: run.master_seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


SUITES_ALL = ("consistency", "martingale", "covariance", "mean_equation", "girsanov",
              "lindblad_oracle")
HALF = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]


def test_default_batteries_in_table_order():
    # the battery's table names every suite, in the default order
    assert KNOWN_SUITES == tuple(ensemble._SUITES) == SUITES_ALL
    # the README session: a vector mode with an x-dependent generator
    readme = dephasing_doc(n_traj=3000, dt=5e-3, T=1.0, observables={"sx": SX})
    readme["run"]["mode"] = "nonlinear"
    assert parse_config(readme).checks.suites == SUITES_ALL[:5]
    assert parse_config(dephasing_doc(gamma=0.0)).checks.suites == SUITES_ALL
    # a density initial runs every suite; the oracle still needs an x-independent generator
    for gamma, suites in ((1.0, SUITES_ALL[:5]), (0.0, SUITES_ALL)):
        sme = dephasing_doc(gamma=gamma, mode="sme", initial=HALF)
        assert parse_config(sme).checks.suites == suites
    for mode in ("density_linear", "sme"):
        assert parse_config(measurement_doc([SM], mode)).checks.suites == SUITES_ALL
        assert parse_config(measurement_doc(B_X, mode)).checks.suites == SUITES_ALL[:5]


SM = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
B_X = [SM, [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.3, 0.0]]]]    # B(x) = SM + 0.3 x SZ


def measurement_doc(b_coefficients, mode, n_traj=64, **run_extra):
    initial = HALF if mode in ("density_linear", "sme") else PLUS
    return {
        "model": {"kind": "measurement", "dim": 2, "gamma": 1.0,
                  "H": {"coefficients": [SZ]}, "B": {"coefficients": b_coefficients}},
        "grid": {"dt": 1e-2, "T": 0.2},
        "run": {"mode": mode, "n_traj": n_traj, "master_seed": 7, "initial": initial,
                **run_extra},
    }


def _combinations():
    """Every (kind, mode, constant or x-dependent generator) a config can run."""
    for gamma in (0.0, 1.0):
        for mode in ("linear", "nonlinear", "density_linear", "sme"):
            doc = dephasing_doc(n_traj=64, T=0.2, gamma=gamma, mode=mode)
            if mode in ("density_linear", "sme"):
                doc["run"]["initial"] = HALF
            yield f"random_hamiltonian-{mode}-gamma{gamma:g}", doc
    for label, b in (("constant", [SM]), ("x-dependent", B_X)):
        for mode in ("linear", "nonlinear", "density_linear", "sme"):
            yield f"measurement-{mode}-{label}", measurement_doc(b, mode)


@pytest.mark.parametrize("label,doc", [pytest.param(label, doc, id=label)
                                       for label, doc in _combinations()])
def test_default_battery_runs_for_every_combination(tmp_path, label, doc):
    doc["checks"] = {"covariance_n_paths": 500}
    cfg = parse_config(doc)
    out = tmp_path / "out"
    code = main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code in (0, 3)
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == [{"covariance": "ou_covariance"}.get(s, s) for s in cfg.checks.suites]
    # every kind and mode runs every suite; the oracle needs an x-independent generator
    constant = label.endswith(("constant", "gamma0"))
    assert cfg.checks.suites == (SUITES_ALL if constant else SUITES_ALL[:5])
    # one entry rule and one report rule
    for check in report["checks"]:
        for e in check["entries"]:
            assert e["passed"] == (e["statistic"] <= e["threshold"])
        assert check["passed"] == all(e["passed"] for e in check["entries"])


@pytest.mark.parametrize("doc,suite,need", [
    # the one need left, in every mode
    *((measurement_doc(B_X, mode), "lindblad_oracle", "x-independent generator")
      for mode in ("linear", "nonlinear", "density_linear", "sme")),
    (dephasing_doc(), "lindblad_oracle", "x-independent generator"),
])
def test_unrunnable_suite_is_a_config_error(tmp_path, capsys, doc, suite, need):
    doc["checks"] = {"suites": ["consistency", suite]}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert len(exc.value.errors) == 1
    assert exc.value.errors[0].startswith(f"checks.suites: {suite} needs")
    assert need in exc.value.errors[0]
    out = tmp_path / "out"
    for command in ("simulate", "verify"):
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert f"config error: checks.suites: {suite} needs" in capsys.readouterr().err
    assert not out.exists()


def test_empty_suite_list_is_a_config_error():
    doc = dephasing_doc()
    doc["checks"] = {"suites": []}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.errors == ["checks.suites: expected at least one suite"]


def test_mode_rule_at_parse_time():
    # every mode runs on every kind: density_linear integrates any B(x)
    cfg = parse_config(measurement_doc(B_X, "density_linear"))
    assert (cfg.model.kind, cfg.mode, cfg.initial.shape) == ("measurement", "density_linear", (2, 2))
    # an unknown mode is still reported when the model block fails too
    doc = dephasing_doc(mode="sideways")
    doc["model"]["kind"] = "other"
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert any(e.startswith("model.kind") for e in exc.value.errors)
    assert "run.mode: unknown mode 'sideways'" in "\n".join(exc.value.errors)


_DROP = object()


def _edited(path, value, doc=None):
    """``doc`` (default: a dephasing config) with the field at dotted ``path`` set, or dropped."""
    doc = dephasing_doc() if doc is None else doc
    *parents, key = path.split(".")
    block = doc
    for p in parents:
        block = block.setdefault(p, {})
    if value is _DROP:
        del block[key]
    else:
        block[key] = value
    return doc


CONFIG_EDITS = [
    (42, ["$: expected JSON text or an object, got int"]),
    ("[]", ["$: top level must be an object"]),
    (_edited("model", _DROP), ["model: missing required block"]),
    (_edited("model.K", _DROP), ["model.K: missing required operator"]),
    (_edited("model.K", []), ['model.K: expected an object with a "coefficients" list']),
    (_edited("model.K.coefficients", []),
     ["model.K.coefficients: expected a non-empty list of matrices"]),
    (_edited("model.H.coefficients", [Z2] * 4),
     ["model.H.coefficients: polynomial degree is capped at 2, got degree 3"]),
    (_edited("model.H.coefficients", [Z2, Z2]),
     ["model.H.coefficients: this kind takes a single constant H"]),
    (_edited("model.K.coefficients", [SZ, SZ]),
     ["model.K.coefficients: this kind takes a single constant K"]),
    (_edited("grid.dt", "x"), ["grid.dt: expected a finite number, got 'x'"]),
    (_edited("run.n_traj", 2.5), ["run.n_traj: expected an integer, got 2.5"]),
    (_edited("run.level", 5), ["run.level: refinement level is capped at 4, got 5"]),
    (_edited("run.output_times", []), ["run.output_times: expected a non-empty list of times"]),
    (_edited("run.output_times", [0.0, "a"]),
     ["run.output_times[1]: expected a finite number, got 'a'"]),
    # every block knows its fields; the model's depend on its kind
    (_edited("model.K", {"coefficients": [SZ]}, measurement_doc([SM], "linear")),
     ["model.K: unknown field"]),
    (_edited("model.B", {"coefficients": [SZ]}), ["model.B: unknown field"]),
    (_edited("model.kind", "other", _edited("model.B", {"coefficients": [SZ]})),
     ["model.kind: expected \"random_hamiltonian\" or \"measurement\", got 'other'"]),
    (_edited("grid.steps", 10), ["grid.steps: unknown field"]),
    (_edited("run.levle", 2), ["run.levle: unknown field"]),
    (_edited("checks.c_dsic", 1e-3), ["checks.c_dsic: unknown field"]),
    (_edited("output.directroy", "out"), ["output.directroy: unknown field"]),
    (_edited("run.initial", []), ["run.initial: expected a non-empty list of [re, im] pairs"]),
    (_edited("run.observables", []),
     ["run.observables: expected an object mapping names to matrices"]),
    (_edited("run.observables", {"1x": SX}),
     ["run.observables.1x: name must be a valid identifier (it becomes a CSV column)"]),
    (_edited("run.observables", {"sx": "x"}),
     ["run.observables.sx: expected a non-empty list of rows"]),
    (_edited("run.observables", {"sx": SX[:1]}),
     ["run.observables.sx: expected a 2x2 matrix, got 1 rows"]),
    (_edited("run.observables", {"sx": [SX[0], SX[1][:1]]}),
     ["run.observables.sx[1]: expected a row of 2 entries"]),
    (_edited("run.observables", {"sx": [SX[0], [[1.0, 0.0], "x"]]}),
     ["run.observables.sx[1][1]: expected a [re, im] pair of finite numbers, got 'x'"]),
    # a vector or matrix with a bad entry is dropped, so no gate reports a derived error
    (_edited("run.initial", [[1.0], [0.0, 0.0]]),
     ["run.initial[0]: expected a [re, im] pair of finite numbers, got [1.0]"]),
    (_edited("run.observables", {"sx": [SX[0], ["x", [0.0, 0.0]]]}),
     ["run.observables.sx[1][0]: expected a [re, im] pair of finite numbers, got 'x'"]),
    (_edited("model.K.coefficients", [[SX[0], ["x", [0.0, 0.0]]]]),
     ["model.K.coefficients[0][1][0]: expected a [re, im] pair of finite numbers, got 'x'"]),
    (_edited("checks", []), ["checks: expected an object"]),
    (_edited("checks.suites", "all"), ["checks.suites: expected a list of suite names"]),
    (_edited("checks.c_disc", 0), ["checks.c_disc: must be > 0, got 0.0"]),
    (_edited("checks.c_fd", -1), ["checks.c_fd: must be > 0, got -1.0"]),
    (_edited("checks.perturb_drift_epsilon", 1e-3),
     ["checks.perturb_drift_epsilon: unknown field"]),
    # one rule for both lists of times
    (_edited("checks.girsanov_times", "x"),
     ["checks.girsanov_times: expected a non-empty list of times"]),
    (_edited("checks.girsanov_times", []),
     ["checks.girsanov_times: expected a non-empty list of times"]),
    (_edited("checks.girsanov_times", [0.25, "a"]),
     ["checks.girsanov_times[1]: expected a finite number, got 'a'"]),
    (_edited("output", []), ["output: expected an object"]),
    (_edited("output.directory", ""), ["output.directory: expected a non-empty string, got ''"]),
]


@pytest.mark.parametrize("source, errors", CONFIG_EDITS, ids=[e[0] for _, e in CONFIG_EDITS])
def test_config_edits_map_to_their_errors(source, errors):
    with pytest.raises(ConfigError) as exc:
        parse_config(source)
    assert exc.value.errors == errors


def test_default_initial_is_the_first_basis_state():
    # a state vector in the vector modes, its projector in the density modes
    for mode, want in (("nonlinear", [1.0, 0.0]), ("sme", [[1.0, 0.0], [0.0, 0.0]])):
        cfg = parse_config(_edited("run.initial", _DROP, measurement_doc(B_X, mode)))
        assert np.array_equal(cfg.initial, np.array(want, dtype=complex))
        assert parse_config(cfg.canonical_text()).canonical_text() == cfg.canonical_text()


def test_density_initial_must_be_a_density_matrix():
    for initial, what in (([[[0.5, 0.0], [3.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], "hermitian"),
                          ([[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]], "negative")):
        doc = measurement_doc([SM], "sme", initial=initial)
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith("run.initial: density matrix")
        assert what in exc.value.errors[0]


def test_gamma_zero_enables_oracle_suite():
    cfg = parse_config(json.dumps(dephasing_doc(gamma=0.0)))
    assert "lindblad_oracle" in cfg.checks.suites


def test_error_paths_are_dotted():
    doc = dephasing_doc()
    doc["model"]["H"]["coefficients"] = [[[[0.0, 0.0], [1.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 0.0]]]]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any("model.H.coefficients[0]" in e for e in exc.value.errors)


def test_errors_are_collected_not_first_only():
    doc = dephasing_doc()
    doc["grid"]["dt"] = -1.0
    doc["run"]["n_traj"] = 1
    doc["run"]["mode"] = "sideways"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    joined = "\n".join(exc.value.errors)
    assert "grid.dt" in joined
    assert "run.n_traj" in joined
    assert "run.mode" in joined


def test_stability_gate_at_parse_time():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(dephasing_doc(gamma=200.0)))
    assert any("grid.dt" in e and "unstable" in e for e in exc.value.errors)


def test_malformed_json_and_unknown_fields():
    with pytest.raises(ConfigError) as exc:
        parse_config("{not json")
    assert "invalid JSON at line" in exc.value.errors[0]
    doc = dephasing_doc()
    doc["extra"] = {}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any("unknown block" in e for e in exc.value.errors)
    doc = dephasing_doc()
    doc["checks"] = {"suites": ["martingale", "nonsense"]}
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(json.dumps(doc))


def test_output_times_must_hit_nodes():
    doc = dephasing_doc(output_times=[0.0, 0.205, 0.5])
    with pytest.raises(ConfigError, match="output_times"):
        parse_config(json.dumps(doc))
    cfg = parse_config(json.dumps(dephasing_doc(output_times=[0.0, 0.25, 0.5])))
    assert cfg.output_nodes == (0, 25, 50)


def test_girsanov_times_must_hit_nodes(tmp_path, capsys):
    doc = dephasing_doc()
    doc["checks"] = {"girsanov_times": [0.25, 0.333]}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert [e.split(":")[0] for e in exc.value.errors] == ["checks.girsanov_times[1]"]
    # verify stops at parse time, before any suite runs
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 1
    assert "checks.girsanov_times[1]" in capsys.readouterr().err
    doc["checks"] = {"girsanov_times": [0.25, 0.5]}
    assert parse_config(json.dumps(doc)).checks.girsanov_times == (0.25, 0.5)
    # the default times are nodes for an odd step count too
    cfg = parse_config(json.dumps(dephasing_doc(T=0.31)))
    assert cfg.checks.girsanov_times == (15 * 0.01, 31 * 0.01)


def write_config(tmp_path, doc, name="exp.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return str(p)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]
    return header, rows


def test_simulate_writes_series_and_summary(tmp_path):
    doc = dephasing_doc(n_traj=3000, dt=5e-3, T=1.0,
                        observables={"sx": SX}, output_times=[0.0, 0.5, 1.0])
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "series.csv")
    assert header[:3] == ["t", "mean_weight", "mean_weight_stderr"]
    assert "eta_re_0_1" in header and "eta_im_1_1" in header
    assert header[-2:] == ["sx_mean", "sx_stderr"]
    assert len(rows) == 3
    final = rows[-1]
    assert final["t"] == 1.0
    want = 0.5 * dephasing_coherence(1.0, 1.0)
    assert abs(final["eta_re_0_1"] - want) < 0.05
    assert abs(final["sx_mean"] - 2 * want) < 0.1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "simulate"
    assert summary["n_used"] == 3000
    assert summary["divergence_count"] == 0
    assert summary["grid"] == {"dt": 0.005, "T": 1.0, "level": 0}
    assert summary["output_times"] == [0.0, 0.5, 1.0]
    assert "seconds" in summary["timings"]


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, dephasing_doc(n_traj=128))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(b)]) == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    # a seed override must change the numbers
    c = tmp_path / "c"
    assert main(["simulate", "--config", cfg_path, "--seed", "8", "--out", str(c)]) == 0
    assert (a / "series.csv").read_bytes() != (c / "series.csv").read_bytes()
    # the scheduling hint is accepted and changes nothing
    d = tmp_path / "d"
    assert main(["simulate", "--config", cfg_path, "--threads", "4", "--out", str(d)]) == 0
    assert (a / "series.csv").read_bytes() == (d / "series.csv").read_bytes()


def test_threads_do_not_change_output_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    # 4200 trajectories and paths: two chunks of at most 4096 each
    doc = dephasing_doc(n_traj=4200, dt=1e-2, T=0.1)
    doc["checks"] = {"suites": ["martingale", "covariance", "mean_equation", "girsanov"],
                     "covariance_n_paths": 4200}
    cfg_path = write_config(tmp_path, doc)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        flag = ["--threads", threads]
        assert main(["simulate", "--config", cfg_path, "--out", str(out), *flag]) == 0
        assert main(["verify", "--config", cfg_path, "--out", str(out), *flag]) == 0
        assert main(["covariance", "--gamma", "1.0", "--tmax", "1.0", "--dt", "0.01",
                     "--n-paths", "4200", "--seed", "3", "--out", str(out), *flag]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report.pop("timings")
        outputs.append(((out / "series.csv").read_bytes(), json.dumps(report),
                        (out / "covariance.csv").read_bytes()))
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1]


def test_threads_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("started a process")

    monkeypatch.setattr("os.fork", no_fork)
    cfg_path = write_config(tmp_path, dephasing_doc(n_traj=8, T=0.1))
    for threads in ("0", "-1"):
        for argv in (["simulate", "--config", cfg_path], ["verify", "--config", cfg_path],
                     ["covariance", "--gamma", "1.0", "--tmax", "1.0", "--dt", "0.01"]):
            assert main([*argv, "--threads", threads, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert f"error: --threads must be >= 1, got {threads}" in err
    assert not (tmp_path / "o").exists()


def test_simulate_zero_model_columns_constant(tmp_path):
    doc = dephasing_doc(n_traj=16)
    doc["model"]["K"]["coefficients"] = [Z2]
    doc["model"]["gamma"] = 0.0
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    _, rows = read_csv(out / "series.csv")
    for row in rows:
        # the norm of the stored initial vector carries its own rounding
        assert abs(row["mean_weight"] - 1.0) < 1e-12
        assert row["mean_weight"] == rows[0]["mean_weight"]
        assert row["eta_re_0_1"] == rows[0]["eta_re_0_1"]
        assert row["mean_weight_stderr"] == 0.0


def test_verify_stock_battery_passes(tmp_path):
    doc = dephasing_doc(n_traj=400, dt=1e-2, T=0.5)
    doc["checks"] = {"covariance_n_paths": 4000}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["consistency", "martingale", "ou_covariance", "mean_equation", "girsanov"]
    for c in report["checks"]:
        assert c["passed"] is True
        assert all(e["statistic"] <= e["threshold"] for e in c["entries"])


def test_verify_report_fields(tmp_path):
    doc = dephasing_doc(n_traj=16, dt=1e-2, T=0.2)
    doc["checks"] = {"suites": ["consistency"]}
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report) == ["checks", "command", "master_seed", "passed", "timings",
                              "versions"]
    (check,) = report["checks"]
    assert sorted(check) == ["details", "entries", "name", "passed"]
    assert check["name"] == "consistency" and check["passed"] is True
    assert check["details"] == {"points": 21, "x_range": [-5.0, 5.0]}
    assert len(check["entries"]) == 21
    for e in check["entries"]:
        assert sorted(e) == ["label", "passed", "statistic", "threshold", "time"]
        assert type(e["label"]) is str and type(e["passed"]) is bool
        assert all(type(e[k]) is float for k in ("statistic", "threshold", "time"))


def test_verify_reports_the_planted_defect(tmp_path, monkeypatch):
    eps = 1e-3
    drift_operator = model.drift_operator
    monkeypatch.setattr(model, "drift_operator",
                        lambda m, x: drift_operator(m, x) + eps * np.eye(m.dim))
    doc = dephasing_doc(n_traj=16, dt=1e-2, T=0.2)
    doc["checks"] = {"suites": ["consistency"]}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    con = report["checks"][0]
    assert con["name"] == "consistency"
    assert not con["passed"]
    worst = max(e["statistic"] for e in con["entries"])
    assert worst == pytest.approx(2 * eps, rel=1e-6)


def test_verify_gamma_zero_runs_the_oracle(tmp_path):
    doc = dephasing_doc(n_traj=300, dt=1e-2, T=0.5, gamma=0.0)
    doc["checks"] = {"covariance_n_paths": 2000}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "lindblad_oracle" in names


def test_verify_regates_a_rebuilt_config(tmp_path, monkeypatch, capsys):
    # gamma = 1 makes H(x) depend on x, so the Lindblad oracle cannot serve this run
    cfg = parse_config(json.dumps(dephasing_doc(n_traj=16, T=0.2)))
    rebuilt = dataclasses.replace(
        cfg, checks=dataclasses.replace(cfg.checks, suites=("lindblad_oracle",)))
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match="lindblad_oracle needs an x-independent"):
        cmd_verify(rebuilt, str(out))
    unknown = dataclasses.replace(cfg, checks=dataclasses.replace(cfg.checks, suites=("nope",)))
    with pytest.raises(ValidationError, match="unknown suite 'nope'"):
        cmd_verify(unknown, str(out))
    monkeypatch.setattr(cli, "parse_config", lambda text: rebuilt)
    cfg_path = write_config(tmp_path, dephasing_doc(n_traj=16, T=0.2))
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 1
    assert "lindblad_oracle needs" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_a_rebuilt_config_without_girsanov_times(tmp_path, monkeypatch):
    # the field's own rule and message, before any ensemble runs
    cfg = parse_config(json.dumps(dephasing_doc(n_traj=16, T=0.2)))
    rebuilt = dataclasses.replace(cfg, checks=dataclasses.replace(
        cfg.checks, girsanov_times=(), suites=("girsanov",)))

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran")

    monkeypatch.setattr(cli, "run_ensemble", no_ensemble)
    monkeypatch.setattr(ensemble, "run_ensemble", no_ensemble)
    out = tmp_path / "out"
    with pytest.raises(ValidationError,
                       match=r"^checks\.girsanov_times: expected a non-empty list of times$"):
        cmd_verify(rebuilt, str(out))
    assert not out.exists()


def test_covariance_subcommand(tmp_path):
    out = tmp_path / "cov"
    code = main(["covariance", "--gamma", "1.0", "--tmax", "1.0", "--dt", "0.01",
                 "--n-paths", "2000", "--seed", "3", "--out", str(out)])
    assert code == 0
    text = (out / "covariance.csv").read_text().strip().split("\n")
    assert text[0] == "t,s,analytic,empirical,stderr"
    assert len(text) - 1 == 15  # 5 points -> 15 ordered pairs with t >= s
    rows = [dict(zip(text[0].split(","), map(float, line.split(",")))) for line in text[1:]]
    eq = [r for r in rows if r["t"] == 1.0 and r["s"] == 1.0]
    assert eq and abs(eq[0]["analytic"] - 0.43233235838169365) < 1e-12
    for r in rows:
        assert abs(r["empirical"] - r["analytic"]) < 5 * max(r["stderr"], 1e-3)
    # gamma = 0 reduces to Brownian motion: cov = min(t, s)
    out2 = tmp_path / "cov0"
    assert main(["covariance", "--gamma", "0.0", "--tmax", "1.0", "--dt", "0.01",
                 "--n-paths", "1000", "--seed", "3", "--out", str(out2)]) == 0
    rows0 = (out2 / "covariance.csv").read_text().strip().split("\n")[1:]
    for line in rows0:
        t, s, ana = map(float, line.split(",")[:3])
        assert ana == pytest.approx(min(t, s), abs=1e-15)


def test_covariance_rejects_bad_gamma(tmp_path, capsys):
    base = ["covariance", "--tmax", "1.0", "--dt", "0.01", "--n-paths", "100",
            "--out", str(tmp_path / "o")]
    assert main([*base, "--gamma", "100"]) == 1          # gamma * dt = 1
    assert "unstable" in capsys.readouterr().err
    for gamma in ("-1", "nan", "inf"):
        assert main([*base, "--gamma", gamma]) == 1
        assert "gamma must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_covariance_rejects_empty_tables(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled paths")

    monkeypatch.setattr("ousse.noise.sample_ou_values", no_sampling)
    base = ["covariance", "--gamma", "1.0", "--tmax", "1.0", "--dt", "0.01",
            "--n-paths", "100", "--out", str(tmp_path / "o")]
    for points in ("0", "-2"):
        assert main([*base, "--points", points]) == 1
        assert "at least one time node" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_covariance_rejects_one_path(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled paths")

    monkeypatch.setattr("ousse.noise.sample_ou_values", no_sampling)
    for n_paths in ("1", "0"):
        assert main(["covariance", "--gamma", "1.0", "--tmax", "1.0", "--dt", "0.01",
                     "--n-paths", n_paths, "--out", str(tmp_path / "o")]) == 1
        assert "need at least 2 paths" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_covariance_rejects_bad_grid(tmp_path, capsys):
    base = ["covariance", "--gamma", "1.0", "--n-paths", "100", "--out", str(tmp_path / "o")]
    assert main([*base, "--tmax", "1.0", "--dt", "0"]) == 1
    assert "dt" in capsys.readouterr().err
    assert main([*base, "--tmax", "1.0", "--dt", "0.3"]) == 1
    assert "multiple of dt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_error_codes(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {}}")
    assert main(["simulate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert main(["--help"]) == 0
    assert main(["simulate"]) == 1         # missing --config
    assert main(["unknowncmd"]) == 1


def test_console_script_entry_point(tmp_path):
    cfg_path = write_config(tmp_path, dephasing_doc(n_traj=8, T=0.1))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "ousse.cli", "simulate",
                          "--config", cfg_path, "--out", str(out)],
                         capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "series.csv").exists()
    assert "wrote" in proc.stdout
