"""Import boundary: scipy loads only where ``matrix_exp`` runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import ousse
from ousse import matrix_exp
from ousse.cli import main

from conftest import random_operator
from test_config_cli import dephasing_doc, write_config

SRC = str(Path(ousse.__file__).resolve().parents[1])


def _fresh_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_ousse_loads_no_scipy():
    out = _fresh_python(
        "import sys, ousse, ousse.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert out.strip() == "[]"


def test_simulate_loads_no_scipy_linalg(tmp_path):
    cfg_path = write_config(tmp_path, dephasing_doc(n_traj=8, T=0.1))
    out = _fresh_python(
        "import sys\n"
        "from ousse.cli import main\n"
        f"assert main(['simulate', '--config', {cfg_path!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    assert out.splitlines()[-1] == "[]"


def test_matrix_exp_is_scipy_expm_bitwise():
    rng = np.random.default_rng(41)
    for d in (1, 2, 3, 5, 8):
        a = random_operator(rng, d)
        assert np.array_equal(matrix_exp(a), scipy.linalg.expm(a))


def test_summary_records_the_scipy_version(tmp_path):
    cfg_path = write_config(tmp_path, dephasing_doc(n_traj=8, T=0.1))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    versions = json.loads((out / "summary.json").read_text())["versions"]
    assert versions["scipy"] == scipy.__version__
    assert versions["numpy"] == np.__version__
