"""Experiment configuration: JSON schema, validation, canonical form.

A document has five blocks: ``model`` (operator polynomials as nested
arrays of [re, im] pairs), ``grid`` (dt and horizon T), ``run`` (mode,
trajectory count, master seed, output times, observables, initial
state), ``checks`` (which verification suites run, and the covariance
suite's path count) and ``output`` (target directory).  A block or
field outside the schema is an error.  Parsing collects every problem it can find, not just the
first, and reports each with the dotted path of the offending field.

The canonical form materializes all defaults, sorts keys, and writes
numbers with Python's shortest round-trip repr, so parse -> serialize
-> parse is a fixed point and reruns are byte-identical.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dynamics import DENSITY_MODES, _check_mode
from .ensemble import _SUITES, _suite_problems
from .errors import ConfigError, ValidationError
from .linalg import _require_hermitian, _unit_state
from .model import (MAX_DEGREE, ModelSpec, OperatorPolynomial, make_measurement_model,
                    make_random_hamiltonian)
from .noise import TimeGrid, _check_gamma

__all__ = ["ExperimentConfig", "CheckConfig", "parse_config", "KNOWN_SUITES"]

# every suite, in the default battery's order (the battery's table is ensemble._SUITES)
KNOWN_SUITES = tuple(_SUITES)

_MAX_LEVEL = 4


class _Ctx:
    def __init__(self):
        self.errors = []

    def err(self, path, msg):
        self.errors.append(f"{path}: {msg}")


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _gate(ctx, path, build, *args):
    """``build(*args)``, or None with its ValidationError recorded at ``path``."""
    try:
        return build(*args)
    except ValidationError as e:
        ctx.err(path, str(e))
        return None


def _unknown_fields(ctx, block, name, extra=()):
    known = _FIELDS[name] + extra
    for k in block:
        if k not in known:
            ctx.err(f"{name}.{k}", "unknown field")


def _get_times(ctx, rblock, grid):
    """The non-empty list ``run.output_times``, each a node of ``grid``, or ().

    An entry off the grid is an error at its index.  Without a grid (its
    error is already recorded) only the entries' types are checked.
    """
    if "output_times" not in rblock:
        return ()
    at = "run.output_times"
    times = rblock["output_times"]
    if not isinstance(times, list) or not times:
        ctx.err(at, "expected a non-empty list of times")
        return ()
    out = []
    for i, t in enumerate(times):
        if not _is_num(t) or not math.isfinite(t):
            ctx.err(f"{at}[{i}]", f"expected a finite number, got {t!r}")
        elif grid is not None and _gate(ctx, f"{at}[{i}]", grid.node, t) is not None:
            out.append(float(t))
    return tuple(out)


def _get_num(ctx, block, key, path, default=None, required=False):
    if key not in block:
        if required:
            ctx.err(f"{path}.{key}", "missing required field")
        return default
    v = block[key]
    if not _is_num(v) or not math.isfinite(v):
        ctx.err(f"{path}.{key}", f"expected a finite number, got {v!r}")
        return default
    return float(v)


def _get_int(ctx, block, key, path, default=None, required=False, minimum=None):
    if key not in block:
        if required:
            ctx.err(f"{path}.{key}", "missing required field")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, int):
        ctx.err(f"{path}.{key}", f"expected an integer, got {v!r}")
        return default
    if minimum is not None and v < minimum:
        ctx.err(f"{path}.{key}", f"must be >= {minimum}, got {v}")
        return default
    return v


def _parse_complex_entry(ctx, v, path):
    """``v`` as a complex number, or None with its error recorded.

    A None drops its vector or matrix, so no gate reports a derived error on a stand-in.
    """
    if (not isinstance(v, list) or len(v) != 2
            or not all(_is_num(u) and math.isfinite(u) for u in v)):
        ctx.err(path, f"expected a [re, im] pair of finite numbers, got {v!r}")
        return None
    return complex(v[0], v[1])


def _parse_matrix(ctx, node, path, dim=None):
    if not isinstance(node, list) or not node:
        ctx.err(path, "expected a non-empty list of rows")
        return None
    d = len(node)
    if dim is not None and d != dim:
        ctx.err(path, f"expected a {dim}x{dim} matrix, got {d} rows")
        return None
    entries = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != d:
            ctx.err(f"{path}[{i}]", f"expected a row of {d} entries")
            return None
        entries += [_parse_complex_entry(ctx, v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
    return None if None in entries else np.array(entries).reshape(d, d)


def _parse_vector(ctx, node, path):
    if not isinstance(node, list) or not node:
        ctx.err(path, "expected a non-empty list of [re, im] pairs")
        return None
    entries = [_parse_complex_entry(ctx, v, f"{path}[{i}]") for i, v in enumerate(node)]
    return None if None in entries else np.array(entries)


def _parse_poly(ctx, block, key, path, dim, hermitian):
    node = block.get(key)
    if node is None:
        ctx.err(f"{path}.{key}", "missing required operator")
        return None
    if not isinstance(node, dict) or "coefficients" not in node:
        ctx.err(f"{path}.{key}", 'expected an object with a "coefficients" list')
        return None
    coeffs = node["coefficients"]
    if not isinstance(coeffs, list) or not coeffs:
        ctx.err(f"{path}.{key}.coefficients", "expected a non-empty list of matrices")
        return None
    if len(coeffs) > MAX_DEGREE + 1:
        ctx.err(f"{path}.{key}.coefficients",
                f"polynomial degree is capped at {MAX_DEGREE}, got degree {len(coeffs) - 1}")
        return None
    mats = []
    for j, c in enumerate(coeffs):
        at = f"{path}.{key}.coefficients[{j}]"
        m = _parse_matrix(ctx, c, at, dim)
        if m is None or (hermitian and _gate(ctx, at, _require_hermitian, m, "matrix") is None):
            return None
        mats.append(m)
    return mats


@dataclass(frozen=True)
class CheckConfig:
    suites: tuple
    covariance_n_paths: int = 10000


# the fields each block may hold; a model also holds the two operators of its kind
_FIELDS = {
    "model": ("kind", "dim", "gamma"),
    "grid": ("dt", "T"),
    "run": ("mode", "n_traj", "master_seed", "level", "output_times", "observables", "initial"),
    "checks": tuple(f.name for f in fields(CheckConfig)),
    "output": ("directory",),
}
_OPERATORS = {"random_hamiltonian": ("H", "K"), "measurement": ("H", "B")}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment; build it with ``parse_config``, whose gates the commands rely on."""

    model: ModelSpec
    grid: TimeGrid
    mode: str
    n_traj: int
    master_seed: int
    level: int
    output_nodes: tuple          # base-grid node indices, or () for the default stride
    observables: tuple           # ((name, matrix), ...) in canonical (sorted) order
    initial: np.ndarray
    checks: CheckConfig
    out_dir: str

    def _document(self) -> dict:
        """The fully-populated document of this config; source of the canonical text."""
        return {
            "model": _model_doc(self.model),
            "grid": {"dt": self.grid.dt, "T": self.grid.horizon},
            "run": {
                "mode": self.mode,
                "n_traj": self.n_traj,
                "master_seed": self.master_seed,
                "level": self.level,
                "initial": (_matrix_doc(self.initial) if self.initial.ndim == 2
                            else _vector_doc(self.initial)),
                "observables": {name: _matrix_doc(o) for name, o in self.observables},
                **({"output_times": [k * self.grid.dt for k in self.output_nodes]}
                   if self.output_nodes else {}),
            },
            "checks": asdict(self.checks),
            "output": {"directory": self.out_dir},
        }

    def canonical_text(self) -> str:
        return json.dumps(self._document(), sort_keys=True, indent=2) + "\n"

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """This config with ``master_seed = seed``, through the gates of ``parse_config``."""
        doc = self._document()
        doc["run"]["master_seed"] = int(seed)
        return parse_config(doc)


def _c2l(z: complex):
    return [float(z.real), float(z.imag)]


def _matrix_doc(m: np.ndarray):
    return [[_c2l(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


def _vector_doc(v: np.ndarray):
    return [_c2l(z) for z in v]


def parse_config(source) -> ExperimentConfig:
    """Validate a JSON document (text or already-loaded dict).

    Raises ConfigError carrying every problem found; each message is
    prefixed with the dotted path of the offending field.
    """
    if isinstance(source, (bytes, str)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise ConfigError([f"$: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"])
    elif isinstance(source, dict):
        doc = json.loads(json.dumps(source))
    else:
        raise ConfigError([f"$: expected JSON text or an object, got {type(source).__name__}"])
    if not isinstance(doc, dict):
        raise ConfigError(["$: top level must be an object"])

    ctx = _Ctx()
    for k in doc:
        if k not in _FIELDS:
            ctx.err(k, "unknown block")

    # -- model
    model = None
    kind = None
    dim = None
    mblock = doc.get("model")
    if not isinstance(mblock, dict):
        ctx.err("model", "missing required block")
    else:
        kind = mblock.get("kind")
        if kind not in _OPERATORS:
            ctx.err("model.kind", f'expected "random_hamiltonian" or "measurement", got {kind!r}')
            kind = None
        else:
            _unknown_fields(ctx, mblock, "model", _OPERATORS[kind])
        gamma = _get_num(ctx, mblock, "gamma", "model", required=True)
        if gamma is not None:
            gamma = _gate(ctx, "model.gamma", _check_gamma, gamma)
        dim = _get_int(ctx, mblock, "dim", "model", required=True, minimum=1)
        if kind == "random_hamiltonian":
            h = _parse_poly(ctx, mblock, "H", "model", dim, hermitian=True)
            k = _parse_poly(ctx, mblock, "K", "model", dim, hermitian=True)
            if h is not None and len(h) != 1:
                ctx.err("model.H.coefficients", "this kind takes a single constant H")
                h = None
            if k is not None and len(k) != 1:
                ctx.err("model.K.coefficients", "this kind takes a single constant K")
                k = None
            if h is not None and k is not None and gamma is not None:
                model = _gate(ctx, "model", make_random_hamiltonian, h[0], k[0], gamma)
        elif kind == "measurement":
            h = _parse_poly(ctx, mblock, "H", "model", dim, hermitian=True)
            b = _parse_poly(ctx, mblock, "B", "model", dim, hermitian=False)
            if h is not None and b is not None and gamma is not None:
                model = _gate(ctx, "model", make_measurement_model, OperatorPolynomial(tuple(h)),
                              OperatorPolynomial(tuple(b)), gamma)

    # -- grid
    grid = None
    gblock = doc.get("grid")
    if not isinstance(gblock, dict):
        ctx.err("grid", "missing required block")
    else:
        _unknown_fields(ctx, gblock, "grid")
        dt = _get_num(ctx, gblock, "dt", "grid", required=True)
        horizon = _get_num(ctx, gblock, "T", "grid", required=True)
        if dt is not None and horizon is not None:
            # the rule fails on dt when dt is not positive, and on T otherwise
            grid = _gate(ctx, "grid.T" if dt > 0 else "grid.dt", TimeGrid.spanning, dt, horizon)
    if model is not None and grid is not None:
        _gate(ctx, "grid.dt", _check_gamma, model.gamma, grid.dt)

    # -- run
    rblock = doc.get("run")
    mode = "linear"
    n_traj = None
    master_seed = None
    level = 0
    output_nodes = ()
    observables = []
    initial = None
    if not isinstance(rblock, dict):
        ctx.err("run", "missing required block")
        rblock = {}
    else:
        _unknown_fields(ctx, rblock, "run")
        mode = rblock.get("mode", "linear")
        density = mode in DENSITY_MODES
        mode = _gate(ctx, "run.mode", _check_mode, mode) or "linear"
        n_traj = _get_int(ctx, rblock, "n_traj", "run", required=True, minimum=2)
        master_seed = _get_int(ctx, rblock, "master_seed", "run", required=True, minimum=0)
        level = _get_int(ctx, rblock, "level", "run", default=0, minimum=0)
        if level is not None and level > _MAX_LEVEL:
            ctx.err("run.level", f"refinement level is capped at {_MAX_LEVEL}, got {level}")
            level = 0
        output_nodes = tuple(sorted({grid.node(t) for t in _get_times(ctx, rblock, grid)}))
        if "observables" in rblock:
            obs = rblock["observables"]
            if not isinstance(obs, dict):
                ctx.err("run.observables", "expected an object mapping names to matrices")
            else:
                for name in sorted(obs):
                    if not name.isidentifier():
                        ctx.err(f"run.observables.{name}",
                                "name must be a valid identifier (it becomes a CSV column)")
                        continue
                    at = f"run.observables.{name}"
                    o = _parse_matrix(ctx, obs[name], at, dim)
                    if o is not None and _gate(ctx, at, _require_hermitian, o, "matrix") is not None:
                        observables.append((name, o))
        if "initial" in rblock and dim is not None:
            # the state gate checks the dimension
            parse = _parse_matrix if density else _parse_vector
            initial = parse(ctx, rblock["initial"], "run.initial")
            if initial is not None:
                initial = _gate(ctx, "run.initial", _unit_state, initial, density, dim,
                                "density matrix" if density else "initial", True)
        if initial is None and dim is not None and not ctx.errors:
            initial = np.zeros(dim, dtype=complex)
            initial[0] = 1.0
            if density:
                initial = np.outer(initial, initial.conj())

    # -- checks
    cblock = doc.get("checks", {})
    if not isinstance(cblock, dict):
        ctx.err("checks", "expected an object")
        cblock = {}
    _unknown_fields(ctx, cblock, "checks")
    suites = cblock.get("suites")
    if suites is not None:
        if (not isinstance(suites, list)
                or not all(isinstance(s, str) for s in suites)):
            ctx.err("checks.suites", "expected a list of suite names")
            suites = None
        else:
            if not suites:
                ctx.err("checks.suites", "expected at least one suite")
            for problem in _suite_problems(suites, model):
                ctx.err("checks.suites", problem)
    cov_n = _get_int(ctx, cblock, "covariance_n_paths", "checks",
                     default=CheckConfig.covariance_n_paths, minimum=2)

    # -- output
    oblock = doc.get("output", {})
    out_dir = "."
    if not isinstance(oblock, dict):
        ctx.err("output", "expected an object")
    else:
        _unknown_fields(ctx, oblock, "output")
        out_dir = oblock.get("directory", ".")
        if not isinstance(out_dir, str) or not out_dir:
            ctx.err("output.directory", f"expected a non-empty string, got {out_dir!r}")
            out_dir = "."

    if ctx.errors:
        raise ConfigError(ctx.errors)

    if suites is None:
        suites = [s for s in KNOWN_SUITES if not _suite_problems((s,), model)]
    checks = CheckConfig(tuple(suites), cov_n)

    return ExperimentConfig(
        model=model, grid=grid, mode=mode, n_traj=n_traj, master_seed=master_seed,
        level=level, output_nodes=output_nodes, observables=tuple(observables),
        initial=initial, checks=checks, out_dir=out_dir,
    )


def _model_doc(m: ModelSpec) -> dict:
    doc = {"kind": m.kind, "dim": m.dim, "gamma": m.gamma}
    if m.kind == "random_hamiltonian":
        # store the physical pair; the OU coupling term of H is implied
        doc["H"] = {"coefficients": [_matrix_doc(m.h_poly.coefficients[0])]}
        doc["K"] = {"coefficients": [_matrix_doc(m.k)]}
    else:
        doc["H"] = {"coefficients": [_matrix_doc(c) for c in m.h_poly.coefficients]}
        doc["B"] = {"coefficients": [_matrix_doc(c) for c in m.b_poly.coefficients]}
    return doc
