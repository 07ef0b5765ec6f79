"""Output checkers, one per workload.

Each checker takes what ousse wrote (CSV text, a report document, or
trajectory arrays) and returns a list of problems; an empty list means
the output passed.  References are computed here with numpy and scipy
from the model definitions, or are properties the method must have
(unit trace, unit norm, Cauchy-Schwarz, the OU recursion).  Nothing is
compared with a stored copy of earlier output.

Statistical comparisons use ``Z`` standard errors plus, where the
Euler scheme has a bias, ``C_DISC * dt``; with ``Z = 5`` a correct
program fails a check about once in a million comparisons.
"""

import math

import numpy as np
import scipy.linalg

Z = 5.0          # standard errors allowed in a statistical comparison
C_DISC = 5.0     # discretisation allowance, in units of dt
EXACT = 1e-12    # tolerance of identities that hold to rounding


def parse_csv(text):
    """Header and float rows of a CSV written by ousse; raises ValueError."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {n} has {len(cells)} cells, header has {len(header)}")
        rows.append([float(c) for c in cells])
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _columns(text, expected_header, n_rows, problems):
    try:
        header, rows = parse_csv(text)
    except (ValueError, IndexError) as e:
        problems.append(f"unreadable CSV: {e}")
        return None
    if header != expected_header:
        problems.append(f"header {header} != expected {expected_header}")
        return None
    if rows.shape[0] != n_rows:
        problems.append(f"{rows.shape[0]} rows, expected {n_rows}")
        return None
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite values")
        return None
    return {name: rows[:, j] for j, name in enumerate(header)}


def _close(problems, label, got, want, tol):
    got, want = np.broadcast_arrays(np.ravel(got), np.ravel(want))
    tol = np.broadcast_to(np.ravel(tol), got.shape)
    bad = np.flatnonzero(~(np.abs(got - want) <= tol))
    if bad.size:
        j = bad[0]
        problems.append(f"{label}: {bad.size} values off, first at row {j}: "
                        f"{got[j]!r} vs {want[j]!r} (tolerance {tol[j]:.3g})")


def default_nodes(n_steps):
    """ousse's documented default output nodes: every node up to 200, then a stride."""
    stride = max(1, math.ceil(n_steps / 200))
    nodes = list(range(0, n_steps + 1, stride))
    if nodes[-1] != n_steps:
        nodes.append(n_steps)
    return np.array(nodes)


def _check_stderr_range(problems, label, se, value_range, n):
    """Standard errors lie in [0, the most a variable of this range can have]."""
    # Popoviciu: a variable confined to an interval of this width has
    # variance at most width^2 / 4
    ceiling = 0.5 * value_range / math.sqrt(n - 1) * (1 + 1e-9) + EXACT
    bad = np.flatnonzero((se < 0.0) | (se > ceiling))
    if bad.size:
        problems.append(f"{label}: {bad.size} outside [0, {ceiling:.3g}], first {se[bad[0]]!r}")


# ---------------------------------------------------------------------------
# ou-covariance

def discrete_ou_covariance(k, l, gamma, dt):
    """Exact covariance of X[k], X[l] under X[j+1] = a X[j] + dW[j], a = 1 - gamma dt."""
    a = 1.0 - gamma * dt
    lo = min(k, l)
    if a == 1.0:
        return dt * lo
    return a ** abs(k - l) * dt * (1.0 - a ** (2 * lo)) / (1.0 - a * a)


def continuous_ou_covariance(t, s, gamma):
    lo = min(t, s)
    if gamma == 0.0:
        return lo
    return math.exp(-gamma * (t + s)) * math.expm1(2.0 * gamma * lo) / (2.0 * gamma)


def check_ou_covariance(text, gamma, dt, nodes, n_paths):
    """``covariance.csv``: rows (t, s) for every node pair t >= s, in order."""
    problems = []
    pairs = [(a, b) for a in range(len(nodes)) for b in range(a + 1)]
    cols = _columns(text, ["t", "s", "analytic", "empirical", "stderr"], len(pairs), problems)
    if cols is None:
        return problems
    ka = np.array([nodes[a] for a, _ in pairs])
    kb = np.array([nodes[b] for _, b in pairs])
    _close(problems, "t", cols["t"], ka * dt, EXACT)
    _close(problems, "s", cols["s"], kb * dt, EXACT)
    cont = np.array([continuous_ou_covariance(k * dt, l * dt, gamma) for k, l in zip(ka, kb)])
    _close(problems, "analytic vs closed form", cols["analytic"], cont, EXACT)
    disc = np.array([discrete_ou_covariance(k, l, gamma, dt) for k, l in zip(ka, kb)])
    # Gaussian pair: Var(X_k X_l) = C_kk C_ll + C_kl^2
    var_k = np.array([discrete_ou_covariance(k, k, gamma, dt) for k in ka])
    var_l = np.array([discrete_ou_covariance(l, l, gamma, dt) for l in kb])
    se_exact = np.sqrt((var_k * var_l + disc * disc) / n_paths)
    _close(problems, "stderr vs Gaussian fourth moment", cols["stderr"], se_exact, 0.1 * se_exact)
    _close(problems, "empirical vs discrete recursion", cols["empirical"], disc,
           Z * cols["stderr"])
    emp = dict(zip(zip(ka.tolist(), kb.tolist()), cols["empirical"]))
    for (k, l), c in emp.items():
        if k != l and c * c > emp[(k, k)] * emp[(l, l)] * (1 + 1e-12):
            problems.append(f"Cauchy-Schwarz broken at ({k}, {l}): {c!r}")
    return problems


# ---------------------------------------------------------------------------
# dephasing-verify

def series_header(dim, observable_names):
    cols = ["t", "mean_weight", "mean_weight_stderr"]
    for i in range(dim):
        for j in range(i, dim):
            cols += [f"eta_re_{i}_{j}", f"eta_im_{i}_{j}"]
    for name in observable_names:
        cols += [f"{name}_mean", f"{name}_stderr"]
    return cols


def dephasing_sx(t, gamma):
    """<sigma_x>(t) of |+> under K = sigma_z dephasing by OU noise of rate gamma."""
    return np.exp(np.expm1(-2.0 * gamma * t) / gamma)


def check_dephasing_series(text, gamma, dt, n_steps, n_traj):
    """``series.csv`` of the nonlinear dephasing run with one ``sx`` observable."""
    problems = []
    nodes = default_nodes(n_steps)
    cols = _columns(text, series_header(2, ["sx"]), nodes.size, problems)
    if cols is None:
        return problems
    t = nodes * dt
    _close(problems, "t", cols["t"], t, EXACT)
    # H = 0 and diagonal K: the normalised step leaves the populations alone
    for name, want in (("mean_weight", 1.0), ("eta_re_0_0", 0.5), ("eta_re_1_1", 0.5),
                       ("eta_im_0_0", 0.0), ("eta_im_1_1", 0.0)):
        _close(problems, name, cols[name], want, EXACT)
    _close(problems, "sx_mean vs 2 Re eta_0_1", cols["sx_mean"], 2.0 * cols["eta_re_0_1"], EXACT)
    se = cols["sx_stderr"]
    _check_stderr_range(problems, "sx_stderr", se, 2.0, n_traj)
    mean = dephasing_sx(t, gamma)
    # sx = cos(2 theta) with theta Gaussian: E[sx^2] = (1 + mean^4) / 2
    se_exact = np.sqrt(((1.0 + mean**4) / 2.0 - mean**2) / n_traj)
    wide = se_exact > 1e-4
    _close(problems, "sx_stderr vs exact variance", se[wide], se_exact[wide], 0.25 * se_exact[wide])
    _close(problems, "sx_mean vs closed form", cols["sx_mean"], mean, Z * se + C_DISC * dt)
    return problems


def check_verify_report(doc, exit_code, suites, n_nodes):
    """``report.json``: exit 0, every suite present and passed, verdicts consistent."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    names = [c.get("name") for c in doc.get("checks", [])]
    if names != list(suites):
        problems.append(f"suites {names} != expected {list(suites)}")
    if doc.get("passed") is not True:
        problems.append("report says not passed")
    for c in doc.get("checks", []):
        name, entries = c.get("name"), c.get("entries", [])
        if c.get("passed") is not True:
            problems.append(f"suite {name} failed")
        for e in entries:
            if e["passed"] != (e["statistic"] <= e["threshold"]):
                problems.append(f"suite {name}: verdict disagrees with statistic at t={e['time']}")
                break
        if name == "martingale" and len(entries) != n_nodes:
            problems.append(f"martingale has {len(entries)} entries, expected {n_nodes}")
    return problems


# ---------------------------------------------------------------------------
# ladder-sme

def lindblad_superoperator(h, b):
    """Column-stacking form of rho -> -i[H,rho] - 1/2 {B^dag B, rho} + B rho B^dag."""
    d = h.shape[0]
    eye = np.eye(d)
    bb = b.conj().T @ b
    return (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
            - 0.5 * (np.kron(eye, bb) + np.kron(bb.T, eye))
            + np.kron(b.conj(), b))


def check_ladder_series(text, h, b, rho0, observables, dt, n_steps, n_traj):
    """``series.csv`` of the sme run; ``observables`` is [(name, matrix)] in CSV order."""
    problems = []
    d = h.shape[0]
    nodes = default_nodes(n_steps)
    cols = _columns(text, series_header(d, [n for n, _ in observables]), nodes.size, problems)
    if cols is None:
        return problems
    t = nodes * dt
    _close(problems, "t", cols["t"], t, EXACT)
    _close(problems, "mean_weight", cols["mean_weight"], 1.0, EXACT)
    trace = sum(cols[f"eta_re_{i}_{i}"] for i in range(d))
    _close(problems, "trace of eta", trace, 1.0, EXACT)
    for i in range(d):
        _close(problems, f"eta_im_{i}_{i}", cols[f"eta_im_{i}_{i}"], 0.0, EXACT)
    lv = lindblad_superoperator(h, b)
    v0 = rho0.ravel(order="F")
    rho_ref = [(scipy.linalg.expm(lv * tj) @ v0).reshape(d, d, order="F") for tj in t]
    for name, o in observables:
        want = np.array([np.trace(o @ r).real for r in rho_ref])
        se = cols[f"{name}_stderr"]
        ev = np.linalg.eigvalsh(o)
        _check_stderr_range(problems, f"{name}_stderr", se, ev[-1] - ev[0], n_traj)
        _close(problems, f"{name}_mean vs expm(tL)", cols[f"{name}_mean"], want,
               Z * se + C_DISC * dt * float(np.max(np.abs(ev))))
    return problems


# ---------------------------------------------------------------------------
# qubit-records

def box_muller_increments(key, n_steps, dt):
    """Wiener increments of one stream: Philox keyed by ``key``, pinned Box-Muller."""
    u = np.random.Generator(np.random.Philox(key=key)).random(2 * n_steps)
    return np.sqrt(dt) * (np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2]))


def check_records(records, keys, gamma, dt, n_steps, b, sz, horizon):
    """``records`` is a list of (states, X, m_record) arrays, one per stream key."""
    problems = []
    sb = b + b.conj().T
    finals = []
    for i, ((states, x, m), key) in enumerate(zip(records, keys)):
        if states.shape != (n_steps + 1, 2) or x.shape != (n_steps + 1,) or m.shape != (n_steps,):
            problems.append(f"record {i}: shapes {states.shape}, {x.shape}, {m.shape}")
            continue
        norms = np.einsum("ki,ki->k", states, states.conj()).real
        _close(problems, f"record {i} norm", norms, 1.0, EXACT)
        m_own = np.einsum("ki,ij,kj->k", states[:-1].conj(), sb, states[:-1]).real
        _close(problems, f"record {i} m", m, m_own, EXACT)
        dw = box_muller_increments(key, n_steps, dt)
        x_own = (1.0 - gamma * dt) * x[:-1] + m * dt + dw
        _close(problems, f"record {i} X[0]", x[:1], 0.0, 0.0)
        _close(problems, f"record {i} X recursion", x[1:], x_own, EXACT)
        finals.append(float(np.real(np.vdot(states[-1], sz @ states[-1]))))
    if len(finals) == len(records) and len(finals) > 1:
        f = np.array(finals)
        se = f.std(ddof=1) / math.sqrt(f.size)
        want = 2.0 * math.exp(-horizon) - 1.0
        _close(problems, "mean <sigma_z>(T)", f.mean(), want, Z * se + C_DISC * dt)
    return problems
