import math
import multiprocessing

import numpy as np
import pytest

from ousse import noise, parallel
from ousse import (
    SeedPolicy,
    TimeGrid,
    ValidationError,
    gaussians,
    ou_covariance,
    ou_path,
    refine_increments,
    sample_ou_values,
    sample_wiener,
)
from ousse.noise import sample_wiener_rows


def test_time_grid():
    g = TimeGrid(0.25, 4)
    assert g.horizon == pytest.approx(1.0)
    assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    f = g.refined(2)
    assert f.n_steps == 16 and f.dt == pytest.approx(0.0625)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValidationError):
        TimeGrid(0.1, 0)


def test_time_grid_step_count_is_an_integer():
    # numpy integers pass as Python ints; a float or a bool names itself
    g = TimeGrid(0.01, np.int64(10))
    assert type(g.n_steps) is int and g == TimeGrid(0.01, 10)
    for n in (10.5, 10.0, True, np.bool_(True), "10"):
        with pytest.raises(ValidationError, match=rf"^n_steps must be an integer, got {n!r}$"):
            TimeGrid(0.01, n)


def test_time_grid_spanning_and_node():
    g = TimeGrid.spanning(0.01, 0.31)
    assert (g.dt, g.n_steps) == (0.01, 31)
    for dt, horizon in ((0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.3, 1.0), (0.01, 1e-12),
                        (0.01, math.inf), (math.inf, 1.0), (math.nan, 1.0), (1e-300, 1e300)):
        with pytest.raises(ValidationError, match="multiple of dt"):
            TimeGrid.spanning(dt, horizon)
    assert [g.node(t) for t in (0.0, 0.15, 0.31)] == [0, 15, 31]
    for t in (0.155, 0.32, -0.01, math.inf, math.nan):
        with pytest.raises(ValidationError, match="not a node"):
            g.node(t)


def test_seed_policy_streams_distinct():
    pol = SeedPolicy(99)
    keys = {pol.stream_key(i) for i in range(1000)}
    assert len(keys) == 1000
    assert SeedPolicy(99).stream_key(5) == pol.stream_key(5)
    assert SeedPolicy(100).stream_key(5) != pol.stream_key(5)
    assert pol.substream("a").stream_key(0) != pol.substream("b").stream_key(0)
    assert pol.substream("a").stream_key(0) == SeedPolicy(99).substream("a").stream_key(0)


def test_frozen_gaussian_draws():
    # pinned values: the documented uniform->normal transform must never drift
    got = gaussians(SeedPolicy(0).stream(0), 4)
    want = [-0.5290890634248809, 2.379431885313294, 0.8963615207908684, -0.6878045877007707]
    assert np.array_equal(got, np.array(want))
    sub = gaussians(SeedPolicy(0).substream("check").stream(0), 2)
    assert np.array_equal(sub, np.array([0.841935976740272, 0.4509360921343899]))


def test_gaussian_moments():
    z = gaussians(SeedPolicy(8).stream(0), 10**6)
    assert abs(z.mean()) < 3.0 / math.sqrt(10**6)
    assert abs(z.var() - 1.0) < 3.0 * math.sqrt(2.0 / 10**6)


def test_sample_wiener_statistics():
    grid = TimeGrid(1e-3, 10**6)
    dw = sample_wiener(grid, SeedPolicy(4).stream(0))
    assert dw.shape == (10**6,)
    assert abs(dw.mean()) < 3.0 * math.sqrt(1e-3 / 10**6)
    assert abs(dw.var() - 1e-3) < 3.0 * math.sqrt(2.0) * 1e-3 / 1e3


def test_sample_wiener_determinism():
    grid = TimeGrid(0.01, 50)
    a = sample_wiener(grid, SeedPolicy(1).stream(7))
    b = sample_wiener(grid, SeedPolicy(1).stream(7))
    assert np.array_equal(a, b)


def test_refinement_consistency():
    # refined increments sum back to the parent ones pairwise
    grid = TimeGrid(0.25, 8)
    pol = SeedPolicy(3)
    base = sample_wiener(grid, pol.stream(0))
    for level in (1, 2, 3):
        fine = sample_wiener(grid, pol.stream(0), level=level)
        assert fine.shape == (8 << level,)
        coarse = fine.reshape(8, -1).sum(axis=1)
        assert np.allclose(coarse, base, rtol=0.0, atol=1e-13)
    # the base draws are shared: level-1 pairs refine the same parent values
    one = sample_wiener(grid, pol.stream(0), level=1)
    assert np.allclose(one[0::2] + one[1::2], base, rtol=0.0, atol=1e-14)


def test_sample_wiener_follows_the_documented_draw_order():
    # base increments first, then one refine_increments per level, all from one stream
    grid = TimeGrid(0.25, 6)
    for level in (1, 2, 3):
        stream = SeedPolicy(16).stream(0)
        want = math.sqrt(grid.dt) * gaussians(stream, grid.n_steps)
        h = grid.dt
        for _ in range(level):
            want = refine_increments(want, h, stream)
            h *= 0.5
        got = sample_wiener(grid, SeedPolicy(16).stream(0), level)
        assert got.tobytes() == want.tobytes(), level


def test_refine_increments_moments():
    h = 0.1
    dw = sample_wiener(TimeGrid(h, 20000), SeedPolicy(17).stream(0))
    fine = refine_increments(dw, h, SeedPolicy(17).stream(1))
    assert fine.shape == (40000,)
    # each child has variance h/2 and the pair reconstructs the parent
    assert abs(fine.var() - h / 2) < 3.0 * math.sqrt(2.0 / 40000) * (h / 2)
    assert np.allclose(fine[0::2] + fine[1::2], dw, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sample_wiener_rows_match_per_stream_draws(level):
    # the chunk sampler must reproduce every stream's own draw bitwise,
    # whatever range or block of rows the stream falls in
    pol = SeedPolicy(14)
    cases = [(TimeGrid(0.01, n), lo, hi) for n in (1, 7, 40) for lo, hi in ((0, 1), (5, 70), (3, 3))]
    # 101 rows of 1000 steps span several blocks, and 101 is a multiple of none
    cases.append((TimeGrid(1e-3, 1000), 3, 104))
    for grid, lo, hi in cases:
        rows = sample_wiener_rows(pol, grid, lo, hi, level)
        assert rows.shape == (hi - lo, grid.n_steps << level)
        for i in range(lo, hi):
            want = sample_wiener(grid, pol.stream(i), level)
            assert rows[i - lo].tobytes() == want.tobytes(), (grid.n_steps, lo, hi, i)


def test_sample_wiener_rows_layout_and_range_gate():
    grid = TimeGrid(0.01, 7)
    rows = sample_wiener_rows(SeedPolicy(14), grid, 2, 9, level=1)
    # one step's increments across rows are contiguous
    assert rows.flags.f_contiguous and rows[:, 3].flags.c_contiguous
    for lo, hi in ((-1, 4), (5, 4)):
        with pytest.raises(ValidationError, match=rf"\[{lo}, {hi}\)"):
            sample_wiener_rows(SeedPolicy(14), grid, lo, hi)


def test_ou_path_basics():
    grid = TimeGrid(0.5, 2)
    dw = np.array([0.3, -0.1])
    x = ou_path(dw, 0.0, grid)
    assert np.allclose(x, [0.0, 0.3, 0.2])  # gamma=0: cumulative sums
    x1 = ou_path(dw, 1.0, grid)
    assert x1[0] == 0.0
    assert x1[1] == dw[0]  # first step from zero is the increment, any gamma
    assert x1[2] == (1.0 - 0.5) * x1[1] + dw[1]


def test_ou_path_replay_and_stability():
    grid = TimeGrid(1e-2, 100)
    dw = sample_wiener(grid, SeedPolicy(2).stream(0))
    assert np.array_equal(ou_path(dw, 0.7, grid), ou_path(dw, 0.7, grid))
    with pytest.raises(ValidationError, match="unstable|gamma"):
        ou_path(dw, 150.0, grid)
    with pytest.raises(ValidationError):
        ou_path(dw, -1.0, grid)
    with pytest.raises(ValidationError):
        ou_path(dw[:-1], 0.5, grid)


def test_ou_path_physical():
    grid = TimeGrid(1e-2, 100)
    dw = sample_wiener(grid, SeedPolicy(21).stream(0))
    zero_m = np.zeros(grid.n_steps)
    assert np.array_equal(ou_path(dw, 0.8, grid, zero_m), ou_path(dw, 0.8, grid))
    # pure drift: dW=0, gamma=0, m=c integrates to c*t
    c = 1.5
    x = ou_path(np.zeros(100), 0.0, grid, np.full(100, c))
    assert np.allclose(x, c * grid.times)
    # gamma=1, m=1, dW=0 approximates 1 - e^{-t}
    x = ou_path(np.zeros(1000), 1.0, TimeGrid(1e-3, 1000), np.ones(1000))
    assert abs(x[-1] - (1.0 - math.exp(-1.0))) < 5e-3


def _loop_ou(dw, gamma, dt):
    # the Euler OU update written out step by step, drift-free
    decay = 1.0 - gamma * dt
    x = np.empty(len(dw) + 1)
    x[0] = 0.0
    acc = 0.0
    for k in range(len(dw)):
        acc = decay * acc + dw[k]
        x[k + 1] = acc
    return x


def _loop_ou_physical(dw, m, gamma, dt):
    # the same update with the measurement drift m[k] dt added before dW[k]
    decay = 1.0 - gamma * dt
    x = np.empty(len(dw) + 1)
    x[0] = 0.0
    acc = 0.0
    for k in range(len(dw)):
        acc = decay * acc + m[k] * dt + dw[k]
        x[k + 1] = acc
    return x


def test_ou_paths_are_bitwise_the_written_out_update():
    # bytes compare the sign of zero too, which np.array_equal does not
    cases = [(TimeGrid(0.5, 3), 1.0, np.array([-5e-324, -0.0, -0.0]),
              np.array([0.0, -0.0, 0.0]))]
    for seed, gamma in ((40, 0.0), (41, 0.7), (42, 99.0)):
        grid = TimeGrid(1e-2, 200)
        pol = SeedPolicy(seed)
        cases.append((grid, gamma, sample_wiener(grid, pol.stream(0)),
                      sample_wiener(grid, pol.stream(1)) / grid.dt))
    for grid, gamma, dw, m in cases:
        x = ou_path(dw, gamma, grid)
        want = _loop_ou(dw, gamma, grid.dt)
        assert x.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(x), np.signbit(want))
        for drift in (m, np.zeros_like(m)):
            xp = ou_path(dw, gamma, grid, drift)
            want = _loop_ou_physical(dw, drift, gamma, grid.dt)
            assert xp.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(xp), np.signbit(want))
    # the drift-free path keeps its signed zeros; a path with a zero drift does not
    grid, gamma, dw, _ = cases[0]
    assert np.signbit(ou_path(dw, gamma, grid)).tolist() == [False, True, True, True]
    assert np.signbit(ou_path(dw, gamma, grid, np.zeros(3))).tolist() == [
        False, True, False, False]


def test_ou_variance_statistical():
    # Var(X_1) at gamma=1 vs (1-e^{-2})/2
    grid = TimeGrid(1e-3, 1000)
    vals = sample_ou_values(SeedPolicy(12), grid, 1.0, 10**5, [1000])[:, 0]
    target = (1.0 - math.exp(-2.0)) / 2.0
    se = (vals**2).std(ddof=1) / math.sqrt(10**5)
    assert abs(vals.var() - target) < 3.0 * se + 2e-3


def test_ou_covariance_values():
    assert ou_covariance(1.0, 1.0, 1.0) == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-15)
    assert ou_covariance(2.0, 1.0, 1.0) == pytest.approx((math.exp(-1) - math.exp(-3)) / 2,
                                                         abs=1e-15)
    assert ou_covariance(2.0, 1.0, 0.0) == 1.0
    assert ou_covariance(3.0, 7.0, 0.0) == 3.0
    assert ou_covariance(0.0, 5.0, 1.3) == 0.0
    with pytest.raises(ValidationError):
        ou_covariance(-1.0, 1.0, 1.0)


def test_ou_covariance_gamma_continuity():
    for t, s in [(1.0, 1.0), (2.0, 1.0), (0.3, 0.7)]:
        assert abs(ou_covariance(t, s, 1e-8) - ou_covariance(t, s, 0.0)) < 1e-6


def test_ou_covariance_array_broadcast():
    t = np.array([0.5, 1.0, 2.0])
    out = ou_covariance(t, 1.0, 0.7)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(ou_covariance(1.0, 1.0, 0.7))


def test_ou_cross_covariance_statistical():
    # sample Cov(X_1, X_{1/2}) across gammas, 3 se + O(dt) allowance
    grid = TimeGrid(1e-3, 1000)
    for gamma, seed in [(0.0, 31), (0.5, 32), (2.0, 33)]:
        vals = sample_ou_values(SeedPolicy(seed), grid, gamma, 10**5, [500, 1000])
        prod = vals[:, 0] * vals[:, 1]
        se = prod.std(ddof=1) / math.sqrt(10**5)
        assert abs(prod.mean() - ou_covariance(1.0, 0.5, gamma)) < 3.0 * se + 2e-3, gamma


def test_sample_ou_values_matches_scalar_path():
    # the batched sampler must replay the canonical per-path arithmetic bitwise
    grid = TimeGrid(0.01, 40)
    pol = SeedPolicy(6)
    vals = sample_ou_values(pol, grid, 0.9, 5, [10, 40])
    for i in range(5):
        x = ou_path(sample_wiener(grid, pol.stream(i)), 0.9, grid)
        assert vals[i, 0] == x[10] and vals[i, 1] == x[40]


def test_sample_ou_values_matches_scalar_path_across_blocks():
    grid = TimeGrid(1e-3, 1000)
    pol = SeedPolicy(15)
    nodes = [0, 1, 500, 1000]
    vals = sample_ou_values(pol, grid, 0.5, 101, nodes)
    for i in range(101):
        x = ou_path(sample_wiener(grid, pol.stream(i)), 0.5, grid)
        assert vals[i].tobytes() == x[nodes].tobytes(), i


def test_sample_ou_values_unsorted_and_repeated_nodes(monkeypatch):
    # columns follow at_indices as given, repeats included, in every chunk
    monkeypatch.setattr(noise, "_CHUNK_ROWS", 5)
    grid = TimeGrid(0.01, 40)
    pol = SeedPolicy(16)
    nodes = [40, 0, 7, 7, 40, 3]
    vals = sample_ou_values(pol, grid, 0.9, 23, nodes, workers=1)
    assert vals.shape == (23, len(nodes))
    for i in range(23):
        x = ou_path(sample_wiener(grid, pol.stream(i)), 0.9, grid)
        assert vals[i].tobytes() == x[nodes].tobytes(), i


def test_sample_ou_values_is_independent_of_workers_and_chunks(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    grid = TimeGrid(0.01, 40)
    runs = []
    for rows, w in ((50, 1), (50, 2), (4096, 1)):
        monkeypatch.setattr(noise, "_CHUNK_ROWS", rows)
        runs.append(sample_ou_values(SeedPolicy(8), grid, 0.9, 230, [0, 7, 40], workers=w))
    assert runs[0].shape == (230, 3)
    assert all(r.tobytes() == runs[0].tobytes() for r in runs[1:])
    assert multiprocessing.active_children() == []
    with pytest.raises(ValidationError, match="workers"):
        sample_ou_values(SeedPolicy(8), grid, 0.9, 230, [7], workers=0)
