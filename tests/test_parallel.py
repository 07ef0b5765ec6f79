import multiprocessing
import os
import time

import pytest

from ousse import ValidationError
from ousse import parallel
from ousse.parallel import map_chunks, worker_count


def test_worker_count_caps_and_default(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    assert worker_count(None, 7) == 3      # default: every usable CPU
    assert worker_count(None, 2) == 2      # ... but no more than the chunks
    assert worker_count(8, 7) == 3         # an explicit count is capped the same way
    assert worker_count(2, 1) == 1
    assert worker_count(1, 7) == 1
    assert worker_count(None, 0) == 1      # an empty run still gets one in-process worker


@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
def test_worker_count_rejects_non_positive_or_non_integer(bad):
    with pytest.raises(ValidationError, match="workers"):
        worker_count(bad, 4)


def test_usable_cpus_follows_the_affinity_mask():
    assert parallel.usable_cpus() == len(os.sched_getaffinity(0))


def test_map_chunks_keeps_chunk_order_and_reaps_its_workers():
    bounds = [(lo, lo + 3) for lo in range(0, 30, 3)]
    # a closure is fine: workers are forked, not sent the function
    offset = 1000
    with map_chunks(lambda lo, hi: (lo + offset, hi, os.getpid()), bounds, 2) as results:
        out = list(results)
    assert [(lo, hi) for lo, hi, _ in out] == [(lo + offset, hi) for lo, hi in bounds]
    assert os.getpid() not in {pid for _, _, pid in out}
    assert multiprocessing.active_children() == []


def test_map_chunks_in_process_for_one_worker_or_one_chunk(monkeypatch):
    def no_fork():
        raise AssertionError("started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    for bounds, workers, expected in (([(0, 2), (2, 5)], 1, [2, 3]), ([(0, 4)], 2, [4]),
                                      ([], 2, [])):
        with map_chunks(lambda lo, hi: hi - lo, bounds, workers) as results:
            assert list(results) == expected


def test_map_chunks_raises_the_first_failing_chunk_and_reaps_its_workers():
    def fn(lo, hi):
        if lo >= 4:
            raise ValueError(f"chunk at {lo}")
        return lo

    seen = []
    with pytest.raises(ValueError, match="chunk at 4"):
        with map_chunks(fn, [(lo, lo + 2) for lo in range(0, 12, 2)], 2) as results:
            seen.extend(results)
    assert seen == [0, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_leaving_map_chunks_early_skips_the_chunks_not_started(workers):
    started = multiprocessing.get_context("fork").Value("i", 0)

    def fn(lo, hi):
        with started.get_lock():
            started.value += 1
        time.sleep(0.02)
        return lo

    bounds = [(lo, lo + 1) for lo in range(40)]
    with map_chunks(fn, bounds, workers) as results:
        for lo in results:
            if lo == 1:
                break
    assert started.value < len(bounds) // 2
    assert multiprocessing.active_children() == []
