"""Chunking and pool-gating logic of the runtime fan-out layer."""

import os

from repro.runtime import (
    MIN_TASKS_FOR_POOL,
    default_jobs,
    run_chunks,
    should_pool,
    split_chunks,
)


def _double_chunk(chunk):
    return [2 * x for x in chunk]


class TestSplitChunks:
    def test_even_split(self):
        assert split_chunks(list(range(8)), 4) == [
            [0, 1],
            [2, 3],
            [4, 5],
            [6, 7],
        ]

    def test_remainder_goes_to_leading_chunks(self):
        assert split_chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_more_parts_than_items(self):
        assert split_chunks([1, 2], 5) == [[1], [2]]

    def test_order_preserved(self):
        items = list(range(23))
        chunks = split_chunks(items, 4)
        assert [x for c in chunks for x in c] == items

    def test_empty(self):
        assert split_chunks([], 3) == [[]]


class TestShouldPool:
    def test_one_job_never_pools(self):
        assert not should_pool(1, 1000)

    def test_tiny_batch_never_pools(self):
        assert not should_pool(8, MIN_TASKS_FOR_POOL - 1)

    def test_single_cpu_never_pools(self, usable_cpus):
        usable_cpus(1)
        assert not should_pool(8, 1000)

    def test_pools_with_work_and_cpus(self, usable_cpus):
        usable_cpus(4)
        assert should_pool(2, MIN_TASKS_FOR_POOL)

    def test_default_jobs_is_at_least_one(self):
        assert default_jobs() >= 1


class TestDefaultJobs:
    def test_follows_cpu_affinity_not_host_size(self, monkeypatch, usable_cpus):
        """A process pinned to one CPU (``taskset -c 0``) of a larger host
        must not fork workers onto that one CPU."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        usable_cpus(1)
        assert default_jobs() == 1
        assert not should_pool(2, 100)
        usable_cpus(3)
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_jobs() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() == 1


class TestRunChunks:
    def test_serial_fallback_preserves_order(self):
        chunks = split_chunks(list(range(10)), 3)
        outputs = run_chunks(_double_chunk, chunks, jobs=1)
        assert [x for out in outputs for x in out] == [2 * x for x in range(10)]

    def test_pooled_run_matches_serial(self, usable_cpus):
        """Force the real process pool (the gate would decline it on a
        single-CPU host) and check it returns the serial answer in order."""
        usable_cpus(4)
        chunks = split_chunks(list(range(16)), 4)
        serial = run_chunks(_double_chunk, chunks, jobs=1)
        pooled = run_chunks(_double_chunk, chunks, jobs=4)
        assert pooled == serial

    def test_crashed_chunks_recomputed_in_process(self, usable_cpus):
        """Workers killed on startup (fork-inherited faultpoint) must not
        change results: every crashed chunk is recomputed in-process."""
        usable_cpus(4)
        from repro.runtime import faultpoints

        chunks = split_chunks(list(range(16)), 4)
        serial = run_chunks(_double_chunk, chunks, jobs=1)

        def die():
            os._exit(23)

        with faultpoints.injected(faultpoints.POOL_WORKER_START, die):
            recovered = run_chunks(_double_chunk, chunks, jobs=4)
        assert recovered == serial
