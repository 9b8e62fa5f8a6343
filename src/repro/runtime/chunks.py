"""Chunked fan-out over a :class:`~repro.runtime.topology.ProcessTopology`.

Work is split into one contiguous chunk per worker so each process gets
the largest possible batch for its compiled specs and batched solves.
Because every execution path is bitwise-deterministic (see
:mod:`repro.engine.solver`), chunk boundaries and worker scheduling cannot
affect results — only wall-clock time.

That determinism is also the safety net: if a worker dies mid-batch (a
worker killed by the OOM killer, a signal, a crashed interpreter),
:func:`run_chunks` logs the failure and recomputes the crashed chunks in
the calling process, producing bitwise-identical results — a dead worker
can cost time, never correctness.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, List, Sequence, Tuple, TypeVar

from . import faultpoints
from .topology import ProcessTopology, WorkerCrashed

__all__ = ["MIN_TASKS_FOR_POOL", "default_jobs", "should_pool", "split_chunks", "run_chunks"]

logger = logging.getLogger("repro.runtime.chunks")

T = TypeVar("T")
R = TypeVar("R")

#: Below this many tasks the pool's startup cost outweighs any overlap.
MIN_TASKS_FOR_POOL = 8


def default_jobs() -> int:
    """The default worker count: the CPUs this process may run on (at
    least 1).

    ``os.sched_getaffinity`` honours ``taskset`` and cgroup cpusets;
    ``os.cpu_count()`` counts every CPU of the host and is only the
    fallback where affinity is not exposed (macOS, Windows).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus)


def should_pool(jobs: int, total_tasks: int) -> bool:
    """Whether a process pool can actually help for this much work.

    Pooling loses when there is nothing to overlap with: a single
    requested job, too few tasks to amortize process startup, or a
    single usable CPU (forked workers would just time-slice one core while
    paying fork/pickle overhead and losing the caller's warm memos).
    Because every execution path is bitwise-deterministic, this choice
    affects wall-clock time only, never results.
    """
    return (
        jobs > 1
        and total_tasks >= MIN_TASKS_FOR_POOL
        and default_jobs() > 1
    )


def split_chunks(items: Sequence[T], parts: int) -> List[List[T]]:
    """Split ``items`` into at most ``parts`` contiguous, near-even chunks."""
    parts = max(1, min(parts, len(items)))
    size, remainder = divmod(len(items), parts)
    chunks: List[List[T]] = []
    start = 0
    for i in range(parts):
        stop = start + size + (1 if i < remainder else 0)
        chunks.append(list(items[start:stop]))
        start = stop
    return chunks


def _call_chunk(state: None, payload: Tuple[Callable[[List[T]], R], List[T]]) -> R:
    """Worker entry point: unwrap (worker, chunk) and run it.

    The :data:`~repro.runtime.faultpoints.POOL_WORKER_START` fault point
    fires here — inside the worker process, never on the in-process
    fallback path — so injected worker deaths exercise exactly the
    production recovery in :func:`run_chunks`.
    """
    worker, chunk = payload
    faultpoints.fire(faultpoints.POOL_WORKER_START)
    return worker(chunk)


def run_chunks(
    worker: Callable[[List[T]], R],
    chunks: List[List[T]],
    jobs: int,
) -> List[R]:
    """Apply ``worker`` to every chunk, in order, possibly in parallel.

    Falls back to in-process execution when a pool cannot help (see
    :func:`should_pool`) or when everything fits in one chunk.  ``worker``
    must be a module-level callable (picklable) for the pooled path.

    Chunks whose worker process died are recomputed in-process.  All
    paths are bitwise deterministic, so the recovery changes wall-clock
    time only.  Worker spans ship back automatically when tracing is
    active — the topology adopts them under the caller's current span.
    """
    total = sum(len(c) for c in chunks)
    if len(chunks) <= 1 or not should_pool(jobs, total):
        return [worker(chunk) for chunk in chunks]
    with ProcessTopology(
        _call_chunk, size=min(jobs, len(chunks)), name="repro-pool"
    ) as topology:
        futures = [
            topology.submit((worker, chunk), shard=i) for i, chunk in enumerate(chunks)
        ]
        results: List[R] = []
        crashed = 0
        for future, chunk in zip(futures, chunks):
            try:
                results.append(future.result())
            except WorkerCrashed:
                crashed += 1
                results.append(worker(chunk))
    if crashed:
        logger.warning(
            "%d pool worker(s) died mid-batch; recomputed %d chunk(s) in-process",
            crashed,
            crashed,
        )
    return results
