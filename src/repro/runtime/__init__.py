"""repro.runtime — the one execution substrate under engine and serve.

Everything in this repo that fans work out — the sweep engine's process
pool, the Monte-Carlo replica runner, serve's solver/aux lanes and its
sharded multi-process topology — runs on the worker topologies defined
here.  One lifecycle (spawn / health / drain / crash-restart), one
submission interface (futures, with an asyncio bridge), per-worker state
owned by the worker, obs span adoption built in, and a shared
fault-injection registry (:mod:`repro.runtime.faultpoints`).

Layers:

* :mod:`~repro.runtime.topology` — :class:`InlineTopology`,
  :class:`ThreadTopology`, :class:`ProcessTopology` behind the common
  :class:`WorkerTopology` contract.
* :mod:`~repro.runtime.chunks` — the engine-style "split into contiguous
  chunks, one per worker" fan-out (:func:`run_chunks`) with in-process
  fallback and crash recovery, built on :class:`ProcessTopology`.
* :mod:`~repro.runtime.faultpoints` — named fault-injection points
  shared by every layer.
"""

from __future__ import annotations

from . import faultpoints
from .chunks import (
    MIN_TASKS_FOR_POOL,
    default_jobs,
    run_chunks,
    should_pool,
    split_chunks,
)
from .topology import (
    InlineTopology,
    ProcessTopology,
    ThreadTopology,
    WorkerCrashed,
    WorkerInfo,
    WorkerTopology,
)

__all__ = [
    "InlineTopology",
    "MIN_TASKS_FOR_POOL",
    "ProcessTopology",
    "ThreadTopology",
    "WorkerCrashed",
    "WorkerInfo",
    "WorkerTopology",
    "default_jobs",
    "faultpoints",
    "run_chunks",
    "should_pool",
    "split_chunks",
]
