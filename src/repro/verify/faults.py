"""Engine fault injection: prove failures degrade to recomputation.

The engine promises that its three accelerators — the on-disk result
cache, the process pool and the compiled-spec cache — can *never* change
a result, only its cost.  This module attacks each one and checks the
promise:

* every cache entry is corrupted (garbage bytes), truncated, or replaced
  with a schema-mismatched payload between a warm-up sweep and a re-read;
* pool workers are killed (``os._exit``) the moment they pick up a chunk,
  via the :data:`~repro.runtime.faultpoints.POOL_WORKER_START` fault point;
* the solver's compiled-spec cache is poisoned: every entry is replaced
  with a compiled chain whose structure does not match the hash it is
  stored under, which the cache must detect (its per-lookup hash check)
  and recompile from the spec.

After each attack the engine must return results **bitwise identical** to
a cold, serial, cache-less reference run.  :func:`fault_drill` runs the
whole battery and is registered as the ``engine-fault-degradation``
invariant.
"""

from __future__ import annotations

import contextlib
import logging
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.spec import CompiledChain, ModelSpec, param
from ..engine.cache import DiskCache
from ..engine.sweep import SweepEngine, point_payload_valid
from ..models.configurations import Configuration
from ..models.parameters import Parameters
from ..runtime import faultpoints
from .registry import VerifyContext, Violation, invariant

__all__ = [
    "CACHE_CORRUPTION_MODES",
    "corrupt_cache_dir",
    "fault_drill",
    "kill_worker_action",
    "poison_spec_cache",
]

#: The on-disk damage patterns the drill (and the regression tests) plant.
CACHE_CORRUPTION_MODES = ("garbage", "truncate", "schema", "non-dict")


def corrupt_cache_dir(directory, mode: str = "garbage") -> int:
    """Damage every ``*.json`` entry under ``directory``; returns a count.

    Modes: ``"garbage"`` (unparseable bytes), ``"truncate"`` (cut the
    JSON mid-token), ``"schema"`` (valid dict, wrong layout), and
    ``"non-dict"`` (valid JSON that is not an object).
    """
    if mode not in CACHE_CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; use one of "
            f"{CACHE_CORRUPTION_MODES}"
        )
    damaged = 0
    for entry in Path(directory).glob("*.json"):
        if mode == "garbage":
            entry.write_bytes(b"\x00\xffnot json at all\xfe")
        elif mode == "truncate":
            text = entry.read_text(encoding="utf-8")
            entry.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
        elif mode == "schema":
            entry.write_text('{"mttdl_hours": "NaN-ish string"}', encoding="utf-8")
        else:  # non-dict
            entry.write_text("[1, 2, 3]", encoding="utf-8")
        damaged += 1
    return damaged


def kill_worker_action(exit_code: int = 17) -> Callable[[], None]:
    """An action for :data:`~repro.runtime.faultpoints.POOL_WORKER_START`
    that kills the worker process outright.

    ``os._exit`` skips every cleanup handler — exactly how the OOM killer
    or a SIGKILL would take a worker down — so the pool sees a broken
    process, not a tidy exception.
    """

    def kill() -> None:
        os._exit(exit_code)

    return kill


def poison_spec_cache(cache) -> int:
    """Replace every entry of a ``CompiledSpecCache`` with a compiled
    chain whose structure does not match the hash it is stored under.

    A correct cache must notice the mismatch on the next lookup (its
    per-lookup ``entry.spec_hash == key`` check), count a
    ``structure_rebuilds`` and recompile from the spec; a cache that
    blindly trusts its key would solve a two-state decoy chain instead of
    the real model.  Returns the number of entries poisoned.
    """
    decoy: CompiledChain = ModelSpec(
        name="verify-poison-decoy",
        states=("up", "down"),
        edges=(("up", "down", param("x")),),
        initial_state="up",
    ).compile()
    poisoned = 0
    for key in list(cache._chains):
        cache._chains[key] = decoy
        poisoned += 1
    return poisoned


# --------------------------------------------------------------------- #
# the drill
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def _expected_rejections():
    """Mute the cache's rejection warnings while the drill deliberately
    plants garbage — the rejections are the point, not an incident."""
    logger = logging.getLogger("repro.engine.cache")
    previous = logger.level
    logger.setLevel(logging.CRITICAL)
    try:
        yield
    finally:
        logger.setLevel(previous)


def _mttdls(engine: SweepEngine, pairs, method: str = "analytic") -> List[float]:
    return [r.mttdl_hours for r in engine.evaluate_many(pairs, method=method)]


def fault_drill(
    configs: Sequence[Configuration],
    params: Optional[Parameters] = None,
    *,
    jobs: int = 4,
) -> Tuple[int, List[Violation]]:
    """Run the full fault battery; returns ``(scenarios, violations)``.

    The reference is a cold serial cache-less run; every scenario must
    reproduce it bitwise.
    """
    if params is None:
        params = Parameters.baseline()
    pairs = [(config, params) for config in configs]
    reference = _mttdls(SweepEngine(params, jobs=1), pairs)

    violations: List[Violation] = []
    checked = 0

    def compare(scenario: str, observed: List[float], extra: Dict) -> None:
        nonlocal checked
        checked += 1
        if observed == reference:
            return
        mismatches = {
            config.key: {"expected": want, "observed": got}
            for (config, _), want, got in zip(pairs, reference, observed)
            if want != got
        }
        violations.append(
            Violation(
                invariant="engine-fault-degradation",
                message=f"{scenario}: results differ from cold serial run",
                details={**extra, "mismatches": mismatches},
            )
        )

    # -- disk-cache corruption: warm the cache, damage it, re-read. ----- #
    with _expected_rejections():
        for mode in CACHE_CORRUPTION_MODES:
            tmp = tempfile.mkdtemp(prefix="repro-verify-cache-")
            try:
                cache = DiskCache(tmp, validator=point_payload_valid)
                engine = SweepEngine(params, jobs=1, cache=cache)
                engine.evaluate_many(pairs)  # warm
                corrupt_cache_dir(tmp, mode)
                compare(
                    f"cache corruption ({mode})",
                    _mttdls(engine, pairs),
                    {"mode": mode, "rejected_entries": cache.rejected},
                )
                # The damaged entries must have been overwritten with good
                # values: a third pass must be pure hits and still agree.
                hits_before = cache.hits
                compare(
                    f"cache overwrite after corruption ({mode})",
                    _mttdls(engine, pairs),
                    {"mode": mode, "hits": cache.hits - hits_before},
                )
            finally:
                shutil.rmtree(tmp, ignore_errors=True)

    # -- killed pool workers ------------------------------------------- #
    with faultpoints.injected(
        faultpoints.POOL_WORKER_START, kill_worker_action()
    ):
        observed = _mttdls(SweepEngine(params, jobs=jobs), pairs)
    compare("killed pool workers", observed, {"jobs": jobs})

    # -- poisoned compiled-spec cache ---------------------------------- #
    engine = SweepEngine(params, jobs=1)
    engine.evaluate_many(pairs)  # populate the spec cache
    poisoned = poison_spec_cache(engine._ctx.specs)
    compare(
        "poisoned compiled-spec cache",
        _mttdls(engine, pairs),
        {
            "entries_poisoned": poisoned,
            "rebuilds_detected": engine._ctx.specs.structure_rebuilds,
        },
    )
    if engine._ctx.specs.structure_rebuilds < poisoned:
        violations.append(
            Violation(
                invariant="engine-fault-degradation",
                message=(
                    "poisoned compiled-spec cache: mismatched entries were "
                    "not detected as structure rebuilds"
                ),
                details={
                    "entries_poisoned": poisoned,
                    "rebuilds_detected": engine._ctx.specs.structure_rebuilds,
                },
            )
        )

    return checked, violations


@invariant(
    "engine-fault-degradation",
    "Corrupted/truncated/schema-mismatched cache entries, killed pool "
    "workers and poisoned compiled-spec caches all degrade to correct "
    "recomputation: results stay bitwise identical to a cold serial run.",
    tags=("engine", "faults", "smoke"),
)
def check_engine_fault_degradation(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    return fault_drill(ctx.configs, ctx.base, jobs=max(2, ctx.engine.jobs))
