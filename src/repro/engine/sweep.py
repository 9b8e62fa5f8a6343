"""The parallel sweep engine.

:class:`SweepEngine` evaluates grids of (configuration, parameters)
points with three accelerators — process-pool fan-out, compiled-spec
binding (plus the array-rates memo), and an optional on-disk result
cache — while
guaranteeing the exact floats of the pre-engine point-by-point code (see
:mod:`repro.engine.solver` for why every path is bitwise-deterministic).

Typical use::

    engine = SweepEngine(jobs=4, cache=True)
    result = engine.sweep(
        sensitivity_configurations(),
        Axis("drive_mttf_hours", (100_000, 300_000, 750_000)),
    )
    print(format_figure(result))
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..core.solvers import DEFAULT_SOLVE_OPTIONS, SolveOptions
from ..models.configurations import Configuration
from ..models.metrics import PAPER_TARGET_EVENTS_PER_PB_YEAR, ReliabilityResult
from ..models.parameters import Parameters
from ..models.space import SearchSpace
from .. import __version__, obs
from ..reporting import Series
from .cache import DEFAULT_CACHE_DIR, DiskCache
from .keys import point_key
from ..runtime import default_jobs, run_chunks, should_pool, split_chunks
from .result import EngineProvenance, SweepResult
from .solver import SolveContext, _worker_evaluate, evaluate_chunk, normalize_method

__all__ = ["Axis", "GridPoint", "SweepEngine", "point_payload_valid"]


def point_payload_valid(payload: dict) -> bool:
    """Schema check for cached sweep-point payloads.

    A stored entry must carry a finite numeric ``mttdl_hours``; anything
    else (an old layout, a truncated write that still parses, a foreign
    file) is treated as a cache miss and overwritten.
    """
    mttdl = payload.get("mttdl_hours")
    return isinstance(mttdl, (int, float)) and not isinstance(mttdl, bool)


@dataclass(frozen=True)
class Axis:
    """One swept dimension of a parameter grid.

    Attributes:
        name: the :class:`Parameters` field to vary (or a descriptive name
            when ``transform`` is given).
        values: the swept values.
        transform: optional ``(params, x) -> params`` mapping; defaults to
            replacing ``name`` with ``x`` cast to the field's type.
        label: axis label for figures (defaults to ``name``).
    """

    name: str
    values: Sequence[Any]
    transform: Optional[Callable[[Parameters, Any], Parameters]] = None
    label: Optional[str] = None

    @property
    def x_label(self) -> str:
        return self.label if self.label is not None else self.name

    def apply(self, params: Parameters, x: Any) -> Parameters:
        """The parameter set at swept value ``x``."""
        if self.transform is not None:
            return self.transform(params, x)
        current = getattr(params, self.name)
        value = type(current)(x) if isinstance(current, (int, float)) else x
        return params.replace(**{self.name: value})


@dataclass(frozen=True)
class GridPoint:
    """One evaluated point of a multi-axis grid."""

    config: Configuration
    coords: Tuple[Tuple[str, Any], ...]
    params: Parameters
    result: ReliabilityResult


class SweepEngine:
    """Evaluates configuration/parameter grids fast and reproducibly.

    Args:
        base_params: default baseline for :meth:`sweep` / :meth:`grid`
            (the paper's Section 6 baseline when omitted).
        jobs: process-pool width; ``None`` means the usable CPU count
            (:func:`~repro.runtime.default_jobs`).  The pool engages only
            when a batch is large enough to amortize process startup —
            results are identical either way.
        cache: on-disk result cache: ``False`` (off), ``True`` (default
            directory ``.repro_cache/``), a directory path, or a
            :class:`DiskCache` instance.
        method: default evaluation method ("analytic" or "closed_form";
            "exact"/"approx" accepted as aliases).
        options: default :class:`~repro.core.solvers.SolveOptions` for
            every evaluation — solver backend, array-rates derivation
            and iterative tolerances.  Non-default options participate
            in disk-cache keys, so switching backends never reads a
            stale entry.
    """

    #: Worker-side counter names folded into provenance snapshots.
    _WORKER_COUNTERS = ("spec_hits", "spec_misses", "array_hits", "array_misses")

    def __init__(
        self,
        base_params: Optional[Parameters] = None,
        *,
        jobs: Optional[int] = None,
        cache: Union[bool, str, Path, DiskCache] = False,
        method: str = "analytic",
        options: Optional[SolveOptions] = None,
    ) -> None:
        self._base = base_params if base_params is not None else Parameters.baseline()
        self._jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self._method = normalize_method(method)
        self._options = DEFAULT_SOLVE_OPTIONS if options is None else options
        if isinstance(cache, DiskCache):
            self._cache: Optional[DiskCache] = cache
        elif cache is True:
            self._cache = DiskCache(DEFAULT_CACHE_DIR, validator=point_payload_valid)
        elif cache:
            self._cache = DiskCache(cache, validator=point_payload_valid)
        else:
            self._cache = None
        self._ctx = SolveContext()
        # Engine-level metrics: batch tallies plus the counters shipped
        # back by pooled workers (folded into provenance snapshots).
        self.metrics = obs.Metrics()
        self._points_counter = self.metrics.counter("engine.points")
        self._batches_counter = self.metrics.counter("engine.batches")
        self._worker_stats = {
            name: self.metrics.counter(f"engine.pool.{name}")
            for name in self._WORKER_COUNTERS
        }
        # Spec hashes compiled by pooled workers (the in-process hashes
        # live in self._ctx.specs).
        self._worker_spec_hashes: set = set()

    # ------------------------------------------------------------------ #
    # properties / stats
    # ------------------------------------------------------------------ #

    @property
    def base_params(self) -> Parameters:
        return self._base

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def cache(self) -> Optional[DiskCache]:
        return self._cache

    def provenance(self, method: Optional[str] = None) -> EngineProvenance:
        """A snapshot of the engine's settings and cumulative counters."""
        local = self._ctx.stats()
        pool = {name: c.value for name, c in self._worker_stats.items()}
        hashes = set(self._ctx.spec_hashes()) | self._worker_spec_hashes
        return EngineProvenance(
            method=normalize_method(method) if method else self._method,
            jobs=self._jobs,
            cache_enabled=self._cache is not None,
            cache_hits=self._cache.hits if self._cache else 0,
            cache_misses=self._cache.misses if self._cache else 0,
            spec_hits=local["spec_hits"] + pool["spec_hits"],
            spec_misses=local["spec_misses"] + pool["spec_misses"],
            array_hits=local["array_hits"] + pool["array_hits"],
            array_misses=local["array_misses"] + pool["array_misses"],
            spec_hashes=tuple(sorted(hashes)),
            engine=f"repro.engine/{__version__}",
        )

    def metrics_snapshot(self) -> obs.Metrics:
        """Every counter this engine touched, merged into one registry.

        Folds the engine's own tallies (batches, points, pooled-worker
        counters), the disk cache's registry and the in-process solve
        context's registry (compiled-spec cache + array memo) — the
        ``metrics.json`` payload for a sweep run.
        """
        merged = obs.Metrics()
        merged.merge(self.metrics)
        merged.merge(self._ctx.metrics)
        if self._cache is not None:
            merged.merge(self._cache.metrics)
        return merged

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        config: Configuration,
        params: Optional[Parameters] = None,
        *,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> ReliabilityResult:
        """Evaluate a single point (engine-accelerated, cacheable)."""
        return self.evaluate_many(
            [(config, params if params is not None else self._base)],
            method=method,
            options=options,
        )[0]

    def evaluate_many(
        self,
        pairs: Sequence[Tuple[Configuration, Parameters]],
        *,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> List[ReliabilityResult]:
        """Evaluate many (configuration, parameters) points, in order.

        The disk cache is consulted first; remaining points are chunked
        across the process pool (or evaluated in-process with the
        engine's persistent memos when the batch is small).  Under the
        default options, outputs are bitwise identical to
        ``config.reliability(params, method)`` for every point;
        non-default options reroute the solve through the selected
        backend and contribute to the cache key.
        """
        method = normalize_method(method) if method else self._method
        options = self._options if options is None else options
        if method == "monte_carlo":
            raise ValueError(
                "SweepEngine evaluates analytic/closed-form points; use "
                "repro.evaluate(..., options=SolveOptions("
                "backend='monte_carlo')) or repro.sim.estimate_mttdl "
                "for simulation"
            )
        pairs = list(pairs)
        with obs.span(
            "engine.evaluate_many", points=len(pairs), method=method
        ) as batch_span:
            self._batches_counter.inc()
            self._points_counter.inc(len(pairs))
            mttdls: List[Optional[float]] = [None] * len(pairs)

            # Default options add no key material, so pre-options cache
            # entries (and every default-path run) keep their keys.
            key_extra = (
                None
                if options.is_default()
                else {"solve_options": options.cache_key()}
            )

            miss_indices: List[int] = []
            miss_keys: List[Optional[str]] = []
            if self._cache is not None:
                with obs.span("engine.cache.lookup", points=len(pairs)):
                    for i, (config, params) in enumerate(pairs):
                        key = point_key(config, params, method, key_extra)
                        payload = self._cache.get(key)
                        if payload is not None and point_payload_valid(payload):
                            mttdls[i] = float(payload["mttdl_hours"])
                        else:
                            miss_indices.append(i)
                            miss_keys.append(key)
            else:
                miss_indices = list(range(len(pairs)))
                miss_keys = [None] * len(pairs)

            tasks = [
                (pairs[i][0], pairs[i][1], method) for i in miss_indices
            ]
            if tasks:
                # When the pool cannot help (one job, a tiny batch, or a
                # single-CPU host) stay in-process so the engine's persistent
                # memos keep paying off across batches.
                pooled = should_pool(self._jobs, len(tasks))
                with obs.span(
                    "engine.dispatch", tasks=len(tasks), pooled=pooled
                ):
                    if pooled:
                        # Worker spans re-parent under this dispatch span
                        # automatically (the runtime adopts them), so
                        # pooled and in-process runs grow the same tree
                        # shape.
                        worker = functools.partial(
                            _worker_evaluate, options=options
                        )
                        chunks = split_chunks(tasks, self._jobs)
                        outputs = run_chunks(worker, chunks, self._jobs)
                        computed = [m for out in outputs for m in out[0]]
                        for _, stats in outputs:
                            stats = dict(stats)
                            self._worker_spec_hashes.update(
                                stats.pop("spec_hashes", ())
                            )
                            for name, value in stats.items():
                                self._worker_stats[name].inc(value)
                    else:
                        with obs.span("engine.worker", tasks=len(tasks)):
                            computed = evaluate_chunk(tasks, self._ctx, options)
                for slot, key, mttdl in zip(miss_indices, miss_keys, computed):
                    mttdls[slot] = mttdl
                if self._cache is not None:
                    with obs.span(
                        "engine.cache.store", points=len(miss_indices)
                    ):
                        for key, mttdl in zip(miss_keys, computed):
                            if key is not None:
                                self._cache.put(key, {"mttdl_hours": mttdl})

            results = [
                ReliabilityResult.from_mttdl(mttdl, params)
                for mttdl, (_, params) in zip(mttdls, pairs)
            ]
            batch_span.set("cache_hits", len(pairs) - len(miss_indices))
        return results

    # ------------------------------------------------------------------ #
    # sweeps and grids
    # ------------------------------------------------------------------ #

    def sweep(
        self,
        configs: Sequence[Configuration],
        axis: Axis,
        *,
        base_params: Optional[Parameters] = None,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
        title: Optional[str] = None,
        label_fn: Optional[Callable[[Any], str]] = None,
    ) -> SweepResult:
        """Evaluate ``configs`` along one axis; returns a :class:`SweepResult`.

        Point order matches :func:`repro.analysis.sensitivity.sweep`
        (x-major, then configuration).
        """
        from ..analysis.sensitivity import SweepPoint

        base = base_params if base_params is not None else self._base
        xs = list(axis.values)
        pairs = [
            (config, axis.apply(base, x)) for x in xs for config in configs
        ]
        results = self.evaluate_many(pairs, method=method, options=options)
        points = tuple(
            SweepPoint(
                x=x,
                config=config,
                events_per_pb_year=result.events_per_pb_year,
                mttdl_hours=result.mttdl_hours,
            )
            for (x, config), result in zip(
                ((x, c) for x in xs for c in configs), results
            )
        )
        if label_fn is None:
            label_fn = lambda p: p.config.label
        labels: List[str] = []
        values: dict = {}
        for p in points:
            label = label_fn(p)
            if label not in values:
                labels.append(label)
                values[label] = {}
            values[label][p.x] = p.events_per_pb_year
        series = tuple(
            Series(label, tuple(values[label][x] for x in xs))
            for label in labels
        )
        return SweepResult(
            title=title if title is not None else f"Sweep over {axis.x_label}",
            x_label=axis.x_label,
            x_values=tuple(float(x) for x in xs),
            series=series,
            target=PAPER_TARGET_EVENTS_PER_PB_YEAR,
            axis_name=axis.name,
            axis_values=tuple(xs),
            points=points,
            provenance=self.provenance(method),
        )

    def grid(
        self,
        configs: Sequence[Configuration],
        axes: Sequence[Axis],
        *,
        base_params: Optional[Parameters] = None,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> List[GridPoint]:
        """Evaluate the full cartesian product of ``axes`` for every
        configuration; returns points in (axes-major, config-minor) order."""
        if not axes:
            raise ValueError("grid needs at least one axis")
        base = base_params if base_params is not None else self._base
        combos = list(itertools.product(*(list(a.values) for a in axes)))
        entries = []
        for combo in combos:
            params = base
            for axis, x in zip(axes, combo):
                params = axis.apply(params, x)
            coords = tuple((axis.name, x) for axis, x in zip(axes, combo))
            for config in configs:
                entries.append((config, coords, params))
        results = self.evaluate_many(
            [(config, params) for config, _, params in entries],
            method=method,
            options=options,
        )
        return [
            GridPoint(config=config, coords=coords, params=params, result=result)
            for (config, coords, params), result in zip(entries, results)
        ]

    def evaluate_space(
        self,
        space: "SearchSpace",
        *,
        base_params: Optional[Parameters] = None,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> Tuple[List[GridPoint], int]:
        """Evaluate every feasible point of a declarative
        :class:`repro.models.SearchSpace` in one batch.

        Enumeration order is the space's own (config-major, axes in
        declared order) rather than :meth:`grid`'s axes-major order.
        Returns the evaluated points plus the number of infeasible
        combinations the space skipped.  Results are bitwise identical
        to ``config.reliability(params, method)`` per point.
        """
        base = base_params if base_params is not None else self._base
        points, skipped = space.grid(base)
        results = self.evaluate_many(
            [(p.config, p.params) for p in points],
            method=method,
            options=options,
        )
        return (
            [
                GridPoint(
                    config=p.config,
                    coords=p.coords,
                    params=p.params,
                    result=result,
                )
                for p, result in zip(points, results)
            ],
            skipped,
        )
