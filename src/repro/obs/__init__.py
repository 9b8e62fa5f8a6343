"""repro.obs — zero-dependency observability: spans, metrics, exporters.

The one front door for "what did this run actually spend its time on?":

* :func:`span` opens a nested, thread-safe span on the process-global
  tracer (a free no-op while tracing is disabled), and
  :func:`capture_spans` / :func:`adopt_spans` ship spans out of pool
  workers and re-parent them under the caller's tree.
* :class:`Metrics` registries absorb the counters that used to live as
  ad-hoc attributes on ``DiskCache`` and ``CompiledSpecCache``;
  registries merge associatively into one flat ``metrics.json``.
* :func:`trace` is the run-level hook: install a tracer, do the work,
  and get a JSONL trace, a metrics snapshot and/or a human run report::

      import repro, repro.obs as obs

      with obs.trace("run.jsonl", report=True):
          repro.evaluate(config, params)

  The CLIs expose the same session via ``--trace PATH`` / ``--report`` /
  ``--metrics PATH``; benchmarks and CI enable it with the
  ``REPRO_TRACE`` / ``REPRO_METRICS`` / ``REPRO_REPORT`` environment
  variables (see :func:`session_from_env`).

Span and metric naming taxonomies are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Dict, List, Optional

from .export import (
    PROM_CONTENT_TYPE,
    PromFormatError,
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    render_prom,
    render_report,
    tree_coverage,
    validate_prom_text,
    validate_trace,
    write_metrics,
    write_trace,
)
from .live import (
    FlightRecorder,
    LiveTelemetry,
    NULL_LIVE,
    RotatingTraceWriter,
    SloTracker,
    TraceCollector,
    TraceSampler,
)
from .metrics import (
    Counter,
    Gauge,
    GLOBAL_METRICS,
    Histogram,
    LogLinearHistogram,
    Metrics,
    WINDOWS_S,
    WindowSummary,
    WindowedHistogram,
    global_metrics,
)
from .reporter import Reporter, reporter, set_reporter
from .tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    adopt_spans,
    capture_spans,
    current_span_id,
    current_tracer,
    set_tracer,
    span,
    tracing_active,
    use_tracer,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "GLOBAL_METRICS",
    "Histogram",
    "LiveTelemetry",
    "LogLinearHistogram",
    "Metrics",
    "NULL_LIVE",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "PROM_CONTENT_TYPE",
    "PromFormatError",
    "Reporter",
    "RotatingTraceWriter",
    "SloTracker",
    "Span",
    "TRACE_FORMAT_VERSION",
    "TraceCollector",
    "TraceFormatError",
    "TraceSampler",
    "TraceSession",
    "Tracer",
    "WINDOWS_S",
    "WindowSummary",
    "WindowedHistogram",
    "adopt_spans",
    "capture_spans",
    "current_span_id",
    "current_tracer",
    "global_metrics",
    "render_prom",
    "render_report",
    "reporter",
    "session_from_env",
    "set_reporter",
    "set_tracer",
    "span",
    "trace",
    "tracing_active",
    "tree_coverage",
    "use_tracer",
    "validate_prom_text",
    "validate_trace",
    "write_metrics",
    "write_trace",
]


class TraceSession:
    """One traced run: install a tracer, collect, export on exit.

    Args:
        trace_path: write the JSONL trace here on exit (optional).
        metrics_path: write the flat metrics snapshot here on exit
            (optional) — the global registry folded with every registered
            :meth:`add_metrics_source`.
        report: render the run report on exit.
        report_stream: destination for the report (default: ``sys.stderr``
            at exit time).
        root: open a root span of this name for the session's duration,
            so every span of the run hangs off one tree.
        top: hot-span count in the report.

    After exit, :attr:`spans` holds the finished span dicts and
    :meth:`collect_metrics` the merged registry — tests and callers can
    inspect a run without re-reading the files.
    """

    def __init__(
        self,
        trace_path: Optional[str] = None,
        *,
        metrics_path: Optional[str] = None,
        report: bool = False,
        report_stream=None,
        root: Optional[str] = None,
        top: int = 10,
    ) -> None:
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.report = report
        self._report_stream = report_stream
        self.root = root
        self.top = top
        self.tracer = Tracer()
        self.spans: List[Dict[str, Any]] = []
        self._sources: List[Callable[[], Metrics]] = []
        self._previous = None
        self._root_handle = None

    def add_metrics_source(self, source: Callable[[], Metrics]) -> None:
        """Register a registry provider folded into the exported metrics
        (e.g. ``engine.metrics_snapshot``); called once, at exit."""
        self._sources.append(source)

    def collect_metrics(self) -> Metrics:
        """The global registry folded with every registered source."""
        merged = Metrics()
        merged.merge(GLOBAL_METRICS)
        for source in self._sources:
            merged.merge(source())
        merged.gauge("obs.spans").set(len(self.spans) or len(self.tracer.finished()))
        return merged

    def __enter__(self) -> "TraceSession":
        self._previous = set_tracer(self.tracer)
        if self.root:
            self._root_handle = self.tracer.span(self.root)
            self._root_handle.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._root_handle is not None:
            self._root_handle.__exit__(exc_type, exc, tb)
            self._root_handle = None
        set_tracer(self._previous)
        self.spans = self.tracer.finished()
        if self.trace_path:
            write_trace(self.spans, self.trace_path)
        if self.metrics_path:
            write_metrics(self.collect_metrics(), self.metrics_path)
        if self.report:
            stream = (
                self._report_stream
                if self._report_stream is not None
                else sys.stderr
            )
            print(render_report(self.spans, top=self.top), file=stream)
        return False


def trace(
    trace_path: Optional[str] = None,
    *,
    metrics_path: Optional[str] = None,
    report: bool = False,
    report_stream=None,
    root: Optional[str] = None,
    top: int = 10,
) -> TraceSession:
    """A run-level tracing session (context manager); see
    :class:`TraceSession`."""
    return TraceSession(
        trace_path,
        metrics_path=metrics_path,
        report=report,
        report_stream=report_stream,
        root=root,
        top=top,
    )


def session_from_env(environ=None) -> Optional[TraceSession]:
    """A :class:`TraceSession` configured from the environment, or None.

    Reads ``REPRO_TRACE`` (JSONL path), ``REPRO_METRICS`` (metrics.json
    path) and ``REPRO_REPORT`` (any non-empty value prints the run report
    to stderr).  This is how CI's ``bench-smoke`` job traces the
    benchmark suite without the benchmarks growing CLI flags.
    """
    if environ is None:
        environ = os.environ
    trace_path = environ.get("REPRO_TRACE") or None
    metrics_path = environ.get("REPRO_METRICS") or None
    report = bool(environ.get("REPRO_REPORT"))
    if not (trace_path or metrics_path or report):
        return None
    return TraceSession(
        trace_path,
        metrics_path=metrics_path,
        report=report,
        root=environ.get("REPRO_TRACE_ROOT", "env"),
    )
