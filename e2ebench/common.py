"""Shared pieces of the benchmark: paths, statistics, host fingerprint,
calibration loop, CPU/RSS accounting and span self time.

Nothing here imports ``repro``: the program is imported by the workload
modules only after :func:`require_program` has found its sources.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"


def require_program() -> None:
    """Exit non-zero, printing no result, unless the program's sources are
    present next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: no program sources at {SRC}/repro; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def precompile_sources() -> None:
    """Write the program's bytecode once, so every cold start measured by
    ``setup_s`` reads warm ``.pyc`` files instead of some compiling.

    It compiles in this process: a reaped helper process would count as
    the "largest child" in :func:`peak_rss_mb_self_and_largest_child`.
    """
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise RuntimeError(f"could not compile {SRC}")


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the q-quantile."""
    return n - math.ceil(q * n)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and inter-quartile spread as a share of the
    median — the steadiness figure, computed as ``statistics.quantiles``
    does it."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    rel = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)
    return {"median": med, "q1": q1, "q3": q3, "spread": rel, "n": len(values)}


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------- #
# host
# --------------------------------------------------------------------- #


def _calibration_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def calibrate(reps: int = 7) -> float:
    """Median milliseconds of one fixed pure-Python loop.

    A diagnostic of how fast the host ran around a measurement; it is
    recorded next to the metrics and never used to rescale them.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def src_hash() -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a program dependency
        numpy_version = None
    try:
        affinity: Optional[List[int]] = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "src_sha256": src_hash(),
    }


# --------------------------------------------------------------------- #
# CPU and memory
# --------------------------------------------------------------------- #


def cpu_self_and_children() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb_self_and_largest_child() -> float:
    """Peak RSS of this process plus the largest child reaped so far (MB).

    Read before the benchmark reaps any child of its own (cold starts run
    after it), so the children counted are the program's pool workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


def _union_length(intervals: Iterable[tuple]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time of every span id: its wall minus the union of its
    children's intervals, clipped to its own interval."""
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[str, List[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(s)
    out: Dict[str, float] = {}
    for sid, s in by_id.items():
        lo = s["start_unix"]
        hi = lo + s["wall_s"]
        covered = _union_length(
            (max(lo, c["start_unix"]), min(hi, c["start_unix"] + c["wall_s"]))
            for c in children.get(sid, ())
            if c["start_unix"] < hi and c["start_unix"] + c["wall_s"] > lo
        )
        out[sid] = max(0.0, s["wall_s"] - covered)
    return out


def layer_table(spans: Sequence[dict], ops: int) -> Dict[str, Dict[str, float]]:
    """Per span name: count, inclusive and self milliseconds per operation."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(
            s["name"], {"count": 0, "wall_ms_per_op": 0.0, "self_ms_per_op": 0.0}
        )
        row["count"] += 1
        row["wall_ms_per_op"] += s["wall_s"] * 1e3 / ops
        row["self_ms_per_op"] += selfs[s["span_id"]] * 1e3 / ops
    return dict(sorted(table.items()))


# --------------------------------------------------------------------- #
# result files
# --------------------------------------------------------------------- #


def load_spec() -> dict:
    with open(SPEC_FILE) as fh:
        return json.load(fh)


def write_result(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    tmp.replace(path)
