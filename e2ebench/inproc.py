"""The in-process workloads: ``sweep`` and ``advise``.

Both are closed loops: the next call starts when the previous one has
returned, in this process, through the program's public entry points.
Inputs for a call are generated before its clock starts; answers are
checked after the window closes.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
from common import metric

import repro
from repro import obs
from repro.advise import AdviseRequest, advise
from repro.core import SolveOptions
from repro.models import ConfigSpace, ParamAxis, Parameters, SearchSpace

CONFIGS = tuple(repro.ALL_CONFIGURATIONS)

#: Fresh operating points per ``evaluate_many`` call; each is evaluated on
#: all nine configurations, so a call is 9 x this many points.
SWEEP_POINTS_PER_CALL = 24

#: Cold starts measured per run; ``setup_s`` is their median.
SETUP_STARTS = 7

#: Untimed calls before the window opens (imports, first compiles, page
#: faults) — at least this long, in seconds.
WARMUP_S = 1.5

# Cold-start programs: import, construct, first compiles, then "ready".
SWEEP_SETUP = """
import repro
engine = repro.SweepEngine()
engine.evaluate_many(
    [(c, repro.Parameters.baseline()) for c in repro.ALL_CONFIGURATIONS]
)
print("ready", flush=True)
"""

ADVISE_SETUP = """
import repro
from repro.models import SearchSpace
repro.advise(repro.AdviseRequest(space=SearchSpace(axes=())))
print("ready", flush=True)
"""


def same_float(a: float, b: float) -> bool:
    """Bitwise float equality (``float.hex`` round-trips every bit)."""
    return float(a).hex() == float(b).hex()


def reference_mttdl(config, params: Parameters, method: str) -> float:
    """The answer ``repro.evaluate()`` gives for one point."""
    if method == "closed_form":
        options = SolveOptions(backend="closed_form")
    else:
        options = None
    return repro.evaluate(config, params, options=options).mttdl_hours


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #


def sweep_point(rng: random.Random) -> Parameters:
    """One operating point with fresh drive- and node-level parameters."""
    return Parameters.with_overrides(
        drive_mttf_hours=rng.uniform(150_000.0, 750_000.0),
        hard_error_rate_per_bit=10.0 ** rng.uniform(-15.0, -13.0),
        drives_per_node=rng.choice((8, 10, 12, 14, 16)),
        rebuild_command_bytes=rng.choice((64, 128, 256, 512, 1024)) * 1024.0,
        node_mttf_hours=rng.uniform(200_000.0, 800_000.0),
        node_set_size=rng.choice((32, 48, 64, 96, 128)),
        redundancy_set_size=rng.choice((6, 8, 10, 12)),
        link_speed_bps=rng.choice((1e9, 10e9, 40e9)),
    )


def advise_request(rng: random.Random) -> AdviseRequest:
    """One 576-candidate search: nine configurations x 64 node-level
    combinations, with a single drive-level value per search."""
    axes = (
        ParamAxis("drive_mttf_hours", (rng.choice((250e3, 300e3, 400e3)),)),
        ParamAxis(
            "node_set_size", tuple(sorted(rng.sample((24, 32, 48, 64, 96, 128), 2)))
        ),
        ParamAxis(
            "redundancy_set_size", tuple(sorted(rng.sample((6, 8, 10, 12, 14, 16), 4)))
        ),
        ParamAxis(
            "node_mttf_hours",
            tuple(sorted(round(rng.uniform(2e5, 8e5), 1) for _ in range(2))),
        ),
        ParamAxis("link_speed_bps", tuple(sorted(rng.sample((1e9, 10e9, 40e9), 2)))),
        ParamAxis("scrub_interval_hours", tuple(sorted(rng.sample((168.0, 336.0, 730.0), 2)))),
    )
    space = SearchSpace(configs=ConfigSpace(), axes=axes)
    return AdviseRequest(space=space, seed=rng.randrange(2**31))


ADVISE_CANDIDATES = 576


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #


class SweepWorkload:
    """Back-to-back ``SweepEngine.evaluate_many`` on one default engine."""

    setup_code = SWEEP_SETUP

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"sweep:{seed}")
        self.engine = repro.SweepEngine()

    def next_input(self):
        points = [sweep_point(self.rng) for _ in range(SWEEP_POINTS_PER_CALL)]
        return [(config, params) for params in points for config in CONFIGS]

    def call(self, pairs):
        return self.engine.evaluate_many(pairs)

    @staticmethod
    def points(pairs, out) -> int:
        return len(pairs)

    def keep(self, pairs, out, rng: random.Random) -> List[tuple]:
        """Four (config, params, method, answer) rows to check later."""
        picks = rng.sample(range(len(pairs)), 4)
        return [
            (pairs[i][0], pairs[i][1], "analytic", out[i].mttdl_hours) for i in picks
        ]

    @staticmethod
    def check_op(pairs, out) -> bool:
        return len(out) == len(pairs)

    def memo_counts(self) -> Tuple[int, int]:
        """Cumulative (spec compiles, array-memo entries) so far."""
        prov = self.engine.provenance()
        return prov.spec_misses, prov.array_misses


class AdviseWorkload:
    """Back-to-back ``repro.advise.advise`` searches (one engine each)."""

    setup_code = ADVISE_SETUP

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"advise:{seed}")
        self.spec_misses = 0
        self.array_misses = 0

    def next_input(self):
        return advise_request(self.rng)

    def call(self, request):
        out = advise(request)
        self.spec_misses += out.provenance.spec_misses
        self.array_misses += out.provenance.array_misses
        return out

    def memo_counts(self) -> Tuple[int, int]:
        """Cumulative (spec compiles, array-memo entries) so far."""
        return self.spec_misses, self.array_misses

    @staticmethod
    def points(request, out) -> int:
        return out.evaluated

    def keep(self, request, out, rng: random.Random) -> List[tuple]:
        """Every frontier point of a sampled search, to check later."""
        return [
            (c.config, c.params, request.method, c.result.mttdl_hours)
            for c in out.frontier
        ]

    @staticmethod
    def check_op(request, out) -> bool:
        """Size, target compliance and mutual non-dominance of the frontier."""
        if out.evaluated != ADVISE_CANDIDATES or out.skipped != 0:
            return False
        target = request.target_events_per_pb_year
        objectives = []
        for c in out.frontier:
            if not c.feasible or not c.result.events_per_pb_year < target:
                return False
            objectives.append(
                (c.cost.total, c.result.events_per_pb_year, c.cost.storage_overhead)
            )
        for i, a in enumerate(objectives):
            for j, b in enumerate(objectives):
                if i != j and all(x <= y for x, y in zip(a, b)) and a != b:
                    return False
        return True


WORKLOADS = {"sweep": SweepWorkload, "advise": AdviseWorkload}


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #


def measure_setup(code: str, starts: int = SETUP_STARTS) -> List[float]:
    """Seconds from process spawn to "ready", over ``starts`` cold starts."""
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            env=common.child_env(),
            cwd=str(common.OUT),
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"cold start failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


class Window:
    """What one closed-loop window measured."""

    def __init__(self) -> None:
        self.op_ms: List[float] = []
        self.points = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.failed_ops: set = set()
        self.kept: List[tuple] = []


def run_window(
    wl,
    seconds: float,
    check_rng: random.Random,
    *,
    keep_share: float,
    wrap: Optional[Callable] = None,
) -> Window:
    """Call ``wl`` back to back until ``seconds`` of timed calls have run.

    Only the calls are timed: input generation for call *i + 1* happens
    with the clock stopped, so throughput and CPU are the program's.
    """
    win = Window()
    while win.wall_s < seconds:
        inp = wl.next_input()
        c0 = common.cpu_self_and_children()
        t0 = time.perf_counter()
        if wrap is None:
            out = wl.call(inp)
        else:
            with wrap():
                out = wl.call(inp)
        t1 = time.perf_counter()
        c1 = common.cpu_self_and_children()
        win.op_ms.append((t1 - t0) * 1e3)
        win.wall_s += t1 - t0
        win.cpu_s += c1 - c0
        win.points += wl.points(inp, out)
        if not wl.check_op(inp, out):
            win.failed_ops.add(len(win.op_ms) - 1)
        if len(win.op_ms) == 1 or check_rng.random() < keep_share:
            win.kept.append((len(win.op_ms) - 1, wl.keep(inp, out, check_rng)))
    return win


def check_kept(kept: Sequence[Tuple[int, List[tuple]]]) -> Tuple[int, set]:
    """Re-answer every kept point with ``repro.evaluate()``; returns the
    number of points checked and the indices of operations that differ."""
    bad_ops = set()
    checked = 0
    for op_index, rows in kept:
        for config, params, method, answer in rows:
            checked += 1
            if not same_float(reference_mttdl(config, params, method), answer):
                bad_ops.add(op_index)
    return checked, bad_ops


def warm_up(wl, seconds: float = WARMUP_S) -> None:
    t_end = time.perf_counter() + seconds
    calls = 0
    while calls < 2 or time.perf_counter() < t_end:
        wl.call(wl.next_input())
        calls += 1


# --------------------------------------------------------------------- #
# traced run: per-layer numbers from the program's own spans
# --------------------------------------------------------------------- #


def _sum_wall(spans, name: str) -> float:
    return sum(s["wall_s"] for s in spans if s["name"] == name)


def per_layer(spans: List[dict], ops: int, points: int, extra: Dict[str, float]):
    """The per-layer metrics of one traced window."""
    pid = os.getpid()
    selfs = common.self_times(spans)
    dispatch = [s for s in spans if s["name"] == "engine.dispatch"]
    pooled = [s for s in dispatch if s["attrs"].get("pooled")]
    pooled_ids = {s["span_id"] for s in pooled}
    worker_pids: Dict[str, set] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent in pooled_ids and s["pid"] != pid:
            worker_pids.setdefault(parent, set()).add(s["pid"])
    gth = [s for s in spans if s["name"] == "solve.gth"]
    searches = [s for s in spans if s["name"] == "advise.search"]
    candidates = sum(s["attrs"].get("evaluated", 0) for s in searches)

    def per_point_us(name: str) -> float:
        return _sum_wall(spans, name) * 1e6 / points if points else 0.0

    def per_candidate_us(name: str) -> float:
        return _sum_wall(spans, name) * 1e6 / candidates if candidates else 0.0

    values = {
        "engine.pooled_share": len(pooled) / len(dispatch) if dispatch else 0.0,
        "engine.dispatch_ms_per_op": _sum_wall(spans, "engine.dispatch") * 1e3 / ops,
        "runtime.spawned_per_op": sum(len(p) for p in worker_pids.values()) / ops,
        "runtime.pool_overhead_ms_per_op": sum(
            selfs[s["span_id"]] for s in pooled
        )
        * 1e3
        / ops,
        "solve.prepare.us_per_point": per_point_us("solve.prepare"),
        "models.array_solves_per_point": sum(
            1 for s in spans if s["name"] == "ctmc.solve"
        )
        / points,
        "solve.bind.us_per_point": per_point_us("solve.bind"),
        "solve.gth.us_per_point": per_point_us("solve.gth"),
        "solve.points_per_group": (
            sum(s["attrs"].get("points", 0) for s in gth) / len(gth) if gth else 0.0
        ),
        "advise.enumerate.us_per_candidate": per_candidate_us("advise.enumerate"),
        "advise.cost.us_per_candidate": per_candidate_us("advise.cost"),
        "advise.frontier.us_per_candidate": per_candidate_us("advise.frontier"),
        "advise.frontier_size": (
            sum(s["attrs"].get("frontier", 0) for s in searches) / len(searches)
            if searches
            else 0.0
        ),
    }
    values.update(extra)
    return values


# --------------------------------------------------------------------- #
# entry
# --------------------------------------------------------------------- #


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload](seed)
    check_rng = random.Random(f"check:{workload}:{seed}")
    # sweep keeps 4 points of ~10% of its calls; advise keeps every
    # frontier point of ~2% of its searches (plus the first of each).
    keep_share = 0.1 if workload == "sweep" else 0.02
    warm_up(wl)
    if not trace:
        win = run_window(wl, seconds, check_rng, keep_share=keep_share)
        peak_rss = common.peak_rss_mb_self_and_largest_child()
        checked, bad = check_kept(win.kept)
        failed = len(bad | win.failed_ops)
        setup = measure_setup(wl.setup_code)
        ops = len(win.op_ms)
        return {
            "correct": failed == 0,
            "attempted": ops,
            "failed": failed,
            "metrics": {
                "setup_s": metric(statistics.median(setup), "s"),
                "peak_rss_mb": metric(peak_rss, "MB"),
                "points_per_s": metric(win.points / win.wall_s, "1/s"),
                "cpu_ms_per_point": metric(win.cpu_s * 1e3 / win.points, "ms"),
                "goodput_share": metric((ops - failed) / ops, "ratio"),
            },
            "samples": {
                "op_ms": win.op_ms,
                "op_ms_p50": common.quantile(win.op_ms, 0.5),
                "op_ms_p90": common.quantile(win.op_ms, 0.9),
                "setup_s": setup,
                "p90_samples_beyond": common.beyond(ops, 0.90),
                "points": win.points,
                "timed_wall_s": win.wall_s,
                "cpu_s": win.cpu_s,
                "checked_points": checked,
            },
        }

    # Traced run: half the window untraced, half inside a trace session.
    half = seconds / 2.0
    plain = run_window(wl, half, check_rng, keep_share=keep_share)
    spec_before, array_before = wl.memo_counts()
    with obs.TraceSession() as session:
        traced = run_window(
            wl, half, check_rng, keep_share=keep_share, wrap=lambda: obs.span("bench.op")
        )
        spans = session.tracer.finished()
    spec_after, array_after = wl.memo_counts()
    ops = len(traced.op_ms)
    checked_plain, bad_plain = check_kept(plain.kept)
    checked_traced, bad_traced = check_kept(traced.kept)
    failed = len(bad_plain | plain.failed_ops) + len(bad_traced | traced.failed_ops)
    overhead = (traced.wall_s / traced.points) / (plain.wall_s / plain.points) - 1.0
    values = per_layer(
        spans,
        ops,
        traced.points,
        {
            "engine.array_memo.entries": (array_after - array_before) / ops,
            "core.spec_compiles_per_op": (spec_after - spec_before) / ops,
            "obs.trace_overhead_share": overhead,
            "bench.op_ms_p50": common.quantile(plain.op_ms, 0.5),
            "bench.op_ms_p90": common.quantile(plain.op_ms, 0.9),
        },
    )
    return {
        "correct": failed == 0,
        "attempted": len(plain.op_ms) + ops,
        "failed": failed,
        "metrics": values,
        "layers": common.layer_table(spans, ops),
        "samples": {
            "traced_op_ms": traced.op_ms,
            "untraced_op_ms": plain.op_ms,
            "checked_points": checked_plain + checked_traced,
            "spans": len(spans),
        },
    }
