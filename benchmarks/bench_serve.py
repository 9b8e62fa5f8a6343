"""Serving-layer benchmark: coalesced batching vs one-solve-per-request.

The acceptance bar for ``repro.serve`` is concrete: under concurrent
load of *unique* queries (cache and in-flight coalescing defeated on
purpose), the coalescing batcher must sustain at least 3x the
throughput of the same service with batching disabled
(``max_batch_size=1`` — one bind + one GTH solve per request, the
classic request-per-solve server).  Both arms run the identical
in-process service stack, so the ratio isolates exactly what the
batcher buys: grouping in-flight points by spec hash, one
``bind_batch`` pass and one stacked elimination per group.

The benchmark also asserts the two correctness bars from the issue:
the mean solve-batch size under load is > 1 (requests really are
grouped), and every answer is bitwise identical both across arms and
against a direct ``repro.evaluate()`` call.  Results are archived in
``benchmarks/results/serve.txt``.
"""

import asyncio
import time

from _bench_utils import emit_text

import repro
from repro.analysis import format_table
from repro.models.configurations import all_configurations
from repro.serve import PointQuery, ReliabilityService, ServeConfig

TRIALS = 3
POINTS = 2000
WARMUP_POINTS = 18

#: The required throughput multiple of coalesced batching over the
#: one-solve-per-request baseline.
REQUIRED_SPEEDUP = 3.0


def _queries(base, n, offset=0):
    """``n`` unique-parameter queries cycling over all nine configs.

    Every point gets its own ``drive_mttf_hours`` so no two requests
    share a result-cache key — the benchmark measures solving, not
    caching.
    """
    configs = all_configurations(3)
    return [
        PointQuery(
            config=configs[i % len(configs)],
            params=base.replace(
                drive_mttf_hours=1e5 * (1 + (i + offset) * 1e-6)
            ),
            method="analytic",
        )
        for i in range(n)
    ]


async def _drive(config, base, concurrency, n=POINTS):
    """Run ``n`` unique queries through a fresh service at the given
    closed-loop concurrency; returns (wall_s, answers, mean_batch)."""
    async with ReliabilityService(config) as svc:
        for q in _queries(base, WARMUP_POINTS, offset=10**7):
            await svc.answer_point(q)

        queries = _queries(base, n)
        answers = [None] * n
        pending = iter(range(n))

        async def worker():
            while True:
                try:
                    i = next(pending)
                except StopIteration:
                    return
                answers[i] = await svc.answer_point(queries[i])

        t0 = time.perf_counter()
        await asyncio.gather(*[worker() for _ in range(concurrency)])
        wall = time.perf_counter() - t0
        sizes = svc.metrics.histogram("serve.batch.size")
        mean_batch = sizes.mean if sizes.count else 0.0
    return wall, answers, mean_batch


def _best_of(config, base, concurrency, trials=TRIALS):
    best_wall = float("inf")
    answers = None
    mean_batch = 0.0
    for _ in range(trials):
        wall, got, batch = asyncio.run(_drive(config, base, concurrency))
        if wall < best_wall:
            best_wall, answers, mean_batch = wall, got, batch
    return best_wall, answers, mean_batch


def test_serve_batching_speedup_report(baseline_params):
    base = baseline_params
    # Identical knobs except the batch policy; the result cache is off
    # and every query is unique, so neither arm gets free answers.
    naive_cfg = ServeConfig(
        cache_size=0, queue_depth=100_000, max_batch_size=1, max_wait_us=0
    )
    batched_cfg = ServeConfig(
        cache_size=0, queue_depth=100_000, max_batch_size=256, max_wait_us=2000
    )

    naive_wall, naive_answers, naive_batch = _best_of(naive_cfg, base, 128)
    batched_wall, batched_answers, mean_batch = _best_of(
        batched_cfg, base, 512
    )

    # Correctness bar 1: the batcher really groups concurrent requests.
    assert naive_batch <= 1.0
    assert mean_batch > 1.0, mean_batch

    # Correctness bar 2: bitwise-identical answers across arms and
    # against the direct evaluate() path (sampled — it is ~500us/point).
    for a, b in zip(naive_answers, batched_answers):
        assert a["mttdl_hours"] == b["mttdl_hours"], (a, b)
        assert a["events_per_pb_year"] == b["events_per_pb_year"], (a, b)
    queries = _queries(base, POINTS)
    for i in range(0, POINTS, POINTS // 20):
        direct = repro.evaluate(queries[i].config, queries[i].params)
        assert batched_answers[i]["mttdl_hours"] == direct.mttdl_hours

    naive_rps = POINTS / naive_wall
    batched_rps = POINTS / batched_wall
    speedup = batched_rps / naive_rps

    rows = [
        ["arm", "throughput", "mean batch", "speedup"],
        [
            "one solve per request (max_batch_size=1)",
            f"{naive_rps:7.1f} req/s",
            f"{naive_batch:5.1f}",
            "1.00x",
        ],
        [
            "coalescing batcher (max_batch_size=256)",
            f"{batched_rps:7.1f} req/s",
            f"{mean_batch:5.1f}",
            f"{speedup:.2f}x",
        ],
    ]
    emit_text(
        f"repro.serve throughput: {POINTS} unique analytic points over the "
        f"nine configurations\n(closed loop, best of {TRIALS}; result cache "
        "disabled so every request solves)\n"
        + format_table(rows)
        + "\nanswers bitwise-identical across arms and vs direct "
        "repro.evaluate()",
        "serve.txt",
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"coalescing gained only {speedup:.2f}x over one-solve-per-request "
        f"(bar: {REQUIRED_SPEEDUP}x)"
    )
