"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's tracing
off; ``--trace 1`` is the separate traced run that yields the per-layer
metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full result (host
fingerprint, calibration, raw samples, layer table) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  See
``e2ebench/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "advise", "serve")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    common.require_program()
    spec = common.load_spec()
    common.OUT.mkdir(parents=True, exist_ok=True)
    common.precompile_sources()

    if args.workload == "serve":
        import serveload as module
    else:
        import inproc as module

    calibration_before = common.calibrate()
    started = time.time()
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    elapsed = time.time() - started
    calibration_after = common.calibrate()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    if args.trace:
        # A layer the workload bypasses did no work: report it as 0.
        metrics = {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        }
    else:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"workload did not report {missing}")
        metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    record = dict(result)
    record.update(summary)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        started_unix=started,
        elapsed_s=elapsed,
        host=common.fingerprint(),
        calibration_ms={"before": calibration_before, "after": calibration_after},
    )
    common.write_result(
        common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record
    )
    print(
        f"{args.workload}: correct={summary['correct']} "
        f"attempted={summary['attempted']} failed={summary['failed']}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"{args.workload:7s} {name:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
