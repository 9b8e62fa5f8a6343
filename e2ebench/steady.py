"""Steadiness: run each workload repeatedly and report, per end-to-end
metric, the median, quartiles and inter-quartile spread against the
metric's bound in ``BENCHMARK.json``.

Usage (from the root of a checkout)::

    python3 e2ebench/steady.py --runs 10 --first-seed 100 --set .bench_out/sets/A
    python3 e2ebench/steady.py --workloads serve --runs 5 --set .bench_out/sets/tune

Runs go round-robin over the workloads (run 1 of each, then run 2 ...),
each with its own seed, so slow phases of the host spread evenly.  Every
run's full result file is copied into the set directory, which
``compare.py`` reads; one traced run per workload follows the untraced
ones, for ``compare.py``'s per-layer rows.  A metric is "steady" when its
spread is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import common


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(common.BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=str(common.ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_set(path: Path, trace: int = 0) -> dict:
    """``{workload: {metric: [values...]}}`` of every result in a set."""
    values: dict = {}
    for result in sorted(path.glob(f"*-trace{trace}.json")):
        record = json.loads(result.read_text())
        per = values.setdefault(record["workload"], {})
        for name, m in record["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return values


def summarize(values: dict, spec: dict) -> list:
    rows = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, metrics in sorted(values.items()):
        for name, vals in metrics.items():
            s = common.spread(vals)
            bound = bounds[name]["bound"]
            s.update(
                workload=workload,
                metric=name,
                unit=bounds[name]["unit"],
                bound=bound,
                steady=s["spread"] < bound / 3.0,
            )
            rows.append(s)
    return rows


def print_rows(rows: list) -> None:
    print(
        f"{'workload':8s} {'metric':18s} {'n':>3s} {'median':>12s} {'q1':>12s} "
        f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'steady':>6s}"
    )
    for r in rows:
        print(
            f"{r['workload']:8s} {r['metric']:18s} {r['n']:3d} {r['median']:12.5g} "
            f"{r['q1']:12.5g} {r['q3']:12.5g} {r['spread']:7.3f} {r['bound']:6.2f} "
            f"{'yes' if r['steady'] else 'NO':>6s}"
        )


def main(argv=None) -> int:
    spec = common.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--set", required=True, type=Path, help="directory for this set's results")
    args = parser.parse_args(argv)
    args.set.mkdir(parents=True, exist_ok=True)
    for trace, runs in ((0, args.runs), (1, 1)):
        for i in range(runs):
            for workload in args.workloads:
                seed = args.first_seed + i
                run_once(workload, seed, args.seconds, trace)
                name = f"{workload}-seed{seed}-trace{trace}.json"
                shutil.copy(common.OUT / name, args.set / name)
                print(f"done {name}", file=sys.stderr, flush=True)
    rows = summarize(load_set(args.set), spec)
    print_rows(rows)
    (args.set / "steadiness.json").write_text(json.dumps(rows, indent=1))
    return 0 if all(r["steady"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
