"""Compare two result sets (as written by ``steady.py``) metric by metric.

Usage (from the root of a checkout)::

    python3 e2ebench/compare.py .bench_out/sets/parent .bench_out/sets/change

For every (workload, end-to-end metric) it prints both sets' medians and
quartiles, the ratio of medians (change / parent) and a verdict:

* ``worse``      — the change's median is worse by more than the bound;
* ``better``     — better by more than the parent's own quartile spread,
  and every change run beats the parent's median;
* ``unresolved`` — the parent's spread is wider than the bound, so a
  difference this size cannot be told from noise, unless every change
  run reads better than every parent run;
* ``same``       — none of the above.

Per-layer rows (from traced results, ``--trace 1``, in either set) are
listed with medians and ratio only: they have no bound.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import common
from steady import load_set


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    p = common.spread(parent)
    c = common.spread(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else 0.0
    all_better = all(sign * (x - y) > 0 for x in change for y in parent)
    if gain < -bound:
        return "worse"
    if p["spread"] > bound and not all_better:
        return "unresolved"
    wins = all(sign * (x - p["median"]) > 0 for x in change)
    if gain > p["spread"] and wins:
        return "better"
    return "same"


def rows(parent: dict, change: dict, specs: list, with_verdict: bool):
    for workload in sorted(set(parent) | set(change)):
        for m in specs:
            a = parent.get(workload, {}).get(m["name"])
            b = change.get(workload, {}).get(m["name"])
            if not a or not b:
                continue
            pa, pb = common.spread(a), common.spread(b)
            ratio = pb["median"] / pa["median"] if pa["median"] else float("nan")
            v = verdict(a, b, m["better"], m["bound"]) if with_verdict else ""
            yield workload, m["name"], m["unit"], pa, pb, ratio, v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = common.load_spec()
    worse = 0
    header = (
        f"{'workload':8s} {'metric':36s} {'unit':6s} {'parent q1/med/q3':>30s} "
        f"{'change q1/med/q3':>30s} {'ratio':>7s} verdict"
    )
    for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        a, b = load_set(args.parent, trace), load_set(args.change, trace)
        if not a or not b:
            continue
        print("end-to-end" if trace == 0 else "per-layer")
        print(header)
        for workload, name, unit, pa, pb, ratio, v in rows(a, b, specs, trace == 0):
            worse += v == "worse"
            print(
                f"{workload:8s} {name:36s} {unit:6s} "
                f"{pa['q1']:9.4g}/{pa['median']:9.4g}/{pa['q3']:9.4g} "
                f"{pb['q1']:9.4g}/{pb['median']:9.4g}/{pb['q3']:9.4g} {ratio:7.3f} {v}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
