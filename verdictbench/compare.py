#!/usr/bin/env python3
"""Compare two sets of benchmark results written by ``run.py --out``.

    python3 verdictbench/compare.py --base A1.json A2.json ... --head B1.json B2.json ...

Runs are paired by workload and seed.  The comparison is refused (exit 2)
when a pair differs in kernel, interpreter, trace mode or input hash,
since such runs measure different programs or different inputs.  For
each workload and metric it prints both medians, the relative change and
the base's own spread (quartile distance over median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

MUST_MATCH = ("kernel", "python", "trace", "input_sha256")


def load(paths: list[str]) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        runs[doc["env"]["workload"], doc["env"]["seed"]] = doc
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)

    if base.keys() != head.keys():
        print(f"refused: unpaired runs {sorted(base.keys() ^ head.keys())}", file=sys.stderr)
        return 2
    for key in sorted(base):
        for field in MUST_MATCH:
            if base[key]["env"][field] != head[key]["env"][field]:
                print(f"refused: {key} differs in {field}: "
                      f"{base[key]['env'][field]!r} vs {head[key]['env'][field]!r}", file=sys.stderr)
                return 2

    table: dict = defaultdict(lambda: ([], []))
    units = {}
    for key, doc in sorted(base.items()):
        for name, metric in doc["result"]["metrics"].items():
            before, after = table[key[0], name]
            before.append(metric["value"])
            after.append(head[key]["result"]["metrics"][name]["value"])
            units[name] = metric["unit"]
    print(f"{'workload':<12} {'metric':<34} {'base':>12} {'head':>12} {'change':>8} {'spread':>7}")
    for (workload, name), (before, after) in sorted(table.items()):
        unit = units[name]
        b, h = statistics.median(before), statistics.median(after)
        change = (h - b) / b if b else float("nan")
        print(f"{workload:<12} {name + ' [' + unit + ']':<34} {b:>12.5g} {h:>12.5g} "
              f"{change:>+8.1%} {spread(before):>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
