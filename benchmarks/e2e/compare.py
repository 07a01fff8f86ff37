#!/usr/bin/env python3
"""Compare two e2e results: ``compare.py A.json B.json [--layers]``.

A is the base, B the candidate.  Either side may be several invocations,
comma-separated (``a1.json,a2.json,a3.json``): the value compared is then the
median over invocations and the spread their quartile distance; with one file
per side the spread is the file's own spread over rounds.

One row per (end-to-end metric, workload), every ratio printed with its base,
and a verdict against the metric's bound in ``BENCHMARK.json``:

    better | same | worse   B differs from A by more than / within the bound
    unresolved              either side's own spread exceeds the bound, so
                            the difference cannot be told from noise

Exit status is non-zero on any ``worse`` and on any rise in ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
#: In every result file but not in BENCHMARK.json (see metrics.REPORTED_ONLY);
#: fail_ratio is judged absolutely, below.
P95 = {"name": "op_p95_ms", "better": "lower", "bound": 0.25}


def load_side(arg: str) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in arg.split(",")]


def side_value(cells: list[dict]) -> tuple[float, float]:
    """``(value, spread as a share of it)`` of one metric on one side."""
    if len(cells) > 1:
        values = [c["value"] for c in cells]
        value = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        value = cells[0]["value"]
        q1, q3 = cells[0].get("q1", value), cells[0].get("q3", value)
    return value, (q3 - q1) / abs(value) if value else 0.0


def verdict(a: float, b: float, spread: float, better: str, bound: float) -> str:
    if spread > bound:
        return "unresolved"
    if not a:
        return "same" if not b else "worse"
    gain = (a - b) / abs(a) if better == "lower" else (b - a) / abs(a)
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base result(s), comma-separated")
    parser.add_argument("b", help="candidate result(s), comma-separated")
    parser.add_argument("--layers", action="store_true",
                        help="also print the per-layer metrics (ratios, no verdict)")
    args = parser.parse_args()
    side_a, side_b = load_side(args.a), load_side(args.b)
    spec = json.loads(BENCHMARK.read_text())
    bad = 0

    print(f"{'workload':<16} {'metric':<30} {'A (base)':>12} {'B':>12} {'B/A':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in side_a[0]["workloads"]:
        if any(workload not in side["workloads"] for side in side_a + side_b):
            continue

        def cells(side: list[dict], section: str, metric: str) -> list[dict]:
            return [s["workloads"][workload][section][metric] for s in side]

        for m in spec["end_to_end"] + [P95]:
            a, spread_a = side_value(cells(side_a, "end_to_end", m["name"]))
            b, spread_b = side_value(cells(side_b, "end_to_end", m["name"]))
            spread = max(spread_a, spread_b)
            result = verdict(a, b, spread, m["better"], m["bound"])
            bad += result == "worse"
            print(f"{workload:<16} {m['name']:<30} {a:>12.5g} {b:>12.5g} "
                  f"{b / a if a else float('nan'):>8.3f} {spread:>7.1%} {m['bound']:>6.0%}  {result}")
        fail_a, _ = side_value(cells(side_a, "end_to_end", "fail_ratio"))
        fail_b, _ = side_value(cells(side_b, "end_to_end", "fail_ratio"))
        rose = fail_b > fail_a
        bad += rose
        print(f"{workload:<16} {'fail_ratio':<30} {fail_a:>12.5g} {fail_b:>12.5g} "
              f"{'':>8} {'':>7} {'0 abs':>6}  {'worse' if rose else 'same'}")
        if args.layers:
            for m in spec["per_layer"]:
                try:
                    a, _ = side_value(cells(side_a, "per_layer", m["name"]))
                    b, _ = side_value(cells(side_b, "per_layer", m["name"]))
                except KeyError:
                    continue  # a side was run without the traced pass
                if a or b:
                    note = "equal" if a == b else ""
                    print(f"{workload:<16}   {m['name']:<28} {a:>12.5g} {b:>12.5g} "
                          f"{b / a if a else float('nan'):>8.3f} {'':>7} {'':>6}  {note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
