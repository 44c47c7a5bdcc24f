"""Run the benchmark in two checkouts as alternating pairs and compare the end-to-end metrics.

Pair ``i`` runs ``perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` once in each
checkout, one run after the other; the side that runs first alternates, the parent first in
even pairs.  Then it prints, per metric of the last JSON line of each run, each side's median
and quartiles, the relative change of the medians and in how many pairs the change did better,
in the direction ``BENCHMARK.json`` of the change gives (lower, where it names none).  A metric
counts as a win only when it is strictly better.  Pytest does not collect this file.  From the
root of the repository:

    python tests/pairs.py PARENT_DIR CHANGE_DIR --workload perfect_synthesis --pairs 10 \\
        --seconds 10 --seed 601
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object, the last line of standard output, of one benchmark run in ``checkout``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric present in every run: the quartiles of each side, the change of the
    medians relative to the parent's and the number of pairs the change won."""
    names = [n for n in parent[0]["metrics"] if all(n in r["metrics"] for r in parent + change)]
    rows = []
    for name in names:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        rows.append({
            "metric": name, "unit": parent[0]["metrics"][name]["unit"],
            "parent": quartiles(p), "change": quartiles(c),
            "relative": statistics.median(c) / statistics.median(p) - 1.0,
            "wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)), "pairs": len(p),
        })
    return rows


def table(rows: list[dict]) -> str:
    """The rows as a Markdown table."""
    lines = ["| metric | parent median (quartiles) | change median (quartiles) | change | wins |",
             "|---|---|---|---|---|"]
    for r in rows:
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        lines.append(f"| `{r['metric']}` ({r['unit']}) | {pm:.6g} ({p1:.6g}–{p3:.6g}) | "
                     f"{cm:.6g} ({c1:.6g}–{c3:.6g}) | {100 * r['relative']:+.1f} % | "
                     f"{r['wins']} of {r['pairs']} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed + i, args.seconds)
            runs[side].append(result)
            print(f"pair {i} {side}: correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
    print(table(summarize(runs["parent"], runs["change"], better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
