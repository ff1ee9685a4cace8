"""Compare two result sets written by suite.py: parent first, change second.

    python3 perfbench/compare.py parent.json change.json

One row per workload and end-to-end metric, with each side's median and
quartiles, the pairs the change won (runs paired by seed; ties count for
neither side) and a verdict:

* improved: the change wins at least 9 in 10 pairs and its median beats
  the parent's by more than the parent's interquartile distance;
* regressed: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
* unresolved: neither, and the parent's own spread (interquartile
  distance over median) is wider than the bound, unless every run of
  the change reads better than every run of the parent;
* unchanged: otherwise.

A gain does not count when the change answers worse: if any of its runs
of a workload gave a wrong answer (correct false), or it failed a larger
share of its attempted ops than the parent, the workload is flagged and
each of its would-be "improved" verdicts reads "held back".
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from common import BENCH_DIR, quartiles

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", wins
    if -gain > bound * abs(pm):
        return "regressed", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def failures(runs: list[dict]) -> tuple[bool, Fraction]:
    """Whether every run was correct, and the share of attempted ops that failed."""
    return (all(r["correct"] for r in runs),
            Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    print(f"parent {parent['root']}\nchange {change['root']}")
    print(f"{'workload':<10} {'metric':<16} {'parent median [q1, q3]':>34}"
          f" {'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for workload, p_runs in parent["runs"].items():
        c_runs = change["runs"].get(workload)
        if not c_runs:
            continue
        c_by_seed = {r["seed"]: r for r in c_runs}
        p_correct, p_failed = failures(p_runs)
        c_correct, c_failed = failures(c_runs)
        worse = not c_correct or c_failed > p_failed
        if worse:
            print(f"{workload:<10} FLAGGED: change correct {c_correct} (parent {p_correct}),"
                  f" failed share {float(c_failed):.4f} (parent {float(p_failed):.4f});"
                  f" no gain counts")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name] for r in p_runs]
            c_vals = [r["metrics"][name] for r in c_runs]
            pairs = [(r["metrics"][name], c_by_seed[r["seed"]]["metrics"][name])
                     for r in p_runs if r["seed"] in c_by_seed]
            word, wins = verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"])
            if worse and word == "improved":
                word = "held back"
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            print(f"{workload:<10} {name:<16}"
                  f" {pq[1]:>12.4f} [{pq[0]:.4f}, {pq[2]:.4f}]"
                  f" {cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}]"
                  f" {wins:>3}/{len(pairs):<2}  {word} (bound {metric['bound']},"
                  f" {metric['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
