"""Run every workload over several seeds and keep the results as a result set.

    python3 perfbench/suite.py                       # each workload once, default seed
    python3 perfbench/suite.py --seeds 1-10 --trace --out perfbench/results/x.json
    python3 perfbench/suite.py --root PARENT --out parent.json \
        --root CHANGE --out change.json --seeds 1-10

Every workload of BENCHMARK.json runs, each at its run_seconds, since a
claim must hold on all of them.  With two --root trees the runs alternate between them, and which tree
goes first alternates from seed to seed, so the two result sets form
the pairs that compare.py judges.  For every workload and end-to-end
metric the summary shows the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, quartiles

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
            "--root", str(root)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith("detail: "):
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "detail": json.loads(lines[-2][len("detail: "):]),
    }


def summarize(label: str, result_set: dict) -> None:
    print(f"\n== {label}")
    for workload, runs in result_set["runs"].items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct {correct}, attempted {attempted},"
              f" failed {failed}")
        for run in runs:
            for kind, reasons in run["detail"]["failures_by_kind"].items():
                print(f"    seed {run['seed']}: {kind}: {reasons}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            flag = "" if spread < metric["bound"] / 3 else "  WIDE"
            print(f"  {name:<18} {med:>12.4f} [{q1:.4f}, {q3:.4f}] {metric['unit']:<6}"
                  f" spread {spread:.4f} bound {metric['bound']}{flag}")
        for run in result_set["traces"].get(workload, []):
            print(f"  traced seed {run['seed']}: " + ", ".join(
                f"{k} {run['metrics'][k]:.4g}" for k in ("trace.overhead_ratio",
                                                        "trace.unattributed_s")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="program tree to measure; give twice to alternate two trees")
    parser.add_argument("--out", type=Path, action="append", default=[],
                        help="result set file, one per --root")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload and tree")
    args = parser.parse_args()
    roots = [r.resolve() for r in (args.root or [BENCH_DIR.parent])]
    if len(roots) > 2 or (args.out and len(args.out) != len(roots)):
        parser.error("give one or two --root, and as many --out as --root")
    seeds = parse_seeds(args.seeds)

    sets = [{"root": str(root), "seconds": SPEC["run_seconds"], "runs": {}, "traces": {}}
            for root in roots]
    for workload in WORKLOADS:
        for i, seed in enumerate(seeds):
            order = list(enumerate(roots))
            if i % 2:
                order.reverse()
            for k, root in order:
                run = run_once(root, workload, seed, 0)
                sets[k]["runs"].setdefault(workload, []).append(run)
                print(f"{workload} seed {seed} {root}: " + ", ".join(
                    f"{n} {v:.4g}" for n, v in run["metrics"].items()), flush=True)
        if args.trace:
            for k, root in enumerate(roots):
                run = run_once(root, workload, seeds[0], 1)
                sets[k]["traces"].setdefault(workload, []).append(run)
    for result_set in sets:
        first = next(iter(result_set["runs"].values()))[0]
        result_set["record"] = first["detail"]["record"]
        summarize(result_set["root"], result_set)
    for result_set, out in zip(sets, args.out):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result_set, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
