"""fusionrank benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload engine|requests --seed N \
        --seconds S --trace 0|1 [--root DIR]

Run from anywhere; the program measured is the fusionrank source tree
under DIR/src, by default the tree this directory sits in.  Every op is
one closed-loop request (one client; the next op starts when the
previous one ended), checked against references computed here (see
refs.py).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it, "detail: ",
holds the run record, the failing op kinds and the tail percentile.

--trace 0 reports the end-to-end metrics of BENCHMARK.json over whole
rounds of ops lasting at least --seconds.  --trace 1 runs a fixed
number of rounds (set by --seconds alone) once plainly and once with
every public fusionrank function wrapped (tracer.py), checks that the
outputs match, and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from common import BENCH_DIR, OP_TIMEOUT_S, Spawner, check_program, child_env, tail

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
DEFAULT_SEED = 1
# kept out of every run made while the benchmark was written; later
# performance claims must also hold on it
HELD_OUT_SEED = 4242
# set-up is measured this many times before the first round and once
# after every round; setup_s is the median
SETUP_PROBES_FIRST = 3
# seconds one round took at the commit that introduced the benchmark;
# they fix how many rounds a traced run makes, so it does the same ops
# on every commit
NOMINAL_ROUND_S = {"requests": 3.2, "engine": 2.3}
TRACE_SHARE = 0.4


@dataclass
class Record:
    kind: str
    latency_s: float
    status: str  # "ok", "wrong" (a wrong answer) or "crash"
    reason: str
    timed: bool = True


class Context:
    def __init__(self, root: Path, work: Path, spawner: Spawner):
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.python = sys.executable
        self.spawner = spawner

    def run_cli(self, op: gen.CliOp, trace_path: Path | None = None):
        if trace_path is None:
            argv = [self.python, "-m", "fusionrank", *op.args]
        else:
            argv = [self.python, str(BENCH_DIR / "launcher.py"), str(trace_path), "--",
                    *op.args]
        return self.spawner.run(argv)


# -- judging -----------------------------------------------------------------


def judge_cli(op: gen.CliOp, oc) -> tuple[str, str]:
    """Classify one CLI outcome: ok, a wrong answer, or a crash."""
    err = oc.stderr.decode(errors="replace")
    if oc.timed_out:
        return "crash", "timeout"
    if "Traceback (most recent call last)" in err:
        return "crash", "traceback"
    if oc.returncode == 1:
        if "disagreement" in err:
            return "wrong", "stated a disagreement"
        return "crash", "exit 1 without a stated disagreement"
    if oc.returncode != op.code:
        if oc.returncode in (0, 2, 3):
            return "wrong", f"exit {oc.returncode}, expected {op.code}"
        return "crash", f"exit {oc.returncode}"
    if op.code == 0:
        if oc.stdout != op.stdout:
            return "wrong", "stdout bytes differ"
        return "ok", ""
    lines = err.splitlines()
    if oc.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
        return "wrong", "refusal without a one-line error: message"
    return "ok", ""


def judge_engine(op: gen.EngineOp, reply: dict) -> tuple[str, str]:
    if "error" in reply:
        return "crash", reply["error"].split(":")[0]
    if op.refused is not None and reply.get("refused") != op.refused:
        return "wrong", "oracle refused" if reply.get("refused") else "oracle ran past its guard"
    if reply["values"] != op.values:
        return "wrong", "value differs"
    return "ok", ""


# -- set-up ------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import fusionrank; "
                "print(time.perf_counter() - t)")


def run_record(ctx: Context) -> dict:
    starts = [ctx.spawner.run([ctx.python, "-c", "pass"]).wall_s for _ in range(5)]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": importlib.metadata.version("mpmath"),
        "bare_start_ms": 1e3 * statistics.median(starts),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- runners -------------------------------------------------------------------


def trace_rounds(workload: str, seconds: int) -> int:
    return max(1, round(seconds * TRACE_SHARE / NOMINAL_ROUND_S[workload]))


class CliRunner:
    """Runs each op as its own `python -m fusionrank` process."""

    alive = True
    warm_up_rounds = 0  # every process starts cold anyway

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.peak_kb = 0

    def setup_probe(self) -> float:
        """`import fusionrank` time of a fresh interpreter."""
        oc = self.ctx.spawner.run([self.ctx.python, "-c", IMPORT_PROBE])
        if oc.returncode != 0:
            raise SystemExit(f"error: cannot import fusionrank: {oc.stderr.decode()}")
        return float(oc.stdout)

    def run(self, ops) -> list:
        return [self.ctx.run_cli(op) for op in ops]

    def record(self, op: gen.CliOp, oc, timed: bool) -> Record:
        self.peak_kb = max(self.peak_kb, oc.maxrss_kb)
        return Record(op.kind, oc.wall_s, *judge_cli(op, oc), timed)

    def close(self) -> int:
        return self.peak_kb


class WorkerDied(RuntimeError):
    pass


class Worker:
    """The long-lived library process; one JSON line per op each way."""

    def __init__(self, ctx: Context, trace: bool):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [ctx.python, str(BENCH_DIR / "engine_worker.py"), str(ctx.work),
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ctx.env, cwd=ctx.root,
            text=True,
        )
        self.alive = True
        self.ready = self._read()
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self.alive = False
            raise WorkerDied("the engine worker exited")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        reply = self.call({"op": "finish"})
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (BrokenPipeError, ValueError):
                pass


class EngineRunner:
    """Sends each op to one long-lived worker; a dead worker fails the rest."""

    warm_up_rounds = 1  # fills the memo once, as a long-lived caller does

    def __init__(self, ctx: Context, trace: bool = False):
        self.ctx = ctx
        gen.write_engine_rings(ctx.work)
        self.worker = Worker(ctx, trace)
        self.first_setup_s = self.worker.setup_s
        self.cpus = sorted(os.sched_getaffinity(0))
        self.rounds = 0

    @property
    def alive(self) -> bool:
        return self.worker.alive

    def setup_probe(self) -> float:
        """Start, import and ring load/validate of a second, throwaway worker."""
        probe = Worker(self.ctx, False)
        try:
            probe.finish()
        finally:
            probe.kill()
        return probe.setup_s

    def run(self, ops) -> list:
        # a CLI op lands on whichever CPU is free, but a long-lived worker
        # stays put, and the CPUs of a shared host slow down at different
        # times; moving it round by round lets every run see all of them
        os.sched_setaffinity(self.worker.proc.pid, {self.cpus[self.rounds % len(self.cpus)]})
        self.rounds += 1
        replies = []
        for op in ops:
            try:
                replies.append(self.worker.call(op.request))
            except WorkerDied:
                replies.append(None)
                break
        return replies + [None] * (len(ops) - len(replies))

    def record(self, op: gen.EngineOp, reply, timed: bool) -> Record:
        if reply is None:
            return Record(op.kind, 0.0, "crash", "worker died", False)
        return Record(op.kind, reply["latency_s"], *judge_engine(op, reply), timed)

    def close(self) -> int:
        try:
            return self.worker.finish()["maxrss_kb"] if self.worker.alive else 0
        finally:
            self.worker.kill()


def measure(runner, inputs: gen.Inputs, seconds: int, setup: list[float]):
    """Whole rounds until `seconds` of them are measured, with a set-up probe after each.

    Only the ops are inside the timed region; making inputs, judging
    outputs and probing set-up happen between rounds.  Returns the
    records, the measured time and the number of measured rounds.
    """
    records = []
    for _ in range(runner.warm_up_rounds):
        ops = inputs.next_round()
        records += [runner.record(op, out, False) for op, out in zip(ops, runner.run(ops))]
    measured, rounds = 0.0, 0
    while runner.alive and measured < seconds:
        ops = inputs.next_round()
        t0 = time.perf_counter()
        outputs = runner.run(ops)
        measured += time.perf_counter() - t0
        rounds += 1
        records += [runner.record(op, out, True) for op, out in zip(ops, outputs)]
        setup.append(runner.setup_probe())
    return records, measured, rounds


def cli_trace(ctx: Context, inputs: gen.Inputs, seconds: int):
    rounds = trace_rounds(inputs.workload, seconds)
    ops = [op for _ in range(rounds) for op in inputs.next_round()]
    records, mismatches = [], []
    plain_s = traced_s = unattributed = import_s = 0.0
    output_bytes = 0
    summaries = []
    trace_path = ctx.work / "trace.json"
    for op in ops:
        plain = ctx.run_cli(op)
        records.append(Record(op.kind, plain.wall_s, *judge_cli(op, plain)))
        trace_path.unlink(missing_ok=True)
        traced = ctx.run_cli(op, trace_path)
        if (hashlib.sha256(traced.stdout).digest() != hashlib.sha256(plain.stdout).digest()
                or traced.returncode != plain.returncode):
            mismatches.append(" ".join(op.args))
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        output_bytes += len(traced.stdout)
        if not trace_path.exists():
            mismatches.append("no trace written: " + " ".join(op.args))
            continue
        summary = json.loads(trace_path.read_text())
        summaries.append(summary)
        import_s += summary["import_s"]
        unattributed += traced.wall_s - summary["import_s"] - summary["root_s"]
    extra = {
        "cli.import_s": import_s,
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.unattributed_s": unattributed,
    }
    return records, merge_summaries(summaries), extra, mismatches, rounds


def engine_trace(ctx: Context, seed: int, seconds: int):
    """The same rounds in a plain and in a traced worker."""
    rounds = trace_rounds("engine", seconds)
    passes = {}
    for traced in (False, True):
        inputs = gen.Inputs("engine", seed, ctx.work)
        runner = EngineRunner(ctx, traced)
        try:
            records = []
            for _ in range(rounds + 1):
                ops = inputs.next_round()
                records += [runner.record(op, out, True)
                            for op, out in zip(ops, runner.run(ops))]
            passes[traced] = (records, runner.worker.ready, runner.worker.finish())
        finally:
            runner.worker.kill()
    plain, _, _ = passes[False]
    traced_records, ready, done = passes[True]
    summary = done["trace"]
    mismatches = [r.kind for r, t in zip(plain, traced_records)
                  if (r.status, r.reason) != (t.status, t.reason)]
    op_s = sum(r.latency_s for r in traced_records)
    extra = {
        "cli.import_s": ready["import_s"],
        "cli.output_bytes": 0,
        "trace.overhead_ratio": op_s / sum(r.latency_s for r in plain),
        "trace.unattributed_s": op_s - (summary["root_s"] - ready["root_s"]),
    }
    return plain, summary, extra, mismatches, rounds + 1


# -- metrics -----------------------------------------------------------------


def merge_summaries(summaries: list[dict]) -> dict:
    functions, raised = {}, {}
    n3_nonzero = 0
    for s in summaries:
        for name, rec in s["functions"].items():
            into = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += rec[key]
        for key, count in s["raised"].items():
            raised[key] = raised.get(key, 0) + count
        n3_nonzero += s["n3_nonzero"]
    return {"functions": functions, "raised": raised, "n3_nonzero": n3_nonzero}


def layer_values(summary: dict, extra: dict) -> dict:
    functions = summary["functions"]
    n3_calls = functions.get("fusion.n3", {}).get("calls", 0)
    values = dict(extra)
    values["fusion.n3.nonzero_ratio"] = summary["n3_nonzero"] / n3_calls if n3_calls else 0.0
    values["ranks.rank_bruteforce.refused"] = summary["raised"].get(
        "ranks.rank_bruteforce:EnumerationLimitError", 0)
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name not in values:
            function, field = name.rsplit(".", 1)
            values[name] = functions.get(function, {}).get(field, 0)
    return values


def end_to_end_values(records: list[Record], measured: float, setup_s: float,
                      peak_kb: int) -> tuple[dict, dict]:
    latencies = [r.latency_s for r in records if r.timed]
    tail_value, tail_pct = tail(latencies)
    failed = sum(r.status != "ok" for r in records)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / measured,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_value,
        "success_ratio": 1 - failed / len(records),
        "peak_rss_mb": peak_kb / 1024,
    }
    about = {"tail_percentile": round(tail_pct, 2), "timed_samples": len(latencies),
             "failed_ratio": failed / len(records)}
    return values, about


def failures_by_kind(records: list[Record]) -> dict:
    out: dict[str, dict[str, int]] = {}
    for r in records:
        if r.status != "ok":
            reasons = out.setdefault(r.kind, {})
            key = f"{r.status}: {r.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    return out


def report(args, values: dict, records: list[Record], detail: dict,
           correct: bool) -> int:
    spec = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    attempted = len(records)
    failed = sum(r.status != "ok" for r in records)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  attempted {attempted}  failed {failed}")
    for kind, reasons in detail["failures_by_kind"].items():
        for reason, count in reasons.items():
            print(f"  failed  {kind}: {reason} x{count}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6f} {m['unit']}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=BENCH_DIR.parent,
                        help="tree whose src/fusionrank is measured (default: this checkout)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = args.root.resolve()
    check_program(root)

    work_parent = BENCH_DIR / ".work"
    work = work_parent / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(sys.executable, child_env(root), root, work)
    try:
        return run(args, Context(root, work, spawner))
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass


def run(args, ctx: Context) -> int:
    inputs = gen.Inputs(args.workload, args.seed, ctx.work)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "record": run_record(ctx)}
    if args.workload == "requests":
        gen.write_request_files(ctx.work)

    if args.trace:
        if args.workload == "engine":
            records, summary, extra, mismatches, rounds = engine_trace(
                ctx, args.seed, args.seconds)
        else:
            records, summary, extra, mismatches, rounds = cli_trace(ctx, inputs, args.seconds)
        values = layer_values(summary, extra)
        detail.update(rounds=rounds, trace_mismatches=mismatches,
                      failures_by_kind=failures_by_kind(records),
                      functions=summary["functions"])
        correct = not mismatches and all(r.status != "wrong" for r in records)
        return report(args, values, records, detail, correct)

    if args.workload == "engine":
        runner = EngineRunner(ctx)
        setup = [runner.first_setup_s]
    else:
        runner = CliRunner(ctx)
        runner.setup_probe()  # warms the bytecode and file caches; not counted
        setup = []
    try:
        setup += [runner.setup_probe() for _ in range(SETUP_PROBES_FIRST - len(setup))]
        records, measured, rounds = measure(runner, inputs, args.seconds, setup)
    finally:
        peak_kb = runner.close()
    values, about = end_to_end_values(records, measured, statistics.median(setup), peak_kb)
    kinds = sorted({r.kind for r in records})
    detail.update(about, rounds=rounds, measured_s=measured, setup_samples=len(setup),
                  failures_by_kind=failures_by_kind(records),
                  p50_ms_by_kind={k: 1e3 * statistics.median(
                      [r.latency_s for r in records if r.kind == k and r.timed] or [0.0])
                      for k in kinds})
    correct = all(r.status != "wrong" for r in records)
    return report(args, values, records, detail, correct)


if __name__ == "__main__":
    sys.exit(main())
