"""Helpers shared by the workloads: the program tree, child processes, statistics."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# ops that outlive this are killed and count as failed
OP_TIMEOUT_S = 60.0


def check_program(root: Path) -> None:
    """Exit with code 2 unless root holds the fusionrank sources."""
    if not (root / "src" / "fusionrank" / "__init__.py").is_file():
        print(f"error: no fusionrank sources under {root / 'src'}", file=sys.stderr)
        raise SystemExit(2)


def child_env(root: Path) -> dict:
    """Environment for program processes: this tree's sources, no job default.

    Every PYTHON* setting of the caller is dropped, so that bytecode
    caching, buffering and hashing are Python's defaults wherever the
    benchmark runs.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "FUSION_RANK_JOBS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool


class Spawner:
    """Client of spawner.py: runs each program process from a small parent."""

    def __init__(self, python: str, env: dict, cwd: Path, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [python, str(BENCH_DIR / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=cwd, text=True,
        )

    def run(self, argv: list[str], timeout: float = OP_TIMEOUT_S) -> Outcome:
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"argv": argv, "out": str(out), "err": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner exited")
        reply = json.loads(line)
        return Outcome(reply["code"], out.read_bytes(), err.read_bytes(), reply["wall_s"],
                       reply["maxrss_kb"], reply["timed_out"])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and its rank.

    That is the eleventh largest sample; the percentile reported with it
    is the share of samples at or below it.  With ten or fewer samples
    it falls back to the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
