"""Process spawner: one JSON request per stdin line, one JSON reply per line.

A request {"argv": [...], "out": PATH, "err": PATH, "timeout": S} runs
argv with stdout and stderr in the two files, in this process's working
directory and environment, and replies with the exit code, the wall
time, the peak RSS and whether the timeout killed it.

A spawned process inherits the peak RSS of the process that spawned it,
so spawning from the benchmark itself would report the benchmark's
memory; this process imports almost nothing to keep its own RSS below
that of any Python process it starts.
"""

import json
import os
import select
import signal
import sys
import time


def spawn(request: dict) -> dict:
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["out"], create, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, request["err"], create, 0o600),
    ]
    argv = request["argv"]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        # readable once the process has exited; it stays unreaped until wait4
        timed_out = not poller.poll(1000 * request["timeout"])
        wall = time.perf_counter() - t0
        if timed_out:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss, "timed_out": timed_out}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
