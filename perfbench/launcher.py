"""Spawns and times the benchmark's child processes from a small, long-lived process.

On Linux a child's `ru_maxrss` starts from the resident size of the process
that spawned it, because exec records the old address space's high-water
mark.  The benchmark process holds the generated model and the oracle, so
children it spawned itself would report its size instead of their own.  This
launcher is started before any of that exists and spawns every child.

Protocol: one JSON request per line on stdin,
`{"command": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}`; one JSON reply per line on stdout,
`{"wall_s": spawn to exit, "rss_kb": peak RSS, "code": exit code}`.  A child
still running at its timeout is killed.  The launcher exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(request["command"], cwd=request["cwd"], env=request["env"],
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout"], child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_kb": usage.ru_maxrss, "code": child.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
