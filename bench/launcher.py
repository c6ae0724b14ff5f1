"""Child-process launcher: runs commands read from stdin, one JSON line each.

For every request ``{"argv": [...]}`` it runs the command to completion and
answers ``{"code", "wall_s", "rss_mb", "stderr"}``. It exists so that the
CLI processes are started by a small interpreter: Linux reports a child's
peak RSS as at least the RSS of the process that forked it, and the
benchmark process itself grows large while it checks outputs.
"""
import json
import os
import subprocess
import sys
import threading
import time

OP_TIMEOUT_S = 150.0


def run(argv: list[str]) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": stderr[-400:].decode(errors="replace")}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line)["argv"])), flush=True)


if __name__ == "__main__":
    main()
