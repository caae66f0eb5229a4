"""Starts the benchmark's child processes and reports on each of them.

    python perfbench/spawner.py    # one JSON request per stdin line, one JSON reply per stdout line

A request is ``{"argv", "stdin" (base64 or null), "env", "cwd", "timeout",
"stderr"}``; the reply is ``{"code", "out" (base64), "err", "wall", "rss_kb"}``
with the child's exit code, stdout, stderr, wall time and peak RSS.

Why a separate process: on Linux a child's peak RSS (``ru_maxrss``) starts
from its parent's RSS at fork.  The benchmark itself holds mpmath and the
run's data (~30 MB, as much as a ti2kit process), so children forked from it
could never report less; forked from this small process they can.
"""

import base64
import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def spawn(argv, stdin, env, cwd, timeout, stderr_path) -> dict:
    with open(stderr_path, "w+b") as err:
        t0 = perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            if stdin is not None:
                try:
                    p.stdin.write(stdin)
                except BrokenPipeError:
                    pass
                finally:
                    p.stdin.close()
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        err.seek(0)
        return {"code": p.returncode, "out": base64.b64encode(out).decode(),
                "err": err.read().decode(errors="replace"), "wall": wall, "rss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        stdin = base64.b64decode(req["stdin"]) if req["stdin"] is not None else None
        reply = spawn(req["argv"], stdin, req["env"], req["cwd"], req["timeout"], req["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
