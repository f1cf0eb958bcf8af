"""Start benchmark requests from a small process and report how each one ran.

    python3 bench/spawn.py < requests

Reads one JSON request per line: {"argv", "stdout", "stderr", "timeout"}.
Runs argv with its output going to the two named files, kills it after
timeout seconds, and answers with one JSON line: {"wall_s", "code",
"max_rss_kib", "timed_out"}. Exits at end of input.

The runner cannot start the requests itself: Linux carries a parent's peak
resident set into the ru_maxrss of a child it forks and execs, and the
runner's own peak (about 20 MB) is above that of most requests. This process
imports almost nothing, so the peak of each request is its own.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    killed = threading.Event()
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = perf_counter() - start
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = killed.is_set() and os.WIFSIGNALED(status)
    return {"wall_s": wall_s, "code": proc.returncode, "max_rss_kib": usage.ru_maxrss, "timed_out": timed_out}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
