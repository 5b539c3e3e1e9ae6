"""Child-process launcher for run.py.

Reads one JSON request per line from standard input, {"argv": [...],
"stderr": path}, runs that command to completion and answers with one JSON
line {"wall_s", "rss_kb", "code"}.  The wall time runs from spawn to exit;
rss_kb is the child's own ru_maxrss from wait4.

Linux carries a process's peak RSS across fork and exec, so a child spawned
by the harness would report at least the harness's own resident memory.  This
launcher imports nothing heavy and stays small, so the peak RSS it reports is
the child's.  It exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "rss_kb": usage.ru_maxrss, "code": proc.returncode}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
