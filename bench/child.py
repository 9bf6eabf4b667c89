"""Run one command and write its wall time, exit code and peak RSS to a report file.

    python3 bench/child.py REPORT_PATH PROGRAM [ARG ...]

The command inherits this process's standard streams. Launching it from
this small process keeps the benchmark's own size out of the peak RSS the
kernel reports for it: on exec, a child's recorded peak starts from the
peak of the process it was forked from.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as f:
        json.dump({"wall_s": wall, "returncode": code, "peak_rss_kb": usage.ru_maxrss}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
