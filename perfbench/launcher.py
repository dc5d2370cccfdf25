"""Starts benchmark jobs for run.py from a small process of its own.

A child's peak RSS as rusage reports it also counts the peak of the
process that started it.  run.py grows while it checks large outputs,
so it starts every job through this launcher, which stays small.

One JSON line each way: run.py sends ``[argv, stdout path, stderr
path]``; the launcher runs the child to completion and answers
``[exit code, wall s, cpu s, peak RSS MB]``.  It exits when its stdin
closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err) as proc:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
        reply = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024]
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
