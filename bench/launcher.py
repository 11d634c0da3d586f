"""Starts the benchmark's jobs and reports each one's wall time and peak RSS.

Linux carries a process's peak RSS across fork and exec, so a job started
straight from the benchmark, which has imported omloq, would report at least
the benchmark's own size.  The benchmark starts this small process first and
has it start every job instead.

Protocol: one JSON array per line on stdin, ``[argv, stdout_path,
stderr_path]``; one JSON object per line on stdout, ``{"secs", "rss_kb",
"code"}``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            secs = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        print(json.dumps({"secs": secs, "rss_kb": usage.ru_maxrss, "code": code}), flush=True)


if __name__ == "__main__":
    main()
