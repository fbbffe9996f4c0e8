"""Starts the timed CLI children from a process that stays small, and
samples the speed of the CPU they run on while they run.

On Linux a child's ``ru_maxrss`` survives ``exec`` and starts from the
high-water mark of the process that spawned it (``subprocess`` uses vfork).
The benchmark process grows while it checks large reports or replays calls
in-process, so children are spawned from here instead, and each child's
peak RSS is its own.

The launcher pins itself, and so every child, to one CPU (the one named
on its command line).  While a child runs, the launcher wakes every
``PROBE_GAP_S`` and times one fixed piece of interpreter work on that
same CPU.  On a shared host the CPU's speed drifts by tens of percent
within a minute; the probe's mean time during a call, over a fixed
reference time, is the slowdown the call suffered (see ``run.py``).  The probe takes a few percent of the CPU from the child,
the same share on every call.

Protocol: one JSON request per stdin line, ``{"argv", "stdout", "stderr",
"timeout"}``; one JSON reply per stdout line, ``{"seconds", "maxrss_kb",
"code", "probe_mean_s", "probe_min_s"}``.  The launcher exits
when stdin closes.
"""

import json
import os
import select
import subprocess
import sys
import threading
import time

PROBE_GAP_S = 0.02
PROBE_KEYS = [str(i) for i in range(10000)]


def probe_unit() -> float:
    """Seconds it takes to fill a dict with string keys (about 1 ms on a
    current x86 core).  Of the probes tried (an integer loop, a float sum,
    a numpy sort, this), this one's slowdown under host load followed the
    slowdown of all six CLI calls most closely."""
    start = time.perf_counter()
    table = {}
    for key in PROBE_KEYS:
        table[key] = len(key)
    return time.perf_counter() - start


def run(request: dict) -> dict:
    probes = []
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                probes.append(probe_unit())
                if select.select([pidfd], [], [], PROBE_GAP_S)[0]:
                    break
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "maxrss_kb": usage.ru_maxrss,
        "code": proc.returncode,
        "probe_mean_s": sum(probes) / len(probes),
        "probe_min_s": min(probes),
    }


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
