"""Lean launcher: run one command on one CPU; report its wall time, its peak
RSS and the speed of that CPU while it ran.

Usage: python3 -I -S launch.py STDOUT_FILE STDERR_FILE -- CMD [ARG ...]

Prints one JSON object: {"wall_s", "cpu_s", "maxrss_kb", "status", "speed"}.

Peak RSS. Linux carries a process's RSS high-water mark across fork and
exec, so a child spawned straight from a benchmark process that holds
hundreds of MB reports that process's peak as its own ru_maxrss. Spawning
from this small process (started with -I -S, importing only builtins, os
and _thread) bounds that inherited floor by the launcher's own footprint,
about 10 MB.

CPU speed. On a shared 2-vCPU VM the speed of a vCPU swings by up to 1.8x
over a few seconds, with no steal time to show for it, and the two vCPUs
swing independently. The launcher pins itself, and so the child, to the
faster of its CPUs by a short probe, and runs a fixed probe loop on that
CPU before the child, every PROBE_PERIOD_S while it runs, and after it.
Each probe is timed by its own thread's CPU time, so sharing the CPU with
the child does not slow it down. ``speed`` is the mean of PROBE_REF_S /
probe time: 1.0 at the reference speed, lower on a contended CPU. The
child's wall time times ``speed`` is its wall time at the reference speed,
about its wall time on an uncontended CPU of that VM.
The probes take about 1% of the CPU while the child runs.
"""

import _thread
import os
import sys
import time

PROBE_PERIOD_S = 0.2
PROBE_ITERATIONS = 5000
# CPU time of one probe at the reference speed: about the fastest it ran on
# the 2-vCPU Xeon VM the benchmark was written on.
PROBE_REF_S = 0.0011


def probe() -> float:
    """Speed of the current CPU relative to the reference (a dict and str
    workload like the scanner's own)."""
    start = time.thread_time()
    table = {}
    for i in range(PROBE_ITERATIONS):
        key = str(i % 500)
        table[key] = table.get(key, 0) + i
    return PROBE_REF_S / (time.thread_time() - start)


def pin_fastest_cpu() -> None:
    best = None
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed = max(probe() for _ in range(3))
        if best is None or speed > best[0]:
            best = (speed, cpu)
    os.sched_setaffinity(0, {best[1]})


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print("usage: launch.py STDOUT_FILE STDERR_FILE -- CMD [ARG ...]",
              file=sys.stderr)
        return 2
    out_path, err_path, cmd = argv[0], argv[1], argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    pin_fastest_cpu()
    speeds = [probe()]
    stop, stopped = _thread.allocate_lock(), _thread.allocate_lock()
    stop.acquire()
    stopped.acquire()

    def sample():
        while not stop.acquire(timeout=PROBE_PERIOD_S):
            speeds.append(probe())
        stopped.release()

    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions)
    _thread.start_new_thread(sample, ())
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    stop.release()
    stopped.acquire()
    speeds.append(probe())
    print('{"wall_s": %r, "cpu_s": %r, "maxrss_kb": %d, "status": %d, "speed": %r}'
          % (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
             os.waitstatus_to_exitcode(status), sum(speeds) / len(speeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
