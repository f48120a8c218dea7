"""The fixed reference kernel that host-normalizes every timing.

Speed on a small shared host drifts by tens of percent within seconds,
so raw job seconds from two runs are not comparable.  Each timed
repetition is bracketed by this kernel, and a raw time is rescaled into
"seconds on the reference host"::

    normalized = raw * REF_NOMINAL_S / ref_measured

where ``ref_measured`` is the kernel's time around the repetition and
``REF_NOMINAL_S`` is a constant: the kernel's time on the reference
host.  The kernel mimics the engine's hot loops (dict-of-tuples state,
list comprehensions over candidate tuples, grouping and a min-update)
over a working set of the same order as the benchmark's jobs, because a
memory-bound kernel tracks the host's slow phases better than pure
arithmetic.  It never imports ``repro``, so no change to the program
can change the yardstick, and it runs with the garbage collector off.
"""

from __future__ import annotations

import gc
import os
import time

#: the kernel's time on the reference host (seconds); a constant, never
#: measured at run time
REF_NOMINAL_S = 0.5

#: entries in the kernel's dict state
KERNEL_SIZE = 400_000


def normalize(raw_s: float, ref_measured_s: float) -> float:
    """``raw_s`` in seconds on the reference host."""
    return raw_s * REF_NOMINAL_S / ref_measured_s


def _kernel_body(n: int = KERNEL_SIZE) -> int:
    state = {i: (i, (i * 7919) % n) for i in range(n)}
    candidates = [((k * 31 + 7) % n, v[1]) for k, v in state.items()]
    groups: dict = {}
    for key, candidate in candidates:
        group = groups.get(key)
        if group is None:
            groups[key] = [candidate]
        else:
            group.append(candidate)
    updated = 0
    for key, group in groups.items():
        best = min(group)
        if best < state[key][1]:
            state[key] = (key, best)
            updated += 1
    return updated


def run_kernel() -> float:
    """Run the kernel once in this process; returns its wall seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel_body()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def run_concurrent(width: int) -> float:
    """Run ``width`` kernels at once in forked children; the slowest wins.

    A job that keeps ``width`` worker processes busy is compared with
    ``width`` kernels competing for the same cores.  ``width == 1`` runs
    in-process: a separate interpreter tracks the job's own core worse.
    """
    if width == 1:
        return run_kernel()
    readers, pids = [], []
    try:
        for _ in range(width):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                code = 1
                try:
                    os.close(read_fd)
                    os.write(write_fd, repr(run_kernel()).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            readers.append(read_fd)
            pids.append(pid)
        times = []
        for fd in readers:
            chunks = []
            while True:
                chunk = os.read(fd, 64)
                if not chunk:
                    break
                chunks.append(chunk)
            times.append(float(b"".join(chunks)))
        return max(times)
    finally:
        for fd in readers:
            os.close(fd)
        for pid in pids:
            _pid, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                raise RuntimeError(f"reference kernel child {pid} failed")
