"""Per-process CPU, peak-RSS and quiescence readings from ``/proc``."""

from __future__ import annotations

import os
import threading

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(path: str) -> list[str]:
    with open(path) as fh:
        text = fh.read()
    # the command name may hold spaces; fields resume after its ')'
    return text[text.rindex(")") + 2:].split()


def cpu_ticks(path: str) -> int:
    """user + system clock ticks from a ``/proc/.../stat`` file."""
    fields = _stat_fields(path)
    return int(fields[11]) + int(fields[12])


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    return cpu_ticks(f"/proc/{pid}/stat") / _CLK_TCK


def reset_peak_rss(pid: int) -> None:
    """Reset ``VmHWM`` of ``pid`` to its current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Quiescence:
    """Checks that nothing but the reference kernel runs while it runs.

    The baseline is taken once the workload is set up: the threads alive
    then (the pool's queue feeder threads, for instance) may stay, but
    no new thread may appear, and neither those threads nor any pool
    worker may gain CPU while the kernel runs.
    """

    def __init__(self, worker_pids):
        self.worker_pids = list(worker_pids)
        self.threads = set(threading.enumerate())
        self._main_tid = threading.main_thread().native_id

    def ticks(self) -> dict:
        """CPU ticks of every pool worker and every non-main thread."""
        ticks = {}
        for pid in self.worker_pids:
            ticks[f"worker {pid}"] = cpu_ticks(f"/proc/{pid}/stat")
        for tid in os.listdir("/proc/self/task"):
            if int(tid) != self._main_tid:
                try:
                    ticks[f"thread {tid}"] = cpu_ticks(
                        f"/proc/self/task/{tid}/stat"
                    )
                except FileNotFoundError:  # thread ended meanwhile
                    pass
        return ticks

    def violations(self, before: dict) -> list[str]:
        """What broke quiescence since the ``ticks()`` reading ``before``;
        empty when nothing did."""
        found = [
            f"new thread {t.name}"
            for t in threading.enumerate() if t not in self.threads
        ]
        after = self.ticks()
        for name, ticks in after.items():
            if name not in before:
                found.append(f"{name} appeared")
            elif ticks > before[name]:
                found.append(f"{name} used {ticks - before[name]} ticks")
        return found
