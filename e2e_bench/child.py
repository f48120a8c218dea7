"""One benchmark child process: set a workload up, then time or trace it.

``run.py`` starts this in a fresh interpreter with every ``REPRO_*``
variable removed and ``PYTHONHASHSEED`` fixed; the result goes to the
JSON file named by ``--out``.

* ``--mode timed``: set up, then run untraced jobs until ``--budget``
  seconds are used; every job is bracketed by the reference kernel.
  ``--baselines`` adds the Pregel-like baseline (and, on the pool, the
  same job on the simulated backend) after the timed jobs.
* ``--mode traced``: the same, with :class:`tracing.SpanRecorder`
  installed before set-up; the spans of every job are returned.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import procstat  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402


class Kernel:
    """Reference-kernel brackets with a quiescence check on each."""

    def __init__(self, width: int):
        self.width = width
        self.quiescence = None

    def measure(self) -> tuple[float, list[str]]:
        before = self.quiescence.ticks() if self.quiescence else None
        seconds = refkernel.run_concurrent(self.width)
        violations = (
            self.quiescence.violations(before) if self.quiescence else []
        )
        return seconds, violations


def _counters(env) -> dict:
    """The job's counters; the disk bytes of its storage session beside."""
    counters = env.metrics.snapshot()
    session = env.storage_session
    counters["disk_bytes"] = session.disk_bytes() if session else 0
    return counters


def run_child(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    kernel = Kernel(workload.kernel_width)
    kernel_pre, _ = kernel.measure()

    # set-up starts before the first import of the program
    setup_started = time.perf_counter()
    from repro.graphs import datasets

    recorder = None
    if args.mode == "traced":
        import tracing

        recorder = tracing.SpanRecorder()
        recorder.install()
        recorder.install_worker_dump(args.span_dir)
    load_started = time.perf_counter()
    if args.smoke:
        base = workloads.small_graph(args.seed)
    else:
        base = datasets.load_dataset(workload.dataset)
    load_s = time.perf_counter() - load_started
    graph = workloads.seeded_graph(base, args.seed)
    runner = workloads.Runner(workload, graph)
    env = runner.new_env()
    warm_ok = runner.check(runner.run(env))
    runner.release(env)
    if not warm_ok:
        raise RuntimeError("the warm-up job returned a wrong result")
    setup_raw = time.perf_counter() - setup_started

    workers = runner.worker_pids()
    kernel.quiescence = procstat.Quiescence(workers)
    previous, previous_violations = kernel.measure()
    setup = {
        "raw_s": setup_raw,
        "ref_s": (kernel_pre + previous) / 2,
        "setup_s": refkernel.normalize(setup_raw, (kernel_pre + previous) / 2),
        "load_s": load_s,
    }

    reps = []
    phase_started = time.perf_counter()
    pids = [os.getpid()] + workers
    while True:
        rep_started = time.perf_counter()
        env = runner.new_env()
        for pid in pids:
            procstat.reset_peak_rss(pid)
        worker_cpu = [procstat.cpu_seconds(pid) for pid in workers]
        cpu_started = time.process_time()
        started = time.perf_counter()
        if recorder is not None:
            result = recorder.call("job", runner.run, env)
        else:
            result = runner.run(env)
        ended = time.perf_counter()
        driver_cpu = time.process_time() - cpu_started
        worker_cpu = [
            procstat.cpu_seconds(pid) - before
            for pid, before in zip(workers, worker_cpu)
        ]
        peak_rss = sum(procstat.peak_rss_mib(pid) for pid in pids)
        correct = runner.check(result)
        del result
        counters = _counters(env)
        runner.release(env)
        seconds, violations = kernel.measure()
        ref = (previous + seconds) / 2
        raw_job, raw_cpu = ended - started, driver_cpu + sum(worker_cpu)
        reps.append({
            "raw_job_s": raw_job,
            "raw_cpu_s": raw_cpu,
            "worker_cpu_s": worker_cpu,
            "ref_s": ref,
            "job_s": refkernel.normalize(raw_job, ref),
            "cpu_s": refkernel.normalize(raw_cpu, ref),
            "peak_rss_mb": peak_rss,
            "correct": correct,
            "counters": counters,
            "quiescence": previous_violations + violations,
            "window": [started, ended],
        })
        previous, previous_violations = seconds, violations
        # stop when the next job would end past the budget by more than
        # half its length, so runs overshoot and undershoot alike
        rep_s = time.perf_counter() - rep_started
        if args.smoke or time.perf_counter() - phase_started + rep_s / 2 \
                > args.budget:
            break

    out = {
        "timed_phase_s": time.perf_counter() - phase_started,
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "config": dataclasses.asdict(runner.config),
        "backend": workload.backend,
        "kernel_width": workload.kernel_width,
        "ref_nominal_s": refkernel.REF_NOMINAL_S,
        "setup": setup,
        "reps": reps,
    }
    if args.baselines:
        out["baselines"] = _baselines(runner, kernel, previous,
                                      previous_violations)
    if recorder is not None:
        out["driver_timeline"] = recorder.timeline()
    runner.close()
    if recorder is not None:
        recorder.uninstall()
        # the pool's workers wrote their spans when it closed
        out["worker_timelines"] = [
            _load_json(os.path.join(args.span_dir, name))
            for name in sorted(os.listdir(args.span_dir))
            if name.startswith("spans-")
        ]
    return out


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _baselines(runner, kernel, previous, previous_violations) -> dict:
    """Time the Pregel-like baseline and, on the pool, the simulated job."""
    from repro.runtime.metrics import MetricsCollector

    def bracketed(job):
        nonlocal previous, previous_violations
        started = time.perf_counter()
        outcome = job()
        raw = time.perf_counter() - started
        seconds, violations = kernel.measure()
        ref = (previous + seconds) / 2
        quiet = previous_violations + violations
        previous, previous_violations = seconds, violations
        return refkernel.normalize(raw, ref), outcome, quiet

    metrics = MetricsCollector()
    pregel_s, result, quiet = bracketed(lambda: runner.run_pregel(metrics))
    out = {
        "pregel_job_s": pregel_s,
        "pregel_correct": runner.check(result),
        "pregel_messages": metrics.records_shipped_remote,
        "quiescence": quiet,
    }
    if runner.workload.backend == "pool":
        env = runner.new_env("simulated")
        simulated_s, result, quiet = bracketed(lambda: runner.run(env))
        runner.release(env)
        out["simulated_job_s"] = simulated_s
        out["simulated_correct"] = runner.check(result)
        out["quiescence"] += quiet
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"),
                        default="timed")
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--span-dir", default=None)
    parser.add_argument("--baselines", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "traced" and not args.span_dir:
        parser.error("--mode traced needs --span-dir")
    result = run_child(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
