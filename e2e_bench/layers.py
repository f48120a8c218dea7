"""Per-layer metrics of a traced run, from its span timelines and counters.

Every ``*_s`` metric is the self time of a layer's entry points (their
duration minus what their child spans cover), host-normalized like the
end-to-end times.  On the pool the worker-side layers are summed over
the ranks.  ``trace.unattributed_s`` is the self time of the job span
the benchmark opens around the whole job in the driver: time spent
outside every wrapped entry point.
"""

from __future__ import annotations

import statistics

import refkernel

#: (metric, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("solution_set.build_s", "s"),
    ("solution_set.probe_s", "s"),
    ("solution_set.apply_s", "s"),
    ("solution_set.accesses", "count"),
    ("solution_set.updates", "count"),
    ("solution_set.update_ratio", "ratio"),
    ("iterations.workset_records", "count"),
    ("iterations.delta_records", "count"),
    ("iterations.delta_per_workset", "ratio"),
    ("channels.records_shipped_remote", "count"),
    ("channels.records_shipped_local", "count"),
    ("channels.bytes_shipped", "bytes"),
    ("channels.batches_shipped", "count"),
    ("channels.ship_s", "s"),
    ("batch.keys_s", "s"),
    ("batch.hashes_s", "s"),
    ("batch.key_calls", "count"),
    ("drivers.self_s", "s"),
    ("drivers.calls", "count"),
    ("drivers.records_processed", "count"),
    ("fusion.self_s", "s"),
    ("fusion.calls", "count"),
    ("pool.run_job_s", "s"),
    ("pool.dispatch_s", "s"),
    ("pool.worker_cpu_s", "s"),
    ("pool.rank_skew", "ratio"),
    ("pool.parallel_efficiency", "ratio"),
    ("codec.dumps_s", "s"),
    ("codec.job_bytes", "bytes"),
    ("fabric.send_s", "s"),
    ("fabric.recv_wait_s", "s"),
    ("fabric.bytes_zero_copied", "bytes"),
    ("fabric.columns_zero_copied", "count"),
    ("storage.diskdict_get_s", "s"),
    ("storage.diskdict_put_s", "s"),
    ("storage.spill_io_s", "s"),
    ("storage.disk_bytes", "bytes"),
    ("storage.records_spilled", "count"),
    ("storage.bytes_spilled", "bytes"),
    ("executor.self_s", "s"),
    ("executor.supersteps", "count"),
    ("executor.superstep_p50_ms", "ms"),
    ("executor.superstep_p90_ms", "ms"),
    ("executor.superstep_max_ms", "ms"),
    ("optimizer.compile_s", "s"),
    ("optimizer.plan_switches", "count"),
    ("graphs.load_s", "s"),
    ("host.ref_kernel_s", "s"),
    ("host.job_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("baseline.pregel_job_s", "s"),
    ("baseline.incr_over_pregel", "ratio"),
    ("baseline.messages_over_pregel", "ratio"),
)

#: a p90 needs ten samples beyond it; below this many supersteps the
#: p90 slot reports the maximum instead
P90_MIN_SUPERSTEPS = 100

_SEND = ("Endpoint.send", "Endpoint.send_raw", "Endpoint.send_columns")


class _Totals:
    """Per-name calls, self seconds and total seconds inside a window."""

    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.bytes = 0

    def add(self, name, calls, self_s, total_s):
        self.calls[name] = self.calls.get(name, 0) + calls
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
        self.total_s[name] = self.total_s.get(name, 0.0) + total_s

    def s(self, *names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def n(self, *names) -> int:
        return sum(self.calls.get(n, 0) for n in names)


def _window(timeline, start, end, totals: _Totals):
    """Add the spans of ``timeline`` inside [start, end] to ``totals``;
    returns the selected spans."""
    spans = timeline["spans"]
    selected = {
        i for i, span in enumerate(spans)
        if span is not None and span["start"] >= start and span["end"] <= end
    }
    for i in sorted(selected):
        span = spans[i]
        totals.add(span["name"], 1, span["self_s"],
                   span["end"] - span["start"])
        totals.bytes += span.get("bytes", 0)
    for rollup in timeline["rollups"]:
        if rollup["parent"] in selected:
            totals.add(rollup["name"], rollup["calls"], rollup["self_s"],
                       rollup["total_s"])
    return [spans[i] for i in sorted(selected)]


def _uncovered(intervals, covers) -> float:
    """Seconds of ``intervals`` that no interval of ``covers`` overlaps."""
    total = 0.0
    for start, end in intervals:
        clipped = sorted(
            (max(s, start), min(e, end)) for s, e in covers
            if e > start and s < end
        )
        covered, cursor = 0.0, start
        for s, e in clipped:
            if e > cursor:
                covered += e - max(s, cursor)
                cursor = e
        total += (end - start) - covered
    return total


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def rep_layers(rep, traced) -> dict:
    """The per-layer metrics of one traced repetition."""
    start, end = rep["window"]
    factor = refkernel.REF_NOMINAL_S / rep["ref_s"]
    totals = _Totals()
    _window(traced["driver_timeline"], start, end, totals)
    busy, worker_runs = [], []
    for timeline in traced.get("worker_timelines", []):
        rank = _Totals()
        spans = _window(timeline, start, end, rank)
        for name in rank.calls:
            totals.add(name, rank.calls[name], rank.self_s[name],
                       rank.total_s[name])
        totals.bytes += rank.bytes
        runs = [(s["start"], s["end"]) for s in spans
                if s["name"] == "Executor.run"]
        worker_runs.extend(runs)
        busy.append(sum(e - s for s, e in runs) - rank.s("Endpoint.recv"))
    run_jobs = [
        (s["start"], s["end"])
        for s in traced["driver_timeline"]["spans"]
        if s is not None and s["name"] == "WorkerPool.run_job"
        and s["start"] >= start and s["end"] <= end
    ]
    counters = rep["counters"]
    log = counters["iteration_log"]
    steps_ms = [1000.0 * s["duration_s"] * factor for s in log] or [0.0]
    p90 = (
        _percentile(steps_ms, 0.9)
        if len(steps_ms) >= P90_MIN_SUPERSTEPS else max(steps_ms)
    )
    accesses = counters["solution_accesses"]
    worksets = sum(s["workset_size"] for s in log)
    deltas = sum(s["delta_size"] for s in log)
    return {
        "solution_set.build_s": factor * totals.s("SolutionSetIndex.build"),
        "solution_set.probe_s": factor * totals.s("SolutionSetIndex.lookup"),
        "solution_set.apply_s": factor * totals.s(
            "SolutionSetIndex.apply_delta", "SolutionSetIndex.apply_record"
        ),
        "solution_set.accesses": accesses,
        "solution_set.updates": counters["solution_updates"],
        "solution_set.update_ratio": (
            counters["solution_updates"] / accesses if accesses else 0.0
        ),
        "iterations.workset_records": worksets,
        "iterations.delta_records": deltas,
        "iterations.delta_per_workset": (
            deltas / worksets if worksets else 0.0
        ),
        "channels.records_shipped_remote": counters["records_shipped_remote"],
        "channels.records_shipped_local": counters["records_shipped_local"],
        "channels.bytes_shipped": counters["bytes_shipped"],
        "channels.batches_shipped": counters["batches_shipped"],
        "channels.ship_s": factor * totals.s("ship"),
        "batch.keys_s": factor * totals.s("RecordBatch.keys"),
        "batch.hashes_s": factor * totals.s(
            "RecordBatch.hashes", "RecordBatch.partition_targets"
        ),
        "batch.key_calls": totals.n("RecordBatch.keys"),
        "drivers.self_s": factor * totals.s("run_driver", "apply_combiner"),
        "drivers.calls": totals.n("run_driver", "apply_combiner"),
        "drivers.records_processed": counters["total_processed"],
        "fusion.self_s": factor * totals.s("run_fused_chain"),
        "fusion.calls": totals.n("run_fused_chain"),
        "pool.run_job_s": factor * sum(e - s for s, e in run_jobs),
        "pool.dispatch_s": factor * _uncovered(run_jobs, worker_runs),
        "pool.worker_cpu_s": factor * sum(rep["worker_cpu_s"]),
        "pool.rank_skew": (
            max(busy) / statistics.mean(busy) if busy and min(busy) > 0
            else 0.0
        ),
        "codec.dumps_s": factor * totals.s("dumps"),
        "codec.job_bytes": totals.bytes,
        "fabric.send_s": factor * totals.s(*_SEND),
        "fabric.recv_wait_s": factor * totals.s("Endpoint.recv"),
        "fabric.bytes_zero_copied": counters["bytes_zero_copied"],
        "fabric.columns_zero_copied": counters["columns_zero_copied"],
        "storage.diskdict_get_s": factor * totals.s(
            "DiskDict.get", "DiskDict.__getitem__"
        ),
        "storage.diskdict_put_s": factor * totals.s("DiskDict.__setitem__"),
        "storage.spill_io_s": factor * totals.s(
            "SpillFile.append", "SpillFile.read_entries"
        ),
        "storage.disk_bytes": counters["disk_bytes"],
        "storage.records_spilled": counters["records_spilled"],
        "storage.bytes_spilled": counters["bytes_spilled"],
        "executor.self_s": factor * totals.s("Executor.run"),
        "executor.supersteps": counters["supersteps"],
        "executor.superstep_p50_ms": statistics.median(steps_ms),
        "executor.superstep_p90_ms": p90,
        "executor.superstep_max_ms": max(steps_ms),
        "optimizer.compile_s": factor * totals.s("optimize_plan"),
        "optimizer.plan_switches": counters["plan_switches"],
        "host.ref_kernel_s": rep["ref_s"],
        "host.job_wall_s": rep["raw_job_s"],
        "trace.unattributed_s": factor * totals.s("job"),
    }


def layer_metrics(untraced: dict, traced: dict, parallelism: int) -> dict:
    """Per-layer metrics: the median over the traced repetitions, plus
    the ratios that compare the traced with the untraced child."""
    reps = [r for r in traced["reps"] if _valid(r)]
    per_rep = [rep_layers(r, traced) for r in reps]
    out = {
        name: statistics.median(values[name] for values in per_rep)
        for name in per_rep[0]
    }
    untraced_job = statistics.median(
        r["job_s"] for r in untraced["reps"] if _valid(r)
    )
    traced_job = statistics.median(r["job_s"] for r in reps)
    setup = traced["setup"]
    out["graphs.load_s"] = refkernel.normalize(
        setup["load_s"], setup["ref_s"]
    )
    out["trace.overhead_ratio"] = traced_job / untraced_job
    baselines = untraced["baselines"]
    simulated = baselines.get("simulated_job_s")
    out["pool.parallel_efficiency"] = (
        simulated / (parallelism * untraced_job) if simulated else 0.0
    )
    out["baseline.pregel_job_s"] = baselines["pregel_job_s"]
    out["baseline.incr_over_pregel"] = (
        untraced_job / baselines["pregel_job_s"]
    )
    messages = baselines["pregel_messages"]
    out["baseline.messages_over_pregel"] = (
        out["channels.records_shipped_remote"] / messages if messages else 0.0
    )
    return {name: out[name] for name, _unit in PER_LAYER}


def _valid(rep) -> bool:
    return rep["correct"] and not rep["quiescence"]
