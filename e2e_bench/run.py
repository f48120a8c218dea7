"""End-to-end benchmark of the paper's Fig. 9 and Fig. 7 workloads.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_bench/run.py --workload NAME --smoke [--trace 0|1]
    python3 e2e_bench/run.py --report

Run from the repository root.  ``--trace 0`` starts three fresh child
processes in turn; each sets the workload up (imports, dataset, ground
truth, backend, one untimed warm-up job) and then runs timed jobs for a
third of ``--seconds``.  Every job is checked against its ground truth
and bracketed by the reference kernel of ``refkernel.py``; times are
reported in seconds on the reference host.  The end-to-end metrics are
medians over all jobs (``setup_s``: over the three set-ups).

``--trace 1`` runs one untraced child (plus the Pregel-like baseline)
and one child with spans around every layer's entry points, and
reports the per-layer metrics of ``layers.py``; the span dump goes to
``e2e_bench/out/``.  ``--smoke`` runs one job per child on a small
graph.  ``--report`` summarizes the spread across the runs recorded in
``e2e_bench/out/ledger.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import DETERMINISTIC_COUNTERS, WORKLOADS  # noqa: E402

#: set-ups per timed run; setup_s is their median
CHILDREN = 3
#: every child must have ended this long after the run started
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("job_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
)


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # spill files and other temporaries stay inside the checkout
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def run_child(options: list, deadline: float, tag: str) -> dict:
    """Run ``child.py`` in its own session; returns its JSON result."""
    out_path = os.path.join(OUT, f"child-{os.getpid()}-{tag}.json")
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--out", out_path] + options
    process = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the child's whole session: pool workers and kernel forks too
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise BenchmarkError(
            f"child {tag} " + ("timed out" if code is None
                              else f"exited with code {code}")
        )
    with open(out_path) as fh:
        result = json.load(fh)
    os.remove(out_path)
    return result


def judge(children: list) -> tuple[list, list]:
    """Mark every repetition; returns (all reps, failure reasons).

    A repetition fails when its result is wrong, when its deterministic
    counters differ from the run's first repetition (state carried
    between the fresh environments), or when the reference kernel next
    to it ran on a host that was not quiescent.
    """
    reps = [rep for child in children for rep in child["reps"]]
    reference = {k: reps[0]["counters"][k] for k in DETERMINISTIC_COUNTERS}
    reasons = []
    for rep in reps:
        why = []
        if not rep["correct"]:
            why.append("wrong result")
        counters = {k: rep["counters"][k] for k in DETERMINISTIC_COUNTERS}
        if counters != reference:
            why.append(f"counters {counters} != {reference}")
            rep["correct"] = False
        if rep["quiescence"]:
            why.append("not quiescent: " + "; ".join(rep["quiescence"]))
        rep["failure"] = why
        if why:
            reasons.append(why)
    return reps, reasons


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _print_samples(label, values, unit):
    q1, q2, q3 = _quartiles(values)
    print(f"  {label:<22} n={len(values):<3} median={q2:.4f} {unit}  "
          f"q1={q1:.4f} q3={q3:.4f}  (q3-q1)/median={(q3 - q1) / q2:.3f}")


def timed_run(args, deadline) -> tuple[dict, dict]:
    children = []
    count = 1 if args.smoke else CHILDREN
    spent = 0.0
    for i in range(count):
        # each child gets an equal share of what the earlier ones left
        budget = max(0.0, args.seconds - spent) / (count - i)
        options = ["--workload", args.workload, "--seed", str(args.seed),
                   "--mode", "timed", "--budget", str(budget)]
        if args.smoke:
            options.append("--smoke")
        children.append(run_child(options, deadline, f"timed{i}"))
        spent += children[-1]["timed_phase_s"]
    reps, reasons = judge(children)
    valid = [r for r in reps if not r["failure"]]
    if not valid:
        raise BenchmarkError(f"no valid repetition: {reasons}")
    setups = [c["setup"]["setup_s"] for c in children]
    metrics = {
        "job_s": statistics.median(r["job_s"] for r in valid),
        "cpu_s": statistics.median(r["cpu_s"] for r in valid),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in valid),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(children)} "
          f"children, {len(reps)} jobs, {len(reps) - len(valid)} failed")
    print(f"  config {json.dumps(children[0]['config'], sort_keys=True)}")
    print(f"  reference kernel: nominal {children[0]['ref_nominal_s']} s, "
          f"width {children[0]['kernel_width']}")
    _print_samples("job_s raw", [r["raw_job_s"] for r in valid], "s")
    _print_samples("job_s normalized", [r["job_s"] for r in valid], "s")
    _print_samples("cpu_s raw", [r["raw_cpu_s"] for r in valid], "s")
    _print_samples("cpu_s normalized", [r["cpu_s"] for r in valid], "s")
    _print_samples("ref kernel", [r["ref_s"] for r in valid], "s")
    _print_samples("peak_rss_mb", [r["peak_rss_mb"] for r in valid], "MiB")
    _print_samples("setup_s raw", [c["setup"]["raw_s"] for c in children], "s")
    _print_samples("setup_s normalized", setups, "s")
    for i, child in enumerate(children):
        jobs = [r["job_s"] for r in child["reps"] if not r["failure"]]
        print(f"  child {i}: setup_s={child['setup']['setup_s']:.4f} "
              f"jobs={len(child['reps'])} job_s median="
              + (f"{statistics.median(jobs):.4f}" if jobs else "-"))
    for why in reasons:
        print(f"  failed: {'; '.join(why)}")
    return metrics, {
        "attempted": len(reps), "failed": len(reasons),
        "correct": all(r["correct"] for r in reps),
        "samples": [[r["raw_job_s"], r["ref_s"]] for r in valid],
    }


def traced_run(args, deadline) -> tuple[dict, dict]:
    span_dir = os.path.join(OUT, f"spans-{os.getpid()}")
    os.makedirs(span_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--budget", str(args.seconds / 2)]
    if args.smoke:
        common.append("--smoke")
    try:
        untraced = run_child(common + ["--mode", "timed", "--baselines"],
                             deadline, "untraced")
        traced = run_child(common + ["--mode", "traced",
                                     "--span-dir", span_dir],
                           deadline, "traced")
    finally:
        for name in os.listdir(span_dir):
            os.remove(os.path.join(span_dir, name))
        os.rmdir(span_dir)
    reps, reasons = judge([untraced, traced])
    baselines = untraced["baselines"]
    baseline_ok = baselines["pregel_correct"] and \
        baselines.get("simulated_correct", True)
    if baselines["quiescence"] or not baseline_ok:
        reasons.append(["baseline: " + ("wrong result" if not baseline_ok
                                        else "; ".join(baselines["quiescence"]))])
    if not any(not r["failure"] for r in traced["reps"]) or \
            not any(not r["failure"] for r in untraced["reps"]):
        raise BenchmarkError(f"no valid repetition: {reasons}")
    parallelism = WORKLOADS[args.workload].parallelism
    metrics = layers.layer_metrics(untraced, traced, parallelism)
    dump = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
    with open(dump, "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "config": traced["config"],
            "driver": traced["driver_timeline"],
            "workers": traced.get("worker_timelines", []),
            "reps": [{k: r[k] for k in ("window", "ref_s", "raw_job_s")}
                     for r in traced["reps"]],
        }, fh)
    units = dict(layers.PER_LAYER)
    print(f"workload {args.workload} seed {args.seed}: traced "
          f"{len(traced['reps'])} jobs, untraced {len(untraced['reps'])}; "
          f"span dump {os.path.relpath(dump, ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    if metrics["executor.supersteps"] < layers.P90_MIN_SUPERSTEPS:
        print(f"  (fewer than {layers.P90_MIN_SUPERSTEPS} supersteps: "
              f"executor.superstep_p90_ms reports the maximum)")
    for why in reasons:
        print(f"  failed: {'; '.join(why)}")
    return metrics, {"attempted": len(reps) + 1, "failed": len(reasons),
                     "correct": baseline_ok and all(r["correct"] for r in reps)}


def _ledger_path() -> str:
    return os.path.join(OUT, "ledger.jsonl")


def report() -> int:
    """Spread of every metric across the runs in the ledger."""
    runs: dict = {}
    try:
        with open(_ledger_path()) as fh:
            for line in fh:
                entry = json.loads(line)
                key = (entry["workload"], entry["trace"])
                runs.setdefault(key, []).append(entry)
    except FileNotFoundError:
        print("no runs recorded yet")
        return 0
    for (workload, trace), entries in sorted(runs.items()):
        print(f"{workload} (trace {trace}): {len(entries)} runs, seeds "
              f"{sorted(e['seed'] for e in entries)}")
        for name in entries[0]["metrics"]:
            values = [e["metrics"][name] for e in entries]
            q1, q2, q3 = _quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            print(f"  {name:<34} median={q2:.6g}  q1={q1:.6g} q3={q3:.6g}  "
                  f"spread={spread:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args(argv)
    if args.report:
        return report()
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through run_child so the child's session dies too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    try:
        if args.trace:
            metrics, outcome = traced_run(args, deadline)
            units = dict(layers.PER_LAYER)
        else:
            metrics, outcome = timed_run(args, deadline)
            units = dict(END_TO_END)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.smoke:
        with open(_ledger_path(), "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds,
                "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "metrics": metrics, **outcome,
            }) + "\n")
    outcome.pop("samples", None)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
