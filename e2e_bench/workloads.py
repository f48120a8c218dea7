"""The benchmark's workloads: the paper's Fig. 9 and Fig. 7 jobs.

Every workload runs one job at a time from one driver process (a closed
loop with a single client) through the public API: a fresh
``ExecutionEnvironment`` with an explicit ``RuntimeConfig`` per job.

The seed permutes the order of each vertex's adjacency list.  The engine
therefore receives a different record order on every seed, while the
graph, the answer and the amount of work stay those of the paper's
dataset, so runs on different seeds measure the same job.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

#: PageRank must match the numpy power iteration this closely, per vertex
PAGERANK_TOLERANCE = 1e-9

#: counters that must repeat exactly across a run's repetitions
DETERMINISTIC_COUNTERS = (
    "supersteps", "records_shipped_remote", "solution_accesses",
    "total_processed",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: registered dataset (``repro.graphs.datasets``)
    dataset: str
    #: "cc" (incremental Connected Components) or "pagerank"
    algorithm: str
    #: "simulated", or "pool" for one warm pool reused across jobs
    backend: str
    #: concurrent reference kernels: the number of busy processes
    kernel_width: int
    memory_budget_bytes: int | None = None
    parallelism: int = 2
    pagerank_iterations: int = 20


WORKLOADS = {
    w.name: w for w in (
        # Fig. 7 partition plan on the warm pool: the only workload that
        # crosses repro.cluster (codec, fabric, shm rings, barriers)
        Workload("pagerank-wikipedia-pool2", "wikipedia", "pagerank",
                 "pool", 2),
        # Fig. 9 "Stratosphere Incr." (delta-CC, cogroup, supersteps) with
        # the solution set on disk: solution-set probes and key extraction
        # as on every CC run, plus the only use of repro.storage, and 317
        # mostly tiny supersteps
        Workload("cc-incr-webbase-ooc", "webbase", "cc", "simulated", 1,
                 memory_budget_bytes=1 << 20),
    )
}


def seeded_graph(graph, seed: int):
    """A copy of ``graph`` with each adjacency list in a seeded order."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    order = np.lexsort((rng.random(graph.indices.size), rows))
    shuffled = copy.copy(graph)
    shuffled.indices = graph.indices[order]
    return shuffled


def small_graph(seed: int):
    """A small random graph for the smoke mode."""
    from repro.graphs import generators

    return generators.erdos_renyi(300, 6.0, seed=seed)


def runtime_config(workload: Workload):
    """The pinned configuration every job of ``workload`` runs with."""
    from repro.runtime.config import RuntimeConfig

    return RuntimeConfig(
        check_invariants=False, trace=False, trace_path=None,
        telemetry=False, memory_budget_bytes=workload.memory_budget_bytes,
    )


class Runner:
    """Runs ``workload`` jobs on one graph and checks every result."""

    def __init__(self, workload: Workload, graph):
        from repro.algorithms import connected_components, pagerank

        self.workload = workload
        self.graph = graph
        self.config = runtime_config(workload)
        if workload.algorithm == "cc":
            self.truth = connected_components.cc_ground_truth(graph)
        else:
            self.truth = pagerank.pagerank_reference(
                graph, workload.pagerank_iterations
            )
        self._backend = None
        if workload.backend == "pool":
            from repro.cluster.pool import PoolBackend

            self._backend = PoolBackend()

    def worker_pids(self) -> list[int]:
        pool = self._backend.pool if self._backend is not None else None
        return pool.worker_pids if pool is not None else []

    def new_env(self, backend: str | None = None):
        from repro import ExecutionEnvironment

        if backend is None and self._backend is not None:
            backend = self._backend
        return ExecutionEnvironment(
            self.workload.parallelism, config=self.config,
            backend=backend or "simulated",
        )

    def run(self, env) -> dict:
        from repro.algorithms import connected_components, pagerank

        if self.workload.algorithm == "cc":
            return connected_components.cc_incremental(
                env, self.graph, variant="cogroup", mode="superstep"
            )
        return pagerank.pagerank_bulk(
            env, self.graph, self.workload.pagerank_iterations,
            plan="partition",
        )

    def check(self, result: dict) -> bool:
        if self.workload.algorithm == "cc":
            return result == self.truth
        if result.keys() != self.truth.keys():
            return False
        return all(
            abs(result[v] - rank) <= PAGERANK_TOLERANCE
            for v, rank in self.truth.items()
        )

    def release(self, env) -> None:
        """Free a finished job's environment but keep the shared pool."""
        if env.backend is self._backend:
            if env.storage_session is not None:
                env.storage_session.close()
        else:
            env.close()

    def run_pregel(self, metrics) -> dict:
        """The in-repo Pregel-like baseline on the same graph."""
        from repro.algorithms import connected_components, pagerank

        if self.workload.algorithm == "cc":
            return connected_components.cc_pregel(
                self.graph, parallelism=self.workload.parallelism,
                metrics=metrics,
            )
        return pagerank.pagerank_pregel(
            self.graph, self.workload.pagerank_iterations,
            parallelism=self.workload.parallelism, metrics=metrics,
        )

    def close(self) -> None:
        if self._backend is not None:
            self._backend.close()
