"""The benchmark's workloads: a fixed search budget each, seeded per run.

Every workload is a closed loop with one client: the engine dispatches a
generation's batch of candidates and waits for all of them before it builds
the next one. The seed is the only input that varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str        # problem name understood by ``phmoea.cli.build_problem``
    algorithm: str      # "phmoea" or "nsga2"
    pop_size: int
    generations: int
    hv_reference: tuple[float, float]   # fixed, so final HV compares across seeds
    seeds_per_run: int  # searches per run, averaged to damp trajectory spread
    params: dict = field(default_factory=dict)  # overrides of the problem's SearchParams
    workers: int = 0    # > 0: evaluate through a WorkerPool of that many stub workers

    @property
    def budget(self) -> int:
        return self.pop_size * self.generations

    def search_seeds(self, seed: int) -> list[int]:
        """The run's search seeds; distinct run seeds never share one."""
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]


BENCH_REFERENCE = (1.1, 1.1)            # the CLI's hypervolume reference point
SURROGATE_REFERENCE = (4.0, 4e6)         # f1 mismatch, f2 parameter count
STUB_REFERENCE = (1.0, 25000.0)          # above the stub's largest f1 and f2

WORKLOADS = {w.name: w for w in (
    # archives, pools and refinement do most of the work; z2 grows ~1000 bins.
    # For runs by hand only, not in BENCHMARK.json: one search takes 9-15 s
    # and the seeds' trajectories differ in work by ~16%, so the median of
    # the three searches a run has time for spreads past the bound.
    Workload("hdtlz2-phmoea", "hdtlz2", "phmoea", 100, 100, BENCH_REFERENCE, 3),
    # bypasses archives and pools: sorting, selection, decode/repair, IGD
    Workload("hdtlz7-nsga2", "hdtlz7", "nsga2", 100, 100, BENCH_REFERENCE, 6),
    # discrete, conditional space; most duplicate rejections; network layer
    Workload("surrogate-phmoea", "surrogate", "phmoea", 100, 60, SURROGATE_REFERENCE, 8),
    # evaluation-bound: two external stub workers behind a WorkerPool
    Workload("worker-pool", "surrogate", "phmoea", 40, 15, STUB_REFERENCE, 4,
             params={"early_stop": False}, workers=2),
)}
