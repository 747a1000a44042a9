"""Layer spans for the traced run, recorded from outside the program.

``install`` replaces the public names each layer's callers look up (module
functions the engine imported, class methods, evaluator ``__call__``) with
wrappers that time and count every call, and ``uninstall`` puts the
originals back. The wrappers consume no randomness and change no argument or
result, so a traced run follows the same trajectory as an untraced one.

Busy times are inclusive: a span nested in another (``activity`` inside
``decode``, ``nd_sort_and_crowd`` inside ``environmental_select``) counts in
both. Spans that start on the main thread with no span open are top-level;
the run's time not covered by them is the engine's self time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self.refinement = None          # the run's RefinementState, once seen
        self.pool_workers = 0
        self._depth = 0
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Time ``owner.attr`` on the calling (main) thread."""
        original = vars(owner)[attr]
        busy, calls, clock = self.busy, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            self._depth += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._depth -= 1
                busy[name] += elapsed
                calls[name] += 1
                if not self._depth:
                    self.top_level_s += elapsed
            if observe is not None:
                observe(args, result)
            return result

        self._patch(owner, attr, original, traced)

    def wrap_threaded(self, owner, attr: str, name: str) -> None:
        """Time ``owner.attr`` when it runs on pool threads."""
        original = vars(owner)[attr]
        busy, calls, clock, lock = self.busy, self.calls, time.perf_counter, self._lock

        def traced(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                with lock:
                    busy[name] += elapsed
                    calls[name] += 1

        self._patch(owner, attr, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        traced.__name__ = getattr(original, "__name__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observers ------------------------------------------------------------

    def _on_admit(self, args, admitted) -> None:
        self.counts["dedup_admits" if admitted else "dedup_rejects"] += 1

    def _on_refine(self, args, splits) -> None:
        self.refinement = args[0]
        self.counts["splits"] += len(splits)

    def _on_evaluation(self, args, evaluation) -> None:
        if not evaluation.ok:
            self.counts["errors"] += 1

    def _on_evaluate_many(self, args, evaluations) -> None:
        self.pool_workers = len(args[0].clients)
        self.counts["errors"] += sum(not ev.ok for ev in evaluations)


def _public_methods(cls) -> list[str]:
    return [name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")]


def install(tracer: Tracer, phmoea) -> None:
    """Wrap every traced name of the ``phmoea`` package."""
    engine, space, metrics = phmoea.engine, phmoea.space, phmoea.metrics
    evaluators, cli = phmoea.evaluators, phmoea.cli
    wrap = tracer.wrap
    for fn in ("decode", "repair", "canonical_key", "sample_random"):
        wrap(engine, fn, "space." + fn)
    for fn in ("sample_candidate", "partition_players", "nd_sort_and_crowd",
               "environmental_select"):
        wrap(engine, fn, "engine." + fn)
    for method in _public_methods(engine.PlayerArchives):
        wrap(engine.PlayerArchives, method, "engine.archives." + method)
    wrap(space, "activity", "space.activity")
    for method in _public_methods(space.RefinementState):
        observe = tracer._on_refine if method == "refine" else None
        wrap(space.RefinementState, method, "space.refinement." + method, observe)
    for method in _public_methods(space.DedupRegistry):
        observe = tracer._on_admit if method == "admit" else None
        wrap(space.DedupRegistry, method, "space.dedup." + method, observe)
    wrap(metrics, "hv", "metrics.hv")
    wrap(metrics, "igd", "metrics.igd")
    wrap(phmoea.benchmarks.HBenchProblem, "objectives", "benchmarks.objectives")
    wrap(evaluators, "build_graph", "network.build_graph")
    wrap(evaluators, "count_params", "network.count_params")
    for cls in (evaluators.BenchmarkEvaluator, evaluators.SurrogateEvaluator):
        wrap(cls, "__call__", "evaluators.call", tracer._on_evaluation)
    wrap(evaluators.WorkerPool, "evaluate_many", "evaluators.evaluate_many",
         tracer._on_evaluate_many)
    tracer.wrap_threaded(evaluators.WorkerClient, "__call__", "evaluators.worker_call")
    wrap(cli, "build_problem", "cli.build_problem")
    wrap(cli, "write_run_outputs", "cli.write_run_outputs")


def layer_metrics(tracer: Tracer, run_s: float, top_level_in_run_s: float,
                  result, pop_size: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, by name."""
    b, c, k = tracer.busy, tracer.calls, tracer.counts
    attempts = k["dedup_admits"] + k["dedup_rejects"]
    state = tracer.refinement
    bins = sum(state.bin_count(i) for i in state.space.continuous_indices()) \
        if state is not None else 0
    pool_s = b["evaluators.evaluate_many"]
    return {
        "engine.sample_candidate_s": b["engine.sample_candidate"],
        "engine.sample_candidate_calls": c["engine.sample_candidate"],
        "engine.partition_players_s": b["engine.partition_players"],
        "engine.archives_update_s": b["engine.archives.update"],
        "engine.archives_split_bin_s": b["engine.archives.split_bin"],
        "engine.archives_split_bin_calls": c["engine.archives.split_bin"],
        "engine.nd_sort_s": b["engine.nd_sort_and_crowd"],
        "engine.nd_sort_calls": c["engine.nd_sort_and_crowd"],
        "engine.environmental_select_s": b["engine.environmental_select"],
        "engine.self_s": run_s - top_level_in_run_s,
        "space.decode_s": b["space.decode"],
        "space.decode_calls": c["space.decode"],
        "space.repair_s": b["space.repair"],
        "space.repair_calls": c["space.repair"],
        "space.activity_calls": c["space.activity"],
        "space.canonical_key_s": b["space.canonical_key"],
        "space.sample_random_s": b["space.sample_random"],
        "space.choice_count_calls": c["space.refinement.choice_count"],
        "space.refine_s": b["space.refinement.update"] + b["space.refinement.refine"],
        "space.splits": k["splits"],
        "space.bins_final": bins,
        "space.dedup_admits": k["dedup_admits"],
        "space.dedup_rejects": k["dedup_rejects"],
        "space.dedup_admit_ratio": k["dedup_admits"] / attempts if attempts else 0.0,
        "space.exhausted_slots": pop_size * result.generations - result.fes,
        "metrics.hv_s": b["metrics.hv"],
        "metrics.hv_calls": c["metrics.hv"],
        "metrics.igd_s": b["metrics.igd"],
        "metrics.igd_calls": c["metrics.igd"],
        "benchmarks.objectives_s": b["benchmarks.objectives"],
        "network.build_graph_s": b["network.build_graph"],
        "network.build_graph_calls": c["network.build_graph"],
        "network.count_params_s": b["network.count_params"],
        "evaluators.evaluate_s": b["evaluators.call"] + pool_s,
        "evaluators.worker_busy_s": b["evaluators.worker_call"],
        "evaluators.pool_utilisation": (b["evaluators.worker_call"]
                                        / (tracer.pool_workers * pool_s)
                                        if pool_s else 0.0),
        "evaluators.error_count": k["errors"],
        "cli.build_problem_s": b["cli.build_problem"],
        "cli.write_run_outputs_s": b["cli.write_run_outputs"],
    }


# Metrics that are exact counts: two traced runs of one seed must agree on them.
COUNT_METRICS = (
    "engine.sample_candidate_calls", "engine.archives_split_bin_calls",
    "engine.nd_sort_calls", "space.decode_calls", "space.repair_calls",
    "space.activity_calls", "space.choice_count_calls", "space.splits",
    "space.bins_final", "space.dedup_admits", "space.dedup_rejects",
    "space.exhausted_slots", "metrics.hv_calls", "metrics.igd_calls",
    "network.build_graph_calls", "evaluators.error_count")
