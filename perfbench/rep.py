"""One repetition of a workload, in a fresh process.

Sets the problem up through the public API the CLI uses, runs the search
once, writes the run directory with ``cli.write_run_outputs``, checks the
outputs and prints one JSON object on its last stdout line. ``run.py``
starts this script once per repetition; it can also be run by hand from the
repository root:

    python3 perfbench/rep.py --workload hdtlz7-nsga2 --seed 0 --trace 0

With ``--setup-only`` it measures set-up and exits without searching.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import stub_worker  # noqa: E402
from workloads import BENCH_REFERENCE, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

HV_TOLERANCE = 1e-9


class RecordingPool:
    """Hands batches to a WorkerPool and keeps every (config, reply) pair."""

    def __init__(self, pool):
        self.pool = pool
        self.dispatched = []

    def evaluate_many(self, batch):
        evaluations = self.pool.evaluate_many(batch)
        self.dispatched.extend(zip(batch, evaluations))
        return evaluations


def analytic_hv_bound(variant: str) -> float:
    """Upper bound on the hypervolume any front can reach w.r.t. BENCH_REFERENCE.

    Every attainable point is weakly dominated by the analytic front. The
    front is sampled on a fine grid and the region it dominates integrated
    over f1; each interval between samples takes the lower f2 of its right
    end, which over-counts the area by a vanishing amount.
    """
    import numpy as np
    r1, r2 = BENCH_REFERENCE
    u = np.linspace(0.0, 1.0, 200_001)
    if variant == "hdtlz2":
        f1, f2 = np.cos(0.5 * np.pi * u), np.sin(0.5 * np.pi * u)
        order = np.argsort(f1)
        f1, f2 = f1[order], f2[order]
    else:
        f1, f2 = u, 0.5 * (2.0 - u * (1.0 + np.sin(3.0 * np.pi * u)))
    best_f2 = np.minimum.accumulate(f2)     # lowest f2 reachable with f1 <= x
    widths = np.diff(np.append(f1, r1))
    heights = r2 - np.append(best_f2[1:], best_f2[-1])
    return float(np.sum(widths * np.clip(heights, 0.0, None)))


def dominates(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a != b


def check_outputs(workload: Workload, result, problem, recorder) -> list[str]:
    """Every failed output check, as a message."""
    failures = []
    if result.fes > workload.budget:
        failures.append(f"fes {result.fes} exceeds budget {workload.budget}")
    if result.fes != len(result.evaluated_keys):
        failures.append(f"fes {result.fes} != {len(result.evaluated_keys)} evaluated keys")
    if len(set(result.evaluated_keys)) != len(result.evaluated_keys):
        failures.append("an evaluated key repeats")
    front = [(ind.f1, ind.f2) for ind in result.pareto]
    if not front:
        failures.append("empty front")
    if any(dominates(a, b) for a in front for b in front):
        failures.append("front is not mutually non-dominated")
    last = result.history[-1]
    if not math.isfinite(last.hv):
        failures.append(f"final hv {last.hv} not finite")
    if problem.reference_front is not None:
        bound = analytic_hv_bound(workload.problem)
        if last.hv > bound + HV_TOLERANCE:
            failures.append(f"final hv {last.hv} above analytic bound {bound}")
        if last.igd is None or not math.isfinite(last.igd):
            failures.append(f"final igd {last.igd} not finite")
    if recorder is not None:
        failures += check_pool(result, problem.space, recorder)
    return failures


def check_pool(result, space, recorder) -> list[str]:
    """Every reply matches the stub's formula; errors sit exactly where injected."""
    failures = []
    diverged = 0
    for decoded, ev in recorder.dispatched:
        config = json.loads(json.dumps(decoded.as_dict(space)))
        if stub_worker.diverges(config):
            diverged += 1
            if ev.ok or ev.message != stub_worker.DIVERGED:
                failures.append(f"key {ev.key}: expected an injected error, got {ev}")
        elif not ev.ok or (ev.f1, ev.f2) != stub_worker.objectives(config):
            failures.append(f"key {ev.key}: reply {ev} does not match the stub")
    if len(recorder.dispatched) != result.fes:
        failures.append(f"{len(recorder.dispatched)} dispatched, fes {result.fes}")
    if result.skipped_errors != diverged:
        failures.append(f"{result.skipped_errors} errors, {diverged} injected")
    # Refinement re-decodes survivors onto new bins, so a front point is
    # checked against the reply to the configuration that was evaluated.
    replies = {ev.key: (ev.f1, ev.f2) for _, ev in recorder.dispatched if ev.ok}
    for ind in result.pareto:
        if replies.get(ind.key) != (ind.f1, ind.f2):
            failures.append(f"front point {ind.key} does not match its stub reply")
    return failures[:5]


def digest(run_dir: Path) -> str:
    sha = hashlib.sha256()
    for name in ("pareto_front.csv", "history.csv"):
        sha.update((run_dir / name).read_bytes())
    return sha.hexdigest()


def set_up(cli, engine, evaluators, workload: Workload, seed: int):
    """Manifest, problem and (for pool workloads) the recording pool."""
    manifest = cli.RunManifest(problem=workload.problem, algorithm=workload.algorithm,
                               pop_size=workload.pop_size,
                               generations=workload.generations, seed=seed,
                               params=dict(workload.params))
    manifest.validate()
    problem = cli.build_problem(manifest)
    recorder = None
    if workload.workers:
        argv = [sys.executable, str(HERE / "stub_worker.py")]
        clients = []
        try:
            for _ in range(workload.workers):
                clients.append(evaluators.WorkerClient(argv, problem.space,
                                                       targets=manifest.targets,
                                                       timeout=60.0))
        except BaseException:
            for client in clients:
                client.close()
            raise
        recorder = RecordingPool(evaluators.WorkerPool(clients))
        problem = engine.SearchProblem(space=problem.space, evaluator=recorder,
                                       name=workload.name)
    return manifest, problem, recorder


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    import phmoea.cli as cli
    from phmoea import engine, evaluators, metrics

    tracer = None
    if args.trace:
        import phmoea
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, phmoea)

    manifest, problem, recorder = set_up(cli, engine, evaluators, workload, args.seed)
    setup_s = time.perf_counter() - START
    report = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            report.update(search(cli, engine, metrics, workload, manifest, problem,
                                 recorder, args.seed, tracer))
    finally:
        if recorder is not None:
            recorder.pool.close()
    print(json.dumps(report))
    return 0


def search(cli, engine, metrics, workload, manifest, problem, recorder, seed,
           tracer) -> dict:
    runner = engine.run_phmoea if workload.algorithm == "phmoea" else engine.run_nsga2
    params = manifest.search_params()
    covered_before = tracer.top_level_s if tracer else 0.0
    start = time.perf_counter()
    result = runner(problem, workload.pop_size, workload.generations,
                    params=params, seed=seed)
    run_s = time.perf_counter() - start
    covered_in_run = (tracer.top_level_s if tracer else 0.0) - covered_before

    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    try:
        cli.write_run_outputs(run_dir, manifest.resolved(), result, problem.space)
        run_digest = digest(run_dir)
    finally:
        shutil.rmtree(run_dir)
    if tracer is not None:
        tracer.uninstall()
    last = result.history[-1]
    report = {
        "run_s": run_s,
        "fes": result.fes,
        "skipped_errors": result.skipped_errors,
        "final_hv": metrics.hv([(ind.f1, ind.f2) for ind in result.pareto],
                               workload.hv_reference),
        "final_igd": last.igd,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": run_digest,
        "failures": check_outputs(workload, result, problem, recorder),
    }
    if tracer is not None:
        import tracing
        report["layers"] = tracing.layer_metrics(tracer, run_s, covered_in_run,
                                                 result, workload.pop_size)
    return report


if __name__ == "__main__":
    sys.exit(main())
