"""The names the traced benchmark wraps exist, and wrapping them changes nothing.

``perfbench/tracing.py`` times a run from outside by replacing public names of
the ``phmoea`` package (module functions the engine looks up, class methods,
evaluator ``__call__``) and putting them back afterwards. A rename in the
package breaks it silently or loudly; these tests make it break here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

import phmoea
from phmoea import benchmarks, cli, engine, evaluators, metrics, space

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# every object whose attributes tracing may replace
OWNERS = (engine, space, metrics, evaluators, cli, engine.PlayerArchives,
          space.RefinementState, space.DedupRegistry, benchmarks.HBenchProblem,
          evaluators.BenchmarkEvaluator, evaluators.SurrogateEvaluator,
          evaluators.WorkerPool, evaluators.WorkerClient)

OUTPUTS = ("pareto_front.csv", "history.csv", "pareto_configs.json")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def search_digest(out_dir: Path, problem: str, algo: str) -> str:
    assert cli.main(["search", "--problem", problem, "--algo", algo, "--pop", "10",
                     "--gens", "4", "--out", str(out_dir)]) == 0
    sha = hashlib.sha256()
    for name in OUTPUTS:
        sha.update((out_dir / "seed_000" / name).read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("problem, algo", [("hdtlz7", "nsga2"), ("surrogate", "phmoea")])
def test_traced_search_matches_untraced_and_uninstalls(tmp_path, tracing, problem, algo):
    untraced = search_digest(tmp_path / "untraced", problem, algo)
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    tracing.install(tracer, phmoea)
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        traced = search_digest(tmp_path / "traced", problem, algo)
    finally:
        tracer.uninstall()

    assert traced == untraced
    for name in ("space.decode", "space.repair", "engine.environmental_select"):
        assert tracer.calls[name] > 0, name
    # admission compares decoded value tuples, so every attempt decodes and
    # none is hashed
    assert tracer.calls["space.canonical_key"] == 0
    assert tracer.calls["space.decode"] == \
        tracer.counts["dedup_admits"] + tracer.counts["dedup_rejects"]
    assert tracer.counts["dedup_rejects"] > 0
    # plain NSGA-II bypasses the archives, so it partitions nothing
    assert (tracer.calls["engine.partition_players"] > 0) == (algo == "phmoea")
    assert patched
    for owner, attr in patched:
        assert any(owner is known for known in OWNERS), (owner, attr)
    for owner, attrs in zip(OWNERS, before):
        restored = vars(owner)
        assert all(restored[attr] is value for attr, value in attrs.items()), owner


def test_layer_metrics_of_a_traced_run(tracing):
    """``layer_metrics`` reads the run result and the refinement state it saw."""
    bench = benchmarks.HBenchProblem("hdtlz7", n=6)
    problem = engine.SearchProblem(space=bench.space(),
                                   evaluator=evaluators.BenchmarkEvaluator(bench),
                                   hv_reference=(1.1, 1.1))
    tracer = tracing.Tracer()
    tracing.install(tracer, phmoea)
    try:
        result = engine.run_nsga2(problem, 10, 5, params=engine.SearchParams.benchmark())
    finally:
        tracer.uninstall()

    layers = tracing.layer_metrics(tracer, 1.0, tracer.top_level_s, result, 10)
    assert all(name in layers for name in tracing.COUNT_METRICS)
    assert layers["space.bins_final"] > 0
    assert layers["space.exhausted_slots"] == 10 * result.generations - result.fes
    assert layers["metrics.hv_calls"] == result.generations
