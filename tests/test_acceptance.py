"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The benchmark searches (criteria 1-4) run once per variant in a
session fixture and are shared by the dependent criteria.
"""

import math
import time

import numpy as np
import pytest

from phmoea.benchmarks import HBenchProblem, reference_front
from phmoea.engine import (SearchParams, SearchProblem, nd_sort_and_crowd,
                           run_phmoea)
from phmoea.evaluators import (BenchmarkEvaluator, Evaluation,
                               SurrogateEvaluator)
from phmoea.metrics import hv, igd, nondominated_mask
from phmoea.network import build_graph, count_params
from phmoea.resample import OPERATORS, align
from phmoea.rng import WordStream
from phmoea.space import (RefinementState, builtin_space, canonical_key,
                          decode, sample_random)
from phmoea.cli import main as cli_main

from test_engine import individuals
from test_network import oracle_count

SEEDS = (0, 1, 2, 3, 4)
POP, GENS = 100, 100
RUN_TIME_LIMIT = 120.0          # seconds per benchmark run
HDTLZ2_TRUE_HV = 1.21 - math.pi / 4


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def run_benchmark(variant: str, seed: int):
    bench = HBenchProblem(variant, n=12, topology="chain", gamma=1.0)
    problem = SearchProblem(
        space=bench.space(), evaluator=BenchmarkEvaluator(bench),
        name=variant, reference_front=reference_front(variant, 1000),
        hv_reference=(1.1, 1.1))
    start = time.perf_counter()
    result = run_phmoea(problem, POP, GENS, params=SearchParams.benchmark(),
                        seed=seed)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def hdtlz2_runs():
    return [run_benchmark("hdtlz2", seed) for seed in SEEDS]


@pytest.fixture(scope="session")
def hdtlz7_runs():
    return [run_benchmark("hdtlz7", seed) for seed in SEEDS]


# ---------------------------------------------------------------------------
# 1-2: benchmark search quality
# ---------------------------------------------------------------------------

def test_criterion_1_hdtlz2_search_quality(hdtlz2_runs):
    igds = [r.history[-1].igd for r, _ in hdtlz2_runs]
    hvs = [r.history[-1].hv for r, _ in hdtlz2_runs]
    times = [t for _, t in hdtlz2_runs]
    passed = (np.mean(igds) <= 0.010 and np.mean(hvs) >= 0.410
              and max(times) <= RUN_TIME_LIMIT)
    report("criterion 1 (H-DTLZ2 quality)", passed,
           f"mean IGD {np.mean(igds):.7f} (<= 0.010), "
           f"mean HV {np.mean(hvs):.7f} (>= 0.410), "
           f"slowest run {max(times):.1f}s (<= {RUN_TIME_LIMIT:.0f}s)")


def test_criterion_2_hdtlz7_search_quality(hdtlz7_runs):
    igds = [r.history[-1].igd for r, _ in hdtlz7_runs]
    hvs = [r.history[-1].hv for r, _ in hdtlz7_runs]
    passed = np.mean(igds) <= 0.007 and np.mean(hvs) >= 0.545
    report("criterion 2 (H-DTLZ7 quality)", passed,
           f"mean IGD {np.mean(igds):.7f} (<= 0.007), "
           f"mean HV {np.mean(hvs):.7f} (>= 0.545)")


# ---------------------------------------------------------------------------
# 3: analytic hypervolume bound
# ---------------------------------------------------------------------------

def test_criterion_3_hv_never_exceeds_analytic_bound(hdtlz2_runs):
    worst = max(row.hv for r, _ in hdtlz2_runs for row in r.history)
    bound = HDTLZ2_TRUE_HV + 1e-6
    report("criterion 3 (analytic HV bound)", worst <= bound,
           f"max reported HV {worst:.7f} <= {bound:.7f}")


# ---------------------------------------------------------------------------
# 4: convergence shape
# ---------------------------------------------------------------------------

def test_criterion_4_convergence_shape(hdtlz2_runs, hdtlz7_runs):
    violations = []
    for name, runs in (("hdtlz2", hdtlz2_runs), ("hdtlz7", hdtlz7_runs)):
        for seed, (result, _) in zip(SEEDS, runs):
            gen5 = next(row.igd for row in result.history if row.gen == 5)
            gen_last = result.history[-1]
            assert gen_last.gen == GENS
            if gen_last.igd > gen5:
                violations.append((name, seed, gen5, gen_last.igd))
    report("criterion 4 (convergence shape)", not violations,
           f"IGD(gen {GENS}) <= IGD(gen 5) for all seeds; violations: {violations}")


# ---------------------------------------------------------------------------
# 5: budget and early stopping
# ---------------------------------------------------------------------------

def surrogate_problem(evaluator=None):
    space = builtin_space()
    return SearchProblem(
        space=space,
        evaluator=evaluator or SurrogateEvaluator(space),
        name="surrogate")


def test_criterion_5_budget_and_early_stop():
    params = SearchParams.real_task()
    assert params.early_stop and params.window == 8
    full = run_phmoea(surrogate_problem(), 50, 30, params=params, seed=0)

    space = builtin_space()
    counter = SurrogateEvaluator(space)

    def stagnant(decoded):
        ev = counter(decoded)
        return Evaluation(decoded=decoded, f1=1.0, f2=ev.f2)

    flat = run_phmoea(surrogate_problem(stagnant), 50, 30, params=params, seed=0)
    passed = full.fes <= 1500 and flat.fes < 1500 and flat.stopped_early
    report("criterion 5 (budget & early stop)", passed,
           f"surrogate FEs {full.fes} <= 1500; stagnant run stopped early at "
           f"{flat.fes} FEs (< 1500, stopped_early={flat.stopped_early})")


# ---------------------------------------------------------------------------
# 6: parameter-count oracle
# ---------------------------------------------------------------------------

def test_criterion_6_parameter_count_oracle():
    space = builtin_space()
    state = RefinementState(space)
    rng = WordStream(2024)
    mismatches = 0
    for _ in range(20):
        decoded = decode(sample_random(state, rng), state)
        cfg = decoded.as_dict(space)
        if count_params(build_graph(cfg, 50, 5)) != oracle_count(cfg, 50, 5):
            mismatches += 1

    worked = SurrogateEvaluator(space)
    genes = [0] * 24
    for idx, gene in {3: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1, 11: 1}.items():
        genes[idx - 1] = gene
    from phmoea.space import repair
    decoded = decode(repair(genes, state), state)
    total = count_params(build_graph(decoded.as_dict(space), 50, 5))
    passed = mismatches == 0 and total == 61397
    report("criterion 6 (parameter-count oracle)", passed,
           f"20/20 random configs match brute-force enumeration "
           f"(mismatches={mismatches}); worked example = {total} (expect 61397)")


# ---------------------------------------------------------------------------
# 7: indicator oracles
# ---------------------------------------------------------------------------

def test_criterion_7_indicator_oracles():
    rng = np.random.default_rng(7)
    failures = []
    for trial in range(10):
        pts = rng.random((int(rng.integers(3, 15)), 2))
        ref_point = (1.2, 1.2)
        exact = hv(pts, ref_point)
        lo = pts.min(axis=0)
        box = float(np.prod(np.asarray(ref_point) - lo))
        samples = lo + rng.random((1_000_000, 2)) * (np.asarray(ref_point) - lo)
        covered = np.zeros(len(samples), dtype=bool)
        for p in pts:
            covered |= (samples >= p).all(axis=1)
        frac = covered.mean()
        estimate = frac * box
        stderr = box * math.sqrt(frac * (1 - frac) / len(samples))
        if abs(exact - estimate) > 3 * stderr + 1e-12:
            failures.append((trial, exact, estimate, stderr))
    exact_igd = igd([(0.0, 0.0)], [(0.0, 1.0), (1.0, 0.0)])
    passed = not failures and exact_igd == 1.0
    report("criterion 7 (indicator oracles)", passed,
           f"HV within 3 standard errors of Monte-Carlo on 10 fronts "
           f"(failures={failures}); IGD example = {exact_igd:.7f} (exact 1)")


# ---------------------------------------------------------------------------
# 8: dominance invariance
# ---------------------------------------------------------------------------

def test_criterion_8_dominance_invariance():
    from phmoea.engine import min_max
    rng = np.random.default_rng(8)
    bad = 0
    for _ in range(100):
        scale = rng.uniform(1, 1e7, size=2)
        pts = rng.random((25, 2)) * scale
        pop = individuals(pts)
        nd_sort_and_crowd(pop)
        raw = [ind.rank for ind in pop]
        scaled = individuals(zip(min_max([ind.f1 for ind in pop]),
                                 min_max([ind.f2 for ind in pop])))
        nd_sort_and_crowd(scaled)
        if raw != [ind.rank for ind in scaled]:
            bad += 1
    report("criterion 8 (dominance invariance)", bad == 0,
           f"identical rank assignment on raw vs normalized objectives "
           f"for 100 random populations (violations={bad})")


# ---------------------------------------------------------------------------
# 9: deduplication across a full run
# ---------------------------------------------------------------------------

def test_criterion_9_dedup_across_run(hdtlz2_runs):
    dup_counts = []
    for result, _ in hdtlz2_runs:
        keys = result.evaluated_keys
        dup_counts.append(len(keys) - len(set(keys)))
    surro = run_phmoea(surrogate_problem(), 30, 10,
                       params=SearchParams.real_task(), seed=3)
    dup_counts.append(len(surro.evaluated_keys) - len(set(surro.evaluated_keys)))
    report("criterion 9 (dedup property)", all(d == 0 for d in dup_counts),
           f"no repeated canonical key among evaluated candidates "
           f"(duplicates per run: {dup_counts})")


# ---------------------------------------------------------------------------
# 10: resampling property suite
# ---------------------------------------------------------------------------

def test_criterion_10_resampling_suite():
    rng = np.random.default_rng(10)
    problems = []
    for op in OPERATORS:
        pool = {"pool_type": "avg"} if op == "pool" else {}
        for t_in, length in ((41, 9), (9, 41), (16, 16)):
            x = rng.normal(size=(t_in, 3))
            out = align(x, length, op, **pool)
            if out.shape != (length, 3):
                problems.append((op, t_in, length, "shape"))
            const = align(np.full((t_in, 2), 4.5), length, op, **pool)
            if not np.allclose(const, 4.5):
                problems.append((op, t_in, length, "constant"))
            for col in range(3):
                alone = align(x[:, col:col + 1], length, op, **pool)
                if not np.allclose(out[:, col:col + 1], alone):
                    problems.append((op, t_in, length, "independence"))
                    break
    ex1 = np.allclose(align(np.array([0.0, 1.0, 2.0]), 5, "linear"),
                      [0, 0.5, 1, 1.5, 2])
    ex2 = np.allclose(align(np.array([1.0, 2.0]), 5, "decimate_repeat"),
                      [1, 1, 1, 2, 2])
    ex3 = np.allclose(align(np.arange(6.0), 3, "pool", "avg"), [0.5, 2.5, 4.5])
    passed = not problems and ex1 and ex2 and ex3
    report("criterion 10 (resampling suite)", passed,
           f"shape/constant/independence over {len(OPERATORS)}x3 cases "
           f"(violations={problems}); worked examples pass={ex1 and ex2 and ex3}")


# ---------------------------------------------------------------------------
# 11: end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_11_end_to_end_determinism(tmp_path):
    args = ["search", "--problem", "hdtlz2", "--algo", "phmoea",
            "--pop", "20", "--gens", "10", "--seed", "7"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / "seed_007" / name).read_bytes()
        == (tmp_path / "b" / "seed_007" / name).read_bytes()
        for name in ("pareto_front.csv", "history.csv"))
    report("criterion 11 (determinism)", same,
           "identical manifests produce byte-identical pareto_front.csv "
           "and history.csv")


# ---------------------------------------------------------------------------
# 12: surrogate end-to-end smoke (stand-in for non-reproducible results)
# ---------------------------------------------------------------------------

def test_criterion_12_surrogate_smoke():
    result = run_phmoea(surrogate_problem(), 50, 30,
                        params=SearchParams.real_task(), seed=0)
    pts = np.array([[ind.f1, ind.f2] for ind in result.pareto])
    mutually_nd = bool(nondominated_mask(pts).all())
    distinct_f2 = len({ind.f2 for ind in result.pareto})
    space = builtin_space()

    def decodes_validly(ind):
        cfg = ind.decoded.as_dict(space)
        required = {"resample_op", "aligned_length", "norm_layer", "fusion_op",
                    "dropout", "learning_rate", "weight_decay", "loss_type"}
        return required <= set(cfg) and canonical_key(ind.decoded.values) != 0

    decodable = all(decodes_validly(ind) for ind in result.pareto)
    passed = (len(result.pareto) >= 5 and mutually_nd and distinct_f2 >= 5
              and decodable)
    report("criterion 12 (surrogate smoke)", passed,
           f"front size {len(result.pareto)} (>= 5), mutually ND={mutually_nd}, "
           f"distinct f2 values {distinct_f2} (>= 5), configs decode validly="
           f"{decodable}")
