"""Evaluator tests: benchmark wrapper, surrogate design, worker protocol."""

import sys
from pathlib import Path

import numpy as np
import pytest

from phmoea.benchmarks import HBenchProblem
from phmoea.evaluators import (BenchmarkEvaluator, SurrogateEvaluator,
                               WorkerClient, WorkerPool)
from phmoea.metrics import nondominated_mask
from phmoea.network import build_graph, count_params
from phmoea.space import (RefinementState, builtin_space, decode,
                          fresh_genotype, repair, sample_random)

WORKER = Path(__file__).parent / "worker_stub.py"

SPACE = builtin_space()
STATE = RefinementState(SPACE)


def worked_decoded():
    genes = [0] * 24
    overrides = {3: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1, 11: 1}
    for idx, gene in overrides.items():
        genes[idx - 1] = gene
    g = repair(fresh_genotype(SPACE, genes), SPACE, STATE)
    return decode(g, SPACE, STATE)


def make_client(mode: str, timeout: float = 10.0) -> WorkerClient:
    return WorkerClient([sys.executable, str(WORKER), mode], SPACE,
                        targets=5, timeout=timeout)


# ---------------------------------------------------------------------------
# Benchmark evaluator
# ---------------------------------------------------------------------------

class TestBenchmarkEvaluator:
    def test_all_gates_off_matches_hand_formula(self):
        bench = HBenchProblem("hdtlz2", n=6)
        space = bench.space()
        state = RefinementState(space)
        evaluator = BenchmarkEvaluator(bench)
        g = repair(fresh_genotype(space, [0] * len(space)), space, state)
        ev = evaluator(decode(g, space, state))
        z1 = state.representative(1, 0)
        z2 = state.representative(2, 0)
        # inactive tails sit at the neutral 0.5, so only z2 feeds the g-term
        g2 = (z2 - 0.5) ** 2 / 5
        assert ev.f1 == pytest.approx((1 + g2) * np.cos(np.pi / 2 * z1), rel=1e-12)
        assert ev.f2 == pytest.approx((1 + g2) * np.sin(np.pi / 2 * z1), rel=1e-12)

    def test_repeat_call_identical(self):
        bench = HBenchProblem("hdtlz7", n=5)
        space = bench.space()
        state = RefinementState(space)
        evaluator = BenchmarkEvaluator(bench)
        rng = np.random.default_rng(0)
        decoded = decode(sample_random(space, state, rng), space, state)
        a, b = evaluator(decoded), evaluator(decoded)
        assert (a.f1, a.f2) == (b.f1, b.f2)

    def test_call_counter(self):
        bench = HBenchProblem("hdtlz2", n=4)
        space = bench.space()
        state = RefinementState(space)
        evaluator = BenchmarkEvaluator(bench)
        rng = np.random.default_rng(1)
        for expected in range(1, 6):
            evaluator(decode(sample_random(space, state, rng), space, state))
            assert evaluator.calls == expected


# ---------------------------------------------------------------------------
# Surrogate evaluator
# ---------------------------------------------------------------------------

class TestSurrogate:
    def test_f2_is_exact_parameter_count(self):
        evaluator = SurrogateEvaluator(SPACE, targets=5, input_width=50)
        decoded = worked_decoded()
        ev = evaluator(decoded)
        assert ev.f2 == 61397
        assert ev.f2 == count_params(build_graph(decoded, SPACE, 50, 5))

    def test_deterministic(self):
        a = SurrogateEvaluator(SPACE)
        b = SurrogateEvaluator(SPACE)
        rng = np.random.default_rng(3)
        for _ in range(20):
            decoded = decode(sample_random(SPACE, STATE, rng), SPACE, STATE)
            assert a(decoded).f1 == b(decoded).f1

    def test_hidden_target_is_argmin_over_random_audit(self):
        evaluator = SurrogateEvaluator(SPACE)
        state = RefinementState(SPACE)
        target_genes = [evaluator._target_gene[v.index] for v in SPACE.variables]
        target = decode(repair(fresh_genotype(SPACE, target_genes), SPACE, state),
                        SPACE, state)
        target_f1 = evaluator(target).f1
        rng = np.random.default_rng(99)
        best = min(evaluator(decode(sample_random(SPACE, state, rng), SPACE, state)).f1
                   for _ in range(10_000))
        assert target_f1 <= best

    def test_conflict_in_random_sample(self):
        evaluator = SurrogateEvaluator(SPACE)
        rng = np.random.default_rng(7)
        pts = []
        for _ in range(10_000):
            ev = evaluator(decode(sample_random(SPACE, STATE, rng), SPACE, STATE))
            pts.append((ev.f1, ev.f2))
        pts = np.asarray(pts)
        front = pts[nondominated_mask(pts)]
        assert len({f2 for _, f2 in front}) >= 5


# ---------------------------------------------------------------------------
# External worker protocol
# ---------------------------------------------------------------------------

class TestWorkerProtocol:
    def test_ok_round_trip(self):
        with make_client("ok") as client:
            decoded = worked_decoded()
            ev = client(decoded)
            assert ev.ok
            cfg = decoded.as_dict(SPACE)
            assert ev.f1 == pytest.approx(round(cfg["dropout"] * 2.0, 6))
            assert ev.f2 == cfg["conv3_channels"] * 1000.0

    def test_mismatched_id_is_error(self):
        with make_client("bad_id") as client:
            ev = client(worked_decoded())
            assert not ev.ok
            assert "does not match" in ev.message

    def test_worker_reported_error(self):
        with make_client("report_error") as client:
            ev = client(worked_decoded())
            assert not ev.ok
            assert "diverged" in ev.message
            assert client.calls == 1  # the dispatch still consumed budget

    def test_malformed_response(self):
        with make_client("garbage") as client:
            ev = client(worked_decoded())
            assert not ev.ok
            assert "malformed" in ev.message

    def test_timeout(self):
        with make_client("slow", timeout=0.3) as client:
            ev = client(worked_decoded())
            assert not ev.ok
            assert "timeout" in ev.message

    def test_late_reply_does_not_desync_later_calls(self):
        # the first request outlives its timeout; its reply arrives while the
        # second request waits and must be discarded, not taken as the answer
        with make_client("slow_first", timeout=0.3) as client:
            decoded = worked_decoded()
            assert "timeout" in client(decoded).message
            client.timeout = 10.0
            cfg = decoded.as_dict(SPACE)
            for _ in range(3):
                ev = client(decoded)
                assert ev.ok, ev.message
                assert (ev.f1, ev.f2) == (round(cfg["dropout"] * 2.0, 6),
                                          cfg["conv3_channels"] * 1000.0)

    def test_pool_preserves_input_order(self):
        clients = [make_client("ok"), make_client("ok")]
        pool = WorkerPool(clients)
        try:
            state = RefinementState(SPACE)
            rng = np.random.default_rng(5)
            batch = [decode(sample_random(SPACE, state, rng), SPACE, state)
                     for _ in range(7)]
            results = pool.evaluate_many(batch)
            singles = [clients[0](dec) for dec in batch]
            assert [(r.f1, r.f2) for r in results] == \
                [(s.f1, s.f2) for s in singles]
        finally:
            pool.close()

    def test_pool_order_stable_under_uneven_completion(self):
        # workers that finish out of order must not reorder results
        pool = WorkerPool([make_client("jitter"), make_client("ok")])
        try:
            state = RefinementState(SPACE)
            rng = np.random.default_rng(17)
            batch = [decode(sample_random(SPACE, state, rng), SPACE, state)
                     for _ in range(9)]
            results = pool.evaluate_many(batch)
            expected = [(round(d.as_dict(SPACE)["dropout"] * 2.0, 6),
                         d.as_dict(SPACE)["conv3_channels"] * 1000.0)
                        for d in batch]
            assert [(r.f1, r.f2) for r in results] == expected
        finally:
            pool.close()

    def test_engine_driven_by_worker_pool(self):
        """A search over subprocess workers equals the in-process equivalent."""
        from phmoea.engine import SearchParams, SearchProblem, run_phmoea
        from phmoea.evaluators import Evaluation
        from phmoea.space import canonical_key

        def in_process(decoded):
            cfg = decoded.as_dict(SPACE)
            return Evaluation(key=canonical_key(decoded),
                              f1=round(cfg["dropout"] * 2.0, 6),
                              f2=cfg["conv3_channels"] * 1000.0)

        params = SearchParams.real_task()
        params.early_stop = False
        baseline = run_phmoea(SearchProblem(space=SPACE, evaluator=in_process),
                              10, 4, params=params, seed=13)
        pool = WorkerPool([make_client("ok"), make_client("ok")])
        try:
            remote = run_phmoea(SearchProblem(space=SPACE, evaluator=pool),
                                10, 4, params=params, seed=13)
        finally:
            pool.close()
        assert [(i.f1, i.f2, i.key) for i in baseline.pareto] == \
            [(i.f1, i.f2, i.key) for i in remote.pareto]
        assert baseline.fes == remote.fes == pool.calls
