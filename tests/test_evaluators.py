"""Evaluator tests: benchmark wrapper, surrogate design, worker protocol."""

import math
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phmoea import evaluators
from phmoea.benchmarks import HBenchProblem
from phmoea.engine import SearchParams, SearchProblem, run_phmoea
from phmoea.evaluators import (_LOG_P_HI, _LOG_P_LO, _ORDINAL, _UPPER_HALF,
                               CAPACITY_WEIGHT, MAX_REPLY_BYTES, SURROGATE_TARGET_SEED,
                               BenchmarkEvaluator, Evaluation,
                               SurrogateEvaluator, WorkerClient, WorkerPool,
                               evaluate_safely)
from phmoea.metrics import nondominated_mask
from phmoea.network import build_graph, count_params
from phmoea.rng import WordStream
from phmoea.space import (DISCRETE, ConfigSpace, RefinementState, VariableSpec,
                          builtin_space, decode, repair, sample_random)

WORKER = Path(__file__).parent / "worker_stub.py"

SPACE = builtin_space()
STATE = RefinementState(SPACE)


def worked_decoded():
    genes = [0] * 24
    overrides = {2: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1}
    for pos, gene in overrides.items():
        genes[pos] = gene
    g = repair(genes, STATE)
    return decode(g, STATE)


def make_client(mode: str, timeout: float = 10.0) -> WorkerClient:
    return WorkerClient([sys.executable, str(WORKER), mode], SPACE,
                        targets=5, timeout=timeout)


class Counting:
    """A worker client that counts the candidates dispatched to it."""

    def __init__(self, client):
        self.client, self.calls = client, 0

    def __call__(self, decoded):
        self.calls += 1
        return self.client(decoded)

    def close(self):
        self.client.close()


# ---------------------------------------------------------------------------
# Benchmark evaluator
# ---------------------------------------------------------------------------

class TestBenchmarkEvaluator:
    def test_all_gates_off_matches_hand_formula(self):
        bench = HBenchProblem("hdtlz2", n=6)
        space = bench.space()
        state = RefinementState(space)
        evaluator = BenchmarkEvaluator(bench)
        genes = [0] * len(space)
        g = repair(genes, state)
        ev = evaluator(decode(g, state))
        z1, z2 = state.values[0][0], state.values[1][0]
        # inactive tails sit at the neutral 0.5, so only z2 feeds the g-term
        g2 = (z2 - 0.5) ** 2 / 5
        assert ev.f1 == pytest.approx((1 + g2) * np.cos(np.pi / 2 * z1), rel=1e-12)
        assert ev.f2 == pytest.approx((1 + g2) * np.sin(np.pi / 2 * z1), rel=1e-12)

    def test_repeat_call_identical(self):
        bench = HBenchProblem("hdtlz7", n=5)
        space = bench.space()
        state = RefinementState(space)
        evaluator = BenchmarkEvaluator(bench)
        rng = WordStream(0)
        decoded = decode(sample_random(state, rng), state)
        a, b = evaluator(decoded), evaluator(decoded)
        assert (a.f1, a.f2) == (b.f1, b.f2)


# ---------------------------------------------------------------------------
# Surrogate evaluator
# ---------------------------------------------------------------------------

class TestSurrogate:
    def test_f2_is_exact_parameter_count(self):
        evaluator = SurrogateEvaluator(SPACE, targets=5, input_width=50)
        decoded = worked_decoded()
        ev = evaluator(decoded)
        assert ev.f2 == 61397
        assert ev.f2 == count_params(build_graph(decoded.as_dict(SPACE), 50, 5))

    def test_deterministic(self):
        a = SurrogateEvaluator(SPACE)
        b = SurrogateEvaluator(SPACE)
        rng = WordStream(3)
        for _ in range(20):
            decoded = decode(sample_random(STATE, rng), STATE)
            assert a(decoded).f1 == b(decoded).f1

    def test_hidden_target_is_argmin_over_random_audit(self):
        evaluator = SurrogateEvaluator(SPACE)
        state = RefinementState(SPACE)
        target_gene = ReferenceSurrogate(SPACE).target_gene
        target_genes = [target_gene[v.name] for v in SPACE.variables]
        target = decode(repair(target_genes, state), state)
        target_f1 = evaluator(target).f1
        rng = WordStream(99)
        best = min(evaluator(decode(sample_random(state, rng), state)).f1
                   for _ in range(10_000))
        assert target_f1 <= best

    def test_conflict_in_random_sample(self):
        evaluator = SurrogateEvaluator(SPACE)
        rng = WordStream(7)
        pts = []
        for _ in range(10_000):
            ev = evaluator(decode(sample_random(STATE, rng), STATE))
            pts.append((ev.f1, ev.f2))
        pts = np.asarray(pts)
        front = pts[nondominated_mask(pts)]
        assert len({f2 for _, f2 in front}) >= 5


# ---------------------------------------------------------------------------
# Surrogate against its per-call formulas
# ---------------------------------------------------------------------------

def _scale_pos(var, value: float) -> float:
    a, b = var.bounds
    if var.scale == "log":
        return (math.log(value) - math.log(a)) / (math.log(b) - math.log(a))
    return (value - a) / (b - a)


class ReferenceSurrogate:
    """The surrogate computed per call, variable by variable, as before its
    tables: f1 walks the variables, f2 is ``count_params(build_graph(...))``."""

    def __init__(self, space, targets=5, input_width=50):
        self.space, self.targets, self.input_width = space, targets, input_width
        rng = np.random.default_rng(SURROGATE_TARGET_SEED)
        state = RefinementState(space, initial_bins=6)
        self.target_gene, self.target_value, self.offsets = {}, {}, {}
        for var, m, values in zip(space.variables, map(len, state.values), state.values):
            lo = m // 2 if var.name in _UPPER_HALF else 0
            gene = int(rng.integers(lo, m))
            self.target_gene[var.name] = gene
            if var.is_continuous:
                self.target_value[var.name] = values[gene]
            elif var.name not in _ORDINAL:
                offsets = rng.uniform(0.15, 0.6, size=m)
                offsets[gene] = 0.0
                self.offsets[var.name] = offsets

    def mismatch(self, decoded) -> float:
        total = 0.0
        for i, var in enumerate(self.space.variables):
            if decoded.values[i] is None:
                continue
            if var.is_continuous:
                delta = _scale_pos(var, decoded.values[i]) - _scale_pos(
                    var, self.target_value[var.name])
                total += delta * delta
            elif var.name in _ORDINAL:
                span = max(len(var.candidates) - 1, 1)  # one candidate never mismatches
                delta = (var.candidates.index(decoded.values[i])
                         - self.target_gene[var.name]) / span
                total += delta * delta
            else:
                total += float(self.offsets[var.name][var.candidates.index(decoded.values[i])])
        return total

    def __call__(self, decoded) -> tuple[float, float]:
        params = count_params(build_graph(decoded.as_dict(self.space),
                                          self.input_width, self.targets))
        level = (math.log(params) - _LOG_P_LO) / (_LOG_P_HI - _LOG_P_LO)
        level = min(max(level, 0.0), 1.0)
        f1 = self.mismatch(decoded) + CAPACITY_WEIGHT * (1.0 - level)
        return f1, float(params)


def refined_state(space, rounds: int = 30) -> RefinementState:
    """Partitions split at both bounds every round and in the middle at first."""
    state = RefinementState(space)
    for round_ in range(rounds):
        for pos in space.continuous_indices():
            counters, n = state.counters[pos], state.bin_count(pos)
            counters[0] = counters[n - 1] = state.persistence
            if round_ < 4:
                counters[n // 2] = state.persistence
        assert state.refine()
    return state


def edited_space(edit):
    """The built-in space after ``edit(variables)`` on its variable list."""
    variables = list(builtin_space().variables)
    edit(variables)
    return ConfigSpace(tuple(variables))


def without(name):
    return lambda variables: variables.remove(
        next(v for v in variables if v.name == name))


def configs(space, state, seed: int, n: int, **genes):
    """``n`` random repaired configurations with the named genes overridden."""
    rng = WordStream(seed)
    out = []
    for _ in range(n):
        g = list(sample_random(state, rng))
        for name, gene in genes.items():
            g[space.positions[name]] = gene
        out.append(decode(repair(g, state), state))
    return out


class TestSurrogateMatchesReference:
    def test_random_configs(self):
        evaluator, reference = SurrogateEvaluator(SPACE), ReferenceSurrogate(SPACE)
        for decoded in configs(SPACE, STATE, 11, 10_000):
            ev = evaluator(decoded)
            assert (ev.f1, ev.f2) == reference(decoded)

    def test_refined_bins_at_both_bounds_and_log_scale(self):
        evaluator, reference = SurrogateEvaluator(SPACE), ReferenceSurrogate(SPACE)
        state = refined_state(SPACE)
        edges = {}
        for pos in SPACE.continuous_indices():
            var = SPACE.variables[pos]
            edges[var.name] = (0, len(state.values[pos]) - 1)
            pts = np.array(state.grids[pos][0])
            lo, hi = (np.exp(pts) if var.scale == "log" else pts)[[1, -2]]
            assert lo - var.bounds[0] < 1e-6 * (var.bounds[1] - var.bounds[0])
            assert var.bounds[1] - hi < 1e-6 * (var.bounds[1] - var.bounds[0])
        assert {SPACE.variables[i].scale for i in SPACE.continuous_indices()} == \
            {"linear", "log"}
        batches = [configs(SPACE, state, 12, 1000)]
        for side in (0, 1):
            batches.append(configs(SPACE, state, 13 + side, 200, **{
                name: pair[side] for name, pair in edges.items()}))
        for batch in batches:
            for decoded in batch:
                ev = evaluator(decoded)
                assert (ev.f1, ev.f2) == reference(decoded)

    # one candidate, or two in an upper-half draw: integers(lo, lo + 1) draws nothing
    @pytest.mark.parametrize("name, candidates, terms", [
        ("batch_size", (32,), [0.0]), ("proj_channels", (8, 16), [1.0, 0.0])],
        ids=["batch_size", "proj_channels"])
    def test_one_candidate_ordinal_variable(self, name, candidates, terms):
        at = SPACE.positions[name]

        def narrowed(variables):
            variables[at] = replace(variables[at], candidates=candidates)
        space = edited_space(narrowed)
        evaluator, reference = SurrogateEvaluator(space), ReferenceSurrogate(space)
        assert list(evaluator._terms[at].values()) == terms
        for decoded in configs(space, RefinementState(space), 15, 500):
            ev = evaluator(decoded)
            assert (ev.f1, ev.f2) == reference(decoded)

    def test_every_config_a_seeded_search_dispatches(self):
        evaluator, reference = SurrogateEvaluator(SPACE), ReferenceSurrogate(SPACE)
        dispatched = []

        def recording(decoded):
            dispatched.append(decoded)
            return evaluator(decoded)

        result = run_phmoea(SearchProblem(space=SPACE, evaluator=recording,
                                          name="surrogate"),
                            100, 60, params=SearchParams.real_task(), seed=0)
        assert len(dispatched) == result.fes > 1000
        for decoded in dispatched:
            ev = evaluator(decoded)
            assert (ev.f1, ev.f2) == reference(decoded)


class TestSurrogateErrorPaths:
    """A space with a configuration ``build_graph`` rejects is refused when the
    evaluator is built, naming the variable; every other space counts."""

    @staticmethod
    def refused(space) -> str:
        with pytest.raises(ValueError) as info:
            SurrogateEvaluator(space)
        return str(info.value)

    def test_even_kernel(self):
        def even(variables):
            var = variables[9]
            variables[9] = replace(var, candidates=((3, 4, 5),) + var.candidates[1:])
        assert self.refused(edited_space(even)) == \
            "short_kernels: candidate (3, 4, 5) is not a tuple of odd sizes"

    def test_required_variable_inactive(self):
        def gated_dropout(variables):
            variables[12] = replace(variables[12], parent=("activation", ("ReLU",)))
        assert self.refused(edited_space(gated_dropout)) == \
            "dropout: build_graph needs it active in every configuration"

    def test_space_missing_weighting_mode(self):
        # build_graph reads the absent mode as None, so this counts, not fails
        space = edited_space(without("weighting_mode"))
        state = RefinementState(space)
        evaluator = SurrogateEvaluator(space)
        for fusion in range(6):
            for decoded in configs(space, state, 23 + fusion, 10, fusion_op=fusion):
                params = count_params(build_graph(decoded.as_dict(space), 50, 5))
                ev = evaluate_safely(evaluator, decoded)
                assert ev.ok and ev.f2 == params

    def test_space_missing_required_variable(self):
        assert self.refused(edited_space(without("dropout"))) == \
            "dropout: build_graph needs it active in every configuration"


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

    def test_close_releases_both_pipes_of_a_live_worker(self):
        client = make_client("ok")
        assert client(worked_decoded()).ok
        client.close()
        assert client._proc.stdin.closed and client._proc.stdout.closed
        assert client._proc.returncode is not None

    def test_close_releases_both_pipes_of_an_exited_worker(self):
        client = WorkerClient([sys.executable, "-c", "import sys; sys.exit(0)"], SPACE)
        client._proc.wait(timeout=10)
        client.close()
        assert client._proc.stdin.closed and client._proc.stdout.closed

    def test_close_kills_a_worker_that_outlives_end_of_input(self):
        client = make_client("hang", timeout=0.5)     # close waits min(5 s, timeout)
        start = time.monotonic()
        client.close()
        assert 0.5 <= time.monotonic() - start < 30.0
        assert client._proc.returncode == -signal.SIGKILL
        assert client._proc.stdin.closed and client._proc.stdout.closed

    def test_mismatched_id_is_error(self):
        with make_client("bad_id") as client:
            ev = client(worked_decoded())
            assert not ev.ok
            assert "does not match" in ev.message

    @pytest.mark.parametrize("mode, message", [
        ("bool_objectives", "not numbers"), ("string_objectives", "not numbers"),
        ("bool_id", "response id True does not match 1"),
        ("negative_id", "response id -1 does not match 1"),
        ("nan_objectives", "non-finite objective values"), ("null_msg", "worker error")])
    def test_reply_of_the_wrong_json_type_fails_only_its_call(self, mode, message):
        # JSON true decodes to a bool, an int subclass, float() reads "12.5"
        # and str() reads a null "msg" as 'None'
        with make_client(mode) as client:
            decoded = worked_decoded()
            cfg = decoded.as_dict(SPACE)
            expected = (round(cfg["dropout"] * 2.0, 6), cfg["conv3_channels"] * 1000.0)
            first = client(decoded)
            start = time.monotonic()
            bad = client(decoded)
            assert time.monotonic() - start < 5.0     # not a wait for the timeout
            after = client(decoded)
            assert first.ok and (first.f1, first.f2) == expected
            assert not bad.ok and message in bad.message
            assert after.ok and (after.f1, after.f2) == expected

    def test_worker_reported_error(self):
        with make_client("report_error") as client:
            counted = Counting(client)
            ev = counted(worked_decoded())
            assert not ev.ok
            assert "diverged" in ev.message
            assert counted.calls == 1  # the dispatch still consumed budget

    @pytest.mark.parametrize("mode", ["garbage", "not_object", "not_utf8"])
    def test_malformed_response(self, mode):
        with make_client(mode) as client:
            ev = client(worked_decoded())
            assert not ev.ok
            assert "malformed" in ev.message

    def test_timeout(self):
        with make_client("slow", timeout=0.3) as client:
            ev = client(worked_decoded())
            assert not ev.ok
            assert "timeout" in ev.message

    def test_zero_timeout_fails_the_call(self):
        with make_client("ok", timeout=0.0) as client:
            ev = client(worked_decoded())
            assert not ev.ok and "timeout" in ev.message

    @pytest.mark.parametrize("timeout", [math.inf, math.nan])
    def test_non_finite_timeout_is_refused_before_the_worker_starts(self, timeout, monkeypatch):
        spawned = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **kw: spawned.append(a))
        with pytest.raises(ValueError, match="timeout must be finite"):
            make_client("ok", timeout=timeout)
        assert spawned == []

    @staticmethod
    def recorded_waits(monkeypatch):
        """The wait of every ``select`` call, in order."""
        waits, real = [], select.select

        def recording(rlist, wlist, xlist, wait):
            waits.append(wait)
            return real(rlist, wlist, xlist, wait)

        monkeypatch.setattr(select, "select", recording)
        return waits

    @pytest.mark.parametrize("timeout", [1e10, 1e300])
    def test_huge_finite_timeout_waits_in_steps(self, timeout, monkeypatch):
        # select's int64-nanosecond wait overflows past about 9.2e9 s
        waits = self.recorded_waits(monkeypatch)
        with make_client("ok", timeout=timeout) as client:
            start = time.monotonic()
            ev = client(worked_decoded())
            assert time.monotonic() - start < 10.0
        assert ev.ok, ev.message
        assert waits and max(waits) == evaluators.MAX_SELECT_WAIT_S < 9.2e9

    def test_a_step_ending_before_the_deadline_waits_again(self, monkeypatch):
        monkeypatch.setattr(evaluators, "MAX_SELECT_WAIT_S", 0.05)
        waits = self.recorded_waits(monkeypatch)
        with make_client("slow", timeout=10.0) as client:     # answers after 1 s
            ev = client(worked_decoded())
        assert ev.ok, ev.message
        assert len(waits) > 10 and max(waits) == 0.05

    def test_worker_exit_fails_its_call_without_waiting(self):
        with make_client("exit_second", timeout=30.0) as client:
            decoded = worked_decoded()
            start = time.monotonic()
            assert client(decoded).ok
            ev = client(decoded)
            assert not ev.ok and ev.message == "worker closed its output"
            assert client.broken == "worker closed its output"
            after = client(decoded)     # the client is broken: fails at once
            assert not after.ok and after.message == "worker closed its output"
            assert time.monotonic() - start < 10.0

    def test_call_to_an_exited_worker_is_unreachable(self):
        client = WorkerClient([sys.executable, "-c", "import sys; sys.exit(0)"], SPACE)
        client._proc.wait(timeout=10)
        with client:
            ev = client(worked_decoded())
            assert not ev.ok and ev.message.startswith("worker unreachable: ")

    def test_worker_that_never_reads_cannot_hang_its_calls(self):
        # requests fill the pipe; the first one that cannot be written before
        # its deadline breaks the client, and the rest fail at once
        client = make_client("deaf", timeout=0.01)
        start = time.monotonic()
        try:
            results = [client(worked_decoded()) for _ in range(200)]
            assert client.broken == "timeout writing the request"
            close_start = time.monotonic()
        finally:
            client.close()
        assert time.monotonic() - close_start < 5.0     # killed, not waited for
        assert time.monotonic() - start < 10.0
        assert client._proc.returncode == -signal.SIGKILL
        assert results[0].message == "timeout waiting for the worker's reply"
        assert results[-1].message == "timeout writing the request"
        assert not any(ev.ok for ev in results)

    @pytest.mark.parametrize("mode, timeout, message", [
        ("ok", 10.0, None), ("deaf", 0.5, "timeout writing the request")])
    def test_request_larger_than_the_pipe(self, mode, timeout, message):
        # a 200 kB request goes out in parts as the worker reads it; one the
        # worker never reads fails at its deadline instead of blocking the caller
        space = ConfigSpace((VariableSpec("note", DISCRETE, candidates=("x" * 200_000,)),))
        state = RefinementState(space)
        decoded = decode(repair([0], state), state)
        client = WorkerClient([sys.executable, str(WORKER), mode], space, timeout=timeout)
        results = []
        caller = threading.Thread(target=lambda: results.append(client(decoded)), daemon=True)
        try:
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive()
        finally:
            client.close()
        assert results[0].message == message
        assert results[0].ok == (message is None)

    def test_overlong_reply_line_fails_its_call_and_is_capped(self):
        with make_client("spew", timeout=30.0) as client:
            start = time.monotonic()
            ev = client(worked_decoded())
            assert time.monotonic() - start < 10.0
            assert not ev.ok
            assert ev.message == client.broken == \
                f"reply line longer than {MAX_REPLY_BYTES} bytes"
            assert MAX_REPLY_BYTES < len(client._buffer) <= MAX_REPLY_BYTES + 65536
            assert client(worked_decoded()).message == ev.message

    def test_pool_needs_a_worker(self):
        with pytest.raises(ValueError, match="need at least one worker"):
            WorkerPool([])

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
            rng = WordStream(5)
            batch = [decode(sample_random(state, rng), state)
                     for _ in range(7)]
            results = pool.evaluate_many(batch)
            singles = [clients[0](dec) for dec in batch]
            assert [(r.f1, r.f2) for r in results] == \
                [(s.f1, s.f2) for s in singles]
        finally:
            pool.close()

    @pytest.mark.parametrize("mode", ["not_object", "not_utf8"])
    def test_pool_non_object_replies_are_error_evaluations(self, mode):
        # a reply that is not a JSON object must fail its own call, not kill
        # the worker's thread and leave the pool without results
        pool = WorkerPool([make_client(mode), make_client(mode)])
        try:
            state = RefinementState(SPACE)
            rng = WordStream(3)
            batch = [decode(sample_random(state, rng), state)
                     for _ in range(6)]
            results = pool.evaluate_many(batch)
            assert all(isinstance(r, Evaluation) and not r.ok
                       and "malformed" in r.message for r in results)
        finally:
            pool.close()

    def test_pool_exception_fails_only_its_candidate(self):
        state = RefinementState(SPACE)
        rng = WordStream(3)
        batch = [decode(sample_random(state, rng), state)
                 for _ in range(6)]
        bad = batch[2].key

        class Client:
            def __call__(self, decoded):
                if decoded.key == bad:
                    raise ValueError("no such layer")
                return Evaluation(decoded=decoded, f1=1.0, f2=2.0)

            def close(self):
                pass

        results = WorkerPool([Client(), Client()]).evaluate_many(batch)
        assert [r.ok for r in results] == [True, True, False, True, True, True]
        assert (results[2].key, results[2].message) == (bad, "no such layer")

    def test_pool_hands_each_candidate_to_a_free_worker(self):
        # the slow worker is busy with its first request while the fast one
        # serves the rest; static striping would give each worker three
        clients = [Counting(make_client("slow_first")), Counting(make_client("ok"))]
        pool = WorkerPool(clients)
        try:
            state = RefinementState(SPACE)
            rng = WordStream(23)
            batch = [decode(sample_random(state, rng), state)
                     for _ in range(6)]
            results = pool.evaluate_many(batch)
            expected = [(round(d.as_dict(SPACE)["dropout"] * 2.0, 6),
                         d.as_dict(SPACE)["conv3_channels"] * 1000.0)
                        for d in batch]
            assert all(r.ok for r in results)
            assert [(r.f1, r.f2) for r in results] == expected
            assert [c.calls for c in clients] == [1, 5]
        finally:
            pool.close()

    def test_pool_order_stable_under_uneven_completion(self):
        # workers that finish out of order must not reorder results
        pool = WorkerPool([make_client("jitter"), make_client("ok")])
        try:
            state = RefinementState(SPACE)
            rng = WordStream(17)
            batch = [decode(sample_random(state, rng), state)
                     for _ in range(9)]
            results = pool.evaluate_many(batch)
            expected = [(round(d.as_dict(SPACE)["dropout"] * 2.0, 6),
                         d.as_dict(SPACE)["conv3_channels"] * 1000.0)
                        for d in batch]
            assert [(r.f1, r.f2) for r in results] == expected
        finally:
            pool.close()

    def test_pool_feeds_a_crashed_worker_no_more_candidates(self):
        # the worker that exits fails the one candidate it was serving; the
        # other worker takes the rest of that batch and all of the next
        pool = WorkerPool([make_client("exit_second"), make_client("ok")])
        try:
            state = RefinementState(SPACE)
            rng = WordStream(29)
            batch = [decode(sample_random(state, rng), state)
                     for _ in range(40)]
            results = pool.evaluate_many(batch) + pool.evaluate_many(batch)
            failed = [r.message for r in results if not r.ok]
            assert failed == ["worker closed its output"]
            assert pool.clients[0].broken == "worker closed its output"
        finally:
            pool.close()

    def test_pool_of_broken_workers_fails_the_rest_at_once(self):
        pool = WorkerPool([make_client("exit_second", timeout=30.0)])
        try:
            state = RefinementState(SPACE)
            rng = WordStream(31)
            batch = [decode(sample_random(state, rng), state)
                     for _ in range(6)]
            start = time.monotonic()
            results = pool.evaluate_many(batch)
            assert time.monotonic() - start < 5.0
            assert results[0].ok
            assert [r.message for r in results[1:]] == \
                ["worker closed its output"] + 4 * ["every worker of the pool is broken"]
            assert [r.decoded for r in results] == batch
        finally:
            pool.close()

    def test_pool_threads_share_the_batch_without_loss(self):
        # more threads than cores, switching often: every candidate is served
        # exactly once and lands at its own index
        class Client:
            def __init__(self):
                self.served = []

            def __call__(self, n):
                self.served.append(n)
                return Evaluation(decoded=n, f1=float(n), f2=0.0)

        clients = [Client() for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = WorkerPool(clients).evaluate_many(list(range(3000)))
        finally:
            sys.setswitchinterval(interval)
        assert [r.f1 for r in results] == list(range(3000))
        assert sorted(n for c in clients for n in c.served) == list(range(3000))

    def test_engine_driven_by_worker_pool(self):
        """A search over subprocess workers equals the in-process equivalent."""
        from phmoea.engine import SearchParams, SearchProblem, run_phmoea
        from phmoea.evaluators import Evaluation

        def in_process(decoded):
            cfg = decoded.as_dict(SPACE)
            return Evaluation(decoded=decoded,
                              f1=round(cfg["dropout"] * 2.0, 6),
                              f2=cfg["conv3_channels"] * 1000.0)

        params = SearchParams.real_task()
        params.early_stop = False
        baseline = run_phmoea(SearchProblem(space=SPACE, evaluator=in_process),
                              10, 4, params=params, seed=13)
        pool = WorkerPool([Counting(make_client("ok")), Counting(make_client("ok"))])
        try:
            remote = run_phmoea(SearchProblem(space=SPACE, evaluator=pool),
                                10, 4, params=params, seed=13)
        finally:
            pool.close()
        assert [(i.f1, i.f2, i.key) for i in baseline.pareto] == \
            [(i.f1, i.f2, i.key) for i in remote.pareto]
        assert baseline.fes == remote.fes == sum(c.calls for c in pool.clients)
