"""Engine unit tests: scoring, archives, pools, variation, selection, stopping."""

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from phmoea import engine, metrics
from phmoea.benchmarks import HBenchProblem, reference_front
from phmoea.engine import (NORM_EPS, HistoryRow, Individual, PlayerArchives,
                           SearchParams, SearchProblem, _crowding, archive_weights,
                           environmental_select, min_max, nd_sort_and_crowd,
                           partition_players, run_nsga2, run_phmoea,
                           sample_candidate, should_stop, stage_ratios)
from phmoea.evaluators import (BenchmarkEvaluator, Evaluation, SurrogateEvaluator,
                               failed_evaluation)
from phmoea.rng import BLOCK, WordStream
from phmoea.space import (CONTINUOUS, DISCRETE, ConfigSpace, DecodedConfig,
                          RefinementState, VariableSpec, builtin_space, canonical_key,
                          decode, repair)


def individuals(points):
    out = []
    for i, (f1, f2) in enumerate(points):
        dec = DecodedConfig(values=(float(i),))
        out.append(Individual(kept=(i,), decoded=dec,
                              f1=float(f1), f2=float(f2)))
    return out


def bench_problem(variant="hdtlz2", n=6):
    bench = HBenchProblem(variant, n=n)
    return SearchProblem(space=bench.space(),
                         evaluator=BenchmarkEvaluator(bench),
                         reference_front=reference_front(variant, 300),
                         hv_reference=(1.1, 1.1))


# ---------------------------------------------------------------------------
# Sorting, crowding, normalization
# ---------------------------------------------------------------------------

class TestNdSort:
    def test_empty_population(self):
        assert nd_sort_and_crowd([]) == []

    def test_mutually_nondominated(self):
        pop = individuals([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        fronts = nd_sort_and_crowd(pop)
        assert len(fronts) == 1
        assert all(ind.rank == 0 for ind in pop)

    def test_strict_dominance_ranks(self):
        pop = individuals([(1.0, 1.0), (2.0, 2.0)])
        nd_sort_and_crowd(pop)
        assert pop[0].rank == 0 and pop[1].rank == 1

    def test_three_point_crowding(self):
        pop = individuals([(0.0, 1.0), (0.4, 0.4), (1.0, 0.0)])
        nd_sort_and_crowd(pop)
        assert math.isinf(pop[0].crowding) and math.isinf(pop[2].crowding)
        assert pop[1].crowding == pytest.approx(1.0 + 1.0)

    def test_duplicate_points_all_rank_zero(self):
        pop = individuals([(0.5, 0.5)] * 4)
        fronts = nd_sort_and_crowd(pop)
        assert len(fronts) == 1

    def test_fronts_list_members_in_population_order(self):
        pop = individuals(np.random.default_rng(0).integers(0, 5, (60, 2)))
        fronts = nd_sort_and_crowd(pop)
        assert sum(map(len, fronts)) == len(pop) and all(fronts)
        for rank, front in enumerate(fronts):
            assert [id(ind) for ind in front] == \
                [id(ind) for ind in pop if ind.rank == rank]


def loop_crowding(points):
    """Crowding distances by the per-individual loop, kept as the reference."""
    crowding = [0.0] * len(points)
    n = len(points)
    if n <= 2:
        return [math.inf] * n
    for col in (0, 1):
        values = np.array([p[col] for p in points])
        order = np.argsort(values, kind="stable")
        crowding[order[0]] = math.inf
        crowding[order[-1]] = math.inf
        span = values[order[-1]] - values[order[0]]
        if span <= 0:
            continue
        for j in range(1, n - 1):
            if not math.isinf(crowding[order[j]]):
                crowding[order[j]] += (values[order[j + 1]] - values[order[j - 1]]) / span
    return crowding


class TestCrowding:
    def check(self, points):
        front = individuals(points)
        _crowding(front)
        assert [ind.crowding for ind in front] == loop_crowding(points)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_loop_on_random_fronts(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 4, 7, 40):
            pts = rng.random((n, 2))
            if seed % 3 == 1:           # ties and repeated points
                pts = rng.integers(0, 4, (n, 2)) / 4.0
            self.check(pts.tolist())

    @pytest.mark.parametrize("col", [0, 1])
    def test_zero_span_in_one_objective(self, col):
        rng = np.random.default_rng(col)
        for n in (3, 5, 20):
            pts = rng.random((n, 2))
            pts[:, col] = 0.25
            self.check(pts.tolist())

    def test_all_points_equal(self):
        self.check([[0.5, 0.5]] * 5)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_front_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 6, (80, 2)) / 6.0 if seed % 2 else rng.random((80, 2))
        pop = individuals(pts)
        for front in nd_sort_and_crowd(pop):
            assert [ind.crowding for ind in front] == \
                loop_crowding([[ind.f1, ind.f2] for ind in front])


class TestNormalization:
    """``min_max``, the generation-wide scaling of objectives and crowding."""

    def test_three_values(self):
        assert [round(v, 6) for v in min_max([2.0, 4.0, 6.0])] == [0.0, 0.5, 1.0]

    def test_all_equal_go_to_zero(self):
        assert min_max([3.0] * 5) == [0.0] * 5

    def test_infinite_values_map_to_one(self):
        scaled = min_max([math.inf, 0.3, 0.9, 0.6, math.inf])
        assert scaled[0] == scaled[4] == 1.0
        assert scaled[1] == 0.0 and 0.0 < scaled[3] < scaled[2] <= 1.0
        assert min_max([math.inf, math.inf]) == [1.0, 1.0]

    def test_boundary_crowding_normalizes_to_one(self):
        pop = individuals([(0.0, 1.0), (0.3, 0.6), (0.6, 0.3), (1.0, 0.0)])
        nd_sort_and_crowd(pop)
        crowding = min_max([ind.crowding for ind in pop])
        assert crowding[0] == 1.0 and crowding[3] == 1.0
        assert 0.0 <= crowding[1] <= 1.0

    def test_dominance_invariant_under_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pts = rng.random((20, 2)) * rng.uniform(1, 1e6)
            pop = individuals(pts)
            nd_sort_and_crowd(pop)
            raw_ranks = [ind.rank for ind in pop]
            scaled = individuals(zip(min_max([ind.f1 for ind in pop]),
                                     min_max([ind.f2 for ind in pop])))
            nd_sort_and_crowd(scaled)
            assert raw_ranks == [ind.rank for ind in scaled]


# ---------------------------------------------------------------------------
# Stage scores and archive weights
# ---------------------------------------------------------------------------

def loop_weights(pop, phi, params):
    """Archive weights by per-individual normalization and scoring: the reference."""
    norms = {}
    for attr in ("f1", "f2"):
        values = [getattr(ind, attr) for ind in pop]
        lo, hi = min(values), max(values)
        norms[attr] = [(v - lo) / (hi - lo + NORM_EPS) for v in values]
    finite = [ind.crowding for ind in pop if math.isfinite(ind.crowding)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 0.0
    crowding = [(ind.crowding - lo) / (hi - lo + NORM_EPS)
                if math.isfinite(ind.crowding) else 1.0 for ind in pop]
    k1, k2 = params.stage_early_end, params.stage_late_start
    scores = []
    for ind, n1, n2, c in zip(pop, norms["f1"], norms["f2"], crowding):
        s = 1.0 / (1.0 + ind.rank) + params.crowding_bonus * c
        g = params.error_weight * n1 + (1.0 - params.error_weight) * n2
        if phi < k1:
            scores.append(s)
        elif phi < k2:
            alpha = (k2 - phi) / (k2 - k1)
            scores.append(alpha * s + (1.0 - alpha) * g)
        else:
            scores.append(g + params.late_crowding_bonus * c)
    total = sum(score for score in scores)
    if total <= 0:
        return [1.0 / len(pop)] * len(pop)
    return [score / total for score in scores]


class TestScores:
    """``archive_weights``: stage-blended scores divided by their sum."""

    def test_early_branch(self):
        pop = individuals([(0.0, 0.0), (1.0, 1.0)])
        pop[0].rank, pop[0].crowding = 0, math.inf      # scaled crowding 1
        pop[1].rank, pop[1].crowding = 1, 0.0           # scaled crowding 0
        weights = archive_weights(pop, 0.1, SearchParams(crowding_bonus=0.2))
        assert weights == pytest.approx([1.2 / 1.7, 0.5 / 1.7])

    def test_middle_branch_blend(self):
        pop = individuals([(0.0, 0.0), (1.0, 1.0)])     # scaled objectives 0 and ~1
        params = SearchParams(stage_early_end=0.3, stage_late_start=0.6,
                              error_weight=0.5)
        weights = archive_weights(pop, 0.45, params)    # alpha = 0.5, crowding 0
        assert weights == pytest.approx([0.5 / 1.5, 1.0 / 1.5])

    def test_late_branch(self):
        pop = individuals([(0.0, 0.0), (0.2, 0.4), (1.0, 1.0)])
        for ind in pop:
            ind.rank = 3
        params = SearchParams(error_weight=0.7, late_crowding_bonus=0.05)
        weights = archive_weights(pop, 0.9, params)     # crowding 0: scores 0, 0.26, 1
        assert weights == pytest.approx([0.0, 0.26 / 1.26, 1.0 / 1.26])

    def test_non_positive_total_gives_uniform_weights(self):
        pop = individuals([(0.5, 0.5)] * 4)
        params = SearchParams(late_crowding_bonus=0.0)
        assert archive_weights(pop, 0.9, params) == [0.25] * 4

    def test_weights_form_a_simplex(self):
        rng = np.random.default_rng(2)
        pop = individuals(rng.random((30, 2)))
        nd_sort_and_crowd(pop)
        for phi in (0.05, 0.45, 0.95):
            weights = archive_weights(pop, phi, SearchParams())
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)
            assert all(w >= 0 for w in weights)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 5, (40, 2)) / 5.0 if seed % 2 else rng.random((40, 2))
        pop = individuals(pts * rng.uniform(1, 1e4, size=2))
        nd_sort_and_crowd(pop)
        for params in (SearchParams.real_task(), SearchParams.benchmark()):
            for phi in (0.0, 0.1, 0.25, 0.35, 0.5, 0.59, 0.6, 0.95):
                assert archive_weights(pop, phi, params) == loop_weights(pop, phi, params)

    def test_stage_ratio_table(self):
        params = SearchParams.benchmark()
        assert stage_ratios(0.1, params) == (0.8, 0.1, 0.1)
        assert stage_ratios(0.3, params) == (0.6, 0.2, 0.2)
        assert stage_ratios(0.9, params) == (0.5, 0.3, 0.2)
        for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert sum(stage_ratios(phi, params)) == pytest.approx(1.0)

    def test_default_parameter_bundles(self):
        real = SearchParams.real_task()
        assert (real.crossover_prob, real.mutation_prob) == (0.8, 0.2)
        assert (real.sbx_eta, real.mutation_eta) == (15.0, 20.0)
        assert (real.initial_bins, real.n_trial) == (6, 50)
        assert (real.hot_fraction, real.cold_fraction) == (0.3, 0.2)
        assert (real.cold_bonus, real.cross_pool_rate) == (0.15, 0.1)
        assert (real.crowding_bonus, real.late_crowding_bonus) == (0.2, 0.05)
        assert (real.stage_early_end, real.stage_late_start) == (0.3, 0.6)
        assert real.error_weight == 0.7 and real.early_stop
        assert (real.window, real.eps_f1, real.eps_f2, real.eps_hv) == \
            (8, 1e-3, 1e-3, 1e-4)
        bench = SearchParams.benchmark()
        assert (bench.stage_early_end, bench.stage_late_start) == (0.2, 0.4)
        assert bench.error_weight == 0.5 and not bench.early_stop


# ---------------------------------------------------------------------------
# Player archives
# ---------------------------------------------------------------------------

class TestArchives:
    def test_single_individual_accumulation(self):
        arch = PlayerArchives([3, 4, 6])
        arch.update([((2, 3, 4), ("a", None, "c"))], [1.0])
        assert arch.heat[0].tolist() == [0.0, 0.0, 1.0]
        assert arch.count[0].tolist() == [0, 0, 1]
        assert arch.heat[2][4] == 1.0 and arch.count[2][4] == 1
        assert arch.heat[2].sum() == 1.0 and arch.count[2].sum() == 1
        # the inactive dim contributes nothing, not even its kept gene
        assert not arch.heat[1].any() and not arch.count[1].any()

    def test_inactive_member_credits_nothing_on_its_kept_gene(self):
        # the second member's kept gene of dimension 1 sits on the first's
        # candidate, but its value is None: no heat, no count there
        arch = PlayerArchives([3, 4])
        arch.update([((1, 2), ("x", 0.5)), ((1, 2), ("x", None))], [0.25, 0.75])
        assert arch.heat[0].tolist() == [0.0, 1.0, 0.0]
        assert arch.count[0].tolist() == [0, 2, 0]
        assert arch.heat[1].tolist() == [0.0, 0.0, 0.25, 0.0]
        assert arch.count[1].tolist() == [0, 0, 1, 0]

    def test_shared_player_counts(self):
        arch = PlayerArchives([2])
        arch.update([((0,), ("x",)), ((0,), ("x",))], [0.5, 0.5])
        assert arch.count[0].tolist() == [2, 0]
        assert arch.heat[0][0] == pytest.approx(1.0)

    def test_split_bin_remaps_and_conserves(self):
        arch = PlayerArchives([1] * 12 + [4])
        arch.heat[12][:] = [1.0, 2.0, 0.5, 3.0]
        arch.count[12][:] = [4, 5, 1, 7]
        arch.split_bin(12, np.array([1, 3]))
        assert arch.heat[12].tolist() == [1.0, 1.0, 1.0, 0.5, 1.5, 1.5]
        assert arch.count[12].tolist() == [4, 2, 3, 1, 3, 4]
        assert arch.heat[0].tolist() == [0.0]    # other dimensions untouched

    def test_arrays_track_bins_through_a_run(self):
        from phmoea.engine import _Run
        run = _Run(bench_problem("hdtlz2"), 20, 10, SearchParams.benchmark(), 0,
                   use_archives=True)
        accumulated = np.zeros(len(run.space), dtype=np.int64)
        update = run.archives.update

        def counting_update(members, weights):
            accumulated[:] += np.array([[v is not None for v in values]
                                        for _, values in members]).sum(axis=0)
            update(members, weights)

        run.archives.update = counting_update
        run.run()
        state, arch = run.state, run.archives
        assert any(state.bin_count(pos) > run.params.initial_bins
                   for pos in run.space.continuous_indices())
        for pos, var in enumerate(run.space.variables):
            assert len(arch.heat[pos]) == len(arch.count[pos]) == state.counts[pos]
            if var.is_continuous:
                assert state.bin_count(pos) == state.counts[pos]
                assert all(0 <= k < state.counts[pos] for k in state.counters[pos])
            # a split divides its bin's count between the two children
            assert arch.count[pos].sum() == accumulated[pos]


def reference_pools(heat, count, hot_fraction, cold_fraction):
    """(hot, normal, cold) in plain Python: hot is the top share by heat, cold
    the bottom share by count among the rest, ties toward the lower index."""
    n = len(heat)
    n_hot, n_cold = math.ceil(hot_fraction * n), math.ceil(cold_fraction * n)
    by_heat = sorted(range(n), key=lambda a: -heat[a])
    rest = sorted(by_heat[n_hot:])
    by_count = sorted(rest, key=lambda a: count[a])
    return (tuple(sorted(by_heat[:n_hot])), tuple(sorted(by_count[n_cold:])),
            tuple(sorted(by_count[:n_cold])))


def partition_and_pools(arch, pos, hot_fraction, cold_fraction, cold_bonus=0.15):
    """``partition_players`` of ``pos`` and its reference (hot, normal, cold),
    after checking that the partition's hot pool, non-hot pool and CDF are the
    ones those pools and the cold bonus give."""
    part = partition_players(arch, pos, hot_fraction, cold_fraction, cold_bonus)
    hot, normal, cold = pools = reference_pools(
        arch.heat[pos].tolist(), arch.count[pos].tolist(),
        hot_fraction, cold_fraction)
    assert part.hot == hot
    assert part.non_hot == tuple(sorted(normal + cold))
    weights = np.array([cold_bonus if a in cold else 1.0 for a in part.non_hot])
    cdf = (weights / weights.sum()).cumsum()
    assert part.cdf == ((cdf / cdf[-1]).tolist() if part.non_hot else [])
    return part, pools


class TestPartition:
    def test_six_candidates_hot_size(self):
        arch = PlayerArchives([6])
        arch.heat[0][:] = range(6)
        part = partition_players(arch, 0, hot_fraction=0.3, cold_fraction=0.2,
                                 cold_bonus=0.15)
        assert len(part.hot) == 2
        assert part.hot == (4, 5)

    def test_two_candidates(self):
        arch = PlayerArchives([2])
        _, (hot, normal, cold) = partition_and_pools(arch, 0, hot_fraction=0.3,
                                                     cold_fraction=0.2)
        assert len(hot) == 1 and len(cold) == 1 and not normal

    def test_zero_archives_tie_break_by_index(self):
        arch = PlayerArchives([1] * 6 + [6])
        _, pools = partition_and_pools(arch, 6, hot_fraction=0.3, cold_fraction=0.2)
        assert pools == ((0, 1), (4, 5), (2, 3))

    def test_cold_selected_by_count_among_non_hot(self):
        arch = PlayerArchives([6])
        arch.heat[0][:] = [5.0, 4.0, 1.0, 1.0, 1.0, 1.0]
        arch.count[0][:] = [9, 9, 7, 2, 5, 1]
        _, pools = partition_and_pools(arch, 0, 0.3, 0.2)
        assert pools == ((0, 1), (2, 4), (3, 5))

    def test_ties_break_toward_lower_index(self):
        arch = PlayerArchives([6])
        arch.heat[0][:] = [1.0, 2.0, 2.0, 0.0, 2.0, 1.0]
        arch.count[0][:] = [3, 0, 0, 3, 5, 3]
        _, pools = partition_and_pools(arch, 0, 0.3, 0.2)
        assert pools == ((1, 2), (4, 5), (0, 3))


def partition_of(heat, count, hot_fraction, cold_fraction, cold_bonus=0.15):
    arch = PlayerArchives([len(heat)])
    arch.heat[0][:] = heat
    arch.count[0][:] = count
    return partition_and_pools(arch, 0, hot_fraction, cold_fraction, cold_bonus)


class TestSampling:
    def test_cold_bonus_probability(self):
        part, pools = partition_of([0.0] * 3, [0, 5, 5], 0.0, 0.2)
        assert pools == ((), (1, 2), (0,))
        rng = WordStream(0)
        draws = [sample_candidate(part, "nh", rng) for _ in range(40000)]
        p_cold = draws.count(0) / len(draws)
        assert p_cold == pytest.approx(0.15 / 2.15, abs=0.01)

    def test_all_normal_is_uniform(self):
        part, pools = partition_of([0.0] * 4, [0] * 4, 0.0, 0.0)
        assert pools == ((), (0, 1, 2, 3), ())
        rng = WordStream(1)
        draws = [sample_candidate(part, "nh", rng) for _ in range(20000)]
        for a in range(4):
            assert draws.count(a) / len(draws) == pytest.approx(0.25, abs=0.02)

    def test_singleton_hot(self):
        part, pools = partition_of([0.0, 0.0, 1.0], [5, 0, 0], 0.3, 0.2)
        assert pools == ((2,), (0,), (1,))
        rng = WordStream(2)
        assert all(sample_candidate(part, "hot", rng) == 2 for _ in range(100))

    def test_empty_pool_falls_back_to_uniform(self):
        part, _ = partition_of([0.0, 0.0], [0, 0], 1.0, 0.0)
        assert (part.hot, part.non_hot, part.cdf) == ((0, 1), (), [])
        rng = WordStream(3)
        draws = {sample_candidate(part, "nh", rng) for _ in range(50)}
        assert draws == {0, 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("pool, hot_fraction", [("hot", 0.0), ("nh", 1.0)])
    def test_empty_pool_draws_match_the_uniform_fallback(self, n, pool, hot_fraction):
        """An empty pool's partner holds every candidate in order, so drawing
        from it equals the former fallback ``int(rng.integers(n))``: the same
        value and the same bit-generator state, with the other pool's draws
        interleaved."""
        rng = np.random.default_rng(n)
        part, _ = partition_of(rng.random(n).tolist(), rng.integers(0, 5, n).tolist(),
                               hot_fraction, 0.4)
        empty, partner = (part.hot, part.non_hot) if pool == "hot" else (part.non_hot, part.hot)
        assert empty == () and partner == tuple(range(n))
        other = "nh" if pool == "hot" else "hot"
        rng, ref_rng = WordStream(5), np.random.default_rng(5)
        for _ in range(300):
            assert sample_candidate(part, pool, rng) == int(ref_rng.integers(n))
            assert rng.state == ref_rng.bit_generator.state
            want = (int(ref_rng.integers(n)) if other == "hot"
                    else part.non_hot[bisect_right(part.cdf, ref_rng.random())])
            assert sample_candidate(part, other, rng) == want

    def test_non_hot_draws_match_the_loop_reference(self):
        for cold_bonus in (0.15, 0.5, 3.0):
            part, pools = partition_of([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                                       [9, 1, 9, 2, 0, 9, 0], 0.1, 0.4, cold_bonus)
            assert pools == ((4,), (0, 2, 5), (1, 3, 6))
            assert part.non_hot == (0, 1, 2, 3, 5, 6)
            rng, ref_rng = WordStream(4), np.random.default_rng(4)
            weights = np.array([cold_bonus if a in pools[2] else 1.0
                                for a in part.non_hot])
            weights /= weights.sum()
            for _ in range(200):
                expected = part.non_hot[ref_rng.choice(len(part.non_hot), p=weights)]
                assert sample_candidate(part, "nh", rng) == expected


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------

def engine_for(problem, pop_size=10, generations=10, params=None, seed=0,
               use_archives=True):
    from phmoea.engine import _Run
    run = _Run(problem, pop_size, generations,
               params or SearchParams.benchmark(), seed, use_archives)
    run._start()
    return run


def double(stream):
    """A double in [0, 1), read from the stream as the engine inlines it."""
    return (stream.word() >> 11) * 2**-53


class TestDrawBatching:
    """``WordStream`` on one side, numpy's calls from the same seed on the other.

    Each case interleaves doubles and integers and ends on equal bit-generator
    states, so a numpy release that moves ``random`` or ``integers`` fails
    here by name, not as a silent change of seeded output.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_four_indices_equal_two_pairs(self, seed):
        stream = WordStream(seed)
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        # rejections of large bounds leave a 32-bit half buffered across calls
        for n in (2, 3, 7, 100, 2**31 + 1, 3 * 2**30) * 4:
            got = [stream.below(n) for _ in range(4)] + [double(stream)]
            assert got == batched.integers(n, size=4).tolist() + [batched.random()]
            assert got == [int(scalar.integers(n)) for _ in range(4)] + [scalar.random()]
        assert stream.state == batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_per_bound_array_equals_scalar_calls(self, seed):
        rng = np.random.default_rng(100 + seed)
        stream = WordStream(seed)
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            bounds = rng.integers(1, 9, rng.integers(1, 30)).tolist()
            bounds[::4] = [1] * len(bounds[::4])     # a bound of 1 draws nothing
            got = [stream.below(b) for b in bounds] + [double(stream)]
            assert got == batched.integers(0, bounds).tolist() + [batched.random()]
            assert got == [int(scalar.integers(b)) for b in bounds] + [scalar.random()]
        assert stream.state == batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_batch_equals_scalar_calls(self, seed):
        stream = WordStream(seed)
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (1, 2, 13, 40):
            got = [stream.below(5)] + [double(stream) for _ in range(k)]
            assert got == [int(batched.integers(5))] + batched.random(k).tolist()
            assert got == [int(scalar.integers(5))] + [scalar.random() for _ in range(k)]
        assert stream.state == batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(3))
    def test_halves_carry_across_interleaved_doubles(self, seed):
        """An integer draw leaves its word's high half pending; doubles take
        whole words past it, and the next integer draw takes it."""
        pattern = np.random.default_rng(50 + seed)
        stream, twin = WordStream(seed), np.random.default_rng(seed)
        for _ in range(2000):
            if pattern.random() < 0.5:
                n = int(pattern.choice([1, 2, 3, 7, 100, 2**16 + 1, 2**32]))
                assert stream.below(n) == int(twin.integers(n))
            else:
                assert double(stream) == twin.random()
            assert stream.state == twin.bit_generator.state

    @pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32])
    def test_rejection_loop_near_two_to_the_32(self, n):
        # Lemire's draw rejects a half with probability (2**32 % n) / 2**32:
        # about 1/2, 1/4, 1e-9 and 0 here (n == 2**32 is numpy's plain half)
        stream, twin = WordStream(n % 97), np.random.default_rng(n % 97)
        for _ in range(20_000):
            assert stream.below(n) == int(twin.integers(n))
        assert stream.state == twin.bit_generator.state

    def test_a_bound_past_two_to_the_32_is_refused(self):
        # numpy draws those from whole 64-bit words; the stream does not
        stream = WordStream(0)
        before = stream.state
        for n in (2**32 + 1, 2**40):
            with pytest.raises(ValueError, match="64-bit draw"):
                stream.below(n)
        assert stream.state == before == np.random.default_rng(0).bit_generator.state

    def test_state_loads_into_numpy_across_blocks(self):
        stream, twin = WordStream(9), np.random.default_rng(9)
        for _ in range(3):
            assert stream.below(7) == int(twin.integers(7))
            for _ in range(BLOCK - 1):
                assert double(stream) == twin.random()
            assert stream.state == twin.bit_generator.state
            loaded = np.random.default_rng()
            loaded.bit_generator.state = stream.state
            assert [stream.below(100), double(stream), stream.below(100)] == \
                [int(loaded.integers(100)), loaded.random(), int(loaded.integers(100))]
            twin.bit_generator.state = loaded.bit_generator.state


def per_draw_polynomial_step(grid, gene, eta, rng):
    """Polynomial mutation of one gene with one numpy call: the reference."""
    lo, hi, mids = grid
    span = hi - lo
    if span <= 0:
        return gene
    x = mids[gene]
    u = rng.random()
    if u < 0.5:
        xy = 1.0 - (x - lo) / span
        delta = (2.0 * u + (1.0 - 2.0 * u) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0)) - 1.0
    else:
        xy = 1.0 - (hi - x) / span
        delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0))
    value = min(max(x + delta * span, lo), hi)
    return int(np.argmin(np.abs(np.array(mids) - value)))


def per_draw_variation_child(run, rng):
    """Tournaments, SBX and mutation with one numpy call per draw: the reference."""
    def tournament():
        i, j = rng.integers(len(run.population), size=2)
        a, b = run.population[int(i)], run.population[int(j)]
        if a.rank != b.rank:
            return a if a.rank < b.rank else b
        if a.crowding != b.crowding:
            return a if a.crowding > b.crowding else b
        return a

    p1, p2 = tournament(), tournament()
    params = run.params
    if rng.random() >= params.crossover_prob:
        child = p1.decoded.values, p1.kept
    else:
        values, kept = list(p1.decoded.values), list(p1.kept)
        for i, grid in enumerate(run.state.grids):
            x1, x2 = p1.decoded.values[i], p2.decoded.values[i]
            if grid is not None and x1 is not None and x2 is not None:
                lo, hi, mids = grid
                v1, v2 = mids[p1.kept[i]], mids[p2.kept[i]]
                u = rng.random()
                if u <= 0.5:
                    beta = (2.0 * u) ** (1.0 / (params.sbx_eta + 1.0))
                else:
                    beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (params.sbx_eta + 1.0))
                c1 = 0.5 * ((1.0 + beta) * v1 + (1.0 - beta) * v2)
                c2 = 0.5 * ((1.0 - beta) * v1 + (1.0 + beta) * v2)
                value = min(max(c1 if rng.random() < 0.5 else c2, lo), hi)
                kept[i] = int(np.argmin(np.abs(np.array(mids) - value)))
            elif rng.random() < 0.5:
                values[i], kept[i] = x2, p2.kept[i]
        child = values, kept
    values, kept = map(list, child)
    if rng.random() < params.mutation_prob:
        changed = 0
        for i, grid in enumerate(run.state.grids):
            if changed >= min(run.params.max_mutated, len(run.space)):
                break
            if values[i] is None or rng.random() >= 1.0 / len(run.space):
                continue
            if grid is None:
                new = int(rng.integers(run.state.counts[i]))
            else:
                new = per_draw_polynomial_step(grid, kept[i], params.mutation_eta, rng)
            if new != kept[i]:
                kept[i] = new
                changed += 1
    return kept


def per_call_candidate(part, pool, rng):
    """``sample_candidate`` with one numpy call: the reference."""
    if pool == "hot" or not part.non_hot:
        members = part.hot or part.non_hot
        return int(members[rng.integers(len(members))])
    return part.non_hot[bisect_right(part.cdf, rng.random())]


def per_dimension_assembled_child(run, partitions, pool, rng):
    """Pool offspring with one numpy-drawn candidate per dimension: the reference."""
    params = run.params
    genes = [per_call_candidate(part, pool, rng) for part in partitions]
    opposite = "nh" if pool == "hot" else "hot"
    changed = 0
    for i, part in enumerate(partitions):
        if changed >= min(run.params.max_mutated, len(run.space)):
            break
        if rng.random() < params.cross_pool_rate:
            new = per_call_candidate(part, opposite, rng)
            if new != genes[i]:
                genes[i] = new
                changed += 1
    return genes


class TestVariation:
    def test_no_crossover_no_mutation_copies_parents(self):
        params = SearchParams.benchmark()
        params.crossover_prob = 0.0
        params.mutation_prob = 0.0
        run = engine_for(bench_problem(n=4), params=params)
        parents = {ind.kept for ind in run.population}
        for _ in range(50):
            kept = run._variation_child()
            assert tuple(kept) in parents

    def test_sbx_on_equal_parents_returns_them(self):
        run = engine_for(bench_problem(n=4))
        ind = run.population[0]
        for _ in range(30):
            values, kept = run._sbx_child(ind, ind)
            assert tuple(values) == ind.decoded.values
            assert tuple(kept) == ind.kept

    def test_mutation_changes_at_most_cap_dims(self):
        params = SearchParams.benchmark()
        params.crossover_prob = 0.0
        params.mutation_prob = 1.0
        run = engine_for(bench_problem(n=12), params=params)
        run.params.max_mutated = 2
        for ind in run.population:
            for _ in range(10):
                values, kept = list(ind.decoded.values), list(ind.kept)
                run._mutate(values, kept)
                changed = sum(1 for a, b in zip(kept, ind.kept)
                              if a != b)
                assert changed <= 2

    def test_assembled_offspring_pool_purity_without_cross_mutation(self):
        params = SearchParams.benchmark()
        params.cross_pool_rate = 0.0
        run = engine_for(bench_problem(n=5), params=params)
        run.archives.update([(ind.kept, ind.decoded.values) for ind in run.population],
                            archive_weights(run.population, 0.5, params))
        partitions = [partition_players(run.archives, pos, 0.3, 0.2, 0.15)
                      for pos in range(len(run.space))]
        for pool in ("hot", "nh"):
            for _ in range(20):
                genes = run._assemble_child(partitions, pool)
                for i, part in enumerate(partitions):
                    members = part.hot if pool == "hot" else part.non_hot
                    if members:  # empty pools legitimately fall back
                        assert genes[i] in members

    def test_offspring_source_counts(self, monkeypatch):
        run = engine_for(bench_problem(n=4), pop_size=50)
        requested = []
        original = run._fill_slots

        def spy(n_slots, make):
            requested.append(n_slots)
            return original(n_slots, make)

        monkeypatch.setattr(run, "_fill_slots", spy)
        run._generate_offspring(phi=0.3)   # middle stage: (0.6, 0.2, 0.2)
        assert requested == [30, 10, 10]

    @staticmethod
    def twin_rng(run):
        twin = np.random.default_rng()
        twin.bit_generator.state = run.rng.state
        return twin

    @staticmethod
    def pools(run, hot_fraction, cold_fraction):
        run.archives.update([(ind.kept, ind.decoded.values) for ind in run.population],
                            archive_weights(run.population, 0.5, run.params))
        return [partition_players(run.archives, pos, hot_fraction, cold_fraction,
                                  run.params.cold_bonus)
                for pos in range(len(run.space))]

    # the capped set mutates on every child, so one changed value ends the loop;
    # the 4-dimension set has fewer dimensions than the default cap of 6
    @pytest.mark.parametrize("seed, n, overrides", [
        *(pytest.param(seed, 6, {}, id=str(seed)) for seed in range(3)),
        pytest.param(0, 6, {"mutation_prob": 1.0, "max_mutated": 1}, id="0-capped"),
        pytest.param(0, 3, {"mutation_prob": 1.0}, id="0-fewer-dims-than-cap")])
    def test_variation_child_matches_the_per_draw_loop(self, seed, n, overrides):
        params = replace(SearchParams.benchmark(), **overrides)
        params.crossover_prob = 0.9
        run = engine_for(bench_problem("hdtlz7", n=n), pop_size=16, seed=seed,
                         params=params, use_archives=False)
        for _ in range(200):
            rng = self.twin_rng(run)
            want = per_draw_variation_child(run, rng)
            assert run._variation_child() == want
            assert run.rng.state == rng.bit_generator.state

    # the capped set swaps on every dimension, so one changed value ends the loop;
    # the 4-dimension set has fewer dimensions than the default cap of 6
    @pytest.mark.parametrize("hot_fraction, cold_fraction, n, overrides", [
        *(pytest.param(hot, cold, 5, {}, id=f"{hot}-{cold}")
          for hot, cold in [(0.3, 0.2), (1.0, 0.0), (0.0, 0.2), (0.5, 0.5)]),
        pytest.param(0.3, 0.2, 5, {"cross_pool_rate": 1.0, "max_mutated": 1},
                     id="0.3-0.2-capped"),
        pytest.param(0.3, 0.2, 3, {"cross_pool_rate": 1.0}, id="0.3-0.2-fewer-dims-than-cap")])
    def test_assembled_child_matches_the_per_dimension_draws(self, hot_fraction,
                                                             cold_fraction, n, overrides):
        run = engine_for(bench_problem(n=n), pop_size=12,
                         params=replace(SearchParams.benchmark(), **overrides))
        partitions = self.pools(run, hot_fraction, cold_fraction)
        for pool in ("hot", "nh") * 50:
            rng = self.twin_rng(run)
            want = per_dimension_assembled_child(run, partitions, pool, rng)
            assert run._assemble_child(partitions, pool) == want
            assert run.rng.state == rng.bit_generator.state

    @pytest.mark.parametrize("hot_fraction, cold_fraction", [(1.0, 0.0), (0.0, 0.2)])
    def test_every_pool_draw_goes_through_sample_candidate(self, monkeypatch,
                                                            hot_fraction, cold_fraction):
        params = replace(SearchParams.benchmark(), cross_pool_rate=0.0)
        run = engine_for(bench_problem(n=5), pop_size=12, params=params)
        partitions = self.pools(run, hot_fraction, cold_fraction)
        calls = []

        def counted(part, pool, stream):
            calls.append(pool)
            return sample_candidate(part, pool, stream)

        monkeypatch.setattr(engine, "sample_candidate", counted)
        for pool in ("hot", "nh") * 10:
            calls.clear()
            run._assemble_child(partitions, pool)
            assert calls == [pool] * len(partitions)


# ---------------------------------------------------------------------------
# Refinement re-snap
# ---------------------------------------------------------------------------

class TestRefinementResnap:
    def test_narrow_bins_keep_their_members(self):
        from phmoea.engine import _Run
        space = ConfigSpace((VariableSpec("x", CONTINUOUS, bounds=(0.0, 1.0)),))
        run = _Run(SearchProblem(space=space, evaluator=None), 6, 1,
                   SearchParams.benchmark(), 0, use_archives=True)
        state = run.state
        for _ in range(60):                 # halve bin 0 sixty times
            state.counters[0][0] = state.persistence
            state.refine()
        assert np.diff(state.breakpoints(0))[:4].max() < 1e-18
        kept = [2, 0, 2, 3, 2, 9]
        run.population = []
        for k in kept:
            member = repair([k], state)
            run.population.append(Individual(
                kept=member, decoded=decode(member, state), f1=0.0, f2=0.0))
        before = {j: state.values[0][j] for j in kept}
        state.counters[0] = {2: state.persistence}
        run._refine([])
        new_kept = [ind.kept[0] for ind in run.population]
        # bin 2 split into bins 2 and 3; its members alternate left, right, left
        assert [k for old, k in zip(kept, new_kept) if old == 2] == [2, 3, 2]
        for ind, old, k in zip(run.population, kept, new_kept):
            assert repair(ind.kept, state) == ind.kept == (k,)
            if old != 2:
                assert ind.decoded.values[0] == before[old]
                assert state.values[0][k] == before[old]

    def test_active_genes_follow_the_kept_column(self):
        # An inactive member keeps a value in bin 1 and comes first, so the
        # kept column's alternation over bin 1 differs from the active members'.
        # A split moves no member's decoded values, and so no activity, and
        # leaves every kept vector repaired.
        from phmoea.engine import _Run
        space = ConfigSpace((
            VariableSpec("gate", DISCRETE, candidates=("off", "on")),
            VariableSpec("z", CONTINUOUS, bounds=(0.0, 1.0), parent=("gate", ("on",))),
        ))
        run = _Run(SearchProblem(space=space, evaluator=None), 4, 1,
                   SearchParams.benchmark(), 0, use_archives=True)
        state = run.state
        run.population = []
        for kept in ([0, 1], [1, 1], [1, 1], [1, 4]):
            member = repair(kept, state)
            run.population.append(Individual(
                kept=member, decoded=decode(member, state), f1=0.0, f2=0.0))
        before = [ind.decoded.values for ind in run.population]
        state.counters[1] = {1: state.persistence}
        run._refine([])
        assert [ind.kept[1] for ind in run.population] == [1, 2, 1, 5]
        assert [ind.decoded.values for ind in run.population] == before
        assert [ind.decoded.values[1] is None for ind in run.population] == \
            [True, False, False, False]
        for ind in run.population:
            assert repair(ind.kept, state) == ind.kept

    def test_front_mass_counts_the_occupied_bin(self):
        # Splitting the bin that holds 0.6 until refine() refuses leaves bin
        # 29 one ulp wide, so its midpoint rounds onto its right breakpoint.
        # Refinement must credit a member to the bin it occupies (29), not to
        # the bin that contains its decoded value (30).
        from phmoea.engine import _Run
        space = ConfigSpace((VariableSpec("x", CONTINUOUS, bounds=(0.0, 1.0)),))
        params = SearchParams.benchmark()
        params.refine_persistence = 2
        run = _Run(SearchProblem(space=space, evaluator=None), 6, 1, params, 0,
                   use_archives=True)
        state = run.state
        splits = 0
        while True:
            k = int(np.searchsorted(state.breakpoints(0), 0.6, side="right")) - 1
            state.counters[0][k] = state.persistence
            if not state.refine():
                break
            splits += 1
        assert splits == 51
        pts = state.breakpoints(0)
        assert np.nextafter(pts[29], 1.0) == pts[30]
        assert state.values[0][29] == pts[30]
        state.counters[0] = {}
        member = (29,)
        run.population = [Individual(kept=member, decoded=decode(member, state),
                                     f1=0.0, f2=0.0)]
        run._refine(run.population)
        assert state.counters[0][29] == 1
        assert 30 not in state.counters[0]


# ---------------------------------------------------------------------------
# Environmental selection
# ---------------------------------------------------------------------------

class TestEnvironmentalSelect:
    def test_all_retained_when_room(self):
        pop = individuals([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        assert len(environmental_select(pop, 3)) == 3

    def test_dominating_set_replaces_old(self):
        old = individuals([(1.0, 1.0), (1.2, 0.9), (0.9, 1.2)])
        new = individuals([(0.1, 0.1), (0.05, 0.2), (0.2, 0.05)])
        chosen = environmental_select(old + new, 3)
        assert sorted((ind.f1, ind.f2) for ind in chosen) == \
            sorted((ind.f1, ind.f2) for ind in new)

    def test_truncation_keeps_boundaries(self):
        pop = individuals([(0.0, 1.0), (0.25, 0.7), (0.5, 0.5), (0.75, 0.3),
                           (1.0, 0.0)])
        chosen = environmental_select(pop, 3)
        pts = {(ind.f1, ind.f2) for ind in chosen}
        assert (0.0, 1.0) in pts and (1.0, 0.0) in pts

    def test_truncation_ties_on_crowding_keep_front_order(self):
        # one front; both boundaries are inf and all three interior crowdings
        # are exactly 1.0, so the last survivor is the first interior in order
        pop = individuals([(0.75, 0.25), (0.0, 1.0), (0.25, 0.75), (0.5, 0.5),
                           (1.0, 0.0)])
        chosen = environmental_select(pop, 4)
        assert [(ind.f1, ind.f2) for ind in chosen] == \
            [(0.75, 0.25), (0.0, 1.0), (0.25, 0.75), (1.0, 0.0)]

    def test_split_front_survivors_are_ranked_and_crowded_as_survivors(self):
        # front 0 fits whole; front 1 (five points) is split to three, whose
        # crowding among themselves differs from that in the full front
        pop = individuals([(0.0, 0.5), (0.5, 0.0), (0.1, 2.0), (0.3, 1.2),
                           (0.9, 0.9), (1.1, 0.5), (2.0, 0.1)])
        chosen = environmental_select(pop, 5)
        assert len(chosen) == 5 and {ind.rank for ind in chosen} == {0, 1}
        got = [(ind.key, ind.rank, ind.crowding) for ind in chosen]
        nd_sort_and_crowd(chosen)
        assert got == [(ind.key, ind.rank, ind.crowding) for ind in chosen]

    def test_elitism_across_generations(self, monkeypatch):
        minima = []
        select = engine.environmental_select

        def recording(union, n):
            survivors = select(union, n)
            for group in (union, survivors):
                minima.append((min(ind.f1 for ind in group), min(ind.f2 for ind in group)))
            return survivors

        monkeypatch.setattr(engine, "environmental_select", recording)
        for runner, seed in ((run_phmoea, 3), (run_phmoea, 5), (run_nsga2, 3)):
            minima.clear()
            res = runner(bench_problem(n=5), 20, 20, params=SearchParams.benchmark(),
                         seed=seed)
            assert len(minima) == 2 * (res.generations - 1) == 38
            # the best f1 and f2 of parents plus children always survive ...
            assert minima[0::2] == minima[1::2]
            # ... so the population's minima never rise from one generation to the next
            survivors = minima[1::2]
            for (a1, a2), (b1, b2) in zip(survivors, survivors[1:]):
                assert b1 <= a1 and b2 <= a2


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------

def history_rows(f1_means, f2_means):
    return [HistoryRow(gen=gen, fes=0, mean_f1=f1, mean_f2=f2, hv=math.nan, igd=None)
            for gen, (f1, f2) in enumerate(zip(f1_means, f2_means), start=1)]


class TestEarlyStop:
    def test_relative_drop_arithmetic(self):
        # f1 falls by exactly 0.1 of its old value over the window
        history, stop_hv = history_rows([10.0, 9.0], [7.0, 7.0]), [0.4, 0.4]
        assert not should_stop(history, stop_hv, SearchParams(window=1, eps_f1=0.1))
        assert should_stop(history, stop_hv,
                           SearchParams(window=1, eps_f1=np.nextafter(0.1, 1.0)))

    def test_increase_clamps_to_zero(self):
        history = history_rows([9.0, 10.0], [7.0, 8.0])
        assert should_stop(history, [0.5, 0.4], SearchParams(window=1, eps_f1=1e-300,
                                                             eps_f2=1e-300, eps_hv=1e-300))

    def test_stagnant_history_stops(self):
        assert should_stop(history_rows([5.0] * 9, [7.0] * 9), [0.4] * 9,
                           SearchParams(window=8))

    def test_never_stops_before_window(self):
        assert not should_stop(history_rows([5.0] * 8, [7.0] * 8), [0.4] * 8,
                               SearchParams(window=8))

    def test_requires_all_three_signals(self):
        for f1, f2, hv in (([5.0, 5.0, 4.0], [7.0] * 3, [0.4] * 3),    # f1 still falling
                           ([5.0] * 3, [7.0, 7.0, 6.0], [0.4] * 3),    # f2 still falling
                           ([5.0] * 3, [7.0] * 3, [0.4, 0.4, 0.5])):   # hv still rising
            assert not should_stop(history_rows(f1, f2), hv, SearchParams(window=2))

    def test_window_compares_with_the_generation_window_back(self):
        # the drop between the ends counts, not the last step alone
        history = history_rows([6.0, 5.0, 5.0, 5.0], [7.0] * 4)
        assert not should_stop(history, [0.4] * 4, SearchParams(window=3))
        assert should_stop(history, [0.4] * 4, SearchParams(window=2))

    def test_reads_its_own_hv_series_not_the_history_hv(self):
        history = [HistoryRow(gen=g, fes=0, mean_f1=5.0, mean_f2=7.0, hv=0.1 * g, igd=None)
                   for g in range(1, 4)]
        assert should_stop(history, [0.4] * 3, SearchParams(window=2))
        assert not should_stop(history, [0.4, 0.4, 0.5], SearchParams(window=2))

    def test_reference_fixed_from_first_population(self):
        from phmoea.engine import _Run
        # the series is kept only with early stop on; a long window never fires
        params = SearchParams.benchmark()
        params.early_stop, params.window = True, 100
        run = _Run(bench_problem(n=4), 12, 8, params, 0, use_archives=True)
        seen = []

        def look():
            seen.append((run.reference,
                         [(ind.f1, ind.f2) for ind in run.population if ind.rank == 0],
                         [(ind.f1, ind.f2) for ind in run.population]))

        run._start()
        look()
        while run.step():
            look()
        initial = seen[0][2]
        assert run.reference == (1.1 * max(f1 for f1, _ in initial),
                                 1.1 * max(f2 for _, f2 in initial))
        assert all(reference == run.reference for reference, _, _ in seen)
        assert run.stop_hv == [metrics.hv(front, run.reference) for _, front, _ in seen]
        # the problem's own reference scores HistoryRow.hv, so the series differ
        assert [row.hv for row in run.history] == \
            [metrics.hv(front, (1.1, 1.1)) for _, front, _ in seen] != run.stop_hv


    def test_reference_lies_beyond_a_non_positive_initial_worst(self):
        # shifted by -5 every objective is negative, where 1.1 × the worst
        # value would lie inside the initial population
        from phmoea.engine import _Run
        problem = bench_problem(n=4)
        problem.hv_reference = None
        inner = problem.evaluator

        def shifted(decoded):
            ev = inner(decoded)
            return Evaluation(decoded=decoded, f1=ev.f1 - 5.0, f2=ev.f2 - 5.0)

        problem.evaluator = shifted
        run = _Run(problem, 20, 12, SearchParams.benchmark(), 0, use_archives=True)
        run._start()
        initial = [(ind.f1, ind.f2) for ind in run.population]
        while run.step():
            pass
        assert len(initial) == 20 and max(max(pt) for pt in initial) < 0
        r1, r2 = run.reference
        assert all(f1 < r1 and f2 < r2 for f1, f2 in initial)
        assert run.history[0].hv > 0
        assert run.history[-1].hv > run.history[2].hv

    def test_reference_stays_finite_where_scaling_the_worst_overflows(self):
        # f1 scaled to ~1.7e308: 1.1 × the worst is inf, which hv rejects
        from phmoea.engine import _Run
        problem = bench_problem(n=4)
        problem.hv_reference = None
        inner = problem.evaluator

        def huge(decoded):
            ev = inner(decoded)
            return Evaluation(decoded=decoded, f1=ev.f1 * 1.2e308, f2=ev.f2)

        problem.evaluator = huge
        run = _Run(problem, 20, 4, SearchParams.benchmark(), 0, use_archives=True)
        run._start()
        assert 1.1 * max(ind.f1 for ind in run.population) == math.inf
        while run.step():
            pass
        assert run.reference[0] == np.finfo(float).max
        assert len(run.history) == 4


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

class TestSearchParamsValidate:
    @pytest.mark.parametrize("name, value", [
        ("error_weight", 1.5), ("error_weight", -0.1), ("error_weight", math.nan),
        ("refine_mass", 0.0), ("refine_mass", -1.0),
        ("sbx_eta", -1.0), ("mutation_eta", -0.5),
        ("eps_f1", -1e-3), ("eps_f2", -1e-3), ("eps_hv", -1e-4),
        ("eps_denom", 0.0), ("eps_denom", -1e-12),
        ("max_mutated", 0),
        ("crowding_bonus", -50.0), ("late_crowding_bonus", -0.05),
        # counts are integers other than bools; early_stop is a bool
        ("window", 2.5), ("n_trial", True), ("max_mutated", 2.5),
        ("refine_persistence", 1.5), ("initial_bins", 6.0), ("window", "8"),
        ("early_stop", "no"), ("early_stop", 1),
    ])
    def test_out_of_range_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            SearchParams(**{name: value}).validate()

    def test_numpy_integer_counts_pass(self):
        counts = {name: np.int64(getattr(SearchParams(), name)) for name in
                  ("initial_bins", "n_trial", "refine_persistence", "window", "max_mutated")}
        SearchParams(**counts).validate()
        result = run_nsga2(bench_problem(n=4), np.int64(6), np.int32(2),
                           params=SearchParams(**counts), seed=0)
        assert result.generations == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(SearchParams)
                                      if isinstance(getattr(SearchParams(), f.name), float)])
    def test_every_float_tunable_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            SearchParams(**{name: value}).validate()

    @pytest.mark.parametrize("ratios", [((1.0,),) * 3, ((0.8, 0.1, 0.1),) * 2,
                                        ((0.5, 0.5), (0.8, 0.1, 0.1), (0.5, 0.3, 0.2))])
    def test_stage_ratios_must_be_three_triples(self, ratios):
        with pytest.raises(ValueError, match="stage_ratios"):
            SearchParams(stage_ratios=ratios).validate()

    @pytest.mark.parametrize("ratios", [((1.5, -0.5, 0.0),) * 3,
                                        ((0.8, 0.1, 0.1), (math.nan, 0.5, 0.5),
                                         (0.5, 0.3, 0.2))])
    def test_stage_ratio_entries_must_lie_in_the_unit_interval(self, ratios):
        with pytest.raises(ValueError, match="stage_ratios"):
            SearchParams(stage_ratios=ratios).validate()

    def test_stage_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError, match="stage thresholds must satisfy 0 <= early < late <= 1"):
            SearchParams(stage_early_end=0.5, stage_late_start=0.5).validate()

    def test_stage_ratio_triple_must_sum_to_one(self):
        with pytest.raises(ValueError, match="each stage ratio triple must sum to 1"):
            SearchParams(stage_ratios=((0.5, 0.3, 0.1),) * 3).validate()

    def test_zero_etas_and_tolerances_pass(self):
        SearchParams(sbx_eta=0.0, mutation_eta=0.0, eps_f1=0.0, eps_f2=0.0,
                     eps_hv=0.0, error_weight=1.0, max_mutated=1).validate()


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

class TestRuns:
    @pytest.mark.parametrize("variables", [
        (), (VariableSpec("a", DISCRETE, candidates=("only",)),)])
    def test_collapse_on_a_single_configuration_blames_no_evaluator(self, variables):
        problem = SearchProblem(space=ConfigSpace(variables),
                                evaluator=lambda d: Evaluation(decoded=d, f1=0.0, f2=0.0))
        with pytest.raises(RuntimeError) as info:
            run_nsga2(problem, 6, 3, seed=0)
        assert str(info.value) == ("initial population collapsed: 1 of 6 slots admitted "
                                   "a candidate and 0 evaluations failed")

    @pytest.mark.parametrize("pop_size, generations, message", [
        (1, 3, "population size must be at least 2"), (6, 0, "need at least one generation"),
        (6, True, "generations must be an integer"), (6, 2.5, "generations must be an integer"),
        (6.0, 3, "pop_size must be an integer"), (True, 3, "pop_size must be an integer")])
    def test_budget_below_one_step_rejected(self, pop_size, generations, message):
        with pytest.raises(ValueError, match=message):
            run_nsga2(bench_problem(n=4), pop_size, generations, seed=0)

    def test_log_variable_whose_bounds_share_a_log(self):
        # log(1e300) == log(nextafter(1e300, inf)): polynomial mutation has no span
        a = 1e300
        space = ConfigSpace((VariableSpec("d", DISCRETE, candidates=tuple(range(8))),
                             VariableSpec("x", CONTINUOUS, bounds=(a, math.nextafter(a, math.inf)),
                                          scale="log")))
        problem = SearchProblem(space=space, evaluator=lambda d: Evaluation(
            decoded=d, f1=float(d.values[0]), f2=float(d.values[1] > a) - d.values[0]))
        result = run_nsga2(problem, 8, 5, params=SearchParams(mutation_prob=1.0), seed=0)
        assert [row.gen for row in result.history] == [1, 2, 3, 4, 5]

    def test_log_variable_whose_bounds_share_a_log_decodes_within_them(self):
        a, b = 1e300, math.nextafter(1e300, math.inf)
        space = ConfigSpace((VariableSpec("d", DISCRETE, candidates=tuple(range(8))),
                             VariableSpec("x", CONTINUOUS, bounds=(a, b), scale="log")))
        decoded = []

        def evaluate(d):
            decoded.append(d.values[1])
            return Evaluation(decoded=d, f1=float(d.values[0]),
                              f2=float(d.values[1] > a) - d.values[0])

        run_nsga2(SearchProblem(space=space, evaluator=evaluate), 8, 5,
                  params=SearchParams(mutation_prob=1.0), seed=0)
        assert decoded and all(a <= x <= b for x in decoded)

    def test_collapse_on_a_failing_evaluator_counts_the_failures(self):
        problem = bench_problem(n=4)
        problem.evaluator = lambda d: Evaluation(decoded=d, f1=math.nan, f2=0.0)
        with pytest.raises(RuntimeError) as info:
            run_phmoea(problem, 8, 3, seed=0)
        assert str(info.value) == ("initial population collapsed: 8 of 8 slots admitted "
                                   "a candidate and 8 evaluations failed")

    def test_deterministic_for_seed(self):
        a = run_phmoea(bench_problem(n=4), 12, 10,
                       params=SearchParams.benchmark(), seed=11)
        b = run_phmoea(bench_problem(n=4), 12, 10,
                       params=SearchParams.benchmark(), seed=11)
        assert [(i.f1, i.f2, i.key) for i in a.pareto] == \
            [(i.f1, i.f2, i.key) for i in b.pareto]
        assert a.history == b.history

    def test_budget_respected(self):
        res = run_phmoea(bench_problem(n=4), 10, 8,
                         params=SearchParams.benchmark(), seed=0)
        assert res.fes <= 10 * 8
        assert res.history[-1].fes == res.fes

    def test_evaluated_keys_distinct(self):
        res = run_phmoea(bench_problem(n=5), 14, 10,
                         params=SearchParams.benchmark(), seed=1)
        assert len(set(res.evaluated_keys)) == len(res.evaluated_keys)

    def test_fe_accounting_matches_evaluator(self):
        problem = bench_problem(n=4)
        inner, dispatched = problem.evaluator, []

        def counting(decoded):
            dispatched.append(decoded.values)
            return inner(decoded)

        problem.evaluator = counting
        res = run_phmoea(problem, 10, 8, params=SearchParams.benchmark(), seed=2)
        assert res.fes == res.history[-1].fes == len(dispatched)
        assert res.evaluated_keys == dispatched

    def test_early_stopped_run_counts_what_it_recorded(self):
        problem = bench_problem(n=4)
        problem.evaluator = lambda decoded: Evaluation(decoded=decoded, f1=1.0, f2=1.0)
        params = SearchParams.benchmark()
        params.early_stop, params.window = True, 2
        res = run_nsga2(problem, 8, 20, params=params, seed=0)
        assert res.stopped_early
        assert res.generations == len(res.history) == res.history[-1].gen == 3
        assert res.fes == len(res.evaluated_keys) == res.history[-1].fes

    @pytest.mark.parametrize("early_stop, hv_reference, per_generation", [
        (False, (1.1, 1.1), 1),     # HistoryRow.hv only
        (True, None, 1),            # both series against the run's reference
        (True, (1.1, 1.1), 2),      # one against each reference
    ])
    def test_hv_calls_per_generation(self, monkeypatch, early_stop, hv_reference,
                                     per_generation):
        calls = []
        hv = metrics.hv

        def counting(points, reference):
            calls.append(reference)
            return hv(points, reference)

        monkeypatch.setattr(metrics, "hv", counting)
        problem = bench_problem("hdtlz7", n=4)
        problem.hv_reference = hv_reference
        params = SearchParams.benchmark()
        params.early_stop = early_stop
        res = run_nsga2(problem, 12, 10, params=params, seed=0)
        assert len(calls) == per_generation * res.generations

    def test_pareto_mutually_nondominated(self):
        res = run_nsga2(bench_problem(n=5), 16, 10,
                        params=SearchParams.benchmark(), seed=4)
        pts = [(i.f1, i.f2) for i in res.pareto]
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                if i != j:
                    assert not (a[0] <= b[0] and a[1] <= b[1]
                                and (a[0] < b[0] or a[1] < b[1]))

    def test_min_objectives_non_increasing(self, monkeypatch):
        minima = []
        select = engine.environmental_select

        def recording(union, n):
            survivors = select(union, n)
            minima.append((min(ind.f1 for ind in survivors),
                           min(ind.f2 for ind in survivors)))
            return survivors

        monkeypatch.setattr(engine, "environmental_select", recording)
        res = run_phmoea(bench_problem(n=5), 20, 20,
                         params=SearchParams.benchmark(), seed=5)
        assert len(minima) == res.generations - 1
        f1_mins = [m[0] for m in minima]
        f2_mins = [m[1] for m in minima]
        assert all(b <= a + 1e-12 for a, b in zip(f1_mins, f1_mins[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(f2_mins, f2_mins[1:]))

    def test_evaluator_errors_skip_candidates(self):
        problem = bench_problem(n=4)
        inner = problem.evaluator

        calls = {"n": 0}

        def flaky(decoded):
            calls["n"] += 1
            ev = inner(decoded)
            if calls["n"] % 7 == 3:
                return Evaluation(decoded=decoded, f1=float("nan"), f2=float("nan"),
                                  message="synthetic failure")
            return ev

        flaky_problem = SearchProblem(space=problem.space, evaluator=flaky,
                                      hv_reference=(1.1, 1.1))
        res = run_phmoea(flaky_problem, 12, 6, params=SearchParams.benchmark(),
                         seed=9)
        assert res.skipped_errors > 0
        assert res.fes == calls["n"]
        assert len(res.population) <= 12

    @pytest.mark.parametrize("runner", [run_phmoea, run_nsga2])
    def test_raising_evaluator_fails_only_its_candidate(self, runner):
        params = SearchParams.benchmark()
        baseline = runner(bench_problem(n=4), 12, 6, params=params, seed=9)
        problem = bench_problem(n=4)
        inner, bad = problem.evaluator, baseline.evaluated_keys[30]

        def raising(decoded):
            if decoded.values == bad:
                raise ValueError("no such layer")
            return inner(decoded)

        problem.evaluator = raising
        res = runner(problem, 12, 6, params=params, seed=9)
        assert res.skipped_errors == 1
        assert res.fes == baseline.fes
        assert res.evaluated_keys[:31] == baseline.evaluated_keys[:31]

    @pytest.mark.parametrize("runner", [run_phmoea, run_nsga2])
    def test_raising_batch_fails_only_its_batch(self, runner):
        problem = bench_problem(n=4)
        inner = problem.evaluator

        class RaisingBatches:
            def __init__(self):
                self.sizes = []

            def evaluate_many(self, batch):
                self.sizes.append(len(batch))
                if len(self.sizes) == 3:
                    raise RuntimeError("cluster unavailable")
                return [inner(dec) for dec in batch]

        evaluator = RaisingBatches()
        problem.evaluator = evaluator
        res = runner(problem, 12, 6, params=SearchParams.benchmark(), seed=9)
        assert res.generations == 6
        assert res.skipped_errors == evaluator.sizes[2] > 0
        assert res.fes == sum(evaluator.sizes) == len(res.evaluated_keys)

    @pytest.mark.parametrize("runner", [run_phmoea, run_nsga2])
    def test_short_batch_fails_its_whole_batch(self, runner):
        problem = bench_problem(n=4)
        inner = problem.evaluator

        class ShortBatches:
            """Drops the last result of every batch after the first."""

            def __init__(self):
                self.sizes = []

            def evaluate_many(self, batch):
                self.sizes.append(len(batch))
                results = [inner(dec) for dec in batch]
                return results[:-1] if len(self.sizes) > 1 else results

        evaluator = ShortBatches()
        problem.evaluator = evaluator
        res = runner(problem, 10, 4, params=SearchParams.benchmark(), seed=0)
        assert len(evaluator.sizes) == 4
        assert res.fes == sum(evaluator.sizes) == len(res.evaluated_keys)
        assert res.skipped_errors == sum(evaluator.sizes[1:]) > 0

    def test_dedup_reads_no_hash(self, monkeypatch):
        # admission compares value tuples: with every 64-bit key equal, the
        # same candidates are admitted and the run is unchanged
        def run():
            return run_nsga2(bench_problem("hdtlz7", n=12), 20, 10,
                             params=SearchParams.benchmark(), seed=0)
        plain = run()
        monkeypatch.setattr(engine, "canonical_key", lambda genes: 0)
        monkeypatch.setattr("phmoea.space.canonical_key", lambda genes: 0)
        colliding = run()
        assert colliding.evaluated_keys == plain.evaluated_keys
        assert colliding.history == plain.history

    def test_evaluations_read_no_hash(self, monkeypatch):
        # an Evaluation holds the configuration it answers and reads its key
        # from it, so a run hashes only in _result's sort of the front
        space = builtin_space()
        searches = (
            lambda: run_nsga2(bench_problem("hdtlz7", n=12), 20, 10,
                              params=SearchParams.benchmark(), seed=0),
            lambda: run_phmoea(SearchProblem(space=space, evaluator=SurrogateEvaluator(space)),
                               20, 5, params=SearchParams.real_task(), seed=0))
        plain = [search() for search in searches]
        hashed = []

        def counting(genes):
            hashed.append(genes)
            return canonical_key(genes)

        monkeypatch.setattr("phmoea.space.canonical_key", counting)
        for search, unpatched in zip(searches, plain):
            hashed.clear()
            result = search()
            assert len(hashed) == len(result.pareto)
            assert result.history == unpatched.history
        bench, surrogate = (result.pareto[0].decoded for result in plain)
        for decoded, ev in (
                (bench, BenchmarkEvaluator(HBenchProblem("hdtlz7", n=12))(bench)),
                (surrogate, SurrogateEvaluator(space)(surrogate)),
                (surrogate, failed_evaluation(surrogate, "no such layer"))):
            assert ev.decoded is decoded and ev.key == decoded.key

    def test_no_configuration_is_dispatched_twice(self):
        problem = bench_problem("hdtlz7", n=12)
        inner, dispatched = problem.evaluator, Counter()

        def recording(decoded):
            dispatched[decoded.values] += 1
            return inner(decoded)

        problem.evaluator = recording
        run_nsga2(problem, 20, 10, params=SearchParams.benchmark(), seed=0)
        assert [v for v, n in dispatched.items() if n > 1] == []

    def test_nsga2_within_three_x_of_phmoea(self):
        problem_a = bench_problem("hdtlz2", n=6)
        problem_b = bench_problem("hdtlz2", n=6)
        params = SearchParams.benchmark()
        a = run_phmoea(problem_a, 40, 40, params=params, seed=0)
        b = run_nsga2(problem_b, 40, 40, params=params, seed=0)
        assert b.history[-1].igd <= 3.0 * a.history[-1].igd + 0.01

    def test_parallel_evaluation_order_does_not_change_results(self):
        import concurrent.futures

        class ThreadedEvaluator:
            """Evaluates a batch on worker threads, results in input order."""

            def __init__(self, inner):
                self.inner = inner

            def __call__(self, decoded):
                return self.inner(decoded)

            def evaluate_many(self, batch):
                with concurrent.futures.ThreadPoolExecutor(4) as pool:
                    return list(pool.map(self.inner, batch))

        sequential = bench_problem("hdtlz7", n=5)
        threaded = bench_problem("hdtlz7", n=5)
        threaded.evaluator = ThreadedEvaluator(threaded.evaluator)
        params = SearchParams.benchmark()
        a = run_phmoea(sequential, 16, 12, params=params, seed=21)
        b = run_phmoea(threaded, 16, 12, params=params, seed=21)
        assert [(i.f1, i.f2, i.key) for i in a.pareto] == \
            [(i.f1, i.f2, i.key) for i in b.pareto]
        assert a.history == b.history


# ---------------------------------------------------------------------------
# A run that steps
# ---------------------------------------------------------------------------

class TestStep:
    @staticmethod
    def step_until_stopped(run):
        """Step a started run until ``step()`` returns False, then twice more.

        A True step adds one history row for the next generation; a False one
        draws, records and admits nothing, and so does every call after it.
        """
        falses = 0
        while falses < 3:
            before = (run.rng.state, list(run.history), list(run.registry.keys))
            if run.step():
                assert falses == 0
                assert run.history[:-1] == before[1]
                assert run.history[-1].gen == len(run.history)
            else:
                falses += 1
                assert (run.rng.state, run.history, list(run.registry.keys)) == before

    @pytest.mark.parametrize("use_archives", [True, False])
    def test_steps_to_the_budget(self, use_archives):
        run = engine_for(bench_problem(n=4), generations=6, use_archives=use_archives)
        assert len(run.history) == 1
        self.step_until_stopped(run)
        assert len(run.history) == 6 and not run.stopped_early

    def test_stops_early_before_the_budget(self):
        problem = bench_problem(n=4)
        problem.evaluator = lambda decoded: Evaluation(decoded=decoded, f1=1.0, f2=1.0)
        params = SearchParams.benchmark()
        params.early_stop, params.window = True, 2
        run = engine_for(problem, pop_size=8, generations=20, params=params,
                         use_archives=False)
        self.step_until_stopped(run)
        assert run.stopped_early and len(run.history) == 3

    @pytest.mark.parametrize("use_archives", [True, False])
    def test_alternately_stepped_runs_write_what_each_writes_alone(self, tmp_path,
                                                                   use_archives):
        # a run's whole state lives on its object: stepping another run in
        # between, one that ends sooner, changes no byte it writes
        from phmoea.cli import write_run_outputs
        from phmoea.engine import _Run

        def make(seed, generations):
            return _Run(bench_problem(n=6), 12, generations, SearchParams.benchmark(),
                        seed, use_archives)

        def written(run, result, name):
            write_run_outputs(tmp_path / name, {}, result, run.space)
            return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

        budgets = {0: 10, 1: 7}
        pair = [make(seed, gens) for seed, gens in budgets.items()]
        for run in pair:
            run._start()
        while any([run.step() for run in pair]):
            pass
        for run, (seed, gens) in zip(pair, budgets.items()):
            alone = make(seed, gens)
            assert written(run, run._result(), f"pair_{seed}") == \
                written(alone, alone.run(), f"alone_{seed}")
