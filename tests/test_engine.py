"""Engine unit tests: scoring, archives, pools, variation, selection, stopping."""

import math

import numpy as np
import pytest

from phmoea.benchmarks import HBenchProblem, reference_front
from phmoea.engine import (EarlyStopMonitor, Individual, PlayerArchives,
                           SearchParams, SearchProblem, compute_scores,
                           environmental_select, nd_sort_and_crowd,
                           normalize_generation, partition_players,
                           run_nsga2, run_phmoea, sample_candidate,
                           stage_ratios)
from phmoea.evaluators import BenchmarkEvaluator, Evaluation
from phmoea.space import (CONTINUOUS, PLACEHOLDER, ConfigSpace, DecodedConfig,
                          Genotype, RefinementState, VariableSpec,
                          builtin_space, canonical_key, decode, sample_random,
                          split_renumbering)


def individuals(points):
    out = []
    for i, (f1, f2) in enumerate(points):
        dec = DecodedConfig(values=(float(i),), active=(True,), ids=(i,))
        out.append(Individual(genotype=Genotype((i,), (i,)), decoded=dec,
                              key=i, f1=float(f1), f2=float(f2)))
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


class TestNormalization:
    def test_three_values(self):
        pop = individuals([(2.0, 5.0), (4.0, 5.0), (6.0, 5.0)])
        nd_sort_and_crowd(pop)
        normalize_generation(pop)
        assert [round(ind.f1_norm, 6) for ind in pop] == [0.0, 0.5, 1.0]

    def test_all_equal_go_to_zero(self):
        pop = individuals([(3.0, 3.0)] * 5)
        nd_sort_and_crowd(pop)
        normalize_generation(pop)
        assert all(ind.f1_norm == 0.0 and ind.f2_norm == 0.0 for ind in pop)

    def test_boundary_crowding_normalizes_to_one(self):
        pop = individuals([(0.0, 1.0), (0.3, 0.6), (0.6, 0.3), (1.0, 0.0)])
        nd_sort_and_crowd(pop)
        normalize_generation(pop)
        assert pop[0].crowding_norm == 1.0 and pop[3].crowding_norm == 1.0
        assert 0.0 <= pop[1].crowding_norm <= 1.0

    def test_dominance_invariant_under_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pts = rng.random((20, 2)) * rng.uniform(1, 1e6)
            pop = individuals(pts)
            nd_sort_and_crowd(pop)
            raw_ranks = [ind.rank for ind in pop]
            normalize_generation(pop)
            scaled = individuals([(ind.f1_norm, ind.f2_norm) for ind in pop])
            nd_sort_and_crowd(scaled)
            assert raw_ranks == [ind.rank for ind in scaled]


# ---------------------------------------------------------------------------
# Stage scores and weights
# ---------------------------------------------------------------------------

class TestScores:
    def test_early_branch(self):
        pop = individuals([(0.0, 0.0), (1.0, 1.0)])
        pop[0].rank, pop[0].crowding_norm = 0, 1.0
        pop[1].rank, pop[1].crowding_norm = 1, 0.0
        params = SearchParams(crowding_bonus=0.2)
        compute_scores(pop, phi=0.1, params=params)
        assert pop[0].score == pytest.approx(1.2)

    def test_middle_branch_blend(self):
        pop = individuals([(0.0, 0.0)])
        ind = pop[0]
        ind.rank, ind.crowding_norm = 0, 0.0
        ind.f1_norm, ind.f2_norm = 1.0, 1.0
        params = SearchParams(stage_early_end=0.3, stage_late_start=0.6,
                              error_weight=0.5)
        compute_scores(pop, phi=0.45, params=params)
        s, g = 1.0, 1.0
        assert ind.score == pytest.approx(0.5 * s + 0.5 * g)

    def test_late_branch(self):
        pop = individuals([(0.0, 0.0)])
        ind = pop[0]
        ind.rank, ind.crowding_norm = 3, 0.0
        ind.f1_norm, ind.f2_norm = 0.2, 0.4
        params = SearchParams(error_weight=0.7, late_crowding_bonus=0.05)
        compute_scores(pop, phi=0.9, params=params)
        assert ind.score == pytest.approx(0.26)

    def test_weights_form_a_simplex(self):
        rng = np.random.default_rng(2)
        pop = individuals(rng.random((30, 2)))
        nd_sort_and_crowd(pop)
        normalize_generation(pop)
        for phi in (0.05, 0.45, 0.95):
            compute_scores(pop, phi, SearchParams())
            total = sum(ind.weight for ind in pop)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(ind.weight >= 0 for ind in pop)

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
        arch = PlayerArchives()
        dec = DecodedConfig(values=("a", None, 1.5), active=(True, False, True),
                            ids=(2, PLACEHOLDER, 4))
        ind = Individual(genotype=Genotype((2, PLACEHOLDER, 4), (2, 0, 4)),
                         decoded=dec, key=1, f1=0.0, f2=0.0)
        ind.weight = 1.0
        arch.update([ind])
        assert arch.heat[(1, 2)] == 1.0 and arch.count[(1, 2)] == 1
        assert arch.heat[(3, 4)] == 1.0 and arch.count[(3, 4)] == 1
        # the inactive dim contributes nothing, not even its frozen gene
        assert not any(d == 2 for d, _ in list(arch.heat) + list(arch.count))

    def test_shared_player_counts(self):
        arch = PlayerArchives()
        dec = DecodedConfig(values=("a",), active=(True,), ids=(0,))
        inds = [Individual(genotype=Genotype((0,), (0,)), decoded=dec, key=i,
                           f1=0.0, f2=0.0) for i in range(2)]
        for ind in inds:
            ind.weight = 0.5
        arch.update(inds)
        assert arch.count[(1, 0)] == 2
        assert arch.heat[(1, 0)] == pytest.approx(1.0)

    def test_split_bin_remaps_and_conserves(self):
        arch = PlayerArchives()
        arch.heat[(13, 0)], arch.count[(13, 0)] = 1.0, 4
        arch.heat[(13, 1)], arch.count[(13, 1)] = 2.0, 5
        arch.heat[(13, 2)], arch.count[(13, 2)] = 0.5, 1
        arch.split_bin(13, *split_renumbering([(13, 1)], 13, 4))
        assert arch.heat[(13, 0)] == 1.0
        assert arch.heat[(13, 1)] == pytest.approx(1.0)
        assert arch.heat[(13, 2)] == pytest.approx(1.0)
        assert arch.heat[(13, 3)] == 0.5
        assert arch.count[(13, 1)] + arch.count[(13, 2)] == 5
        assert arch.count[(13, 3)] == 1


class TestPartition:
    def test_six_candidates_hot_size(self):
        arch = PlayerArchives()
        for a in range(6):
            arch.heat[(1, a)] = float(a)
        part = partition_players(arch, 1, 6, hot_fraction=0.3, cold_fraction=0.2)
        assert len(part.hot) == 2
        assert part.hot == (4, 5)

    def test_two_candidates(self):
        arch = PlayerArchives()
        part = partition_players(arch, 1, 2, hot_fraction=0.3, cold_fraction=0.2)
        assert len(part.hot) == 1 and len(part.cold) == 1 and not part.normal

    def test_zero_archives_tie_break_by_index(self):
        arch = PlayerArchives()
        part = partition_players(arch, 7, 6, hot_fraction=0.3, cold_fraction=0.2)
        assert part.hot == (0, 1)
        assert part.cold == (2, 3)
        assert part.normal == (4, 5)

    def test_cold_selected_by_count_among_non_hot(self):
        arch = PlayerArchives()
        heats = [5.0, 4.0, 1.0, 1.0, 1.0, 1.0]
        counts = [9, 9, 7, 2, 5, 1]
        for a in range(6):
            arch.heat[(1, a)] = heats[a]
            arch.count[(1, a)] = counts[a]
        part = partition_players(arch, 1, 6, 0.3, 0.2)
        assert part.hot == (0, 1)
        assert part.cold == (5, 3)[::-1] or part.cold == (3, 5)


class TestSampling:
    def test_cold_bonus_probability(self):
        arch = PlayerArchives()
        part = partition_players(arch, 1, 3, hot_fraction=0.0, cold_fraction=0.0)
        # force a known partition: one cold, two normal
        from phmoea.engine import Partition
        part = Partition(hot=(), normal=(1, 2), cold=(0,))
        rng = np.random.default_rng(0)
        draws = [sample_candidate(part, "nh", 3, cold_bonus=0.15, rng=rng)
                 for _ in range(40000)]
        p_cold = draws.count(0) / len(draws)
        assert p_cold == pytest.approx(0.15 / 2.15, abs=0.01)

    def test_all_normal_is_uniform(self):
        from phmoea.engine import Partition
        part = Partition(hot=(), normal=(0, 1, 2, 3), cold=())
        rng = np.random.default_rng(1)
        draws = [sample_candidate(part, "nh", 4, 0.15, rng) for _ in range(20000)]
        for a in range(4):
            assert draws.count(a) / len(draws) == pytest.approx(0.25, abs=0.02)

    def test_singleton_hot(self):
        from phmoea.engine import Partition
        part = Partition(hot=(2,), normal=(0,), cold=(1,))
        rng = np.random.default_rng(2)
        assert all(sample_candidate(part, "hot", 3, 0.15, rng) == 2
                   for _ in range(100))

    def test_empty_pool_falls_back_to_uniform(self):
        from phmoea.engine import Partition
        part = Partition(hot=(0, 1), normal=(), cold=())
        rng = np.random.default_rng(3)
        draws = {sample_candidate(part, "nh", 2, 0.15, rng) for _ in range(50)}
        assert draws == {0, 1}

    def test_non_hot_draws_match_the_loop_reference(self):
        from phmoea.engine import Partition
        part = Partition(hot=(4,), normal=(0, 5, 2), cold=(6, 1, 3))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        members = sorted(part.normal + part.cold)
        weights = np.array([0.15 if a in part.cold else 1.0 for a in members])
        weights /= weights.sum()
        for _ in range(200):
            expected = members[ref_rng.choice(len(members), p=weights)]
            assert sample_candidate(part, "nh", 7, 0.15, rng) == expected


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------

def engine_for(problem, pop_size=10, generations=10, params=None, seed=0,
               use_archives=True):
    from phmoea.engine import _Run
    run = _Run(problem, pop_size, generations,
               params or SearchParams.benchmark(), seed, use_archives)
    init = run._fill_slots(pop_size, lambda: sample_random(
        run.space, run.state, run.rng))
    run.population = run._evaluate(init)
    nd_sort_and_crowd(run.population)
    return run


class TestVariation:
    def test_no_crossover_no_mutation_copies_parents(self):
        params = SearchParams.benchmark()
        params.crossover_prob = 0.0
        params.mutation_prob = 0.0
        run = engine_for(bench_problem(n=4), params=params)
        parents = {ind.genotype.genes for ind in run.population}
        for _ in range(50):
            child = run._variation_child()
            assert child.genes in parents

    def test_sbx_on_equal_parents_returns_them(self):
        run = engine_for(bench_problem(n=4))
        g = run.population[0].genotype
        for _ in range(30):
            child = run._sbx_child(g, g)
            assert child.genes == g.genes

    def test_mutation_changes_at_most_cap_dims(self):
        params = SearchParams.benchmark()
        params.crossover_prob = 0.0
        params.mutation_prob = 1.0
        run = engine_for(bench_problem(n=12), params=params)
        run.max_mutated = 2
        for ind in run.population:
            for _ in range(10):
                child = run._mutate(ind.genotype)
                changed = sum(1 for a, b in zip(child.genes, ind.genotype.genes)
                              if a != b)
                assert changed <= 2

    def test_assembled_offspring_pool_purity_without_cross_mutation(self):
        from phmoea.engine import partition_players
        params = SearchParams.benchmark()
        params.cross_pool_rate = 0.0
        run = engine_for(bench_problem(n=5), params=params)
        run.archives.update(run.population)
        partitions = {
            var.index: partition_players(run.archives, var.index,
                                         run.state.choice_count(var), 0.3, 0.2)
            for var in run.space.variables
        }
        for pool in ("hot", "nh"):
            for _ in range(20):
                child = run._assemble_child(partitions, pool)
                for i, var in enumerate(run.space.variables):
                    part = partitions[var.index]
                    members = part.hot if pool == "hot" else part.non_hot
                    if members:  # empty pools legitimately fall back
                        assert child.genes[i] in members

    def test_offspring_source_counts(self, monkeypatch):
        run = engine_for(bench_problem(n=4), pop_size=50)
        normalize_generation(run.population)
        requested = []
        original = run._fill_slots

        def spy(n_slots, make):
            requested.append(n_slots)
            return original(n_slots, make)

        monkeypatch.setattr(run, "_fill_slots", spy)
        run._generate_offspring(phi=0.3)   # middle stage: (0.6, 0.2, 0.2)
        assert requested == [30, 10, 10]


# ---------------------------------------------------------------------------
# Refinement re-snap
# ---------------------------------------------------------------------------

class TestRefinementResnap:
    def test_narrow_bins_keep_their_members(self):
        from phmoea.engine import _Run
        space = ConfigSpace((VariableSpec(1, "x", CONTINUOUS, bounds=(0.0, 1.0)),))
        run = _Run(SearchProblem(space=space, evaluator=None), 6, 1,
                   SearchParams.benchmark(), 0, use_archives=True)
        state = run.state
        for _ in range(60):                 # halve bin 0 sixty times
            state.counters[1][0] = state.persistence
            state.refine()
        assert np.diff(state.breakpoints(1))[:4].max() < 1e-18
        genes = [2, 0, 2, 3, 2, 9]
        frozen = [2, 2, 1, 2, 4, 0]
        run.population = []
        for i, (g, f) in enumerate(zip(genes, frozen)):
            genotype = Genotype((g,), (f,))
            run.population.append(Individual(
                genotype=genotype, decoded=decode(genotype, space, state),
                key=i, f1=0.0, f2=0.0))
        before = {j: state.representative(1, j) for j in set(genes + frozen)}
        state.counters[1] = [0] * state.bin_count(1)
        state.counters[1][2] = state.persistence
        run._refine([])
        new_genes = [ind.genotype.genes[0] for ind in run.population]
        new_frozen = [ind.genotype.frozen[0] for ind in run.population]
        # bin 2 split into bins 2 and 3; its members alternate left, right, left
        assert [g for old, g in zip(genes, new_genes) if old == 2] == [2, 3, 2]
        assert [f for old, f in zip(frozen, new_frozen) if old == 2] == [2, 3, 2]
        for ind, old_g, g, old_f, f in zip(run.population, genes, new_genes,
                                           frozen, new_frozen):
            if old_g != 2:
                assert ind.decoded.values[0] == before[old_g]
                assert state.representative(1, g) == before[old_g]
            if old_f != 2:
                assert state.representative(1, f) == before[old_f]

    def test_front_mass_counts_the_occupied_bin(self):
        # Splitting the bin that holds 0.6 until refine() refuses leaves bin
        # 29 one ulp wide, so its midpoint rounds onto its right breakpoint.
        # Refinement must credit a member to the bin it occupies (29), not to
        # the bin that contains its decoded value (30).
        from phmoea.engine import _Run
        space = ConfigSpace((VariableSpec(1, "x", CONTINUOUS, bounds=(0.0, 1.0)),))
        params = SearchParams.benchmark()
        params.refine_persistence = 2
        run = _Run(SearchProblem(space=space, evaluator=None), 6, 1, params, 0,
                   use_archives=True)
        state = run.state
        splits = 0
        while True:
            k = int(np.searchsorted(state.breakpoints(1), 0.6, side="right")) - 1
            state.counters[1][k] = state.persistence
            if not state.refine():
                break
            splits += 1
        assert splits == 51
        pts = state.breakpoints(1)
        assert np.nextafter(pts[29], 1.0) == pts[30]
        assert state.representative(1, 29) == pts[30]
        state.counters[1] = [0] * state.bin_count(1)
        member = Genotype((29,), (29,))
        run.population = [Individual(genotype=member,
                                     decoded=decode(member, space, state),
                                     key=0, f1=0.0, f2=0.0)]
        run._refine(run.population)
        assert state.counters[1][29] == 1
        assert state.counters[1][30] == 0


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

    def test_elitism_across_generations(self):
        problem = bench_problem(n=4)
        res = run_phmoea(problem, 16, 12, params=SearchParams.benchmark(), seed=3)
        best_f1 = [row.mean_f1 for row in res.history]
        # the running best objective can never regress under elitism
        mins_f1 = np.minimum.accumulate([row.mean_f1 for row in res.history])
        assert all(m <= b + 1e-12 for m, b in zip(mins_f1, best_f1))


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------

def stopped_monitor(window=8):
    params = SearchParams(window=window)
    return EarlyStopMonitor(params)


class TestEarlyStop:
    def test_relative_drop_arithmetic(self):
        mon = stopped_monitor(window=1)
        mon.f1_means = [10.0, 9.0]
        assert mon._relative_drop(mon.f1_means) == pytest.approx(0.1)

    def test_increase_clamps_to_zero(self):
        mon = stopped_monitor(window=1)
        mon.f1_means = [9.0, 10.0]
        assert mon._relative_drop(mon.f1_means) == 0.0

    def test_stagnant_history_stops(self):
        mon = stopped_monitor(window=8)
        mon.f1_means = [5.0] * 9
        mon.f2_means = [7.0] * 9
        mon.hv_values = [0.4] * 9
        assert mon.should_stop()

    def test_never_stops_before_window(self):
        mon = stopped_monitor(window=8)
        mon.f1_means = [5.0] * 8
        mon.f2_means = [7.0] * 8
        mon.hv_values = [0.4] * 8
        assert not mon.should_stop()

    def test_requires_all_three_signals(self):
        mon = stopped_monitor(window=2)
        mon.f1_means = [5.0, 5.0, 5.0]
        mon.f2_means = [7.0, 7.0, 7.0]
        mon.hv_values = [0.4, 0.4, 0.5]   # still improving
        assert not mon.should_stop()

    def test_reference_fixed_from_first_population(self):
        mon = stopped_monitor()
        pop = individuals([(2.0, 10.0), (1.0, 30.0)])
        mon.set_reference(pop)
        assert mon.reference == (pytest.approx(2.2), pytest.approx(33.0))
        mon.set_reference(individuals([(100.0, 100.0)]))
        assert mon.reference == (pytest.approx(2.2), pytest.approx(33.0))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

class TestRuns:
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
        res = run_phmoea(problem, 10, 8, params=SearchParams.benchmark(), seed=2)
        assert problem.evaluator.calls == res.fes

    def test_pareto_mutually_nondominated(self):
        res = run_nsga2(bench_problem(n=5), 16, 10,
                        params=SearchParams.benchmark(), seed=4)
        pts = [(i.f1, i.f2) for i in res.pareto]
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                if i != j:
                    assert not (a[0] <= b[0] and a[1] <= b[1]
                                and (a[0] < b[0] or a[1] < b[1]))

    def test_min_objectives_non_increasing(self):
        res = run_phmoea(bench_problem(n=5), 20, 20,
                         params=SearchParams.benchmark(), seed=5)
        f1_mins = [row.min_f1 for row in res.history]
        f2_mins = [row.min_f2 for row in res.history]
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
                return Evaluation(key=ev.key, f1=float("nan"), f2=float("nan"),
                                  status="error", message="synthetic failure")
            return ev

        flaky_problem = SearchProblem(space=problem.space, evaluator=flaky,
                                      hv_reference=(1.1, 1.1))
        res = run_phmoea(flaky_problem, 12, 6, params=SearchParams.benchmark(),
                         seed=9)
        assert res.skipped_errors > 0
        assert res.fes == calls["n"]
        assert len(res.population) <= 12

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
