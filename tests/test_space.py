"""Space definition, encoding, repair, dedup and refinement tests."""

import numpy as np
import pytest

from phmoea.space import (COND_DISCRETE, CONTINUOUS, DISCRETE, ConfigSpace,
                          DedupRegistry, Genotype, PLACEHOLDER,
                          RefinementState, VariableSpec, bin_value,
                          builtin_space, canonical_key, decode, dump_space,
                          fresh_genotype, load_space, repair, sample_random,
                          space_from_json, space_to_json, split_renumbering)


@pytest.fixture(scope="module")
def space():
    return builtin_space()


def make_state(space, **kw):
    return RefinementState(space, **kw)


# ---------------------------------------------------------------------------
# Built-in space
# ---------------------------------------------------------------------------

class TestBuiltinSpace:
    def test_dimension_count(self, space):
        assert len(space) == 24

    def test_aligned_length_candidates(self, space):
        assert space.variable(3).candidates == (8, 12, 24, 36, 48)

    def test_pool_type_parent(self, space):
        assert space.variable(2).parent == (1, ("pool",))

    def test_learning_rate_is_log_scaled(self, space):
        var = space.variable(14)
        assert var.bounds == (1e-5, 1e-2)
        assert var.scale == "log"

    def test_weight_decay_is_log_scaled(self, space):
        var = space.variable(15)
        assert var.bounds == (1e-6, 1e-2)
        assert var.scale == "log"

    def test_all_parent_conditions(self, space):
        parents = {v.index: v.parent for v in space.variables if v.parent}
        assert parents == {
            2: (1, ("pool",)),
            17: (16, ("on",)),
            19: (18, ("Combined", "AdaptiveCombined")),
            20: (18, ("AdaptiveCombined",)),
            21: (18, ("AdaptiveCombined",)),
            23: (22, ("weighting",)),
            24: (22, ("cross_mapping",)),
        }

    def test_loss_pair_candidates_count(self, space):
        assert len(space.variable(19).candidates) == 10

    def test_invalid_parent_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace(variables=(
                VariableSpec(1, "a", COND_DISCRETE, candidates=("x", "y"),
                             parent=(2, ("p",))),
                VariableSpec(2, "b", DISCRETE, candidates=("p", "q")),
            ))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace(variables=(
                VariableSpec(1, "a", CONTINUOUS, bounds=(1.0, 0.0)),))

    def test_log_scale_needs_positive_lower(self):
        with pytest.raises(ValueError):
            ConfigSpace(variables=(
                VariableSpec(1, "a", CONTINUOUS, bounds=(0.0, 1.0), scale="log"),))


# ---------------------------------------------------------------------------
# Bin representatives
# ---------------------------------------------------------------------------

class TestBinValue:
    def test_linear_first_bin(self):
        assert bin_value(0.0, 0.5, 6, 1) == pytest.approx(0.0416667, abs=1e-6)

    def test_log_first_bin(self):
        # geometric grid: equals 1e-5 * 10**0.25
        assert bin_value(1e-5, 1e-2, 6, 1, "log") == pytest.approx(1.77828e-5, rel=1e-5)

    def test_single_bin_is_midpoint(self):
        assert bin_value(2.0, 4.0, 1, 1) == pytest.approx(3.0)

    def test_out_of_range_bin(self):
        with pytest.raises(ValueError):
            bin_value(0.0, 1.0, 6, 7)
        with pytest.raises(ValueError):
            bin_value(0.0, 1.0, 6, 0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            bin_value(1.0, 1.0, 2, 1)


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------

def genotype_with(space, state, **overrides):
    genes = [0] * len(space)
    for name, value in overrides.items():
        var = next(v for v in space.variables if v.name == name)
        genes[var.index - 1] = var.candidates.index(value)
    return repair(fresh_genotype(space, genes), space, state)


class TestDecode:
    def test_linear_masks_pool_type(self, space):
        state = make_state(space)
        g = genotype_with(space, state, resample_op="linear")
        decoded = decode(g, space, state)
        assert not decoded.active[1]
        assert decoded.values[1] is None

    def test_weighting_activates_mode(self, space):
        state = make_state(space)
        g = genotype_with(space, state, fusion_op="weighting")
        decoded = decode(g, space, state)
        assert decoded.active[22] and not decoded.active[23]

    def test_inactive_gene_does_not_leak(self, space):
        state = make_state(space)
        g1 = genotype_with(space, state, resample_op="linear")
        genes = list(g1.genes)
        genes[1] = 2  # perturb the masked pool type
        g2 = Genotype(genes=tuple(genes), frozen=g1.frozen)
        assert decode(g1, space, state) == decode(g2, space, state)

    def test_continuous_values_decode_to_representatives(self, space):
        state = make_state(space)
        g = genotype_with(space, state)
        decoded = decode(g, space, state)
        assert decoded.values[12] == pytest.approx(bin_value(0.0, 0.5, 6, 1))
        assert decoded.values[13] == pytest.approx(bin_value(1e-5, 1e-2, 6, 1, "log"))


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------

class TestRepair:
    def test_clips_out_of_range_gene(self, space):
        state = make_state(space)
        genes = [0] * 24
        genes[12] = 8   # dropout has 6 bins
        g = repair(fresh_genotype(space, genes), space, state)
        assert g.genes[12] == 5

    def test_freeze_and_restore(self, space):
        state = make_state(space)
        g = genotype_with(space, state, resample_op="pool", pool_type="median")
        assert g.genes[1] == 2
        # deactivate: the value is cached and the gene becomes a placeholder
        genes = list(g.genes)
        genes[0] = 0  # linear
        g = repair(Genotype(tuple(genes), g.frozen), space, state)
        assert g.genes[1] == PLACEHOLDER
        assert g.frozen[1] == 2
        # reactivate: the cached value comes back
        genes = list(g.genes)
        genes[0] = 3  # pool again
        g = repair(Genotype(tuple(genes), g.frozen), space, state)
        assert g.genes[1] == 2

    def test_idempotent(self, space):
        state = make_state(space)
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = fresh_genotype(space, [int(rng.integers(0, 12)) for _ in range(24)])
            once = repair(raw, space, state)
            assert repair(once, space, state) == once

    def test_restored_parent_reactivates_its_children(self):
        space = ConfigSpace(variables=(
            VariableSpec(1, "a", DISCRETE, candidates=("x", "y")),
            VariableSpec(2, "b", COND_DISCRETE, candidates=("p", "q"),
                         parent=(1, ("y",))),
            VariableSpec(3, "c", COND_DISCRETE, candidates=("u", "v"),
                         parent=(2, ("q",))),
        ))
        state = make_state(space)
        g = repair(Genotype((1, PLACEHOLDER, PLACEHOLDER), (1, 1, 1)), space, state)
        assert g.genes == (1, 1, 1)
        assert repair(g, space, state) == g
        assert decode(g, space, state).ids == g.genes

    def test_decoded_continuous_within_bounds(self, space):
        state = make_state(space)
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = sample_random(space, state, rng)
            decoded = decode(g, space, state)
            for var in space.variables:
                v = decoded.values[var.index - 1]
                if var.is_continuous and v is not None:
                    assert var.bounds[0] <= v <= var.bounds[1]

    def test_activity_respects_every_parent_rule(self, space):
        state = make_state(space)
        rng = np.random.default_rng(3)
        for _ in range(200):
            decoded = decode(sample_random(space, state, rng), space, state)
            cfg = dict(zip([v.name for v in space.variables], decoded.values))
            for var in space.variables:
                if var.parent is None:
                    continue
                pidx, values = var.parent
                parent_value = decoded.values[pidx - 1]
                expected = parent_value in values
                assert decoded.active[var.index - 1] == expected, cfg


# ---------------------------------------------------------------------------
# Canonical keys and dedup
# ---------------------------------------------------------------------------

class TestCanonicalKey:
    def test_inactive_mutation_invariant(self, space):
        state = make_state(space)
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = sample_random(space, state, rng)
            decoded = decode(g, space, state)
            genes = list(g.genes)
            inactive = [i for i, on in enumerate(decoded.active) if not on]
            for i in inactive:
                genes[i] = int(rng.integers(0, 2))
            other = decode(Genotype(tuple(genes), g.frozen), space, state)
            assert canonical_key(other) == canonical_key(decoded)

    def test_active_change_changes_key(self, space):
        state = make_state(space)
        g1 = genotype_with(space, state, norm_layer="BatchNorm")
        g2 = genotype_with(space, state, norm_layer="LayerNorm")
        assert canonical_key(decode(g1, space, state)) != canonical_key(decode(g2, space, state))

    def test_deterministic(self, space):
        state = make_state(space)
        g = genotype_with(space, state)
        assert canonical_key(decode(g, space, state)) == canonical_key(decode(g, space, state))


class TestDedupRegistry:
    def test_admit_then_duplicate(self):
        reg = DedupRegistry()
        assert reg.admit(42)
        assert len(reg) == 1
        assert not reg.admit(42)
        assert len(reg) == 1


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def front_of(space, state, values, dim=13):
    """Repaired genes of members whose continuous dim takes the given values."""
    out = []
    for v in values:
        genes = [0] * len(space)
        genes[dim - 1] = state.nearest_bin(dim, v)
        out.append(repair(fresh_genotype(space, genes), space, state).genes)
    return out


class TestRefinement:
    def test_concentrated_mass_increments(self, space):
        state = make_state(space, mass_threshold=0.5)
        front = front_of(space, state, [0.05, 0.06, 0.07])
        state.update(front)
        assert state.counters[13][0] == 1
        assert all(c == 0 for c in state.counters[13][1:])

    def test_uniform_mass_resets(self, space):
        state = make_state(space, mass_threshold=0.5)
        front = front_of(space, state, [0.03, 0.11, 0.2, 0.28, 0.36, 0.45])
        state.counters[13] = [2] * 6
        state.update(front)
        assert state.counters[13] == [0] * 6

    def test_inactive_dim_resets(self, space):
        # pool_type inactive in every member: its counters go to zero
        state = make_state(space, mass_threshold=0.5)
        bench_like = front_of(space, state, [0.05, 0.06])
        assert all(genes[1] == PLACEHOLDER for genes in bench_like)
        state.counters[13] = [1] * 6
        state.update(bench_like)
        assert state.counters[13][0] == 2  # the active dim keeps accumulating

    def test_placeholder_gene_counts_nowhere(self, space):
        state = make_state(space, mass_threshold=0.5)
        active = front_of(space, state, [0.05])[0]
        inactive = active[:12] + (PLACEHOLDER,) + active[13:]
        state.counters[13] = [1] * 6
        state.update([active, inactive, inactive])
        assert state.counters[13] == [0] * 6

    def test_empty_front_is_noop(self, space):
        state = make_state(space)
        state.counters[13] = [1] * 6
        state.update([])
        assert state.counters[13] == [1] * 6

    def test_split_at_midpoint(self, space):
        state = make_state(space, persistence=3)
        state.counters[13][2] = 3
        splits = state.refine()
        assert splits == [(13, 2)]
        assert state.bin_count(13) == 7
        pts = state.breakpoints(13)
        # old third interval of [0, 0.5] was [1/6, 1/4]; its midpoint is 5/24
        assert pts[3] == pytest.approx(5 / 24)

    def test_no_trigger_no_change(self, space):
        state = make_state(space)
        before = state.breakpoints(13).copy()
        assert state.refine() == []
        assert np.array_equal(state.breakpoints(13), before)

    def test_span_preserved_and_increasing(self, space):
        state = make_state(space, persistence=1)
        rng = np.random.default_rng(0)
        for _ in range(30):
            for d in (13, 14, 15):
                k = int(rng.integers(state.bin_count(d)))
                state.counters[d][k] = 1
            state.refine()
        for d in (13, 14, 15):
            pts = state.breakpoints(d)
            var = space.variable(d)
            assert pts[0] == pytest.approx(var.bounds[0])
            assert pts[-1] == pytest.approx(var.bounds[1])
            assert np.all(np.diff(pts) > 0)

    def test_log_dim_splits_geometrically(self, space):
        state = make_state(space, persistence=1)
        state.counters[14][0] = 1
        state.refine()
        pts = state.breakpoints(14)
        # the inserted point is the geometric midpoint of the old first interval
        assert pts[1] == pytest.approx(np.sqrt(pts[0] * pts[2]), rel=1e-12)

    def test_split_renumbering(self, space):
        state = make_state(space, persistence=1)
        state.counters[13][1] = state.counters[13][4] = 1
        state.counters[14][0] = 1
        old = state.representatives(13)
        splits = state.refine()
        new, split = split_renumbering(splits, 13, state.bin_count(13))
        assert (new, split) == ([0, 1, 3, 4, 5, 7], frozenset({1, 4}))
        reps = state.representatives(13)
        for j in range(6):
            if j in split:
                assert reps[new[j]] < old[j] < reps[new[j] + 1]
            else:
                assert reps[new[j]] == old[j]


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

class TestSampleRandom:
    def test_within_bounds(self, space):
        state = make_state(space)
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = sample_random(space, state, rng)
            for var, gene in zip(space.variables, g.genes):
                if gene == PLACEHOLDER:
                    assert var.is_conditional
                else:
                    assert 0 <= gene < state.choice_count(var)

    def test_deterministic_for_seed(self, space):
        state = make_state(space)
        a = [sample_random(space, state, np.random.default_rng(42)) for _ in range(5)]
        b = [sample_random(space, state, np.random.default_rng(42)) for _ in range(5)]
        # fresh generator per call would repeat; use one stream per sequence
        rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
        seq1 = [sample_random(space, state, rng1) for _ in range(10)]
        seq2 = [sample_random(space, state, rng2) for _ in range(10)]
        assert seq1 == seq2
        assert a == b

    def test_uniform_frequencies(self, space):
        state = make_state(space)
        rng = np.random.default_rng(123)
        counts = np.zeros(4)
        for _ in range(1000):
            g = sample_random(space, state, rng)
            counts[g.genes[3]] += 1  # batch size: 4 candidates
        freqs = counts / 1000
        assert np.all(freqs >= 0.2) and np.all(freqs <= 0.3)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

class TestSpaceJson:
    def test_round_trip_equals(self, space):
        doc = space_to_json(space)
        assert space_from_json(doc) == space
        assert space_to_json(space_from_json(doc)) == doc

    def test_text_round_trip(self, space):
        assert load_space(dump_space(space)) == space

    def test_benchmark_space_round_trip(self):
        from phmoea.benchmarks import benchmark_space
        bench = benchmark_space(8)
        assert load_space(dump_space(bench)) == bench

    def test_json_survives_reserialization(self, space):
        import json as json_mod
        text = dump_space(space)
        assert dump_space(load_space(text)) == text
        json_mod.loads(text)  # well-formed document
