"""Space definition, encoding, repair, dedup and refinement tests."""

import hashlib
import math
import struct
from itertools import compress

import numpy as np
import pytest

from phmoea.space import (CONTINUOUS, DISCRETE, ConfigSpace, DecodedConfig, DedupRegistry, Genotype,
                          PLACEHOLDER, RefinementState, VariableSpec, activity,
                          builtin_space, canonical_key, decode, nearest_index,
                          repair, sample_random, split_renumbering)


@pytest.fixture(scope="module")
def space():
    return builtin_space()


def make_state(space, **kw):
    return RefinementState(space, **kw)


def per_bin_renumbering(genes, split):
    """The per-split-bin numpy loop split_renumbering replaced, kept as the reference."""
    genes, split = np.asarray(genes), np.asarray(split)
    new = genes + np.searchsorted(split, genes)
    for k in split:
        new[np.flatnonzero(genes == k)[1::2]] += 1
    return new.tolist()


# ---------------------------------------------------------------------------
# Built-in space
# ---------------------------------------------------------------------------

class TestBuiltinSpace:
    def test_dimension_count(self, space):
        assert len(space) == 24

    def test_aligned_length_candidates(self, space):
        assert space.variables[2].candidates == (8, 12, 24, 36, 48)

    def test_pool_type_parent(self, space):
        assert space.variables[1].parent == ("resample_op", ("pool",))

    def test_learning_rate_is_log_scaled(self, space):
        var = space.variables[13]
        assert var.bounds == (1e-5, 1e-2)
        assert var.scale == "log"

    def test_weight_decay_is_log_scaled(self, space):
        var = space.variables[14]
        assert var.bounds == (1e-6, 1e-2)
        assert var.scale == "log"

    def test_all_parent_conditions(self, space):
        parents = {v.name: v.parent for v in space.variables if v.parent}
        assert parents == {
            "pool_type": ("resample_op", ("pool",)),
            "scheduler_type": ("lr_schedule", ("on",)),
            "loss_pair": ("loss_type", ("Combined", "AdaptiveCombined")),
            "loss_weights": ("loss_type", ("AdaptiveCombined",)),
            "loss_weight_lr": ("loss_type", ("AdaptiveCombined",)),
            "weighting_mode": ("fusion_op", ("weighting",)),
            "cross_mapping_mode": ("fusion_op", ("cross_mapping",)),
        }
        assert [(pos, ppos) for pos, ppos, _ in space.gates] == [
            (1, 0), (16, 15), (18, 17), (19, 17), (20, 17), (22, 21), (23, 21)]

    def test_loss_pair_candidates_count(self, space):
        assert len(space.variables[18].candidates) == 10

    def test_positions_follow_the_declaration(self, space):
        assert space.positions == {v.name: pos for pos, v in enumerate(space.variables)}
        assert space.continuous_indices() == (12, 13, 14)

    def test_invalid_parent_rejected(self):
        with pytest.raises(ValueError, match="a: parent 'b' must be an earlier variable"):
            ConfigSpace(variables=(
                VariableSpec("a", DISCRETE, candidates=("x", "y"), parent=("b", ("p",))),
                VariableSpec("b", DISCRETE, candidates=("p", "q")),
            ))

    @pytest.mark.parametrize("pname", ["c", "b"])
    def test_unknown_or_own_parent_rejected(self, pname):
        with pytest.raises(ValueError, match=f"b: parent '{pname}' must be an earlier variable"):
            ConfigSpace(variables=(
                VariableSpec("a", DISCRETE, candidates=("p", "q")),
                VariableSpec("b", DISCRETE, candidates=("x", "y"), parent=(pname, ("x",))),
            ))

    def test_continuous_parent_rejected(self):
        with pytest.raises(ValueError, match="b: parent must be a discrete dimension"):
            ConfigSpace(variables=(
                VariableSpec("a", CONTINUOUS, bounds=(0.0, 1.0)),
                VariableSpec("b", DISCRETE, candidates=("x", "y"), parent=("a", (0.5,))),
            ))

    def test_activating_value_must_be_a_parent_candidate(self):
        with pytest.raises(ValueError, match="b: activating value 'r' not a parent candidate"):
            ConfigSpace(variables=(
                VariableSpec("a", DISCRETE, candidates=("p", "q")),
                VariableSpec("b", CONTINUOUS, bounds=(0.0, 1.0), parent=("a", ("r",))),
            ))

    @pytest.mark.parametrize("var, message", [
        (VariableSpec("a", CONTINUOUS), "a: continuous variable needs bounds"),
        (VariableSpec("a", CONTINUOUS, bounds=(0.0, 1.0), scale="cubic"),
         "a: unknown scale 'cubic'"),
        (VariableSpec("a", DISCRETE), "a: candidate list is empty"),
        (VariableSpec("a", DISCRETE, candidates=(1, 2, 1)), "a: duplicate candidates"),
    ])
    def test_invalid_variable_rejected(self, var, message):
        with pytest.raises(ValueError) as info:
            ConfigSpace(variables=(var,))
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["conditional-discrete", "conditional-continuous"])
    def test_only_two_kinds(self, kind):
        with pytest.raises(ValueError, match=f"a: unknown kind '{kind}'"):
            ConfigSpace(variables=(VariableSpec("a", kind, candidates=("p", "q")),))

    def test_conditionality_is_having_a_parent(self):
        a = VariableSpec("a", DISCRETE, candidates=("p", "q"))
        b = VariableSpec("b", CONTINUOUS, bounds=(0.0, 1.0), parent=("a", ("q",)))
        ConfigSpace(variables=(a, b))
        assert not a.is_conditional and b.is_conditional and b.is_continuous

    def test_duplicate_names_rejected(self):
        # as_dict keys by name, so one of two "a" variables would vanish from
        # every configuration a worker receives
        with pytest.raises(ValueError, match="a: duplicate variable name"):
            ConfigSpace(variables=(
                VariableSpec("a", DISCRETE, candidates=(1, 2)),
                VariableSpec("a", CONTINUOUS, bounds=(0.0, 1.0)),
            ))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace(variables=(
                VariableSpec("a", CONTINUOUS, bounds=(1.0, 0.0)),))

    def test_log_scale_needs_positive_lower(self):
        with pytest.raises(ValueError):
            ConfigSpace(variables=(
                VariableSpec("a", CONTINUOUS, bounds=(0.0, 1.0), scale="log"),))


# ---------------------------------------------------------------------------
# Bin representatives
# ---------------------------------------------------------------------------

def bin_value(a: float, b: float, n_bins: int, k: int, scale: str = "linear") -> float:
    """Representative (midpoint) value of bin ``k`` in 1..n_bins over [a, b]:
    the reference formula ``decode`` is compared against.

    Linear scale places midpoints uniformly; log scale places them uniformly
    in log space, i.e. geometric midpoints.
    """
    if not 1 <= k <= n_bins:
        raise ValueError(f"bin index {k} outside 1..{n_bins}")
    if not a < b:
        raise ValueError("lower bound must be below upper bound")
    alpha = (2 * k - 1) / (2 * n_bins)
    if scale == "log":
        if a <= 0:
            raise ValueError("log scale requires a positive lower bound")
        return math.exp((1 - alpha) * math.log(a) + alpha * math.log(b))
    return a + alpha * (b - a)


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
        pos = space.positions[name]
        genes[pos] = space.variables[pos].candidates.index(value)
    return repair(genes, space, state)


class TestDecode:
    def test_linear_masks_pool_type(self, space):
        state = make_state(space)
        g = genotype_with(space, state, resample_op="linear")
        decoded = decode(g, state)
        assert not decoded.active[1]
        assert decoded.values[1] is None

    def test_weighting_activates_mode(self, space):
        state = make_state(space)
        g = genotype_with(space, state, fusion_op="weighting")
        decoded = decode(g, state)
        assert decoded.active[22] and not decoded.active[23]

    def test_inactive_gene_does_not_leak(self, space):
        state = make_state(space)
        g1 = genotype_with(space, state, resample_op="linear")
        kept = list(g1.frozen)
        kept[1] = 2  # perturb the masked pool type
        g2 = repair(kept, space, state)
        assert decode(g1, state) == decode(g2, state)

    def test_continuous_values_decode_to_representatives(self, space):
        state = make_state(space)
        g = genotype_with(space, state)
        decoded = decode(g, state)
        assert decoded.values[12] == pytest.approx(bin_value(0.0, 0.5, 6, 1))
        assert decoded.values[13] == pytest.approx(bin_value(1e-5, 1e-2, 6, 1, "log"))


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------

def chain_space():
    """Three levels: c is active only when b is, and b only when a is."""
    return ConfigSpace(variables=(
        VariableSpec("a", DISCRETE, candidates=("x", "y")),
        VariableSpec("b", DISCRETE, candidates=("p", "q"), parent=("a", ("y",))),
        VariableSpec("c", DISCRETE, candidates=("u", "v"), parent=("b", ("q",))),
    ))


def clip_then_gate_repair(kept, space, state):
    """Repair as clip every gene, then mask by ``activity``: the reference."""
    kept = [min(max(g, 0), n - 1) for g, n in zip(kept, state.counts)]
    mask = activity(kept, space)
    return Genotype(genes=tuple(g if on else PLACEHOLDER for g, on in zip(kept, mask)),
                    frozen=tuple(kept))


class TestRepair:
    def test_clips_out_of_range_gene(self, space):
        state = make_state(space)
        genes = [0] * 24
        genes[12] = 8   # dropout has 6 bins
        g = repair(genes, space, state)
        assert g.genes[12] == 5
        assert g.frozen[12] == 5

    def test_freeze_and_restore(self, space):
        state = make_state(space)
        g = genotype_with(space, state, resample_op="pool", pool_type="median")
        assert g.genes[1] == 2
        # deactivate: the value is kept and the gene becomes a placeholder
        kept = list(g.frozen)
        kept[0] = 0  # linear
        g = repair(kept, space, state)
        assert g.genes[1] == PLACEHOLDER
        assert g.frozen[1] == 2
        # reactivate: the kept value comes back
        kept = list(g.frozen)
        kept[0] = 3  # pool again
        g = repair(kept, space, state)
        assert g.genes[1] == 2

    def test_idempotent(self, space):
        state = make_state(space)
        rng = np.random.default_rng(7)
        for _ in range(50):
            genes = [int(rng.integers(0, 12)) for _ in range(24)]
            once = repair(genes, space, state)
            assert repair(once.frozen, space, state) == once

    def test_restored_parent_reactivates_its_children(self):
        space = chain_space()
        state = make_state(space)
        g = repair((0, 1, 1), space, state)
        assert g == Genotype((0, PLACEHOLDER, PLACEHOLDER), (0, 1, 1))
        g = repair((1,) + g.frozen[1:], space, state)
        assert g.genes == (1, 1, 1)
        assert repair(g.frozen, space, state) == g
        assert decode(g, state).ids == g.genes

    @pytest.mark.parametrize("make_space", [builtin_space, chain_space])
    def test_decode_reads_activity_from_repair(self, make_space):
        # raw kept vectors include out-of-range indices, negative ones and
        # placeholders
        space = make_space()
        state = make_state(space)
        rng = np.random.default_rng(29)
        for _ in range(300):
            raw = [int(g) for g in rng.integers(-3, 12, len(space))]
            g = repair(raw, space, state)
            decoded = decode(g, state)
            assert decoded.active == activity(g.genes, space)
            assert decoded.ids == g.genes
            assert g == clip_then_gate_repair(raw, space, state)
            assert repair(g.frozen, space, state) == g
        # in range: the vector is kept as it is, and only the gate masks it
        for _ in range(300):
            raw = tuple(rng.integers(0, state.counts).tolist())
            g = repair(raw, space, state)
            assert g.frozen == raw
            assert g == clip_then_gate_repair(raw, space, state)
            assert decode(g, state).active == activity(g.genes, space)
            assert repair(g.frozen, space, state) == g

    def test_decoded_continuous_within_bounds(self, space):
        state = make_state(space)
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = sample_random(space, state, rng)
            decoded = decode(g, state)
            for var, v in zip(space.variables, decoded.values):
                if var.is_continuous and v is not None:
                    assert var.bounds[0] <= v <= var.bounds[1]

    def test_activity_respects_every_parent_rule(self, space):
        state = make_state(space)
        rng = np.random.default_rng(3)
        for _ in range(200):
            decoded = decode(sample_random(space, state, rng), state)
            cfg = dict(zip([v.name for v in space.variables], decoded.values))
            for pos, var in enumerate(space.variables):
                if var.parent is None:
                    continue
                pname, values = var.parent
                expected = cfg[pname] in values
                assert decoded.active[pos] == expected, cfg


# ---------------------------------------------------------------------------
# Canonical keys and dedup
# ---------------------------------------------------------------------------

class TestCanonicalKey:
    def test_inactive_mutation_invariant(self, space):
        state = make_state(space)
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = sample_random(space, state, rng)
            decoded = decode(g, state)
            kept = list(g.frozen)
            inactive = [i for i, on in enumerate(decoded.active) if not on]
            for i in inactive:
                kept[i] = int(rng.integers(0, 2))
            other = decode(repair(kept, space, state), state)
            assert canonical_key(other.ids) == canonical_key(decoded.ids)

    def test_active_change_changes_key(self, space):
        state = make_state(space)
        g1 = genotype_with(space, state, norm_layer="BatchNorm")
        g2 = genotype_with(space, state, norm_layer="LayerNorm")
        assert canonical_key(decode(g1, state).ids) != canonical_key(decode(g2, state).ids)

    def test_deterministic(self, space):
        state = make_state(space)
        g = genotype_with(space, state)
        assert canonical_key(decode(g, state).ids) == canonical_key(decode(g, state).ids)


    @pytest.mark.parametrize("seed", range(4))
    def test_key_equals_the_one_off_pack(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            d = int(rng.integers(0, 30))
            active = tuple(bool(a) for a in rng.random(d) < 0.6)
            ids = tuple(int(g) if on else PLACEHOLDER
                        for g, on in zip(rng.integers(0, 3000, d), active))
            dec = DecodedConfig(values=(None,) * d, ids=ids)
            assert dec.active == active
            fields = [x for i, (on, g) in enumerate(zip(active, ids), 1)
                      if on for x in (i, g)]
            payload = struct.pack("<" + "hi" * (len(fields) // 2), *fields)
            want = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
            assert dec.key == canonical_key(ids) == want

    def test_key_with_no_active_dimension(self):
        dec = DecodedConfig(values=(None, None), ids=(PLACEHOLDER, PLACEHOLDER))
        empty = hashlib.blake2b(b"", digest_size=8).digest()
        assert dec.key == int.from_bytes(empty, "little")


def pair_struct_key(ids):
    """The interleaved one-struct key the per-pair pack replaced, kept as the reference."""
    active = list(map(PLACEHOLDER.__ne__, ids))
    dims = list(compress(range(1, len(ids) + 1), active))
    fields = dims * 2
    fields[::2] = dims
    fields[1::2] = compress(ids, active)
    payload = struct.Struct("<" + "hi" * len(dims)).pack(*fields)
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


class TestKeyMatchesPairStruct:
    @pytest.mark.parametrize("placeholders", [0.0, 0.3, 1.0])
    def test_random_gene_tuples(self, placeholders):
        rng = np.random.default_rng(int(placeholders * 10))
        for _ in range(2000):
            d = int(rng.integers(0, 60))
            genes = rng.integers(0, 2 ** 31 - 1 if rng.random() < 0.1 else 3000, d)
            genes[rng.random(d) < placeholders] = PLACEHOLDER
            genes = tuple(genes.tolist())
            assert canonical_key(genes) == pair_struct_key(genes)

    def test_keys_of_a_run(self):
        from phmoea.engine import SearchParams, SearchProblem, run_nsga2
        from phmoea.evaluators import SurrogateEvaluator
        space = builtin_space()
        problem = SearchProblem(space=space, evaluator=SurrogateEvaluator(space))
        result = run_nsga2(problem, 30, 10, params=SearchParams.real_task(), seed=1)
        assert any(PLACEHOLDER in ind.decoded.ids for ind in result.population)
        for ind in result.population:   # refinement may renumber genes after evaluation
            assert ind.key == canonical_key(ind.decoded.ids) == pair_struct_key(ind.decoded.ids)


class TestDedupRegistry:
    def test_admit_then_duplicate(self):
        reg = DedupRegistry()
        assert reg.admit(42)
        assert not reg.admit(42)
        assert reg.admit(43)

    def test_keys_in_admit_order(self):
        reg = DedupRegistry()
        assert [reg.admit(key) for key in (43, 42, 43, 7, 42)] == \
            [True, True, False, True, False]
        assert reg.keys == [43, 42, 7]


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def front_of(space, state, values, pos=12):
    """Repaired genes of members whose continuous dimension takes the given
    values; it must be linear-scale, where grid midpoints are raw values."""
    out = []
    for v in values:
        genes = [0] * len(space)
        genes[pos] = nearest_index(state.grids[pos][2], v)
        out.append(repair(genes, space, state).genes)
    return out


class TestRefinement:
    def test_concentrated_mass_increments(self, space):
        state = make_state(space, mass_threshold=0.5)
        front = front_of(space, state, [0.05, 0.06, 0.07])
        state.update(front)
        assert state.counters[12] == {0: 1}

    def test_uniform_mass_resets(self, space):
        state = make_state(space, mass_threshold=0.5)
        front = front_of(space, state, [0.03, 0.11, 0.2, 0.28, 0.36, 0.45])
        state.counters[12] = dict.fromkeys(range(6), 2)
        state.update(front)
        assert not state.counters[12]

    def test_inactive_dim_resets(self, space):
        # pool_type inactive in every member: its counters go to zero
        state = make_state(space, mass_threshold=0.5)
        bench_like = front_of(space, state, [0.05, 0.06])
        assert all(genes[1] == PLACEHOLDER for genes in bench_like)
        state.counters[12] = dict.fromkeys(range(6), 1)
        state.update(bench_like)
        assert state.counters[12][0] == 2  # the active dim keeps accumulating

    def test_placeholder_gene_counts_nowhere(self, space):
        state = make_state(space, mass_threshold=0.5)
        active = front_of(space, state, [0.05])[0]
        inactive = active[:12] + (PLACEHOLDER,) + active[13:]
        state.counters[12] = dict.fromkeys(range(6), 1)
        state.update([active, inactive, inactive])
        assert not state.counters[12]

    def test_empty_front_is_noop(self, space):
        state = make_state(space)
        state.counters[12] = dict.fromkeys(range(6), 1)
        state.update([])
        assert state.counters[12] == dict.fromkeys(range(6), 1)

    def test_split_at_midpoint(self, space):
        state = make_state(space, persistence=3)
        state.counters[12][2] = 3
        splits = state.refine()
        assert splits == [(12, 2)]
        assert state.bin_count(12) == 7
        pts = state.breakpoints(12)
        # old third interval of [0, 0.5] was [1/6, 1/4]; its midpoint is 5/24
        assert pts[3] == pytest.approx(5 / 24)

    def test_no_trigger_no_change(self, space):
        state = make_state(space)
        before = state.breakpoints(12).copy()
        assert state.refine() == []
        assert np.array_equal(state.breakpoints(12), before)

    def test_span_preserved_and_increasing(self, space):
        state = make_state(space, persistence=1)
        rng = np.random.default_rng(0)
        for _ in range(30):
            for d in (12, 13, 14):
                k = int(rng.integers(state.bin_count(d)))
                state.counters[d][k] = 1
            state.refine()
        for d in (12, 13, 14):
            pts = state.breakpoints(d)
            var = space.variables[d]
            assert pts[0] == pytest.approx(var.bounds[0])
            assert pts[-1] == pytest.approx(var.bounds[1])
            assert np.all(np.diff(pts) > 0)

    def test_log_dim_splits_geometrically(self, space):
        state = make_state(space, persistence=1)
        state.counters[13][0] = 1
        state.refine()
        pts = state.breakpoints(13)
        # the inserted point is the geometric midpoint of the old first interval
        assert pts[1] == pytest.approx(np.sqrt(pts[0] * pts[2]), rel=1e-12)

    def test_split_renumbering(self, space):
        state = make_state(space, persistence=1)
        state.counters[12][1] = state.counters[12][4] = 1
        state.counters[13][0] = 1
        old = list(state.values[12])     # refine edits the table in place
        splits = state.refine()
        split = [k for d, k in splits if d == 12]
        assert split == [1, 4]
        assert not state.counters[12]
        new = split_renumbering(list(range(6)), split)
        assert new == [0, 1, 3, 4, 5, 7]
        reps = state.values[12]
        for j in range(6):
            if j in split:
                assert reps[new[j]] < old[j] < reps[new[j] + 1]
            else:
                assert reps[new[j]] == old[j]
        # a placeholder stays put; members of a split bin alternate children
        genes = [4, PLACEHOLDER, 2, 4, 5, 4]
        assert split_renumbering(genes, split) == [5, PLACEHOLDER, 3, 6, 7, 5]

    @pytest.mark.parametrize("seed", range(20))
    def test_split_renumbering_matches_the_per_bin_loop(self, seed):
        rng = np.random.default_rng(seed)
        bins = int(rng.integers(1, 40))
        split = sorted(rng.choice(bins, int(rng.integers(1, bins + 1)), replace=False).tolist())
        genes = rng.integers(0, bins, int(rng.integers(1, 150)))
        genes[rng.random(len(genes)) < 0.2] = PLACEHOLDER
        genes[rng.random(len(genes)) < 0.3] = split[0]      # several members per split bin
        assert split_renumbering(genes.tolist(), split) == per_bin_renumbering(genes, split)


    def test_tables_grow_with_the_bins(self):
        space = ConfigSpace(variables=(
            VariableSpec("gate", DISCRETE, candidates=("off", "on")),
            VariableSpec("z", CONTINUOUS, bounds=(0.0, 1.0), parent=("gate", ("on",))),
            VariableSpec("b", DISCRETE, candidates=("x", "y")),
        ))
        state = make_state(space, persistence=1)
        for _ in range(5):              # halve bin 0 of position 1 again and again
            state.counters[1][0] = 1
            state.refine()
        n = state.bin_count(1)
        assert n == 11
        assert state.counts == [2, n, 2]
        pts = state.breakpoints(1)
        assert state.values[1] == (0.5 * (pts[:-1] + pts[1:])).tolist()
        lo, hi, mids = state.grids[1]
        assert (lo, hi, len(mids)) == (0.0, 1.0, n)
        # a gene in a new bin, out of range before the splits, now survives
        g = repair((1, n - 1, 1), space, state)
        assert g.genes == (1, n - 1, 1)
        assert decode(g, state).values[1] == state.values[1][n - 1]
        assert repair((1, n + 3, 1), space, state).genes[1] == n - 1
        rng = np.random.default_rng(0)
        drawn = {sample_random(space, state, rng).frozen[1] for _ in range(400)}
        assert drawn == set(range(n))


class ArrayRefinementState:
    """The numpy-array refinement the front-sized one replaced, kept as the reference:
    dense counters per bin, tables rebuilt in full on every split."""

    def __init__(self, space, initial_bins=6, mass_threshold=0.5, persistence=3):
        self.space = space
        self.mass_threshold = mass_threshold
        self.persistence = persistence
        self.counts = [len(var.candidates) for var in space.variables]
        self.values = [var.candidates for var in space.variables]
        self.grids = [None] * len(space)
        self.pts, self.counters = {}, {}
        for pos in space.continuous_indices():
            var = space.variables[pos]
            a, b = var.bounds
            if var.scale == "log":
                a, b = np.log(a), np.log(b)
            self.set_points(pos, np.linspace(a, b, initial_bins + 1))
            self.counters[pos] = np.zeros(initial_bins, dtype=np.int64)

    def set_points(self, pos, pts):
        mids = 0.5 * (pts[:-1] + pts[1:])
        self.pts[pos] = pts
        scale = self.space.variables[pos].scale
        grid = mids.tolist()
        self.counts[pos] = len(grid)
        self.values[pos] = grid if scale == "linear" else np.exp(mids).tolist()
        self.grids[pos] = (float(pts[0]), float(pts[-1]), grid)

    def update(self, front):
        if not front:
            return
        genes = np.array(front)
        for idx in self.pts:
            column = genes[:, idx]
            hits = np.bincount(column[column != PLACEHOLDER],
                               minlength=len(self.pts[idx]) - 1)
            self.counters[idx] = np.where(hits / len(front) > self.mass_threshold,
                                          self.counters[idx] + 1, 0)

    def refine(self):
        splits = []
        for idx in sorted(self.pts):
            triggered = self.counters[idx] >= self.persistence
            if not triggered.any():
                continue
            pts = self.pts[idx]
            mids = 0.5 * (pts[:-1] + pts[1:])
            split = np.flatnonzero(triggered & (pts[:-1] < mids) & (mids < pts[1:]))
            self.set_points(idx, np.insert(pts, split + 1, mids[split]))
            self.counters[idx] = np.insert(np.where(triggered, 0, self.counters[idx]),
                                           split + 1, 0)
            splits += [(idx, int(k)) for k in split]
        return splits


def recorded_fronts(monkeypatch, problem, runner, params, seed):
    """Every front a seeded search hands to ``RefinementState.update``, in order."""
    fronts = []
    update = RefinementState.update

    def recording(state, front):
        fronts.append(list(front))
        update(state, front)

    monkeypatch.setattr(RefinementState, "update", recording)
    runner(problem, 100, 100, params=params, seed=seed)
    monkeypatch.undo()
    return fronts


class TestRefinementMatchesArrays:
    @pytest.mark.parametrize("workload, aggressive", [
        ("hdtlz7-nsga2", True), ("surrogate-phmoea", True), ("surrogate-phmoea", False)])
    def test_replayed_fronts_of_a_run(self, monkeypatch, workload, aggressive):
        from phmoea.benchmarks import HBenchProblem
        from phmoea.engine import SearchParams, SearchProblem, run_nsga2, run_phmoea
        from phmoea.evaluators import BenchmarkEvaluator, SurrogateEvaluator
        if workload == "hdtlz7-nsga2":
            bench = HBenchProblem("hdtlz7")
            space, evaluator, runner = bench.space(), BenchmarkEvaluator(bench), run_nsga2
        else:
            space = builtin_space()
            evaluator, runner = SurrogateEvaluator(space), run_phmoea
        # aggressive: every occupied bin splits each generation; otherwise
        # counters build up over generations and move with their bins
        params = (SearchParams.benchmark() if aggressive
                  else SearchParams(early_stop=False, refine_mass=0.2))
        fronts = recorded_fronts(monkeypatch, SearchProblem(space=space, evaluator=evaluator),
                                 runner, params, seed=0)
        kw = dict(initial_bins=params.initial_bins, mass_threshold=params.refine_mass,
                  persistence=params.refine_persistence)
        ref, state = ArrayRefinementState(space, **kw), RefinementState(space, **kw)
        split_dims, moved = set(), 0
        for front in fronts:
            ref.update(front)
            state.update(front)
            for idx, counters in ref.counters.items():
                assert state.counters[idx] == {k: c for k, c in enumerate(counters.tolist()) if c}
            pending = {idx: {k for k, c in counters.items() if c < ref.persistence}
                       for idx, counters in state.counters.items()}
            splits = ref.refine()
            assert state.refine() == splits
            moved += sum(len(pending[idx]) for idx in {idx for idx, _ in splits})
            split_dims.update(idx for idx, _ in splits)
            assert state.counts == ref.counts
            assert state.values == ref.values
            assert state.grids == ref.grids
            for idx in ref.pts:
                assert np.array_equal(state.breakpoints(idx), np.exp(ref.pts[idx])
                                      if space.variables[idx].scale == "log" else ref.pts[idx])
        assert len(fronts) == 99
        log_dims = {pos for pos, v in enumerate(space.variables) if v.scale == "log"}
        assert split_dims >= log_dims
        assert sum(ref.counts[idx] for idx in ref.pts) > 100 or not aggressive
        assert moved > 0 or aggressive


def argmin_reference(points, value):
    return int(np.argmin(np.abs(np.array(points) - value)))


class TestNearestIndex:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_argmin_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        points = np.sort(rng.random(int(rng.integers(1, 50)))).tolist()
        for value in rng.uniform(-0.1, 1.1, 200).tolist() + points:
            assert nearest_index(points, value) == argmin_reference(points, value)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_argmin_on_runs_narrower_than_ulp(self, seed):
        # runs of equal points, of adjacent floats, and a cluster near 0 far
        # narrower than ulp(value) of the queries: the rounded distances tie
        # over whole runs, and the lowest index of the tie must win
        rng = np.random.default_rng(seed)
        points = (np.sort(rng.random(30)) * 1e-20).tolist()
        for c in rng.uniform(0.0, 1.0, 4).tolist():
            run = [c]
            for _ in range(int(rng.integers(1, 40))):
                step = rng.random() < 0.7
                run.append(float(np.nextafter(run[-1], 2.0)) if step else run[-1])
            points += run
        points.sort()
        ulps = [float(np.nextafter(p, d)) for p in points for d in (-1.0, 2.0)]
        queries = points + ulps + rng.uniform(0.0, 1.0, 300).tolist()
        ties = 0
        for value in queries:
            d = np.abs(np.array(points) - value)
            ties += int((d == d.min()).sum() > 1)
            assert nearest_index(points, value) == argmin_reference(points, value)
        assert ties > 0

    def test_matches_argmin_on_refined_bins(self, space):
        # split the bin holding 0.3 until refinement refuses: one-ulp bins
        # whose midpoints round onto their breakpoints
        state = make_state(space, persistence=1)
        while True:
            k = int(np.searchsorted(state.breakpoints(12), 0.3, side="right")) - 1
            state.counters[12][k] = 1
            if not state.refine():
                break
        lo, hi, mids = state.grids[12]
        near = [m for m in mids if abs(m - 0.3) < 1e-15]
        assert len(near) > 5
        queries = near + [float(np.nextafter(m, d)) for m in near for d in (-1.0, 2.0)] + \
            [0.0, 0.3, 0.5, 1e-300] + np.random.default_rng(1).uniform(0, 0.5, 100).tolist()
        for value in queries:
            assert nearest_index(mids, value) == argmin_reference(mids, value)

    def test_ties_go_to_the_lower_index(self):
        assert nearest_index([0.0, 1.0], 0.5) == 0
        assert nearest_index([0.0, 1.0, 1.0, 2.0], 1.0) == 1
        assert nearest_index([1e-20, 2e-20, 3e-20], 0.5) == 0


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

class TestSampleRandom:
    def test_within_bounds(self, space):
        state = make_state(space)
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = sample_random(space, state, rng)
            for var, gene, n in zip(space.variables, g.genes, state.counts):
                if gene == PLACEHOLDER:
                    assert var.is_conditional
                else:
                    assert 0 <= gene < n

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
