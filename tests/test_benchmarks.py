"""Hierarchical benchmark tests: projection, coupling, objectives, fronts."""

import math

import numpy as np
import pytest

from phmoea.benchmarks import (HBenchProblem, benchmark_space, chain_parent,
                               hdtlz2, hdtlz7, pairwise_sum, reference_front,
                               tree_parent)
from phmoea.metrics import nondominated_mask
from phmoea.space import RefinementState, decode, repair, sample_random


def decoded_with(problem, z1_bin=0, z2_bin=0, gates=(), tail_bins=None):
    space = problem.space()
    state = RefinementState(space)
    genes = [0] * len(space)
    genes[0], genes[1] = z1_bin, z2_bin
    for j in gates:
        genes[2 * j - 4] = 1  # gate_j on
        if tail_bins and j in tail_bins:
            genes[2 * j - 3] = tail_bins[j]
    g = repair(genes, space, state)
    return decode(g, state), state


class TestGenome:
    def test_dimension_layout(self):
        space = benchmark_space(5)
        assert len(space) == 2 * 5 - 2
        assert [v.name for v in space.variables] == \
            ["z1", "z2", "gate3", "z3", "gate4", "z4", "gate5", "z5"]
        assert space.variables[3].parent == ("gate3", ("on",))
        assert space.continuous_indices() == (0, 1, 3, 5, 7)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            benchmark_space(2)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            HBenchProblem("hdtlz9")
        with pytest.raises(ValueError):
            HBenchProblem("hdtlz2", topology="ring")
        with pytest.raises(ValueError):
            HBenchProblem("hdtlz2", gamma=-1.0)
        with pytest.raises(ValueError, match="need at least 3 continuous variables"):
            HBenchProblem("hdtlz2", n=2)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_coupling_coefficient_must_be_finite_and_non_negative(self, gamma):
        with pytest.raises(ValueError, match="coupling coefficient"):
            HBenchProblem("hdtlz7", gamma=gamma)


class TestProjection:
    def test_inactive_tails_neutral_05(self):
        problem = HBenchProblem("hdtlz2", n=6)
        decoded, _ = decoded_with(problem)
        z, active = problem.project(decoded)
        assert active == ()
        assert np.allclose(z[2:], 0.5)

    def test_inactive_tails_neutral_0(self):
        problem = HBenchProblem("hdtlz7", n=6)
        decoded, _ = decoded_with(problem)
        z, _ = problem.project(decoded)
        assert np.allclose(z[2:], 0.0)

    def test_active_tail_uses_decoded_value(self):
        problem = HBenchProblem("hdtlz2", n=6)
        decoded, state = decoded_with(problem, gates=(4,), tail_bins={4: 5})
        z, active = problem.project(decoded)
        assert active == (4,)
        assert z[3] == pytest.approx(state.values[5][5])

    def test_projection_in_unit_cube(self):
        problem = HBenchProblem("hdtlz7", n=8)
        space = problem.space()
        state = RefinementState(space)
        rng = np.random.default_rng(0)
        for _ in range(100):
            decoded = decode(sample_random(space, state, rng), state)
            z, _ = problem.project(decoded)
            assert all(0.0 <= v <= 1.0 for v in z)


class TestCoupling:
    def test_empty_active_set(self):
        problem = HBenchProblem("hdtlz2", n=6, gamma=3.0)
        assert problem.coupling(np.full(6, 0.5), ()) == 0.0

    def test_chain_two_tails(self):
        problem = HBenchProblem("hdtlz2", n=4, gamma=2.5)
        z = np.array([0.3, 0.0, 1.0, 0.0])
        # chain parents: p(3)=2, p(4)=3
        value = problem.coupling(z, (3, 4))
        assert value == pytest.approx(2.5 * ((1 - 0) ** 2 + (0 - 1) ** 2) / 2)

    def test_parent_functions(self):
        assert [chain_parent(j) for j in range(3, 7)] == [2, 3, 4, 5]
        assert [tree_parent(j) for j in range(3, 7)] == [2, 2, 3, 3]

    def test_tree_topology_used(self):
        problem = HBenchProblem("hdtlz2", n=6, topology="tree", gamma=1.0)
        z = np.array([0.1, 0.2, 0.9, 0.4, 0.6, 0.5])
        expected = ((z[2] - z[1]) ** 2 + (z[3] - z[1]) ** 2) / 2
        assert problem.coupling(z, (3, 4)) == pytest.approx(expected)


class TestObjectives:
    def test_quarter_circle_corners(self):
        z = np.full(12, 0.5)
        z[0] = 0.0
        assert hdtlz2(z) == pytest.approx((1.0, 0.0), abs=1e-12)
        z[0] = 1.0
        f1, f2 = hdtlz2(z)
        assert f1 == pytest.approx(0.0, abs=1e-12) and f2 == pytest.approx(1.0)

    def test_quarter_circle_midpoint(self):
        z = np.full(12, 0.5)
        assert hdtlz2(z) == pytest.approx((0.70711, 0.70711), abs=1e-5)

    def test_disconnected_front_values(self):
        z = np.zeros(12)
        assert hdtlz7(z) == pytest.approx((0.0, 1.0))
        z[0] = 1.0
        assert hdtlz7(z) == pytest.approx((1.0, 0.5))
        z[0] = 1.0 / 6.0
        f1, f2 = hdtlz7(z)
        assert (f1, f2) == (pytest.approx(1 / 6), pytest.approx(5 / 6))

    def test_coupling_never_helps(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.random(6)
            base = hdtlz2(z, coupling=0.0)
            worse = hdtlz2(z, coupling=float(rng.random()))
            assert worse[0] >= base[0] and worse[1] >= base[1]

    def test_neutral_config_on_front(self):
        problem = HBenchProblem("hdtlz2", n=6)
        decoded, _ = decoded_with(problem, z2_bin=2)
        z, active = problem.project(decoded)
        z[1] = 0.5  # force the ideal distance value
        f1, f2 = hdtlz2(z, problem.coupling(z, active))
        assert f1 ** 2 + f2 ** 2 == pytest.approx(1.0, abs=1e-12)


# The numpy objectives the plain-float path replaced, kept as the reference.

def numpy_project(problem, decoded):
    z = np.full(problem.n, problem.neutral)
    z[0] = decoded.values[0]
    z[1] = decoded.values[1]
    active = []
    for j in range(3, problem.n + 1):
        pos = 2 * j - 3
        if decoded.active[pos]:
            z[j - 1] = decoded.values[pos]
            active.append(j)
    return z, tuple(active)


def numpy_coupling(problem, z, active_tails):
    if not active_tails:
        return 0.0
    total = sum((z[j - 1] - z[problem.parent(j) - 1]) ** 2 for j in active_tails)
    return problem.gamma * total / len(active_tails)


def numpy_hdtlz2(z, coupling=0.0):
    n = len(z)
    g = ((z[1:] - 0.5) ** 2).sum() / (n - 1) + coupling
    angle = 0.5 * math.pi * z[0]
    return ((1.0 + g) * math.cos(angle), (1.0 + g) * math.sin(angle))


def numpy_hdtlz7(z, coupling=0.0):
    n = len(z)
    f1 = float(z[0])
    g = 1.0 + 9.0 * z[1:].sum() / (n - 1) + coupling
    h = 2.0 - (f1 / g) * (1.0 + math.sin(3.0 * math.pi * f1))
    return (f1, 0.5 * g * h)


def numpy_objectives(problem, decoded):
    z, active = numpy_project(problem, decoded)
    cpl = numpy_coupling(problem, z, active)
    return (numpy_hdtlz2 if problem.variant == "hdtlz2" else numpy_hdtlz7)(z, cpl)


def refined_bench_state(space, rng, rounds=60):
    """Bins split at random, and again and again next to 0 and 0.5 where
    H-DTLZ fronts pile up, down to bins narrower than 1e-12."""
    state = RefinementState(space, persistence=1)
    for _ in range(rounds):
        for pos in space.continuous_indices():
            pts = state.breakpoints(pos)
            targets = [0.0, 0.5] + rng.random(2).tolist()
            for t in targets:
                k = min(int(np.searchsorted(pts, t, side="right")) - 1, len(pts) - 2)
                state.counters[pos][k] = 1
        state.refine()
    return state


class TestPlainFloatObjectives:
    """``objectives`` equals the numpy formulas bit for bit."""

    @pytest.mark.parametrize("variant", ["hdtlz2", "hdtlz7"])
    @pytest.mark.parametrize("topology", ["chain", "tree"])
    def test_equals_numpy_on_initial_and_refined_bins(self, variant, topology):
        rng = np.random.default_rng(7)
        for n, refined, configs in ((12, False, 5000), (12, True, 5000), (140, True, 1000)):
            problem = HBenchProblem(variant, n=n, topology=topology, gamma=1.3)
            space = problem.space()
            state = refined_bench_state(space, rng) if refined else RefinementState(space)
            if refined:
                assert np.diff(state.breakpoints(1)).min() < 1e-12
            for _ in range(configs):
                decoded = decode(sample_random(space, state, rng), state)
                assert problem.objectives(decoded) == numpy_objectives(problem, decoded)

    def test_numpy_inputs_still_work(self):
        problem = HBenchProblem("hdtlz7", n=140, topology="tree")
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.random(140)
            active = tuple(j for j in range(3, 141) if rng.random() < 0.5)
            cpl = problem.coupling(z, active)
            assert cpl == numpy_coupling(problem, z, active)
            assert hdtlz2(z, cpl) == numpy_hdtlz2(z, cpl)
            assert hdtlz7(z, cpl) == numpy_hdtlz7(z, cpl)
            assert hdtlz7(z.tolist(), cpl) == numpy_hdtlz7(z, cpl)


class TestPairwiseSum:
    def test_equals_np_sum_on_every_length(self):
        rng = np.random.default_rng(11)
        for n in range(401):
            for trial in range(6):
                terms = rng.random(n) * 10.0 ** rng.integers(-12, 12, size=n)
                if trial % 2:
                    terms -= rng.random(n)          # mixed signs and cancellation
                if trial == 5:
                    terms[rng.random(n) < 0.5] = -0.0
                want = np.sum(terms)
                got = pairwise_sum(terms.tolist())
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), n

    def test_all_negative_zero_sums_to_positive_zero(self):
        for n in (1, 7, 8, 100, 200):
            assert math.copysign(1.0, pairwise_sum([-0.0] * n)) == 1.0
            assert math.copysign(1.0, np.sum(np.full(n, -0.0))) == 1.0

    def test_left_to_right_order_differs(self):
        # the reason for the helper: plain addition order mismatches np.sum
        rng = np.random.default_rng(2)
        vectors = [rng.random(11) * 10.0 ** rng.integers(-3, 3, size=11) for _ in range(200)]
        assert any(sum_in_order(v.tolist()) != np.sum(v) for v in vectors)


def sum_in_order(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


class TestReferenceFront:
    def test_circle_endpoints(self):
        front = reference_front("hdtlz2", 2)
        assert front[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert front[-1] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_circle_identity(self):
        front = reference_front("hdtlz2", 777)
        radii = (front ** 2).sum(axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_disconnected_front_is_nondominated(self):
        front = reference_front("hdtlz7", 1000)
        assert nondominated_mask(front).all()

    @pytest.mark.parametrize("variant,fn", [("hdtlz2", hdtlz2), ("hdtlz7", hdtlz7)])
    def test_lattice_never_dominates_reference(self, variant, fn):
        # coarse feasible lattice over (z1, z2) with neutral tails: no point
        # may improve both coordinates of any reference point beyond 1e-9
        front = reference_front(variant, 300)
        neutral = 0.5 if variant == "hdtlz2" else 0.0
        for z1 in np.linspace(0, 1, 21):
            for z2 in np.linspace(0, 1, 21):
                z = np.full(6, neutral)
                z[0], z[1] = z1, z2
                f1, f2 = fn(z)
                gap = np.maximum(f1 - front[:, 0], f2 - front[:, 1])
                assert gap.min() >= -1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            reference_front("hdtlz2", 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            reference_front("zdt1", 10)
