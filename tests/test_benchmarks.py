"""Hierarchical benchmark tests: projection, coupling, objectives, fronts."""

import numpy as np
import pytest

from phmoea.benchmarks import (HBenchProblem, benchmark_space, chain_parent,
                               hdtlz2, hdtlz7, reference_front, tree_parent)
from phmoea.metrics import nondominated_mask
from phmoea.space import (RefinementState, decode, fresh_genotype, repair,
                          sample_random)


def decoded_with(problem, z1_bin=0, z2_bin=0, gates=(), tail_bins=None):
    space = problem.space()
    state = RefinementState(space)
    genes = [0] * len(space)
    genes[0], genes[1] = z1_bin, z2_bin
    for j in gates:
        genes[2 * j - 4] = 1  # gate_j on
        if tail_bins and j in tail_bins:
            genes[2 * j - 3] = tail_bins[j]
    g = repair(fresh_genotype(genes), space, state)
    return decode(g, state), state


class TestGenome:
    def test_dimension_layout(self):
        space = benchmark_space(5)
        assert len(space) == 2 * 5 - 2
        assert space.variable(1).name == "z1"
        assert space.variable(3).name == "gate3"
        assert space.variable(4).parent == (3, ("on",))

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
            assert np.all(z >= 0.0) and np.all(z <= 1.0)


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
