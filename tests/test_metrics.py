"""Indicator tests, with a Monte-Carlo HV oracle."""

import csv
import math
import warnings

import numpy as np
import pytest

from phmoea import metrics
from phmoea.benchmarks import reference_front
from phmoea.cli import RunManifest, build_problem, main
from phmoea.engine import run_nsga2
from phmoea.metrics import (_nearest_squared, front_ranks, hv, igd,
                            merged_reference_front, nondominated_mask)


def monte_carlo_hv(points, reference, n_samples, seed):
    """Share of uniform box samples dominated by at least one point."""
    rng = np.random.default_rng(seed)
    pts = np.asarray(points)
    r = np.asarray(reference, dtype=float)
    lo = pts.min(axis=0)
    samples = lo + rng.random((n_samples, 2)) * (r - lo)
    covered = np.zeros(n_samples, dtype=bool)
    for p in pts:
        covered |= (samples >= p).all(axis=1)
    box = float(np.prod(r - lo))
    frac = covered.mean()
    estimate = frac * box
    stderr = box * math.sqrt(frac * (1 - frac) / n_samples)
    return estimate, stderr


# ---------------------------------------------------------------------------
# IGD
# ---------------------------------------------------------------------------

def dense_nearest_squared(a, ref):
    """The full reference x obtained formula igd replaced, kept as the reference."""
    a, ref = np.asarray(a, dtype=float), np.asarray(ref, dtype=float)
    dx = ref[:, 0, None] - a[None, :, 0]
    dy = ref[:, 1, None] - a[None, :, 1]
    return (dx * dx + dy * dy).min(axis=1)


def hypot_igd(a, ref):
    """igd by ``math.hypot`` per pair and an exact sum: no square, no overflow."""
    a, ref = np.asarray(a, dtype=float).tolist(), np.asarray(ref, dtype=float).tolist()
    return math.fsum(min(math.hypot(x - rx, y - ry) for x, y in a) / len(ref)
                     for rx, ry in ref)


def assert_matches_dense(a, ref):
    nearest = dense_nearest_squared(a, ref)
    assert np.array_equal(_nearest_squared(np.asarray(a, dtype=float),
                                           np.asarray(ref, dtype=float)), nearest)
    assert igd(a, ref) == float(np.sqrt(nearest).mean())


def _arc(n, lo=0.0, hi=1.0):
    u = np.linspace(lo, hi, n)
    return np.column_stack([np.cos(np.pi * u / 2), np.sin(np.pi * u / 2)])


def _shared_f1():
    rng = np.random.default_rng(1)
    a = np.column_stack([rng.integers(0, 5, 80) / 4, rng.random(80)])
    ref = np.column_stack([rng.integers(0, 5, 40) / 4, rng.random(40)])
    return a, ref


def _repeated():
    rng = np.random.default_rng(2)
    a = rng.random((10, 2))[rng.integers(0, 10, 60)]
    return a, np.vstack([a[:5], rng.random((30, 2))])


def _dominated():
    rng = np.random.default_rng(3)
    front = _arc(20)
    return np.vstack([front, front + rng.random((20, 2))]), _arc(200)


def _magnitudes():
    rng = np.random.default_rng(4)

    def pts(n):
        return rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-300, 6, (n, 2))

    tiny = np.array([(0.0, 0.0), (1e-300, 0.0), (0.0, 1e-300), (-3e-200, 2e-250)])
    return np.vstack([pts(60), tiny]), np.vstack([pts(60), tiny[::-1] * 0.5])


EDGE_CASES = {
    "shared_f1": _shared_f1,
    "repeated_points": _repeated,
    "dominated_points": _dominated,
    "one_obtained_point": lambda: (np.array([(0.4, 0.6)]), _arc(100)),
    "reference_far_from_front": lambda: (_arc(30, 0.2, 0.4), _arc(50) * 1e3 - 500.0),
    "magnitudes_1e-300_to_1e6": _magnitudes,
}


class TestIgd:
    def test_identical_sets(self):
        pts = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
        assert igd(pts, pts) == 0.0

    def test_single_point(self):
        assert igd([(0.0, 0.0)], [(0.0, 1.0), (1.0, 0.0)]) == 1.0

    def test_duplicates_do_not_matter(self):
        ref = [(0.0, 1.0), (1.0, 0.0)]
        a = [(0.2, 0.3)]
        assert igd(a * 4, ref) == igd(a, ref)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            igd(np.empty((0, 2)), [(0.0, 0.0)])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_root_per_pair_formula(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((int(rng.integers(1, 60)), 2)) * 10.0 ** rng.integers(-3, 3)
        ref = rng.random((int(rng.integers(1, 300)), 2))
        d = np.sqrt(((ref[:, None, :] - a[None, :, :]) ** 2).sum(axis=2))
        assert igd(a, ref) == float(d.min(axis=1).mean())

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sets_match_the_dense_formula(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((int(rng.integers(1, 120)), 2))
        ref = rng.random((int(rng.integers(1, 500)), 2)) * rng.choice([1.0, 3.0])
        assert_matches_dense(a, ref)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_match_the_dense_formula(self, case):
        assert_matches_dense(*EDGE_CASES[case]())

    def test_rounded_reach_keeps_a_nearer_point(self):
        # A, the right f1 neighbour, bounds the reference's distance; B lies
        # just beyond rx - r, and its rounded offset squares below the bound
        rx, p, q = 0.5154368461864055, 0.14791770699277332, 0.49375651819539595
        bx = float(np.nextafter(rx - np.sqrt(p * p + q * q), -np.inf))
        a = np.array([(rx + p, q), (bx, 0.0), ((bx + rx) / 2, 10.0)])
        ref = np.array([(rx, 0.0)])
        assert dense_nearest_squared(a[1:2], ref) < dense_nearest_squared(a[:1], ref)
        assert_matches_dense(a, ref)

    def test_every_front_of_a_short_run(self, monkeypatch):
        calls = []

        def recording(obtained, reference):
            calls.append((np.array(obtained, dtype=float), reference))
            return real(obtained, reference)

        real = metrics.igd
        monkeypatch.setattr(metrics, "igd", recording)
        manifest = RunManifest(problem="hdtlz7", algorithm="nsga2", pop_size=20,
                               generations=10)
        run_nsga2(build_problem(manifest), 20, 10, manifest.search_params(), seed=0)
        assert len(calls) == 10
        for a, ref in calls:
            assert_matches_dense(a, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_huge_coordinates_match_hypot(self, seed):
        rng = np.random.default_rng(seed)
        # every gap squares past the float range; every distance stays inside it
        a = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 40)), 2)) * 5e307
        ref = np.vstack([rng.uniform(-1.0, 1.0, (int(rng.integers(1, 200)), 2)) * 5e307,
                         rng.random((5, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = igd(a, ref)
        expect = hypot_igd(a, ref)
        assert math.isfinite(expect) and value == pytest.approx(expect, rel=1e-12)

    def test_search_with_huge_objectives_reports_a_finite_igd(self, tmp_path, capsys):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["search", "--problem", "hdtlz2", "--gamma", "1e308", "--pop", "6",
                         "--gens", "2", "--out", str(out)]) == 0
        printed = float(capsys.readouterr().out.rsplit("igd=", 1)[1])
        with open(out / "seed_000" / "pareto_front.csv") as f:
            front = [(float(row["f1"]), float(row["f2"])) for row in csv.DictReader(f)]
        expect = hypot_igd(front, reference_front("hdtlz2"))
        assert math.isfinite(expect) and expect > 1e306
        assert printed == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["obtained", "reference"])
    def test_non_finite_coordinates_rejected(self, bad, side):
        pts = {"obtained": [(0.1, 0.9), (0.5, 0.5)], "reference": [(0.0, 1.0), (1.0, 0.0)]}
        pts[side] = pts[side] + [(0.3, bad)]
        with pytest.raises(ValueError, match=side):
            igd(pts["obtained"], pts["reference"])


# ---------------------------------------------------------------------------
# Non-domination ranks
# ---------------------------------------------------------------------------

def peeled_ranks(points):
    """Ranks by repeatedly removing the points no remaining point dominates."""
    pts = [tuple(p) for p in np.asarray(points, dtype=float).tolist()]
    ranks = [None] * len(pts)
    rank = 0
    while None in ranks:
        left = [i for i, r in enumerate(ranks) if r is None]
        front = [i for i in left
                 if not any(pts[j][0] <= pts[i][0] and pts[j][1] <= pts[i][1]
                            and pts[j] != pts[i] for j in left)]
        for i in front:
            ranks[i] = rank
        rank += 1
    return ranks


class TestFrontRanks:
    def test_hand_example(self):
        pts = [(1, 1), (0, 2), (2, 0), (2, 2), (1, 1), (0, 3), (3, 3)]
        assert front_ranks(pts).tolist() == [0, 0, 0, 1, 0, 1, 2]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_peeling_on_ties_and_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        if seed % 2:    # integer grid: many shared coordinates and equal points
            pts = rng.integers(0, int(rng.integers(2, 8)), (n, 2)).astype(float)
        else:
            pts = rng.random((n, 2))
            pts[rng.random(n) < 0.2] = pts[0]
            pts[rng.random(n) < 0.2, 0] = pts[-1, 0]
        assert front_ranks(pts).tolist() == peeled_ranks(pts)
        assert nondominated_mask(pts).tolist() == \
            [r == 0 for r in peeled_ranks(pts)]


# ---------------------------------------------------------------------------
# Hypervolume
# ---------------------------------------------------------------------------

def loop_hv(obtained, reference_point):
    """Hypervolume by the non-dominated filter and a strip loop, kept as the reference."""
    pts = np.asarray(obtained, dtype=float).reshape(-1, 2)
    r1, r2 = float(reference_point[0]), float(reference_point[1])
    pts = pts[(pts[:, 0] < r1) & (pts[:, 1] < r2)]
    if len(pts) == 0:
        return 0.0
    pts = pts[np.array(peeled_ranks(pts)) == 0]
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    total = 0.0
    for i, (f1, f2) in enumerate(pts):
        nxt = pts[i + 1, 0] if i + 1 < len(pts) else r1
        total += (nxt - f1) * (r2 - f2)
    return float(total)


class TestHv:
    def test_three_objectives_rejected(self):
        with pytest.raises(ValueError, match=r"expected an \(n, 2\) point set"):
            hv(np.zeros((4, 3)), (1.0, 1.0))

    def test_unit_square(self):
        assert hv([(0.0, 0.0)], (1.0, 1.0)) == 1.0

    def test_two_point_sweep(self):
        assert hv([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0)) == pytest.approx(0.75)

    def test_quarter_circle(self):
        u = np.linspace(0.0, 1.0, 2000)
        front = np.column_stack([np.cos(np.pi * u / 2), np.sin(np.pi * u / 2)])
        assert hv(front, (1.1, 1.1)) == pytest.approx(1.21 - np.pi / 4, abs=1e-3)

    def test_point_outside_reference_contributes_nothing(self):
        assert hv([(2.0, 2.0)], (1.0, 1.0)) == 0.0
        assert hv([(0.0, 0.0), (2.0, 0.1)], (1.0, 1.0)) == 1.0

    def test_monotone_under_additions(self):
        rng = np.random.default_rng(3)
        pts = list(rng.random((6, 2)))
        base = hv(pts, (1.5, 1.5))
        for extra in rng.random((10, 2)):
            assert hv(pts + [extra], (1.5, 1.5)) >= base - 1e-12

    def test_dominated_addition_is_neutral(self):
        pts = [(0.2, 0.2)]
        assert hv(pts + [(0.5, 0.5)], (1.0, 1.0)) == hv(pts, (1.0, 1.0))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 8, 60, 300):
            if seed % 4 == 0:           # integer grid: ties, repeats, shared f1
                pts = rng.integers(0, 5, (n, 2)).astype(float)
                ref = (4.0, 4.0)        # points on and beyond the reference lines
            elif seed % 4 == 1:         # shared f1, shared f2 and repeated points
                pts = rng.random((n, 2))
                pts[:, 0] = rng.choice(pts[:3, 0], n)
                pts[:, 1] = rng.choice(pts[:5, 1], n)
                pts = np.vstack([pts, pts[: n // 2 + 1]])
                ref = (1.1, 1.1)
            elif seed % 4 == 2:         # every point on the front: long sums
                u = np.sort(rng.random(n))
                pts = np.column_stack([u, 1.0 - np.sqrt(u)])
                ref = (1.1, 1.1)
            else:
                pts = rng.random((n, 2)) * 1.2
                ref = (1.0, 1.0)
            assert hv(pts, ref) == loop_hv(pts, ref)

    # a width or a height past the float range bounds a strip of finite area
    @pytest.mark.parametrize("points, reference, area", [
        ([(0.0, -1.5e308)], (1e-300, 1.5e308), 1e-300 * 1.5e308 * 2),
        ([(-1.5e308, 0.0), (1.5e308, -1.0)], (1.6e308, 1e-300), 1.6e308 - 1.5e308),
        ([(0.0, -1.0), (1e-300, -1.5e308)], (3e-300, 1.5e308),
         1e-300 * 1.5e308 + 2e-300 * 1.5e308 * 2)])
    def test_finite_area_past_the_float_range(self, points, reference, area):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hv(points, reference) == pytest.approx(area, rel=1e-15)

    def test_area_past_the_float_maximum_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hv([(-1.5e308, -1.5e308)], (1.5e308, 1.5e308)) == math.inf

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            raw = rng.random((n, 2))
            ref = (1.2, 1.2)
            exact = hv(raw, ref)
            estimate, stderr = monte_carlo_hv(raw, ref, 200_000, seed=trial)
            assert abs(exact - estimate) <= 3 * stderr + 1e-9


# ---------------------------------------------------------------------------
# Merged reference fronts
# ---------------------------------------------------------------------------

class TestMergedFront:
    def test_no_sets_rejected(self):
        with pytest.raises(ValueError, match="need at least one point set"):
            merged_reference_front([])

    def test_single_nd_set_is_identity(self):
        pts = np.array([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        merged = merged_reference_front([pts])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, pts))

    def test_dominated_set_removed(self):
        merged = merged_reference_front([[(1.0, 1.0)], [(0.0, 0.0)]])
        assert merged.tolist() == [[0.0, 0.0]]

    def test_result_is_mutually_nondominated(self):
        rng = np.random.default_rng(1)
        sets = [rng.random((20, 2)) for _ in range(4)]
        merged = merged_reference_front(sets)
        assert nondominated_mask(merged).all()

    def test_duplicates_collapse(self):
        merged = merged_reference_front([[(0.3, 0.7)], [(0.3, 0.7)], [(0.7, 0.3)]])
        assert len(merged) == 2


# ---------------------------------------------------------------------------
# Point-set contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda bad: hv([(bad, 0.5), (0.2, 0.3)], (1.1, 1.1)),
    lambda bad: hv([(0.5, 0.5), (0.2, 0.3)], (1.1, bad)),
    lambda bad: front_ranks([(0.1, 0.9), (bad, 0.5), (0.9, 0.1)]),
    lambda bad: nondominated_mask([(bad, 0.1), (0.2, 0.3)]),
    lambda bad: merged_reference_front([[(0.1, 0.9)], [(0.5, bad)]]),
], ids=["hv-points", "hv-reference-point", "front_ranks", "nondominated_mask",
        "merged_reference_front"])
def test_non_finite_coordinates_rejected(call, bad):
    with pytest.raises(ValueError, match="must be finite"):
        call(bad)
