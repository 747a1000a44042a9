"""Budgeted bi-objective evolutionary search engine.

The engine couples NSGA-II machinery (fast non-dominated sorting, crowding,
elitist truncation, SBX/polynomial variation) with three additions: player
archives that accumulate stage-weighted credit per (dimension, candidate) and
drive stratified hot/non-hot offspring assembly, adaptive bin refinement of
continuous dimensions, and duplicate rejection of every candidate admitted to
evaluation. A plain NSGA-II baseline mode disables the archive machinery but
keeps the identical encoding, repair, deduplication and selection path.

Everything is deterministic for a fixed seed: a single RNG drives sampling
and variation, evaluation consumes no randomness, and all ties break by
index.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import metrics
from .evaluators import Evaluation, evaluate_safely, failed_evaluation
from .space import (ConfigSpace, DecodedConfig, DedupRegistry, Genotype,
                    PLACEHOLDER, RefinementState, canonical_key, decode,
                    fresh_genotype, nearest_index, repair, sample_random,
                    split_renumbering)

NORM_EPS = 1e-12


@dataclass
class SearchParams:
    """All tunables of one search run.

    ``real_task()`` and ``benchmark()`` bundle the two standard settings:
    the real task biases scoring toward the error objective and keeps the
    conservative refinement trigger, while benchmarks use balanced weights,
    earlier stage switches, no early stopping and an aggressive refinement
    trigger so the discretization can chase the analytic front.
    """

    # stage-dependent scoring
    stage_early_end: float = 0.3
    stage_late_start: float = 0.6
    crowding_bonus: float = 0.2
    error_weight: float = 0.7
    late_crowding_bonus: float = 0.05
    stage_ratios: tuple = ((0.8, 0.1, 0.1), (0.6, 0.2, 0.2), (0.5, 0.3, 0.2))
    # player pools
    hot_fraction: float = 0.3
    cold_fraction: float = 0.2
    cold_bonus: float = 0.15
    cross_pool_rate: float = 0.1
    # variation
    crossover_prob: float = 0.8
    mutation_prob: float = 0.2
    sbx_eta: float = 15.0
    mutation_eta: float = 20.0
    max_mutated: int = 6
    # encoding, deduplication, refinement
    initial_bins: int = 6
    n_trial: int = 50
    refine_mass: float = 0.5
    refine_persistence: int = 3
    # early stopping
    early_stop: bool = True
    window: int = 8
    eps_denom: float = 1e-12
    eps_f1: float = 1e-3
    eps_f2: float = 1e-3
    eps_hv: float = 1e-4

    @classmethod
    def real_task(cls) -> "SearchParams":
        return cls()

    @classmethod
    def benchmark(cls) -> "SearchParams":
        return cls(stage_early_end=0.2, stage_late_start=0.4, error_weight=0.5,
                   early_stop=False, refine_mass=0.01, refine_persistence=1)

    def validate(self) -> None:
        if not 0 <= self.stage_early_end < self.stage_late_start <= 1:
            raise ValueError("stage thresholds must satisfy 0 <= early < late <= 1")
        for ratios in self.stage_ratios:
            if abs(sum(ratios) - 1.0) > 1e-9:
                raise ValueError("each stage ratio triple must sum to 1")
        if self.cold_bonus <= 0:
            raise ValueError("cold bonus must be positive")
        if not 0 <= self.cross_pool_rate <= 1:
            raise ValueError("cross-pool rate must lie in [0, 1]")


@dataclass
class Individual:
    """An evaluated candidate; ``decoded`` is the configuration f1/f2 were measured on."""

    genotype: Genotype
    decoded: DecodedConfig
    key: int
    f1: float
    f2: float
    rank: int = 0
    crowding: float = 0.0
    f1_norm: float = 0.0
    f2_norm: float = 0.0
    crowding_norm: float = 0.0
    score: float = 0.0
    weight: float = 0.0


@dataclass
class SearchProblem:
    """Space plus evaluator plus optional reporting references."""

    space: ConfigSpace
    evaluator: object                       # DecodedConfig -> Evaluation
    name: str = "problem"
    reference_front: np.ndarray | None = None
    hv_reference: tuple[float, float] | None = None


@dataclass(frozen=True)
class HistoryRow:
    gen: int
    fes: int
    mean_f1: float
    mean_f2: float
    hv: float
    igd: float | None
    # population minima, for elitism diagnostics (not part of the CSV schema)
    min_f1: float = math.nan
    min_f2: float = math.nan


@dataclass
class RunResult:
    pareto: list[Individual]
    population: list[Individual]
    history: list[HistoryRow]
    fes: int
    generations: int
    stopped_early: bool
    evaluated_keys: list[int] = field(default_factory=list)
    skipped_errors: int = 0


# ---------------------------------------------------------------------------
# Ranking, crowding, normalization, scoring
# ---------------------------------------------------------------------------

def nd_sort_and_crowd(pop: list[Individual]) -> list[list[Individual]]:
    """Assign 0-based non-domination ranks and per-front crowding distances.

    Fronts list their members in population order.
    """
    if not pop:
        return []
    ranks = metrics.front_ranks([[ind.f1, ind.f2] for ind in pop]).tolist()
    fronts: list[list[Individual]] = [[] for _ in range(max(ranks) + 1)]
    for ind, rank in zip(pop, ranks):
        ind.rank = rank
        fronts[rank].append(ind)
    for front in fronts:
        _crowding(front)
    return fronts


def _crowding(front: list[Individual]) -> None:
    """Crowding distance within one front (Deb et al., IEEE TEVC 6(2), 2002).

    Per objective the members sort by value, ties in list order; the two
    boundaries get ``inf`` and every other member adds the gap between its
    neighbours over the span (nothing if the span is 0), f1 before f2. Plain
    lists: fronts are mostly a few members, where numpy calls cost more.
    """
    if not front:
        return
    crowding = [0.0] * len(front)
    for values in ([ind.f1 for ind in front], [ind.f2 for ind in front]):
        order = sorted(range(len(front)), key=values.__getitem__)
        span = values[order[-1]] - values[order[0]]
        if span > 0:
            for prev, j, nxt in zip(order, order[1:], order[2:]):
                crowding[j] += (values[nxt] - values[prev]) / span
        crowding[order[0]] = crowding[order[-1]] = math.inf
    for ind, c in zip(front, crowding):
        ind.crowding = c


def normalize_generation(pop: list[Individual]) -> None:
    """Min-max normalize objectives and crowding within the generation.

    Boundary individuals carry infinite crowding and normalize to 1.
    """
    for attr, target in (("f1", "f1_norm"), ("f2", "f2_norm")):
        values = [getattr(ind, attr) for ind in pop]
        lo, hi = min(values), max(values)
        for ind, v in zip(pop, values):
            setattr(ind, target, (v - lo) / (hi - lo + NORM_EPS))
    finite = [ind.crowding for ind in pop if math.isfinite(ind.crowding)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 0.0
    for ind in pop:
        if math.isfinite(ind.crowding):
            ind.crowding_norm = (ind.crowding - lo) / (hi - lo + NORM_EPS)
        else:
            ind.crowding_norm = 1.0


def compute_scores(pop: list[Individual], phi: float, params: SearchParams) -> None:
    """Stage-blended score and normalized archive weights.

    Early stage rewards rank and diversity, the late stage switches to the
    blended normalized objectives plus a small crowding bonus, and the middle
    stage interpolates linearly between the two.
    """
    k1, k2 = params.stage_early_end, params.stage_late_start
    for ind in pop:
        s = 1.0 / (1.0 + ind.rank) + params.crowding_bonus * ind.crowding_norm
        g = params.error_weight * ind.f1_norm + (1.0 - params.error_weight) * ind.f2_norm
        if phi < k1:
            ind.score = s
        elif phi < k2:
            alpha = (k2 - phi) / (k2 - k1)
            ind.score = alpha * s + (1.0 - alpha) * g
        else:
            ind.score = g + params.late_crowding_bonus * ind.crowding_norm
    total = sum(ind.score for ind in pop)
    if total <= 0:
        for ind in pop:
            ind.weight = 1.0 / len(pop)
    else:
        for ind in pop:
            ind.weight = ind.score / total


def stage_ratios(phi: float, params: SearchParams) -> tuple[float, float, float]:
    if phi < params.stage_early_end:
        return params.stage_ratios[0]
    if phi < params.stage_late_start:
        return params.stage_ratios[1]
    return params.stage_ratios[2]


# ---------------------------------------------------------------------------
# Player archives and stratified pools
# ---------------------------------------------------------------------------

class PlayerArchives:
    """Cumulative heat and occurrence count per (dimension, candidate).

    ``heat[pos]`` and ``count[pos]`` are arrays over the candidates or bins
    of dimension ``pos + 1``; ``sizes`` gives their initial lengths.
    """

    def __init__(self, sizes: list[int]):
        self.heat = [np.zeros(n) for n in sizes]
        self.count = [np.zeros(n, dtype=np.int64) for n in sizes]

    def update(self, pop: list[Individual]) -> None:
        """Accumulate each individual's weight onto its repaired genes.

        ``np.add.at`` adds in population order, so every player's heat is
        the same float sum as one-by-one accumulation.
        """
        genes = np.array([ind.genotype.genes for ind in pop])
        weights = np.array([ind.weight for ind in pop])
        for pos, column in enumerate(genes.T):
            on = column != PLACEHOLDER
            np.add.at(self.heat[pos], column[on], weights[on])
            np.add.at(self.count[pos], column[on], 1)

    def split_bin(self, dim: int, split: np.ndarray) -> None:
        """Split the old bins ``split`` (sorted) of ``dim`` after a refinement.

        A split bin's heat is halved onto both children; its left child keeps
        ``c // 2`` of the count and the right child, inserted after it, the
        rest.
        """
        pos = dim - 1
        heat, count = self.heat[pos], self.count[pos]
        heat[split] /= 2.0
        right = count[split] - count[split] // 2
        count[split] //= 2
        self.heat[pos] = np.insert(heat, split + 1, heat[split])
        self.count[pos] = np.insert(count, split + 1, right)


@dataclass(frozen=True)
class Partition:
    hot: tuple[int, ...]
    normal: tuple[int, ...]
    cold: tuple[int, ...]
    _cdfs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def non_hot(self) -> tuple[int, ...]:
        return tuple(sorted(self.normal + self.cold))

    def non_hot_cdf(self, cold_bonus: float) -> list[float]:
        """CDF of the cold-bonus weights over ``non_hot``, as ``Generator.choice``
        builds it from ``p``: normalise, cumsum, divide by the last element."""
        if cold_bonus not in self._cdfs:
            weights = np.where(np.isin(self.non_hot, self.cold), cold_bonus, 1.0)
            cdf = (weights / weights.sum()).cumsum()
            self._cdfs[cold_bonus] = (cdf / cdf[-1]).tolist()
        return self._cdfs[cold_bonus]


def partition_players(archives: PlayerArchives, dim: int,
                      hot_fraction: float, cold_fraction: float) -> Partition:
    """Split a dimension's candidates into hot / normal / cold pools.

    Hot is the top share by heat, cold the bottom share by count among the
    remainder; ties always break toward the lower candidate index.
    """
    heat, count = archives.heat[dim - 1], archives.count[dim - 1]
    n = len(heat)
    n_hot, n_cold = math.ceil(hot_fraction * n), math.ceil(cold_fraction * n)
    by_heat = np.argsort(-heat, kind="stable")
    rest = np.sort(by_heat[n_hot:])
    by_count = rest[np.argsort(count[rest], kind="stable")]
    return Partition(hot=tuple(sorted(by_heat[:n_hot].tolist())),
                     normal=tuple(sorted(by_count[n_cold:].tolist())),
                     cold=tuple(sorted(by_count[:n_cold].tolist())))


def sample_candidate(partition: Partition, pool: str, n_candidates: int,
                     cold_bonus: float, rng: np.random.Generator) -> int:
    """Draw one candidate from the hot or non-hot pool.

    Hot sampling is uniform; non-hot applies the cold-bonus weight and
    renormalizes. An empty pool falls back to uniform over all candidates.
    """
    if pool == "hot":
        members = partition.hot
        if not members:
            return int(rng.integers(n_candidates))
        return int(members[rng.integers(len(members))])
    members = partition.non_hot
    if not members:
        return int(rng.integers(n_candidates))
    return members[bisect_right(partition.non_hot_cdf(cold_bonus), rng.random())]


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------

class EarlyStopMonitor:
    """Windowed relative-improvement stagnation detector.

    The hypervolume reference is fixed from the initial population the first
    time it is seen and never moves afterwards. Stopping requires all three
    signals (front-mean improvements of both objectives and hypervolume gain)
    to fall below their thresholds simultaneously.
    """

    def __init__(self, params: SearchParams):
        self.window = params.window
        self.eps_denom = params.eps_denom
        self.eps_f1 = params.eps_f1
        self.eps_f2 = params.eps_f2
        self.eps_hv = params.eps_hv
        self.reference: tuple[float, float] | None = None
        self.f1_means: list[float] = []
        self.f2_means: list[float] = []
        self.hv_values: list[float] = []

    def set_reference(self, pop: list[Individual]) -> None:
        if self.reference is None:
            self.reference = (1.1 * max(ind.f1 for ind in pop),
                              1.1 * max(ind.f2 for ind in pop))

    def record(self, front: list[Individual]) -> None:
        self.f1_means.append(sum(ind.f1 for ind in front) / len(front))
        self.f2_means.append(sum(ind.f2 for ind in front) / len(front))
        pts = [(ind.f1, ind.f2) for ind in front]
        self.hv_values.append(metrics.hv(pts, self.reference))

    def _relative_drop(self, series: list[float]) -> float:
        old, new = series[-1 - self.window], series[-1]
        return max(0.0, old - new) / max(abs(old), self.eps_denom)

    def _relative_gain(self, series: list[float]) -> float:
        old, new = series[-1 - self.window], series[-1]
        return max(0.0, new - old) / max(abs(old), self.eps_denom)

    def should_stop(self) -> bool:
        if len(self.f1_means) <= self.window:
            return False
        return (self._relative_drop(self.f1_means) < self.eps_f1
                and self._relative_drop(self.f2_means) < self.eps_f2
                and self._relative_gain(self.hv_values) < self.eps_hv)


# ---------------------------------------------------------------------------
# Environmental selection
# ---------------------------------------------------------------------------

def environmental_select(union: list[Individual], n: int) -> list[Individual]:
    """Elitist truncation: fill by rank, split the last front by crowding.

    Rank and crowding are final: a split front's survivors are crowded anew.
    """
    fronts = nd_sort_and_crowd(union)
    selected: list[Individual] = []
    for front in fronts:
        if len(selected) + len(front) <= n:
            selected.extend(front)
        else:
            room = n - len(selected)
            order = sorted(range(len(front)),
                           key=lambda i: (-front[i].crowding, i))
            kept = [front[i] for i in sorted(order[:room])]
            _crowding(kept)
            selected.extend(kept)
            break
    return selected


# ---------------------------------------------------------------------------
# Search run
# ---------------------------------------------------------------------------

class _Run:
    def __init__(self, problem: SearchProblem, pop_size: int, generations: int,
                 params: SearchParams, seed: int, use_archives: bool):
        if pop_size < 2:
            raise ValueError("population size must be at least 2")
        if generations < 1:
            raise ValueError("need at least one generation")
        params.validate()
        self.problem = problem
        self.space = problem.space
        self.pop_size = pop_size
        self.generations = generations
        self.params = params
        self.use_archives = use_archives
        self.rng = np.random.default_rng(seed)
        self.state = RefinementState(self.space, initial_bins=params.initial_bins,
                                     mass_threshold=params.refine_mass,
                                     persistence=params.refine_persistence)
        self.registry = DedupRegistry()
        self.archives = PlayerArchives(self.state.counts)
        self.monitor = EarlyStopMonitor(params)
        self.dims = len(self.space)
        self.continuous = [v.index - 1 for v in self.space.variables if v.is_continuous]
        self.max_mutated = min(params.max_mutated, self.dims)
        self.fes = 0
        self.evaluated_keys: list[int] = []
        self.skipped_errors = 0
        self.history: list[HistoryRow] = []
        self.population: list[Individual] = []

    # -- evaluation barrier -------------------------------------------------

    def _evaluate(self, batch: list[tuple[Genotype, DecodedConfig, int]]) -> list[Individual]:
        decoded = [dec for _, dec, _ in batch]
        evaluator = self.problem.evaluator
        if hasattr(evaluator, "evaluate_many"):
            try:
                evaluations = evaluator.evaluate_many(decoded)
            except Exception as exc:    # no candidate can be blamed: the batch fails
                evaluations = [failed_evaluation(dec, exc) for dec in decoded]
        else:
            evaluations = [evaluate_safely(evaluator, dec) for dec in decoded]
        out = []
        for (genotype, dec, key), ev in zip(batch, evaluations):
            self.fes += 1
            self.evaluated_keys.append(key)
            if isinstance(ev, Evaluation) and ev.ok and \
                    math.isfinite(ev.f1) and math.isfinite(ev.f2):
                out.append(Individual(genotype=genotype, decoded=dec, key=key,
                                      f1=float(ev.f1), f2=float(ev.f2)))
            else:
                self.skipped_errors += 1
        return out

    # -- offspring construction ---------------------------------------------

    @staticmethod
    def _tournament(a: Individual, b: Individual) -> Individual:
        if a.rank != b.rank:
            return a if a.rank < b.rank else b
        if a.crowding != b.crowding:
            return a if a.crowding > b.crowding else b
        return a

    def _sbx_child(self, p1: Genotype, p2: Genotype) -> Genotype:
        """One child from SBX on continuous dims plus uniform discrete swaps.

        After the crossover draw one batch holds, in order, ``u`` and the side
        per SBX dimension and one swap draw per other dimension.
        """
        params = self.params
        if self.rng.random() >= params.crossover_prob:
            return p1
        genes1, genes2 = p1.genes, p2.genes
        n_sbx = len([i for i in self.continuous if genes1[i] != PLACEHOLDER != genes2[i]])
        draw = iter(self.rng.random(self.dims + n_sbx).tolist()).__next__
        power = 1.0 / (params.sbx_eta + 1.0)
        child_genes = list(genes1)
        child_frozen = list(p1.frozen)
        for i, (grid, g1, g2) in enumerate(zip(self.state.grids, genes1, genes2)):
            if grid is not None and g1 != PLACEHOLDER != g2:
                lo, hi, mids = grid
                v1, v2 = mids[g1], mids[g2]
                u = draw()
                if u <= 0.5:
                    beta = (2.0 * u) ** power
                else:
                    beta = (1.0 / (2.0 * (1.0 - u))) ** power
                c1 = 0.5 * ((1.0 + beta) * v1 + (1.0 - beta) * v2)
                c2 = 0.5 * ((1.0 - beta) * v1 + (1.0 + beta) * v2)
                value = c1 if draw() < 0.5 else c2
                value = lo if value < lo else hi if value > hi else value
                child_genes[i] = child_frozen[i] = nearest_index(mids, value)
            elif draw() < 0.5:
                child_genes[i] = g2
                child_frozen[i] = p2.frozen[i]
        return Genotype(genes=tuple(child_genes), frozen=tuple(child_frozen))

    def _mutate(self, genotype: Genotype) -> Genotype:
        params = self.params
        if self.rng.random() >= params.mutation_prob:
            return genotype
        genes = list(genotype.genes)
        frozen = list(genotype.frozen)
        rate = 1.0 / self.dims
        changed = 0
        for i, grid in enumerate(self.state.grids):
            if changed >= self.max_mutated:
                break
            if genes[i] == PLACEHOLDER or self.rng.random() >= rate:
                continue
            if grid is not None:
                new = self._polynomial_step(grid, genes[i])
            else:
                new = int(self.rng.integers(self.state.counts[i]))
            if new != genes[i]:
                genes[i] = new
                frozen[i] = new
                changed += 1
        return Genotype(genes=tuple(genes), frozen=tuple(frozen))

    def _polynomial_step(self, grid: tuple[float, float, list[float]], gene: int) -> int:
        eta = self.params.mutation_eta
        lo, hi, mids = grid
        span = hi - lo
        if span <= 0:
            return gene
        x = mids[gene]
        u = self.rng.random()
        if u < 0.5:
            xy = 1.0 - (x - lo) / span
            delta = (2.0 * u + (1.0 - 2.0 * u) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0)) - 1.0
        else:
            xy = 1.0 - (hi - x) / span
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0))
        value = min(max(x + delta * span, lo), hi)
        return nearest_index(mids, value)

    def _variation_child(self) -> Genotype:
        pop = self.population
        i, j, k, m = self.rng.integers(len(pop), size=4).tolist()
        p1 = self._tournament(pop[i], pop[j])
        p2 = self._tournament(pop[k], pop[m])
        child = self._sbx_child(p1.genotype, p2.genotype)
        return self._mutate(child)

    def _assemble_child(self, partitions: dict[int, Partition], pool: str) -> Genotype:
        """One gene per dimension from ``pool``, then cross-pool swaps. The first
        pass draws once for all dimensions what ``sample_candidate`` draws per one."""
        params = self.params
        counts = self.state.counts
        parts = [partitions[i + 1] for i in range(self.dims)]
        if pool == "hot":
            picks = self.rng.integers(0, [len(p.hot) or n for p, n in zip(parts, counts)])
            genes = [p.hot[k] if p.hot else k for p, k in zip(parts, picks.tolist())]
        elif all(p.non_hot for p in parts):
            genes = [p.non_hot[bisect_right(p.non_hot_cdf(params.cold_bonus), u)]
                     for p, u in zip(parts, self.rng.random(self.dims).tolist())]
        else:
            genes = [sample_candidate(p, pool, n, params.cold_bonus, self.rng)
                     for p, n in zip(parts, counts)]
        opposite = "nh" if pool == "hot" else "hot"
        changed = 0
        for i, n in enumerate(counts):
            if changed >= self.max_mutated:
                break
            if self.rng.random() < params.cross_pool_rate:
                new = sample_candidate(parts[i], opposite, n, params.cold_bonus, self.rng)
                if new != genes[i]:
                    genes[i] = new
                    changed += 1
        return fresh_genotype(self.space, genes)

    def _admit(self, genotype: Genotype) -> tuple[Genotype, DecodedConfig, int] | None:
        g = repair(genotype, self.space, self.state)
        dec = decode(g, self.space, self.state)
        key = canonical_key(dec)
        if self.registry.admit(key):
            return (g, dec, key)
        return None

    def _fill_slots(self, n_slots: int, make) -> list[tuple[Genotype, DecodedConfig, int]]:
        out = []
        for _ in range(n_slots):
            for _ in range(self.params.n_trial):
                admitted = self._admit(make())
                if admitted is not None:
                    out.append(admitted)
                    break
        return out

    def _generate_offspring(self, phi: float) -> list[tuple[Genotype, DecodedConfig, int]]:
        n = self.pop_size
        if not self.use_archives:
            return self._fill_slots(n, self._variation_child)
        normalize_generation(self.population)
        compute_scores(self.population, phi, self.params)
        self.archives.update(self.population)
        partitions = {
            var.index: partition_players(self.archives, var.index,
                                         self.params.hot_fraction,
                                         self.params.cold_fraction)
            for var in self.space.variables
        }
        r_par, r_hot, _ = stage_ratios(phi, self.params)
        n_par = math.floor(r_par * n + 1e-9)
        n_hot = math.floor(r_hot * n + 1e-9)
        n_nh = n - n_par - n_hot
        batch = self._fill_slots(n_par, self._variation_child)
        batch += self._fill_slots(n_hot, lambda: self._assemble_child(partitions, "hot"))
        batch += self._fill_slots(n_nh, lambda: self._assemble_child(partitions, "nh"))
        return batch

    # -- refinement ---------------------------------------------------------

    def _refine(self, front: list[Individual]) -> None:
        self.state.update([ind.genotype.genes for ind in front])
        splits = self.state.refine()
        if not splits:
            return
        genes = np.array([ind.genotype.genes for ind in self.population])
        frozen = np.array([ind.genotype.frozen for ind in self.population])
        for dim in sorted({d for d, _ in splits}):
            split = np.array([k for d, k in splits if d == dim])
            if self.use_archives:
                self.archives.split_bin(dim, split)
            for rows in (genes, frozen):
                rows[:, dim - 1] = split_renumbering(rows[:, dim - 1], split)
        for ind, g, f in zip(self.population, genes.tolist(), frozen.tolist()):
            ind.genotype = Genotype(genes=tuple(g), frozen=tuple(f))

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, gen: int) -> list[Individual]:
        """Log the ranked population's generation and return its first front."""
        front = [ind for ind in self.population if ind.rank == 0]
        self.monitor.record(front)
        pts = [(ind.f1, ind.f2) for ind in front]
        reference = self.problem.hv_reference
        hv_value = (self.monitor.hv_values[-1] if reference is None   # same points
                    else metrics.hv(pts, reference))
        igd_value = None
        if self.problem.reference_front is not None:
            igd_value = metrics.igd(pts, self.problem.reference_front)
        self.history.append(HistoryRow(
            gen=gen, fes=self.fes,
            mean_f1=self.monitor.f1_means[-1],
            mean_f2=self.monitor.f2_means[-1],
            hv=hv_value, igd=igd_value,
            min_f1=min(ind.f1 for ind in self.population),
            min_f2=min(ind.f2 for ind in self.population)))
        return front

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        init = self._fill_slots(self.pop_size,
                                lambda: sample_random(self.space, self.state, self.rng))
        self.population = self._evaluate(init)
        if len(self.population) < 2:
            raise RuntimeError("initial population collapsed; evaluator keeps failing")
        self.monitor.set_reference(self.population)
        nd_sort_and_crowd(self.population)
        front = self._record(gen=1)

        stopped_early = False
        gen = 1
        for gen in range(2, self.generations + 1):
            phi = (gen - 1) / self.generations
            if self.params.early_stop and self.monitor.should_stop():
                stopped_early = True
                gen -= 1
                break
            self._refine(front)
            offspring = self._generate_offspring(phi)
            children = self._evaluate(offspring)
            self.population = environmental_select(self.population + children,
                                                   self.pop_size)
            front = self._record(gen=gen)

        pareto = sorted(front, key=lambda ind: (ind.f1, ind.f2, ind.key))
        assert len(set(self.evaluated_keys)) == len(self.evaluated_keys), \
            "duplicate candidate admitted to evaluation"
        return RunResult(pareto=pareto, population=self.population,
                         history=self.history, fes=self.fes,
                         generations=gen, stopped_early=stopped_early,
                         evaluated_keys=self.evaluated_keys,
                         skipped_errors=self.skipped_errors)


def run_phmoea(problem: SearchProblem, pop_size: int, generations: int,
               params: SearchParams | None = None, seed: int = 0) -> RunResult:
    """Full engine: player archives, stratified offspring, refinement."""
    params = params if params is not None else SearchParams.real_task()
    return _Run(problem, pop_size, generations, params, seed, use_archives=True).run()


def run_nsga2(problem: SearchProblem, pop_size: int, generations: int,
              params: SearchParams | None = None, seed: int = 0) -> RunResult:
    """Baseline: identical loop with offspring solely from SBX/mutation."""
    params = params if params is not None else SearchParams.real_task()
    return _Run(problem, pop_size, generations, params, seed, use_archives=False).run()
