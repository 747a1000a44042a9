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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import metrics
from .evaluators import Evaluation
from .space import (ConfigSpace, DecodedConfig, DedupRegistry, Genotype,
                    PLACEHOLDER, RefinementState, canonical_key, decode,
                    fresh_genotype, repair, sample_random, split_renumbering)

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
    """Assign 0-based non-domination ranks and per-front crowding distances."""
    if not pop:
        return []
    f = np.array([[ind.f1, ind.f2] for ind in pop])
    leq = (f[:, None, :] <= f[None, :, :]).all(axis=2)
    lt = (f[:, None, :] < f[None, :, :]).any(axis=2)
    dominates = leq & lt
    unassigned = np.ones(len(pop), dtype=bool)
    fronts: list[list[Individual]] = []
    rank = 0
    while unassigned.any():
        blocked = (dominates & unassigned[:, None]).any(axis=0)
        current = unassigned & ~blocked
        members = [pop[i] for i in np.nonzero(current)[0]]
        for ind in members:
            ind.rank = rank
        fronts.append(members)
        unassigned &= ~current
        rank += 1
    for front in fronts:
        _crowding(front)
    return fronts


def _crowding(front: list[Individual]) -> None:
    for ind in front:
        ind.crowding = 0.0
    n = len(front)
    if n <= 2:
        for ind in front:
            ind.crowding = math.inf
        return
    for attr in ("f1", "f2"):
        values = np.array([getattr(ind, attr) for ind in front])
        order = np.argsort(values, kind="stable")
        front[order[0]].crowding = math.inf
        front[order[-1]].crowding = math.inf
        span = values[order[-1]] - values[order[0]]
        if span <= 0:
            continue
        for j in range(1, n - 1):
            ind = front[order[j]]
            if not math.isinf(ind.crowding):
                ind.crowding += (values[order[j + 1]] - values[order[j - 1]]) / span


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
    """Cumulative heat and occurrence count per (dimension, candidate)."""

    def __init__(self):
        self.heat: dict[tuple[int, int], float] = defaultdict(float)
        self.count: dict[tuple[int, int], int] = defaultdict(int)

    def update(self, pop: list[Individual]) -> None:
        """Accumulate each individual's weight onto its repaired genes."""
        for ind in pop:
            for i, gene in enumerate(ind.genotype.genes):
                if gene != PLACEHOLDER:
                    player = (i + 1, gene)
                    self.heat[player] += ind.weight
                    self.count[player] += 1

    def split_bin(self, dim: int, new: list[int], split: frozenset[int]) -> None:
        """Move the players of ``dim`` to its bins after a refinement.

        ``new`` and ``split`` come from ``space.split_renumbering``. A split
        bin's heat is halved onto both children and its count divided
        between them.
        """
        for table, halves in ((self.heat, lambda h: (h / 2.0, h / 2.0)),
                              (self.count, lambda c: (c // 2, c - c // 2))):
            old = {j: table.pop((d, j)) for d, j in list(table) if d == dim}
            for j, value in old.items():
                if j in split:
                    table[(dim, new[j])], table[(dim, new[j] + 1)] = halves(value)
                else:
                    table[(dim, new[j])] = value


@dataclass(frozen=True)
class Partition:
    hot: tuple[int, ...]
    normal: tuple[int, ...]
    cold: tuple[int, ...]

    @cached_property
    def non_hot(self) -> tuple[int, ...]:
        return tuple(sorted(self.normal + self.cold))

    @cached_property
    def non_hot_is_cold(self) -> np.ndarray:
        return np.isin(self.non_hot, self.cold)


def partition_players(archives: PlayerArchives, dim: int, n_candidates: int,
                      hot_fraction: float, cold_fraction: float) -> Partition:
    """Split a dimension's candidates into hot / normal / cold pools.

    Hot is the top share by heat, cold the bottom share by count among the
    remainder; ties always break toward the lower candidate index.
    """
    heat = [archives.heat.get((dim, a), 0.0) for a in range(n_candidates)]
    count = [archives.count.get((dim, a), 0) for a in range(n_candidates)]
    n_hot = min(n_candidates, math.ceil(hot_fraction * n_candidates))
    by_heat = sorted(range(n_candidates), key=lambda a: (-heat[a], a))
    hot = tuple(sorted(by_heat[:n_hot]))
    rest = [a for a in range(n_candidates) if a not in hot]
    n_cold = min(len(rest), math.ceil(cold_fraction * n_candidates))
    by_count = sorted(rest, key=lambda a: (count[a], a))
    cold = tuple(sorted(by_count[:n_cold]))
    normal = tuple(a for a in rest if a not in cold)
    return Partition(hot=hot, normal=normal, cold=cold)


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
    weights = np.where(partition.non_hot_is_cold, cold_bonus, 1.0)
    weights /= weights.sum()
    return int(members[rng.choice(len(members), p=weights)])


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
    """Elitist truncation: fill by rank, split the last front by crowding."""
    fronts = nd_sort_and_crowd(union)
    selected: list[Individual] = []
    for front in fronts:
        if len(selected) + len(front) <= n:
            selected.extend(front)
        else:
            room = n - len(selected)
            order = sorted(range(len(front)),
                           key=lambda i: (-front[i].crowding, i))
            selected.extend(front[i] for i in sorted(order[:room]))
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
        self.archives = PlayerArchives()
        self.monitor = EarlyStopMonitor(params)
        self.dims = len(self.space)
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
            evaluations = evaluator.evaluate_many(decoded)
        else:
            evaluations = [evaluator(dec) for dec in decoded]
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

    def _tournament(self) -> Individual:
        i, j = self.rng.integers(len(self.population), size=2)
        a, b = self.population[int(i)], self.population[int(j)]
        if a.rank != b.rank:
            return a if a.rank < b.rank else b
        if a.crowding != b.crowding:
            return a if a.crowding > b.crowding else b
        return a

    def _sbx_child(self, p1: Genotype, p2: Genotype) -> Genotype:
        """One child from SBX on continuous dims plus uniform discrete swaps."""
        params = self.params
        genes1, genes2 = list(p1.genes), list(p2.genes)
        frozen1, frozen2 = list(p1.frozen), list(p2.frozen)
        child_genes = list(genes1)
        child_frozen = list(frozen1)
        crossed = self.rng.random() < params.crossover_prob
        for i, var in enumerate(self.space.variables):
            g1, g2 = genes1[i], genes2[i]
            if not crossed:
                continue
            if var.is_continuous and g1 != PLACEHOLDER and g2 != PLACEHOLDER:
                lo, hi, reps = self.state.scale_grid(var.index)
                v1, v2 = reps[g1], reps[g2]
                u = self.rng.random()
                if u <= 0.5:
                    beta = (2.0 * u) ** (1.0 / (params.sbx_eta + 1.0))
                else:
                    beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (params.sbx_eta + 1.0))
                c1 = 0.5 * ((1.0 + beta) * v1 + (1.0 - beta) * v2)
                c2 = 0.5 * ((1.0 - beta) * v1 + (1.0 + beta) * v2)
                value = c1 if self.rng.random() < 0.5 else c2
                value = min(max(value, lo), hi)
                child_genes[i] = int(np.argmin(np.abs(reps - value)))
                child_frozen[i] = child_genes[i]
            else:
                if self.rng.random() < 0.5:
                    child_genes[i] = g2
                    child_frozen[i] = frozen2[i]
        return Genotype(genes=tuple(child_genes), frozen=tuple(child_frozen))

    def _mutate(self, genotype: Genotype) -> Genotype:
        params = self.params
        if self.rng.random() >= params.mutation_prob:
            return genotype
        genes = list(genotype.genes)
        frozen = list(genotype.frozen)
        rate = 1.0 / self.dims
        changed = 0
        for i, var in enumerate(self.space.variables):
            if changed >= self.max_mutated:
                break
            if genes[i] == PLACEHOLDER or self.rng.random() >= rate:
                continue
            if var.is_continuous:
                new = self._polynomial_step(var.index, genes[i])
            else:
                new = int(self.rng.integers(len(var.candidates)))
            if new != genes[i]:
                genes[i] = new
                frozen[i] = new
                changed += 1
        return Genotype(genes=tuple(genes), frozen=tuple(frozen))

    def _polynomial_step(self, index: int, gene: int) -> int:
        eta = self.params.mutation_eta
        lo, hi, reps = self.state.scale_grid(index)
        span = hi - lo
        if span <= 0:
            return gene
        x = reps[gene]
        u = self.rng.random()
        if u < 0.5:
            xy = 1.0 - (x - lo) / span
            delta = (2.0 * u + (1.0 - 2.0 * u) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0)) - 1.0
        else:
            xy = 1.0 - (hi - x) / span
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0))
        value = min(max(x + delta * span, lo), hi)
        return int(np.argmin(np.abs(reps - value)))

    def _variation_child(self) -> Genotype:
        p1 = self._tournament()
        p2 = self._tournament()
        child = self._sbx_child(p1.genotype, p2.genotype)
        return self._mutate(child)

    def _assemble_child(self, partitions: dict[int, Partition], pool: str) -> Genotype:
        params = self.params
        genes = []
        for var in self.space.variables:
            n_cand = self.state.choice_count(var)
            genes.append(sample_candidate(partitions[var.index], pool, n_cand,
                                          params.cold_bonus, self.rng))
        opposite = "nh" if pool == "hot" else "hot"
        changed = 0
        for i, var in enumerate(self.space.variables):
            if changed >= self.max_mutated:
                break
            if self.rng.random() < params.cross_pool_rate:
                n_cand = self.state.choice_count(var)
                new = sample_candidate(partitions[var.index], opposite, n_cand,
                                       params.cold_bonus, self.rng)
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
                                         self.state.choice_count(var),
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
        genes = [list(ind.genotype.genes) for ind in self.population]
        frozen = [list(ind.genotype.frozen) for ind in self.population]
        for dim in sorted({d for d, _ in splits}):
            new, split = split_renumbering(splits, dim, self.state.bin_count(dim))
            if self.use_archives:
                self.archives.split_bin(dim, new, split)
            pos = dim - 1
            for rows in (genes, frozen):
                turns = dict.fromkeys(split, 0)
                for row in rows:
                    j = row[pos]
                    if j == PLACEHOLDER:
                        continue
                    row[pos] = new[j]
                    if j in split:
                        # Members of a split bin sat on its split point;
                        # alternating them keeps both children populated.
                        row[pos] += turns[j] % 2
                        turns[j] += 1
        for ind, g, f in zip(self.population, genes, frozen):
            ind.genotype = Genotype(genes=tuple(g), frozen=tuple(f))

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, gen: int) -> list[Individual]:
        """Rank the population, log the generation and return its first front."""
        front = nd_sort_and_crowd(self.population)[0]
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
