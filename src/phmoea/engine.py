"""Budgeted bi-objective evolutionary search engine.

The engine couples NSGA-II machinery (fast non-dominated sorting, crowding,
elitist truncation, SBX/polynomial variation) with three additions: player
archives that accumulate stage-weighted credit per (dimension, candidate) and
drive stratified hot/non-hot offspring assembly, adaptive bin refinement of
continuous dimensions, and duplicate rejection of every candidate admitted to
evaluation. A plain NSGA-II baseline mode disables the archive machinery but
keeps the identical encoding, repair, deduplication and selection path.

Per-generation scratch is passed, not stored: ``archive_weights`` turns the
ranked population into one credit per individual for ``PlayerArchives.update``,
``partition_players`` builds one ``Partition`` per dimension, listed by
position, and ``should_stop`` reads the front means from the run's
``HistoryRow`` series. An ``Individual`` carries only its genotype, evaluated
configuration (whose ``key`` it reads), objectives, rank and crowding.

Everything is deterministic for a fixed seed: a single RNG drives sampling
and variation, evaluation consumes no randomness, and all ties break by
index.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby

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
        if [len(ratios) for ratios in self.stage_ratios] != [3, 3, 3]:
            raise ValueError(f"stage_ratios must be three triples, got {self.stage_ratios}")
        for ratios in self.stage_ratios:
            if abs(sum(ratios) - 1.0) > 1e-9:
                raise ValueError("each stage ratio triple must sum to 1")
        for rule, holds, names in (
                ("in [0, 1]", lambda v: 0 <= v <= 1,
                 ("error_weight", "hot_fraction", "cold_fraction", "cross_pool_rate",
                  "crossover_prob", "mutation_prob")),
                ("positive", lambda v: v > 0, ("cold_bonus", "refine_mass", "eps_denom")),
                ("non-negative", lambda v: v >= 0,
                 ("sbx_eta", "mutation_eta", "eps_f1", "eps_f2", "eps_hv")),
                ("at least 1", lambda v: v >= 1,
                 ("initial_bins", "n_trial", "refine_persistence", "window",
                  "max_mutated"))):
            for name in names:
                if not holds(getattr(self, name)):      # nan holds nothing
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class Individual:
    """An evaluated candidate; ``decoded`` is the configuration f1/f2 were measured on."""

    genotype: Genotype
    decoded: DecodedConfig
    f1: float
    f2: float
    rank: int = 0
    crowding: float = 0.0

    @property
    def key(self) -> int:
        return self.decoded.key


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


@dataclass
class RunResult:
    pareto: list[Individual]
    population: list[Individual]
    history: list[HistoryRow]
    stopped_early: bool
    evaluated_keys: list[int]
    skipped_errors: int = 0

    @property
    def fes(self) -> int:
        """Function evaluations: every dispatched candidate counts once."""
        return len(self.evaluated_keys)

    @property
    def generations(self) -> int:
        return len(self.history)


# ---------------------------------------------------------------------------
# Ranking, crowding, archive weights
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


def min_max(values: list[float]) -> list[float]:
    """Min-max scale over the finite values; an infinite value maps to 1."""
    finite = [v for v in values if math.isfinite(v)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 0.0
    return [(v - lo) / (hi - lo + NORM_EPS) if math.isfinite(v) else 1.0
            for v in values]


def archive_weights(pop: list[Individual], phi: float, params: SearchParams) -> list[float]:
    """Each ranked individual's share of this generation's archive credit.

    Objectives and crowding are min-max scaled within the generation. The
    early stage scores rank and diversity, the late stage the blended scaled
    objectives plus a small crowding bonus, and the middle stage interpolates
    linearly between the two. Scores are divided by their sum (uniform if it
    is not positive).
    """
    k1, k2 = params.stage_early_end, params.stage_late_start
    scores = []
    for ind, n1, n2, c in zip(pop, min_max([ind.f1 for ind in pop]),
                              min_max([ind.f2 for ind in pop]),
                              min_max([ind.crowding for ind in pop])):
        s = 1.0 / (1.0 + ind.rank) + params.crowding_bonus * c
        g = params.error_weight * n1 + (1.0 - params.error_weight) * n2
        if phi < k1:
            scores.append(s)
        elif phi < k2:
            alpha = (k2 - phi) / (k2 - k1)
            scores.append(alpha * s + (1.0 - alpha) * g)
        else:
            scores.append(g + params.late_crowding_bonus * c)
    total = sum(scores)
    if total <= 0:
        return [1.0 / len(pop)] * len(pop)
    return [score / total for score in scores]


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

    def update(self, genes: list[tuple[int, ...]], weights: list[float]) -> None:
        """Accumulate each row's weight onto its repaired genes.

        ``np.add.at`` adds in row order, so every player's heat is the same
        float sum as one-by-one accumulation.
        """
        genes, weights = np.array(genes), np.array(weights)
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
    """One dimension's hot and non-hot pools as sorted candidate indices.

    ``cdf`` is the CDF over ``non_hot`` of the weights that give its cold
    members the cold bonus, built as ``Generator.choice`` builds it from
    ``p``: normalise, cumsum, divide by the last element.
    """

    hot: tuple[int, ...]
    non_hot: tuple[int, ...]
    cdf: list[float]


def partition_players(archives: PlayerArchives, dim: int, hot_fraction: float,
                      cold_fraction: float, cold_bonus: float) -> Partition:
    """Split a dimension's candidates into hot and non-hot pools.

    Hot is the top share by heat; the rest is non-hot, where the cold share,
    the bottom by count, is weighted by ``cold_bonus``. Ties always break
    toward the lower candidate index.
    """
    heat, count = archives.heat[dim - 1], archives.count[dim - 1]
    n = len(heat)
    n_hot, n_cold = math.ceil(hot_fraction * n), math.ceil(cold_fraction * n)
    by_heat = np.argsort(-heat, kind="stable")
    rest = np.sort(by_heat[n_hot:])
    by_count = rest[np.argsort(count[rest], kind="stable")]
    weights = np.ones(n)
    weights[by_count[:n_cold]] = cold_bonus
    cdf = (weights[rest] / weights[rest].sum()).cumsum()
    return Partition(hot=tuple(sorted(by_heat[:n_hot].tolist())),
                     non_hot=tuple(rest.tolist()),
                     cdf=(cdf / cdf[-1]).tolist() if len(rest) else [])


def sample_candidate(partition: Partition, pool: str, n_candidates: int,
                     rng: np.random.Generator) -> int:
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
    return members[bisect_right(partition.cdf, rng.random())]


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------

def should_stop(history: list[HistoryRow], stop_hv: list[float],
                params: SearchParams) -> bool:
    """Windowed relative-improvement stagnation test.

    Compares the last generation with the one ``params.window`` before it:
    stops only when the front means of f1 and f2 fell by less than
    ``eps_f1``/``eps_f2`` and the hypervolume ``stop_hv`` rose by less than
    ``eps_hv``, each as a share of its old value (at least ``eps_denom``).
    """
    if len(history) <= params.window:
        return False
    old, new = history[-1 - params.window], history[-1]
    old_hv, new_hv = stop_hv[-1 - params.window], stop_hv[-1]

    def share(change: float, old_value: float) -> float:
        return max(0.0, change) / max(abs(old_value), params.eps_denom)

    return (share(old.mean_f1 - new.mean_f1, old.mean_f1) < params.eps_f1
            and share(old.mean_f2 - new.mean_f2, old.mean_f2) < params.eps_f2
            and share(new_hv - old_hv, old_hv) < params.eps_hv)


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
        # early stop's hv series (kept only with early_stop on), against a
        # reference fixed by the initial population; ``HistoryRow.hv`` uses it
        # too unless the problem brings its own
        self.reference: tuple[float, float] | None = None
        self.stop_hv: list[float] = []
        self.dims = len(self.space)
        self.continuous = [v.index - 1 for v in self.space.variables if v.is_continuous]
        self.max_mutated = min(params.max_mutated, self.dims)
        self.evaluated_keys: list[int] = []
        self.skipped_errors = 0
        self.history: list[HistoryRow] = []
        self.population: list[Individual] = []

    # -- evaluation barrier -------------------------------------------------

    def _evaluate(self, batch: list[tuple[Genotype, DecodedConfig]]) -> list[Individual]:
        decoded = [dec for _, dec in batch]
        evaluator = self.problem.evaluator
        if hasattr(evaluator, "evaluate_many"):
            try:
                evaluations = evaluator.evaluate_many(decoded)
                if len(evaluations) != len(decoded):
                    raise ValueError(f"evaluate_many returned {len(evaluations)} "
                                     f"results for {len(decoded)} candidates")
            except Exception as exc:    # no candidate can be blamed: the batch fails
                evaluations = [failed_evaluation(dec, exc) for dec in decoded]
        else:
            evaluations = [evaluate_safely(evaluator, dec) for dec in decoded]
        out = []
        for (genotype, dec), ev in zip(batch, evaluations):
            self.evaluated_keys.append(dec.key)
            if isinstance(ev, Evaluation) and ev.ok and \
                    math.isfinite(ev.f1) and math.isfinite(ev.f2):
                out.append(Individual(genotype=genotype, decoded=dec,
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

    def _assemble_child(self, parts: list[Partition], pool: str) -> Genotype:
        """One gene per dimension from ``pool``, then cross-pool swaps. The first
        pass draws once for all dimensions what ``sample_candidate`` draws per one."""
        counts = self.state.counts
        if pool == "hot":
            picks = self.rng.integers(0, [len(p.hot) or n for p, n in zip(parts, counts)])
            genes = [p.hot[k] if p.hot else k for p, k in zip(parts, picks.tolist())]
        elif all(p.non_hot for p in parts):
            genes = [p.non_hot[bisect_right(p.cdf, u)]
                     for p, u in zip(parts, self.rng.random(self.dims).tolist())]
        else:
            genes = [sample_candidate(p, pool, n, self.rng) for p, n in zip(parts, counts)]
        opposite = "nh" if pool == "hot" else "hot"
        changed = 0
        for i, n in enumerate(counts):
            if changed >= self.max_mutated:
                break
            if self.rng.random() < self.params.cross_pool_rate:
                new = sample_candidate(parts[i], opposite, n, self.rng)
                if new != genes[i]:
                    genes[i] = new
                    changed += 1
        return fresh_genotype(genes)

    def _admit(self, genotype: Genotype) -> tuple[Genotype, DecodedConfig] | None:
        g = repair(genotype, self.space, self.state)
        dec = decode(g, self.state)
        if self.registry.admit(canonical_key(dec)):
            return (g, dec)
        return None

    def _fill_slots(self, n_slots: int, make) -> list[tuple[Genotype, DecodedConfig]]:
        out = []
        for _ in range(n_slots):
            for _ in range(self.params.n_trial):
                admitted = self._admit(make())
                if admitted is not None:
                    out.append(admitted)
                    break
        return out

    def _generate_offspring(self, phi: float) -> list[tuple[Genotype, DecodedConfig]]:
        n = self.pop_size
        if not self.use_archives:
            return self._fill_slots(n, self._variation_child)
        params, pop = self.params, self.population
        self.archives.update([ind.genotype.genes for ind in pop],
                             archive_weights(pop, phi, params))
        parts = [partition_players(self.archives, var.index, params.hot_fraction,
                                   params.cold_fraction, params.cold_bonus)
                 for var in self.space.variables]
        r_par, r_hot, _ = stage_ratios(phi, params)
        n_par = math.floor(r_par * n + 1e-9)
        n_hot = math.floor(r_hot * n + 1e-9)
        n_nh = n - n_par - n_hot
        batch = self._fill_slots(n_par, self._variation_child)
        batch += self._fill_slots(n_hot, lambda: self._assemble_child(parts, "hot"))
        batch += self._fill_slots(n_nh, lambda: self._assemble_child(parts, "nh"))
        return batch

    # -- refinement ---------------------------------------------------------

    def _refine(self, front: list[Individual]) -> None:
        self.state.update([ind.genotype.genes for ind in front])
        splits = self.state.refine()
        if not splits:
            return
        # one column per dimension; only the split dimensions' are renumbered
        genes = list(zip(*(ind.genotype.genes for ind in self.population)))
        frozen = list(zip(*(ind.genotype.frozen for ind in self.population)))
        for dim, group in groupby(splits, key=lambda s: s[0]):   # refine sorts by dim
            split = [k for _, k in group]
            if self.use_archives:
                self.archives.split_bin(dim, np.array(split))
            for columns in (genes, frozen):
                columns[dim - 1] = split_renumbering(columns[dim - 1], split)
        for ind, g, f in zip(self.population, zip(*genes), zip(*frozen)):
            ind.genotype = Genotype(genes=g, frozen=f)

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, gen: int) -> list[Individual]:
        """Log the ranked population's generation and return its first front."""
        front = [ind for ind in self.population if ind.rank == 0]
        pts = [(ind.f1, ind.f2) for ind in front]
        hv_value = metrics.hv(pts, self.problem.hv_reference or self.reference)
        if self.params.early_stop:
            self.stop_hv.append(hv_value if self.problem.hv_reference is None
                                else metrics.hv(pts, self.reference))
        igd_value = None
        if self.problem.reference_front is not None:
            igd_value = metrics.igd(pts, self.problem.reference_front)
        self.history.append(HistoryRow(
            gen=gen, fes=len(self.evaluated_keys),
            mean_f1=sum(ind.f1 for ind in front) / len(front),
            mean_f2=sum(ind.f2 for ind in front) / len(front),
            hv=hv_value, igd=igd_value))
        return front

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        init = self._fill_slots(self.pop_size,
                                lambda: sample_random(self.space, self.state, self.rng))
        self.population = self._evaluate(init)
        if len(self.population) < 2:
            raise RuntimeError("initial population collapsed; evaluator keeps failing")
        self.reference = (1.1 * max(ind.f1 for ind in self.population),
                          1.1 * max(ind.f2 for ind in self.population))
        nd_sort_and_crowd(self.population)
        front = self._record(gen=1)

        stopped_early = False
        for gen in range(2, self.generations + 1):
            phi = (gen - 1) / self.generations
            if self.params.early_stop and should_stop(self.history, self.stop_hv, self.params):
                stopped_early = True
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
                         history=self.history, stopped_early=stopped_early,
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
