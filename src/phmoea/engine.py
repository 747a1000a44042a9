"""Budgeted bi-objective evolutionary search engine.

The engine couples NSGA-II machinery (fast non-dominated sorting, crowding,
elitist truncation, SBX/polynomial variation) with three additions: player
archives that accumulate stage-weighted credit per (dimension, candidate) and
drive stratified hot/non-hot offspring assembly, adaptive bin refinement of
continuous dimensions, and duplicate rejection of every candidate admitted to
evaluation. A plain NSGA-II baseline mode disables the archive machinery but
keeps the identical encoding, repair, deduplication and selection path.

A run is ``_Run._start()``, which evaluates, ranks and records the initial
population, then one ``_Run.step()`` per generation: refine on the first front,
breed, evaluate, select, record. Per-generation scratch is passed, not stored:
``archive_weights`` turns the ranked population into one credit per individual
for ``PlayerArchives.update``, ``partition_players`` builds one ``Partition``
per dimension, listed by position, and ``should_stop`` reads the front means
from the run's ``HistoryRow`` series. An ``Individual`` carries only its
kept genes, evaluated configuration, objectives, rank and crowding; the
archives and the refinement count a member's kept gene only where its
configuration's value is not None.

Everything is deterministic for a fixed seed: one ``WordStream`` drives
sampling and variation (the hot loops inline its double and call ``below``),
evaluation consumes no randomness, float sums run in order on every Python,
and ties break by index.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import reduce
from itertools import groupby
from operator import add, index

import numpy as np

from . import metrics
from .evaluators import Evaluation, evaluate_safely, failed_evaluation
from .rng import WordStream
# canonical_key stays importable here for perfbench/tracing.py
from .space import (ConfigSpace, DecodedConfig, DedupRegistry, RefinementState,
                    canonical_key, decode, nearest_index, repair, sample_random, split_renumbering)

NORM_EPS = 1e-12


def _count(name: str, value) -> int:
    """``value`` as an int if it is an integer (numpy's too) other than a bool."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return index(value)


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
        for name in ("initial_bins", "n_trial", "refine_persistence", "window", "max_mutated"):
            _count(name, getattr(self, name))
        if not isinstance(self.early_stop, bool):
            raise ValueError(f"early_stop must be a bool, got {self.early_stop!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0 <= self.stage_early_end < self.stage_late_start <= 1:
            raise ValueError("stage thresholds must satisfy 0 <= early < late <= 1")
        if [len(ratios) for ratios in self.stage_ratios] != [3, 3, 3]:
            raise ValueError(f"stage_ratios must be three triples, got {self.stage_ratios}")
        for ratios in self.stage_ratios:
            if not all(0 <= r <= 1 for r in ratios):     # nan is in no range
                raise ValueError(f"stage_ratios must be in [0, 1] entrywise, got {ratios}")
            if abs(sum(ratios) - 1.0) > 1e-9:
                raise ValueError("each stage ratio triple must sum to 1")
        for rule, holds, names in (
                ("in [0, 1]", lambda v: 0 <= v <= 1,
                 ("error_weight", "hot_fraction", "cold_fraction", "cross_pool_rate",
                  "crossover_prob", "mutation_prob")),
                ("positive", lambda v: v > 0, ("cold_bonus", "refine_mass", "eps_denom")),
                ("non-negative", lambda v: v >= 0,
                 ("crowding_bonus", "late_crowding_bonus", "sbx_eta", "mutation_eta",
                  "eps_f1", "eps_f2", "eps_hv")),
                ("at least 1", lambda v: v >= 1,
                 ("initial_bins", "n_trial", "refine_persistence", "window",
                  "max_mutated"))):
            for name in names:
                if not holds(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class Individual:
    """An evaluated candidate; ``decoded`` is the configuration f1/f2 were measured on."""

    kept: tuple[int, ...]
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
    evaluator: object                       # DecodedConfig -> Evaluation holding it
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
    evaluated_keys: list[tuple]             # admitted decoded value tuples
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
    total = reduce(add, scores, 0.0)    # in order: builtin sum compensates floats from 3.12
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
    of the dimension at ``pos``; ``sizes`` gives their initial lengths.
    """

    def __init__(self, sizes: list[int]):
        self.heat = [np.zeros(n) for n in sizes]
        self.count = [np.zeros(n, dtype=np.int64) for n in sizes]

    def update(self, members: list[tuple[tuple[int, ...], tuple]],
               weights: list[float]) -> None:
        """Accumulate each member's weight onto its kept genes, given its
        ``(kept, values)`` pair; a dimension whose value is None gets nothing.

        ``np.add.at`` adds in member order, so every player's heat is the same
        float sum as one-by-one accumulation.
        """
        kept = np.array([k for k, _ in members])
        active = np.array([[v is not None for v in values] for _, values in members])
        weights = np.array(weights)
        for pos, (column, on) in enumerate(zip(kept.T, active.T)):
            np.add.at(self.heat[pos], column[on], weights[on])
            np.add.at(self.count[pos], column[on], 1)

    def split_bin(self, pos: int, split: np.ndarray) -> None:
        """Split the old bins ``split`` (sorted) of ``pos`` after a refinement.

        A split bin's heat is halved onto both children; its left child keeps
        ``c // 2`` of the count and the right child, inserted after it, the
        rest.
        """
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


def partition_players(archives: PlayerArchives, pos: int, hot_fraction: float,
                      cold_fraction: float, cold_bonus: float) -> Partition:
    """Split a dimension's candidates into hot and non-hot pools.

    Hot is the top share by heat; the rest is non-hot, where the cold share,
    the bottom by count, is weighted by ``cold_bonus``. Ties always break
    toward the lower candidate index.
    """
    heat, count = archives.heat[pos], archives.count[pos]
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


def sample_candidate(partition: Partition, pool: str, stream: WordStream) -> int:
    """Draw one candidate from the hot or non-hot pool.

    Hot sampling is uniform; non-hot applies the cold-bonus weight and
    renormalizes. An empty pool draws uniformly from its partner, which then
    holds every candidate in order.
    """
    if pool == "hot" or not partition.non_hot:
        members = partition.hot or partition.non_hot
        return members[stream.below(len(members))]
    return partition.non_hot[bisect_right(partition.cdf, (stream.word() >> 11) * 2**-53)]


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
            # sorted is stable: equal crowding keeps front order
            order = sorted(range(len(front)), key=lambda i: -front[i].crowding)
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
        if _count("pop_size", pop_size) < 2:
            raise ValueError("population size must be at least 2")
        if _count("generations", generations) < 1:
            raise ValueError("need at least one generation")
        params.validate()
        self.problem = problem
        self.space = problem.space
        self.pop_size = pop_size
        self.generations = generations
        self.params = params
        self.use_archives = use_archives
        self.rng = WordStream(seed)
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
        self.skipped_errors = 0
        self.stopped_early = False
        self.history: list[HistoryRow] = []
        self.population: list[Individual] = []

    # -- evaluation barrier -------------------------------------------------

    def _evaluate(self, batch: list[tuple[tuple[int, ...], DecodedConfig]]) -> list[Individual]:
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
        for (kept, dec), ev in zip(batch, evaluations):
            if isinstance(ev, Evaluation) and ev.ok and \
                    math.isfinite(ev.f1) and math.isfinite(ev.f2):
                out.append(Individual(kept=kept, decoded=dec,
                                      f1=float(ev.f1), f2=float(ev.f2)))
            else:
                self.skipped_errors += 1
        return out

    # -- offspring construction ---------------------------------------------

    def _sbx_child(self, p1: Individual, p2: Individual) -> tuple[list, list[int]]:
        """One child's inherited decoded values and kept genes from SBX on
        continuous dims plus uniform discrete swaps; without crossover, ``p1``'s.

        After the crossover draw come, in order, ``u`` and the side per SBX
        dimension and one swap draw per other dimension.
        """
        params = self.params
        word = self.rng.word
        values, child = list(p1.decoded.values), list(p1.kept)
        if (word() >> 11) * 2**-53 >= params.crossover_prob:
            return values, child
        power = 1.0 / (params.sbx_eta + 1.0)
        for i, (grid, x1, x2, g1, g2) in enumerate(zip(self.state.grids, p1.decoded.values,
                                                       p2.decoded.values, p1.kept, p2.kept)):
            if grid is not None and x1 is not None and x2 is not None:
                lo, hi, mids = grid
                v1, v2 = mids[g1], mids[g2]
                u = (word() >> 11) * 2**-53
                if u <= 0.5:
                    beta = (2.0 * u) ** power
                else:
                    beta = (1.0 / (2.0 * (1.0 - u))) ** power
                c1 = 0.5 * ((1.0 + beta) * v1 + (1.0 - beta) * v2)
                c2 = 0.5 * ((1.0 - beta) * v1 + (1.0 + beta) * v2)
                value = c1 if (word() >> 11) * 2**-53 < 0.5 else c2
                value = lo if value < lo else hi if value > hi else value
                child[i] = nearest_index(mids, value)
            elif (word() >> 11) * 2**-53 < 0.5:
                values[i], child[i] = x2, g2
        return values, child

    def _mutate(self, values: list, kept: list[int]) -> None:
        """Polynomial or uniform mutation of a child's kept genes, in place;
        only dimensions whose inherited value is not None may mutate."""
        if (self.rng.word() >> 11) * 2**-53 >= self.params.mutation_prob:
            return
        grids, counts, below = self.state.grids, self.state.counts, self.rng.below
        self._edit_dims(kept, values, 1.0 / len(kept),
                        lambda i: below(counts[i]) if grids[i] is None
                        else self._polynomial_step(grids[i], kept[i]))

    def _edit_dims(self, vector: list[int], gate: list, rate: float, draw) -> None:
        """Capped edits of ``vector`` in place, in dimension order: a dimension whose
        ``gate`` entry is None draws nothing, any other takes ``draw(i)`` on a double
        below ``rate``; ``max_mutated`` changed values end the loop."""
        word, cap = self.rng.word, self.params.max_mutated
        changed = 0
        for i, g in enumerate(gate):
            if changed >= cap:
                break
            if g is None or (word() >> 11) * 2**-53 >= rate:
                continue
            new = draw(i)
            if new != vector[i]:
                vector[i] = new
                changed += 1

    def _polynomial_step(self, grid: tuple[float, float, list[float]], gene: int) -> int:
        eta = self.params.mutation_eta
        lo, hi, mids = grid
        span = hi - lo
        if span <= 0:
            return gene
        x = mids[gene]
        u = (self.rng.word() >> 11) * 2**-53
        if u < 0.5:
            xy = 1.0 - (x - lo) / span
            delta = (2.0 * u + (1.0 - 2.0 * u) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0)) - 1.0
        else:
            xy = 1.0 - (hi - x) / span
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta + 1.0)) ** (1.0 / (eta + 1.0))
        value = min(max(x + delta * span, lo), hi)
        return nearest_index(mids, value)

    def _variation_child(self) -> list[int]:
        pop, below = self.population, self.rng.below
        n = len(pop)
        a, b, c, d = pop[below(n)], pop[below(n)], pop[below(n)], pop[below(n)]
        # crowded comparison: lower rank, then larger crowding; a tie keeps the first
        p1 = a if (a.rank, -a.crowding) <= (b.rank, -b.crowding) else b
        p2 = c if (c.rank, -c.crowding) <= (d.rank, -d.crowding) else d
        values, kept = self._sbx_child(p1, p2)
        self._mutate(values, kept)
        return kept

    def _assemble_child(self, parts: list[Partition], pool: str) -> list[int]:
        """One gene per dimension from ``pool``, then capped cross-pool swaps."""
        rng = self.rng
        genes = [sample_candidate(p, pool, rng) for p in parts]
        opposite = "nh" if pool == "hot" else "hot"
        self._edit_dims(genes, genes, self.params.cross_pool_rate,
                        lambda i: sample_candidate(parts[i], opposite, rng))
        return genes

    def _fill_slots(self, n_slots: int, make) -> list[tuple[tuple[int, ...], DecodedConfig]]:
        """Per slot, up to ``n_trial`` children until one decodes to values new to the run."""
        out = []
        for _ in range(n_slots):
            for _ in range(self.params.n_trial):
                kept = repair(make(), self.state)
                decoded = decode(kept, self.state)
                if self.registry.admit(decoded.values):
                    out.append((kept, decoded))
                    break
        return out

    def _generate_offspring(self, phi: float) -> list[tuple[tuple[int, ...], DecodedConfig]]:
        n = self.pop_size
        if not self.use_archives:
            return self._fill_slots(n, self._variation_child)
        params, pop = self.params, self.population
        self.archives.update([(ind.kept, ind.decoded.values) for ind in pop],
                             archive_weights(pop, phi, params))
        parts = [partition_players(self.archives, pos, params.hot_fraction,
                                   params.cold_fraction, params.cold_bonus)
                 for pos in range(len(self.space))]
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
        self.state.update([(ind.kept, ind.decoded.values) for ind in front])
        splits = self.state.refine()
        if not splits:
            return
        # a split renumbers the kept column of its dimension; no continuous
        # dimension is a parent, so every member's decoded values still hold
        kept = list(zip(*(ind.kept for ind in self.population)))
        for pos, group in groupby(splits, key=lambda s: s[0]):   # refine sorts by pos
            split = [k for _, k in group]
            if self.use_archives:
                self.archives.split_bin(pos, np.array(split))
            kept[pos] = split_renumbering(kept[pos], split)
        for ind, k in zip(self.population, zip(*kept)):
            ind.kept = k

    # -- bookkeeping ---------------------------------------------------------

    def _front(self) -> list[Individual]:
        return [ind for ind in self.population if ind.rank == 0]

    def _record(self, gen: int) -> None:
        """Log the ranked population's generation."""
        front = self._front()
        pts = [(ind.f1, ind.f2) for ind in front]
        hv_value = metrics.hv(pts, self.problem.hv_reference or self.reference)
        if self.params.early_stop:
            self.stop_hv.append(hv_value if self.problem.hv_reference is None
                                else metrics.hv(pts, self.reference))
        igd_value = None
        if self.problem.reference_front is not None:
            igd_value = metrics.igd(pts, self.problem.reference_front)
        self.history.append(HistoryRow(
            gen=gen, fes=len(self.registry.keys),
            mean_f1=reduce(add, (ind.f1 for ind in front), 0.0) / len(front),
            mean_f2=reduce(add, (ind.f2 for ind in front), 0.0) / len(front),
            hv=hv_value, igd=igd_value))

    # -- main loop ------------------------------------------------------------

    def _start(self) -> None:
        """Evaluate, rank and record the initial population as generation 1."""
        init = self._fill_slots(self.pop_size, lambda: sample_random(self.state, self.rng))
        self.population = self._evaluate(init)
        if len(self.population) < 2:
            raise RuntimeError(f"initial population collapsed: {len(init)} of {self.pop_size} "
                               f"slots admitted a candidate and {self.skipped_errors} "
                               f"evaluations failed")
        # beyond the initial worst point, also where it is not positive; finite for hv
        worst = (max(ind.f1 for ind in self.population), max(ind.f2 for ind in self.population))
        self.reference = tuple(min(1.1 * w, sys.float_info.max) if w > 0
                               else w + 0.1 * max(-w, 1.0) for w in worst)
        nd_sort_and_crowd(self.population)
        self._record(gen=1)

    def step(self) -> bool:
        """One generation; False, drawing nothing, once the budget or early stop ends the run."""
        gen = len(self.history) + 1
        if gen > self.generations or self.stopped_early:
            return False
        if self.params.early_stop and should_stop(self.history, self.stop_hv, self.params):
            self.stopped_early = True
            return False
        self._refine(self._front())
        children = self._evaluate(self._generate_offspring((gen - 1) / self.generations))
        self.population = environmental_select(self.population + children, self.pop_size)
        self._record(gen)
        return True

    def run(self) -> RunResult:
        self._start()
        while self.step():
            pass
        return self._result()

    def _result(self) -> RunResult:
        return RunResult(pareto=sorted(self._front(), key=lambda ind: (ind.f1, ind.f2, ind.key)),
                         population=self.population, history=self.history,
                         stopped_early=self.stopped_early,
                         evaluated_keys=list(self.registry.keys),
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
