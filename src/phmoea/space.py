"""Hierarchical conditional mixed configuration space.

A space is an ordered list of variables. Discrete variables carry a candidate
list; continuous variables carry a bounded range (linear or log scale) that is
discretized into bins so that every variable is searched through integer gene
indices. Conditional variables are active only when a parent discrete choice
takes one of their activating values; inactive variables are masked during
decoding and semantically frozen inside the genotype so their last valid value
survives deactivation.

The module also owns duplicate detection (canonical hashing of the active part
of the repaired genes, before decode) and the adaptive bin-refinement machinery
that splits intervals where non-dominated solutions persistently concentrate.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import cycle
from typing import NamedTuple

import numpy as np

from .resample import OPERATORS, POOL_TYPES

PLACEHOLDER = -1

DISCRETE = "discrete"
CONTINUOUS = "continuous"
COND_DISCRETE = "conditional-discrete"
COND_CONTINUOUS = "conditional-continuous"

_DISCRETE_KINDS = (DISCRETE, COND_DISCRETE)
_CONTINUOUS_KINDS = (CONTINUOUS, COND_CONTINUOUS)


@dataclass(frozen=True)
class VariableSpec:
    """One dimension of the configuration space.

    ``index`` is the 1-based dimension id. Discrete variables enumerate
    ``candidates``; continuous ones carry ``bounds`` plus a ``scale`` flag.
    Conditional variables hold ``parent = (parent_index, activating_values)``
    and are active only when the parent decodes to one of those values.
    """

    index: int
    name: str
    kind: str
    candidates: tuple = ()
    bounds: tuple[float, float] | None = None
    scale: str = "linear"
    parent: tuple[int, tuple] | None = None

    @property
    def is_continuous(self) -> bool:
        return self.kind in _CONTINUOUS_KINDS

    @property
    def is_conditional(self) -> bool:
        return self.parent is not None

    def validate(self) -> None:
        if self.kind not in _DISCRETE_KINDS + _CONTINUOUS_KINDS:
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")
        if self.is_continuous:
            if self.bounds is None:
                raise ValueError(f"{self.name}: continuous variable needs bounds")
            a, b = self.bounds
            if not a < b:
                raise ValueError(f"{self.name}: bounds must satisfy a < b")
            if self.scale == "log" and a <= 0:
                raise ValueError(f"{self.name}: log scale requires a positive lower bound")
            if self.scale not in ("linear", "log"):
                raise ValueError(f"{self.name}: unknown scale {self.scale!r}")
        else:
            if not self.candidates:
                raise ValueError(f"{self.name}: candidate list is empty")
            if len(set(self.candidates)) != len(self.candidates):
                raise ValueError(f"{self.name}: duplicate candidates")
        conditional = self.kind in (COND_DISCRETE, COND_CONTINUOUS)
        if conditional != self.is_conditional:
            raise ValueError(f"{self.name}: conditional kind and parent must agree")


@dataclass(frozen=True)
class ConfigSpace:
    """Ordered, validated collection of variables."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        by_index = {}
        for pos, var in enumerate(self.variables):
            var.validate()
            if var.index != pos + 1:
                raise ValueError(f"{var.name}: index {var.index} out of order")
            by_index[var.index] = var
        for var in self.variables:
            if var.parent is None:
                continue
            pidx, values = var.parent
            if pidx >= var.index:
                raise ValueError(f"{var.name}: parent must be earlier-indexed")
            parent = by_index.get(pidx)
            if parent is None or parent.kind not in _DISCRETE_KINDS:
                raise ValueError(f"{var.name}: parent must be a discrete dimension")
            for v in values:
                if v not in parent.candidates:
                    raise ValueError(f"{var.name}: activating value {v!r} not a parent candidate")

    def __len__(self) -> int:
        return len(self.variables)

    def variable(self, index: int) -> VariableSpec:
        """Look up a variable by its 1-based dimension id."""
        return self.variables[index - 1]

    def continuous_indices(self) -> tuple[int, ...]:
        return tuple(v.index for v in self.variables if v.is_continuous)

    @cached_property
    def gates(self) -> tuple[tuple[int, int, tuple[bool, ...]], ...]:
        """``(pos, parent_pos, activates)`` per conditional dimension, in order,
        where ``activates[c]`` says whether parent candidate ``c`` activates it."""
        out = []
        for pos, var in enumerate(self.variables):
            if var.parent is not None:
                pidx, values = var.parent
                out.append((pos, pidx - 1,
                            tuple(c in values for c in self.variable(pidx).candidates)))
        return tuple(out)


class Genotype(NamedTuple):
    """A repaired individual: what ``repair`` returns.

    ``frozen`` is the kept vector, an in-range gene for every dimension; an
    inactive dimension keeps its last valid gene there, so re-activating it
    restores that gene. ``genes`` is ``frozen`` with PLACEHOLDER on exactly
    the inactive dimensions, so ``repair(frozen) == self``.
    """

    genes: tuple[int, ...]
    frozen: tuple[int, ...]


_pack_pair = struct.Struct("<hi").pack


def canonical_key(genes: Sequence[int]) -> int:
    """64-bit key of the active part of a repaired gene sequence.

    The serialization is the ordered (dimension, gene) sequence over active
    dimensions (little-endian int16/int32 pairs), so genotypes that differ
    only in masked dimensions collide by construction and everything else
    separates with overwhelming probability.
    """
    payload = b"".join([_pack_pair(d, g) for d, g in enumerate(genes, 1)
                        if g != PLACEHOLDER])
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class DecodedConfig:
    """Executable configuration with an activity mask.

    ``values[d]`` is None for inactive dimensions. ``ids[d]`` keeps the gene
    index the value was decoded from (``PLACEHOLDER`` if inactive); canonical
    hashing uses the ids so that float formatting can never perturb duplicate
    detection. ``key`` is ``canonical_key(ids)``, computed at construction
    unless the caller already holds it; ``active`` is derived from ``ids`` on
    each read (caching it after construction would materialize a ``__dict__``
    per instance). Neither takes part in equality or hashing.
    """

    values: tuple
    ids: tuple[int, ...]
    key: int = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", canonical_key(self.ids))

    @property
    def active(self) -> tuple[bool, ...]:
        return tuple([g != PLACEHOLDER for g in self.ids])

    def as_dict(self, space: ConfigSpace) -> dict:
        """Name -> value mapping over active dimensions only."""
        return {var.name: value for var, value, g in zip(space.variables, self.values, self.ids)
                if g != PLACEHOLDER}


def _to_scale(value, scale: str):
    return np.log(value) if scale == "log" else value


def _from_scale(value, scale: str):
    return np.exp(value) if scale == "log" else value


def nearest_index(points: list[float], value: float) -> int:
    """Index of the sorted ``points`` entry closest to ``value``.

    Equals ``int(np.argmin(np.abs(np.array(points) - value)))``: rounded
    distances fall up to ``value`` and rise after it, so the minimum is at a
    neighbour of ``value``; on the left, runs of points closer together than
    ulp(value) tie, and the walk goes back to the run's first index.
    """
    j = bisect_left(points, value)
    if j == len(points) or (j > 0 and value - points[j - 1] <= points[j] - value):
        best = value - points[j - 1]
        j -= 1
        while j > 0 and value - points[j - 1] == best:
            j -= 1
    return j


class RefinementState:
    """Per-dimension interval partitions plus persistence counters.

    Breakpoints for each continuous dimension span its declared range and are
    uniform in the dimension's scale space initially. An interval whose share
    of the current non-dominated front exceeds ``mass_threshold`` for
    ``persistence`` consecutive updates is split at its scale-space midpoint.

    Tables by 0-based position, edited in place when a partition changes:
    ``counts`` (candidates or bins), ``values`` (candidates, or representatives
    in raw units) and ``grids`` (scale-space ``(lo, hi, midpoints)``, None if
    discrete). ``counters[index]`` maps a bin to its nonzero counter.
    """

    def __init__(self, space: ConfigSpace, initial_bins: int = 6,
                 mass_threshold: float = 0.5, persistence: int = 3):
        self.space = space
        self.mass_threshold = mass_threshold
        self.persistence = persistence
        self.counts = [len(var.candidates) for var in space.variables]
        self.values: list = [var.candidates for var in space.variables]
        self.grids: list = [None] * len(space)
        # breakpoints are in scale space; endpoints pin the range
        self._pts: dict[int, list[float]] = {}
        self.counters: dict[int, dict[int, int]] = {}
        for idx in space.continuous_indices():
            var, pos = space.variable(idx), idx - 1
            a, b = var.bounds
            pts = np.linspace(_to_scale(a, var.scale), _to_scale(b, var.scale),
                              initial_bins + 1)
            mids = 0.5 * (pts[:-1] + pts[1:])
            self._pts[idx] = pts.tolist()
            grid = mids.tolist()
            self.counts[pos] = initial_bins
            self.values[pos] = grid if var.scale == "linear" else np.exp(mids).tolist()
            self.grids[pos] = (float(pts[0]), float(pts[-1]), grid)
            self.counters[idx] = {}

    def breakpoints(self, index: int) -> np.ndarray:
        """Breakpoints of a dimension in its raw units."""
        var = self.space.variable(index)
        return _from_scale(np.array(self._pts[index]), var.scale)

    def bin_count(self, index: int) -> int:
        return len(self._pts[index]) - 1

    def update(self, front: list[tuple[int, ...]]) -> None:
        """Accumulate the bin masses of a non-dominated front's repaired genes.

        Counters increment where the bin mass exceeds the threshold and
        reset everywhere else. An empty front leaves the state unchanged.
        """
        if not front:
            return
        columns = list(zip(*front))
        size, threshold = len(front), self.mass_threshold
        self.counters = {idx: {k: counters.get(k, 0) + 1
                               for k, h in Counter(columns[idx - 1]).items()
                               if h / size > threshold and k != PLACEHOLDER}
                         for idx, counters in self.counters.items()}

    def refine(self) -> list[tuple[int, int]]:
        """Split every interval whose counter reached the persistence bar.

        Returns the (dimension, interval) pairs that were split, in order.
        Intervals too narrow for a representable midpoint are left alone.
        Every triggered counter resets; the others move with their bin.
        """
        splits = []
        for idx in sorted(self._pts):
            counters = self.counters[idx]
            triggered = {k for k, c in counters.items() if c >= self.persistence}
            if not triggered:
                continue
            pts, pos = self._pts[idx], idx - 1
            split = sorted(k for k in triggered
                           if pts[k] < 0.5 * (pts[k] + pts[k + 1]) < pts[k + 1])
            mids, values = self.grids[pos][2], self.values[pos]
            for k in reversed(split):       # from the right, so k still indexes the old bin
                mid = 0.5 * (pts[k] + pts[k + 1])
                pts.insert(k + 1, mid)
                left, right = 0.5 * (pts[k] + mid), 0.5 * (mid + pts[k + 2])
                mids[k] = left
                mids.insert(k + 1, right)
                if values is not mids:      # log scale: representatives in raw units
                    values[k:k + 1] = np.exp([left, right]).tolist()
            self.counts[pos] = len(mids)
            self.counters[idx] = {k + bisect_left(split, k): c for k, c in counters.items()
                                  if k not in triggered}
            splits += [(idx, k) for k in split]
        return splits


def split_renumbering(genes: Sequence[int], split: list[int]) -> list[int]:
    """One dimension's kept column renumbered after ``RefinementState.refine``.

    ``split`` holds the dimension's split bins, sorted, in old numbering.
    Each split dimension renumbers one kept column (``Genotype.frozen``), and
    the genes follow it. Every gene moves up by the number of split bins below
    it. Members of a split bin sat on its split point; they alternate left and
    right child in population order, which keeps both children populated.
    """
    side = {k: cycle((0, 1)) for k in split}
    return [g + bisect_left(split, g) + (next(side[g]) if g in side else 0) for g in genes]


def activity(genes: tuple[int, ...], space: ConfigSpace) -> tuple[bool, ...]:
    """Activity bit per dimension, resolved in dependency (index) order."""
    active = [True] * len(space)
    for pos, ppos, activates in space.gates:
        g = genes[ppos]
        active[pos] = active[ppos] and 0 <= g < len(activates) and activates[g]
    return tuple(active)


def decode(genotype: Genotype, state: RefinementState, key: int | None = None) -> DecodedConfig:
    """Map a repaired genotype to its executable configuration.

    The genotype must come from ``repair`` or ``sample_random``, so its genes
    are in range and ``PLACEHOLDER`` marks exactly the inactive dimensions.
    Those decode to None; active continuous dimensions map their bin index to
    the current partition's representative value. ``key``, if given, is the
    genes' ``canonical_key``.
    """
    genes = genotype.genes
    return DecodedConfig(
        values=tuple([None if g == PLACEHOLDER else values[g]
                      for g, values in zip(genes, state.values)]),
        ids=genes, key=key)


def repair(kept: Sequence[int], space: ConfigSpace, state: RefinementState) -> Genotype:
    """Clip and freeze one full gene vector so the genotype is always executable.

    Out-of-range indices are clipped into the current candidate/bin counts;
    the clipped vector is kept as ``frozen``. Dimensions deactivated by their
    parent take the placeholder in ``genes``. Repair is total and idempotent
    (``repair(g.frozen) == g``); the placeholder marks exactly the inactive
    dimensions.
    """
    counts = state.counts
    if min(kept, default=0) < 0 or not all(map(operator.lt, kept, counts)):
        kept = [min(max(g, 0), n - 1) for g, n in zip(kept, counts)]
    # gates run in index order, so a parent's placeholder is already set
    genes = list(kept)
    for pos, ppos, activates in space.gates:
        g = genes[ppos]
        if g == PLACEHOLDER or not activates[g]:
            genes[pos] = PLACEHOLDER
    return Genotype(genes=tuple(genes), frozen=tuple(kept))


def sample_random(space: ConfigSpace, state: RefinementState, rng: np.random.Generator) -> Genotype:
    """Uniform gene per dimension over the current candidates/bins, repaired."""
    return repair(rng.integers(0, state.counts).tolist(), space, state)


class DedupRegistry:
    """Run-scoped set of canonical keys admitted to evaluation."""

    def __init__(self):
        self._seen: set[int] = set()

    def admit(self, key: int) -> bool:
        """True and remember the key if unseen; False for a duplicate."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


# ---------------------------------------------------------------------------
# Built-in 24-dimension auto-configuration space
# ---------------------------------------------------------------------------

NORM_LAYERS = ("BatchNorm", "LayerNorm", "InstanceNorm")
ACTIVATIONS = ("ReLU", "GELU", "SiLU", "Tanh")
LOSS_KINDS = ("MSE", "MAE", "SmoothL1", "MAPE", "Huber", "LogCosh",
              "Quantile", "SMAPE", "Combined", "AdaptiveCombined")
LOSS_PAIRS = (
    ("MSE", "MAE"), ("MSE", "Huber"), ("MAE", "Huber"), ("MAE", "MAPE"),
    ("MSE", "SMAPE"), ("MAE", "Quantile"), ("Huber", "Quantile"),
    ("MAE", "multi_quantile"), ("MSE", "SmoothL1"), ("MAE", "LogCosh"),
)
FUSION_OPS = ("concat", "add", "weighting", "gating", "attention", "cross_mapping")


def builtin_space() -> ConfigSpace:
    """The embedded 24-variable auto-configuration space."""
    v = [
        VariableSpec(1, "resample_op", DISCRETE, candidates=OPERATORS),
        VariableSpec(2, "pool_type", COND_DISCRETE, candidates=POOL_TYPES,
                     parent=(1, ("pool",))),
        VariableSpec(3, "aligned_length", DISCRETE, candidates=(8, 12, 24, 36, 48)),
        VariableSpec(4, "batch_size", DISCRETE, candidates=(16, 32, 64, 128)),
        VariableSpec(5, "norm_layer", DISCRETE, candidates=NORM_LAYERS),
        VariableSpec(6, "proj_channels", DISCRETE, candidates=(8, 16, 32, 64)),
        VariableSpec(7, "conv1_channels", DISCRETE, candidates=(8, 16, 32, 64)),
        VariableSpec(8, "conv2_channels", DISCRETE, candidates=(16, 32, 64, 128)),
        VariableSpec(9, "conv3_channels", DISCRETE, candidates=(32, 64, 128, 256)),
        VariableSpec(10, "short_kernels", DISCRETE,
                     candidates=((3, 3, 3), (3, 5, 7), (3, 5, 9), (5, 7, 11))),
        VariableSpec(11, "long_kernels", DISCRETE,
                     candidates=((7, 9, 11), (9, 11, 13), (11, 13, 15))),
        VariableSpec(12, "activation", DISCRETE, candidates=ACTIVATIONS),
        VariableSpec(13, "dropout", CONTINUOUS, bounds=(0.0, 0.5)),
        VariableSpec(14, "learning_rate", CONTINUOUS, bounds=(1e-5, 1e-2), scale="log"),
        VariableSpec(15, "weight_decay", CONTINUOUS, bounds=(1e-6, 1e-2), scale="log"),
        VariableSpec(16, "lr_schedule", DISCRETE, candidates=("on", "off")),
        VariableSpec(17, "scheduler_type", COND_DISCRETE,
                     candidates=("plateau", "warmup_cosine"), parent=(16, ("on",))),
        VariableSpec(18, "loss_type", DISCRETE, candidates=LOSS_KINDS),
        VariableSpec(19, "loss_pair", COND_DISCRETE, candidates=LOSS_PAIRS,
                     parent=(18, ("Combined", "AdaptiveCombined"))),
        VariableSpec(20, "loss_weights", COND_DISCRETE,
                     candidates=((0.9, 0.1), (0.7, 0.3), (0.5, 0.5)),
                     parent=(18, ("AdaptiveCombined",))),
        VariableSpec(21, "loss_weight_lr", COND_DISCRETE,
                     candidates=(0.001, 0.01, 0.1, 0.2, 0.5),
                     parent=(18, ("AdaptiveCombined",))),
        VariableSpec(22, "fusion_op", DISCRETE, candidates=FUSION_OPS),
        VariableSpec(23, "weighting_mode", COND_DISCRETE, candidates=("add", "concat"),
                     parent=(22, ("weighting",))),
        VariableSpec(24, "cross_mapping_mode", COND_DISCRETE,
                     candidates=("add", "concat", "gated"),
                     parent=(22, ("cross_mapping",))),
    ]
    return ConfigSpace(variables=tuple(v))
