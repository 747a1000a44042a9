"""Hierarchical conditional mixed configuration space.

A space is an ordered list of variables. Discrete variables carry a candidate
list; continuous variables carry a bounded range (linear or log scale) that is
discretized into bins so that every variable is searched through integer gene
indices. Conditional variables are active only when a parent discrete choice
takes one of their activating values. A candidate is its kept vector, an
in-range gene per dimension: an inactive variable keeps its last valid gene
there, so that value survives deactivation, and decoding masks it.

The module also owns duplicate detection (on the exact decoded value tuple;
the 64-bit canonical key is only its written form) and the adaptive bin
refinement that splits intervals the front persistently fills.
"""

from __future__ import annotations

import hashlib
import math
import operator
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Context, Decimal
from functools import cached_property
from itertools import cycle

from .resample import OPERATORS, POOL_TYPES
from .rng import WordStream

DISCRETE = "discrete"
CONTINUOUS = "continuous"
# libmpdec computes ln and exp in software, so log-scale tables are the same
# bits on every host, where numpy's SIMD kernels and libm's variants vary by CPU
_DECIMAL = Context(prec=40)


def _log_scale(points: Sequence[float], bounds: tuple | None = None) -> list[float]:
    """The natural logs of raw ``points``; given a log-scale variable's raw
    ``bounds``, the inverse: the raw values of scale-space ``points``, clipped
    into the bounds, which the exp of a rounded log may round past."""
    if bounds is None:
        return [float(_DECIMAL.ln(Decimal(float(x)))) for x in points]
    a, b = map(float, bounds)
    return [min(max(float(_DECIMAL.exp(Decimal(x))), a), b) for x in points]


@dataclass(frozen=True)
class VariableSpec:
    """One dimension of the configuration space.

    Discrete variables enumerate ``candidates``; continuous ones carry
    ``bounds`` plus a ``scale`` flag. Conditional variables hold
    ``parent = (parent_name, activating_values)`` and are active only when the
    parent decodes to one of those values.
    """

    name: str
    kind: str
    candidates: tuple = ()
    bounds: tuple[float, float] | None = None
    scale: str = "linear"
    parent: tuple[str, tuple] | None = None

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS

    @property
    def is_conditional(self) -> bool:
        return self.parent is not None

    def validate(self) -> None:
        if self.kind not in (DISCRETE, CONTINUOUS):
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
            # so every breakpoint, span and midpoint sum stays finite
            lo, hi = _log_scale(self.bounds) if self.scale == "log" else map(float, self.bounds)
            if not (math.isfinite(2.0 * lo) and math.isfinite(2.0 * hi)):
                raise ValueError(f"{self.name}: bounds doubled in scale space must be finite")
        else:
            if not self.candidates:
                raise ValueError(f"{self.name}: candidate list is empty")
            if len(set(self.candidates)) != len(self.candidates):
                raise ValueError(f"{self.name}: duplicate candidates")
            if None in self.candidates:
                raise ValueError(f"{self.name}: None marks an inactive dimension, not a candidate")


@dataclass(frozen=True)
class ConfigSpace:
    """Ordered, validated collection of variables.

    A variable's position in ``variables`` is its dimension id everywhere:
    gene vectors, refinement tables and player archives are indexed by it.
    """

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        for pos, var in enumerate(self.variables):
            var.validate()
            if self.positions[var.name] != pos:
                raise ValueError(f"{var.name}: duplicate variable name")
            if var.parent is None:
                continue
            pname, values = var.parent
            ppos = self.positions.get(pname, pos)
            if ppos >= pos:
                raise ValueError(f"{var.name}: parent {pname!r} must be an earlier variable")
            parent = self.variables[ppos]
            if parent.is_continuous:
                raise ValueError(f"{var.name}: parent must be a discrete dimension")
            for v in values:
                if v not in parent.candidates:
                    raise ValueError(f"{var.name}: activating value {v!r} not a parent candidate")

    def __len__(self) -> int:
        return len(self.variables)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Variable name -> position."""
        return {var.name: pos for pos, var in enumerate(self.variables)}

    def continuous_indices(self) -> tuple[int, ...]:
        """Positions of the continuous variables."""
        return tuple(pos for pos, v in enumerate(self.variables) if v.is_continuous)

    @cached_property
    def gates(self) -> tuple[tuple[int, int, tuple[bool, ...]], ...]:
        """``(pos, parent_pos, activates)`` per conditional dimension, in order,
        where ``activates[c]`` says whether parent candidate ``c`` activates it."""
        out = []
        for pos, var in enumerate(self.variables):
            if var.parent is not None:
                pname, values = var.parent
                ppos = self.positions[pname]
                out.append((pos, ppos,
                            tuple(c in values for c in self.variables[ppos].candidates)))
        return tuple(out)


def canonical_key(values: Sequence) -> int:
    """64-bit key of the active part of a decoded value tuple.

    BLAKE2b-64 over the ``repr`` of the list of ``(dimension, value)`` pairs
    over active dimensions (value not None), so configurations that differ
    only in masked dimensions collide by construction and everything else
    separates with overwhelming probability. Float ``repr`` round-trips, so a
    configuration writes one key in any run. Dimensions are numbered from 1
    here, not by position: this is the hash format of ``pareto_front.csv``.
    """
    payload = repr([(d, v) for d, v in enumerate(values, 1) if v is not None])
    return int.from_bytes(hashlib.blake2b(payload.encode(), digest_size=8).digest(), "little")


@dataclass(frozen=True)
class DecodedConfig:
    """Executable configuration: ``values[d]`` is None for an inactive dimension.

    The values are the configuration's one identity: dedup admits them, and
    ``key`` (``canonical_key(values)``, the written format) is derived from
    them on each read, since caching it would materialize a ``__dict__`` per
    instance.
    """

    values: tuple

    @property
    def key(self) -> int:
        return canonical_key(self.values)

    def as_dict(self, space: ConfigSpace) -> dict:
        """Name -> value mapping over active dimensions only."""
        return {var.name: value for var, value in zip(space.variables, self.values)
                if value is not None}


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

    Two tables by 0-based position, edited in place when a partition changes:
    ``values`` (candidates, or bin representatives in raw units, a log scale's
    clipped into the bounds; a linear scale's is its midpoints list) and
    ``grids`` (None if discrete, else the scale-space ``(breakpoints, midpoints)``
    lists). ``counters[pos]`` maps a bin to its nonzero counter.
    """

    def __init__(self, space: ConfigSpace, initial_bins: int = 6,
                 mass_threshold: float = 0.5, persistence: int = 3):
        self.space = space
        self.mass_threshold = mass_threshold
        self.persistence = persistence
        self.values: list = [var.candidates for var in space.variables]
        self.grids: list = [None] * len(space)
        self.counters: dict[int, dict[int, int]] = {pos: {} for pos in space.continuous_indices()}
        for pos in space.continuous_indices():
            var = space.variables[pos]
            lo, hi = _log_scale(var.bounds) if var.scale == "log" else map(float, var.bounds)
            step = (hi - lo) / initial_bins
            # np.linspace's bits, with its branch for a step that underflows to 0
            pts = [lo + (i * step if step else i / initial_bins * (hi - lo))
                   for i in range(initial_bins)] + [hi]
            mids = [0.5 * (x + y) for x, y in zip(pts, pts[1:])]
            self.values[pos] = mids if var.scale == "linear" else _log_scale(mids, var.bounds)
            self.grids[pos] = (pts, mids)

    def bin_count(self, pos: int) -> int:
        return len(self.values[pos])

    def update(self, front: list[tuple[tuple[int, ...], tuple]]) -> None:
        """Accumulate the bin masses of a non-dominated front's ``(kept, values)``
        pairs; a member's kept gene counts only where its value is not None.

        Counters increment where the bin mass exceeds the threshold and
        reset everywhere else. An empty front leaves the state unchanged.
        """
        if not front:
            return
        size, threshold = len(front), self.mass_threshold
        self.counters = {pos: {k: counters.get(k, 0) + 1
                               for k, h in Counter([kept[pos] for kept, values in front
                                                    if values[pos] is not None]).items()
                               if h / size > threshold}
                         for pos, counters in self.counters.items()}

    def refine(self) -> list[tuple[int, int]]:
        """Split every interval whose counter reached the persistence bar.

        Returns the (position, interval) pairs that were split, in order.
        Intervals too narrow for a representable midpoint are left alone.
        Every triggered counter resets; the others move with their bin.
        """
        splits = []
        for pos, counters in self.counters.items():
            triggered = {k for k, c in counters.items() if c >= self.persistence}
            if not triggered:
                continue
            (pts, mids), values = self.grids[pos], self.values[pos]
            split = sorted(k for k in triggered
                           if pts[k] < 0.5 * (pts[k] + pts[k + 1]) < pts[k + 1])
            for k in reversed(split):       # from the right, so k still indexes the old bin
                mid = 0.5 * (pts[k] + pts[k + 1])
                pts.insert(k + 1, mid)
                left, right = 0.5 * (pts[k] + mid), 0.5 * (mid + pts[k + 2])
                mids[k] = left
                mids.insert(k + 1, right)
                if values is not mids:      # log scale: representatives in raw units
                    values[k:k + 1] = _log_scale([left, right], self.space.variables[pos].bounds)
            self.counters[pos] = {k + bisect_left(split, k): c for k, c in counters.items()
                                  if k not in triggered}
            splits += [(pos, k) for k in split]
        return splits


def split_renumbering(genes: Sequence[int], split: list[int]) -> list[int]:
    """One dimension's kept column renumbered after ``RefinementState.refine``.

    ``split`` holds the dimension's split bins, sorted, in old numbering.
    Every gene moves up by the number of split bins below it. Members of a
    split bin sat on its split point; they alternate left and right child in
    population order, which keeps both children populated.
    """
    side = {k: cycle((0, 1)) for k in split}
    return [g + bisect_left(split, g) + (next(side[g]) if g in side else 0) for g in genes]


def activity(kept: Sequence[int], space: ConfigSpace) -> tuple[bool, ...]:
    """Activity bit per dimension of a repaired kept vector, in position order."""
    active = [True] * len(space)
    for pos, ppos, activates in space.gates:
        active[pos] = active[ppos] and activates[kept[ppos]]
    return tuple(active)


def decode(kept: tuple[int, ...], state: RefinementState) -> DecodedConfig:
    """Map a repaired kept vector to its executable configuration.

    The vector must come from ``repair`` or ``sample_random``, so its genes
    are in range. Dimensions that ``state.space``'s parents deactivate decode
    to None; active continuous dimensions map their bin index to the current
    partition's representative value, which no split renumbers.
    """
    values = [vals[g] for g, vals in zip(kept, state.values)]
    # gates run in position order, so an inactive parent is already None
    for pos, ppos, activates in state.space.gates:
        if values[ppos] is None or not activates[kept[ppos]]:
            values[pos] = None
    return DecodedConfig(tuple(values))


def repair(kept: Sequence[int], state: RefinementState) -> tuple[int, ...]:
    """Clip one full gene vector into the ranges of ``state.values``' tables.

    An inactive dimension keeps its gene, so re-activating it restores that
    gene. Repair is total and idempotent (``repair(k, state) == k`` for a
    repaired ``k``).
    """
    if min(kept, default=0) < 0 or not all(map(operator.lt, kept, map(len, state.values))):
        kept = [min(max(g, 0), len(vals) - 1) for g, vals in zip(kept, state.values)]
    return tuple(kept)


def sample_random(state: RefinementState, stream: WordStream) -> tuple[int, ...]:
    """Uniform gene per dimension over ``state``'s current candidates/bins, repaired.

    The draws are numpy's ``integers(0, len(values))``: one value draws nothing.
    """
    below = stream.below
    return repair([below(len(vals)) for vals in state.values], state)


class DedupRegistry:
    """Decoded value tuples admitted to evaluation in one run, in admit order
    (a dict keeps insertion order); admission compares the exact tuple, so no
    hash collision refuses one, and no split renumbers one."""

    def __init__(self):
        self.keys: dict[tuple, None] = {}

    def admit(self, values: tuple) -> bool:
        """True and record the value tuple if unseen; False for a duplicate."""
        if values in self.keys:
            return False
        self.keys[values] = None
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
        VariableSpec("resample_op", DISCRETE, candidates=OPERATORS),
        VariableSpec("pool_type", DISCRETE, candidates=POOL_TYPES,
                     parent=("resample_op", ("pool",))),
        VariableSpec("aligned_length", DISCRETE, candidates=(8, 12, 24, 36, 48)),
        VariableSpec("batch_size", DISCRETE, candidates=(16, 32, 64, 128)),
        VariableSpec("norm_layer", DISCRETE, candidates=NORM_LAYERS),
        VariableSpec("proj_channels", DISCRETE, candidates=(8, 16, 32, 64)),
        VariableSpec("conv1_channels", DISCRETE, candidates=(8, 16, 32, 64)),
        VariableSpec("conv2_channels", DISCRETE, candidates=(16, 32, 64, 128)),
        VariableSpec("conv3_channels", DISCRETE, candidates=(32, 64, 128, 256)),
        VariableSpec("short_kernels", DISCRETE,
                     candidates=((3, 3, 3), (3, 5, 7), (3, 5, 9), (5, 7, 11))),
        VariableSpec("long_kernels", DISCRETE,
                     candidates=((7, 9, 11), (9, 11, 13), (11, 13, 15))),
        VariableSpec("activation", DISCRETE, candidates=ACTIVATIONS),
        VariableSpec("dropout", CONTINUOUS, bounds=(0.0, 0.5)),
        VariableSpec("learning_rate", CONTINUOUS, bounds=(1e-5, 1e-2), scale="log"),
        VariableSpec("weight_decay", CONTINUOUS, bounds=(1e-6, 1e-2), scale="log"),
        VariableSpec("lr_schedule", DISCRETE, candidates=("on", "off")),
        VariableSpec("scheduler_type", DISCRETE, candidates=("plateau", "warmup_cosine"),
                     parent=("lr_schedule", ("on",))),
        VariableSpec("loss_type", DISCRETE, candidates=LOSS_KINDS),
        VariableSpec("loss_pair", DISCRETE, candidates=LOSS_PAIRS,
                     parent=("loss_type", ("Combined", "AdaptiveCombined"))),
        VariableSpec("loss_weights", DISCRETE, candidates=((0.9, 0.1), (0.7, 0.3), (0.5, 0.5)),
                     parent=("loss_type", ("AdaptiveCombined",))),
        VariableSpec("loss_weight_lr", DISCRETE, candidates=(0.001, 0.01, 0.1, 0.2, 0.5),
                     parent=("loss_type", ("AdaptiveCombined",))),
        VariableSpec("fusion_op", DISCRETE, candidates=FUSION_OPS),
        VariableSpec("weighting_mode", DISCRETE, candidates=("add", "concat"),
                     parent=("fusion_op", ("weighting",))),
        VariableSpec("cross_mapping_mode", DISCRETE, candidates=("add", "concat", "gated"),
                     parent=("fusion_op", ("cross_mapping",))),
    ]
    return ConfigSpace(variables=tuple(v))
