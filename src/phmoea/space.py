"""Hierarchical conditional mixed configuration space.

A space is an ordered list of variables. Discrete variables carry a candidate
list; continuous variables carry a bounded range (linear or log scale) that is
discretized into bins so that every variable is searched through integer gene
indices. Conditional variables are active only when a parent discrete choice
takes one of their activating values; inactive variables are masked during
decoding and semantically frozen inside the genotype so their last valid value
survives deactivation.

The module also owns duplicate detection (canonical hashing of the active part
of a decoded configuration) and the adaptive bin-refinement machinery that
splits intervals where non-dominated solutions persistently concentrate.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class Genotype:
    """Fixed-length encoded individual.

    ``genes[d]`` is the candidate index (discrete) or bin index (continuous)
    for dimension d+1, or PLACEHOLDER when the dimension is frozen.
    ``frozen[d]`` caches the last valid gene so re-activated dimensions can
    restore it.
    """

    genes: tuple[int, ...]
    frozen: tuple[int, ...]


@dataclass(frozen=True)
class DecodedConfig:
    """Executable configuration with an activity mask.

    ``values[d]`` is None for inactive dimensions. ``ids[d]`` keeps the gene
    index the value was decoded from, which canonical hashing uses so that
    float formatting can never perturb duplicate detection.
    """

    values: tuple
    active: tuple[bool, ...]
    ids: tuple[int, ...]

    def as_dict(self, space: ConfigSpace) -> dict:
        """Name -> value mapping over active dimensions only."""
        return {
            var.name: self.values[i]
            for i, var in enumerate(space.variables)
            if self.active[i]
        }


def bin_value(a: float, b: float, n_bins: int, k: int, scale: str = "linear") -> float:
    """Representative (midpoint) value of bin ``k`` in 1..n_bins over [a, b].

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


def _to_scale(value, scale: str):
    return np.log(value) if scale == "log" else value


def _from_scale(value, scale: str):
    return np.exp(value) if scale == "log" else value


class RefinementState:
    """Per-dimension interval partitions plus persistence counters.

    Breakpoints for each continuous dimension span its declared range and are
    uniform in the dimension's scale space initially. An interval whose share
    of the current non-dominated front exceeds ``mass_threshold`` for
    ``persistence`` consecutive updates is split at its scale-space midpoint.
    """

    def __init__(self, space: ConfigSpace, initial_bins: int = 6,
                 mass_threshold: float = 0.5, persistence: int = 3):
        self.space = space
        self.mass_threshold = mass_threshold
        self.persistence = persistence
        # breakpoints and midpoints are in scale space; endpoints pin the range
        self._pts: dict[int, np.ndarray] = {}
        self._mids: dict[int, np.ndarray] = {}
        self.counters: dict[int, list[int]] = {}
        for idx in space.continuous_indices():
            var = space.variable(idx)
            a, b = var.bounds
            self._set_points(idx, np.linspace(_to_scale(a, var.scale),
                                              _to_scale(b, var.scale), initial_bins + 1))
            self.counters[idx] = [0] * initial_bins

    def _set_points(self, index: int, pts: np.ndarray) -> None:
        self._pts[index] = pts
        self._mids[index] = 0.5 * (pts[:-1] + pts[1:])

    def breakpoints(self, index: int) -> np.ndarray:
        """Breakpoints of a dimension in its raw units."""
        var = self.space.variable(index)
        return _from_scale(self._pts[index], var.scale)

    def bin_count(self, index: int) -> int:
        return len(self._pts[index]) - 1

    def choice_count(self, var: VariableSpec) -> int:
        if var.is_continuous:
            return self.bin_count(var.index)
        return len(var.candidates)

    def scale_grid(self, index: int) -> tuple[float, float, np.ndarray]:
        """Scale-space bounds and interval midpoints of a dimension."""
        pts = self._pts[index]
        return float(pts[0]), float(pts[-1]), self._mids[index]

    def representatives(self, index: int) -> np.ndarray:
        """Midpoint value of every interval, in the dimension's raw units."""
        var = self.space.variable(index)
        _, _, reps = self.scale_grid(index)
        return _from_scale(reps, var.scale)

    def representative(self, index: int, k: int) -> float:
        var = self.space.variable(index)
        _, _, reps = self.scale_grid(index)
        return float(_from_scale(reps[k], var.scale))

    def nearest_bin(self, index: int, value: float) -> int:
        """Bin whose representative is closest in scale space."""
        var = self.space.variable(index)
        _, _, reps = self.scale_grid(index)
        return int(np.argmin(np.abs(reps - _to_scale(value, var.scale))))

    def update(self, front: list[tuple[int, ...]]) -> None:
        """Accumulate the bin masses of a non-dominated front's repaired genes.

        Counters increment where the bin mass exceeds the threshold and
        reset everywhere else. An empty front leaves the state unchanged.
        """
        if not front:
            return
        total = len(front)
        for idx in self._pts:
            pos = idx - 1
            hits = [0] * self.bin_count(idx)
            for genes in front:
                if genes[pos] != PLACEHOLDER:
                    hits[genes[pos]] += 1
            counters = self.counters[idx]
            for k, h in enumerate(hits):
                if h / total > self.mass_threshold:
                    counters[k] += 1
                else:
                    counters[k] = 0

    def refine(self) -> list[tuple[int, int]]:
        """Split every interval whose counter reached the persistence bar.

        Returns the (dimension, interval) pairs that were split, in order.
        Intervals too narrow for a representable midpoint are left alone.
        """
        splits = []
        for idx in sorted(self._pts):
            counters = self.counters[idx]
            triggered = [c >= self.persistence for c in counters]
            if not any(triggered):
                continue
            pts, mids = self._pts[idx], self._mids[idx]
            split = [k for k, t in enumerate(triggered)
                     if t and pts[k] < mids[k] < pts[k + 1]]
            self._set_points(idx, np.insert(pts, [k + 1 for k in split], mids[split]))
            counters = [0 if t else c for t, c in zip(triggered, counters)]
            for k in reversed(split):
                counters.insert(k + 1, 0)
            self.counters[idx] = counters
            splits += [(idx, k) for k in split]
        return splits


def split_renumbering(splits: list[tuple[int, int]], dim: int,
                      n_bins: int) -> tuple[list[int], frozenset[int]]:
    """Where the old bins of ``dim`` went after ``RefinementState.refine``.

    ``splits`` is what ``refine`` returned and ``n_bins`` the dimension's bin
    count after it. Old bin j is now bin ``new[j]``; when j is in ``split``
    its two children are ``new[j]`` and ``new[j] + 1``.
    """
    split = sorted(k for d, k in splits if d == dim)
    new = [j + bisect.bisect_left(split, j) for j in range(n_bins - len(split))]
    return new, frozenset(split)


def activity(genes: tuple[int, ...], space: ConfigSpace) -> tuple[bool, ...]:
    """Activity bit per dimension, resolved in dependency (index) order."""
    active = []
    for i, var in enumerate(space.variables):
        if var.parent is None:
            active.append(True)
            continue
        pidx, values = var.parent
        parent = space.variable(pidx)
        pgene = genes[pidx - 1]
        ok = (active[pidx - 1] and 0 <= pgene < len(parent.candidates)
              and parent.candidates[pgene] in values)
        active.append(ok)
    return tuple(active)


def decode(genotype: Genotype, space: ConfigSpace, state: RefinementState) -> DecodedConfig:
    """Map a genotype to its executable configuration.

    Inactive dimensions are masked to None; active continuous dimensions map
    their bin index to the current partition's representative value.
    """
    mask = activity(genotype.genes, space)
    values = []
    ids = []
    for i, var in enumerate(space.variables):
        if not mask[i]:
            values.append(None)
            ids.append(PLACEHOLDER)
            continue
        gene = genotype.genes[i]
        if gene < 0:
            gene = genotype.frozen[i]
        gene = min(max(gene, 0), state.choice_count(var) - 1)
        ids.append(gene)
        if var.is_continuous:
            values.append(state.representative(var.index, gene))
        else:
            values.append(var.candidates[gene])
    return DecodedConfig(values=tuple(values), active=mask, ids=tuple(ids))


def repair(genotype: Genotype, space: ConfigSpace, state: RefinementState) -> Genotype:
    """Clip, freeze and restore genes so the genotype is always executable.

    Out-of-range indices are clipped into the current candidate/bin counts.
    Dimensions deactivated by their parent cache their last valid gene and
    take the placeholder; re-activated dimensions restore the cached gene.
    Repair is total and idempotent; the placeholder marks exactly the
    inactive dimensions.
    """
    genes = list(genotype.genes)
    frozen = list(genotype.frozen)
    for i, var in enumerate(space.variables):
        hi = state.choice_count(var) - 1
        if genes[i] != PLACEHOLDER:
            genes[i] = min(max(genes[i], 0), hi)
        frozen[i] = min(max(frozen[i], 0), hi)
    # children of a re-activated parent see the gene it restores
    mask = activity([f if g == PLACEHOLDER else g
                     for g, f in zip(genes, frozen)], space)
    for i, on in enumerate(mask):
        if on:
            if genes[i] == PLACEHOLDER:
                genes[i] = frozen[i]
            else:
                frozen[i] = genes[i]
        else:
            if genes[i] != PLACEHOLDER:
                frozen[i] = genes[i]
                genes[i] = PLACEHOLDER
    return Genotype(genes=tuple(genes), frozen=tuple(frozen))


def fresh_genotype(space: ConfigSpace, genes: list[int]) -> Genotype:
    """Genotype with the freeze cache initialized to the given genes."""
    return Genotype(genes=tuple(genes), frozen=tuple(max(g, 0) for g in genes))


def sample_random(space: ConfigSpace, state: RefinementState, rng: np.random.Generator) -> Genotype:
    """Uniform gene per dimension over the current candidates/bins, repaired."""
    genes = [int(rng.integers(state.choice_count(var))) for var in space.variables]
    return repair(fresh_genotype(space, genes), space, state)


def canonical_key(decoded: DecodedConfig) -> int:
    """64-bit key of the active part of a decoded configuration.

    The serialization is the ordered (dimension, gene-id) sequence over active
    dimensions, so genotypes that differ only in masked dimensions collide by
    construction and everything else separates with overwhelming probability.
    """
    payload = b"".join(
        struct.pack("<hi", i + 1, decoded.ids[i])
        for i in range(len(decoded.active))
        if decoded.active[i]
    )
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


class DedupRegistry:
    """Run-scoped set of canonical keys admitted to evaluation."""

    def __init__(self):
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, key: int) -> bool:
        return key in self._seen

    def admit(self, key: int) -> bool:
        """True and remember the key if unseen; False for a duplicate."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


# ---------------------------------------------------------------------------
# Built-in 24-dimension auto-configuration space
# ---------------------------------------------------------------------------

RESAMPLE_OPS = ("linear", "decimate_repeat", "hybrid", "pool", "conv_blurpool", "fir_lowpass")
POOL_TYPES = ("avg", "max", "median", "weighted")
NORM_LAYERS = ("BatchNorm", "LayerNorm", "InstanceNorm")
ACTIVATIONS = ("ReLU", "GELU", "SiLU", "Tanh")
LOSS_TYPES = ("MSE", "MAE", "SmoothL1", "MAPE", "Huber", "LogCosh",
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
        VariableSpec(1, "resample_op", DISCRETE, candidates=RESAMPLE_OPS),
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
        VariableSpec(18, "loss_type", DISCRETE, candidates=LOSS_TYPES),
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


# ---------------------------------------------------------------------------
# Declarative JSON form
# ---------------------------------------------------------------------------

def _candidate_to_json(c):
    return list(c) if isinstance(c, tuple) else c


def _candidate_from_json(c):
    return tuple(c) if isinstance(c, list) else c


def space_to_json(space: ConfigSpace) -> dict:
    """Declarative document mirroring the variable definitions."""
    out = []
    for var in space.variables:
        entry: dict = {"index": var.index, "name": var.name, "kind": var.kind}
        if var.is_continuous:
            entry["range"] = [var.bounds[0], var.bounds[1]]
            entry["scale"] = var.scale
        else:
            entry["candidates"] = [_candidate_to_json(c) for c in var.candidates]
        if var.parent is not None:
            pidx, values = var.parent
            entry["parent"] = {"dim": pidx, "values": [_candidate_to_json(v) for v in values]}
        out.append(entry)
    return {"variables": out}


def space_from_json(doc: dict) -> ConfigSpace:
    variables = []
    for entry in doc["variables"]:
        parent = None
        if "parent" in entry:
            parent = (entry["parent"]["dim"],
                      tuple(_candidate_from_json(v) for v in entry["parent"]["values"]))
        variables.append(VariableSpec(
            index=entry["index"],
            name=entry["name"],
            kind=entry["kind"],
            candidates=tuple(_candidate_from_json(c) for c in entry.get("candidates", [])),
            bounds=tuple(entry["range"]) if "range" in entry else None,
            scale=entry.get("scale", "linear"),
            parent=parent,
        ))
    return ConfigSpace(variables=tuple(variables))


def dump_space(space: ConfigSpace) -> str:
    return json.dumps(space_to_json(space), indent=2)


def load_space(text: str) -> ConfigSpace:
    return space_from_json(json.loads(text))
