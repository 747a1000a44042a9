"""Hierarchical bi-objective synthetic benchmarks with known Pareto fronts.

Both problems embed the classical DTLZ2/DTLZ7 geometry behind a hierarchical
genome: the first two continuous variables are always active, while every
tail variable is gated by its own binary switch. A projection fills inactive
tails with a variant-specific neutral value chosen so the analytic front
stays reachable, and a coupling regularizer penalizes active tails that
disagree with their parent variable under a chain or binary-tree topology.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .metrics import nondominated_mask
from .space import CONTINUOUS, DISCRETE, ConfigSpace, DecodedConfig, VariableSpec

HDTLZ2 = "hdtlz2"
HDTLZ7 = "hdtlz7"
VARIANTS = (HDTLZ2, HDTLZ7)

NEUTRAL = {HDTLZ2: 0.5, HDTLZ7: 0.0}


def chain_parent(j: int) -> int:
    return j - 1


def tree_parent(j: int) -> int:
    return (j - 3) // 2 + 2


def benchmark_space(n: int) -> ConfigSpace:
    """Genome with n continuous variables and one gate per tail variable.

    Layout: z1, z2, then (gate_j, z_j) pairs for j = 3..n, each z_j active
    only when its gate is on.
    """
    if n < 3:
        raise ValueError("need at least 3 continuous variables")
    variables = [VariableSpec("z1", CONTINUOUS, bounds=(0.0, 1.0)),
                 VariableSpec("z2", CONTINUOUS, bounds=(0.0, 1.0))]
    for j in range(3, n + 1):
        variables.append(VariableSpec(f"gate{j}", DISCRETE, candidates=("off", "on")))
        variables.append(VariableSpec(f"z{j}", CONTINUOUS, bounds=(0.0, 1.0),
                                      parent=(f"gate{j}", ("on",))))
    return ConfigSpace(variables=tuple(variables))


@dataclass(frozen=True)
class HBenchProblem:
    """One benchmark instance: variant, size, topology and coupling weight."""

    variant: str
    n: int = 12
    topology: str = "chain"
    gamma: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.topology not in ("chain", "tree"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n < 3:
            raise ValueError("need at least 3 continuous variables")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"coupling coefficient must be finite and non-negative, "
                             f"got {self.gamma}")

    @property
    def neutral(self) -> float:
        return NEUTRAL[self.variant]

    def space(self) -> ConfigSpace:
        return benchmark_space(self.n)

    def parent(self, j: int) -> int:
        return chain_parent(j) if self.topology == "chain" else tree_parent(j)

    def project(self, decoded: DecodedConfig) -> tuple[list[float], tuple[int, ...]]:
        """Continuous vector in [0,1]^n plus the active tail indices.

        Inactive tails take the variant's neutral value.
        """
        values, neutral = decoded.values, self.neutral
        tails = values[3::2]            # z_j sits at 0-based position 2j - 3
        z = [values[0], values[1]] + [neutral if v is None else v for v in tails]
        active = tuple(j for j, v in enumerate(tails, 3) if v is not None)
        return z, active

    def coupling(self, z, active_tails) -> float:
        """Mean squared parent disagreement over active tails, scaled by gamma."""
        if not active_tails:
            return 0.0
        total = 0.0
        for j in active_tails:      # in order: builtin sum compensates floats from 3.12
            total += (z[j - 1] - z[self.parent(j) - 1]) ** 2
        return self.gamma * total / len(active_tails)

    def objectives(self, decoded: DecodedConfig) -> tuple[float, float]:
        z, active_tails = self.project(decoded)
        cpl = self.coupling(z, active_tails)
        if self.variant == HDTLZ2:
            return hdtlz2(z, cpl)
        return hdtlz7(z, cpl)


def pairwise_sum(terms) -> float:
    """``float(np.sum(terms))`` for float64 terms, in numpy's summation order.

    Above 128 terms numpy sums two halves, the first a multiple of 8 long;
    from 8 terms on it keeps 8 interleaved accumulators and folds them
    pairwise; the remainder, or all of fewer than 8 terms, adds in order.
    Starting from 0.0 as numpy does only turns an all -0.0 sum into 0.0.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
    total, m = 0.0, n - n % 8
    if m:
        acc = terms[:8]
        for i in range(8, m, 8):
            acc = list(map(operator.add, acc, terms[i:i + 8]))
        total += ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for t in terms[m:]:
        total += t
    return total


def hdtlz2(z, coupling: float = 0.0) -> tuple[float, float]:
    """Quarter-circle front; the g-term vanishes when all z_j>=2 sit at 0.5."""
    n = len(z)
    g = pairwise_sum([(v - 0.5) * (v - 0.5) for v in z[1:]]) / (n - 1) + coupling
    angle = 0.5 * math.pi * z[0]
    return ((1.0 + g) * math.cos(angle), (1.0 + g) * math.sin(angle))


def hdtlz7(z, coupling: float = 0.0) -> tuple[float, float]:
    """Disconnected multimodal front; optimal tails sit at 0."""
    n = len(z)
    f1 = float(z[0])
    g = 1.0 + 9.0 * pairwise_sum(z[1:]) / (n - 1) + coupling
    h = 2.0 - (f1 / g) * (1.0 + math.sin(3.0 * math.pi * f1))
    return (f1, 0.5 * g * h)


def reference_front(variant: str, n_points: int = 1000) -> np.ndarray:
    """Analytic Pareto front sampled on a uniform parameter grid."""
    if n_points < 2:
        raise ValueError("need at least 2 points")
    u = np.linspace(0.0, 1.0, n_points)
    if variant == HDTLZ2:
        return np.column_stack([np.cos(0.5 * np.pi * u), np.sin(0.5 * np.pi * u)])
    if variant == HDTLZ7:
        f2 = 0.5 * (2.0 - u * (1.0 + np.sin(3.0 * np.pi * u)))
        pts = np.column_stack([u, f2])
        return pts[nondominated_mask(pts)]
    raise ValueError(f"unknown variant {variant!r}")
