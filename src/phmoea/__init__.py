"""Bi-objective evolutionary auto-configuration over hierarchical spaces."""

from .benchmarks import HBenchProblem, benchmark_space, reference_front
from .engine import (RunResult, SearchParams, SearchProblem, run_nsga2,
                     run_phmoea)
from .evaluators import BenchmarkEvaluator, Evaluation, SurrogateEvaluator
from .metrics import hv, igd, merged_reference_front
from .network import build_graph, count_params
from .resample import align
from .rng import WordStream
from .space import (ConfigSpace, DecodedConfig, DedupRegistry, RefinementState, VariableSpec,
                    builtin_space, canonical_key, decode, repair, sample_random)

__version__ = "0.1.0"
