"""Experiment runner: searches, indicator reports, resampling, model cards.

Exit codes: 0 on success, 2 for usage errors, 3 for runtime failures. Every
search run directory receives a manifest echo sufficient to reproduce the run
byte-for-byte. The only environment variable honored is PHMOEA_OUT_ROOT,
which re-roots relative output directories.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import benchmarks, metrics, resample
from .engine import RunResult, SearchParams, SearchProblem, run_nsga2, run_phmoea
from .evaluators import BenchmarkEvaluator, SurrogateEvaluator
from .network import INPUT_WIDTH, TARGETS, build_graph, dump_model_card
from .space import RefinementState, builtin_space

USAGE_ERROR = 2
RUNTIME_ERROR = 3

PROBLEMS = ("hdtlz2", "hdtlz7", "surrogate")
ALGORITHMS = ("phmoea", "nsga2")

BENCH_HV_REFERENCE = (1.1, 1.1)
REFERENCE_FRONT_POINTS = 1000


@dataclass
class RunManifest:
    """Fully resolved description of one search invocation; holds every default."""

    problem: str
    algorithm: str = "phmoea"
    pop_size: int | None = None         # None: 100 on H-DTLZ, 50 on the surrogate
    generations: int | None = None      # None: 100 on H-DTLZ, 30 on the surrogate
    seed: int = 0
    seeds: int = 1
    out_dir: str = "runs"
    bench_n: int = 12
    bench_gamma: float = 1.0
    bench_topology: str = "chain"
    targets: int = TARGETS
    input_width: int = INPUT_WIDTH
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        pop_size, generations = (50, 30) if self.problem == "surrogate" else (100, 100)
        self.pop_size = pop_size if self.pop_size is None else self.pop_size
        self.generations = generations if self.generations is None else self.generations

    def validate(self) -> None:
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; choose from {PROBLEMS}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.pop_size < 2:
            raise ValueError("population size must be at least 2")
        if self.generations < 1 or self.seeds < 1:
            raise ValueError("generations and seeds must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if min(self.targets, self.input_width) < 1:
            raise ValueError("targets and input width must be at least 1")
        self.search_params().validate()

    def search_params(self) -> SearchParams:
        base = SearchParams.benchmark() if self.problem != "surrogate" \
            else SearchParams.real_task()
        known = {f.name for f in fields(SearchParams)}
        unknown = set(self.params) - known
        if unknown:
            raise ValueError(f"unknown search parameters: {sorted(unknown)}")
        for name, value in self.params.items():
            setattr(base, name, value)
        return base

    def resolved(self) -> dict:
        doc = asdict(self)
        doc["params"] = asdict(self.search_params())
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "RunManifest":
        _check_json_type("manifest", doc, cls(problem=PROBLEMS[0]).resolved())
        names = {f.name for f in fields(cls)}
        unknown = set(doc) - names
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        manifest = cls(**doc)
        if "stage_ratios" in manifest.params:
            manifest.params["stage_ratios"] = tuple(
                tuple(r) for r in manifest.params["stage_ratios"])
        return manifest


def _check_json_type(name: str, value, default) -> None:
    """Raise unless JSON ``value`` fits ``default``'s type: an int fits a float and
    a bool only a bool; lists (for tuples) and objects go entry by entry."""
    if isinstance(default, dict) and isinstance(value, dict):
        for key in value:
            if key in default:      # unknown names are rejected by their owner
                _check_json_type(f"{name}.{key}", value[key], default[key])
    elif isinstance(default, tuple) and isinstance(value, list) and len(value) == len(default):
        for i, (v, d) in enumerate(zip(value, default)):
            _check_json_type(f"{name}[{i}]", v, d)
    elif isinstance(value, bool) != isinstance(default, bool) or not isinstance(
            value, (int, float) if type(default) is float else type(default)):
        raise ValueError(f"{name}: expected {type(default).__name__}, "
                         f"got {json.dumps(value)}")


def build_problem(manifest: RunManifest) -> SearchProblem:
    if manifest.problem == "surrogate":
        space = builtin_space()
        evaluator = SurrogateEvaluator(space, targets=manifest.targets,
                                       input_width=manifest.input_width)
        return SearchProblem(space=space, evaluator=evaluator, name="surrogate")
    bench = benchmarks.HBenchProblem(variant=manifest.problem, n=manifest.bench_n,
                                     topology=manifest.bench_topology,
                                     gamma=manifest.bench_gamma)
    return SearchProblem(
        space=bench.space(),
        evaluator=BenchmarkEvaluator(bench),
        name=manifest.problem,
        reference_front=benchmarks.reference_front(manifest.problem,
                                                   REFERENCE_FRONT_POINTS),
        hv_reference=BENCH_HV_REFERENCE,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))   # plain-float repr even for numpy scalars
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _out_root(out_dir: str) -> Path:
    root = os.environ.get("PHMOEA_OUT_ROOT")
    path = Path(out_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def write_run_outputs(run_dir: Path, manifest_doc: dict, result: RunResult,
                      space) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(run_dir / "pareto_front.csv", ["f1", "f2", "canonical_key"],
               [(ind.f1, ind.f2, ind.key) for ind in result.pareto])
    _write_csv(run_dir / "history.csv",
               ["gen", "fes", "mean_f1_front", "mean_f2_front", "hv", "igd"],
               [(h.gen, h.fes, h.mean_f1, h.mean_f2, h.hv, h.igd)
                for h in result.history])
    configs = [{"f1": ind.f1, "f2": ind.f2, "canonical_key": ind.key,
                "config": ind.decoded.as_dict(space)}
               for ind in result.pareto]
    (run_dir / "pareto_configs.json").write_text(
        json.dumps(configs, indent=2) + "\n")
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest_doc, indent=2, sort_keys=True) + "\n")


def cmd_search(manifest: RunManifest) -> int:
    manifest.validate()
    out = _out_root(manifest.out_dir)
    params = manifest.search_params()
    runner = run_phmoea if manifest.algorithm == "phmoea" else run_nsga2
    summary_rows = []
    for i in range(manifest.seeds):
        seed = manifest.seed + i
        problem = build_problem(manifest)
        result = runner(problem, manifest.pop_size, manifest.generations,
                        params=params, seed=seed)
        echo = manifest.resolved()
        echo.update(seed=seed, seeds=1)
        run_dir = out / f"seed_{seed:03d}"
        write_run_outputs(run_dir, echo, result, problem.space)
        last = result.history[-1]
        summary_rows.append((seed, last.igd, last.hv, result.fes))
        print(f"{manifest.problem}/{manifest.algorithm} seed={seed} "
              f"fes={result.fes} hv={last.hv:.7f}"
              + (f" igd={last.igd:.7f}" if last.igd is not None else ""))
    if manifest.seeds > 1:
        igds = [r[1] for r in summary_rows if r[1] is not None]
        hvs = [r[2] for r in summary_rows]
        rows = list(summary_rows)
        rows.append(("mean", float(np.mean(igds)) if igds else None,
                     float(np.mean(hvs)), ""))
        rows.append(("std", float(np.std(igds, ddof=1)) if len(igds) > 1 else None,
                     float(np.std(hvs, ddof=1)), ""))
        _write_csv(out / "summary.csv", ["seed", "igd", "hv", "fes"], rows)
    return 0


# ---------------------------------------------------------------------------
# Indicators
# ---------------------------------------------------------------------------

def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and non-empty data rows of a CSV file, each as wide as the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {reader.line_num} has {len(row)} "
                                 f"fields, the header {len(header)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


def _read_points(path: str) -> np.ndarray:
    header, rows = _read_rows(path)
    cols = {name.strip(): i for i, name in enumerate(header)}
    if "f1" not in cols or "f2" not in cols:
        raise ValueError(f"{path}: need 'f1' and 'f2' columns, got {header}")
    return np.asarray([(float(row[cols["f1"]]), float(row[cols["f2"]])) for row in rows])


def cmd_indicators(front_csv: str, ref_csv: str, reference_point) -> int:
    front = _read_points(front_csv)
    ref = _read_points(ref_csv)
    print(f"IGD {metrics.igd(front, ref):.7f}")
    print(f"HV {metrics.hv(front, reference_point):.7f}")
    return 0


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def cmd_resample(in_csv: str, out_csv: str, operator: str,
                 pool_type: str | None, length: int) -> int:
    header, rows = _read_rows(in_csv)
    values = [[float(v) for v in row] for row in rows]
    aligned = resample.align(np.asarray(values), length, operator, pool_type)
    _write_csv(Path(out_csv), header, aligned.tolist())
    return 0


# ---------------------------------------------------------------------------
# Model card
# ---------------------------------------------------------------------------

def cmd_count_params(config_path: str, targets: int, input_width: int) -> int:
    if min(targets, input_width) < 1:
        raise ValueError("targets and input width must be at least 1")
    doc = json.loads(Path(config_path).read_text())
    space = builtin_space()
    if not isinstance(doc, dict):
        raise ValueError(f"{config_path}: expected a JSON object of variable values")
    unknown = set(doc) - {var.name for var in space.variables}
    if unknown:
        raise ValueError(f"unknown variables: {sorted(unknown)}")
    config = {}     # an omitted variable takes its first candidate or initial bin
    for var, values in zip(space.variables, RefinementState(space).values):
        value = doc.get(var.name, values[0])
        if var.is_continuous:
            lo, hi = var.bounds
            try:
                value = float(value)
                inside = lo <= value <= hi       # False for nan
            except (TypeError, ValueError):
                inside = False
            if not inside:
                raise ValueError(f"{var.name}: {value!r} is not a number in [{lo}, {hi}]")
        else:
            value = tuple(value) if isinstance(value, list) else value
            if value not in var.candidates:
                raise ValueError(
                    f"{var.name}: {value!r} is not one of {var.candidates}")
            value = var.candidates[var.candidates.index(value)]   # 12.0 prints as 12
        config[var.name] = value
    print(dump_model_card(build_graph(config, input_width, targets)))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_PARAM_FLAGS = {
    "w": "error_weight",
    "kappa1": "stage_early_end",
    "kappa2": "stage_late_start",
    "lambda": "crowding_bonus",
    "gamma-score": "late_crowding_bonus",
    "q": "hot_fraction",
    "p": "cold_fraction",
    "o": "cold_bonus",
    "e": "cross_pool_rate",
    "pc": "crossover_prob",
    "pm": "mutation_prob",
    "bins": "initial_bins",
    "n-trial": "n_trial",
    "refine-mass": "refine_mass",
    "refine-persistence": "refine_persistence",
    "window": "window",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phmoea",
                                     description="Bi-objective configuration search")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags left out stay out of the namespace: RunManifest and SearchParams
    # hold every default
    search = sub.add_parser("search", help="run one or more seeded searches",
                            argument_default=argparse.SUPPRESS)
    search.add_argument("--manifest", help="replay a saved manifest (other flags ignored)")
    search.add_argument("--problem", choices=PROBLEMS)
    search.add_argument("--algo", dest="algorithm", choices=ALGORITHMS)
    search.add_argument("--pop", dest="pop_size", type=int)
    search.add_argument("--gens", dest="generations", type=int)
    search.add_argument("--seed", type=int)
    search.add_argument("--seeds", type=int)
    search.add_argument("--out", dest="out_dir")
    search.add_argument("--early-stop", dest="early_stop", action="store_true")
    search.add_argument("--no-early-stop", dest="early_stop", action="store_false")
    search.add_argument("--n", dest="bench_n", type=int, help="benchmark variable count")
    search.add_argument("--gamma", dest="bench_gamma", type=float,
                        help="benchmark coupling coefficient")
    search.add_argument("--topology", dest="bench_topology", choices=("chain", "tree"))
    search.add_argument("--targets", type=int)
    search.add_argument("--input-width", type=int)
    kinds = {f.name: type(f.default) for f in fields(SearchParams)}
    for flag, name in _PARAM_FLAGS.items():
        search.add_argument(f"--{flag}", dest=name, type=kinds[name])

    ind = sub.add_parser("indicators", help="IGD/HV of a front against a reference")
    ind.add_argument("--front", required=True)
    ind.add_argument("--ref", required=True)
    ind.add_argument("--r1", type=float, default=BENCH_HV_REFERENCE[0])
    ind.add_argument("--r2", type=float, default=BENCH_HV_REFERENCE[1])

    res = sub.add_parser("resample", help="align a CSV series to a fixed length")
    res.add_argument("--in", dest="in_csv", required=True)
    res.add_argument("--out", dest="out_csv", required=True)
    res.add_argument("--operator", required=True)
    res.add_argument("--pool", default=None)
    res.add_argument("--length", type=int, required=True)

    card = sub.add_parser("count-params", help="model card for a config JSON")
    card.add_argument("--config", required=True)
    card.add_argument("--targets", type=int, default=RunManifest.targets)
    card.add_argument("--input-width", type=int, default=RunManifest.input_width)
    return parser


def _manifest_from_args(args) -> RunManifest:
    given = {name: value for name, value in vars(args).items() if name != "command"}
    if "manifest" in given:
        return RunManifest.from_json(json.loads(Path(given["manifest"]).read_text()))
    if "problem" not in given:
        raise ValueError("--problem is required (or pass --manifest)")
    params = {f.name: given.pop(f.name) for f in fields(SearchParams) if f.name in given}
    return RunManifest(**given, params=params)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "search":
            return cmd_search(_manifest_from_args(args))
        if args.command == "indicators":
            return cmd_indicators(args.front, args.ref, (args.r1, args.r2))
        if args.command == "resample":
            return cmd_resample(args.in_csv, args.out_csv, args.operator,
                                args.pool, args.length)
        if args.command == "count-params":
            return cmd_count_params(args.config, args.targets, args.input_width)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime failure: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
