"""phmoea benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload hdtlz7-nsga2 --seed 0 --seconds 40 --trace 0

A run searches with each of the workload's search seeds, which derive from
``--seed``, and repeats them in turn until ``--seconds`` would be exceeded.
Each repetition is a fresh process (``rep.py``), so set-up time and peak
memory belong to one search. Times and the final HV are medians over the
search seeds (each the median of its repetitions), which damps the spread
between trajectories and between busy and idle moments of the host. Every
repetition of a search seed must write the same run directory (same SHA-256
of ``pareto_front.csv`` + ``history.csv``) and pass the output checks; one
that raises or fails a check counts its whole budget as failed. Set-up is
also sampled in set-up-only processes, so its median rests on at least
SETUP_SAMPLES values.

Times are scaled to a reference host speed. The speed of the shared host
this benchmark was written on drifts by a third from one minute to the next,
which moved whole runs together. So before every repetition the script times
a fixed pure-Python probe that uses no phmoea code, and multiplies the run's
times by REFERENCE_PROBE_S / (mean probe time of the run): the result is
what the times would read on a host where the probe takes
REFERENCE_PROBE_S. The probe does not change with the program, so a program
that gets slower or faster moves the scaled times by the same share. The
``worker-pool`` search spends most of its run waiting on the stub workers'
sleeps, which host speed does not change, so its ``run_s`` and
``evals_per_s`` are wall-clock; its ``setup_s`` is scaled like the others.
The other workloads pin this script, and with it every repetition and probe
it starts, to one CPU: a process that moves between the host's CPUs runs at
the speed of whichever it lands on, and on one CPU the probe times the CPU
the searches run on.

With ``--trace 1`` the script runs the first search seed once untraced and
twice traced and prints the per-layer metrics instead. All three must agree
on the digest and the traced two on every exact count.

Metric names and units come from BENCHMARK.json; the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 7
REP_TIMEOUT_S = 150.0
PROBES_PER_REP = 3
REFERENCE_PROBE_S = 0.045   # about the probe's mean on the host of the baseline


def probe() -> float:
    """Seconds taken by a fixed pure-Python task: sorts, dict writes, float sums."""
    start = time.perf_counter()
    rng = random.Random(1)
    values = [rng.random() for _ in range(2000)]
    table = {}
    total = 0.0
    for i in range(60):
        ordered = sorted(values, key=lambda v: (v * 7.3) % 1.0)
        for j, v in enumerate(ordered[:500]):
            table[(i, j % 50)] = v
            total += v * j
    return time.perf_counter() - start


class HostGauge:
    """Probe times taken between repetitions; their mean sets the scale.

    The mean, not the median: a search's time adds up its slow and fast
    moments, and so does the mean of probes spread over the run.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.extend(probe() for _ in range(PROBES_PER_REP))

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)


def pin_to_one_cpu() -> None:
    """Keep this process and all it starts on one of the CPUs it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_rep(name: str, seed: int, trace: int = 0, setup_only: bool = False):
    """Report of one repetition, or None if it crashed or timed out."""
    argv = [sys.executable, str(HERE / "rep.py"), "--workload", name,
            "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"unreadable repetition output: {proc.stdout[-500:]!r}", file=sys.stderr)
        return None


def run_timed_reps(name: str, seeds: list[int], seconds: float,
                   gauge: HostGauge) -> list:
    """(seed, report) pairs: every seed once, then in turn while time is left."""
    reps = []
    start = time.perf_counter()
    while True:
        seed = seeds[len(reps) % len(seeds)]
        began = time.perf_counter()
        gauge.sample()
        reps.append((seed, run_rep(name, seed)))
        took = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        if len(reps) >= len(seeds) and elapsed + took > seconds:
            return reps


class Tally:
    """Budget accounting and correctness over a run's repetitions."""

    def __init__(self, budget: int):
        self.budget = budget
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.correct = True
        self.digests: dict[int, str] = {}

    def add(self, label: str, seed: int, rep) -> None:
        if rep is None:
            print(f"{label} seed {seed}: crashed")
            self.attempted += self.budget
            self.failed += self.budget
            self.correct = False
            return
        print(f"{label} seed {seed}: run_s={rep['run_s']:.4f} "
              f"setup_s={rep['setup_s']:.4f} fes={rep['fes']} "
              f"errors={rep['skipped_errors']} hv={rep['final_hv']!r} "
              f"igd={rep['final_igd']!r} digest={rep['digest'][:16]}")
        if self.digests.setdefault(seed, rep["digest"]) != rep["digest"]:
            print("  digest differs from an earlier repetition of this seed")
            self.correct = False
        self.attempted += rep["fes"]
        if rep["failures"]:
            for failure in rep["failures"]:
                print(f"  check failed: {failure}")
            self.failed += rep["fes"]
            self.correct = False
        else:
            self.errors += rep["skipped_errors"]


def across_seeds(reps: list, value) -> float:
    """Median over search seeds of the median of each seed's repetitions.

    Medians, because the same search can take twice as long when the host
    is busy, and because one search that loses a segment of the
    disconnected H-DTLZ7 front should not swing the final HV.
    """
    by_seed: dict[int, list[float]] = {}
    for seed, rep in reps:
        if rep is not None:
            by_seed.setdefault(seed, []).append(value(rep))
    return statistics.median(statistics.median(v) for v in by_seed.values())


def end_to_end(reps: list, setups: list, tally: Tally, scale: float,
               scale_run: bool) -> dict:
    run_scale = scale if scale_run else 1.0
    return {
        "run_s": across_seeds(reps, lambda r: r["run_s"]) * run_scale,
        "evals_per_s": across_seeds(reps, lambda r: r["fes"] / r["run_s"]) / run_scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in reps
                                         if r is not None),
        "final_hv": across_seeds(reps, lambda r: r["final_hv"]),
        "ok_frac": 1.0 - (tally.failed + tally.errors) / tally.attempted,
    }


def per_layer(untraced: dict, traced: list, tally: Tally) -> dict:
    import tracing
    first, second = (rep["layers"] for rep in traced)
    for name in tracing.COUNT_METRICS:
        if first[name] != second[name]:
            print(f"count {name} differs between traced runs: "
                  f"{first[name]} vs {second[name]}")
            tally.correct = False
    values = {name: first[name] if name in tracing.COUNT_METRICS
              else statistics.fmean((first[name], second[name])) for name in first}
    values["trace.overhead_ratio"] = (statistics.fmean(r["run_s"] for r in traced)
                                      / untraced["run_s"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="phmoea benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "phmoea" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a phmoea checkout; no src/phmoea or BENCHMARK.json "
              f"under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    tally = Tally(workload.budget)
    if not workload.workers:
        pin_to_one_cpu()

    seeds = workload.search_seeds(args.seed)
    if args.trace:
        untraced = run_rep(workload.name, seeds[0])
        tally.add("untraced", seeds[0], untraced)
        traced = [run_rep(workload.name, seeds[0], trace=1) for _ in range(2)]
        for rep in traced:
            tally.add("traced", seeds[0], rep)
        if untraced is None or None in traced:
            print("error: a repetition crashed; no metrics", file=sys.stderr)
            return 1
        values = per_layer(untraced, traced, tally)
        wanted = spec["per_layer"]
    else:
        gauge = HostGauge()
        reps = run_timed_reps(workload.name, seeds, args.seconds, gauge)
        for seed, rep in reps:
            tally.add("rep", seed, rep)
        if any(rep is None for _, rep in reps[:len(seeds)]):
            print("error: a search seed crashed; no metrics", file=sys.stderr)
            return 1
        setups = [rep["setup_s"] for _, rep in reps if rep is not None]
        while len(setups) < SETUP_SAMPLES:
            gauge.sample()
            rep = run_rep(workload.name, seeds[0], setup_only=True)
            if rep is None:
                print("error: set-up crashed", file=sys.stderr)
                return 1
            setups.append(rep["setup_s"])
        print(f"probe mean {statistics.fmean(gauge.samples):.5f} s over "
              f"{len(gauge.samples)} probes; time scale {gauge.scale():.4f}")
        values = end_to_end(reps, setups, tally, gauge.scale(),
                            scale_run=not workload.workers)
        wanted = spec["end_to_end"]

    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
