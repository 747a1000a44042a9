"""Evaluators: candidate configuration -> bi-objective value.

Three families share one contract: given a decoded configuration they return
an Evaluation with (f1, f2), a status flag and, on error, a message. They keep
no counters: the engine's ``evaluated_keys`` counts every dispatched candidate
as one function evaluation, whatever its outcome.

* the analytic benchmark evaluator wraps a synthetic problem;
* the surrogate evaluator scores the full auto-configuration space without
  training: f2 is the exact parameter count and f1 is a deterministic smooth
  stand-in for validation error that genuinely conflicts with f2. What never
  changes (penalty per candidate, target position per continuous variable,
  positions of the network's inputs) is tabled at construction;
* the external evaluator ships configurations to a worker process over
  line-delimited JSON and maps its replies.
"""

from __future__ import annotations

import json
import math
import os
import queue
import select
import subprocess
import time
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

import numpy as np

from .benchmarks import HBenchProblem
# build_graph and count_params stay importable here for perfbench/tracing.py
from .network import (COUNTED, FUSION_MODE, INPUT_WIDTH, REQUIRED, TARGETS,
                      build_graph, count_params, layer_counts)
from .space import ConfigSpace, DecodedConfig, RefinementState

OK = "ok"
ERROR = "error"


@dataclass(frozen=True)
class Evaluation:
    key: int
    f1: float
    f2: float
    status: str = OK
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


def failed_evaluation(decoded: DecodedConfig, exc: Exception) -> Evaluation:
    """Error ``Evaluation`` of ``decoded`` carrying the exception text."""
    return Evaluation(key=decoded.key, f1=math.nan, f2=math.nan, status=ERROR,
                      message=str(exc))


def evaluate_safely(evaluator, decoded: DecodedConfig) -> Evaluation:
    """``evaluator(decoded)``; an exception fails this candidate alone."""
    try:
        return evaluator(decoded)
    except Exception as exc:
        return failed_evaluation(decoded, exc)


class BenchmarkEvaluator:
    """Analytic objectives of a synthetic hierarchical benchmark."""

    def __init__(self, problem: HBenchProblem):
        self.problem = problem

    def __call__(self, decoded: DecodedConfig) -> Evaluation:
        f1, f2 = self.problem.objectives(decoded)
        return Evaluation(key=decoded.key, f1=f1, f2=f2)


# ---------------------------------------------------------------------------
# Deterministic surrogate over the auto-configuration space
# ---------------------------------------------------------------------------

# Seed of the hidden optimum; fixed so surrogate searches are reproducible
# and documented as synthetic.
SURROGATE_TARGET_SEED = 20240917

# Dims whose hidden-target draw is biased to the upper candidate half so the
# capacity bonus can never outweigh a single mismatch penalty.
_UPPER_HALF = ("aligned_length", "proj_channels", "conv1_channels",
               "conv2_channels", "conv3_channels")

_ORDINAL = ("aligned_length", "batch_size", "proj_channels", "conv1_channels",
            "conv2_channels", "conv3_channels", "short_kernels", "long_kernels",
            "loss_weights", "loss_weight_lr")

CAPACITY_WEIGHT = 0.08
_LOG_P_LO = math.log(1e4)
_LOG_P_HI = math.log(4e6)


class SurrogateEvaluator:
    """Training-free objective pair over the full configuration space.

    f2 is the exact trainable-parameter count. f1 is the squared mismatch of
    active ordinal/continuous features against a hidden target configuration,
    plus a fixed offset per wrong categorical candidate, minus a mild reward
    that grows with log-parameter count. Larger models therefore buy f1 down
    slightly, which guarantees a genuine error/complexity trade-off, while the
    hidden target remains the unique f1 minimizer.

    Everything fixed is tabled once. f1 adds one term per active position:
    per-candidate penalties of a discrete variable, or ``(is_log, a or log a,
    span, target scale position)`` of a continuous one, whose value is read from
    the configuration since a run's refined bins are not the evaluator's.
    f2 sums ``layer_counts`` at positions found by name. A space with a
    configuration ``build_graph`` would reject is refused at construction.
    """

    def __init__(self, space: ConfigSpace, targets: int = TARGETS,
                 input_width: int = INPUT_WIDTH):
        self.targets = targets
        self.input_width = input_width
        rng = np.random.default_rng(SURROGATE_TARGET_SEED)
        state = RefinementState(space, initial_bins=6)
        self._terms = []
        for var, m, values in zip(space.variables, state.counts, state.values):
            lo = m // 2 if var.name in _UPPER_HALF else 0
            gene = int(rng.integers(lo, m))
            if var.is_continuous:
                log = var.scale == "log"
                a, b = map(math.log, var.bounds) if log else var.bounds
                target = ((math.log(values[gene]) if log else values[gene]) - a) / (b - a)
                self._terms.append((log, a, b - a, target))
            elif var.name in _ORDINAL:
                self._terms.append([d * d for d in ((i - gene) / max(m - 1, 1) for i in range(m))])
            else:
                offsets = rng.uniform(0.15, 0.6, size=m)
                offsets[gene] = 0.0
                self._terms.append(offsets.tolist())
        at = space.positions
        for name in REQUIRED:
            if name not in at or space.variables[at[name]].is_conditional:
                raise ValueError(f"{name}: build_graph needs it active in every configuration")
        for name in ("short_kernels", "long_kernels"):
            for c in space.variables[at[name]].candidates:
                if not (isinstance(c, tuple) and all(k % 2 for k in c)):
                    raise ValueError(f"{name}: candidate {c!r} is not a tuple of odd sizes")
        self._counted = itemgetter(*(at[name] for name in COUNTED))
        self._mode_at = {fusion: at[name] for fusion, name in FUSION_MODE.items()
                         if name in at}

    def mismatch(self, decoded: DecodedConfig) -> float:
        total = 0.0
        for term, gene, value in compress(
                zip(self._terms, decoded.ids, decoded.values), decoded.active):
            if type(term) is tuple:
                log, a, span, target = term
                delta = ((math.log(value) if log else value) - a) / span - target
                total += delta * delta
            else:
                total += term[gene]
        return total

    def __call__(self, decoded: DecodedConfig) -> Evaluation:
        length, *channels, short, long, fusion = self._counted(decoded.values)
        mode_at = self._mode_at.get(fusion)
        mode = None if mode_at is None else decoded.values[mode_at]
        params = sum(layer_counts(length, channels, short, long, fusion, mode,
                                  self.input_width, self.targets).values())
        level = (math.log(params) - _LOG_P_LO) / (_LOG_P_HI - _LOG_P_LO)
        level = min(max(level, 0.0), 1.0)
        f1 = self.mismatch(decoded) + CAPACITY_WEIGHT * (1.0 - level)
        return Evaluation(key=decoded.key, f1=f1, f2=float(params))


# ---------------------------------------------------------------------------
# External worker protocol (line-delimited JSON over stdin/stdout)
# ---------------------------------------------------------------------------

def _is_number(value, kinds) -> bool:
    """JSON ``true``/``false`` decode to ``bool``, which subclasses ``int``."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class WorkerClient:
    """One worker process handling one request at a time.

    Request:  {"id": int, "config": {name: value, ...}, "targets": int}
    Response: {"id": int, "f1": float, "f2": float,
               "status": "ok"|"error", "msg": optional}
    A timeout, closed output, malformed reply, mismatched id, id that is not a
    JSON integer, objective that is not a JSON number or worker-reported error yields
    an error Evaluation; the engine discards the candidate but the dispatch
    still consumed budget. A late reply to an earlier, timed-out request is
    read and discarded, so one timeout fails only its own request.
    """

    def __init__(self, argv, space: ConfigSpace, targets: int = TARGETS,
                 timeout: float = 600.0):
        self.space = space
        self.targets = targets
        self.timeout = timeout
        self._next_id = 0
        self._buffer = b""
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)

    def _read_line(self, deadline: float) -> bytes | str:
        """Next response line before ``deadline`` (bypassing stream buffering),
        or a str saying why none came."""
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return "timeout waiting for the worker's reply"
            chunk = os.read(fd, 65536)
            if not chunk:
                return "worker closed its output"
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def __call__(self, decoded: DecodedConfig) -> Evaluation:
        key = decoded.key
        req_id = self._next_id
        self._next_id += 1

        def fail(msg: str) -> Evaluation:
            return Evaluation(key=key, f1=math.nan, f2=math.nan, status=ERROR, message=msg)

        request = {"id": req_id, "config": decoded.as_dict(self.space),
                   "targets": self.targets}
        try:
            self._proc.stdin.write((json.dumps(request) + "\n").encode("utf-8"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            return fail(f"worker unreachable: {exc}")

        deadline = time.monotonic() + self.timeout
        while True:
            line = self._read_line(deadline)
            if isinstance(line, str):
                return fail(line)
            try:
                reply = json.loads(line.decode("utf-8"))
            except ValueError:      # not UTF-8 or not JSON
                reply = None
            if not isinstance(reply, dict):
                return fail("malformed response")
            reply_id = reply.get("id")
            if not (_is_number(reply_id, int) and 0 <= reply_id < req_id):
                break       # not a late reply to an earlier, timed-out request
        if not (_is_number(reply_id, int) and reply_id == req_id):
            return fail(f"response id {reply_id!r} does not match {req_id}")
        if reply.get("status") != OK:
            return fail(str(reply.get("msg", "worker error")))
        if not all(_is_number(reply.get(name), (int, float)) for name in ("f1", "f2")):
            return fail("response objective values missing or not numbers")
        f1, f2 = float(reply["f1"]), float(reply["f2"])
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return fail("non-finite objective values")
        return Evaluation(key=key, f1=f1, f2=f2)

    def close(self):
        """End the worker, live or already exited, and close both pipes."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class WorkerPool:
    """Each candidate goes to the first free worker; results in input order."""

    def __init__(self, clients: list[WorkerClient]):
        if not clients:
            raise ValueError("need at least one worker")
        self.clients = clients

    def evaluate_many(self, batch: list[DecodedConfig]) -> list[Evaluation]:
        from concurrent.futures import ThreadPoolExecutor  # imports logging: pool runs only
        idle: queue.SimpleQueue[WorkerClient] = queue.SimpleQueue()
        for client in self.clients:
            idle.put(client)

        def dispatch(decoded: DecodedConfig) -> Evaluation:
            client = idle.get()
            try:
                return evaluate_safely(client, decoded)
            finally:
                idle.put(client)

        with ThreadPoolExecutor(max_workers=len(self.clients)) as executor:
            return list(executor.map(dispatch, batch))

    def close(self):
        for c in self.clients:
            c.close()
