"""Evaluators: candidate configuration -> bi-objective value.

Three families share one contract: given a decoded configuration they return
an Evaluation with (f1, f2) and a status flag, and every dispatched call
counts as one function evaluation regardless of outcome.

* the analytic benchmark evaluator wraps a synthetic problem;
* the surrogate evaluator scores the full auto-configuration space without
  training: f2 is the exact parameter count and f1 is a deterministic smooth
  stand-in for validation error that genuinely conflicts with f2;
* the external evaluator ships configurations to a worker process over
  line-delimited JSON and maps its replies.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from .benchmarks import HBenchProblem
from .network import build_graph, count_params
from .space import ConfigSpace, DecodedConfig, RefinementState, canonical_key

OK = "ok"
ERROR = "error"


@dataclass(frozen=True)
class Evaluation:
    key: int
    f1: float
    f2: float
    status: str = OK
    wall_time: float = 0.0
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


class BenchmarkEvaluator:
    """Analytic objectives of a synthetic hierarchical benchmark."""

    def __init__(self, problem: HBenchProblem):
        self.problem = problem
        self.calls = 0

    def __call__(self, decoded: DecodedConfig) -> Evaluation:
        self.calls += 1
        start = time.perf_counter()
        f1, f2 = self.problem.objectives(decoded)
        return Evaluation(key=canonical_key(decoded), f1=f1, f2=f2,
                          wall_time=time.perf_counter() - start)


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


def _scale_pos(var, value: float) -> float:
    """Value mapped to [0, 1] within the variable's range, in scale space."""
    a, b = var.bounds
    if var.scale == "log":
        return (math.log(value) - math.log(a)) / (math.log(b) - math.log(a))
    return (value - a) / (b - a)


class SurrogateEvaluator:
    """Training-free objective pair over the full configuration space.

    f2 is the exact trainable-parameter count. f1 is the squared mismatch of
    active ordinal/continuous features against a hidden target configuration,
    plus a fixed offset per wrong categorical candidate, minus a mild reward
    that grows with log-parameter count. Larger models therefore buy f1 down
    slightly, which guarantees a genuine error/complexity trade-off, while the
    hidden target remains the unique f1 minimizer.
    """

    def __init__(self, space: ConfigSpace, targets: int = 5, input_width: int = 50):
        self.space = space
        self.targets = targets
        self.input_width = input_width
        self.calls = 0
        rng = np.random.default_rng(SURROGATE_TARGET_SEED)
        state = RefinementState(space, initial_bins=6)
        self._target_gene = {}
        self._target_value = {}
        self._offsets = {}
        for var in space.variables:
            m = state.choice_count(var)
            lo = m // 2 if var.name in _UPPER_HALF else 0
            gene = int(rng.integers(lo, m))
            self._target_gene[var.index] = gene
            if var.is_continuous:
                self._target_value[var.index] = state.representative(var.index, gene)
            elif var.name not in _ORDINAL:
                offsets = rng.uniform(0.15, 0.6, size=m)
                offsets[gene] = 0.0
                self._offsets[var.index] = offsets

    def mismatch(self, decoded: DecodedConfig) -> float:
        total = 0.0
        for i, var in enumerate(self.space.variables):
            if not decoded.active[i]:
                continue
            if var.is_continuous:
                delta = _scale_pos(var, decoded.values[i]) - _scale_pos(
                    var, self._target_value[var.index])
                total += delta * delta
            elif var.name in _ORDINAL:
                span = len(var.candidates) - 1
                delta = (decoded.ids[i] - self._target_gene[var.index]) / span
                total += delta * delta
            else:
                total += float(self._offsets[var.index][decoded.ids[i]])
        return total

    def __call__(self, decoded: DecodedConfig) -> Evaluation:
        self.calls += 1
        start = time.perf_counter()
        spec = build_graph(decoded, self.space, self.input_width, self.targets)
        params = count_params(spec)
        level = (math.log(params) - _LOG_P_LO) / (_LOG_P_HI - _LOG_P_LO)
        level = min(max(level, 0.0), 1.0)
        f1 = self.mismatch(decoded) + CAPACITY_WEIGHT * (1.0 - level)
        return Evaluation(key=canonical_key(decoded), f1=f1, f2=float(params),
                          wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# External worker protocol (line-delimited JSON over stdin/stdout)
# ---------------------------------------------------------------------------

class WorkerClient:
    """One worker process handling one request at a time.

    Request:  {"id": int, "config": {name: value, ...}, "targets": int}
    Response: {"id": int, "f1": float, "f2": float,
               "status": "ok"|"error", "msg": optional}
    A timeout, malformed reply, mismatched id or worker-reported error yields
    an error Evaluation; the engine discards the candidate but the dispatch
    still consumed budget. A late reply to an earlier, timed-out request is
    read and discarded, so one timeout fails only its own request.
    """

    def __init__(self, argv, space: ConfigSpace, targets: int = 5,
                 timeout: float = 600.0):
        self.space = space
        self.targets = targets
        self.timeout = timeout
        self.calls = 0
        self._next_id = 0
        self._buffer = b""
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)

    def _read_line(self, deadline: float) -> str | None:
        """Next response line before ``deadline``, bypassing stream buffering."""
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8")

    def __call__(self, decoded: DecodedConfig) -> Evaluation:
        self.calls += 1
        key = canonical_key(decoded)
        req_id = self._next_id
        self._next_id += 1
        start = time.perf_counter()

        def fail(msg: str) -> Evaluation:
            return Evaluation(key=key, f1=math.nan, f2=math.nan, status=ERROR,
                              wall_time=time.perf_counter() - start, message=msg)

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
            if line is None:
                return fail("timeout or closed stream")
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                return fail("malformed response")
            if not (isinstance(reply.get("id"), int) and reply["id"] < req_id):
                break       # not a late reply to an earlier, timed-out request
        if reply.get("id") != req_id:
            return fail(f"response id {reply.get('id')} does not match {req_id}")
        if reply.get("status") != OK:
            return fail(str(reply.get("msg", "worker error")))
        try:
            f1, f2 = float(reply["f1"]), float(reply["f2"])
        except (KeyError, TypeError, ValueError):
            return fail("response missing objective values")
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return fail("non-finite objective values")
        return Evaluation(key=key, f1=f1, f2=f2,
                          wall_time=time.perf_counter() - start)

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class WorkerPool:
    """Round-robin dispatch over several workers, results in input order."""

    def __init__(self, clients: list[WorkerClient]):
        if not clients:
            raise ValueError("need at least one worker")
        self.clients = clients
        self.calls = 0

    def evaluate_many(self, batch: list[DecodedConfig]) -> list[Evaluation]:
        self.calls += len(batch)
        results: list[Evaluation | None] = [None] * len(batch)

        def drain(worker_pos: int):
            for i in range(worker_pos, len(batch), len(self.clients)):
                results[i] = self.clients[worker_pos](batch[i])

        threads = [threading.Thread(target=drain, args=(w,))
                   for w in range(len(self.clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results  # type: ignore[return-value]

    def close(self):
        for c in self.clients:
            c.close()
