"""Evaluators: candidate configuration -> bi-objective value.

Three families share one contract: given a decoded configuration they return
an Evaluation holding it, (f1, f2) and, if it failed, a message saying why;
its ``key`` is read from the configuration, so no evaluator knows the key
format. They keep no counters: the engine's ``evaluated_keys`` counts every
dispatched candidate as one function evaluation, whatever its outcome.

* the analytic benchmark evaluator wraps a synthetic problem;
* the surrogate evaluator scores the full auto-configuration space without
  training: f2 is the exact parameter count and f1, a smooth stand-in for
  validation error that conflicts with f2, measures the distance to a hidden
  target its own ``WordStream`` draws. What never changes (penalties, target
  positions, network input positions) is tabled at construction;
* the external evaluator ships configurations to a worker process over
  line-delimited JSON and maps its replies.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import time
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .benchmarks import HBenchProblem
# build_graph and count_params stay importable here for perfbench/tracing.py
from .network import (COUNTED, FUSION_MODE, INPUT_WIDTH, REQUIRED, TARGETS,
                      build_graph, count_params, layer_counts)
from .rng import WordStream
from .space import ConfigSpace, DecodedConfig, RefinementState

OK = "ok"                   # a worker reply's success status


@dataclass(frozen=True)
class Evaluation:
    decoded: DecodedConfig      # the configuration f1/f2 answer
    f1: float
    f2: float
    message: str | None = None  # why the evaluation failed; None if it did not

    @property
    def key(self) -> int:
        return self.decoded.key

    @property
    def ok(self) -> bool:
        return self.message is None


def failed_evaluation(decoded: DecodedConfig, reason: Exception | str) -> Evaluation:
    """Failed ``Evaluation`` of ``decoded`` carrying the reason's text, even an empty one."""
    return Evaluation(decoded, math.nan, math.nan, str(reason))


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
        return Evaluation(decoded, f1, f2)


# ---------------------------------------------------------------------------
# Deterministic surrogate over the auto-configuration space
# ---------------------------------------------------------------------------

# Seed of the WordStream that draws the hidden optimum; fixed so surrogate
# searches are reproducible and documented as synthetic.
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
    hidden target, drawn by its own ``WordStream``, stays the unique f1 minimizer.

    Everything fixed is tabled once. f1 adds one term per active position:
    a discrete variable's penalty by candidate value, or ``(is_log, a or log a,
    span, target scale position)`` of a continuous one, whose value is read from
    the configuration since a run's refined bins are not the evaluator's.
    f2 sums ``layer_counts`` at positions found by name. A space with a
    configuration ``build_graph`` would reject is refused at construction.
    """

    def __init__(self, space: ConfigSpace, targets: int = TARGETS,
                 input_width: int = INPUT_WIDTH):
        self.targets = targets
        self.input_width = input_width
        rng = WordStream(SURROGATE_TARGET_SEED)
        state = RefinementState(space, initial_bins=6)
        self._terms = []
        for var, m, values in zip(space.variables, state.counts, state.values):
            lo = m // 2 if var.name in _UPPER_HALF else 0
            gene = lo + rng.below(m - lo)       # numpy's integers(lo, m)
            if var.is_continuous:
                log = var.scale == "log"
                a, b = map(math.log, var.bounds) if log else var.bounds
                target = ((math.log(values[gene]) if log else values[gene]) - a) / (b - a)
                self._terms.append((log, a, b - a, target))
            elif var.name in _ORDINAL:
                deltas = [(i - gene) / max(m - 1, 1) for i in range(m)]
                self._terms.append({c: d * d for c, d in zip(values, deltas)})
            else:
                offsets = [0.15 + (0.6 - 0.15) * ((rng.word() >> 11) * 2**-53)
                           for _ in range(m)]   # numpy's uniform(0.15, 0.6, size=m)
                offsets[gene] = 0.0
                self._terms.append(dict(zip(values, offsets)))
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
        for term, value in zip(self._terms, decoded.values):
            if value is None:
                continue
            if type(term) is tuple:
                log, a, span, target = term
                delta = ((math.log(value) if log else value) - a) / span - target
                total += delta * delta
            else:
                total += term[value]
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
        return Evaluation(decoded, f1, float(params))


# ---------------------------------------------------------------------------
# External worker protocol (line-delimited JSON over stdin/stdout)
# ---------------------------------------------------------------------------

MAX_REPLY_BYTES = 1 << 20     # a real reply is under 200 bytes
MAX_SELECT_WAIT_S = 86400.0   # select's wait is int64 ns: past about 9.2e9 s it overflows


def _is_number(value, kinds) -> bool:
    """JSON ``true``/``false`` decode to ``bool``, which subclasses ``int``."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class WorkerClient:
    """One worker process handling one request at a time.

    Request:  {"id": int, "config": {name: value, ...}, "targets": int}
    Response: {"id": int, "f1": float, "f2": float,
               "status": "ok"|"error", "msg": str (else "worker error")}
    A timeout, closed output, malformed reply, mismatched or non-integer id,
    objective that is not a JSON number or worker-reported error yields a failed
    Evaluation, which still consumed budget. One deadline covers writing the
    request and reading the reply; a late reply to a timed-out request is
    discarded, so a reply timeout fails only its own call. A call that loses the
    stream's position (request not fully written, write error, over-long line,
    end of output) sets ``broken``, and every later call fails at once with it.
    """

    def __init__(self, argv, space: ConfigSpace, targets: int = TARGETS,
                 timeout: float = 600.0):
        if not math.isfinite(timeout):      # every call needs a deadline
            raise ValueError(f"timeout must be finite, got {timeout}")
        self.space = space
        self.targets = targets
        self.timeout = timeout
        self.broken: str | None = None
        self._next_id = 0
        self._buffer = bytearray()
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        os.set_blocking(self._proc.stdin.fileno(), False)

    def _exchange(self, request: bytes, deadline: float) -> bytes | str:
        """Write ``request``, then read a reply line, by ``deadline``; or a str saying why not."""
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        unsent = memoryview(request)
        while not self.broken and (unsent or (end := self._buffer.find(b"\n")) < 0):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if not unsent:
                    return "timeout waiting for the worker's reply"
                self.broken = "timeout writing the request"
            elif not any(ready := select.select([stdout], [stdin] if unsent else [], [],
                                                min(remaining, MAX_SELECT_WAIT_S))):
                continue        # a capped wait ended before the deadline
            elif ready[1]:
                try:
                    unsent = unsent[os.write(stdin, unsent):]
                except OSError as exc:
                    self.broken = f"worker unreachable: {exc}"
            elif chunk := os.read(stdout, 65536):
                self._buffer += chunk
                if len(self._buffer) > MAX_REPLY_BYTES:
                    self.broken = f"reply line longer than {MAX_REPLY_BYTES} bytes"
            else:
                self.broken = "worker closed its output"
        if self.broken:
            return self.broken
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        return line

    def __call__(self, decoded: DecodedConfig) -> Evaluation:
        req_id = self._next_id
        self._next_id += 1
        request = (json.dumps({"id": req_id, "config": decoded.as_dict(self.space),
                               "targets": self.targets}) + "\n").encode("utf-8")
        deadline = time.monotonic() + self.timeout
        while True:
            line = self._exchange(request, deadline)
            request = b""       # discarding a late reply writes nothing
            if isinstance(line, str):
                return failed_evaluation(decoded, line)
            try:
                reply = json.loads(line.decode("utf-8"))
            except ValueError:      # not UTF-8 or not JSON
                reply = None
            if not isinstance(reply, dict):
                return failed_evaluation(decoded, "malformed response")
            reply_id = reply.get("id")
            if not (_is_number(reply_id, int) and 0 <= reply_id < req_id):
                break       # not a late reply to an earlier, timed-out request
        if not (_is_number(reply_id, int) and reply_id == req_id):
            return failed_evaluation(decoded, f"response id {reply_id!r} does not match {req_id}")
        if reply.get("status") != OK:
            msg = reply.get("msg")
            return failed_evaluation(decoded, msg if isinstance(msg, str) else "worker error")
        if not all(_is_number(reply.get(name), (int, float)) for name in ("f1", "f2")):
            return failed_evaluation(decoded, "response objective values missing or not numbers")
        f1, f2 = float(reply["f1"]), float(reply["f2"])
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return failed_evaluation(decoded, "non-finite objective values")
        return Evaluation(decoded, f1, f2)

    def close(self):
        """End the worker, live, exited or (killed at once) broken, and close both pipes."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=0 if self.broken else min(5.0, self.timeout))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class WorkerPool:
    """Each worker's thread takes candidates until its worker breaks; input order kept."""

    def __init__(self, clients: list[WorkerClient]):
        if not clients:
            raise ValueError("need at least one worker")
        self.clients = clients

    def evaluate_many(self, batch: list[DecodedConfig]) -> list[Evaluation]:
        from concurrent.futures import ThreadPoolExecutor  # imports logging: pool runs only
        todo = deque(enumerate(batch))
        results: list[Evaluation] = [None] * len(batch)

        def serve(client) -> None:
            while not getattr(client, "broken", None):
                try:
                    i, decoded = todo.popleft()
                except IndexError:
                    return
                results[i] = evaluate_safely(client, decoded)

        with ThreadPoolExecutor(max_workers=len(self.clients)) as executor:
            list(executor.map(serve, self.clients))
        for i, decoded in todo:
            results[i] = failed_evaluation(decoded, "every worker of the pool is broken")
        return results

    def close(self):
        for c in self.clients:
            c.close()
