"""Cost-model evaluation worker for the ``worker-pool`` workload.

Speaks the line-delimited JSON protocol of ``phmoea.evaluators.WorkerClient``
on stdin/stdout. Each request "trains" for a time that grows with the
configuration's convolution widths (about 1 to 41 ms), then answers with
objectives computed from the configuration alone. A fixed share of
configurations, chosen by a hash of the configuration, reports
``training diverged`` instead. Everything but the sleep is deterministic, so
the benchmark can recompute every reply it expects.

Run standalone with ``python3 perfbench/stub_worker.py``; it exits when its
stdin closes.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time

DIVERGED = "training diverged"
ERROR_MODULUS = 40                     # one configuration in 40 diverges
WIDTH_MIN, WIDTH_MAX = 8 + 16 + 32, 64 + 128 + 256
SLEEP_MIN_S, SLEEP_SPAN_S = 0.001, 0.040


def _width(config: dict) -> int:
    return (config["conv1_channels"] + config["conv2_channels"]
            + config["conv3_channels"])


def training_seconds(config: dict) -> float:
    share = (_width(config) - WIDTH_MIN) / (WIDTH_MAX - WIDTH_MIN)
    return SLEEP_MIN_S + SLEEP_SPAN_S * share


def diverges(config: dict) -> bool:
    """True for the deterministic share of configurations that fail."""
    text = json.dumps(config, sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % ERROR_MODULUS == 0


def objectives(config: dict) -> tuple[float, float]:
    """Validation-error stand-in falling with width; cost rising with it."""
    width = _width(config)
    f1 = (1.0 / (1.0 + width / 64.0)
          + 0.05 * (math.log10(config["learning_rate"]) + 3.0) ** 2
          + 0.2 * config["dropout"])
    f2 = float(width * config["aligned_length"])
    return f1, f2


def reply(request: dict) -> dict:
    config = request["config"]
    if diverges(config):
        return {"id": request["id"], "status": "error", "msg": DIVERGED}
    f1, f2 = objectives(config)
    return {"id": request["id"], "status": "ok", "f1": f1, "f2": f2}


def main() -> None:
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        time.sleep(training_seconds(request["config"]))
        print(json.dumps(reply(request)), flush=True)


if __name__ == "__main__":
    main()
