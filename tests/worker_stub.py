"""Minimal line-delimited JSON evaluation worker for protocol tests.

Reads one request per line and answers one line. The first CLI argument
selects a behavior: ok, bad_id, report_error, garbage, slow, slow_first
(slow on the first request only), jitter.
"""

import json
import sys
import time

MODE = sys.argv[1] if len(sys.argv) > 1 else "ok"


def objectives(config: dict) -> tuple[float, float]:
    dropout = float(config.get("dropout", 0.0))
    width = float(config.get("conv3_channels", 32))
    return round(dropout * 2.0, 6), width * 1000.0


def main() -> None:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        if MODE == "slow" or (MODE == "slow_first" and request["id"] == 0):
            time.sleep(5.0 if MODE == "slow" else 1.0)
        if MODE == "jitter":
            time.sleep((request["id"] % 3) * 0.04)
        if MODE == "garbage":
            print("not json at all", flush=True)
            continue
        reply = {"id": request["id"], "status": "ok"}
        if MODE == "bad_id":
            reply["id"] = request["id"] + 1000
        if MODE == "report_error":
            reply["status"] = "error"
            reply["msg"] = "training diverged"
            print(json.dumps(reply), flush=True)
            continue
        f1, f2 = objectives(request["config"])
        reply.update(f1=f1, f2=f2)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
