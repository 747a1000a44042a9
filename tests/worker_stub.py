"""Minimal line-delimited JSON evaluation worker for protocol tests.

Reads one request per line and answers one line. The first CLI argument
selects a behavior: ok, bad_id, report_error, garbage, not_object (valid
JSON that is not an object), not_utf8 (bytes that are not UTF-8), slow,
slow_first (slow on the first request only), jitter, exit_second (exits on
the second request without answering it), and bool_objectives,
string_objectives, bool_id, negative_id and nan_objectives, which answer the
second request (id 1) with ``"f1": true``, ``"f2": "<number>"``,
``"id": true``, ``"id": -1`` or ``"f1": NaN`` and every other request well.
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
        if MODE == "exit_second" and request["id"] == 1:
            return
        if MODE == "slow" or (MODE == "slow_first" and request["id"] == 0):
            time.sleep(5.0 if MODE == "slow" else 1.0)
        if MODE == "jitter":
            time.sleep((request["id"] % 3) * 0.04)
        if MODE == "garbage":
            print("not json at all", flush=True)
            continue
        if MODE == "not_object":
            print("5", flush=True)
            continue
        if MODE == "not_utf8":
            sys.stdout.buffer.write(b"\xff\xfe not utf-8\n")
            sys.stdout.buffer.flush()
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
        if request["id"] == 1:
            if MODE == "bool_objectives":
                reply["f1"] = True
            if MODE == "string_objectives":
                reply["f2"] = str(f2)
            if MODE == "bool_id":
                reply["id"] = True
            if MODE == "negative_id":
                reply["id"] = -1
            if MODE == "nan_objectives":
                reply["f1"] = float("nan")
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
