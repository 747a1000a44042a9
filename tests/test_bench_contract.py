"""Each gated benchmark workload runs through ``perfbench/rep.py`` and passes its checks.

``rep.py`` sets a workload up through the public API, runs one search and
checks what it reads of the result (``RunResult.fes``, ``generations``,
``evaluated_keys``, ``Individual.key``, the pool's ``Evaluation`` replies).
A change to those names or to their meaning breaks the benchmark; these tests
make it break here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", GATED)
def test_rep_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "rep.py"), "--workload", workload,
         "--seed", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failures"] == []
    assert report["fes"] > 0
