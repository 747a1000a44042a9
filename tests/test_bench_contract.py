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

# ``digest`` of seed 0 (SHA-256 of pareto_front.csv + history.csv): pins byte
# identity at benchmark scale, where refinement reaches about 2300 bins, and on
# the WorkerPool path, which no golden pin covers.
DIGESTS = {
    "hdtlz7-nsga2": "0fceca4a99c2dcb091a677bed46fdc0e0755d9da1fde4902cd5a40630d84506c",
    "surrogate-phmoea": "75c275a80fbd109209b415a3df7453601224b062f2c4ed1ced6764b6fceb153a",
    "worker-pool": "68633b113ee1831d4d8547ecca67f81a0cb90cd0281bb885113945cfbc9b0372",
}


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
    assert report["digest"] == DIGESTS[workload]
