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
    "hdtlz7-nsga2": "eb04a42dff75aa95c5e10226da348fd35286b46afb2b7c739d42f3c83594521e",
    "surrogate-phmoea": "9a97179f4e3d83fc590c83b020b5294244c8589331745797635705a50df403a1",
    "worker-pool": "201ab6e1ca208dd87d86390bad390e33e6c2e1f9e86127e9a3dbee22f8e550b5",
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
