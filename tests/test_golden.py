"""Golden pin: seeded short CLI runs must reproduce recorded digests.

Each ``GOLDEN`` digest is the SHA-256 of ``pareto_front.csv`` followed by
``history.csv`` of one seed's run directory at pop 20 x 10 generations;
``GOLDEN_CONFIGS`` pins that run directory's ``pareto_configs.json``.
``GOLDEN_AT_SCALE`` pins both digests of seed 0 at pop 40 x 30, where the
front fills the population: on H-DTLZ refinement ends with thousands of bins,
so IGD and bin renumbering run at the scale of a benchmark run, and on the
surrogate 1200 configurations go through the evaluator.
A change that moves a seeded trajectory fails here; re-pin only on purpose,
with the reason and the acceptance-protocol IGD/HV recorded in CHANGES.md.
The surrogate's log-scale bins are the one seeded float numpy's SIMD dispatch
once moved, so that pin is also checked with numpy's AVX-512 kernels off.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phmoea.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN = {
    ("hdtlz2", "phmoea"): (
        "39f7266514427585db8579a2dd98dff8bcd0bf7adb68631967a2b6f03485dd63",
        "88af841d1e9f04d67ec833fa37a5142f224683f8a8b4b99ea3508b6ec13a3277"),
    ("hdtlz2", "nsga2"): (
        "3b9974dc7a93da3fba78d276478c6688eb8df965a2f0f78fb5f724939825af8f",
        "133a6f095acd9eb63fa30a602ec77c01e0e987235d73941c7533677f14284fdf"),
    ("hdtlz7", "phmoea"): (
        "2e50dc03ad49858f5648f0f31e698ae401778c8d413044967804cb471cf9b48f",
        "3464ec56a37cc7a3a334f6acd656f2e8bf6582c2137dd4c4e7a6fb27088da195"),
    ("hdtlz7", "nsga2"): (
        "3ba1bbc8f83c7edcb79ebd762f62e75c1ea7708e5d7a392837bea23d03fe6998",
        "fd1a13f84c70b7ad4ccadfbf54bbb39d90c2900a58574d13486033e01bcc4506"),
    ("surrogate", "phmoea"): (
        "19dfab4a6f8419f58fca55becc0d3e8b303a59c0f343800757d1e07881ee95b0",
        "7bf0f380d023ddf0927f2f48a3ce917a3e3b1e20ad8803b6011e93abfa214845"),
}

GOLDEN_CONFIGS = {
    ("hdtlz2", "phmoea"): (
        "906a704edaa567ca9bf90166bc86eaa056b953b7972af66481473365c3d3b54a",
        "06d173464ea2cc7d5c7b0f31056be428a0371e3adcd8d1571a041a2f58aeb684"),
    ("hdtlz2", "nsga2"): (
        "6bc39cc67219af28a46776153ae7ba3d1ca98e6d7c44f14fee43f316d6253b5c",
        "72de9e48dca93ac71d4aadb051d8f34781cc4151c8cf6408a99a56230b66dbf0"),
    ("hdtlz7", "phmoea"): (
        "cb5ecebe5cad99a91823598f90556daca71feea00581ba791c61edf65018c617",
        "b561dab6f8d8e69529ba4e6d6a8dbe89b576b439e6f46ec2232ce8f9e4a32f3c"),
    ("hdtlz7", "nsga2"): (
        "5c82e7fcc4f73c3339bc6519d7f1e8bb5009aff4e746d128ad8cdd2a86275076",
        "704361067d9a41ea69e3b80708ddd24eb945c4a9c5e4b12ad736e06f632e7e91"),
    ("surrogate", "phmoea"): (
        "2864f9b20048cbbefd22ce13c9d207193337ccdcf4bee73dd803adab13c0b98c",
        "48fa46a0a298d9dfd00f75908204dfea525df33b4518c785b3fb239e85dd5457"),
}

GOLDEN_AT_SCALE = {
    ("hdtlz7", "nsga2"): (
        "92bd9fc80e788c525bd735c72e0a4de93e938de6e85fe8c0de8308ccae201c0f",
        "08e24383f682a6e632760047d60480ecd6d8761cd2540641a5298f80408a564d"),
    ("hdtlz2", "phmoea"): (
        "648feb663cdcfd9a7b08af0962f0e4fa439e74396626f3f37704c913a457863a",
        "0b95d192f1c037c6e2edca9ef6fdab2627eabcf68fe52c750a03c91f704bdab8"),
    ("surrogate", "phmoea"): (
        "f0765414c117ef91a2f6cbcc4a71d5d6906d050c9b746302e1c7fe1763f507e5",
        "e7fb2743373076478c67f17f1b5c8638c18252fc0ab6f0205538e0f464789b7a"),
}


def run_digest(run_dir, names=("pareto_front.csv", "history.csv")) -> str:
    sha = hashlib.sha256()
    for name in names:
        sha.update((run_dir / name).read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("problem,algo", sorted(GOLDEN))
def test_seeded_runs_match_golden_digests(tmp_path, problem, algo):
    assert main(["search", "--problem", problem, "--algo", algo, "--pop", "20",
                 "--gens", "10", "--seeds", "2", "--out", str(tmp_path)]) == 0
    run_dirs = [tmp_path / f"seed_{seed:03d}" for seed in (0, 1)]
    assert tuple(map(run_digest, run_dirs)) == GOLDEN[(problem, algo)]
    assert tuple(run_digest(d, ("pareto_configs.json",)) for d in run_dirs) == \
        GOLDEN_CONFIGS[(problem, algo)]


@pytest.mark.parametrize("problem,algo", sorted(GOLDEN_AT_SCALE))
def test_seeded_runs_at_scale_match_golden_digests(tmp_path, problem, algo):
    assert main(["search", "--problem", problem, "--algo", algo, "--pop", "40",
                 "--gens", "30", "--seeds", "1", "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "seed_000"
    assert (run_digest(run_dir), run_digest(run_dir, ("pareto_configs.json",))) == \
        GOLDEN_AT_SCALE[(problem, algo)]


def test_surrogate_at_scale_without_avx512_matches_golden_digests(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    done = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-m", "phmoea.cli", "search",
         "--problem", "surrogate", "--algo", "phmoea", "--pop", "40", "--gens", "30",
         "--seeds", "1", "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    at = done.stderr.find("NPY_DISABLE_CPU_FEATURES")
    if at >= 0:         # numpy's ImportWarning, raised by -W error
        pytest.skip("numpy refuses to disable X86_V4 here: " + " ".join(done.stderr[at:].split()))
    assert done.returncode == 0, done.stderr
    run_dir = tmp_path / "seed_000"
    assert (run_digest(run_dir), run_digest(run_dir, ("pareto_configs.json",))) == \
        GOLDEN_AT_SCALE[("surrogate", "phmoea")]
