"""Golden pin: seeded short CLI runs must reproduce recorded digests.

Each ``GOLDEN`` digest is the SHA-256 of ``pareto_front.csv`` followed by
``history.csv`` of one seed's run directory at pop 20 x 10 generations;
``GOLDEN_CONFIGS`` pins that run directory's ``pareto_configs.json``.
``GOLDEN_AT_SCALE`` pins both digests of seed 0 at pop 40 x 30, where the
front fills the population and refinement ends with thousands of bins, so
IGD and bin renumbering run at the scale of a benchmark run.
A change that moves a seeded trajectory fails here; re-pin only on purpose,
with the reason and the acceptance-protocol IGD/HV recorded in CHANGES.md.
"""

import hashlib

import pytest

from phmoea.cli import main

GOLDEN = {
    ("hdtlz2", "phmoea"): (
        "5e3091a5acbde96e08326f7700b39ecdc7023e97dc6be343a154d8877d8fb731",
        "30af39ceb338277e656ee7c7682d72177e2d42040947461094dcd4e993393a9c"),
    ("hdtlz2", "nsga2"): (
        "993891cc59289a0998620a1e71b523bd0eb9b401f20e48646a7c5e204661c48c",
        "1add5a24b0839e3b5da31665d28f75b1f1ddabb288f5f49bd2c3745b529bcacd"),
    ("hdtlz7", "phmoea"): (
        "1b348d81f7fe3763f2dbeb5f62a1d7bf074f80217e90457df4c862243aa5876d",
        "2fa9949dbe96554ffe67065289bcdde9f45438a4cbe2d5873c0eb106ce3c263c"),
    ("hdtlz7", "nsga2"): (
        "384e534bd874839693e42a9630a7cd2b88bedc7b7613391e2c6da8ae5817dee3",
        "6839857c198df9c90cb12f978e6fe4418f41916f57c397aa8f980fb004c8867d"),
    ("surrogate", "phmoea"): (
        "1259cd4bb013944e4ec145d8cf415c1aa7d93cdae82feefc9efc173426b95e81",
        "18d2d65df948bc76b2c2aa3f24526595d3024e866a7b64853b09d0e686469fc6"),
}

GOLDEN_CONFIGS = {
    ("hdtlz2", "phmoea"): (
        "34a17e4ea85bb110998007a06a012228926640dcb023a32e3884cc0dc95f3660",
        "d42db88fa42154e2c0e1cc0da187e87b80b480ce1f7d0f58ee7219558b71f99e"),
    ("hdtlz2", "nsga2"): (
        "1ed292b32c9926303854701a47c15369f2f521c9b122bfb40a8771e57630c223",
        "ff376cb7de6244ebbff5a1575f67670b449c006b9c532d66028a85662dbf1f4f"),
    ("hdtlz7", "phmoea"): (
        "6668f4b61b5c92a119620e7344235c2c544b5652196c599c97fcb01c93cbf8a1",
        "4c321aa14cb8fb638c62fe60890f7f9793cfaf0c4b8a76803c9b6592b1eb2802"),
    ("hdtlz7", "nsga2"): (
        "634351c82799c2fa9d3c97fec7291bb5eaadf59e09b0eb6dd5ded28026f66027",
        "b7a5881bc0591f44971b3e8d0dfeeb7ba00eb4a457313379938c5e06988f2780"),
    ("surrogate", "phmoea"): (
        "430b178ce01d24602a688e99824c0f9791979230181f025b2ba6cdc2a05b9464",
        "90894af49d37cae74682c554b87789d99d5d68ca69a4a98f9d071d5eec7f1e47"),
}

GOLDEN_AT_SCALE = {
    ("hdtlz7", "nsga2"): (
        "4c2568bc276cefbfcabbdfc58725fa07d9ceb044ffb96dfd98c3d63d9407e565",
        "e18bed5d54ac92eaaacc38abf562968ad3b1d4616717e9fb70d5d661f11e7a19"),
    ("hdtlz2", "phmoea"): (
        "ca3da88bb59a4ff46fd3b8d9f6e3a10ee7a9e74c7ec3c2580ede959ee817d467",
        "b63215259ce17cb19fd7b27fb3675d62ed1aa504aca8dd253c0087114910364c"),
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
