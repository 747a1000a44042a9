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
"""

import hashlib

import pytest

from phmoea.cli import main

GOLDEN = {
    ("hdtlz2", "phmoea"): (
        "cf94e3576e4f59a8c7d84a9880dd365eb44ccdcfd79914e59bb35bf464520cbf",
        "5e49385a8dff49105843890d7ec49405c59ca3f2a6d0b666d416286f34703b96"),
    ("hdtlz2", "nsga2"): (
        "40c4fe269d4f1188fa127b5ef50bd5ad22f31a5d2e59c169c401c6e3e3a8a8e7",
        "087570993814e08e2bafbd7cf41611d29a653834ca3e1e39b532c27bb76d7179"),
    ("hdtlz7", "phmoea"): (
        "d2075b2ecfb3aef55e18b269ef414d9b6338986e6a1160afdc6df5a8710cda8d",
        "161aacf7ea1e40172e753764cc0ed2af4c7db7ab3d51ad4b7240bc0833f7b836"),
    ("hdtlz7", "nsga2"): (
        "8145dbe36c3475ab6ccf0ee56ec94f8034c59e9639782789acbc25e81f7595ba",
        "7552a91c23220ebc064f2f0357ad63672e9f749dfaf5861932ba737688cde8a4"),
    ("surrogate", "phmoea"): (
        "1259cd4bb013944e4ec145d8cf415c1aa7d93cdae82feefc9efc173426b95e81",
        "18d2d65df948bc76b2c2aa3f24526595d3024e866a7b64853b09d0e686469fc6"),
}

GOLDEN_CONFIGS = {
    ("hdtlz2", "phmoea"): (
        "96e04b7b4784d9e1dcc2c61222b140da55d6731309b932faaddb22ac738928dc",
        "f8ea2af90246b5b94de54578ecbff6ae8152f429bd291164c4ba7a50b9b91cfe"),
    ("hdtlz2", "nsga2"): (
        "8b6c670de29b702ab534ac4bf0a46a15860e02aef2794c60594c8ceb77fb6924",
        "304310426d8c7b456613fc6d468058c644672a7fa85f072e18c2c7a0f8a30ffc"),
    ("hdtlz7", "phmoea"): (
        "39c25c42d04a6327138ff3f8a4eada922af02e175b4510c487d921b63d641cb3",
        "1a918144622da97d1bffdff4fdb11476a853f34755d244c9200d536d4b11d70d"),
    ("hdtlz7", "nsga2"): (
        "0869e25ba9bdc5be562009647a789d1d77c95d61bdc64cb770de104ba0194950",
        "8970970604e850d82a945840e452c369115303dac9330312010b58dfb5b0d209"),
    ("surrogate", "phmoea"): (
        "430b178ce01d24602a688e99824c0f9791979230181f025b2ba6cdc2a05b9464",
        "90894af49d37cae74682c554b87789d99d5d68ca69a4a98f9d071d5eec7f1e47"),
}

GOLDEN_AT_SCALE = {
    ("hdtlz7", "nsga2"): (
        "aa21bd0d29190ae2d01618014e25ecf8dcaed82071db7c38a23e2018b4f44dd0",
        "b4f71cf5358a3301b7a955003a45ba26c2d2a9da0f26c142ef009d433279d565"),
    ("hdtlz2", "phmoea"): (
        "1edd1cfa6c7b2b203722210ca1833f7c11aec4a1af1c29d7720edbdb6213300f",
        "8849f080795b27dcf6c968029f73a30fbbd8c58991b8ff0c5ab524b09773e87a"),
    ("surrogate", "phmoea"): (
        "7a69159cacdfac361a5a4ce9b3a50c3669cfdc95ea4a1bf28e3ab6c3da1db0ee",
        "0e46ca86ba2b8712bcd1f5700abca8a723cf812d5a769978fb037b6cd5bd434f"),
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
