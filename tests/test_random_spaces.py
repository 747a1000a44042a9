"""Search invariants on random hierarchical spaces with a failing evaluator.

Each trial builds a space from ``random.Random(trial)``: 1-14 dimensions,
discrete or continuous (linear or log scale, spans from 1e-9 to 1e6), with
conditional chains and parents of several children. Both algorithms search it
twice at pop 2-16 x 1-8 generations against an evaluator that fails 0-40% of
candidates, by raising or by returning nan, and every run keeps the engine's
invariants.
"""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from phmoea.cli import write_run_outputs
from phmoea.engine import SearchParams, SearchProblem, _Run
from phmoea.evaluators import Evaluation
from phmoea.space import (CONTINUOUS, DISCRETE, ConfigSpace, RefinementState,
                          VariableSpec, activity, canonical_key, decode, repair)

TRIALS = 60


def random_space(rnd: random.Random) -> ConfigSpace:
    variables, parents = [], []         # parents: (name, candidates) of discrete dims
    for index in range(1, rnd.randint(1, 14) + 1):
        parent = None
        if parents and rnd.random() < 0.5:
            # the last two discrete dims: chains, and parents with several children
            pname, cands = rnd.choice(parents[-2:])
            parent = (pname, tuple(rnd.sample(cands, rnd.randint(1, len(cands)))))
        if rnd.random() < 0.5:
            cands = tuple(rnd.sample(range(100), rnd.randint(1, 6)))
            variables.append(VariableSpec(f"d{index}", DISCRETE, candidates=cands,
                                          parent=parent))
            parents.append((f"d{index}", cands))
        else:
            scale = rnd.choice(("linear", "log"))
            lo = 10.0 ** rnd.uniform(-3, 3) if scale == "log" else rnd.uniform(-1e3, 1e3)
            variables.append(VariableSpec(f"c{index}", CONTINUOUS,
                                          bounds=(lo, lo + 10.0 ** rnd.uniform(-9, 6)),
                                          scale=scale, parent=parent))
    return ConfigSpace(tuple(variables))


class FailingEvaluator:
    """Objectives drawn from the key; a share ``fail`` of keys fails, half by
    raising and half by returning nan. Records each configuration it sees."""

    def __init__(self, space: ConfigSpace, fail: float):
        self.space, self.fail = space, fail
        self.seen: dict[int, list[dict]] = {}

    def __call__(self, decoded) -> Evaluation:
        key = decoded.key
        self.seen.setdefault(key, []).append(decoded.as_dict(self.space))
        u = (key % 10_000) / 10_000
        if u < self.fail / 2:
            raise RuntimeError("injected failure")
        if u < self.fail:
            return Evaluation(decoded, math.nan, math.nan)
        return Evaluation(decoded, *objectives(key))


def mask(decoded) -> tuple[bool, ...]:
    """Activity per dimension: None marks an inactive value."""
    return tuple(v is not None for v in decoded.values)


def objectives(key: int) -> tuple[float, float]:
    return (key >> 32) / 2**32, (key & 0xFFFF_FFFF) / 2**32


def search(space, algo, pop, gens, params, seed, fail, out):
    """One run, its evaluator and the bytes it wrote; no result if it collapsed."""
    evaluator = FailingEvaluator(space, fail)
    run = _Run(SearchProblem(space=space, evaluator=evaluator), pop, gens, params,
               seed, use_archives=algo == "phmoea")
    try:
        result = run.run()
    except RuntimeError as exc:         # fewer than two first-generation survivors
        assert "initial population collapsed" in str(exc)
        return run, None, evaluator, {}
    write_run_outputs(out, {}, result, space)
    return run, result, evaluator, {p.name: p.read_bytes() for p in out.iterdir()}


def check_run(run, result, evaluator, written, pop, gens):
    space, state = run.space, run.state
    # each key reaches the evaluator once, and the budget holds
    assert all(len(configs) == 1 for configs in evaluator.seen.values())
    assert sorted(evaluator.seen) == sorted(map(canonical_key, run.registry.keys))
    assert len(run.registry.keys) <= pop * gens
    for ind in run.population:
        # the kept vector stays repaired and keeps the evaluated activity,
        # after refinement too
        assert repair(ind.kept, state) == ind.kept
        active = activity(ind.kept, space)
        assert mask(decode(ind.kept, state)) == active == mask(ind.decoded)
    for pos in space.continuous_indices():
        var, points = space.variables[pos], state.grids[pos][0]
        assert np.all(np.diff(points) > 0)
        if var.scale == "linear":
            assert (points[0], points[-1]) == var.bounds
        else:
            assert np.exp([points[0], points[-1]]) == pytest.approx(var.bounds, rel=1e-12)
    if result is None:
        return
    # each front member's written configuration is the one it was evaluated on
    front = json.loads(written["pareto_configs.json"])
    assert len(front) == len(result.pareto) > 0
    for entry in front:
        key = entry["canonical_key"]
        assert entry["config"] == json.loads(json.dumps(evaluator.seen[key][0]))
        assert (entry["f1"], entry["f2"]) == objectives(key)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_decode_masks_exactly_the_inactive_dimensions(trial):
    rnd = random.Random(trial)
    space = random_space(rnd)
    state = RefinementState(space, initial_bins=rnd.randint(1, 8))
    for _ in range(50):
        kept = repair([rnd.randint(-2, 9) for _ in range(len(space))], state)
        assert mask(decode(kept, state)) == activity(kept, space)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_random_space_invariants(trial, tmp_path):
    rnd = random.Random(trial)
    space = random_space(rnd)
    fail = rnd.uniform(0.0, 0.4)
    params = replace(rnd.choice((SearchParams.benchmark(), SearchParams.real_task())),
                     initial_bins=rnd.randint(1, 8))
    for algo in ("phmoea", "nsga2"):
        pop, gens = rnd.randint(2, 16), rnd.randint(1, 8)
        first, second = (search(space, algo, pop, gens, params, trial, fail,
                                tmp_path / f"{algo}_{n}") for n in (0, 1))
        check_run(*first, pop, gens)
        # replay is exact: the same keys in the same order, the same bytes written
        (run_a, _, _, written_a), (run_b, _, _, written_b) = first, second
        assert list(run_a.registry.keys) == list(run_b.registry.keys)
        assert run_a.history == run_b.history
        assert [i.kept for i in run_a.population] == [i.kept for i in run_b.population]
        assert written_a == written_b
