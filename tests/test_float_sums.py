"""Seeded bytes must not depend on how the running Python sums floats.

From Python 3.12 the builtin ``sum`` of floats is compensated (Neumaier), so
a seeded value summed with it would differ between 3.11 and 3.12.
``compensated_sum`` models 3.12's ``sum``; with it patched in as the builtin,
the engine must still write the golden bytes, which shows they hold on every
Python the package supports.
"""

import builtins
import math

import pytest

from phmoea.cli import main
from phmoea.engine import SearchParams, archive_weights
from test_engine import bench_problem, individuals
from test_golden import GOLDEN, GOLDEN_CONFIGS, run_digest

real_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """Python 3.12's ``sum`` over float items from a float or int 0 start.

    Neumaier's summation: each addition's rounding error gathers in ``c``,
    which is added once at the end if it is finite and not zero. Any other
    input goes to the interpreter's own ``sum``.
    """
    items = list(iterable)
    floats = type(start) is float or (type(start) is int and start == 0)
    if not (items and floats and all(type(x) is float for x in items)):
        return real_sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_the_model_compensates_as_python_3_12_does():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([0.1] * 10, 0.0) == 1.0
    assert compensated_sum([1, 2]) == 3 and compensated_sum([]) == 0
    # float sums in order give what Python 3.11's sum gives
    total = 0.0
    for x in [0.1] * 10:
        total += x
    assert total == 0.9999999999999999


@pytest.mark.parametrize("problem,algo", sorted(GOLDEN))
def test_golden_runs_hold_under_a_compensated_sum(tmp_path, monkeypatch, problem, algo):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert main(["search", "--problem", problem, "--algo", algo, "--pop", "20",
                 "--gens", "10", "--seeds", "2", "--out", str(tmp_path)]) == 0
    run_dirs = [tmp_path / f"seed_{seed:03d}" for seed in (0, 1)]
    assert tuple(map(run_digest, run_dirs)) == GOLDEN[(problem, algo)]
    assert tuple(run_digest(d, ("pareto_configs.json",)) for d in run_dirs) == \
        GOLDEN_CONFIGS[(problem, algo)]


def test_front_means_add_in_order(monkeypatch):
    from phmoea.engine import _Run
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    run = _Run(bench_problem(n=4), 10, 1, SearchParams.benchmark(), 0, use_archives=True)
    run.population = individuals([(0.1, 1.0 - 0.1 * i) for i in range(10)])
    run._record(gen=1)
    assert run.history[0].mean_f1 == 0.9999999999999999 / 10


def test_archive_weights_add_in_order(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    pop = individuals([(0.5, 0.5)] * 10)
    for ind in pop:
        ind.rank = 9                    # early-stage score 1 / (1 + 9) == 0.1 each
    assert archive_weights(pop, 0.0, SearchParams()) == [0.1 / 0.9999999999999999] * 10
