"""Command-line interface tests: subcommands, outputs, determinism."""

import csv
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from phmoea.cli import (_PARAM_FLAGS, BENCH_HV_REFERENCE, PROBLEMS, RunManifest,
                        _build_parser, _manifest_from_args, cmd_search, main,
                        write_run_outputs)
from phmoea.engine import SearchParams, SearchProblem, run_phmoea
from phmoea.evaluators import SurrogateEvaluator, WorkerClient
from phmoea.network import INPUT_WIDTH, TARGETS
from phmoea.space import PLACEHOLDER, DecodedConfig, builtin_space, canonical_key


def run_cli(argv):
    return main(argv)


def decoded_from_config(space, config):
    """DecodedConfig of a written name -> value config (continuous ids unused)."""
    values, ids = [], []
    for var in space.variables:
        if var.name not in config:
            values.append(None)
            ids.append(PLACEHOLDER)
            continue
        value = config[var.name]
        value = tuple(value) if isinstance(value, list) else value
        values.append(value)
        ids.append(0 if var.is_continuous else var.candidates.index(value))
    return DecodedConfig(values=tuple(values), ids=tuple(ids))


def read_lines(path: Path) -> bytes:
    return path.read_bytes()


def small_search_args(out_dir, problem="hdtlz2", extra=()):
    return ["search", "--problem", problem, "--algo", "phmoea",
            "--pop", "12", "--gens", "6", "--seeds", "2",
            "--out", str(out_dir), *extra]


class TestSearch:
    def test_writes_run_directories_and_summary(self, tmp_path, capsys):
        assert run_cli(small_search_args(tmp_path / "a")) == 0
        for seed in (0, 1):
            run_dir = tmp_path / "a" / f"seed_{seed:03d}"
            assert (run_dir / "pareto_front.csv").exists()
            assert (run_dir / "history.csv").exists()
            assert (run_dir / "pareto_configs.json").exists()
            assert (run_dir / "manifest.json").exists()
        assert (tmp_path / "a" / "summary.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        assert run_cli(small_search_args(tmp_path / "x")) == 0
        assert run_cli(small_search_args(tmp_path / "y")) == 0
        for seed in (0, 1):
            for name in ("pareto_front.csv", "history.csv"):
                a = read_lines(tmp_path / "x" / f"seed_{seed:03d}" / name)
                b = read_lines(tmp_path / "y" / f"seed_{seed:03d}" / name)
                assert a == b

    def test_manifest_replay_reproduces(self, tmp_path):
        assert run_cli(small_search_args(tmp_path / "orig")) == 0
        manifest_path = tmp_path / "orig" / "seed_001" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["out_dir"] = str(tmp_path / "replay")
        replay = tmp_path / "manifest.json"
        replay.write_text(json.dumps(doc))
        assert run_cli(["search", "--manifest", str(replay)]) == 0
        a = read_lines(tmp_path / "orig" / "seed_001" / "pareto_front.csv")
        b = read_lines(tmp_path / "replay" / "seed_001" / "pareto_front.csv")
        assert a == b

    def test_summary_consistent_with_per_seed_rows(self, tmp_path):
        assert run_cli(small_search_args(tmp_path / "s")) == 0
        with open(tmp_path / "s" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        data = [r for r in rows if r["seed"] not in ("mean", "std")]
        mean = next(r for r in rows if r["seed"] == "mean")
        std = next(r for r in rows if r["seed"] == "std")
        igds = [float(r["igd"]) for r in data]
        hvs = [float(r["hv"]) for r in data]
        assert float(mean["igd"]) == pytest.approx(np.mean(igds), abs=1e-12)
        assert float(std["hv"]) == pytest.approx(np.std(hvs, ddof=1), abs=1e-12)

    def test_surrogate_smoke(self, tmp_path):
        code = run_cli(["search", "--problem", "surrogate", "--pop", "10",
                        "--gens", "4", "--out", str(tmp_path / "sur")])
        assert code == 0
        with open(tmp_path / "sur" / "seed_000" / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["igd"] == ""      # no reference front for the surrogate
        assert int(rows[-1]["fes"]) <= 10 * 4

    def test_unknown_problem_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["search", "--problem", "zdt1", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--pop", "--gens"])
    def test_zero_budget_is_usage_error(self, tmp_path, capsys, flag):
        code = run_cli(["search", "--problem", "hdtlz2", flag, "0",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, name", [
        (["--pc", "3"], "crossover_prob"),
        (["--pm", "-0.1"], "mutation_prob"),
        (["--q", "1.5"], "hot_fraction"),
        (["--p", "nan"], "cold_fraction"),
        (["--bins", "0"], "initial_bins"),
        (["--n-trial", "0"], "n_trial"),
        (["--window", "0", "--early-stop"], "window"),
        (["--refine-persistence", "0"], "refine_persistence"),
        (["--w", "5"], "error_weight"),
        (["--refine-mass", "-1"], "refine_mass"),
        (["--seed", "-1"], "seed"),
    ])
    def test_out_of_range_tunable_is_usage_error(self, tmp_path, capsys, flags, name):
        code = run_cli(["search", "--problem", "hdtlz2", "--pop", "6", "--gens", "3",
                        "--out", str(tmp_path), *flags])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_coupling_coefficient_is_usage_error(self, tmp_path, capsys, gamma):
        code = run_cli(["search", "--problem", "hdtlz7", "--pop", "6", "--gens", "3",
                        "--out", str(tmp_path), "--gamma", gamma])
        assert code == 2
        assert "coupling coefficient" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_nan_score_bonus_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["search", "--problem", "surrogate", "--pop", "10", "--gens", "5",
                        "--out", str(tmp_path), "--lambda", "nan"])
        assert code == 2
        assert "crowding_bonus must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [("--targets", "0"), ("--input-width", "-100")])
    def test_non_positive_network_size_is_usage_error(self, tmp_path, capsys, flag, value):
        code = run_cli(["search", "--problem", "surrogate", "--pop", "6", "--gens", "2",
                        "--out", str(tmp_path), flag, value])
        assert code == 2
        assert "at least 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field, value, named", [
        ("pop_size", "6", "pop_size"),
        ("params", {"window": "8"}, "params.window"),
        ("params", {"n_trial": True}, "params.n_trial"),
        ("params", {"stage_ratios": [[1.0], [1.0], [1.0]]}, "params.stage_ratios[0]"),
        ("params", [], "params"),
    ])
    def test_manifest_field_of_wrong_type_is_usage_error(self, tmp_path, capsys, field,
                                                         value, named):
        doc = {"problem": "surrogate", "pop_size": 6, "generations": 2,
               "out_dir": str(tmp_path / "out"), field: value}
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["search", "--manifest", str(bad)]) == 2
        assert f"manifest.{named}: expected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, named", [
        ("seed", -1, "seed"),
        ("params", {"sbx_eta": -1.0}, "sbx_eta"),
        ("params", {"max_mutated": 0}, "max_mutated"),
        ("params", {"stage_ratios": [[1.5, -0.5, 0.0]] * 3}, "stage_ratios"),
    ])
    def test_manifest_value_out_of_range_is_usage_error(self, tmp_path, capsys, field,
                                                        value, named):
        doc = {"problem": "hdtlz2", "pop_size": 6, "generations": 2,
               "out_dir": str(tmp_path / "out"), field: value}
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["search", "--manifest", str(bad)]) == 2
        assert f"{named} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_not_an_object_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps([["problem", "hdtlz2"]]))
        assert run_cli(["search", "--manifest", str(bad)]) == 2
        assert "manifest: expected dict" in capsys.readouterr().err

    def test_manifest_without_problem_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"algorithm": "nsga2", "out_dir": str(tmp_path / "out")}))
        assert run_cli(["search", "--manifest", str(bad)]) == 2
        assert "manifest.problem" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("problem", "hdtlz9"), ("algorithm", "moead")])
    def test_manifest_unknown_name_is_usage_error(self, tmp_path, capsys, field, value):
        doc = {"problem": "hdtlz2", "out_dir": str(tmp_path / "out"), field: value}
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["search", "--manifest", str(bad)]) == 2
        assert f"unknown {field} {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_search_without_problem_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["search", "--out", str(tmp_path / "out")]) == 2
        assert "--problem is required (or pass --manifest)" in capsys.readouterr().err

    def test_manifest_takes_an_int_for_a_float(self, tmp_path):
        doc = {"problem": "hdtlz2", "pop_size": 6, "generations": 2,
               "out_dir": str(tmp_path / "out"), "bench_gamma": 2,
               "params": {"cold_bonus": 1}}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        assert run_cli(["search", "--manifest", str(tmp_path / "m.json")]) == 0

    def test_invalid_manifest_field(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"problem": "hdtlz2", "bogus": 1}))
        assert run_cli(["search", "--manifest", str(bad)]) == 2

    def test_env_var_reroots_relative_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHMOEA_OUT_ROOT", str(tmp_path))
        code = run_cli(["search", "--problem", "hdtlz2", "--pop", "8",
                        "--gens", "3", "--out", "nested/runs"])
        assert code == 0
        assert (tmp_path / "nested" / "runs" / "seed_000" / "history.csv").exists()

    def test_pareto_configs_are_valid_json_with_active_vars(self, tmp_path):
        assert run_cli(small_search_args(tmp_path / "cfg")) == 0
        doc = json.loads(
            (tmp_path / "cfg" / "seed_000" / "pareto_configs.json").read_text())
        assert len(doc) >= 1
        for entry in doc:
            assert {"f1", "f2", "canonical_key", "config"} <= set(entry)
            assert "z1" in entry["config"]

    def test_pareto_configs_are_the_evaluated_configs(self, tmp_path):
        # Aggressive refinement splits bins every generation, so survivors'
        # bins are renumbered after they were evaluated.
        space = builtin_space()
        surrogate = SurrogateEvaluator(space)
        evaluated = {}

        def recording(decoded):
            evaluated[canonical_key(decoded.ids)] = json.loads(
                json.dumps(decoded.as_dict(space)))
            return surrogate(decoded)

        params = SearchParams.real_task()
        params.refine_mass, params.refine_persistence = 0.01, 1
        result = run_phmoea(SearchProblem(space=space, evaluator=recording),
                            20, 10, params=params, seed=0)
        write_run_outputs(tmp_path, {}, result, space)
        doc = json.loads((tmp_path / "pareto_configs.json").read_text())
        assert len(doc) == len(result.pareto)
        for entry in doc:
            config = entry["config"]
            assert config == evaluated[entry["canonical_key"]]
            again = surrogate(decoded_from_config(space, config))
            assert (again.f1, again.f2) == (entry["f1"], entry["f2"])

    def test_indicators_on_emitted_front(self, tmp_path, capsys):
        assert run_cli(small_search_args(tmp_path / "ind")) == 0
        front = tmp_path / "ind" / "seed_000" / "pareto_front.csv"
        code = run_cli(["indicators", "--front", str(front),
                        "--ref", str(front), "--r1", "1.1", "--r2", "1.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IGD 0.0000000" in out

    def test_nsga2_baseline_mode(self, tmp_path):
        code = run_cli(["search", "--problem", "hdtlz7", "--algo", "nsga2",
                        "--pop", "10", "--gens", "5", "--out", str(tmp_path / "n")])
        assert code == 0
        with open(tmp_path / "n" / "seed_000" / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[-1]["fes"]) <= 50
        manifest = json.loads(
            (tmp_path / "n" / "seed_000" / "manifest.json").read_text())
        assert manifest["algorithm"] == "nsga2"

    def test_benchmark_shape_flags(self, tmp_path):
        code = run_cli(["search", "--problem", "hdtlz2", "--pop", "8",
                        "--gens", "3", "--n", "6", "--gamma", "2.5",
                        "--topology", "tree", "--out", str(tmp_path / "t")])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "t" / "seed_000" / "manifest.json").read_text())
        assert (manifest["bench_n"], manifest["bench_gamma"],
                manifest["bench_topology"]) == (6, 2.5, "tree")

    def test_search_param_override_flags(self, tmp_path):
        code = run_cli(["search", "--problem", "hdtlz2", "--pop", "8",
                        "--gens", "3", "--w", "0.9", "--kappa1", "0.1",
                        "--kappa2", "0.5", "--out", str(tmp_path / "p")])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "p" / "seed_000" / "manifest.json").read_text())
        params = manifest["params"]
        assert params["error_weight"] == 0.9
        assert params["stage_early_end"] == 0.1
        assert params["stage_late_start"] == 0.5


class TestIndicators:
    def make_front(self, path: Path, pts):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f1", "f2"])
            writer.writerows(pts)

    def test_front_equal_ref_gives_zero_igd(self, tmp_path, capsys):
        u = np.linspace(0, 1, 50)
        pts = np.column_stack([np.cos(np.pi * u / 2), np.sin(np.pi * u / 2)])
        self.make_front(tmp_path / "f.csv", pts.tolist())
        assert run_cli(["indicators", "--front", str(tmp_path / "f.csv"),
                        "--ref", str(tmp_path / "f.csv")]) == 0
        out = capsys.readouterr().out
        assert "IGD 0.0000000" in out

    def test_dominating_point_covers_box(self, tmp_path, capsys):
        u = np.linspace(0, 1, 50)
        ref = np.column_stack([np.cos(np.pi * u / 2), np.sin(np.pi * u / 2)])
        self.make_front(tmp_path / "ref.csv", ref.tolist())
        self.make_front(tmp_path / "f.csv", [(0.0, 0.0)])
        assert run_cli(["indicators", "--front", str(tmp_path / "f.csv"),
                        "--ref", str(tmp_path / "ref.csv")]) == 0
        out = capsys.readouterr().out
        assert "HV 1.2100000" in out

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("f1,f2\n", "no data rows")])
    def test_front_without_data_is_usage_error(self, tmp_path, capsys, text, message):
        self.make_front(tmp_path / "ref.csv", [(0.0, 1.0), (1.0, 0.0)])
        (tmp_path / "f.csv").write_text(text)
        assert run_cli(["indicators", "--front", str(tmp_path / "f.csv"),
                        "--ref", str(tmp_path / "ref.csv")]) == 2
        assert f"f.csv: {message}" in capsys.readouterr().err

    def test_front_that_is_a_directory_is_runtime_failure(self, tmp_path, capsys):
        self.make_front(tmp_path / "ref.csv", [(0.0, 1.0), (1.0, 0.0)])
        assert run_cli(["indicators", "--front", str(tmp_path),
                        "--ref", str(tmp_path / "ref.csv")]) == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_row_shorter_than_header_is_usage_error(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("f1,f2\n0.1,0.9\n\n0.5\n")
        code = run_cli(["indicators", "--front", str(short), "--ref", str(short)])
        assert code == 2
        err = capsys.readouterr().err
        assert "short.csv: row 4 has 1 fields" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("side, name", [("front", "obtained"), ("ref", "reference")])
    def test_non_finite_coordinate_is_usage_error(self, tmp_path, capsys, bad, side, name):
        good, odd = tmp_path / "good.csv", tmp_path / "odd.csv"
        self.make_front(good, [(0.0, 1.0), (1.0, 0.0)])
        self.make_front(odd, [(0.0, 1.0), (0.1, bad)])
        files = {"front": good, "ref": good, side: odd}
        code = run_cli(["indicators", "--front", str(files["front"]),
                        "--ref", str(files["ref"])])
        assert code == 2
        assert f"{name} points must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--r1", "--r2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_reference_point_is_usage_error(self, tmp_path, capsys, flag, value):
        self.make_front(tmp_path / "f.csv", [(0.0, 1.0), (1.0, 0.0)])
        code = run_cli(["indicators", "--front", str(tmp_path / "f.csv"),
                        "--ref", str(tmp_path / "f.csv"), flag, value])
        assert code == 2
        out, err = capsys.readouterr()
        assert "reference point (--r1, --r2) must be finite" in err
        assert out == ""

    def test_missing_column_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows([["a", "b"], [1, 2]])
        code = run_cli(["indicators", "--front", str(bad), "--ref", str(bad)])
        assert code == 2
        assert "f1" in capsys.readouterr().err


class TestResampleCommand:
    def write_series(self, path: Path, values):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["v"])
            writer.writerows([[v] for v in values])

    def read_series(self, path: Path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            return [float(r[0]) for r in reader]

    def test_identity_when_length_matches(self, tmp_path):
        self.write_series(tmp_path / "in.csv", [1.0, 2.0, 3.0])
        code = run_cli(["resample", "--in", str(tmp_path / "in.csv"),
                        "--out", str(tmp_path / "out.csv"),
                        "--operator", "linear", "--length", "3"])
        assert code == 0
        assert self.read_series(tmp_path / "out.csv") == [1.0, 2.0, 3.0]

    def test_pool_requires_pool_flag(self, tmp_path, capsys):
        self.write_series(tmp_path / "in.csv", list(range(6)))
        code = run_cli(["resample", "--in", str(tmp_path / "in.csv"),
                        "--out", str(tmp_path / "out.csv"),
                        "--operator", "pool", "--length", "3"])
        assert code == 2

    def test_pool_avg_worked_example(self, tmp_path):
        self.write_series(tmp_path / "in.csv", [0, 1, 2, 3, 4, 5])
        code = run_cli(["resample", "--in", str(tmp_path / "in.csv"),
                        "--out", str(tmp_path / "out.csv"),
                        "--operator", "pool", "--pool", "avg", "--length", "3"])
        assert code == 0
        assert self.read_series(tmp_path / "out.csv") == [0.5, 2.5, 4.5]

    def test_unknown_operator_lists_candidates(self, tmp_path, capsys):
        self.write_series(tmp_path / "in.csv", [0, 1])
        code = run_cli(["resample", "--in", str(tmp_path / "in.csv"),
                        "--out", str(tmp_path / "out.csv"),
                        "--operator", "spline", "--length", "3"])
        assert code == 2
        assert "linear" in capsys.readouterr().err


    def test_row_width_other_than_the_header_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "in.csv").write_text("a,b,c\n1,2\n3,4\n")
        code = run_cli(["resample", "--in", str(tmp_path / "in.csv"),
                        "--out", str(tmp_path / "out.csv"),
                        "--operator", "linear", "--length", "2"])
        assert code == 2
        assert "in.csv: row 2 has 2 fields, the header 3" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestCountParams:
    def test_model_card_for_worked_config(self, tmp_path, capsys):
        config = {
            "resample_op": "linear", "aligned_length": 12, "batch_size": 16,
            "norm_layer": "BatchNorm", "proj_channels": 16,
            "conv1_channels": 16, "conv2_channels": 32, "conv3_channels": 64,
            "short_kernels": [3, 5, 7], "long_kernels": [9, 11, 13],
            "activation": "ReLU", "dropout": 0.1, "learning_rate": 1e-3,
            "weight_decay": 1e-5, "lr_schedule": "off", "loss_type": "MSE",
            "fusion_op": "concat",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["count-params", "--config", str(path)]) == 0
        card = json.loads(capsys.readouterr().out)
        assert card["total_params"] == 61397
        assert card["fusion"] == "concat"

    # sha256 prefixes of the cards count-params printed when it still snapped
    # the config onto genes and decoded it, for a config without continuous values
    CARD_DIGESTS = {"concat": "109580f33888a955", "add": "0cdd9ad03114f538",
                    "weighting": "1faacf0897d87ec0", "gating": "6f9b4123e341dbf6",
                    "attention": "be09dd515280b95d", "cross_mapping": "19dc4ba402691264"}

    @pytest.mark.parametrize("fusion", sorted(CARD_DIGESTS))
    def test_card_bytes_without_continuous_values(self, tmp_path, capsys, fusion):
        config = {
            "resample_op": "linear", "aligned_length": 12, "batch_size": 16,
            "norm_layer": "BatchNorm", "proj_channels": 16,
            "conv1_channels": 16, "conv2_channels": 32, "conv3_channels": 64,
            "short_kernels": [3, 5, 7], "long_kernels": [9, 11, 13],
            "activation": "ReLU", "lr_schedule": "off", "loss_type": "MSE",
            "fusion_op": fusion,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["count-params", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == self.CARD_DIGESTS[fusion]

    def test_card_echoes_the_given_dropout(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dropout": 0.33}))
        assert run_cli(["count-params", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["dropout"] == 0.33

    def test_unknown_names_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rat": 0.001, "fusion_opp": "gating",
                                    "dropout": 0.1}))
        assert run_cli(["count-params", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "['fusion_opp', 'learning_rat']" in captured.err and not captured.out

    @pytest.mark.parametrize("doc", [5, [["dropout", 0.1]]])
    def test_config_not_an_object_rejected(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["count-params", "--config", str(path)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--targets", "0"), ("--input-width", "-100")])
    def test_non_positive_network_size_rejected(self, tmp_path, capsys, flag, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resample_op": "linear"}))
        assert run_cli(["count-params", "--config", str(path), flag, value]) == 2
        captured = capsys.readouterr()
        assert "at least 1" in captured.err and not captured.out

    def test_invalid_candidate_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"norm_layer": "GroupNorm"}))
        assert run_cli(["count-params", "--config", str(path)]) == 2

    @pytest.mark.parametrize("value", [-1.0, "nan", float("inf")])
    def test_continuous_value_outside_bounds_rejected(self, tmp_path, capsys, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": value}))
        assert run_cli(["count-params", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "learning_rate" in captured.err and not captured.out

    @pytest.mark.parametrize("name, value", [("dropout", False), ("learning_rate", "0.001")])
    def test_continuous_value_of_another_json_type_rejected(self, tmp_path, capsys,
                                                             name, value):
        # float() takes both a bool and a numeric string; neither is a number
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: value}))
        assert run_cli(["count-params", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{name}: {value!r} is not a number" in captured.err and not captured.out

    def test_continuous_bounds_are_inclusive(self, tmp_path, capsys):
        lo, hi = next(var.bounds for var in builtin_space().variables
                      if var.name == "learning_rate")
        for value in (lo, hi):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"learning_rate": value}))
            assert run_cli(["count-params", "--config", str(path)]) == 0


def parse_search(*argv) -> RunManifest:
    return _manifest_from_args(_build_parser().parse_args(["search", *argv]))


class TestManifest:
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_cli_defaults_are_the_manifest_defaults(self, problem):
        assert parse_search("--problem", problem).resolved() == \
            RunManifest(problem=problem).resolved()

    @pytest.mark.parametrize("problem, budget", [
        ("hdtlz2", (100, 100)), ("hdtlz7", (100, 100)), ("surrogate", (50, 30))])
    def test_standard_budget_per_problem(self, problem, budget):
        manifest = RunManifest(problem=problem)
        assert (manifest.pop_size, manifest.generations) == budget
        manifest = RunManifest(problem=problem, pop_size=7, generations=3)
        assert (manifest.pop_size, manifest.generations) == (7, 3)

    @pytest.mark.parametrize("flag, name", sorted(_PARAM_FLAGS.items()))
    def test_param_flag_parses_to_its_field_type(self, flag, name):
        params = parse_search("--problem", "hdtlz2", f"--{flag}", "3").search_params()
        assert type(getattr(params, name)) is type(getattr(SearchParams(), name))
        assert getattr(params, name) == 3

    def test_flags_name_manifest_fields(self):
        manifest = parse_search("--problem", "hdtlz7", "--algo", "nsga2", "--pop", "8",
                                "--gens", "4", "--out", "o", "--n", "6", "--gamma", "2",
                                "--topology", "tree", "--input-width", "30",
                                "--no-early-stop", "--window", "4")
        assert (manifest.algorithm, manifest.pop_size, manifest.generations,
                manifest.out_dir, manifest.bench_n, manifest.bench_gamma,
                manifest.bench_topology, manifest.input_width) == \
            ("nsga2", 8, 4, "o", 6, 2.0, "tree", 30)
        assert manifest.params == {"early_stop": False, "window": 4}

    def test_defaults_outside_search_are_their_owners(self):
        assert (RunManifest.targets, RunManifest.input_width) == (TARGETS, INPUT_WIDTH)
        surrogate = inspect.signature(SurrogateEvaluator).parameters
        assert (surrogate["targets"].default, surrogate["input_width"].default) == \
            (TARGETS, INPUT_WIDTH)
        assert inspect.signature(WorkerClient).parameters["targets"].default == TARGETS
        card = _build_parser().parse_args(["count-params", "--config", "c.json"])
        assert (card.targets, card.input_width) == (TARGETS, INPUT_WIDTH)
        ind = _build_parser().parse_args(["indicators", "--front", "f", "--ref", "r"])
        assert (ind.r1, ind.r2) == BENCH_HV_REFERENCE

    def test_round_trip(self):
        manifest = RunManifest(problem="hdtlz7", pop_size=20, generations=10,
                               params={"error_weight": 0.5})
        doc = manifest.resolved()
        again = RunManifest.from_json(doc)
        assert again.problem == "hdtlz7"
        assert again.search_params().error_weight == 0.5

    def test_unknown_param_rejected(self):
        manifest = RunManifest(problem="hdtlz2", params={"nonsense": 1})
        with pytest.raises(ValueError):
            manifest.validate()
