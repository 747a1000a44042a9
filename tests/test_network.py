"""Network description and exact parameter counting tests.

The counting oracle here lists every weight tensor's shape explicitly and
sums element counts, independently of the breakdown arithmetic inside the
package.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from phmoea.network import build_graph, count_params, layer_counts
from phmoea.rng import WordStream
from phmoea.space import (RefinementState, builtin_space, decode,
                          repair, sample_random)

SPACE = builtin_space()
STATE = RefinementState(SPACE)


def decoded_from(**overrides):
    """Active name -> value mapping of the all-first-gene configuration with
    the named candidates overridden."""
    genes = [0] * 24
    for name, value in overrides.items():
        pos = SPACE.positions[name]
        genes[pos] = SPACE.variables[pos].candidates.index(value)
    g = repair(genes, STATE)
    return decode(g, STATE).as_dict(SPACE)


def breakdown(card: dict) -> dict[str, int]:
    return {layer["name"]: layer["params"] for layer in card["layers"]}


def worked_example(fusion="concat", **extra):
    return decoded_from(
        aligned_length=12, norm_layer="BatchNorm", proj_channels=16,
        conv1_channels=16, conv2_channels=32, conv3_channels=64,
        short_kernels=(3, 5, 7), long_kernels=(9, 11, 13),
        fusion_op=fusion, **extra)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate tensor shapes and sum element counts
# ---------------------------------------------------------------------------

def enumerate_tensor_shapes(cfg: dict, input_width: int, targets: int) -> list[tuple]:
    """Every trainable tensor of the described network, as a shape tuple."""
    shapes = []
    c0 = cfg["proj_channels"]
    shapes += [(c0, input_width), (c0,)]                 # projection
    widths = [c0, cfg["conv1_channels"], cfg["conv2_channels"], cfg["conv3_channels"]]
    for kernels in (cfg["short_kernels"], cfg["long_kernels"]):
        for layer in range(3):
            c_in, c_out, k = widths[layer], widths[layer + 1], kernels[layer]
            shapes += [(c_out, c_in, k), (c_out,)]       # conv weight + bias
            shapes += [(c_out,), (c_out,)]               # norm gamma + beta
    cf = widths[3]
    fusion = cfg["fusion_op"]
    out_width = cf
    if fusion == "concat":
        out_width = 2 * cf
    elif fusion == "weighting":
        shapes += [(2 * cf,)]
        if cfg["weighting_mode"] == "concat":
            out_width = 2 * cf
    elif fusion == "gating":
        shapes += [(cf, 2 * cf), (cf,)]
    elif fusion == "attention":
        shapes += [(cf, cf)] * 3
    elif fusion == "cross_mapping":
        shapes += [(cf, cf), (cf,), (cf, cf), (cf,)]
        if cfg["cross_mapping_mode"] == "gated":
            shapes += [(cf, 2 * cf), (cf,)]
        elif cfg["cross_mapping_mode"] == "concat":
            out_width = 2 * cf
    shapes += [(targets, cfg["aligned_length"] * out_width), (targets,)]
    return shapes


def oracle_count(cfg: dict, input_width: int, targets: int) -> int:
    return sum(math.prod(s) for s in enumerate_tensor_shapes(cfg, input_width, targets))


# ---------------------------------------------------------------------------
# Worked configuration
# ---------------------------------------------------------------------------

class TestWorkedExample:
    def test_concat_total(self):
        card = build_graph(worked_example(), input_width=50, targets=5)
        assert count_params(card) == 61397

    def test_concat_breakdown(self):
        card = build_graph(worked_example(), input_width=50, targets=5)
        assert breakdown(card) == {"projection": 816, "short_branch": 18000,
                                  "long_branch": 34896, "fusion": 0, "head": 7685}

    def test_add_head_and_total(self):
        card = build_graph(worked_example("add"), input_width=50, targets=5)
        assert breakdown(card)["head"] == 5 * 768 + 5 == 3845
        assert count_params(card) == 816 + 18000 + 34896 + 0 + 3845

    def test_attention_adds_three_projections(self):
        base = count_params(build_graph(worked_example("add"), 50, 5))
        attn = count_params(build_graph(worked_example("attention"), 50, 5))
        assert attn - base == 3 * 64 * 64 == 12288

    def test_concat_head_width(self):
        card = build_graph(worked_example(), 50, 5)
        assert card["fused_width"] == 2 * 64

    def test_add_head_width(self):
        card = build_graph(worked_example("add"), 50, 5)
        assert card["fused_width"] == 64


# ---------------------------------------------------------------------------
# Properties against the oracle
# ---------------------------------------------------------------------------

class TestCountingProperties:
    def test_breakdown_sums_to_total(self):
        rng = WordStream(2)
        for _ in range(30):
            decoded = decode(sample_random(STATE, rng), STATE)
            card = build_graph(decoded.as_dict(SPACE), 50, 5)
            assert count_params(card) == sum(breakdown(card).values())

    def test_matches_oracle_on_random_configs(self):
        rng = WordStream(4)
        for _ in range(40):
            decoded = decode(sample_random(STATE, rng), STATE)
            cfg = decoded.as_dict(SPACE)
            card = build_graph(cfg, 50, 5)
            assert count_params(card) == oracle_count(cfg, 50, 5)

    def test_monotone_in_channel_widths(self):
        base_cfg = dict(aligned_length=12, norm_layer="BatchNorm",
                        proj_channels=16, conv1_channels=16, conv2_channels=32,
                        conv3_channels=64, short_kernels=(3, 5, 7),
                        long_kernels=(9, 11, 13), fusion_op="concat")
        p0 = count_params(build_graph(decoded_from(**base_cfg), 50, 5))
        for name in ("proj_channels", "conv1_channels", "conv2_channels",
                     "conv3_channels"):
            var = next(v for v in SPACE.variables if v.name == name)
            start = var.candidates.index(base_cfg[name])
            for pos in range(start + 1, len(var.candidates)):
                bigger = dict(base_cfg, **{name: var.candidates[pos]})
                p1 = count_params(build_graph(decoded_from(**bigger), 50, 5))
                assert p1 >= p0

    def test_independent_of_training_dims(self):
        rng = WordStream(8)
        for _ in range(30):
            decoded = decode(sample_random(STATE, rng), STATE)
            cfg = decoded.as_dict(SPACE)
            arch = {k: cfg[k] for k in
                    ("aligned_length", "norm_layer", "proj_channels",
                     "conv1_channels", "conv2_channels", "conv3_channels",
                     "short_kernels", "long_kernels", "fusion_op")}
            if "weighting_mode" in cfg:
                arch["weighting_mode"] = cfg["weighting_mode"]
            if "cross_mapping_mode" in cfg:
                arch["cross_mapping_mode"] = cfg["cross_mapping_mode"]
            twin = decoded_from(activation="Tanh", loss_type="Huber",
                                batch_size=128, **arch)
            a = count_params(build_graph(cfg, 50, 5))
            b = count_params(build_graph(twin, 50, 5))
            assert a == b


FUSION_MODES = [("concat", None), ("add", None), ("weighting", "add"),
                ("weighting", "concat"), ("gating", None), ("attention", None),
                ("cross_mapping", "add"), ("cross_mapping", "concat"),
                ("cross_mapping", "gated")]


@pytest.mark.parametrize("fusion,mode", FUSION_MODES)
def test_layer_counts_total_matches_oracle(fusion, mode):
    rng = np.random.default_rng(5)
    names = ("aligned_length", "proj_channels", "conv1_channels", "conv2_channels",
             "conv3_channels", "short_kernels", "long_kernels")
    variables = {v.name: v for v in SPACE.variables}
    for _ in range(50):
        cfg = {name: variables[name].candidates[
            rng.integers(len(variables[name].candidates))] for name in names}
        cfg.update(fusion_op=fusion, weighting_mode=mode, cross_mapping_mode=mode)
        channels = tuple(cfg[name] for name in names[1:5])
        counts = layer_counts(cfg["aligned_length"], channels, cfg["short_kernels"],
                              cfg["long_kernels"], fusion, mode, 50, 5)
        assert list(counts) == ["projection", "short_branch", "long_branch",
                                "fusion", "head"]
        assert sum(counts.values()) == oracle_count(cfg, 50, 5)


class TestModelCard:
    def test_json_contains_layers_and_total(self):
        doc = build_graph(worked_example(), 50, 5)
        assert doc["total_params"] == 61397
        assert doc["head_input"] == 12 * 128
        assert [e["name"] for e in doc["layers"]] == [
            "projection", "short_branch", "long_branch", "fusion", "head"]

    def test_length_preserving_padding(self):
        # kernel 7 pads by 3, so the temporal length survives every layer
        doc = build_graph(worked_example(), 50, 5)
        assert doc["short_paddings"] == [1, 2, 3]
        assert doc["long_paddings"] == [4, 5, 6]
        assert doc["head_input"] == doc["aligned_length"] * doc["fused_width"]

    def test_only_the_chosen_fusion_reads_its_mode(self):
        config = worked_example("add")
        config.update(weighting_mode="concat", cross_mapping_mode="gated")
        assert build_graph(config, 50, 5)["fusion_mode"] is None
        for fusion, mode in (("weighting", "concat"), ("cross_mapping", "gated")):
            card = build_graph(dict(config, fusion_op=fusion), 50, 5)
            assert card["fusion_mode"] == mode

    def test_missing_variable_rejected(self):
        config = worked_example()
        # knocking out an architectural variable must fail loudly
        del config["proj_channels"]
        with pytest.raises(ValueError):
            build_graph(config, 50, 5)

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ValueError, match="unknown fusion operator 'sum'"):
            build_graph(worked_example() | {"fusion_op": "sum"}, 50, 5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel size 4 is even"):
            build_graph(worked_example() | {"short_kernels": (3, 4, 5)}, 50, 5)

    def test_card_bytes_over_random_configurations(self):
        # pins every key, value and its formatting, continuous values and
        # every fusion mode included, over three network sizes
        rng = WordStream(17)
        digest = hashlib.sha256()
        for _ in range(500):
            cfg = decode(sample_random(STATE, rng), STATE).as_dict(SPACE)
            for width, targets in ((50, 5), (7, 1), (128, 12)):
                card = build_graph(cfg, width, targets)
                digest.update(json.dumps(card, indent=2).encode())
        assert digest.hexdigest()[:16] == "5d97b388b248b8b0"
