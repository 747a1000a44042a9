"""Deterministic computation-graph description of the bi-branch forecaster.

A decoded configuration instantiates a fixed-topology network: a per-timestep
input projection, three bi-branch 1D convolution layers (a short-kernel and a
long-kernel branch sharing channel widths), a configurable branch-fusion
operator, and a single linear head over the flattened fused sequence. Nothing
here is executable; the description exists to count trainable parameters
exactly and to export a model card for an external trainer.

Counting rules: convolutions and linear layers contribute weights plus biases;
normalization layers contribute their two affine vectors; fusion operators
contribute whatever projections their definitions introduce; activations,
dropout and pooling contribute nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .space import ConfigSpace, DecodedConfig

TARGETS = 5              # forecast targets of the built-in task
INPUT_WIDTH = 50         # input window length of the built-in task


@dataclass(frozen=True)
class TimeEmbedding:
    """Sample-level periodic time features.

    ``components`` is a list of (index, period) pairs; each contributes a
    sine/cosine pair, so the embedding dimension is twice the component count.
    """

    components: tuple[tuple[float, float], ...]

    @property
    def dim(self) -> int:
        return 2 * len(self.components)


def time_embedding(components) -> list[float]:
    """Concatenated (sin, cos) pair per (index, period) component."""
    out = []
    for tau, period in components:
        if not 0 <= tau <= period - 1:
            raise ValueError(f"time index {tau} outside [0, {period - 1}]")
        angle = 2.0 * math.pi * tau / period
        out.extend([math.sin(angle), math.cos(angle)])
    return out


def input_channels(source_channels, time_components: int) -> int:
    """Total input width: source channels plus the time-embedding width."""
    return sum(source_channels) + 2 * time_components


@dataclass(frozen=True)
class LayerCount:
    name: str
    count: int


@dataclass(frozen=True)
class NetworkSpec:
    """Structural description sufficient for parameter counting and export."""

    aligned_length: int
    input_width: int
    channels: tuple[int, int, int, int]      # projection width then 3 layers
    short_kernels: tuple[int, int, int]
    long_kernels: tuple[int, int, int]
    norm: str
    activation: str
    dropout: float
    fusion: str
    fusion_mode: str | None
    targets: int
    breakdown: tuple[LayerCount, ...]

    @property
    def fused_width(self) -> int:
        """Channel width after fusion (doubles for concatenating modes)."""
        return _fused_width(self.fusion, self.fusion_mode, self.channels[3])


def _fused_width(fusion: str, mode: str | None, c: int) -> int:
    if fusion == "concat":
        return 2 * c
    if fusion in ("weighting", "cross_mapping") and mode == "concat":
        return 2 * c
    return c


def _fusion_params(fusion: str, mode: str | None, c: int) -> int:
    if fusion in ("concat", "add"):
        return 0
    if fusion == "weighting":
        # scalar gate: weight vector over the pooled concatenation, no bias
        return 2 * c
    if fusion == "gating":
        return 2 * c * c + c
    if fusion == "attention":
        # query/key/value projections, no biases and no output projection
        return 3 * c * c
    if fusion == "cross_mapping":
        total = 2 * (c * c + c)
        if mode == "gated":
            total += 2 * c * c + c
        return total
    raise ValueError(f"unknown fusion operator {fusion!r}")


def build_graph(decoded: DecodedConfig, space: ConfigSpace, input_width: int,
                targets: int) -> NetworkSpec:
    """Instantiate the network description for a decoded configuration."""
    cfg = decoded.as_dict(space)
    required = ("aligned_length", "norm_layer", "proj_channels", "conv1_channels",
                "conv2_channels", "conv3_channels", "short_kernels", "long_kernels",
                "activation", "dropout", "fusion_op")
    missing = [name for name in required if name not in cfg]
    if missing:
        raise ValueError(f"configuration is missing active variables: {missing}")

    length = cfg["aligned_length"]
    channels = (cfg["proj_channels"], cfg["conv1_channels"],
                cfg["conv2_channels"], cfg["conv3_channels"])
    for k in tuple(cfg["short_kernels"]) + tuple(cfg["long_kernels"]):
        if k % 2 == 0:
            raise ValueError(f"kernel size {k} is even; length-preserving "
                             "padding (k-1)/2 needs odd kernels")
    fusion = cfg["fusion_op"]
    mode = cfg.get("weighting_mode") if fusion == "weighting" else None
    if fusion == "cross_mapping":
        mode = cfg.get("cross_mapping_mode")

    breakdown = [LayerCount("projection", input_width * channels[0] + channels[0])]
    for branch, kernels in (("short", cfg["short_kernels"]), ("long", cfg["long_kernels"])):
        total = 0
        prev = channels[0]
        for width, k in zip(channels[1:], kernels):
            total += prev * width * k + width   # conv weight + bias
            total += 2 * width                  # norm affine pair
            prev = width
        breakdown.append(LayerCount(f"{branch}_branch", total))
    breakdown.append(LayerCount("fusion", _fusion_params(fusion, mode, channels[3])))
    flat = length * _fused_width(fusion, mode, channels[3])
    breakdown.append(LayerCount("head", targets * flat + targets))

    return NetworkSpec(
        aligned_length=length,
        input_width=input_width,
        channels=channels,
        short_kernels=cfg["short_kernels"],
        long_kernels=cfg["long_kernels"],
        norm=cfg["norm_layer"],
        activation=cfg["activation"],
        dropout=cfg["dropout"],
        fusion=fusion,
        fusion_mode=mode,
        targets=targets,
        breakdown=tuple(breakdown),
    )


def count_params(spec: NetworkSpec) -> int:
    """Exact trainable-parameter count of the described network."""
    return sum(entry.count for entry in spec.breakdown)


def spec_to_json(spec: NetworkSpec) -> dict:
    """Model-card document for external evaluators."""
    return {
        "aligned_length": spec.aligned_length,
        "input_width": spec.input_width,
        "channels": list(spec.channels),
        "short_kernels": list(spec.short_kernels),
        "long_kernels": list(spec.long_kernels),
        # stride-1 convolutions with this padding keep the sequence length
        "short_paddings": [(k - 1) // 2 for k in spec.short_kernels],
        "long_paddings": [(k - 1) // 2 for k in spec.long_kernels],
        "norm": spec.norm,
        "activation": spec.activation,
        "dropout": spec.dropout,
        "fusion": spec.fusion,
        "fusion_mode": spec.fusion_mode,
        "targets": spec.targets,
        "fused_width": spec.fused_width,
        "head_input": spec.aligned_length * spec.fused_width,
        "layers": [{"name": e.name, "params": e.count} for e in spec.breakdown],
        "total_params": count_params(spec),
    }


def dump_model_card(spec: NetworkSpec) -> str:
    return json.dumps(spec_to_json(spec), indent=2)
