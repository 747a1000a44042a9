"""Deterministic computation-graph description of the bi-branch forecaster.

A configuration, read by variable name, instantiates a fixed-topology
network: a per-timestep input projection, three bi-branch 1D convolution
layers (a short-kernel and a long-kernel branch sharing channel widths), a
configurable branch-fusion operator, and a single linear head over the
flattened fused sequence. Nothing here is executable; ``build_graph`` returns
the description as a model card, a JSON-ready dict that counts trainable
parameters exactly and can be handed to an external trainer.

Counting rules, all in ``layer_counts``: convolutions and linear layers
contribute weights plus biases; normalization layers contribute their two
affine vectors; fusion operators contribute whatever projections their
definitions introduce; activations, dropout and pooling contribute nothing.
"""

from __future__ import annotations

from operator import itemgetter

TARGETS = 5              # forecast targets of the built-in task
INPUT_WIDTH = 50         # input window length of the built-in task


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


# variables layer_counts reads, in its argument order (the four channels in a row)
COUNTED = ("aligned_length", "proj_channels", "conv1_channels", "conv2_channels",
           "conv3_channels", "short_kernels", "long_kernels", "fusion_op")
# variables build_graph needs in every configuration
REQUIRED = COUNTED + ("norm_layer", "activation", "dropout")
# the variable that holds each fusion operator's mode
FUSION_MODE = {"weighting": "weighting_mode", "cross_mapping": "cross_mapping_mode"}


def layer_counts(length: int, channels, short_kernels, long_kernels, fusion: str,
                 mode: str | None, input_width: int, targets: int) -> dict[str, int]:
    """Parameter count per layer group, in the model card's ``layers`` order.

    ``channels`` is the projection width then the three layer widths."""
    counts = {"projection": input_width * channels[0] + channels[0]}
    for name, kernels in (("short_branch", short_kernels), ("long_branch", long_kernels)):
        total, prev = 0, channels[0]
        for width, k in zip(channels[1:], kernels):
            total += prev * width * k + width   # conv weight + bias
            total += 2 * width                  # norm affine pair
            prev = width
        counts[name] = total
    counts["fusion"] = _fusion_params(fusion, mode, channels[3])
    flat = length * _fused_width(fusion, mode, channels[3])
    counts["head"] = targets * flat + targets
    return counts


def build_graph(config: dict, input_width: int, targets: int) -> dict:
    """Model card of the network a name -> value configuration describes."""
    missing = [name for name in REQUIRED if name not in config]
    if missing:
        raise ValueError(f"configuration is missing active variables: {missing}")
    length, *channels, short, long, fusion = itemgetter(*COUNTED)(config)
    for k in tuple(short) + tuple(long):
        if k % 2 == 0:
            raise ValueError(f"kernel size {k} is even; length-preserving "
                             "padding (k-1)/2 needs odd kernels")
    mode = config.get(FUSION_MODE.get(fusion))     # None without a mode variable
    counts = layer_counts(length, channels, short, long, fusion, mode,
                          input_width, targets)
    fused_width = _fused_width(fusion, mode, channels[3])
    return {
        "aligned_length": length,
        "input_width": input_width,
        "channels": channels,
        "short_kernels": list(short),
        "long_kernels": list(long),
        # stride-1 convolutions with this padding keep the sequence length
        "short_paddings": [(k - 1) // 2 for k in short],
        "long_paddings": [(k - 1) // 2 for k in long],
        "norm": config["norm_layer"],
        "activation": config["activation"],
        "dropout": config["dropout"],
        "fusion": fusion,
        "fusion_mode": mode,
        "targets": targets,
        "fused_width": fused_width,
        "head_input": length * fused_width,
        "layers": [{"name": name, "params": n} for name, n in counts.items()],
        "total_params": sum(counts.values()),
    }


def count_params(card: dict) -> int:
    """Exact trainable-parameter count of the network ``card`` describes."""
    return card["total_params"]
