"""Sequence alignment operators: map a T x F series to a fixed length.

Six operators cover the usual down/upsampling families. All of them act
per feature column, preserve constants (smoothing kernels are normalized to
unit sum and boundaries use reflective padding), and share the continuous-time
coordinate u_t = t * (T - 1) / (L - 1) for t = 0..L-1. Downsampling semantics
apply when T exceeds the target length; otherwise the operator's upsampling
rule is used. A length-1 input degenerates to repetition for every operator.
"""

from __future__ import annotations

import numpy as np

OPERATORS = ("linear", "decimate_repeat", "hybrid", "pool", "conv_blurpool", "fir_lowpass")
POOL_TYPES = ("avg", "max", "median", "weighted")

BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
MEAN_KERNEL_WIDTH = 3     # post-interpolation smoothing for fir upsampling
MAX_FIR_TAPS = 63


def _coords(n_in: int, n_out: int) -> np.ndarray:
    return np.arange(n_out) * (n_in - 1) / (n_out - 1)


def _nearest(u: np.ndarray, n_in: int) -> np.ndarray:
    return np.clip(np.floor(u + 0.5).astype(int), 0, n_in - 1)


def _convolve_reflect(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Column-wise convolution with reflective boundary padding."""
    half = len(kernel) // 2
    n = x.shape[0]
    padded = np.pad(x, ((half, half), (0, 0)), mode="reflect")
    out = np.zeros_like(x, dtype=float)
    for j, w in enumerate(kernel):
        out += w * padded[j:j + n]
    return out


def _linear(x: np.ndarray, length: int) -> np.ndarray:
    t_in = x.shape[0]
    u = _coords(t_in, length)
    lo = np.floor(u).astype(int)
    lam = (u - lo)[:, None]
    hi = np.minimum(lo + 1, t_in - 1)
    return (1.0 - lam) * x[lo] + lam * x[hi]


def _repeat(x: np.ndarray, length: int) -> np.ndarray:
    t_in = x.shape[0]
    q, s = divmod(length, t_in)
    counts = np.full(t_in, q)
    counts[:s] += 1
    return np.repeat(x, counts, axis=0)


def _decimate(x: np.ndarray, length: int) -> np.ndarray:
    return x[_nearest(_coords(x.shape[0], length), x.shape[0])]


def _moving_average3(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    if x.shape[0] >= 3:
        out[1:-1] = (x[:-2] + x[1:-1] + x[2:]) / 3.0
    return out


def _pool_bounds(t_in: int, length: int) -> np.ndarray:
    return (np.arange(length + 1) * t_in) // length


def _pool(x: np.ndarray, length: int, pool_type: str) -> np.ndarray:
    bounds = _pool_bounds(x.shape[0], length)
    rows = []
    for t in range(length):
        seg = x[bounds[t]:bounds[t + 1]]
        if pool_type == "avg":
            rows.append(seg.mean(axis=0))
        elif pool_type == "max":
            rows.append(seg.max(axis=0))
        elif pool_type == "median":
            rows.append(np.median(seg, axis=0))
        elif seg.shape[0] == 1:  # weighted over one sample
            rows.append(seg[0])
        else:  # weighted: triangular weights, uniform over two samples
            m = seg.shape[0]
            alpha = np.ones(m) if m == 2 else 1.0 - np.abs(2.0 * np.arange(m) / (m - 1) - 1.0)
            rows.append((alpha[:, None] * seg).sum(axis=0) / alpha.sum())
    return np.stack(rows, axis=0)


def _fir_kernel(t_in: int, length: int) -> np.ndarray:
    """Hamming-windowed sinc low-pass sized to the decimation factor."""
    cutoff = 0.5 * length / t_in
    taps = 2 * int(np.ceil(2.0 / cutoff)) + 1
    taps = min(taps, t_in, MAX_FIR_TAPS)
    if taps % 2 == 0:
        taps -= 1
    m = np.arange(taps) - (taps - 1) / 2.0
    kernel = 2.0 * cutoff * np.sinc(2.0 * cutoff * m)
    kernel *= np.hamming(taps)
    return kernel / kernel.sum()


def align(x: np.ndarray, length: int, operator: str, pool_type: str | None = None) -> np.ndarray:
    """Resample a T x F series (or 1-D series) to the target length.

    ``pool_type`` selects the interval aggregator and is required exactly when
    ``operator == "pool"``.
    """
    if length < 2:
        raise ValueError("target length must be at least 2")
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator {operator!r}; choose from {OPERATORS}")
    if operator == "pool":
        if pool_type is None:
            raise ValueError("operator 'pool' requires a pool_type")
        if pool_type not in POOL_TYPES:
            raise ValueError(f"unknown pool_type {pool_type!r}; choose from {POOL_TYPES}")

    arr = np.asarray(x, dtype=float)
    one_dim = arr.ndim == 1
    if one_dim:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("input must be a T x F matrix with T >= 1, F >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input contains non-finite values")

    t_in = arr.shape[0]
    down = t_in > length
    if t_in == 1:
        out = np.repeat(arr, length, axis=0)
    elif operator == "linear":
        out = _linear(arr, length)
    elif operator == "decimate_repeat":
        out = _decimate(arr, length) if down else _repeat(arr, length)
    elif operator == "hybrid":
        out = _moving_average3(_decimate(arr, length)) if down else _linear(arr, length)
    elif operator == "pool":
        out = _pool(arr, length, pool_type) if down else _repeat(arr, length)
    elif operator == "conv_blurpool":
        if down:
            out = _decimate(_convolve_reflect(arr, BLUR_KERNEL), length)
        else:
            out = _convolve_reflect(_linear(arr, length), BLUR_KERNEL)
    else:  # fir_lowpass
        if down:
            out = _decimate(_convolve_reflect(arr, _fir_kernel(t_in, length)), length)
        else:
            mean_kernel = np.full(MEAN_KERNEL_WIDTH, 1.0 / MEAN_KERNEL_WIDTH)
            out = _convolve_reflect(_linear(arr, length), mean_kernel)

    return out[:, 0] if one_dim else out
