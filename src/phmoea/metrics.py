"""Quality indicators, reference-front merging, forecast metrics and losses.

Indicators operate on bi-objective point sets under minimization. Hypervolume
uses the exact 2-D sweep; inverted generational distance averages, over the
reference front, the distance to the nearest obtained point.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

EPS = 1e-8
WINDOW_SLACK = 1e-12        # relative widening of igd's f1 windows


def _points(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected an (n, 2) point set")
    return arr


def front_ranks(points) -> np.ndarray:
    """0-based non-domination rank of every point; equal points share a rank.

    One sweep in lexicographic (f1, f2) order (Jensen, IEEE TEVC 7(5), 2003).
    Each front keeps the key (lowest f2, f1 of the first member to reach it),
    which sorts below a later point's (f2, f1) exactly when the front
    dominates it. Keys rise front by front, so bisection finds the point's.
    """
    pts = _points(points)
    xs, ranks, keys = pts.tolist(), [0] * len(pts), []
    for i in np.lexsort((pts[:, 1], pts[:, 0])).tolist():
        key = (xs[i][1], xs[i][0])
        rank = ranks[i] = bisect_left(keys, key)
        keys[rank:rank + 1] = [key]         # a new front, or its new key
    return np.array(ranks, dtype=np.int64)


def nondominated_mask(points) -> np.ndarray:
    """Boolean mask of points not strictly dominated by any other point."""
    return front_ranks(points) == 0


def igd(obtained, reference) -> float:
    """Mean distance from each reference point to its nearest obtained point."""
    a = _points(obtained)
    ref = _points(reference)
    if len(a) == 0 or len(ref) == 0:
        raise ValueError("point sets must be non-empty")
    for name, pts in (("obtained", a), ("reference", ref)):
        if not np.isfinite(pts).all():
            raise ValueError(f"{name} points must be finite (got nan or inf)")
    # sqrt is monotone and correctly rounded: one root after the min, same bits
    return float(np.sqrt(_nearest_squared(a, ref)).mean())


def _nearest_squared(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Each reference point's least squared distance to ``a``, bit-exact.

    Its f1 neighbours in ``a`` bound it by ``bound``; only points whose f1 lies
    within the bound's root ``r``, widened by a relative slack far above the
    rounding of ``rx - r`` and ``rx + r``, are measured. The minimum folds in
    ``bound``, one pair's distance, so a window may hold one point too many.
    """
    ax, ay = a[np.argsort(a[:, 0], kind="stable")].T
    rx, ry = ref.T
    j = np.searchsorted(ax, rx)
    near = np.minimum(np.maximum(j - [[1], [0]], 0), len(ax) - 1)   # left, right
    dx, dy = rx - ax[near], ry - ay[near]
    bound = (dx * dx + dy * dy).min(axis=0)
    reach = np.sqrt(bound) * (1 + WINDOW_SLACK) + np.abs(rx) * WINDOW_SLACK
    lo, hi = np.searchsorted(ax, (rx - reach, rx + reach))
    count = np.maximum(hi - lo, 1)          # reduceat needs non-empty segments
    start = np.cumsum(count) - count
    idx = np.arange(start[-1] + count[-1]) + np.repeat(np.minimum(lo, len(ax) - 1) - start, count)
    dx, dy = np.repeat(rx, count) - ax[idx], np.repeat(ry, count) - ay[idx]
    return np.minimum(bound, np.minimum.reduceat(dx * dx + dy * dy, start))


def hv(obtained, reference_point) -> float:
    """Dominated hypervolume bounded by the reference point (2-D sweep).

    Points that do not strictly dominate the reference point contribute
    nothing. In (f1, f2) order a point is on the front when its f2 is below
    every earlier one (a repeated point's strip would have zero width); the
    strips are summed left to right.
    """
    pts = _points(obtained)
    r1, r2 = float(reference_point[0]), float(reference_point[1])
    pts = pts[(pts[:, 0] < r1) & (pts[:, 1] < r2)]
    if len(pts) == 0:
        return 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    f2 = pts[:, 1]
    keep = np.append(True, f2[1:] < np.minimum.accumulate(f2)[:-1])
    f1, f2 = pts[keep, 0], f2[keep]
    widths = np.append(f1[1:], r1) - f1
    return float(np.cumsum(widths * (r2 - f2))[-1])


def merged_reference_front(point_sets) -> np.ndarray:
    """Union of the given sets, duplicate-free and filtered to non-dominated."""
    sets = [_points(s) for s in point_sets]
    if not sets:
        raise ValueError("need at least one point set")
    merged = np.unique(np.vstack(sets), axis=0)
    return merged[nondominated_mask(merged)]


# ---------------------------------------------------------------------------
# Forecast error metrics
# ---------------------------------------------------------------------------

def forecast_metrics(y_true, y_pred, target_std) -> dict:
    """Per-target MSE/MAE/MAPE plus overall normalized aggregates.

    ``target_std`` holds one ground-truth standard deviation per target; the
    normalized aggregates divide each target's error by its variance (NMSE)
    or standard deviation (NMAE) before averaging across targets.
    """
    y = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    sigma = np.asarray(target_std, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
        p = p[:, None]
    if y.shape != p.shape:
        raise ValueError("truth and prediction shapes differ")
    if sigma.shape != (y.shape[1],):
        raise ValueError("need one standard deviation per target")
    if np.any(sigma < 0):
        raise ValueError("standard deviations must be non-negative")

    err = y - p
    mse = (err ** 2).mean(axis=0)
    mae = np.abs(err).mean(axis=0)
    mape = 100.0 * (np.abs(err) / (np.abs(y) + EPS)).mean(axis=0)
    return {
        "mse": mse,
        "mae": mae,
        "mape": mape,
        "nmse": float((mse / (sigma ** 2 + EPS)).mean()),
        "nmae": float((mae / (sigma + EPS)).mean()),
        "mape_mean": float(mape.mean()),
    }


# ---------------------------------------------------------------------------
# Loss family
# ---------------------------------------------------------------------------

SMOOTH_L1_BETA = 1.0
HUBER_DELTA = 1.0
QUANTILE_TAU = 0.5
MULTI_QUANTILE_TAUS = (0.1, 0.5, 0.9)

LOSS_KINDS = ("MSE", "MAE", "SmoothL1", "MAPE", "Huber", "LogCosh",
              "Quantile", "SMAPE", "Combined", "AdaptiveCombined")


def _pinball(r: np.ndarray, tau: float) -> np.ndarray:
    return np.maximum(tau * r, (tau - 1.0) * r)


def _elementwise(kind: str, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    r = y - p
    if kind == "MSE":
        return r ** 2
    if kind == "MAE":
        return np.abs(r)
    if kind == "SmoothL1":
        a = np.abs(r)
        return np.where(a < SMOOTH_L1_BETA,
                        0.5 * r ** 2 / SMOOTH_L1_BETA,
                        a - 0.5 * SMOOTH_L1_BETA)
    if kind == "MAPE":
        return 100.0 * np.abs(r) / (np.abs(y) + EPS)
    if kind == "Huber":
        a = np.abs(r)
        return np.where(a <= HUBER_DELTA,
                        0.5 * r ** 2,
                        HUBER_DELTA * (a - 0.5 * HUBER_DELTA))
    if kind == "LogCosh":
        # log(cosh(r)) computed stably for large |r|
        return np.abs(r) + np.log1p(np.exp(-2.0 * np.abs(r))) - np.log(2.0)
    if kind == "Quantile":
        return _pinball(r, QUANTILE_TAU)
    if kind == "SMAPE":
        return 100.0 * 2.0 * np.abs(r) / (np.abs(y) + np.abs(p) + EPS)
    if kind == "multi_quantile":
        return np.mean([_pinball(r, t) for t in MULTI_QUANTILE_TAUS], axis=0)
    raise ValueError(f"unknown loss kind {kind!r}")


def loss(kind: str, y_true, y_pred, pair=None, weights=None) -> float:
    """Mean training loss of one kind over all samples and targets.

    Combined kinds evaluate a (loss_a, loss_b) pair: "Combined" blends them
    equally, "AdaptiveCombined" uses the given initialization weights.
    """
    y = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    if y.shape != p.shape:
        raise ValueError("truth and prediction shapes differ")
    if kind in ("Combined", "AdaptiveCombined"):
        if pair is None:
            raise ValueError(f"{kind} requires a loss pair")
        if kind == "Combined":
            w1 = w2 = 0.5
        else:
            if weights is None:
                raise ValueError("AdaptiveCombined requires initialization weights")
            w1, w2 = weights
        a = _elementwise(pair[0], y, p).mean()
        b = _elementwise(pair[1], y, p).mean()
        return float(w1 * a + w2 * b)
    return float(_elementwise(kind, y, p).mean())
