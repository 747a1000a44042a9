"""Quality indicators and reference-front merging.

Indicators operate on bi-objective point sets under minimization. Hypervolume
uses the exact 2-D sweep; inverted generational distance averages, over the
reference front, the distance to the nearest obtained point.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

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
    with np.errstate(over="ignore"):
        mean = float(np.sqrt(_nearest_squared(a, ref)).mean())
    if math.isfinite(mean):
        return mean
    # a squared gap or the sum overflowed: measure again with coordinates
    # scaled below 2 by a power of two, and scale the mean back
    peak = max(np.abs(a).max(), np.abs(ref).max())
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    return float(np.sqrt(_nearest_squared(a / scale, ref / scale)).mean()) * scale


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
