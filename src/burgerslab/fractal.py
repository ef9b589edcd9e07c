"""Box-counting dimension of point sets on the line."""

from __future__ import annotations

import numpy as np

from .fitting import ScalingFit, fit_scaling


def box_count(points, scale: float, window: tuple[float, float]) -> int:
    """Number of cells of the ``scale``-partition of ``window`` that contain
    at least one point.  Points outside the window are rejected."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return 0
    lo, hi = window
    if hi <= lo:
        raise ValueError("window must have positive width")
    if points.min() < lo or points.max() > hi:
        raise ValueError("points fall outside the declared window")
    n_cells = int(np.ceil((hi - lo) / scale))
    idx = np.floor((points - lo) / scale).astype(np.int64)
    np.clip(idx, 0, n_cells - 1, out=idx)  # hi itself belongs to the last cell
    # distinct cells, from the steps of the sorted cell indices
    idx.sort()
    return int(np.count_nonzero(np.diff(idx))) + 1


def default_scale_ladder(points, window, j_min: int = 4, j_max: int = 10,
                         min_count: int = 4) -> list[float]:
    """Dyadic ladder 2^-j, j = j_min..j_max, trimmed so every retained scale
    counts at least ``min_count`` boxes and at most n_points/4 (saturation
    guard at either end)."""
    points = np.asarray(points, dtype=float)
    ladder = []
    cap = max(points.size / 4.0, float(min_count))
    for j in range(j_min, j_max + 1):
        eps = 2.0 ** -j
        n = box_count(points, eps, window)
        if min_count <= n <= cap:
            ladder.append(eps)
    return ladder


def dimension_estimate(points, scale_ladder, window=None) -> ScalingFit:
    """Least-squares slope of log N(eps) against log(1/eps).

    Requires at least 4 scales, each with a nonzero count; a fit over fewer
    than two distinct counts is flagged degenerate with an undefined slope.
    """
    points = np.asarray(points, dtype=float)
    scales = sorted((float(s) for s in scale_ladder), reverse=True)
    if len(scales) < 4:
        raise ValueError("need at least 4 scales")
    if window is None:
        window = (float(points.min()), float(points.max()) + 1e-12)
    counts = [box_count(points, s, window) for s in scales]
    if min(counts) < 1:
        raise ValueError("every scale must count at least one box")
    return fit_scaling(scales, counts)
