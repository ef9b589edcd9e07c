"""Log-log scaling fits shared by the dimension and exponent estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import write_csv


@dataclass(frozen=True)
class ScalingFit:
    """Ordinary least squares of log(value) against log(1/scale).

    ``slope_se`` propagates per-point standard errors of log(value) through
    the OLS estimator when they are supplied.  ``split_discrepancy`` is the
    slope difference between the upper and lower half of the scale ladder
    (finite-size diagnostic).  ``degenerate`` flags fits with fewer than two
    distinct values, whose ``reason`` is equal_values, and ladders that
    ``persistence.exponent_fit`` cannot fit, with their own reason; their
    slope is nan.
    """

    scales: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    max_residual: float
    slope_se: float | None = None
    split_discrepancy: float | None = None
    degenerate: bool = False
    excluded: tuple = ()
    reason: str | None = None

    def to_csv(self, path, value_name: str = "count") -> None:
        write_csv(path, ("scale", value_name), zip(self.scales, self.values))

    def summary(self) -> dict:
        out = {"slope": self.slope, "intercept": self.intercept,
               "max_residual": self.max_residual}
        if self.slope_se is not None:
            out["slope_se"] = self.slope_se
        if self.split_discrepancy is not None:
            out["split_discrepancy"] = self.split_discrepancy
        if self.degenerate:
            out.update(degenerate=True, reason=self.reason)
        if self.excluded:
            out["excluded"] = list(self.excluded)
        return out


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray]:
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * y) / sxx)
    intercept = float(y.mean() - slope * xm)
    resid = y - (intercept + slope * x)
    return slope, intercept, resid


def fit_scaling(scales, values, value_ses=None, excluded=()) -> ScalingFit:
    """Fit log(value) = slope*log(1/scale) + intercept.

    Scales must be strictly decreasing and positive; values positive and
    finite.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.size != values.size or scales.size < 2:
        raise ValueError("need >= 2 matching (scale, value) pairs")
    if np.any(scales <= 0) or np.any(np.diff(scales) >= 0):
        raise ValueError("scales must be positive and strictly decreasing")
    if not (np.isfinite(values).all() and values.min() > 0):
        raise ValueError("values must be positive and finite for a log-log "
                         "fit")

    # min == max rather than np.unique, which imports numpy.ma
    if values.min() == values.max():
        return ScalingFit(tuple(scales), tuple(values), slope=math.nan,
                          intercept=math.nan, max_residual=math.nan,
                          degenerate=True, excluded=tuple(excluded),
                          reason="equal_values")

    x = np.log(1.0 / scales)
    y = np.log(values)
    slope, intercept, resid = _ols(x, y)

    slope_se = None
    if value_ses is not None:
        ses = np.asarray(value_ses, dtype=float)
        ylog_var = (ses / values) ** 2  # delta method for log(value)
        xm = x.mean()
        sxx = float(np.sum((x - xm) ** 2))
        coeff = (x - xm) / sxx
        slope_se = float(np.sqrt(np.sum(coeff ** 2 * ylog_var)))

    split = None
    half = scales.size // 2
    if half >= 2 and scales.size - half >= 2:
        s_upper, _, _ = _ols(x[:half], y[:half])
        s_lower, _, _ = _ols(x[half:], y[half:])
        split = float(s_upper - s_lower)

    return ScalingFit(tuple(scales), tuple(values), slope=slope,
                      intercept=intercept,
                      max_residual=float(np.abs(resid).max()),
                      slope_se=slope_se, split_discrepancy=split,
                      excluded=tuple(excluded))
