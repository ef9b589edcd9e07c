"""Monte-Carlo persistence probabilities, exponent fits and the slope-
functional relation chain.

Barrier events are checked at grid points only; this over-counts survival
(crossings between grid points are missed), a bias that ``refinement_study``
quantifies with pathwise-nested grids rather than correcting analytically.
Common random numbers across compared events come for free: a path depends
only on (seed, replica, Hurst, grid), so events sharing a domain see
identical paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .envelopes import all_slope_pairs_batch
from .fitting import ScalingFit, fit_scaling
from .fbm import integrate_values, sample_fbm_fast_batch
from .grids import SampleGrid, check_hurst

__all__ = [
    "BarrierEvent",
    "McEstimate",
    "ChainReport",
    "estimate_persistence",
    "exponent_fit",
    "refinement_study",
    "estimate_fbm_max_mean",
    "verify_chain",
    "bm_max_below_prob",
    "BROWNIAN_MAX_MEAN",
]

PROCESSES = ("fbm_max", "ifbm_two_sided", "ifbm_punctured", "ifbm_trended",
             "ifbm_one_sided")
_TWO_SIDED = ("ifbm_two_sided", "ifbm_punctured", "ifbm_trended")

# estimated probabilities below 10/replicas are unreliable and excluded
# from exponent fits
RELIABILITY_FLOOR = 10.0

# one-sided normal tail at 4 sigma; used for binomial upper confidence bounds
_ALPHA_4SIGMA = 3.167124183311998e-05

CHUNK_ROWS = 2048

#: E max of Brownian motion on (0,1) — reflection principle oracle
BROWNIAN_MAX_MEAN = math.sqrt(2.0 / math.pi)


def bm_max_below_prob(level: float, horizon: float) -> float:
    """P(max of Brownian motion on (0,T) <= level) = 2 Phi(level/sqrt(T)) - 1."""
    if level <= 0:
        return 0.0
    z = level / math.sqrt(horizon)
    return math.erf(z / math.sqrt(2.0))


@dataclass(frozen=True)
class BarrierEvent:
    """A stay-below event for one of the five barrier processes.

    Grid semantics: fbm_max and ifbm_one_sided check coordinates in (0, T];
    ifbm_two_sided checks [-T, T]; ifbm_punctured and ifbm_trended check
    1 <= |x| <= T, the trended event with the drift 2|x| added to the path.
    """

    process: str
    level: float
    horizon: float

    def __post_init__(self):
        if self.process not in PROCESSES:
            raise ValueError(f"unknown process {self.process!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def two_sided(self) -> bool:
        return self.process in _TWO_SIDED

    def grid(self, spacing: float) -> SampleGrid:
        n = _exact_steps(self.horizon, spacing, "horizon")
        if self.process in ("ifbm_punctured", "ifbm_trended"):
            _exact_steps(1.0, spacing, "puncture radius")
        if self.two_sided:
            return SampleGrid.anchored(spacing, n, n)
        return SampleGrid.one_sided(spacing, n)

    def thresholds(self, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray, bool]:
        """(column indices, per-column thresholds, integrate?) for the
        stay-below check ``values[:, cols] <= thresholds``."""
        coords = grid.coordinates
        eps = 1e-9 * grid.spacing
        if self.process == "fbm_max":
            mask = coords > eps
            return np.flatnonzero(mask), np.full(mask.sum(), self.level), False
        if self.process == "ifbm_one_sided":
            mask = coords > eps
            return np.flatnonzero(mask), np.full(mask.sum(), self.level), True
        if self.process == "ifbm_two_sided":
            cols = np.arange(grid.count)
            return cols, np.full(grid.count, self.level), True
        # punctured / trended
        mask = np.abs(coords) >= 1.0 - eps
        cols = np.flatnonzero(mask)
        thr = np.full(cols.size, self.level)
        if self.process == "ifbm_trended":
            thr = thr - 2.0 * np.abs(coords[cols])
        return cols, thr, True


def _exact_steps(length: float, spacing: float, what: str) -> int:
    n = round(length / spacing)
    if n < 1 or abs(n * spacing - length) > 1e-9 * spacing:
        raise ValueError(f"{what} {length} is not a whole number of grid "
                         f"steps at spacing {spacing}")
    return n


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo probability or mean with its standard error and enough
    metadata to reproduce it."""

    value: float
    std_error: float
    replicas: int
    seed: int
    spacing: float
    horizon: float | None = None
    label: str = ""
    kind: str = "probability"

    def __post_init__(self):
        if self.kind == "probability" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value} outside [0, 1]")

    def record(self) -> dict:
        out = {"p" if self.kind == "probability" else "mean": self.value,
               "se": self.std_error, "replicas": self.replicas,
               "seed": self.seed, "spacing": self.spacing}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.label:
            out["label"] = self.label
        return out


def estimate_persistence(event: BarrierEvent, h: float, spacing: float,
                         replicas: int, seed: int) -> McEstimate:
    """Indicator mean of the barrier event over independent paths."""
    h = check_hurst(h)
    if spacing > 1.0:
        raise ValueError(f"spacing must be <= 1, got {spacing}")
    if replicas < 100:
        raise ValueError(f"need at least 100 replicas, got {replicas}")
    grid = event.grid(spacing)
    cols, thr, needs_integral = event.thresholds(grid)
    hits = 0
    for lo in range(0, replicas, CHUNK_ROWS):
        reps = range(lo, min(lo + CHUNK_ROWS, replicas))
        vals = sample_fbm_fast_batch(h, grid, seed, reps)
        if needs_integral:
            vals = integrate_values(vals, grid.spacing, grid.anchor_index)
        hits += int(np.count_nonzero(
            np.all(vals[:, cols] <= thr[None, :], axis=1)))
    p = hits / replicas
    se = math.sqrt(p * (1.0 - p) / replicas)
    return McEstimate(value=p, std_error=se, replicas=replicas, seed=seed,
                      spacing=spacing, horizon=event.horizon,
                      label=f"{event.process}@{event.level:g}")


def exponent_fit(estimates) -> ScalingFit:
    """Slope of log(1/p) against log(T) over a horizon ladder.

    Estimates with p below 10/replicas are excluded (flagged in the fit);
    per-horizon MC errors propagate into ``slope_se``.
    """
    ests = sorted(estimates, key=lambda e: e.horizon)
    if len(ests) < 4:
        raise ValueError("need at least 4 horizons")
    kept, excluded = [], []
    for e in ests:
        if e.value * e.replicas < RELIABILITY_FLOOR:
            excluded.append(e.horizon)
        else:
            kept.append(e)
    if len(kept) < 2:
        raise ValueError(f"fewer than 2 reliable horizons (excluded "
                         f"{excluded})")
    scales = [1.0 / e.horizon for e in kept]
    values = [1.0 / e.value for e in kept]
    # se of log(1/p) is se_p / p, i.e. (se of value) / value with
    # value = 1/p and se(1/p) = se_p / p^2
    ses = [e.std_error / e.value ** 2 for e in kept]
    return fit_scaling(scales, values, value_ses=ses, excluded=excluded)


def refinement_study(event: BarrierEvent, h: float, spacings, replicas: int,
                     seed: int) -> list[McEstimate]:
    """Estimates of one event across nested grids sharing each replica's path.

    Paths are sampled once at the finest spacing and subsampled, so the
    event set shrinks pathwise as the grid refines and the returned
    probabilities are exactly non-increasing.
    """
    h = check_hurst(h)
    spacings = [float(s) for s in spacings]
    if any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise ValueError("spacings must be strictly decreasing")
    finest = spacings[-1]
    steps = [_exact_steps(s, finest, "spacing ratio") for s in spacings]
    grid = event.grid(finest)
    subgrids = [event.grid(s) for s in spacings]
    checks = [event.thresholds(sub) for sub in subgrids]
    hits = [0] * len(spacings)
    for lo in range(0, replicas, CHUNK_ROWS):
        reps = range(lo, min(lo + CHUNK_ROWS, replicas))
        vals = sample_fbm_fast_batch(h, grid, seed, reps)
        for i, (sub, step, (cols, thr, needs_integral)) in enumerate(
                zip(subgrids, steps, checks)):
            # each spacing sees the same motion path restricted to its own
            # grid, and runs its own trapezoid when the event needs I
            src = vals[:, ::step]
            if needs_integral:
                src = integrate_values(src, sub.spacing, sub.anchor_index)
            hits[i] += int(np.count_nonzero(
                np.all(src[:, cols] <= thr[None, :], axis=1)))
    out = []
    for s, hcount in zip(spacings, hits):
        p = hcount / replicas
        out.append(McEstimate(value=p,
                              std_error=math.sqrt(p * (1 - p) / replicas),
                              replicas=replicas, seed=seed, spacing=s,
                              horizon=event.horizon,
                              label=f"{event.process}@{event.level:g}"))
    return out


def estimate_fbm_max_mean(h: float, spacing: float, replicas: int,
                          seed: int) -> McEstimate:
    """E max of w on (0, 1], estimated on a grid of the given spacing."""
    h = check_hurst(h)
    n = _exact_steps(1.0, spacing, "unit interval")
    grid = SampleGrid.one_sided(spacing, n)
    total = []
    totalsq = []
    for lo in range(0, replicas, CHUNK_ROWS):
        reps = range(lo, min(lo + CHUNK_ROWS, replicas))
        vals = sample_fbm_fast_batch(h, grid, seed, reps)
        mx = vals[:, 1:].max(axis=1)
        total.append(float(mx.sum()))
        totalsq.append(float(np.square(mx).sum()))
    mean = math.fsum(total) / replicas
    var = math.fsum(totalsq) / replicas - mean ** 2
    return McEstimate(value=mean, std_error=math.sqrt(var / replicas),
                      replicas=replicas, seed=seed, spacing=spacing,
                      label="fbm_max_mean", kind="mean")


# ---------------------------------------------------------------------------
# relation chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Left/right estimates, combined errors and pass flags for the slope-
    functional relation chain at unit spacing (so T = N)."""

    h: float
    n: int
    replicas: int
    seed: int
    m1: McEstimate
    relations: dict

    @property
    def passed(self) -> bool:
        return all(rel["pass"] for rel in self.relations.values())

    def to_json(self, path=None):
        doc = {"h": self.h, "n": self.n, "replicas": self.replicas,
               "seed": self.seed, "m1": self.m1.record(),
               "relations": self.relations, "pass": self.passed}
        if path is None:
            return doc
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return doc


def _binom_upper(count: int, total: int, alpha: float = _ALPHA_4SIGMA) -> float:
    """One-sided Clopper-Pearson upper confidence bound: the 1 - alpha
    quantile of Beta(count + 1, total - count)."""
    if count >= total:
        return 1.0
    # imported here: scipy.special costs ~0.3 s, and only chain needs it
    from scipy.special import betaincinv
    return float(betaincinv(count + 1, total - count, 1.0 - alpha))


def verify_chain(h: float, n: int, replicas: int, seed: int,
                 m1_spacing: float = 2.0 ** -10, chunk: int = 512) -> ChainReport:
    """Estimate both sides of every relation in the chain and test them at
    4 combined standard errors with common random numbers.

    Sampling window is [-N, 2N] at unit spacing: the slope functional and
    its telescoped form live on [0, N], the window-widened slopes at 0 on
    [-N, N].  The max-mean scale constant is estimated on its own replicas
    (seed+1) so both sides of the inequalities carry independent errors.
    """
    h = check_hurst(h)
    if n < 2:
        raise ValueError("need n >= 2")
    grid = SampleGrid.anchored(1.0, n, 2 * n)
    anchor = n
    p = np.arange(1, n + 1)

    n_interior = n - 1
    sum_f = []
    sum_fsq = []
    sum_d10 = []
    sum_d10sq = []
    sum_max = []
    term_sum = np.zeros(n_interior)
    diff_sum = np.zeros(n_interior)
    diff_sumsq = np.zeros(n_interior)
    sum_xi = []
    sum_xisq = []
    count_xi_ge4 = 0
    count_corner = 0      # windowed slopes beyond +-2 at the origin
    count_trended = 0     # path below -2|x| on 1 <= |x| <= N
    mismatch_corner_trended = 0
    worst_telescope = 0.0

    for lo in range(0, replicas, chunk):
        reps = range(lo, min(lo + chunk, replicas))
        w = sample_fbm_fast_batch(h, grid, seed, reps)
        ii = integrate_values(w, 1.0, anchor)

        seq = ii[:, anchor:anchor + n + 1]          # I(0..N)
        gm, gp = all_slope_pairs_batch(seq)
        terms = np.clip(gm[:, 1:-1] - gp[:, 1:-1], 0.0, None)
        f_rows = terms.sum(axis=1)
        endpoint = gp[:, 0] - gm[:, -1]
        rel = np.abs(f_rows - endpoint) / np.maximum.reduce(
            [np.abs(f_rows), np.abs(endpoint), np.full_like(f_rows, 1e-30)])
        worst_telescope = max(worst_telescope, float(rel.max()))

        maxterm = gp[:, 0]                          # max over p of I(p)/p
        d10 = f_rows - 2.0 * maxterm

        left_cols = ii[:, anchor - p]               # I(-1), ..., I(-N)
        right_cols = ii[:, anchor + p]              # I(1), ..., I(N)
        g0m = (-left_cols / p).min(axis=1)          # windowed left slope at 0
        g0p = (right_cols / p).max(axis=1)          # windowed right slope at 0
        xi = np.clip(g0m - g0p, 0.0, None)

        corner = (g0m >= 2.0) & (g0p <= -2.0)
        trended = (np.all(left_cols <= -2.0 * p, axis=1)
                   & np.all(right_cols <= -2.0 * p, axis=1))
        mismatch_corner_trended += int(np.count_nonzero(corner != trended))
        count_corner += int(np.count_nonzero(corner))
        count_trended += int(np.count_nonzero(trended))
        count_xi_ge4 += int(np.count_nonzero(xi >= 4.0))

        diffs = terms - xi[:, None]
        term_sum += terms.sum(axis=0)
        diff_sum += diffs.sum(axis=0)
        diff_sumsq += np.square(diffs).sum(axis=0)
        sum_f.append(float(f_rows.sum()))
        sum_fsq.append(float(np.square(f_rows).sum()))
        sum_d10.append(float(d10.sum()))
        sum_d10sq.append(float(np.square(d10).sum()))
        sum_max.append(float(maxterm.sum()))
        sum_xi.append(float(xi.sum()))
        sum_xisq.append(float(np.square(xi).sum()))

    r = replicas

    def mean_se(sums, sumsqs):
        mean = math.fsum(sums) / r
        var = max(math.fsum(sumsqs) / r - mean ** 2, 0.0)
        return mean, math.sqrt(var / r)

    mean_f, se_f = mean_se(sum_f, sum_fsq)
    mean_d10, se_d10 = mean_se(sum_d10, sum_d10sq)
    mean_xi, se_xi = mean_se(sum_xi, sum_xisq)
    mean_max = math.fsum(sum_max) / r

    m1 = estimate_fbm_max_mean(h, m1_spacing, replicas, seed + 1)
    scale = float(n) ** h
    bound11 = 2.0 * m1.value * scale
    se_bound11 = 2.0 * m1.std_error * scale

    relations = {}
    relations["telescoping"] = {
        "lhs": "sum of positive slope gaps", "rhs": "endpoint slope difference",
        "max_rel_err": worst_telescope, "tol": 1e-9,
        "pass": bool(worst_telescope <= 1e-9),
    }
    sigma10 = 4.0 * se_d10
    relations["eq10"] = {
        "lhs": mean_f, "rhs": 2.0 * mean_max, "se": se_d10,
        "margin_sigma": abs(mean_d10) / se_d10 if se_d10 > 0 else 0.0,
        "pass": bool(abs(mean_d10) <= sigma10),
    }
    se11 = math.hypot(se_f, se_bound11)
    relations["eq11"] = {
        "lhs": mean_f, "rhs": bound11, "se": se11,
        "margin_sigma": (bound11 - mean_f) / se11 if se11 > 0 else math.inf,
        "pass": bool(mean_f <= bound11 + 4.0 * se11),
    }
    term_mean = term_sum / r
    diff_mean = diff_sum / r
    diff_var = np.maximum(diff_sumsq / r - diff_mean ** 2, 0.0)
    diff_se = np.sqrt(diff_var / r)
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.where(diff_se > 0, diff_mean / diff_se, np.inf)
    worst_k = int(np.argmin(margins)) + 1
    relations["eq14"] = {
        "lhs": float(term_mean.min()), "rhs": mean_xi, "se_xi": se_xi,
        "worst_k": worst_k, "worst_margin_sigma": float(margins.min()),
        "pass": bool(np.all(diff_mean >= -4.0 * diff_se)),
    }
    p_xi4 = count_xi_ge4 / r
    rhs15 = (n - 2.0) * 4.0 * p_xi4
    se15 = math.hypot(se_bound11,
                      (n - 2.0) * 4.0 * math.sqrt(p_xi4 * (1 - p_xi4) / r))
    relations["eq15"] = {
        "lhs": bound11, "rhs": rhs15, "se": se15,
        "pass": bool(bound11 >= rhs15 - 4.0 * se15),
    }
    relations["eq16"] = {
        "count_xi_ge4": count_xi_ge4, "count_corner": count_corner,
        "count_trended": count_trended,
        "corner_trended_mismatches": mismatch_corner_trended,
        "pass": bool(count_xi_ge4 >= count_corner
                     and mismatch_corner_trended == 0),
    }
    p_trend = count_trended / r
    p_trend_up = _binom_upper(count_trended, r)
    bound17 = m1.value * float(n) ** (h - 1.0)
    se_bound17 = m1.std_error * float(n) ** (h - 1.0)
    relations["eq17"] = {
        "lhs": p_trend, "lhs_upper_4sigma": p_trend_up, "rhs": bound17,
        "se_rhs": se_bound17,
        "pass": bool(p_trend_up <= bound17 + 4.0 * se_bound17),
    }
    return ChainReport(h=h, n=n, replicas=replicas, seed=seed, m1=m1,
                       relations=relations)
