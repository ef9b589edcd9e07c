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

import atexit
import math
import multiprocessing
import os
from concurrent import futures
from dataclasses import dataclass
from functools import partial

import numpy as np

from .envelopes import slope_functional_batch
from .fitting import ScalingFit, fit_scaling
from .fbm import FastRows, RowBuffers, integrate_values
from .grids import SampleGrid, check_hurst, replica_normals, rng_state_write


PROCESSES = ("fbm_max", "ifbm_two_sided", "ifbm_punctured", "ifbm_trended",
             "ifbm_one_sided")
_TWO_SIDED = ("ifbm_two_sided", "ifbm_punctured", "ifbm_trended")

# estimated probabilities below 10/replicas are unreliable and excluded
# from exponent fits
RELIABILITY_FLOOR = 10.0

# one-sided normal tail at 4 sigma; used for binomial upper confidence bounds
_ALPHA_4SIGMA = 3.167124183311998e-05

# fewest replicas a persistence estimate accepts
MIN_REPLICAS = 100

# bytes of noise a shared pass draws and transforms at a time; bounds
# working memory only.  Larger parts (512 rows of chain's 2048-normal
# max-mean pass make arrays of 8 MB) leave glibc's reuse of its freed heap
# to the heap's earlier layout, down to the length of the install path:
# chain's peak RSS read 64.7 or 69-70 MB by that alone.  It also bounds the
# shared pass's buffers: noise, spectrum, transform and rows, about 3.5 MB,
# and a dim row of 2^17 normals runs through a pass alone.
_PASS_BYTES = 2 ** 20

# exact sums count in units of 2^-1074 on chunks of 16 bits; 2^1024 lies in
# chunk 131.  A slice of _SUM_ROWS rows bounds the kernel's temporaries, and
# its (column, chunk) sums, below 2^26, are exact in float64.
_SUM_UNIT = 1 << 1074
_CHUNKS = 132
_SUM_ROWS = 1024

# the shared passes' buffers, made on a process's first pass; a worker
# forked later writes its own copy of the parent's
_BUFFERS = RowBuffers()

#: E max of Brownian motion on (0,1) — reflection principle oracle
BROWNIAN_MAX_MEAN = math.sqrt(2.0 / math.pi)


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

    def thresholds(self, grid: SampleGrid) -> tuple:
        """(columns, per-column thresholds, integrate?) for the stay-below
        check ``values[:, cols] <= thresholds`` on the event's ``grid``;
        the columns are a slice where they are contiguous, so the check
        reads a view of the values."""
        if self.process in ("fbm_max", "ifbm_one_sided"):
            # every point of the one-sided grid but 0
            return (slice(1, None), np.full(grid.count - 1, self.level),
                    self.process == "ifbm_one_sided")
        if self.process == "ifbm_two_sided":
            return slice(None), np.full(grid.count, self.level), True
        # punctured / trended
        coords = grid.coordinates
        mask = np.abs(coords) >= 1.0 - 1e-9 * grid.spacing
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

    @classmethod
    def proportion(cls, count: int, replicas: int, **meta) -> "McEstimate":
        """Probability estimated by ``count`` hits in ``replicas`` independent
        draws, with its binomial standard error."""
        p = int(count) / replicas
        return cls(value=p, std_error=math.sqrt(p * (1.0 - p) / replicas),
                   replicas=replicas, **meta)

    @property
    def reliable(self) -> bool:
        """At least ``RELIABILITY_FLOOR`` hits: a probability exponent fits
        keep.  The count is rounded, since p * replicas can fall just short
        of it (10 / 154 * 154 < 10)."""
        return round(self.value * self.replicas) >= RELIABILITY_FLOOR

    def record(self) -> dict:
        out = {"p" if self.kind == "probability" else "mean": self.value,
               "se": self.std_error, "replicas": self.replicas,
               "seed": self.seed, "spacing": self.spacing}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.label:
            out["label"] = self.label
        return out


def bound_check(name: str, got, se, lo: float = -math.inf,
                hi: float = math.inf) -> dict:
    """A check row that passes when lo <= got <= hi; margin_sigma,
    min(got - lo, hi - got) / se, is its distance to the nearer bound in
    SEs, and None when ``got`` is None or NaN or the SE is unknown or
    zero."""
    known = got is not None and not math.isnan(got)
    return {"name": name, "got": got, "se": se, "lo": lo, "hi": hi,
            "pass": known and bool(lo <= got <= hi),
            "margin_sigma": min(got - lo, hi - got) / se if known and se
            else None}


def worker_count() -> int:
    """Worker processes for Monte-Carlo work: the CPU count, capped by
    BURGERSLAB_WORKERS; raises ValueError when the cap is no integer."""
    cap = os.environ.get("BURGERSLAB_WORKERS")
    workers = os.cpu_count() or 1
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"BURGERSLAB_WORKERS must be an integer, "
                             f"got {cap!r}") from None
    return workers


# (executor, worker count, pid of the process that created it)
_POOL = None


@atexit.register
def _shutdown_pool() -> None:
    """Join the pool's workers while the interpreter is still whole; a pool
    left to module teardown can fail in its garbage-collection callback."""
    global _POOL
    if _POOL is not None and _POOL[2] == os.getpid():
        _POOL[0].shutdown()
    _POOL = None


def pool_map(fn, items) -> list:
    """``[fn(item) for item in items]``, spread over ``worker_count()``
    processes when there are several workers and several items.

    One fork pool serves the whole process: it is created on the first
    parallel call and rebuilt when the worker count changes.  ``fn`` and
    the items must pickle, so callbacks are module-level functions bound
    with ``functools.partial``.  Workers keep the module state they had
    when they were forked: code patched after that is not seen by them, so
    tests that patch package code and then run pooled code pin
    BURGERSLAB_WORKERS=1.  Inside a worker the map runs serially, so pools
    never nest.  Each item must be deterministic; then the worker count
    cannot change results.
    """
    global _POOL
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1 or (
            _POOL is not None and _POOL[2] != os.getpid()):
        return [fn(item) for item in items]
    if _POOL is None or _POOL[1] != workers:
        _shutdown_pool()
        # workers inherit the probe's result and its numpy.random import
        # instead of each running it, which keeps their peak RSS lower
        rng_state_write()
        # named: Python 3.14 changes the Linux default away from fork
        pool = futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"))
        _POOL = (pool, workers, os.getpid())
    return list(_POOL[0].map(fn, items))


def replica_stats(cells, seed: int,
                  replicas: int) -> list[tuple[np.ndarray, ...]]:
    """Statistics of replicas 0..replicas-1 for each (source, stat) cell,
    all on one pass of draws at ``seed`` (``_shared_pass``).

    The reducer splits the replicas by count into ``min(worker_count(),
    replicas)`` contiguous spans, one ``pool_map`` item each, and returns,
    for each cell, its tuple of arrays concatenated over the spans and
    their parts in order.  A stat's output is a row per replica, or one row
    of exact sums (``exact_sums``) per part, which the caller combines by
    integer addition.  Each must be a function of its replicas alone (every
    draw is keyed by (seed, replica)); then neither the parts nor the
    worker count can change results.
    """
    if replicas < 1:
        raise ValueError(f"need at least 1 replica, got {replicas}")
    spans = min(worker_count(), replicas)
    edges = [replicas * i // spans for i in range(spans + 1)]
    return _join(pool_map(partial(_shared_pass, tuple(cells), seed),
                          [range(a, b) for a, b in zip(edges, edges[1:])]))


def _join(parts) -> list[tuple]:
    """Each cell's arrays concatenated over consecutive parts of replicas."""
    return [tuple(map(np.concatenate, zip(*cell))) for cell in zip(*parts)]


def exact_sums(values: np.ndarray) -> np.ndarray:
    """Exact sums of values along axis 0 (column-wise for 2-D values), one
    Python int per column in units of 2^-1074, the smallest subnormal.

    ``sum / 2**1074`` rounds a sum correctly, as ``math.fsum`` does, and
    integer addition combines the sums of consecutive parts exactly.  Each
    value splits into at most five integer pieces on a grid of 16-bit
    chunks of that unit; float64 ``bincount`` adds them per (column, chunk)
    exactly, and the chunks fold into one int per column.  Raises
    ValueError on non-finite values.
    """
    x = np.asarray(values, dtype=float)
    x = x.reshape(len(x), -1)
    if not np.isfinite(x).all():
        raise ValueError("exact sums need finite values")
    cols = x.shape[1]
    bins = np.zeros(cols * _CHUNKS, np.int64)
    base = np.arange(cols) * _CHUNKS
    for start in range(0, len(x), _SUM_ROWS):
        part = x[start:start + _SUM_ROWS]
        # the chunk of each leading bit, at least 4 so that the five pieces
        # below it stay on the grid
        top = np.maximum((np.frexp(part)[1] + 1073) >> 4, 4)
        # in units of the top chunk, so below 2^16 in magnitude; the
        # scaling is exact, and so is each fraction times 2^16
        scaled = np.ldexp(part, 1074 - 16 * top)
        index = (top + base).ravel()
        piece = np.empty_like(scaled)
        for _ in range(5):    # 53 bits span at most five chunks
            np.trunc(scaled, out=piece)
            scaled -= piece
            scaled *= 65536.0
            bins += np.bincount(index, piece.ravel(),
                                bins.size).astype(np.int64)
            index -= 1
    bins = bins.reshape(cols, _CHUNKS)
    used = np.flatnonzero(bins.any(axis=0))
    weights = np.array([1 << (16 * int(j)) for j in used], dtype=object)
    return (bins[:, used].astype(object) * weights).sum(axis=1)


def _means(sums, rows: int) -> np.ndarray:
    """Means of ``rows`` values from their exact sums (``exact_sums``):
    each sum rounded correctly, then divided."""
    return (sums / _SUM_UNIT).astype(float) / rows


def _moments(sums, square_sums, rows: int):
    """Mean and standard error of ``rows`` values from the exact sums of
    the values and of their squares."""
    mean, meansq = _means(sums, rows), _means(square_sums, rows)
    return mean, np.sqrt(np.maximum(meansq - mean ** 2, 0.0) / rows)


def mean_se(values: np.ndarray):
    """Mean and standard error of per-replica values along axis 0 (column-
    wise for 2-D values), from the exact sums of the values and of their
    squares (``exact_sums``), so they are the correctly rounded sums over
    all replicas whatever the parts."""
    mean, se = _moments(exact_sums(values), exact_sums(np.square(values)),
                        len(values))
    if np.ndim(values) == 1:
        return float(mean[0]), float(se[0])
    return mean, se


def _shared_pass(cells, seed: int, reps) -> list[tuple]:
    """Per-replica statistics of several cells on one draw of noise.

    Each cell is (source, stat).  A source (``fbm.FastRows``,
    ``rkhs.KernelSpace``) is a hashable map from the first
    ``source.noise_length`` normals of each noise row to a row,
    ``source.rows(noise, buffers)``; ``stat(rows)`` maps a part's rows to
    a tuple of per-replica arrays.  The replicas are passed in parts whose
    noise fits in ``_PASS_BYTES``.  A part's noise is drawn once, at the
    longest length among the cells, and each distinct source transforms
    its prefix once; the first l normals of a replica's stream are its draw
    of length l, so this equals a draw per cell bit for bit.  Returns one
    tuple of arrays per cell.

    The noise and the fast rows live in one set of buffers per process,
    reused by every part and cell it runs: a stat must not keep a reference
    to ``rows`` or return a view of it.
    """
    lengths = {source: source.noise_length for source, _ in cells}
    longest = max(lengths.values())
    step = max(1, _PASS_BYTES // (8 * longest))
    if len(reps) > step:
        return _join([_shared_pass(cells, seed, reps[i:i + step])
                      for i in range(0, len(reps), step)])
    noise = replica_normals(seed, reps, longest,
                            out=_BUFFERS.view("noise", (len(reps), longest)))
    out = [()] * len(cells)
    # longest noise first: the first transform grows the buffers to the
    # pass's largest shapes
    for source in sorted(lengths, key=lengths.get, reverse=True):
        rows = source.rows(noise, _BUFFERS)
        for i, (cell_source, stat) in enumerate(cells):
            if cell_source == source:
                out[i] = stat(rows)
    return out


def estimate_persistence(event: BarrierEvent, h: float, spacing: float,
                         replicas: int, seed: int) -> McEstimate:
    """Indicator mean of the barrier event over independent paths."""
    return estimate_persistences([(event, h)], spacing, replicas, seed)[0]


def estimate_persistences(cells, spacing: float, replicas: int,
                          seed: int) -> list[McEstimate]:
    """``estimate_persistence`` for each (event, h) cell, all on one pass of
    draws; each estimate equals the one of a separate call."""
    if spacing > 1.0:
        raise ValueError(f"spacing must be <= 1, got {spacing}")
    if replicas < MIN_REPLICAS:
        raise ValueError(f"need at least {MIN_REPLICAS} replicas, "
                         f"got {replicas}")
    return [ests[0] for ests in _refinement_studies(
        [(event, h, [spacing]) for event, h in cells], replicas, seed)]


def exponent_fit(estimates) -> ScalingFit:
    """Slope of log(1/p) against log(T) over a horizon ladder.

    Estimates with fewer than 10 hits are excluded (flagged in the fit);
    per-horizon MC errors propagate into ``slope_se``.  With fewer than 2
    left, the fit is degenerate, excludes every horizon and gives its
    reason, fewer_than_2_reliable_horizons.
    """
    ests = sorted(estimates, key=lambda e: e.horizon)
    if len(ests) < 4:
        raise ValueError("need at least 4 horizons")
    kept = [e for e in ests if e.reliable]
    excluded = [e.horizon for e in ests if not e.reliable]
    if len(kept) < 2:
        return ScalingFit((), (), slope=math.nan, intercept=math.nan,
                          max_residual=math.nan, degenerate=True,
                          excluded=tuple(e.horizon for e in ests),
                          reason="fewer_than_2_reliable_horizons")
    scales = [1.0 / e.horizon for e in kept]
    values = [1.0 / e.value for e in kept]
    # se of log(1/p) is se_p / p, i.e. (se of value) / value with
    # value = 1/p and se(1/p) = se_p / p^2
    ses = [e.std_error / e.value ** 2 for e in kept]
    return fit_scaling(scales, values, value_ses=ses, excluded=excluded)


def _stays_below(checks, vals):
    """Stay-below flags of each row of ``vals`` on each subgrid of
    ``checks``, a tuple of (subgrid, step, (cols, thresholds,
    needs_integral))."""
    below = []
    for sub, step, (cols, thr, needs_integral) in checks:
        # each spacing sees the same motion path restricted to its own
        # grid, and runs its own trapezoid when the event needs I
        src = vals[:, ::step]
        if needs_integral:
            src = integrate_values(src, sub.spacing, sub.anchor_index)
        below.append(np.all(src[:, cols] <= thr, axis=1))
    return tuple(below)


def refinement_study(event: BarrierEvent, h: float, spacings, replicas: int,
                     seed: int) -> list[McEstimate]:
    """Estimates of one event across nested grids sharing each replica's path.

    Paths are sampled once at the finest spacing and subsampled, so the
    event set shrinks pathwise as the grid refines and the returned
    probabilities are exactly non-increasing.
    """
    return _refinement_studies([(event, h, spacings)], replicas, seed)[0]


def _event_cell(event: BarrierEvent, h: float, spacings):
    """The ``replica_stats`` cell of one event on nested spacings: paths at
    the finest spacing, one stay-below flag per spacing."""
    h = check_hurst(h)
    if any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise ValueError("spacings must be strictly decreasing")
    finest = spacings[-1]
    steps = [_exact_steps(s, finest, "spacing ratio") for s in spacings]
    subgrids = [event.grid(s) for s in spacings]
    checks = tuple(zip(subgrids, steps,
                       [event.thresholds(sub) for sub in subgrids]))
    return FastRows(h, event.grid(finest)), partial(_stays_below, checks)


def _refinement_studies(studies, replicas: int,
                        seed: int) -> list[list[McEstimate]]:
    """``refinement_study`` for each (event, h, spacings), all on one pass
    of draws."""
    studies = [(event, h, [float(s) for s in spacings])
               for event, h, spacings in studies]
    flags = replica_stats([_event_cell(*study) for study in studies], seed,
                          replicas)
    return [[McEstimate.proportion(np.count_nonzero(below), replicas,
                                   seed=seed, spacing=s, horizon=event.horizon,
                                   label=f"{event.process}@{event.level:g}")
             for s, below in zip(spacings, group)]
            for (event, _, spacings), group in zip(studies, flags)]


def _path_max(vals):
    """Max of each row over the grid points past 0."""
    return (vals[:, 1:].max(axis=1),)


def estimate_fbm_max_mean(h: float, spacing: float, replicas: int,
                          seed: int) -> McEstimate:
    """E max of w on (0, 1], estimated on a grid of the given spacing."""
    return _fbm_max_means([h], spacing, replicas, seed)[0]


def _fbm_max_means(hs, spacing: float, replicas: int,
                   seed: int) -> list[McEstimate]:
    """``estimate_fbm_max_mean`` for each H, all on one pass of draws."""
    n = _exact_steps(1.0, spacing, "unit interval")
    grid = SampleGrid.one_sided(spacing, n)
    peaks = replica_stats([(FastRows(check_hurst(h), grid), _path_max)
                           for h in hs], seed, replicas)
    return [McEstimate(*mean_se(peak), replicas=replicas, seed=seed,
                       spacing=spacing, label="fbm_max_mean", kind="mean")
            for (peak,) in peaks]


# ---------------------------------------------------------------------------
# relation chain
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta
    I_x(a, b), by the modified Lentz method; it converges fast for
    x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or tiny)
    frac = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / ((1.0 + num * d) or tiny)
            c = (1.0 + num / c) or tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return frac


def _binom_upper(count: int, total: int, alpha: float = _ALPHA_4SIGMA) -> float:
    """One-sided Clopper-Pearson upper confidence bound: the 1 - alpha
    quantile of Beta(count + 1, total - count), the p at which
    P(Binomial(total, p) <= count) = alpha."""
    if count >= total:
        return 1.0
    if count == 0:
        # Beta(1, n) has cdf 1 - (1 - x)^n, solved in closed form
        return -math.expm1(math.log(alpha) / total)
    # bisection on p of the binomial cdf I_{1-p}(total - count, count + 1),
    # which falls from at least 1/2 at count / total (the median) to 0 at
    # 1; the root lies above the mean, where the fraction converges fast
    a, b = total - count, count + 1
    log_norm = math.lgamma(total + 1) - math.lgamma(a) - math.lgamma(b)
    lo, hi = count / total, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        cdf = (math.exp(log_norm + a * math.log1p(-mid) + b * math.log(mid))
               * _beta_cf(a, b, 1.0 - mid) / a)
        lo, hi = (mid, hi) if cdf > alpha else (lo, mid)
    return hi


def _slope_stats(n, w):
    """Per-replica slope functional, its telescoping error and the windowed
    slopes at 0 from rows ``w`` on the chain's window [-N, 2N] at unit
    spacing; and, as (1, N-1) exact column sums (``exact_sums``), the slope
    gaps at the interior k, their differences from the windowed gap xi and
    the squares of those differences."""
    p = np.arange(1, n + 1)
    ii = integrate_values(w, 1.0, n)
    gaps, f, right0, _, rel_err = slope_functional_batch(ii[:, n:2 * n + 1])
    left_cols = ii[:, n - 1::-1]                # I(-1), ..., I(-N)
    right_cols = ii[:, n + 1:2 * n + 1]         # I(1), ..., I(N)
    g0m = (-left_cols / p).min(axis=1)          # windowed left slope at 0
    g0p = (right_cols / p).max(axis=1)          # windowed right slope at 0
    xi = np.clip(g0m - g0p, 0.0, None)
    corner = (g0m >= 2.0) & (g0p <= -2.0)       # slopes beyond +-2 at 0
    trended = (np.all(left_cols <= -2.0 * p, axis=1)   # path below -2|x|
               & np.all(right_cols <= -2.0 * p, axis=1))
    del ii, left_cols, right_cols
    # one R x (N-1) array, rewritten in place once its sums are taken
    gap_sums = exact_sums(gaps)
    gaps -= xi[:, None]
    diff_sums = exact_sums(gaps)
    np.square(gaps, out=gaps)
    return (f, right0, rel_err, xi, corner, trended, gap_sums[None],
            diff_sums[None], exact_sums(gaps)[None])


def verify_chain(h: float, n: int, replicas: int, seed: int) -> dict:
    """Estimate both sides of every relation in the chain and test them at
    4 combined standard errors with common random numbers; returns the
    ``chain.json`` entry {h, n, replicas, seed, m1, relations, pass}.

    Sampling window is [-N, 2N] at unit spacing: the slope functional and
    its telescoped form live on [0, N], the window-widened slopes at 0 on
    [-N, N].  The max-mean scale constant is estimated on its own replicas
    (seed+1) so both sides of the inequalities carry independent errors.
    """
    return verify_chains([h], n, replicas, seed)[0]


def verify_chains(hs, n: int, replicas: int, seed: int) -> list[dict]:
    """``verify_chain`` for each H on two passes of draws for all of them:
    the slope statistics at ``seed``, the max-mean constants at ``seed + 1``;
    each entry equals the one of a separate call."""
    hs = [check_hurst(h) for h in hs]
    if n < 2:
        raise ValueError("need n >= 2")
    grid = SampleGrid.anchored(1.0, n, 2 * n)
    stat = partial(_slope_stats, n)
    stats = replica_stats([(FastRows(h, grid), stat) for h in hs], seed,
                          replicas)
    m1s = _fbm_max_means(hs, 2.0 ** -10, replicas, seed + 1)
    return [_chain_entry(h, n, replicas, seed, m1, stats)
            for h, m1, stats in zip(hs, m1s, stats)]


def _chain_entry(h, n, replicas, seed, m1, stats) -> dict:
    """The entry of one H from its per-replica slope statistics and its
    max-mean constant."""
    f_rows, maxterm, rel, xi, corner, trended, *part_sums = stats
    # the pass parts' exact sums, combined by integer addition
    gap_sum, diff_sum, diff_square_sum = (s.sum(axis=0) for s in part_sums)
    r = replicas
    worst_telescope = float(rel.max())
    mean_f, se_f = mean_se(f_rows)
    mean_d10, se_d10 = mean_se(f_rows - 2.0 * maxterm)
    mean_max, _ = mean_se(maxterm)
    mean_xi, se_xi = mean_se(xi)
    count_xi_ge4 = int(np.count_nonzero(xi >= 4.0))
    count_corner = int(np.count_nonzero(corner))
    count_trended = int(np.count_nonzero(trended))
    mismatch_corner_trended = int(np.count_nonzero(corner != trended))

    scale = float(n) ** h
    bound11 = 2.0 * m1.value * scale
    se_bound11 = 2.0 * m1.std_error * scale

    relations = {}
    relations["telescoping"] = {
        **bound_check("telescoping", worst_telescope, None, hi=1e-9),
        "lhs": "sum of positive slope gaps",
        "rhs": "endpoint slope difference"}
    relations["eq10"] = {
        **bound_check("eq10", mean_d10, se_d10, -4.0 * se_d10, 4.0 * se_d10),
        "lhs": mean_f, "rhs": 2.0 * mean_max}
    se11 = math.hypot(se_f, se_bound11)
    relations["eq11"] = {
        **bound_check("eq11", mean_f, se11, hi=bound11 + 4.0 * se11),
        "lhs": mean_f, "rhs": bound11}
    term_mean = _means(gap_sum, r)
    diff_mean, diff_se = _moments(diff_sum, diff_square_sum, r)
    # each k's difference in its SEs; a k without an SE ranks by its sign
    ratios = np.divide(diff_mean, diff_se, where=diff_se > 0,
                       out=np.where(diff_mean < 0, -np.inf, np.inf))
    k = int(np.argmin(ratios))
    d, s = float(diff_mean[k]), float(diff_se[k])
    relations["eq14"] = {**bound_check("eq14", d, s, lo=-4.0 * s),
                         "lhs": float(term_mean.min()), "rhs": mean_xi,
                         "se_xi": se_xi, "worst_k": k + 1}
    xi4 = McEstimate.proportion(count_xi_ge4, r, seed=seed, spacing=1.0)
    rhs15 = (n - 2.0) * 4.0 * xi4.value
    se15 = math.hypot(se_bound11, (n - 2.0) * 4.0 * xi4.std_error)
    relations["eq15"] = {
        **bound_check("eq15", bound11, se15, lo=rhs15 - 4.0 * se15),
        "lhs": bound11, "rhs": rhs15}
    # the corner event implies xi >= 4, and it is the trended event pathwise
    relations["eq16"] = {**bound_check("eq16", count_corner, None,
                                       hi=count_xi_ge4),
                         "count_trended": count_trended}
    relations["eq16 pathwise"] = bound_check(
        "eq16 pathwise", mismatch_corner_trended, None, hi=0)
    p_trend = count_trended / r
    p_trend_up = _binom_upper(count_trended, r)
    bound17 = m1.value * float(n) ** (h - 1.0)
    se_bound17 = m1.std_error * float(n) ** (h - 1.0)
    relations["eq17"] = {
        **bound_check("eq17", p_trend_up, se_bound17,
                      hi=bound17 + 4.0 * se_bound17),
        "lhs": p_trend, "lhs_upper_4sigma": p_trend_up, "rhs": bound17,
        "se_rhs": se_bound17}
    return {"h": h, "n": n, "replicas": replicas, "seed": seed,
            "m1": m1.record(), "relations": relations,
            "pass": all(rel["pass"] for rel in relations.values())}
