"""Fractional Brownian motion on uniform grids and its running integral.

Two samplers are provided:

* ``sample_fbm_exact_batch`` — dense symmetric factorization of the
  covariance matrix; O(n^3) setup, usable up to a few thousand points;
  serves as the distributional oracle.
* ``sample_fbm_fast`` — circulant embedding of the stationary increment
  sequence (O(n log n)), cumulatively summed and re-anchored so the value at
  coordinate 0 is exactly zero.  The two half-axes are generated from one
  increment sequence and are therefore dependent, as they must be for any
  Hurst index other than 1/2.

Closed-form covariances of the motion, of its increments and of its running
integral are exposed as oracles for tests and for the kernel-space module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import (GridPath, RandomnessSpec, SampleGrid, check_hurst,
                    replica_normals)


EXACT_SAMPLER_MAX_POINTS = 4096

# Negative circulant eigenvalues are tolerated up to this fraction of the
# largest one; beyond it the embedding is doubled, at most 4 times.
EMBEDDING_EIG_TOL = 1e-9
EMBEDDING_MAX_DOUBLINGS = 4


class FactorizationError(RuntimeError):
    """Dense covariance factorization failed (matrix numerically indefinite)."""


class EmbeddingError(RuntimeError):
    """Circulant embedding stayed indefinite after the doubling cap."""


def fbm_covariance(h: float, x, y):
    """E w(x) w(y) = 0.5 (|x|^2H + |y|^2H - |x-y|^2H), valid on all of R."""
    h2 = 2.0 * check_hurst(h)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = 0.5 * (np.abs(x) ** h2 + np.abs(y) ** h2 - np.abs(x - y) ** h2)
    return out if out.ndim else float(out)

def fgn_autocovariance(h: float, lag, spacing: float = 1.0):
    """Covariance of consecutive-grid increments of w at integer lag.

    Equals spacing^2H * 0.5 (|k+1|^2H - 2|k|^2H + |k-1|^2H) with k = |lag|,
    the second difference of the motion covariance.
    """
    h2 = 2.0 * check_hurst(h)
    if spacing <= 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    k = np.abs(np.asarray(lag, dtype=float))
    out = spacing ** h2 * 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2
                                 + np.abs(k - 1.0) ** h2)
    return out if out.ndim else float(out)

def ifbm_covariance(h: float, s, t):
    """E I(s) I(t) for the running integral I(x) of w, anchored at I(0)=0.

    Closed form obtained by integrating the motion covariance over
    [0,s] x [0,t] (signed integrals); valid for all real s, t:

        0.5 [ s t (|s|^2H + |t|^2H) / (2H+1)
              - (|s|^b + |t|^b - |s-t|^b) / ((2H+1)(2H+2)) ],  b = 2H+2.
    """
    b = 2.0 * check_hurst(h)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    term1 = s * t * (np.abs(s) ** b + np.abs(t) ** b) / (b + 1.0)
    term2 = (np.abs(s) ** (b + 2.0) + np.abs(t) ** (b + 2.0)
             - np.abs(s - t) ** (b + 2.0)) / ((b + 1.0) * (b + 2.0))
    out = 0.5 * (term1 - term2)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# exact sampler
# ---------------------------------------------------------------------------

def sample_fbm_exact_batch(h: float, grid: SampleGrid, seed: int,
                           replicas: range) -> np.ndarray:
    """Rows of paths of w on the grid from the exact joint Gaussian law,
    one per replica index."""
    return exact_sampler(h, grid)(seed, replicas)


def exact_sampler(h: float, grid: SampleGrid):
    """``sample_fbm_exact_batch`` on (h, grid) as a function of (seed,
    replicas), with the covariance factorized once for all its calls.

    The covariance matrix of the non-anchor coordinates is factorized with
    a dense Cholesky decomposition and applied to each replica's noise row
    on its own (``chol @ z``); the anchor value is exactly zero.
    """
    h = check_hurst(h)
    if grid.count > EXACT_SAMPLER_MAX_POINTS:
        raise ValueError(f"exact sampler is capped at {EXACT_SAMPLER_MAX_POINTS} "
                         f"points (got {grid.count}); use sample_fbm_fast")
    anchor = grid.anchor_index
    coords = np.delete(grid.coordinates, anchor)
    cov = fbm_covariance(h, coords[:, None], coords[None, :])
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov).min())
        raise FactorizationError(
            f"fBm covariance matrix is not positive definite at H={h}: "
            f"smallest pivot/eigenvalue {smallest:.6e}") from None

    def draw(seed: int, replicas: range) -> np.ndarray:
        noise = replica_normals(seed, replicas, grid.count - 1)
        return np.insert([chol @ z for z in noise], anchor, 0.0, axis=1)
    return draw


# ---------------------------------------------------------------------------
# circulant-embedding sampler
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _embedding_amplitudes(h: float, spacing: float, n_increments: int):
    """The half-size M and the first M+1 spectral amplitudes sqrt(eig / 2M)
    of the circulant embedding of the increment autocovariance, with
    automatic doubling of M; the rest of the spectrum mirrors them and is
    not kept."""
    m0 = 1
    while m0 < n_increments:
        m0 *= 2
    m = m0
    for _ in range(EMBEDDING_MAX_DOUBLINGS + 1):
        r = fgn_autocovariance(h, np.arange(m + 1), spacing)
        first_row = np.concatenate([r, r[m - 1:0:-1]])
        eig = np.fft.fft(first_row).real
        if eig.min() >= -EMBEDDING_EIG_TOL * eig.max():
            return m, np.sqrt(np.clip(eig[:m + 1], 0.0, None) / (2.0 * m))
        m *= 2
    raise EmbeddingError(
        f"circulant embedding for H={h} stayed indefinite after "
        f"{EMBEDDING_MAX_DOUBLINGS} doublings (half-size {m}); the increment "
        "covariance cannot be embedded at this size — double the embedding "
        "size cap or reduce the grid")


class RowBuffers:
    """Flat arrays kept for reuse, one per name, each grown to the largest
    size asked of it; ``view`` hands out its leading elements in a shape.
    Every entry of a view is written again by whoever takes it."""

    def __init__(self):
        self._flat = {}

    def view(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = int(np.prod(shape))
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            # dropped first, so the old and the grown array never coexist
            self._flat.pop(name, None)
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _fgn_rows(h: float, spacing: float, n_increments: int,
              noise: np.ndarray, buffers: RowBuffers) -> np.ndarray:
    """Map the first 2M normals of each noise row to an increment row of
    length n; the spectrum and the transform live in ``buffers``."""
    m, amp = _embedding_amplitudes(h, spacing, n_increments)
    # the length-2M spectrum is Hermitian, so only its first M+1
    # coefficients are built, conjugated, and the inverse real FFT with
    # forward norm returns the (real) FFT of the whole: hfft without its
    # conjugate copy.  Times -1/sqrt(2) is the conjugate of what complex
    # division by sqrt(2) computes, so the coefficients are those of the
    # full form.
    shape = noise.shape[:-1] + (m + 1,)
    v = buffers.view("spectrum", shape, complex)
    v[..., 0] = noise[..., 0]
    v[..., m] = noise[..., 1]
    np.multiply(noise[..., 2:m + 1], 1.0 / np.sqrt(2.0), out=v.real[..., 1:m])
    np.multiply(noise[..., m + 1:2 * m], -1.0 / np.sqrt(2.0),
                out=v.imag[..., 1:m])
    v *= amp
    out = buffers.view("fft", shape[:-1] + (2 * m,))
    return np.fft.irfft(v, n=2 * m, norm="forward", out=out)[..., :n_increments]


def _noise_length(h: float, spacing: float, n_increments: int) -> int:
    m, _ = _embedding_amplitudes(h, spacing, n_increments)
    return 2 * m

def sample_fbm_fast(h: float, grid: SampleGrid, rand: RandomnessSpec) -> GridPath:
    """Draw w on a (possibly large) anchored grid in O(n log n): the batch
    sampler's row for this one replica.

    Same law as ``sample_fbm_exact_batch`` — a single stationary increment
    sequence spans the whole interval and the cumulative sum is re-anchored
    at coordinate 0 — but the draws differ path-by-path even for equal
    seeds.
    """
    h = check_hurst(h)
    values = sample_fbm_fast_batch(h, grid, rand.seed,
                                   range(rand.replica, rand.replica + 1))[0]
    return GridPath(grid, values, "fbm", hurst=h)


def sample_fbm_fast_batch(h: float, grid: SampleGrid, seed: int,
                          replicas: range) -> np.ndarray:
    """Rows of fast-sampler paths, one per replica index.

    Row i's noise is that of ``RandomnessSpec(seed, replicas[i]).generator()``
    and each row is transformed on its own, so batching and chunking cannot
    change results.  Its buffers are fresh, so the rows outlive the call.
    """
    source = FastRows(h, grid)
    return source.rows(replica_normals(seed, replicas, source.noise_length),
                       RowBuffers())


@dataclass(frozen=True)
class FastRows:
    """The fast sampler on (h, grid) as a map from rows of replica noise to
    rows of paths; a source of ``persistence.replica_stats``."""

    h: float
    grid: SampleGrid

    @property
    def noise_length(self) -> int:
        """The length 2M of the circulant embedding; it may double with H."""
        return _noise_length(check_hurst(self.h), self.grid.spacing,
                             self.grid.count - 1)

    def rows(self, noise: np.ndarray, buffers: RowBuffers) -> np.ndarray:
        """Rows of paths from the first ``noise_length`` normals of each
        noise row.  The spectrum, the transform and the rows are views of
        the arrays of ``buffers``, valid until its next use."""
        h = check_hurst(self.h)
        grid = self.grid
        anchor = grid.anchor_index
        n_inc = grid.count - 1
        fgn = _fgn_rows(h, grid.spacing, n_inc, noise, buffers)
        # summed and re-anchored in place: one row-sized array, not three
        shape = (len(noise), grid.count)
        values = buffers.view("rows", shape)
        values[:, 0] = 0.0
        np.cumsum(fgn, axis=1, out=values[:, 1:])
        del fgn
        if anchor:   # at index 0 the re-anchoring would subtract +0.0
            values -= values[:, anchor:anchor + 1].copy()
            values[:, anchor] = 0.0
        return values


# ---------------------------------------------------------------------------
# running integral
# ---------------------------------------------------------------------------

def integrate_values(values: np.ndarray, spacing: float, anchor: int) -> np.ndarray:
    """Trapezoidal cumulative integral along the last axis, re-anchored so the
    value at ``anchor`` is exactly zero (signed: negative coordinates carry
    minus the integral back to 0)."""
    inc = 0.5 * (values[..., :-1] + values[..., 1:]) * spacing
    levels = np.zeros(values.shape)
    np.cumsum(inc, axis=-1, out=levels[..., 1:])
    if anchor:   # at index 0 the re-anchoring would subtract +0.0
        levels -= levels[..., anchor:anchor + 1]
        levels[..., anchor] = 0.0
    return levels
