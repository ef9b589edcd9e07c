"""Finite-grid reproducing-kernel computations for the integrated motion.

The kernel space of the integrated process on a grid is the Gaussian vector
with covariance Sigma_ij = E I(x_i) I(x_j) (closed form).  Norms are
computed through a spectrally truncated pseudo-inverse: the anchor row of
Sigma is exactly zero (I(0) = 0) and integrated-motion covariances are
severely ill-conditioned, so eigenvalues below a fixed ridge magnitude are
cut rather than inverted, and the flag ``regularized`` records that.

Localizer trends are built in the trapezoid-consistent geometry: eta is the
least-squares residual of the *discrete* integral I(1) projected onto the
motion values outside (0,1).  With that choice E eta w(x_j) vanishes at
machine precision for every outside grid point at every Hurst index, hence
phi1 = E eta I(x) is exactly 0 left of the origin and exactly constant
right of 1 — the properties the trend composition needs.  (Defining eta
from continuum covariances reproduces these identities exactly only in the
Markov case H = 1/2.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .fbm import fbm_covariance, ifbm_covariance, integrate_values
from .grids import SampleGrid, check_hurst, replica_normals
from .persistence import McEstimate, bound_check, replica_stats


DENSE_SPACE_MAX_POINTS = 512
SHIFT_MC_MAX_POINTS = 64
RIDGE_FACTOR = 1e-12
NORM_RESIDUAL_TOL = 1e-6

# fewest rows a kernel-space product has: with the installed OpenBLAS a
# product of 1-36 rows can give other last bits than the same rows in a
# larger one, so shorter products are padded with zero rows.  Then a row is
# a function of its noise alone, whatever the span or part it comes in.
_MIN_PRODUCT_ROWS = 64


class TrendRangeError(ValueError):
    """Trend lies outside the numerical range of the covariance."""


@dataclass(frozen=True)
class TrendFunction:
    """A deterministic trend sampled on the grid.

    ``norm_sq`` holds the constructed squared norm when the trend comes with
    one (localizers: E eta^2); the general path is ``rkhs_norm``.
    """

    values: np.ndarray
    label: str
    norm_sq: float | None = None


@dataclass(frozen=True, eq=False)
class KernelSpace:
    """Dense covariance of the integrated motion on a grid, factorized; a
    source of ``persistence.replica_stats`` (``rows``: exact Gaussian rows
    ``noise @ factor.T``), compared and hashed by identity."""

    grid: SampleGrid
    hurst: float
    cov: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    cutoff: float
    regularized: bool
    factor: np.ndarray

    def solve(self, phi: np.ndarray) -> tuple[np.ndarray, float]:
        """Pseudo-solve Sigma z = phi; returns (z, relative residual)."""
        phi = np.asarray(phi, dtype=float)
        z = _pseudo_solve(self.eigvals, self.eigvecs, self.cutoff, phi)
        nrm = float(np.linalg.norm(phi))
        if nrm == 0.0:
            return z, 0.0
        residual = float(np.linalg.norm(self.cov @ z - phi)) / nrm
        return z, residual

    @property
    def noise_length(self) -> int:
        return self.grid.count

    def rows(self, noise: np.ndarray, buffers=None) -> np.ndarray:
        """``noise @ factor.T`` on the first ``grid.count`` normals of each
        row, in a product of at least ``_MIN_PRODUCT_ROWS`` rows."""
        x = noise[:, :self.grid.count]
        pad = _MIN_PRODUCT_ROWS - len(x)
        if pad > 0:
            x = np.concatenate([x, np.zeros((pad, x.shape[1]))])
        return (x @ self.factor.T)[:len(noise)]

    def sample_batch(self, seed: int, replicas: range) -> np.ndarray:
        """Exact Gaussian draws with this covariance, one row per replica,
        deterministic per (seed, replica)."""
        return self.rows(replica_normals(seed, replicas, self.grid.count))


def build_space(grid: SampleGrid, h: float) -> KernelSpace:
    """Kernel space of the integrated motion on an anchored grid."""
    h = check_hurst(h)
    if grid.count > DENSE_SPACE_MAX_POINTS:
        raise ValueError(f"dense kernel space capped at "
                         f"{DENSE_SPACE_MAX_POINTS} points (got {grid.count})")
    grid.anchor_index  # raises when the grid misses coordinate 0
    x = grid.coordinates
    cov = ifbm_covariance(h, x[:, None], x[None, :])
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    scale = float(np.trace(cov)) / grid.count
    if eigvals.min() < -1e-10 * scale:
        raise ValueError(f"integrated-motion covariance irreparably indefinite: "
                         f"smallest eigenvalue {eigvals.min():.3e}")
    cutoff = RIDGE_FACTOR * scale
    return KernelSpace(grid=grid, hurst=h, cov=cov, eigvals=eigvals,
                       eigvecs=eigvecs, cutoff=cutoff,
                       regularized=bool(eigvals.min() < cutoff),
                       factor=eigvecs * np.sqrt(np.clip(eigvals, 0.0, None)))


def rkhs_norm(space: KernelSpace, trend: TrendFunction | np.ndarray) -> float:
    """sqrt(phi^T Sigma^+ phi); errors when phi is outside the numerical
    range of Sigma (relative residual above 1e-6)."""
    phi = trend.values if isinstance(trend, TrendFunction) else np.asarray(trend)
    if np.linalg.norm(phi) == 0.0:
        return 0.0
    z, residual = space.solve(phi)
    if residual > NORM_RESIDUAL_TOL:
        raise TrendRangeError(
            f"trend outside the numerical range of the covariance: relative "
            f"residual {residual:.3e} > {NORM_RESIDUAL_TOL:g}")
    return math.sqrt(max(float(phi @ z), 0.0))


# ---------------------------------------------------------------------------
# trends
# ---------------------------------------------------------------------------

def _pseudo_solve(eigvals, eigvecs, cutoff, rhs) -> np.ndarray:
    """The solution of the eigen-decomposed system with the eigenvalues at
    or below ``cutoff`` cut rather than inverted."""
    keep = eigvals > cutoff
    proj = eigvecs.T @ rhs
    return eigvecs @ np.where(keep, proj / np.where(keep, eigvals, 1.0), 0.0)


def localizer_trends(space: KernelSpace) -> tuple[TrendFunction, TrendFunction]:
    """Trends phi1 (vanishes left of 0, constant right of 1) and its mirror
    phi2, built from the unpredictable part of I(1) given the motion outside
    (0, 1).

    phi1(1) = E eta^2 = ||phi1||^2 holds by construction; ``norm_sq``
    carries E eta^2.
    """
    grid = space.grid
    x = grid.coordinates
    eps = 1e-12
    if grid.left > -2.0 + eps or grid.right < 2.0 - eps:
        raise ValueError("grid must cover [-L, L] with L >= 2")
    idx1 = grid.index_of(1.0)
    grid.index_of(-1.0)
    n_left = grid.anchor_index
    if grid.count - 1 - n_left != n_left:
        raise ValueError("grid must be symmetric around 0 so the mirrored "
                         "localizer lives on it")

    cw = fbm_covariance(space.hurst, x[:, None], x[None, :])
    # T with I(x_i) = sum_j T[i, j] w(x_j); C order, since a transposed
    # view changes the summation order of ``tmat @ eta_w``
    tmat = integrate_values(np.eye(grid.count), grid.spacing,
                            grid.anchor_index).T.copy()
    outside = np.flatnonzero((x <= eps) | (x >= 1.0 - eps))
    b_full = tmat[idx1] @ cw                       # E I(1) w(x_j)
    a_mat = cw[np.ix_(outside, outside)]
    eigvals, eigvecs = np.linalg.eigh(0.5 * (a_mat + a_mat.T))
    beta = _pseudo_solve(eigvals, eigvecs,
                         RIDGE_FACTOR * float(np.trace(a_mat)) / len(a_mat),
                         b_full[outside])
    alpha = tmat[idx1].copy()
    alpha[outside] -= beta                         # eta = alpha . w
    eta_w = cw @ alpha                             # E eta w(x_j)
    phi1_vals = tmat @ eta_w                       # E eta I(x_i)
    eta_sq = float(tmat[idx1] @ eta_w)             # Var I(1) - beta . b
    phi1 = TrendFunction(values=phi1_vals, label="phi1", norm_sq=eta_sq)
    phi2 = TrendFunction(values=phi1_vals[::-1].copy(), label="phi2",
                         norm_sq=eta_sq)
    return phi1, phi2


def psi_trend(grid: SampleGrid) -> TrendFunction:
    """The quadratic-inside/linear-outside trend: 2x^2 on |x| < 1 and
    2|x| - 1 on |x| >= 1."""
    ax = np.abs(grid.coordinates)
    values = np.where(ax < 1.0, 2.0 * ax ** 2, 2.0 * ax - 1.0)
    return TrendFunction(values=values, label="psi")


def combined_trend(space: KernelSpace, a: int) -> TrendFunction:
    """psi plus (1+a) times the normalized localizers: equals 2|x| + a on
    grid points with |x| >= 1 (to rounding)."""
    if a not in (0, 1):
        raise ValueError("offset a must be 0 or 1")
    phi1, phi2 = localizer_trends(space)
    idx1 = space.grid.index_of(1.0)
    idxm1 = space.grid.index_of(-1.0)
    psi = psi_trend(space.grid)
    values = psi.values + (1.0 + a) * (phi1.values / phi1.values[idx1]
                                       + phi2.values / phi2.values[idxm1])
    return TrendFunction(values=values, label=f"combined{a}")


def covariance_column_trend(space: KernelSpace, coordinate: float,
                            factor: float = 1.0) -> TrendFunction:
    """A multiple of one covariance column; its norm is known in closed form
    as factor * sqrt(Sigma_ii)."""
    i = space.grid.index_of(coordinate)
    col = factor * space.cov[:, i]
    return TrendFunction(values=col, label=f"covcol@{coordinate:g}*{factor:g}",
                         norm_sq=factor ** 2 * float(space.cov[i, i]))


def parse_trend(name: str) -> tuple[str, tuple[float, ...]] | None:
    """(kind, numbers) of a trend name: combined0, combined1, psi,
    psi*<factor>, covcol@<x>[*<factor>] or zero; kind is the name up to its
    numbers.  None for an unknown name or a malformed or non-finite
    number."""
    kind, numbers = name, ()
    if name.startswith("psi*"):
        kind, numbers = "psi*", (name[len("psi*"):],)
    elif name.startswith("covcol@"):
        coord, _, factor = name[len("covcol@"):].partition("*")
        kind, numbers = "covcol@", (coord, factor or "1")
    if kind not in ("combined0", "combined1", "psi", "psi*", "covcol@", "zero"):
        return None
    try:
        values = tuple(float(v) for v in numbers)
    except ValueError:
        return None
    return (kind, values) if all(map(math.isfinite, values)) else None


def trend(space: KernelSpace, name: str) -> TrendFunction:
    """The trend ``name`` (``parse_trend``) on the grid of ``space``,
    labelled ``name``."""
    kind, numbers = parse_trend(name)
    if kind in ("combined0", "combined1"):
        made = combined_trend(space, int(kind[-1]))
    elif kind == "psi":
        made = psi_trend(space.grid)
    elif kind == "psi*":
        made = TrendFunction(numbers[0] * psi_trend(space.grid).values, name)
    elif kind == "covcol@":
        made = covariance_column_trend(space, *numbers)
    else:
        made = TrendFunction(np.zeros(space.grid.count), name)
    return replace(made, label=name)


# ---------------------------------------------------------------------------
# trend-shift inequality
# ---------------------------------------------------------------------------

def _stays_below(phi, level, draws):
    """Per-replica stay-below flags of the draws without and with the trend
    values ``phi`` added."""
    return (np.all(draws <= level, axis=1),
            np.all(draws + phi[None, :] <= level, axis=1))


def verify_shift_inequality(space: KernelSpace, trend: TrendFunction,
                            level: float, replicas: int, seed: int) -> dict:
    """Estimate stay-below probabilities with and without the trend on
    common draws and test the norm-controlled shift bound at 4 sigma."""
    return verify_shift_inequalities([(space, trend, level)], replicas,
                                     seed)[0]


def verify_shift_inequalities(cases, replicas: int, seed: int) -> list[dict]:
    """``verify_shift_inequality`` for each (space, trend, level) case, all
    on one pass of draws, whatever their spaces; each row equals the one of
    a separate call."""
    if any(space.grid.count > SHIFT_MC_MAX_POINTS for space, _, _ in cases):
        raise ValueError(f"shift verification restricted to grids of at most "
                         f"{SHIFT_MC_MAX_POINTS} points (probabilities must "
                         "stay resolvable by plain MC)")
    norms = [rkhs_norm(space, trend) for space, trend, _ in cases]
    flags = replica_stats([(space, partial(_stays_below, trend.values, level))
                           for space, trend, level in cases], seed, replicas)
    return [_shift_row(space, trend, norm, plain, trended, replicas, seed)
            for (space, trend, _), norm, (plain, trended)
            in zip(cases, norms, flags)]


def _shift_row(space, trend, norm, plain, trended, replicas, seed) -> dict:
    """One case's ``shift.json`` row from its per-replica stay-below flags:
    the ``bound_check`` row |sqrt(-log p1) - sqrt(-log p0)| <= norm/sqrt(2)
    at 4 sigma, with the two probabilities and their SEs beside it.  Its
    ``got`` is None (inconclusive) when a probability is below the
    reliability floor or exactly 1, where the delta-method SE is 0/0."""
    est0, est1 = (McEstimate.proportion(np.count_nonzero(below), replicas,
                                        seed=seed, spacing=space.grid.spacing)
                  for below in (plain, trended))
    p0, p1 = est0.value, est1.value
    name = f"shift bound {trend.label} h={space.hurst:g}"
    rhs = norm / math.sqrt(2.0)
    if not (est0.reliable and est1.reliable) or max(p0, p1) == 1.0:
        row = bound_check(name, None, None, hi=rhs)
    else:
        root0, root1 = math.sqrt(-math.log(p0)), math.sqrt(-math.log(p1))
        se = math.hypot(est0.std_error / (2.0 * p0 * root0),
                        est1.std_error / (2.0 * p1 * root1))
        row = bound_check(name, abs(root1 - root0), se, hi=rhs + 4.0 * se)
    return {**row, "p_trended": p1, "p_plain": p0,
            "se_trended": est1.std_error, "se_plain": est0.std_error,
            "norm": norm, "lhs": row["got"], "rhs": rhs,
            "inconclusive": row["got"] is None}
