"""Independent oracles shared across test modules: quadrature covariances,
the full complex-FFT and the hfft circulant maps, the one-path fast and
exact samplers, the quotient-cube slope kernel, the one-row slope pairs and
telescoped slope functional, the plain monotone-chain hull, the
reflection principle for the maximum of Brownian motion, means and
standard errors from ``math.fsum``, solve's clusters file and the dim
experiment one replica and one Hurst index at a time, both on the whole
grid's coordinates, and the rule of every check row."""

import json
import math

import numpy as np
from scipy.integrate import quad

from burgerslab.burgers import solve
from burgerslab.fbm import (RowBuffers, _embedding_amplitudes, _fgn_rows,
                            _noise_length, fbm_covariance, sample_fbm_fast)
from burgerslab.envelopes import all_slope_pairs_batch
from burgerslab.fractal import dimension_estimate
from burgerslab.grids import RandomnessSpec, SampleGrid, check_hurst, write_json


def quad_ifbm_covariance(h, s, t):
    """E I(s)I(t) by nested adaptive quadrature of the motion covariance
    0.5 (|u|^2H + |v|^2H - |u - v|^2H), in scalar float arithmetic (signed
    rectangle); the inner integral is split at the |u - v| kink."""
    h2 = 2.0 * h
    lo_t, hi_t = min(0.0, t), max(0.0, t)

    def inner(u):
        pts = [u] if lo_t < u < hi_t else None
        val, _ = quad(lambda v: 0.5 * (abs(u) ** h2 + abs(v) ** h2
                                       - abs(u - v) ** h2), lo_t, hi_t,
                      points=pts, epsabs=1e-14, epsrel=1e-13, limit=300)
        return val

    val, err = quad(inner, min(0.0, s), max(0.0, s),
                    epsabs=1e-13, epsrel=1e-12, limit=300)
    sign = (1 if s >= 0 else -1) * (1 if t >= 0 else -1)
    return sign * val


def complex_fft_fgn_rows(h, spacing, n_increments, noise):
    """Increment rows from the whole length-2M Hermitian spectrum and a full
    complex FFT; the package builds only the first M+1 coefficients and
    keeps only the first M+1 amplitudes, whose inner ones are mirrored."""
    m, half_amp = _embedding_amplitudes(h, spacing, n_increments)
    amp = np.concatenate([half_amp, half_amp[m - 1:0:-1]])
    v = np.empty(noise.shape[:-1] + (2 * m,), dtype=complex)
    v[..., 0] = noise[..., 0]
    v[..., m] = noise[..., 1]
    half = (noise[..., 2:m + 1] + 1j * noise[..., m + 1:2 * m]) / np.sqrt(2.0)
    v[..., 1:m] = half
    v[..., m + 1:] = np.conj(half[..., ::-1])
    return np.fft.fft(amp * v, axis=-1).real[..., :n_increments]


def hfft_fgn_rows(h, spacing, n_increments, noise):
    """Increment rows from the unconjugated half spectrum by ``np.fft.hfft``,
    which conjugates a copy of it; the package writes the conjugate itself
    and calls ``irfft`` with forward norm, into a reusable buffer."""
    m, amp = _embedding_amplitudes(h, spacing, n_increments)
    v = np.zeros(noise.shape[:-1] + (m + 1,), dtype=complex)
    v.real[..., 0] = noise[..., 0]
    v.real[..., m] = noise[..., 1]
    np.multiply(noise[..., 2:m + 1], 1.0 / np.sqrt(2.0), out=v.real[..., 1:m])
    np.multiply(noise[..., m + 1:2 * m], 1.0 / np.sqrt(2.0), out=v.imag[..., 1:m])
    v *= amp
    return np.fft.hfft(v, n=2 * m)[..., :n_increments]


def generator_fbm_fast(h, grid, rand):
    """One fast-sampler path from its replica's own generator, one
    dimensional throughout; the package draws every path as a batch row."""
    n_inc = grid.count - 1
    noise = rand.generator().standard_normal(_noise_length(h, grid.spacing, n_inc))
    levels = np.concatenate([[0.0], np.cumsum(_fgn_rows(
        h, grid.spacing, n_inc, noise, RowBuffers()))])
    values = levels - levels[grid.anchor_index]
    values[grid.anchor_index] = 0.0
    return values


def generator_fbm_exact(h, grid, rand):
    """One exact-sampler path from its replica's own generator and its own
    Cholesky factor; the package factorizes once per batch of replicas."""
    h = check_hurst(h)
    anchor = grid.anchor_index
    coords = np.delete(grid.coordinates, anchor)
    chol = np.linalg.cholesky(fbm_covariance(h, coords[:, None],
                                             coords[None, :]))
    z = rand.generator().standard_normal(grid.count - 1)
    return np.insert(chol @ z, anchor, 0.0)


def cube_slope_pairs(rows):
    """Left/right slopes at every index from the whole [R, N+1, N+1] cube
    of difference quotients; the package folds one lag at a time."""
    rows = np.asarray(rows, dtype=float)
    r, n = rows.shape
    idx = np.arange(n)
    steps = (idx[None, :] - idx[:, None]).astype(float)  # j - i
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (rows[:, None, :] - rows[:, :, None]) / steps  # [r, i, j]
    upper = steps > 0
    gm = np.where(upper[None, :, :], quot, np.inf).min(axis=1)   # min over i<k
    gp = np.where(upper[None, :, :], quot, -np.inf).max(axis=2)  # max over j>k
    gm[:, 0] = np.nan
    gp[:, -1] = np.nan
    return gm, gp


def chain_hull_nodes(y, lower):
    """Andrew's monotone chain over every point (k, y[k]), one at a time.

    The package's hull kernel runs the same pop test over all survivors at
    once, after dropping points that lie clearly above long chords; its
    nodes must equal these exactly: same pop test, same tolerance, same
    float expressions.
    """
    values = [float(v) for v in y]
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 points")
    stack = [0]
    push = stack.append
    pop = stack.pop
    for k in range(1, n):
        yk = values[k]
        while len(stack) >= 2:
            i0 = stack[-2]
            i1 = stack[-1]
            y0 = values[i0]
            t1 = (i1 - i0) * (yk - y0)
            t2 = (k - i0) * (values[i1] - y0)
            cross = t1 - t2
            tol = 1e-12 * max(abs(t1), abs(t2))
            if lower:
                if cross <= tol:
                    pop()
                else:
                    break
            else:
                if cross >= -tol:
                    pop()
                else:
                    break
        push(k)
    return np.array(stack, dtype=np.int64)


def all_slope_pairs(values):
    """Left/right slopes at every index of one sequence, the batch kernel's
    row: gm[k] for k >= 1 (nan at 0) and gp[k] for k <= N-1 (nan at N)."""
    gm, gp = all_slope_pairs_batch(np.asarray(values, dtype=float)[None, :])
    return gm[0], gp[0]


def functional_F_endpoint(values) -> float:
    """Telescoped form right(0) - left(N) of the slope functional, from the
    quotient cube."""
    gm, gp = cube_slope_pairs(np.asarray(values, dtype=float)[None, :])
    return gp[0, 0] - gm[0, -1]


def bm_max_below_prob(level, horizon):
    """P(max of Brownian motion on (0, T) <= level) = 2 Phi(level / sqrt(T))
    - 1, by the reflection principle."""
    if level <= 0:
        return 0.0
    return math.erf(level / math.sqrt(horizon) / math.sqrt(2.0))


def fsum_mean_se(values):
    """Mean and standard error along axis 0 (column-wise for 2-D values)
    from ``math.fsum`` over each column and over its squares; the package
    takes the same exactly rounded sums from integer chunks."""
    rows = len(values)
    cols = np.reshape(values, (rows, -1)).T
    mean = np.array([math.fsum(c) for c in cols.tolist()]) / rows
    meansq = np.array([math.fsum(c) for c in np.square(cols).tolist()]) / rows
    se = np.sqrt(np.maximum(meansq - mean ** 2, 0.0) / rows)
    if np.ndim(values) == 1:
        return float(mean[0]), float(se[0])
    return mean, se


def dim_replica(h, cfg, rep):
    """One dim replica's record, and its fit when it is replica 0's and not
    degenerate (else None): its own path, solve and box-counting fit."""
    n = 2 ** cfg.opt("grid-log2")
    scales = [2.0 ** -j for j in range(4, 11)]
    window = (-0.95, 0.95)
    grid = SampleGrid.anchored(2.0 / n, n // 2, n // 2)
    u0 = sample_fbm_fast(h, grid, RandomnessSpec(cfg.seed, rep))
    coords = grid.coordinates[solve(u0, cfg.opt("time")).contact_indices]
    pts = coords[(coords >= window[0]) & (coords <= window[1])]
    if pts.size < 4:
        return {"h": h, "replica": rep, "slope": None,
                "points": int(pts.size), "reason": "window_collapsed"}, None
    fit = dimension_estimate(pts, scales, window=window)
    record = {"h": h, "replica": rep,
              "slope": None if fit.degenerate else fit.slope,
              "points": int(pts.size),
              "max_residual": fit.max_residual,
              "split_discrepancy": fit.split_discrepancy}
    if fit.degenerate:
        record["reason"] = "degenerate_fit"
    return record, fit if rep == 0 and not fit.degenerate else None


def solve_clusters_jsonl(sol, u0) -> str:
    """The text of ``sol.clusters_to_jsonl``, each coordinate read from
    the whole ``grid.coordinates`` array."""
    grid = u0.grid
    coords = grid.coordinates
    return "".join(json.dumps({
        "left": coords[left], "right": coords[right],
        "mass": (right - left + 1) * grid.spacing,
        "momentum": float(np.sum(u0.values[left:right + 1]) * grid.spacing),
    }, sort_keys=True) + "\n" for left, right in sol.shock_clusters)


def dim_outputs(cfg, outdir):
    """The result files of a dim run (records.jsonl, summary.json and
    fit_h*.{csv,json}), written serially from ``dim_replica``."""
    records, summaries = [], {}
    for h in cfg.hurst:
        results = [dim_replica(h, cfg, rep) for rep in range(cfg.replicas)]
        cell = [record for record, _ in results]
        records += cell
        slopes = np.array([r["slope"] for r in cell
                           if r["slope"] is not None])
        summaries[f"h={h:g}"] = {
            "h": h, "slope": float(slopes.mean()) if slopes.size else None,
            "slope_se": float(slopes.std(ddof=1) / np.sqrt(slopes.size))
            if slopes.size > 1 else 0.0,
            "valid_replicas": int(slopes.size), "replicas": cfg.replicas,
            "grid_log2": cfg.opt("grid-log2")}
        fit = results[0][1]
        if fit is not None:
            fit.to_csv(outdir / f"fit_h{h:g}_scale_count.csv")
            write_json(outdir / f"fit_h{h:g}.json", fit.summary())
    with open(outdir / "records.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    write_json(outdir / "summary.json", summaries)


def check_rows(doc) -> list:
    """Every check row in ``doc``, a nest of dicts and lists: each dict
    that has a ``margin_sigma``."""
    if isinstance(doc, dict):
        if "margin_sigma" in doc:
            return [doc]
        doc = list(doc.values())
    if isinstance(doc, list):
        return [row for value in doc for row in check_rows(value)]
    return []


def assert_check_rows(rows) -> None:
    """Each row passes exactly when lo <= got <= hi, a bound written as
    null being infinite; with an SE its margin_sigma is
    min(got - lo, hi - got) / se, non-negative exactly when it passes, and
    without an SE or a value it is None."""
    assert rows
    for row in rows:
        got, se = row["got"], row["se"]
        lo = -math.inf if row["lo"] is None else row["lo"]
        hi = math.inf if row["hi"] is None else row["hi"]
        if got is None or math.isnan(got):
            assert row["pass"] is False and row["margin_sigma"] is None, row
            continue
        assert row["pass"] == (lo <= got <= hi), row
        if se:
            assert se > 0, row
            assert row["margin_sigma"] == min(got - lo, hi - got) / se, row
            assert (row["margin_sigma"] >= 0) == row["pass"], row
        else:
            assert row["margin_sigma"] is None, row
