"""Convex minorants/majorants of discrete sequences and one-sided slopes.

For a sequence I(0..N) the left/right extremal difference quotients at k are

    left(k)  = min over p in 1..k   of (I(k) - I(k-p)) / p
    right(k) = max over p in 1..N-k of (I(k+p) - I(k)) / p

k is a nodal point of the concave majorant exactly when left(k) >= right(k);
summing the positive parts of left - right over interior k telescopes to
right(0) - left(N).

Node extraction is Andrew's monotone chain behind a vectorised prefilter.
Each filter pass drops, all at once, every surviving interior point that the
chain's own pop test would pop against its two surviving neighbours; such a
point is not a node.  The passes stop when nothing is dropped or after
``_FILTER_PASSES`` passes, and the chain then runs over the survivors at
their true indices.  Both stages use the chain's float expressions and its
1e-12 relative collinearity tolerance, and the nodes equal those of the
plain chain over the whole sequence, which the tests keep as the oracle.
The one exception is a pop test that falls at the edge of that tolerance:
there the plain chain's answer depends on which points sit below on its
stack, and the two envelopes can differ by about 1e-12 of the sequence's
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# A pass sweeps all survivors but drops fewer points each time: on a
# 2^16-point fBm potential 16 passes leave about 3000 points, and further
# passes gain little over finishing those in the chain.
_FILTER_PASSES = 16


def envelope_backend() -> str:
    """Name of the hull kernel, recorded as provenance."""
    return "numpy"


def _hull_nodes(y: np.ndarray, lower: bool) -> np.ndarray:
    """Node indices of the greatest convex minorant (lower=True) or least
    concave majorant (lower=False) of the points (k, y[k])."""
    xs = np.arange(y.size)
    ys = y
    for _ in range(_FILTER_PASSES):
        if xs.size < 3:
            break
        # the chain's pop test for each interior point (x1, y1) between its
        # surviving neighbours (x0, y0) and (xk, yk), as in ``_chain``
        x0, x1, xk = xs[:-2], xs[1:-1], xs[2:]
        y0, y1, yk = ys[:-2], ys[1:-1], ys[2:]
        t1 = (x1 - x0) * (yk - y0)
        t2 = (xk - x0) * (y1 - y0)
        cross = t1 - t2
        tol = 1e-12 * np.maximum(np.abs(t1), np.abs(t2))
        drop = cross <= tol if lower else cross >= -tol
        if not drop.any():
            break
        keep = np.ones(xs.size, dtype=bool)
        keep[1:-1] = ~drop
        xs = xs[keep]
        ys = ys[keep]
    return _chain(xs.tolist(), ys.tolist(), lower)


def _chain(xs: list, ys: list, lower: bool) -> np.ndarray:
    """Monotone chain over points with strictly increasing integer xs.

    The top of the stack is popped unless it lies strictly outside (below
    for the minorant, above for the majorant) the chord from the point
    under it to the new point, by more than 1e-12 of the cross product's
    own magnitude.
    """
    sx = [xs[0]]
    sy = [ys[0]]
    for xk, yk in zip(xs[1:], ys[1:]):
        while len(sx) >= 2:
            x0 = sx[-2]
            y0 = sy[-2]
            t1 = (sx[-1] - x0) * (yk - y0)
            t2 = (xk - x0) * (sy[-1] - y0)
            cross = t1 - t2
            tol = 1e-12 * max(abs(t1), abs(t2))
            if (cross <= tol) if lower else (cross >= -tol):
                sx.pop()
                sy.pop()
            else:
                break
        sx.append(xk)
        sy.append(yk)
    return np.array(sx, dtype=np.int64)


@dataclass(frozen=True)
class ConvexEnvelope:
    """Piecewise-linear envelope touching the sequence at its nodes."""

    side: str                   # "minorant" or "majorant"
    count: int                  # length of the underlying sequence
    node_indices: np.ndarray    # strictly increasing, starts 0, ends count-1
    node_values: np.ndarray
    segment_slopes: np.ndarray  # per unit index step, one per segment

    def evaluate(self, indices=None) -> np.ndarray:
        """Envelope value at the given indices (default: the whole grid)."""
        if indices is None:
            indices = np.arange(self.count)
        return np.interp(indices, self.node_indices, self.node_values)

    def to_csv(self, path) -> None:
        from .grids import write_csv
        slopes = list(self.segment_slopes) + [None]
        write_csv(path, ("node_index", "node_value", "slope_after"),
                  zip(self.node_indices, self.node_values, slopes))


def _build(values: np.ndarray, lower: bool) -> ConvexEnvelope:
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-d sequence of length >= 2")
    if not np.all(np.isfinite(values)):
        raise ValueError("sequence contains non-finite values")
    nodes = _hull_nodes(values, lower)
    node_values = values[nodes]
    slopes = np.diff(node_values) / np.diff(nodes)
    return ConvexEnvelope(side="minorant" if lower else "majorant",
                          count=values.size, node_indices=nodes,
                          node_values=node_values, segment_slopes=slopes)

def lower_envelope(values) -> ConvexEnvelope:
    """Greatest convex minorant; collinear interior points are not nodes."""
    return _build(np.asarray(values), lower=True)

def upper_envelope(values) -> ConvexEnvelope:
    """Least concave majorant; collinear interior points are not nodes."""
    return _build(np.asarray(values), lower=False)


# ---------------------------------------------------------------------------
# one-sided slopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopePair:
    """Extremal one-sided difference quotients at an index.

    ``arg_left``/``arg_right`` report the smallest attaining p (diagnostics
    only; the values are unambiguous under ties).
    """

    index: int
    left: float
    right: float
    arg_left: int
    arg_right: int


def left_slope(values, k: int) -> tuple[float, int]:
    """min over p in 1..k of (values[k] - values[k-p]) / p, with smallest
    attaining p."""
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    if not 1 <= k <= n:
        raise IndexError(f"left slope needs 1 <= k <= {n}, got {k}")
    p = np.arange(1, k + 1)
    q = (values[k] - values[k - p]) / p
    i = int(np.argmin(q))
    return float(q[i]), int(p[i])

def right_slope(values, k: int) -> tuple[float, int]:
    """max over p in 1..N-k of (values[k+p] - values[k]) / p, with smallest
    attaining p."""
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    if not 0 <= k <= n - 1:
        raise IndexError(f"right slope needs 0 <= k <= {n - 1}, got {k}")
    p = np.arange(1, n - k + 1)
    q = (values[k + p] - values[k]) / p
    i = int(np.argmax(q))
    return float(q[i]), int(p[i])

def slope_pair(values, k: int) -> SlopePair:
    """Both one-sided slopes at an interior index (1 <= k <= N-1)."""
    left, pl = left_slope(values, k)
    right, pr = right_slope(values, k)
    return SlopePair(index=k, left=left, right=right, arg_left=pl, arg_right=pr)

def windowed_slope_pair(values, k: int, window: int) -> SlopePair:
    """Slopes with the widened range p in 1..window on both sides; the
    sequence must extend over k-window .. k+window."""
    values = np.asarray(values, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if k - window < 0 or k + window > values.size - 1:
        raise IndexError(f"sequence does not cover k={k} +- window={window}")
    p = np.arange(1, window + 1)
    ql = (values[k] - values[k - p]) / p
    qr = (values[k + p] - values[k]) / p
    il = int(np.argmin(ql))
    ir = int(np.argmax(qr))
    return SlopePair(index=k, left=float(ql[il]), right=float(qr[ir]),
                     arg_left=int(p[il]), arg_right=int(p[ir]))


def all_slope_pairs(values) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized left/right slopes at every index of one sequence.

    Returns (gm, gp) with gm[k] defined for k >= 1 (nan at 0) and gp[k]
    defined for k <= N-1 (nan at N).
    """
    gm, gp = all_slope_pairs_batch(np.asarray(values, dtype=float)[None, :])
    return gm[0], gp[0]

def all_slope_pairs_batch(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left/right slopes at every index for a batch of sequences (R, N+1).

    One pass per lag p folds the quotients (I(k+p) - I(k)) / p into the
    running min at k+p and max at k, so memory is O(N) per row.
    """
    rows = np.asarray(rows, dtype=float)
    r, n = rows.shape
    gm = np.full((r, n), np.inf)
    gp = np.full((r, n), -np.inf)
    for p in range(1, n):
        q = (rows[:, p:] - rows[:, :-p]) / float(p)
        np.minimum(gm[:, p:], q, out=gm[:, p:])
        np.maximum(gp[:, :-p], q, out=gp[:, :-p])
    gm[:, 0] = np.nan
    gp[:, -1] = np.nan
    return gm, gp


class SlopeFunctional(NamedTuple):
    """Per-row slope functional of a batch of sequences I(0..N)."""

    terms: np.ndarray     # [R, N-1] positive parts of left(k) - right(k)
    f: np.ndarray         # their sum
    right0: np.ndarray    # right(0), the max over p of (I(p) - I(0)) / p
    endpoint: np.ndarray  # telescoped form right(0) - left(N)
    rel_err: np.ndarray   # |f - endpoint| / max(|f|, |endpoint|, 1e-30)


def slope_functional_batch(rows: np.ndarray) -> SlopeFunctional:
    """The slope functional, its endpoint form and their relative
    telescoping error for every row of a batch (R, N+1), N >= 2."""
    gm, gp = all_slope_pairs_batch(rows)
    terms = np.clip(gm[:, 1:-1] - gp[:, 1:-1], 0.0, None)
    f = terms.sum(axis=1)
    endpoint = gp[:, 0] - gm[:, -1]
    rel_err = np.abs(f - endpoint) / np.maximum.reduce(
        [np.abs(f), np.abs(endpoint), np.full_like(f, 1e-30)])
    return SlopeFunctional(terms, f, gp[:, 0], endpoint, rel_err)


def functional_F(values) -> float:
    """Sum over interior k of the positive part of left(k) - right(k)."""
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ValueError("need length >= 3")
    return math.fsum(slope_functional_batch(values[None, :]).terms[0])

def functional_F_endpoint(values) -> float:
    """Telescoped form right(0) - left(N) of the same functional."""
    return right_slope(values, 0)[0] - left_slope(values, len(values) - 1)[0]


def nodal_event(values, k: int) -> bool:
    """Whether k is a nodal point: left(k) >= right(k) together with the two
    one-sided barrier conditions (which hold by construction of the extremal
    slopes; they are checked explicitly all the same)."""
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    if not 1 <= k <= n - 1:
        raise IndexError(f"nodal_event needs interior k, got {k}")
    pair = slope_pair(values, k)
    p_left = np.arange(1, k + 1)
    p_right = np.arange(1, n - k + 1)
    # the barrier conditions compared in quotient form, which reproduces the
    # slope computation exactly and so cannot be broken by rounding
    below_left = np.all((values[k] - values[k - p_left]) / p_left >= pair.left)
    below_right = np.all((values[k + p_right] - values[k]) / p_right <= pair.right)
    return bool(pair.left >= pair.right) and bool(below_left) and bool(below_right)
