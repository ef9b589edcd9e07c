"""Convex minorants of discrete sequences and one-sided slopes.

For a sequence I(0..N) the left/right extremal difference quotients at k are

    left(k)  = min over p in 1..k   of (I(k) - I(k-p)) / p
    right(k) = max over p in 1..N-k of (I(k+p) - I(k)) / p

k is a nodal point of the concave majorant, a node of the minorant of -I,
exactly when left(k) >= right(k); summing the positive parts of left - right
over interior k telescopes to right(0) - left(N).

Node extraction is Andrew's monotone chain, carried to its fixed point in
numpy.  Each stage drops, all at once, points that are not nodes:

* chords of the grid itself, (k - s, k, k + s) for s = 1, 2, 4, ..., over
  the whole sequence;
* chords of the survivors, (i - s, i, i + s) in survivor positions, with s
  halving from the largest power of two down to 2;
* rounds of the chain's own pop test of each survivor against its two
  surviving neighbours, each followed by the chords from a survivor's
  neighbour to the first survivor across the nearest gap that test opened.

The long chords drop a point only when it lies above the chord by a clear
margin (``_CHORD_MARGIN``), far outside rounding and the chain's 1e-12
collinearity tolerance: such a point is no node of the exact hull, so it is
none of the chain's nodes either.  The pop test uses the
chain's float expressions and tolerance.  Once a round drops nothing, every
consecutive survivor triple passes that test, so the chain would pop
nothing and the survivors are its nodes; only after ``_ROUND_CAP`` rounds
does the chain itself finish them.  The nodes equal those of the plain
chain over the whole sequence, which the tests keep as the oracle.  The one
exception is a pop test that falls at the edge of that tolerance: there the
plain chain's answer depends on which points sit below on its stack, and
the two envelopes can differ by about 1e-12 of the sequence's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# A long chord drops a point only this far (relative to the cross product's
# magnitude) above it, far outside the chain's 1e-12 band.
_CHORD_MARGIN = 1e-9
# Pop-test rounds before the chain finishes the survivors; each of dim's
# 2^16-point potentials reaches its fixed point within 4.
_ROUND_CAP = 16


def envelope_backend() -> str:
    """Name of the hull kernel, recorded as provenance."""
    return "numpy"


def _clearance(x0, x1, xk, y0, y1, yk):
    """The chain's cross product of each middle point against the chord of
    its outer points, > 0 strictly below the chord, and the magnitude
    max(|t1|, |t2|) it is judged by."""
    t1 = (x1 - x0) * (yk - y0)
    t2 = (xk - x0) * (y1 - y0)
    return t1 - t2, np.maximum(np.abs(t1), np.abs(t2))


def _grid_sweep(y: np.ndarray) -> np.ndarray:
    """Indices left after dropping each point that lies clearly above a
    grid chord (k - s, k + s), s = 1, 2, 4, ...

    On the grid the cross product is s (y[k-s] + y[k+s] - 2 y[k]) and its
    magnitude at most 4 s max|y|, so one margin of 4 max|y| times
    ``_CHORD_MARGIN`` serves every chord and is never below its own."""
    n = y.size
    margin = 4 * _CHORD_MARGIN * np.abs(y).max()
    drop = np.zeros(n, dtype=bool)
    buf = np.empty(n)
    off = np.empty(n, dtype=bool)
    s = 1
    while 2 * s < n:
        m = n - 2 * s
        d = np.add(y[:m], y[2 * s:], out=buf[:m])
        d -= y[s:-s]
        d -= y[s:-s]
        np.less(d, -margin, out=off[:m])
        drop[s:-s] |= off[:m]
        s *= 2
    return np.flatnonzero(~drop)


def _drop_middles(xs, ys, s: int):
    """Survivors after testing each triple (i - s, i, i + s) of survivor
    positions: at s = 1 the chain's pop test, at s > 1 the clear margin.
    Returns (xs, ys, kept), kept the mask over the input, None when
    nothing is dropped."""
    if xs.size <= 2 * s:
        return xs, ys, None
    c, scale = _clearance(xs[:-2 * s], xs[s:-s], xs[2 * s:],
                          ys[:-2 * s], ys[s:-s], ys[2 * s:])
    drop = c <= 1e-12 * scale if s == 1 else c < -_CHORD_MARGIN * scale
    if not drop.any():
        return xs, ys, None
    kept = np.ones(xs.size, dtype=bool)
    kept[s:-s] = ~drop
    return xs[kept], ys[kept], kept


def _gap_chords(xs, ys, kept):
    """Survivors after testing each survivor i, with the clear margin,
    against the chords (i - 1, a) and (b, i + 1) that reach across the gaps
    the last pop test opened (``kept`` is its mask): a is the first survivor
    after the next gap to the right of i, b the last one before the next gap
    to its left.

    A zipper, a locally convex arc ending at a deep dip, keeps passing the
    pop test but for its last point, so that test peels it one point per
    round; against the point across the dip the whole overhang goes at once.
    """
    old = np.flatnonzero(kept)
    after = np.flatnonzero(~kept[old[1:] - 1]) + 1
    before = np.flatnonzero(~kept[old[:-1] + 1])
    i = np.arange(1, xs.size - 1)
    j = np.searchsorted(after, i, side="right")
    right = i[j < after.size]
    a = after[j[j < after.size]]
    j = np.searchsorted(before, i, side="left") - 1
    left = i[j >= 0]
    b = before[j[j >= 0]]
    drop = np.zeros(xs.size, dtype=bool)
    c, scale = _clearance(xs[right - 1], xs[right], xs[a],
                          ys[right - 1], ys[right], ys[a])
    drop[right] = c < -_CHORD_MARGIN * scale
    c, scale = _clearance(xs[b], xs[left], xs[left + 1],
                          ys[b], ys[left], ys[left + 1])
    drop[left] |= c < -_CHORD_MARGIN * scale
    if not drop.any():
        return xs, ys
    return xs[~drop], ys[~drop]


def _hull_nodes(y: np.ndarray) -> np.ndarray:
    """Node indices of the greatest convex minorant of the points (k, y[k])."""
    xs = _grid_sweep(y)
    ys = y[xs]
    # integer-valued floats: the products below equal the chain's int * float
    xs = xs.astype(float)
    s = 1  # up to the widest stride that leaves a triple
    while 4 * s < xs.size:
        s *= 2
    while s > 1:
        xs, ys, _ = _drop_middles(xs, ys, s)
        s //= 2
    for _ in range(_ROUND_CAP):
        xs, ys, kept = _drop_middles(xs, ys, 1)
        if kept is None:
            return xs.astype(np.int64)
        xs, ys = _gap_chords(xs, ys, kept)
    return _chain(xs.astype(np.int64).tolist(), ys.tolist())


def _chain(xs: list, ys: list) -> np.ndarray:
    """Monotone chain over points with strictly increasing integer xs.

    The top of the stack is popped unless it lies strictly below the chord
    from the point under it to the new point, by more than 1e-12 of the
    cross product's own magnitude.
    """
    sx = [xs[0]]
    sy = [ys[0]]
    for xk, yk in zip(xs[1:], ys[1:]):
        while len(sx) >= 2:
            x0 = sx[-2]
            y0 = sy[-2]
            t1 = (sx[-1] - x0) * (yk - y0)
            t2 = (xk - x0) * (sy[-1] - y0)
            if t1 - t2 <= 1e-12 * max(abs(t1), abs(t2)):
                sx.pop()
                sy.pop()
            else:
                break
        sx.append(xk)
        sy.append(yk)
    return np.array(sx, dtype=np.int64)


@dataclass(frozen=True)
class ConvexEnvelope:
    """Piecewise-linear minorant touching the sequence at its nodes."""

    count: int                  # length of the underlying sequence
    node_indices: np.ndarray    # strictly increasing, starts 0, ends count-1
    node_values: np.ndarray
    segment_slopes: np.ndarray  # per unit index step, one per segment

    def evaluate(self, indices=None) -> np.ndarray:
        """Envelope value at the given indices (default: the whole grid)."""
        if indices is None:
            indices = np.arange(self.count)
        return np.interp(indices, self.node_indices, self.node_values)


def lower_envelope(values) -> ConvexEnvelope:
    """Greatest convex minorant; collinear interior points are not nodes.
    Negation is exact, so ``lower_envelope(-y)`` is the least concave
    majorant of y, negated."""
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-d sequence of length >= 2")
    if not np.all(np.isfinite(values)):
        raise ValueError("sequence contains non-finite values")
    nodes = _hull_nodes(values)
    node_values = values[nodes]
    slopes = np.diff(node_values) / np.diff(nodes)
    return ConvexEnvelope(count=values.size, node_indices=nodes,
                          node_values=node_values, segment_slopes=slopes)


# ---------------------------------------------------------------------------
# one-sided slopes
# ---------------------------------------------------------------------------

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
