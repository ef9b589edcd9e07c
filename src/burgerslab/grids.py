"""Uniform sample grids, grid-sampled paths and reproducible randomness.

Everything downstream (samplers, Burgers solver, Monte Carlo engines) works
on uniform grids that contain the coordinate 0 exactly, so that two-sided
processes can be anchored there.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass
from functools import partial
import numpy as np

PATH_KINDS = ("fbm", "potential")


def check_hurst(h: float) -> float:
    """Validate a Hurst index; boundary values 0 and 1 are rejected."""
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst index must lie strictly in (0, 1), got {h}")
    return h


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid: coordinate of index i is ``left + i * spacing``."""

    left: float
    spacing: float
    count: int

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError(f"grid spacing must be > 0, got {self.spacing}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")

    @classmethod
    def anchored(cls, spacing: float, n_left: int, n_right: int) -> "SampleGrid":
        """Grid spanning ``[-n_left*spacing, n_right*spacing]`` whose anchor
        coordinate is exactly 0 (index ``n_left``)."""
        if n_left < 0 or n_right < 0 or n_left + n_right < 1:
            raise ValueError("anchored grid needs n_left, n_right >= 0 spanning "
                             "at least one step")
        return cls(left=-(n_left * float(spacing)), spacing=float(spacing),
                   count=n_left + n_right + 1)

    @classmethod
    def one_sided(cls, spacing: float, n: int) -> "SampleGrid":
        """Grid on [0, n*spacing] anchored at 0."""
        return cls.anchored(spacing, 0, n)

    @property
    def coordinates(self) -> np.ndarray:
        # (i - anchor)*spacing would also work; left is always -k*spacing for
        # anchored grids so the anchor coordinate comes out exactly 0 either way
        return self.left + self.spacing * np.arange(self.count)

    @property
    def right(self) -> float:
        return self.left + self.spacing * (self.count - 1)

    @property
    def anchor_index(self) -> int:
        """Index whose coordinate is exactly 0; raises if the grid has none."""
        i = int(round(-self.left / self.spacing))
        if i < 0 or i >= self.count or self.left + i * self.spacing != 0.0:
            raise ValueError("grid is not anchored: no index has coordinate 0")
        return i

    def index_of(self, coordinate: float) -> int:
        """Index of the grid point matching ``coordinate`` to 1e-9*spacing."""
        i = int(round((coordinate - self.left) / self.spacing))
        if i < 0 or i >= self.count or \
                abs(self.left + i * self.spacing - coordinate) > 1e-9 * self.spacing:
            raise ValueError(f"coordinate {coordinate} is not on the grid")
        return i


@dataclass(frozen=True)
class GridPath:
    """A process sample on a uniform grid.

    ``kind`` is 'fbm' or 'potential'.  An fbm path is exactly 0 at the
    anchor index.
    """

    grid: SampleGrid
    values: np.ndarray
    kind: str
    hurst: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.kind not in PATH_KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}")
        if values.shape != (self.grid.count,):
            raise ValueError(f"values shape {values.shape} does not match grid "
                             f"count {self.grid.count}")
        if not np.all(np.isfinite(values)):
            raise ValueError("path contains non-finite values")
        if self.kind == "fbm" and values[self.grid.anchor_index] != 0.0:
            raise ValueError("fbm path must be exactly 0 at the anchor")

    @property
    def coordinates(self) -> np.ndarray:
        return self.grid.coordinates

    def to_csv(self, path) -> None:
        write_csv(path, ("coordinate", "value"),
                  zip(self.coordinates, self.values))


# How RandomnessSpec and replica_normals turn (seed, replica) into draws;
# recorded in every run's manifest.
RNG_SCHEME = "numpy PCG64, SeedSequence((seed, replica)), one stream per replica"


@dataclass(frozen=True)
class RandomnessSpec:
    """Counter-style randomness contract: (seed, replica) fully determines
    every draw, so replicas can be generated in any order or in parallel."""

    seed: int
    replica: int = 0

    def __post_init__(self):
        if self.replica < 0:
            raise ValueError("replica must be non-negative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((int(self.seed), int(self.replica)))


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier, as in numpy/random/bit_generator.pyx and pcg64.h.
_MASK32 = 2 ** 32 - 1
_MASK64 = 2 ** 64 - 1
_LO32 = np.uint64(_MASK32)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int):
    """(xor, multiply) pairs of successive hashmix calls: the running hash
    constant does not depend on the data, so it is precomputed."""
    pairs = []
    for _ in range(count):
        nxt = (init * mult) & _MASK32
        pairs.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return tuple(pairs)


# 16 hashmix calls while mixing the entropy, 8 while generating PCG64's
# four uint64 words
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> np.uint32(16))


def _pcg64_seed_words(seed: int, replicas: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, r)).generate_state(8, uint32)`` for every r at
    once, in wrapping uint32 arithmetic; one row of 8 words per replica."""
    zero = np.zeros(replicas.shape, dtype=np.uint32)
    hashes = iter(_POOL_HASHES)
    pool = [_hashmix(word, next(hashes))
            for word in (zero + np.uint32(seed), replicas, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
    return np.stack([_hashmix(pool[i % 4], consts)
                     for i, consts in enumerate(_STATE_HASHES)], axis=-1)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b`` (uint64 a, b < 2^64),
    from 32-bit halves whose partial products fit in uint64."""
    a0, a1 = a & _LO32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> np.uint64(32)) + (cross0 & _LO32) + (cross1 & _LO32)
    return (a1 * b1 + (cross0 >> np.uint64(32)) + (cross1 >> np.uint64(32))
            + (mid >> np.uint64(32)))


def _pcg64_seeded_states(seed: int, replicas: np.ndarray) -> np.ndarray:
    """Each replica's seeded PCG64 state as uint64 limbs, one row of
    (state low, state high, inc low, inc high) per replica.

    ``pcg64_set_seed`` on the words of ``_pcg64_seed_words``: inc =
    2*initseq + 1 and state = (inc + initstate)*MULT + inc, mod 2^128, with
    the carries between limbs taken by comparison.
    """
    words = _pcg64_seed_words(seed, replicas).astype(np.uint64)
    # little-endian pairs of uint32 words form generate_state(4, uint64)
    words = words[:, 0::2] | (words[:, 1::2] << np.uint64(32))
    s_hi, s_lo, i_hi, i_lo = words.T
    one = np.uint64(1)
    inc_lo = (i_lo << one) | one
    inc_hi = (i_hi << one) | (i_lo >> np.uint64(63))
    sum_lo = inc_lo + s_lo
    sum_hi = inc_hi + s_hi + (sum_lo < inc_lo)
    mult_lo, mult_hi = _PCG64_MULT & _MASK64, _PCG64_MULT >> 64
    prod_lo = sum_lo * np.uint64(mult_lo)
    prod_hi = (_mulhi64(sum_lo, mult_lo) + sum_lo * np.uint64(mult_hi)
               + sum_hi * np.uint64(mult_lo))
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=-1)


def _direct_setter(bit_gen, states: np.ndarray):
    """Setter and per-row keys that copy each row's 32 bytes into the
    generator's ``pcg64_random_t``, whose address is the first member of the
    struct at ``state_address`` (state, then inc, each as low and high
    uint64 limbs when the build has 128-bit integers)."""
    address = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address).value
    struct = memoryview((ctypes.c_char * 32).from_address(address)).cast("B")
    raw = states.tobytes()
    return (partial(struct.__setitem__, slice(None)),
            [raw[k:k + 32] for k in range(0, len(raw), 32)])


def _draw_rows(seed: int, replicas, length: int, write: str,
               out: np.ndarray | None = None) -> np.ndarray:
    """Rows of ``replica_normals`` with the state write ``write``, written
    into ``out`` when it is given: "direct" sets one reused PCG64 to each
    replica's state, "generator" builds each replica's own generator."""
    if out is None:
        out = np.empty((len(replicas), length))
    if write == "generator":
        for replica, row in zip(np.asarray(replicas).tolist(), out):
            RandomnessSpec(seed, replica).generator().standard_normal(out=row)
        return out
    states = _pcg64_seeded_states(seed, np.asarray(replicas, dtype=np.uint32))
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    set_state, keys = _direct_setter(bit_gen, states)
    for key, row in zip(keys, out):
        set_state(key)
        gen.standard_normal(out=row)
    return out


# "direct" or "generator" once rng_state_write() has probed
_STATE_WRITE = None


def rng_state_write() -> str:
    """How ``replica_normals`` sets each row's state: "direct" when 32-byte
    writes into the PCG64 struct reproduce the per-replica generators on a
    probe, else "generator", one generator per replica.  Probed once per
    process; recorded in manifests."""
    global _STATE_WRITE
    if _STATE_WRITE is None:
        seed, reps = _MASK32, [0, 1, 2 ** 31, _MASK32]
        # the generators RandomnessSpec(seed, r).generator() builds
        want = [np.random.default_rng((seed, r)).standard_normal(5)
                for r in reps]
        try:
            direct = np.array_equal(_draw_rows(seed, reps, 5, "direct"), want)
        except Exception:  # any failure of the direct path selects generators
            direct = False
        _STATE_WRITE = "direct" if direct else "generator"
    return _STATE_WRITE


def replica_normals(seed: int, replicas, length: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals, one row of ``length`` per replica, equal bit for
    bit to ``RandomnessSpec(seed, r).generator().standard_normal(length)``.

    The seed hashing and the seeded PCG64 states are computed for the whole
    replica range at once; each row is drawn by one reused PCG64 whose
    state is overwritten with that replica's, so no generator is built per
    replica, unless the probe of ``rng_state_write`` refuses such writes.
    Seed and replicas must lie in [0, 2^32), where each contributes one
    entropy word.  With ``out``, a float array of shape (replicas, length),
    the rows are written into it and it is returned.
    """
    reps = np.asarray(replicas, dtype=np.int64)
    if not 0 <= seed <= _MASK32 or (
            reps.size and (reps.min() < 0 or reps.max() > _MASK32)):
        raise ValueError(f"seed and replicas must lie in [0, 2^32), got seed "
                         f"{seed} and replicas {replicas}")
    if out is not None and (out.shape != (reps.size, length)
                            or out.dtype != np.float64):
        raise ValueError(f"out must be a float64 array of shape "
                         f"{(reps.size, length)}, got {out.dtype} {out.shape}")
    return _draw_rows(int(seed), reps, length, rng_state_write(), out)


def write_csv(path, header, rows) -> None:
    """CSV writer using shortest round-trip float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(c) for c in row) + "\n")


def _finite(doc):
    """``doc`` with each non-finite float, which JSON cannot hold, as None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(value) for value in doc]
    return doc


def write_json(path, doc) -> None:
    """Indented, key-sorted JSON with a trailing newline; a non-finite
    float is written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path, rows) -> None:
    """One key-sorted JSON object per line, non-finite floats as null."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(_finite(row), sort_keys=True) + "\n"
                      for row in rows)


def _format_cell(c) -> str:
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    return "" if c is None else str(c)


def read_path_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back a two-column coordinate,value CSV written by GridPath.to_csv."""
    coords, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["coordinate", "value"]:
            raise ValueError(f"unexpected CSV header {header}")
        for line in fh:
            a, b = line.strip().split(",")
            coords.append(float(a))
            values.append(float(b))
    return np.array(coords), np.array(values)
