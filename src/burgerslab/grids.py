"""Uniform sample grids, grid-sampled paths and reproducible randomness.

Everything downstream (samplers, Burgers solver, Monte Carlo engines) works
on uniform grids that contain the coordinate 0 exactly, so that two-sided
processes can be anchored there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
import numpy as np

PATH_KINDS = ("fbm", "integrated", "potential", "velocity")

# Kinds whose value at the anchor must be exactly zero.
_ANCHORED_KINDS = ("fbm", "integrated")


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

    ``kind`` is one of 'fbm', 'integrated', 'potential', 'velocity'.  For the
    first two the value at the anchor index is exactly 0.
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
        if self.kind in _ANCHORED_KINDS and values[self.grid.anchor_index] != 0.0:
            raise ValueError(f"{self.kind} path must be exactly 0 at the anchor")

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
_MASK128 = 2 ** 128 - 1
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


def replica_normals(seed: int, replicas, length: int) -> np.ndarray:
    """Standard normals, one row of ``length`` per replica, equal bit for
    bit to ``RandomnessSpec(seed, r).generator().standard_normal(length)``.

    The seed hashing runs for the whole replica range at once and each row
    is drawn by one reused PCG64 whose state is set to that replica's
    seeded state, so no generator is built per replica.  Seed and replicas
    must lie in [0, 2^32), where each contributes one entropy word.
    """
    reps = np.asarray(replicas, dtype=np.int64)
    if not 0 <= seed <= _MASK32 or (
            reps.size and (reps.min() < 0 or reps.max() > _MASK32)):
        raise ValueError(f"seed and replicas must lie in [0, 2^32), got seed "
                         f"{seed} and replicas {replicas}")
    words = _pcg64_seed_words(int(seed), reps.astype(np.uint32)).astype(np.uint64)
    # little-endian pairs of uint32 words form generate_state(4, uint64)
    words = (words[:, 0::2] | (words[:, 1::2] << np.uint64(32))).tolist()
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state
    out = np.empty((len(words), length))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, words):
        # pcg64_set_seed: inc = 2*initseq + 1; state = (inc + initstate)*MULT + inc
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state["state"]["inc"] = inc
        state["state"]["state"] = (
            (inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_gen.state = state
        gen.standard_normal(out=row)
    return out


def write_csv(path, header, rows) -> None:
    """CSV writer using shortest round-trip float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(c) for c in row) + "\n")


def write_json(path, doc) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
