"""Reproducible batch experiments behind the command-line front door.

Every experiment consumes a RunConfig (the ``FIELDS`` all six read, and
the options its ``OPTIONS`` rows declare), writes machine-readable artifacts
(JSON-lines records, CSV tables, JSON summaries) plus a manifest, and is
bit-reproducible from that manifest: outputs depend only on the config.
sample and solve run their cells (Hurst indices, replicas) one after
another.  dim, persist, chain and rkhs-verify estimate all their cells on
one pass of draws per seed (``persistence.replica_stats``): each replica's
noise is drawn once for every cell, and the replicas are spread over the
process's worker pool in one contiguous span per worker
(``persistence.pool_map``, capped by BURGERSLAB_WORKERS), which cannot
change results: every replica is deterministic and results are gathered in
replica order.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import __version__
from .burgers import solve
from .envelopes import envelope_backend
from .fbm import (EXACT_SAMPLER_MAX_POINTS, FactorizationError, FastRows,
                  exact_sampler, sample_fbm_fast, sample_fbm_fast_batch)
from .fitting import fit_scaling
from .fractal import box_count
from .grids import (RNG_SCHEME, GridPath, RandomnessSpec, SampleGrid,
                    rng_state_write, write_json, write_jsonl)
from .persistence import (
    MIN_REPLICAS,
    PROCESSES,
    BarrierEvent,
    _exact_steps,
    bound_check,
    estimate_persistences,
    exponent_fit,
    replica_stats,
    verify_chains,
    worker_count,
)
from .rkhs import (
    SHIFT_MC_MAX_POINTS,
    build_space,
    parse_trend,
    rkhs_norm,
    trend,
    verify_shift_inequalities,
)

# chain draws its max-mean constant at seed + 1, and every stream is keyed by
# (seed, replica) words below 2^32
SEED_MAX = 2 ** 32 - 2
REPLICAS_MAX = 2 ** 32

# dim's largest grid, 2^20 points: about 200 MB per process
DIM_GRID_LOG2_MAX = 20

# dim's and criterion 07's box ladder 2^-4..2^-10, and the edge cut from
# each end of [-1, 1] to make their window
DIM_SCALES = tuple(2.0 ** -j for j in range(4, 11))
DIM_EDGE = 0.05

# sample's and solve's largest grids, 2^20 + 1 points like dim's
SAMPLE_POINTS_MAX = 2 ** 20
SOLVE_HALF_POINTS_MAX = 2 ** 19

# persist's largest horizon / spacing: a two-sided grid of 2^20 + 1 points
# like dim's, whose pass takes 185 MB above the import (measured)
PERSIST_STEPS_MAX = 2 ** 19

# chain's window holds 3n + 1 points, and a pass over one of its rows takes
# about 600 bytes per unit of n (40 MB above the import at n = 2^16), so the
# largest n takes about 160 MB per process
CHAIN_N_MAX = 2 ** 18

# rkhs-verify's largest half-points: its grid of 2*half + 1 points must fit
# the shift verification's cap
RKHS_HALF_POINTS_MAX = (SHIFT_MC_MAX_POINTS - 1) // 2


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@contextmanager
def path_errors(field: str, path):
    """Raise a failure to open, make or decode ``path`` inside the block as
    a ConfigError naming ``field``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{field} {path}: {reason}") from None


_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _number(raw, kind):
    """``kind(raw)``, refusing a bool, which Python counts as a number, and
    a fraction when ``kind`` is int."""
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float)
                                 and not raw.is_integer()):
        raise ValueError
    return kind(raw)


def parse_value(raw, default, name: str):
    """``raw`` parsed as the type of ``default``; None gives ``default``.
    A tuple default means floats, comma-separated when ``raw`` is a string;
    a bool is true/false, 1/0 or yes/no in any case, or a real bool; a
    number is no bool, and an int no fraction."""
    if raw is None:
        return default
    try:
        if isinstance(default, bool):
            return raw if isinstance(raw, bool) else _BOOLS[str(raw).lower()]
        if isinstance(default, tuple):
            return tuple(_number(v, float) for v in
                         (raw.split(",") if isinstance(raw, str) else raw))
        if isinstance(default, (int, float)):
            return _number(raw, type(default))
    except (TypeError, ValueError, KeyError):
        kind = ("a comma-separated list of numbers"
                if isinstance(default, tuple) else type(default).__name__)
        raise ConfigError(f"{name} must parse as {kind}, got {raw!r}") from None
    return str(raw)


# Rules on parsed values: (the allowed values in words, a predicate).
_FINITE = ("finite", math.isfinite)
_POSITIVE = ("finite and > 0", lambda v: math.isfinite(v) and v > 0)
_NON_NEGATIVE = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)


def _within(lo, hi) -> tuple:
    return f"in [{lo}, {hi}]", lambda v: lo <= v <= hi


def _at_least(lo) -> tuple:
    return f"at least {lo}", lambda v: v >= lo


class Option:
    """An input's row (a run-config field, an experiment's option, a
    check's ``--set`` key): its default, whose type parses it, and a rule."""

    def __init__(self, default, allowed: str, ok):
        self.default, self.allowed, self.ok = default, allowed, ok


def parse_options(rows: dict, given: dict, what: str, owner: str) -> dict:
    """Every row's value: its string in ``given`` parsed as the type of its
    default, or the default.  Raises ConfigError naming the first key that
    no row declares, that does not parse or whose rule refuses it."""
    for key in given:
        if key not in rows:
            raise ConfigError(f"unknown {what} {key} for {owner}; its "
                              f"{what}s are {', '.join(rows) or 'none'}")
    values = {}
    for key, row in rows.items():
        value = values[key] = parse_value(given.get(key), row.default,
                                          f"{what} {key}")
        if not row.ok(value):
            raise ConfigError(f"{what} {key} must be {row.allowed}, "
                              f"got {value!r}")
    return values


OPTIONS = {
    "sample": {
        "points": Option(256, *_within(1, SAMPLE_POINTS_MAX)),
        "method": Option("fast", "fast or exact",
                         ("fast", "exact").__contains__),
        "spacing": Option(1.0, *_POSITIVE),
    },
    "solve": {
        "half-points": Option(512, *_within(1, SOLVE_HALF_POINTS_MAX)),
        "time": Option(1.0, *_POSITIVE),
        "spacing": Option(1.0, *_POSITIVE),
    },
    "dim": {
        "grid-log2": Option(16, *_within(1, DIM_GRID_LOG2_MAX)),
        "time": Option(1.0, *_POSITIVE),
        "slope-tol": Option(0.1, *_NON_NEGATIVE),
    },
    "persist": {
        "horizons": Option((), "a non-empty list of distinct finite values "
                           ">= 1", lambda ts: len(set(ts)) == len(ts) > 0
                           and all(1 <= t < math.inf for t in ts)),
        "spacing": Option(1.0, "in (0, 1]", lambda v: 0 < v <= 1),
        "events": Option("fbm_max", "a comma-separated list of distinct "
                         "events among " + ", ".join(PROCESSES),
                         lambda v: set(v.split(",")) <= set(PROCESSES)
                         and len(set(v.split(","))) == v.count(",") + 1),
        "level": Option(1.0, *_FINITE),
        # unset, fbm_max and ifbm_one_sided check at _KNOWN_EXPONENTS' tol
        "slope-tol": Option(0.1, *_NON_NEGATIVE),
    },
    "chain": {
        "n": Option(64, *_within(2, CHAIN_N_MAX)),
    },
    "rkhs-verify": {
        "half-points": Option(16, f"even and in [2, {RKHS_HALF_POINTS_MAX}]",
                              lambda v: v % 2 == 0
                              and 2 <= v <= RKHS_HALF_POINTS_MAX),
        "trend": Option("combined0", "combined0, combined1, psi, psi*<f>, "
                        "covcol@<x>[*<f>] or zero, with finite numbers",
                        lambda v: parse_trend(v) is not None),
        "level": Option(2.0, *_FINITE),
    },
}

EXPERIMENTS = tuple(OPTIONS)

# the widths of sample's, solve's and dim's grids, from their options
_WIDTHS = {"sample": lambda opts: opts["spacing"] * opts["points"],
           "solve": lambda opts: opts["spacing"] * 2 * opts["half-points"],
           "dim": lambda opts: 2.0}

# The run-config fields besides experiment and options; all six read them
FIELDS = {
    # "h={h:g}" keys every output, so two values it prints alike repeat
    "hurst": Option((0.5,), "a non-empty list of values in (0, 1) distinct "
                    "to 6 digits", lambda hs: len({f"{h:g}" for h in hs})
                    == len(hs) > 0 and all(0.0 < h < 1.0 for h in hs)),
    "replicas": Option(100, *_within(1, REPLICAS_MAX)),
    "seed": Option(0, *_within(0, SEED_MAX)),
    "out": Option("run-out", "a non-empty path", bool),
    "check": Option(False, "true or false", lambda _v: True),
}


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    hurst: tuple[float, ...] = FIELDS["hurst"].default
    replicas: int = FIELDS["replicas"].default
    seed: int = FIELDS["seed"].default
    out: str = FIELDS["out"].default
    check: bool = FIELDS["check"].default
    options: dict = field(default_factory=dict)

    def validate(self) -> "RunConfig":
        """The config with its fields typed as their rows' defaults, once
        every field and every option is checked, before any output is made;
        raises ConfigError naming the first bad one."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, "
                              f"got {self.experiment!r}")
        cfg = replace(self, **parse_options(
            FIELDS, {key: getattr(self, key) for key in FIELDS}, "field",
            "run configs"))
        opts = cfg.typed_options
        # the checks that span several fields or options
        if (self.experiment == "sample" and opts["method"] == "exact"
                and opts["points"] >= EXACT_SAMPLER_MAX_POINTS):
            raise ConfigError(f"option points must be at most "
                              f"{EXACT_SAMPLER_MAX_POINTS - 1} for "
                              f"method=exact, got {opts['points']}")
        # a grid of finite width w, and for solve and dim a finite potential
        # term w^2 / (2 time); sample has no time, so its term reads 0
        w = _WIDTHS[self.experiment](opts) if self.experiment in _WIDTHS else 0
        if not math.isfinite(w * (w / (2.0 * opts.get("time", math.inf)))):
            names = " and ".join(k for k in ("spacing", "time") if k in opts)
            raise ConfigError(f"option {names} must keep the grid width w, "
                              f"and w^2 / (2 time) for solve and dim, finite, "
                              f"got w = {w:g}")
        if self.experiment == "persist":
            cfg._validate_persist()
        if self.experiment == "rkhs-verify":
            for h in cfg.hurst:
                try:
                    space = build_space(_rkhs_grid(opts["half-points"]), h)
                    rkhs_norm(space, trend(space, opts["trend"]))
                except ValueError as exc:
                    raise ConfigError(f"option trend {opts['trend']} at "
                                      f"hurst {h:g}: {exc}") from None
        return cfg

    def _validate_persist(self) -> None:
        """The preconditions of ``estimate_persistence`` and its events that
        span several inputs."""
        if self.replicas < MIN_REPLICAS:
            raise ConfigError(f"replicas must be >= {MIN_REPLICAS} for "
                              f"persist, got {self.replicas}")
        spacing = self.opt("spacing")
        for t in self.opt("horizons"):
            if t / spacing > PERSIST_STEPS_MAX:
                raise ConfigError(f"horizons / spacing must be at most "
                                  f"{PERSIST_STEPS_MAX}, got {t / spacing}")
            try:
                _exact_steps(t, spacing, "horizon")
            except ValueError as exc:
                raise ConfigError(f"horizons: {exc}") from None
        try:
            _persist_cells(self)
        except ValueError as exc:
            raise ConfigError(f"option events: {exc}") from None

    @cached_property
    def typed_options(self) -> dict:
        """Every option of the experiment, parsed once: its string parsed as
        the type of its row's default, or that default when not given."""
        return parse_options(OPTIONS[self.experiment], self.options, "option",
                             self.experiment)

    def opt(self, key: str):
        return self.typed_options[key]


def config_from_dict(doc: dict) -> RunConfig:
    """Typed, validated config from raw values (the strings of flags and
    config files, or a manifest's typed values); each ``FIELDS`` key is a
    field, and every other key is an option, below those of
    ``doc["options"]``."""
    options = {k: v for k, v in doc.items()
               if k not in (*FIELDS, "experiment", "options")}
    if not isinstance(doc.get("options", {}), dict):
        raise ConfigError(f"options must be an object of key: value pairs, "
                          f"got {doc['options']!r}")
    return RunConfig(experiment=doc.get("experiment"),
                     options={**options, **doc.get("options", {})},
                     **{k: doc[k] for k in FIELDS if k in doc}).validate()


def load_config_file(path) -> dict:
    """Plain key = value text; '#' comments.  Values stay strings, typed by
    ``config_from_dict``."""
    doc = {}
    with path_errors("config", path), open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            doc[key.strip()] = value.strip()
    return doc


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_sample(cfg: RunConfig, outdir: Path) -> dict:
    grid = SampleGrid.one_sided(cfg.opt("spacing"), cfg.opt("points"))
    index = []
    for h in cfg.hurst:
        # one exact factorization per H, here: validate would double it
        try:
            draw = (partial(sample_fbm_fast_batch, h, grid)
                    if cfg.opt("method") == "fast" else exact_sampler(h, grid))
        except FactorizationError as exc:
            raise ConfigError(f"field hurst {h:g}: {exc}; use method=fast") \
                from None
        for rep in range(cfg.replicas):
            path = GridPath(grid, draw(cfg.seed, range(rep, rep + 1))[0],
                            "fbm", hurst=h)
            name = f"path_h{h:g}_r{rep}.csv"
            path.to_csv(outdir / name)
            index.append({"h": h, "replica": rep, "file": name,
                          "max": float(path.values.max()),
                          "min": float(path.values.min())})
    write_jsonl(outdir / "index.jsonl", index)
    return {"checks": [], "flagged": False}


def run_solve(cfg: RunConfig, outdir: Path) -> dict:
    half = cfg.opt("half-points")
    t = cfg.opt("time")
    rows = []
    for h in cfg.hurst:
        grid = SampleGrid.anchored(cfg.opt("spacing"), half, half)
        for rep in range(cfg.replicas):
            u0 = sample_fbm_fast(h, grid, RandomnessSpec(cfg.seed, rep))
            sol = solve(u0, t)
            stem = f"h{h:g}_r{rep}"
            sol.to_csv(outdir / f"solution_{stem}.csv")
            sol.clusters_to_jsonl(outdir / f"clusters_{stem}.jsonl", u0)
            rows.append({"h": h, "replica": rep,
                         "contacts": int(len(sol.contact_indices)),
                         "clusters": len(sol.shock_clusters)})
    write_jsonl(outdir / "summary.jsonl", rows)
    return {"checks": [], "flagged": False}


def _dim_counts(grid: SampleGrid, t: float, rows):
    """Per replica of ``rows`` (paths on ``grid``): its count of contacts in
    dim's window at time t, and its box counts there on ``DIM_SCALES``,
    zeros when the window holds fewer than 4 contacts."""
    lo, hi = window = (-1.0 + DIM_EDGE, 1.0 - DIM_EDGE)
    points = np.empty(len(rows), np.int64)
    counts = np.zeros((len(rows), len(DIM_SCALES)), np.int64)
    for i, row in enumerate(rows):
        coords = solve(GridPath(grid, row, "fbm"), t).contact_coordinates
        pts = coords[(coords >= lo) & (coords <= hi)]
        points[i] = pts.size
        if pts.size >= 4:
            counts[i] = [box_count(pts, s, window) for s in DIM_SCALES]
    return points, counts


def _dim_cells(cfg: RunConfig) -> list[tuple]:
    """(records, summary, replica 0's non-degenerate fit or None) for each
    Hurst index of ``cfg``, all on one pass of draws
    (``persistence.replica_stats``)."""
    n = 2 ** cfg.opt("grid-log2")
    grid = SampleGrid.anchored(2.0 / n, n // 2, n // 2)
    stat = partial(_dim_counts, grid, cfg.opt("time"))
    stats = replica_stats([(FastRows(h, grid), stat) for h in cfg.hurst],
                          cfg.seed, cfg.replicas)
    return [_dim_cell(h, cfg, *counts) for h, counts in zip(cfg.hurst, stats)]


def _dim_cell(h: float, cfg: RunConfig, points, counts):
    """One Hurst index's per-replica records, its summary and replica 0's
    fit, from each replica's contacts in the window and its box counts."""
    records, first_fit = [], None
    for rep, (size, row) in enumerate(zip(points, counts)):
        record = {"h": h, "replica": rep, "slope": None, "points": int(size)}
        # total collapse happens at small grids; no dimension to fit
        fit = fit_scaling(DIM_SCALES, row) if size >= 4 else None
        if fit is not None:
            record.update(max_residual=fit.max_residual,
                          split_discrepancy=fit.split_discrepancy)
        if fit is None or fit.degenerate:
            record["reason"] = ("window_collapsed" if fit is None
                                else "degenerate_fit")
        else:
            record["slope"] = fit.slope
            first_fit = fit if rep == 0 else first_fit
        records.append(record)
    slopes = np.array([r["slope"] for r in records if r["slope"] is not None])
    summary = {"h": h,
               "slope": float(slopes.mean()) if slopes.size else None,
               "slope_se": float(slopes.std(ddof=1) / np.sqrt(slopes.size))
               if slopes.size > 1 else 0.0,
               "valid_replicas": int(slopes.size),
               "replicas": cfg.replicas, "grid_log2": cfg.opt("grid-log2")}
    return records, summary, first_fit


def run_dim(cfg: RunConfig, outdir: Path) -> dict:
    results = _dim_cells(cfg)
    records = [r for cell, _, _ in results for r in cell]
    summaries = [s for _, s, _ in results]
    write_jsonl(outdir / "records.jsonl", records)
    write_json(outdir / "summary.json",
               {f"h={s['h']:g}": s for s in summaries})
    for h, (_, _, fit) in zip(cfg.hurst, results):
        if fit is not None:
            fit.to_csv(outdir / f"fit_h{h:g}_scale_count.csv")
            write_json(outdir / f"fit_h{h:g}.json", fit.summary())
    tol = cfg.opt("slope-tol")
    return {"checks": [bound_check(f"dim slope h={s['h']:g}", s["slope"],
                                   s["slope_se"], s["h"] - tol, s["h"] + tol)
                       for s in summaries],
            "flagged": any(s["valid_replicas"] < s["replicas"]
                           for s in summaries)}


# per event, its persistence exponent at H (None where unknown) and the
# tolerance of persist --check and of criteria 08 and 09 when none is given
_KNOWN_EXPONENTS = {"fbm_max": (lambda h: 1.0 - h, 0.07),
                    "ifbm_one_sided": (lambda h: 0.25 if h == 0.5 else None,
                                       0.08)}


def _persist_cells(cfg: RunConfig) -> list[tuple]:
    """persist's (BarrierEvent, H) cells by event, H and sorted horizon;
    raises ValueError for an unknown event or an off-grid horizon or radius."""
    cells = [(BarrierEvent(name, cfg.opt("level"), t), h)
             for name in cfg.opt("events").split(",") for h in cfg.hurst
             for t in sorted(cfg.opt("horizons"))]
    for event, _ in cells:
        event.grid(cfg.opt("spacing"))
    return cells


def _persist_fits(cfg: RunConfig) -> tuple[list, list, dict]:
    """persist's cells, their estimates on one pass of draws, and one
    ``exponent_fit`` per (event name, H) of a ladder of 4 or more horizons."""
    cells = _persist_cells(cfg)
    ests = estimate_persistences(cells, cfg.opt("spacing"), cfg.replicas,
                                 cfg.seed)
    size = len(cfg.opt("horizons"))
    starts = range(0, len(cells), size) if size >= 4 else ()
    fits = {(cells[i][0].process, cells[i][1]): exponent_fit(ests[i:i + size])
            for i in starts}
    return cells, ests, fits


def _exponent_checks(cfg: RunConfig, fits: dict) -> dict:
    """The check row of each (event name, H) fit whose exponent is known, at
    option slope-tol when given, else at the event's own tolerance."""
    rows = {}
    for (name, h), fit in fits.items():
        exponent, tol = _KNOWN_EXPONENTS.get(name, (lambda _h: None, None))
        if exponent(h) is not None:
            tol = cfg.opt("slope-tol") if "slope-tol" in cfg.options else tol
            rows[name, h] = bound_check(f"exponent {name} h={h:g}", fit.slope,
                                        fit.slope_se, exponent(h) - tol,
                                        exponent(h) + tol)
    return rows


def run_persist(cfg: RunConfig, outdir: Path) -> dict:
    cells, ests, fits = _persist_fits(cfg)
    records = []
    for (event, h), est in zip(cells, ests):
        records.append({**est.record(), "event": event.process,
                        "level": event.level, "h": h})
        fit = fits.get((event.process, h))
        # an estimate left out of its fit says why
        if fit is not None and est.horizon in fit.excluded:
            records[-1]["reason"] = (fit.reason if est.reliable
                                     else "below_reliability_floor")
    write_jsonl(outdir / "records.jsonl", records)
    if fits:
        write_json(outdir / "fits.json", {f"{name} h={h:g}": fit.summary()
                                          for (name, h), fit in fits.items()})
    return {"checks": list(_exponent_checks(cfg, fits).values()),
            "flagged": any(fit.degenerate or fit.excluded
                           for fit in fits.values())}


def run_chain(cfg: RunConfig, outdir: Path) -> dict:
    docs = verify_chains(cfg.hurst, cfg.opt("n"), cfg.replicas, cfg.seed)
    write_json(outdir / "chain.json",
               {f"h={h:g}": doc for h, doc in zip(cfg.hurst, docs)})
    return {"checks": [{"name": f"chain h={h:g}", "pass": doc["pass"]}
                       for h, doc in zip(cfg.hurst, docs)], "flagged": False}


def _rkhs_grid(half: int) -> SampleGrid:
    """rkhs-verify's grid on [-2, 2] with ``half`` steps per side."""
    return SampleGrid.anchored(2.0 / half, half, half)


def run_rkhs_verify(cfg: RunConfig, outdir: Path) -> dict:
    spaces = [build_space(_rkhs_grid(cfg.opt("half-points")), h)
              for h in cfg.hurst]
    rows = verify_shift_inequalities(
        [(space, trend(space, cfg.opt("trend")), cfg.opt("level"))
         for space in spaces], cfg.replicas, cfg.seed)
    write_json(outdir / "shift.json",
               {f"h={h:g}": row for h, row in zip(cfg.hurst, rows)})
    return {"checks": rows, "flagged": any(row["inconclusive"] for row in rows)}


_RUNNERS = {"sample": run_sample, "solve": run_solve, "dim": run_dim,
            "persist": run_persist, "chain": run_chain,
            "rkhs-verify": run_rkhs_verify}


def run_experiment(cfg: RunConfig) -> tuple[int, dict]:
    """Execute an experiment; returns (exit_status, summary).

    The run writes into a stage inside --out.  On success its files replace
    their namesakes there, its manifest last; a run that fails or is
    interrupted leaves --out as it found it.  Exit statuses: 0 success,
    2 numerical failure (flagged estimates), 3 failed --check assertions.
    Config errors raise ConfigError (exit 1 at the CLI boundary).
    """
    cfg = cfg.validate()
    try:
        workers = worker_count()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    outdir = Path(cfg.out)
    made = [p for p in (outdir, *outdir.parents) if not p.exists()]
    with path_errors("out", outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=outdir))
    started = time.perf_counter()
    try:
        summary = _RUNNERS[cfg.experiment](cfg, stage)
        write_manifest(cfg, stage, time.perf_counter() - started, workers)
        (outdir / "manifest.json").unlink(missing_ok=True)
        for path in sorted(stage.iterdir(),
                           key=lambda p: p.name == "manifest.json"):
            path.replace(outdir / path.name)
        stage.rmdir()
    except BaseException:
        shutil.rmtree(made[-1] if made else stage, ignore_errors=True)
        raise
    status = 0
    if summary.get("flagged"):
        status = 2
    if cfg.check and any(not c["pass"] for c in summary.get("checks", [])):
        status = 3
    return status, summary


def write_manifest(cfg: RunConfig, outdir: Path, wall_time_s: float,
                   workers: int) -> None:
    """Config, provenance and wall time, the only output that may differ
    between re-runs of one config; ``run_experiment`` writes it into the
    run's stage after the result files and moves it into --out after them."""
    provenance = {"rng": RNG_SCHEME, "rng_state_write": rng_state_write(),
                  "numpy": np.__version__,
                  "hull": envelope_backend(), "workers": workers}
    write_json(outdir / "manifest.json",
               {"config": asdict(cfg), "tool_version": __version__,
                "provenance": provenance, "wall_time_s": wall_time_s})


def rerun_from_manifest(manifest_path, out: str | None = None) -> tuple[int, dict]:
    with path_errors("manifest", manifest_path), \
            open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{manifest_path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise ConfigError(f"{manifest_path}: no config object")
    # older manifests hold horizons and spacing for every experiment
    read = OPTIONS.get(str(doc["config"].get("experiment")), {})
    cfg = config_from_dict({k: v for k, v in doc["config"].items()
                            if k in read or k not in ("horizons", "spacing")})
    if out is not None:
        cfg = replace(cfg, out=out)
    return run_experiment(cfg)
