"""Programmatic acceptance suite: one named check per criterion.

Each check runs at its pinned desk scale and tolerance and returns its
details, ``{"rows": [...], ...}``, each row a ``persistence.bound_check``
row; its CheckResult passes exactly when all its rows do.  The CLI
``check`` subcommand and the acceptance test module both drive this
registry.  Each check declares its scales and targets as
settings; string overrides (e.g. {"dim.target-h0.5": "0.9"}) parse as the
type of the default and must meet the rule, so a deliberately broken
tolerance can be demonstrated and so tests can shrink scales.
"""

from __future__ import annotations

import filecmp
import math
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .burgers import clusters_match, solve, sticky_shock_clusters
from .envelopes import slope_functional_batch
from .experiments import (
    OPTIONS,
    Option,
    REPLICAS_MAX,
    RunConfig,
    parse_options,
    rerun_from_manifest,
    run_experiment,
    _at_least,
    _dim_cells,
    _exponent_checks,
    _FINITE,
    _KNOWN_EXPONENTS,
    _NON_NEGATIVE,
    _persist_fits,
    _within,
)
from .fbm import EXACT_SAMPLER_MAX_POINTS, FastRows, fbm_covariance, \
    integrate_values, sample_fbm_exact_batch, sample_fbm_fast, \
    sample_fbm_fast_batch
from .grids import RandomnessSpec, SampleGrid
from .persistence import (
    BROWNIAN_MAX_MEAN,
    MIN_REPLICAS,
    bound_check,
    mean_se,
    replica_stats,
    verify_chains,
)
from .rkhs import (
    build_space,
    combined_trend,
    rkhs_norm,
    trend,
    verify_shift_inequalities,
)

H_TRIPLE = (0.3, 0.5, 0.7)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    runtime_s: float
    details: dict


# --- criterion 1 -----------------------------------------------------------

def check_sampler_covariance(ov: dict) -> dict:
    replicas = ov["sampler-cov.replicas"]
    grid = SampleGrid.anchored(0.5, 3, 4)  # 8 points including the anchor
    coords = grid.coordinates
    worst = 0.0
    for h in H_TRIPLE:
        vals = sample_fbm_exact_batch(h, grid, 101, range(replicas))
        target = fbm_covariance(h, coords[:, None], coords[None, :])
        emp = vals.T @ vals / replicas
        se = np.sqrt((np.outer(np.diag(target), np.diag(target))
                      + target ** 2) / replicas)
        mask = se > 0
        dev = np.abs(emp - target)
        worst = max(worst, float((dev[mask] / se[mask]).max()))
        if np.any(dev[~mask] != 0):
            worst = math.inf
    # the largest deviation in SEs; its row's SE is that unit
    return {"rows": [bound_check("max covariance deviation", worst, 1.0,
                                 hi=4.0)], "replicas": replicas}


# --- criterion 2 -----------------------------------------------------------

def _ks_statistic(a, b) -> float:
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.  The
    gap is counted as an integer over lcm(len(a), len(b)) and divided
    once, so the statistic is the nearest float to the exact fraction."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = len(a), len(b)
    g = math.gcd(n1, n2)
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") * (n2 // g)
           - np.searchsorted(b, pooled, side="right") * (n1 // g))
    return int(np.abs(gap).max()) / ((n1 // g) * n2)


def check_sampler_equivalence(ov: dict) -> dict:
    replicas = ov["sampler-eq.replicas"]
    n = ov["sampler-eq.points"]
    grid = SampleGrid.one_sided(1.0, n)
    # the two-sample KS critical value at 1%
    crit = (math.sqrt(-math.log(0.01 / 2.0) / 2.0)
            * math.sqrt((replicas + replicas) / (replicas * replicas)))
    rows = []
    for h in H_TRIPLE:
        mx_exact = sample_fbm_exact_batch(h, grid, 201,
                                          range(replicas)).max(axis=1)
        mx_fast = sample_fbm_fast_batch(h, grid, 202, range(replicas)).max(axis=1)
        # got <= the float below crit exactly when got < crit
        rows.append(bound_check(f"ks h={h:g}",
                                _ks_statistic(mx_exact, mx_fast), None,
                                hi=math.nextafter(crit, 0.0)))
    return {"rows": rows, "critical_1pct": crit}


# --- criteria 3 and 4 -----------------------------------------------------

def _slope_functional_checks(w):
    """Per-row telescoping error and identity gap f - 2 right(0) of the
    slope functional of the running integral of ``w``."""
    sf = slope_functional_batch(integrate_values(w, 1.0, 0))
    return sf.rel_err, sf.f - 2.0 * sf.right0


def check_telescoping(ov: dict) -> dict:
    grid = SampleGrid.one_sided(1.0, ov["telescoping.length"] - 1)
    stats = replica_stats([(FastRows(h, grid), _slope_functional_checks)
                           for h in H_TRIPLE], 301, ov["telescoping.sequences"])
    worst = max(float(rel.max()) for rel, _ in stats)
    return {"rows": [bound_check("telescoping", worst, None, hi=1e-9)]}


def check_expectation_identity(ov: dict) -> dict:
    grid = SampleGrid.one_sided(1.0, ov["identity.n"])
    [(_, gap)] = replica_stats([(FastRows(0.5, grid),
                                 _slope_functional_checks)], 401,
                               ov["identity.replicas"])
    mean, se = mean_se(gap)
    return {"rows": [bound_check("identity gap h=0.5", mean, se, -4 * se,
                                 4 * se)]}


# --- criterion 5 -----------------------------------------------------------

def check_inequality_chain(ov: dict) -> dict:
    docs = verify_chains(H_TRIPLE, ov["chain.n"], ov["chain.replicas"], 501)
    # the Brownian max-mean constant, less a grid deficit of up to 0.03
    m1 = docs[H_TRIPLE.index(0.5)]["m1"]
    m1_gap = {**bound_check("m1 h=0.5", m1["mean"], m1["se"],
                            BROWNIAN_MAX_MEAN - 0.03 - 4 * m1["se"],
                            BROWNIAN_MAX_MEAN + 4 * m1["se"]),
              "oracle": BROWNIAN_MAX_MEAN}
    return {"rows": [{**rel, "name": f"{name} h={h:g}"}
                     for h, doc in zip(H_TRIPLE, docs)
                     for name, rel in doc["relations"].items()] + [m1_gap]}


# --- criterion 6 -----------------------------------------------------------

def check_burgers_oracle(ov: dict) -> dict:
    paths = ov["burgers.paths"]
    particles = ov["burgers.particles"]
    failures = []
    for h in H_TRIPLE:
        grid = SampleGrid.anchored(2.0 / particles, particles // 2,
                                   particles // 2)
        for rep in range(paths):
            u0 = sample_fbm_fast(h, grid, RandomnessSpec(601, rep))
            sol = solve(u0, t=1.0)
            sticky = sticky_shock_clusters(u0, t=1.0)
            if not clusters_match(sol.shock_clusters, sticky, tol_cells=1):
                failures.append({"h": h, "replica": rep})
    return {"rows": [bound_check("cluster mismatches", len(failures), None,
                                 hi=0)],
            "paths_per_h": paths, "failures": failures}


# --- criteria 7 to 10 ------------------------------------------------------

def check_dimension(ov: dict) -> dict:
    tol = ov["dim.slope-tol"]
    cfg = RunConfig(experiment="dim", hurst=H_TRIPLE,
                    replicas=ov["dim.replicas"], seed=701,
                    options={"grid-log2": str(ov["dim.grid-log2"])})
    return {"rows": [bound_check(
        f"dim slope h={h:g}", s["slope"], s["slope_se"],
        ov[f"dim.target-h{h:g}"] - tol, ov[f"dim.target-h{h:g}"] + tol)
                     for h, (_, s, _) in zip(H_TRIPLE, _dim_cells(cfg))],
            "tol": tol}


def check_max_exponent(ov: dict) -> dict:
    level, tol = ov["max-exp.level"], ov["max-exp.tol"]
    cfg = RunConfig("persist", hurst=H_TRIPLE, replicas=ov["max-exp.replicas"],
                    seed=801, options={"horizons": "64,128,256,512,1024",
                                       "level": level, "slope-tol": tol})
    _, _, fits = _persist_fits(cfg)
    return {"rows": [{**row, "excluded": list(fits[ev, h].excluded)}
                     for (ev, h), row in _exponent_checks(cfg, fits).items()],
            "level": level, "tol": tol}


def check_integral_exponent(ov: dict) -> dict:
    cfg = RunConfig("persist", hurst=(0.5,), replicas=ov["int-exp.replicas"],
                    seed=901, options={"horizons": "64,128,256,512",
                                       "events": "ifbm_one_sided",
                                       "slope-tol": ov["int-exp.tol"]})
    return {"rows": list(
        _exponent_checks(cfg, _persist_fits(cfg)[2]).values())}


def _puncture_ordering(replicas: int, pair=("ifbm_two_sided",
                                             "ifbm_punctured")) -> list:
    """(p1, p2) per H of the pair's events on the same paths at
    level 0 and spacing 0.25, where the two differ (at level 1 and spacing
    1 they are equal pathwise)."""
    cfg = RunConfig("persist", hurst=H_TRIPLE, replicas=replicas, seed=1002,
                    options={"horizons": "128", "spacing": "0.25",
                             "level": "0", "events": ",".join(pair)})
    _, ests, _ = _persist_fits(cfg)
    return [(a.value, b.value)
            for a, b in zip(ests[:len(H_TRIPLE)], ests[len(H_TRIPLE):])]


def check_two_sided_bound(ov: dict) -> dict:
    replicas = ov["two-sided.replicas"]
    slack = ov["two-sided.slack"]
    cfg = RunConfig("persist", hurst=H_TRIPLE, replicas=replicas, seed=1001,
                    options={"horizons": "32,64,128,256,512",
                             "events": "ifbm_two_sided"})
    _, _, fits = _persist_fits(cfg)
    rows = []
    for h, (p_two, p_punc) in zip(H_TRIPLE, _puncture_ordering(replicas)):
        fit = fits["ifbm_two_sided", h]
        rows.append(bound_check(f"two-sided exponent h={h:g}", fit.slope,
                                fit.slope_se, lo=(1.0 - h) - slack))
        # full-domain event is included in the punctured one pathwise
        rows.append(bound_check(f"puncture ordering h={h:g}", p_two, None,
                                hi=p_punc))
    return {"rows": rows}


# --- criterion 11 ----------------------------------------------------------

def check_rkhs(ov: dict) -> dict:
    replicas = ov["rkhs.replicas"]
    grid33 = SampleGrid.anchored(0.125, 16, 16)
    grid17 = SampleGrid.anchored(0.25, 8, 8)
    space = {(grid, h): build_space(grid, h) for grid in (grid33, grid17)
             for h in H_TRIPLE}
    worst_repr = 0.0
    worst_comp = 0.0
    for h in H_TRIPLE:
        sp = space[grid33, h]
        for i in range(sp.grid.count):
            target = math.sqrt(sp.cov[i, i])
            if target == 0.0:
                continue
            err = abs(rkhs_norm(sp, sp.cov[:, i]) - target) / target
            worst_repr = max(worst_repr, err)
        x = grid33.coordinates
        outside = np.abs(x) >= 1.0
        for a in (0, 1):
            comp = combined_trend(sp, a)
            dev = np.abs(comp.values[outside]
                         - (2.0 * np.abs(x[outside]) + a)).max()
            worst_comp = max(worst_comp, float(dev))

    configs = [
        (grid33, 0.5, "combined0", 2.0),
        (grid33, 0.5, "combined1", 3.0),
        (grid17, 0.3, "covcol@1*0.1", 1.0),
        (grid33, 0.7, "covcol@-1*0.3", 0.5),
        (grid17, 0.5, "psi*0.2", 1.0),
    ]
    # every config on one pass of draws: grid17's rows take the first 17
    # of the 33 normals that grid33's draw
    rows = verify_shift_inequalities(
        [(space[grid, h], trend(space[grid, h], name), level)
         for grid, h, name, level in configs], replicas, 1101)
    return {"rows": [bound_check("reproducing rel err", worst_repr, None,
                                 hi=1e-8),
                     bound_check("composition abs err", worst_comp, None,
                                 hi=1e-5), *rows]}


# --- criterion 12 ----------------------------------------------------------

_TINY_CONFIGS = [
    RunConfig("sample", hurst=(0.5,), replicas=2, seed=1,
              options={"points": "32"}),
    RunConfig("solve", hurst=(0.4,), replicas=2, seed=2,
              options={"half-points": "64"}),
    RunConfig("dim", hurst=(0.5,), replicas=2, seed=3,
              options={"grid-log2": "12"}),
    RunConfig("persist", hurst=(0.5,), replicas=200, seed=4,
              options={"horizons": "8,16,32,64"}),
    RunConfig("chain", hurst=(0.5,), replicas=200, seed=5,
              options={"n": "8"}),
    RunConfig("rkhs-verify", hurst=(0.5,), replicas=2000, seed=6,
              options={"half-points": "8", "trend": "covcol@1*0.1",
                       "level": "1"}),
]


def check_determinism(ov: dict) -> dict:
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in _TINY_CONFIGS:
            dir_a = Path(tmp) / f"{cfg.experiment}-a"
            dir_b = Path(tmp) / f"{cfg.experiment}-b"
            status, _ = run_experiment(replace(cfg, out=str(dir_a)))
            if status not in (0, 2):
                mismatches.append({"experiment": cfg.experiment,
                                   "error": f"first run exited {status}"})
                continue
            rerun_from_manifest(dir_a / "manifest.json", out=str(dir_b))
            for file in sorted(p.name for p in dir_a.iterdir()):
                if file == "manifest.json":
                    continue  # carries wall time, not results
                if not filecmp.cmp(dir_a / file, dir_b / file, shallow=False):
                    mismatches.append({"experiment": cfg.experiment,
                                       "file": file})
    return {"rows": [bound_check("rerun mismatches", len(mismatches), None,
                                 hi=0)],
            "mismatches": mismatches,
            "experiments": [c.experiment for c in _TINY_CONFIGS]}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One criterion: ``run`` maps the typed settings to its details, and
    ``settings`` declares its ``--set`` keys as ``experiments.Option``
    rows: a default, whose type a key's string parses as, and a rule."""
    run: object
    settings: dict


CHECKS = {
    "sampler-covariance": Check(check_sampler_covariance, {
        "sampler-cov.replicas": Option(10_000, *_within(1, REPLICAS_MAX))}),
    # the 1% KS critical value of two samples of n is below 1 from n = 6
    "sampler-equivalence": Check(check_sampler_equivalence, {
        "sampler-eq.replicas": Option(10_000, *_within(6, REPLICAS_MAX)),
        "sampler-eq.points": Option(
            64, *_within(1, EXACT_SAMPLER_MAX_POINTS - 1))}),
    # a sequence of two points has no slope gap to sum
    "telescoping": Check(check_telescoping, {
        "telescoping.sequences": Option(1000, *_within(1, REPLICAS_MAX)),
        "telescoping.length": Option(256, *_at_least(3))}),
    "expectation-identity": Check(check_expectation_identity, {
        "identity.replicas": Option(10_000, *_within(1, REPLICAS_MAX)),
        "identity.n": Option(64, *_at_least(1))}),
    "inequality-chain": Check(check_inequality_chain, {
        "chain.replicas": Option(10_000, *_within(1, REPLICAS_MAX)),
        "chain.n": OPTIONS["chain"]["n"]}),
    "burgers-oracle": Check(check_burgers_oracle, {
        "burgers.paths": Option(20, *_within(1, REPLICAS_MAX)),
        "burgers.particles": Option(128, *_at_least(2))}),
    "dimension": Check(check_dimension, {
        "dim.replicas": Option(50, *_within(1, REPLICAS_MAX)),
        "dim.grid-log2": OPTIONS["dim"]["grid-log2"],
        "dim.slope-tol": OPTIONS["dim"]["slope-tol"],
        **{f"dim.target-h{h:g}": Option(h, *_FINITE) for h in H_TRIPLE}}),
    "max-exponent": Check(check_max_exponent, {
        "max-exp.replicas": Option(20_000, *_within(MIN_REPLICAS, REPLICAS_MAX)),
        "max-exp.level": Option(0.5, *_FINITE),
        "max-exp.tol": Option(_KNOWN_EXPONENTS["fbm_max"][1],
                              *_NON_NEGATIVE)}),
    "integral-exponent": Check(check_integral_exponent, {
        "int-exp.replicas": Option(10_000, *_within(MIN_REPLICAS, REPLICAS_MAX)),
        "int-exp.tol": Option(_KNOWN_EXPONENTS["ifbm_one_sided"][1],
                              *_NON_NEGATIVE)}),
    "two-sided-bound": Check(check_two_sided_bound, {
        "two-sided.replicas": Option(10_000, *_within(MIN_REPLICAS, REPLICAS_MAX)),
        "two-sided.slack": Option(0.15, *_FINITE)}),
    "rkhs": Check(check_rkhs, {"rkhs.replicas": Option(
        1_000_000, *_within(1, REPLICAS_MAX))}),
    "determinism": Check(check_determinism, {}),
}


def run_checks(names=None, overrides=None) -> list[CheckResult]:
    """Runs the named checks (all by default) with their settings; an
    override of a key that no selected check declares, one that does not
    parse or one its rule refuses raises ValueError before any check
    runs."""
    selected = list(CHECKS) if not names else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check names {unknown}; "
                         f"available: {sorted(CHECKS)}")
    settings = parse_options(
        {key: row for name in selected
         for key, row in CHECKS[name].settings.items()},
        overrides or {}, "--set key", f"checks {', '.join(selected)}")
    results = []
    for name in selected:
        started = time.perf_counter()
        details = CHECKS[name].run(settings)
        results.append(CheckResult(
            name=name, passed=all(row["pass"] for row in details["rows"]),
            runtime_s=time.perf_counter() - started, details=details))
    return results
