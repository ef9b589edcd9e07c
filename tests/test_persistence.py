"""Persistence estimators against exact Brownian oracles, exponent fits and
the relation chain."""

import math
import os
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import betaincinv
from scipy.stats import beta, ks_2samp, norm

from burgerslab import persistence, rkhs
from burgerslab.envelopes import all_slope_pairs_batch
from burgerslab.experiments import RunConfig, _dim_cells
from burgerslab.fbm import (FastRows, RowBuffers, integrate_values,
                            sample_fbm_fast_batch)
from burgerslab.grids import SampleGrid, write_json
from burgerslab.persistence import (
    BROWNIAN_MAX_MEAN,
    BarrierEvent,
    McEstimate,
    _ALPHA_4SIGMA,
    _binom_upper,
    _slope_stats,
    estimate_fbm_max_mean,
    estimate_persistence,
    estimate_persistences,
    exact_sums,
    exponent_fit,
    mean_se,
    refinement_study,
    verify_chain,
    verify_chains,
)
from burgerslab.rkhs import (build_space, covariance_column_trend,
                             verify_shift_inequality)
from oracles import bm_max_below_prob, fsum_mean_se


class TestBarrierEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            BarrierEvent("nonsense", 1.0, 10.0)
        with pytest.raises(ValueError):
            BarrierEvent("fbm_max", 1.0, 0.5)

    def test_grid_alignment_enforced(self):
        ev = BarrierEvent("fbm_max", 1.0, 10.0)
        with pytest.raises(ValueError, match="grid steps"):
            ev.grid(0.3)
        ev2 = BarrierEvent("ifbm_punctured", 0.0, 9.0)
        with pytest.raises(ValueError, match="puncture"):
            ev2.grid(0.75)  # 9/0.75 = 12 steps, but +-1 falls off-grid

    def test_two_sided_domains(self):
        ev = BarrierEvent("ifbm_trended", 0.0, 4.0)
        grid = ev.grid(0.5)
        assert grid.left == -4.0 and grid.right == 4.0
        cols, thr, needs_integral = ev.thresholds(grid)
        coords = grid.coordinates[cols]
        assert needs_integral
        assert np.abs(coords).min() >= 1.0 - 1e-12
        np.testing.assert_allclose(thr, -2.0 * np.abs(coords))


class TestEstimatePersistence:
    def test_brownian_max_matches_reflection_oracle(self):
        spacing, horizon, reps = 0.01, 100.0, 4000
        est = estimate_persistence(BarrierEvent("fbm_max", 1.0, horizon),
                                   0.5, spacing, reps, 42)
        oracle = bm_max_below_prob(1.0, horizon)
        # grid checking misses crossings: upward bias ~ density * 0.58 sqrt(dx)
        density = 2 * norm.pdf(1.0 / math.sqrt(horizon)) / math.sqrt(horizon)
        bias_bound = 1.5 * density * 0.5826 * math.sqrt(spacing)
        lo = oracle - 4 * est.std_error
        hi = oracle + bias_bound + 4 * est.std_error
        print(f"  p={est.value:.4f} oracle={oracle:.4f} band [{lo:.4f},{hi:.4f}]")
        assert lo <= est.value <= hi

    def test_unbinding_barrier_probability_one(self):
        horizon = 64.0
        level = 10.0 * horizon ** 0.5 * math.sqrt(2 * math.log(horizon))
        est = estimate_persistence(BarrierEvent("fbm_max", level, horizon),
                                   0.5, 1.0, 500, 3)
        assert est.value == 1.0

    def test_three_point_two_sided_sanity_bound(self):
        from burgerslab.fbm import ifbm_covariance
        est = estimate_persistence(BarrierEvent("ifbm_two_sided", 1.0, 1.0),
                                   0.5, 1.0, 4000, 9)
        sd = math.sqrt(ifbm_covariance(0.5, 1.0, 1.0))
        lower = 1.0 - 2.0 * (1.0 - norm.cdf(1.0 / sd))
        assert lower <= est.value <= 1.0

    def test_determinism(self):
        ev = BarrierEvent("ifbm_one_sided", 1.0, 8.0)
        a = estimate_persistence(ev, 0.4, 0.5, 400, 11)
        b = estimate_persistence(ev, 0.4, 0.5, 400, 11)
        assert a == b

    def test_common_random_numbers_orderings(self):
        # identical (seed, H, grid) => identical paths => pathwise event
        # inclusions become strict orderings of the estimates
        h, spacing, horizon, reps, seed = 0.5, 0.5, 16.0, 2000, 21
        p_two = estimate_persistence(
            BarrierEvent("ifbm_two_sided", 1.0, horizon), h, spacing, reps, seed)
        p_punc1 = estimate_persistence(
            BarrierEvent("ifbm_punctured", 1.0, horizon), h, spacing, reps, seed)
        p_punc0 = estimate_persistence(
            BarrierEvent("ifbm_punctured", 0.0, horizon), h, spacing, reps, seed)
        p_trend = estimate_persistence(
            BarrierEvent("ifbm_trended", 0.0, horizon), h, spacing, reps, seed)
        # event inclusion makes these hold pathwise on every run
        assert p_two.value <= p_punc1.value
        assert p_trend.value <= p_punc0.value
        # at a lower barrier the puncture gap actually bites, so the
        # ordering goes strict
        p_two_low = estimate_persistence(
            BarrierEvent("ifbm_two_sided", 0.1, horizon), h, spacing, reps, seed)
        p_punc_low = estimate_persistence(
            BarrierEvent("ifbm_punctured", 0.1, horizon), h, spacing, reps, seed)
        assert p_two_low.value < p_punc_low.value

    def test_replica_floor(self):
        with pytest.raises(ValueError):
            estimate_persistence(BarrierEvent("fbm_max", 1.0, 4.0),
                                 0.5, 1.0, 50, 0)


class TestExponentFit:
    def test_synthetic_power_law_exact(self):
        ests = [McEstimate(value=t ** -0.4, std_error=0.0, replicas=10 ** 9,
                           seed=0, spacing=1.0, horizon=t)
                for t in (16.0, 32.0, 64.0, 128.0)]
        fit = exponent_fit(ests)
        assert fit.slope == pytest.approx(0.4, abs=1e-12)

    def test_brownian_max_exponent_half(self):
        h, reps = 0.5, 3000
        ests = [estimate_persistence(BarrierEvent("fbm_max", 1.0, t),
                                     h, 1.0, reps, 5)
                for t in (32.0, 64.0, 128.0, 256.0)]
        fit = exponent_fit(ests)
        print(f"  fitted exponent {fit.slope:.3f} +- {fit.slope_se:.3f}")
        assert abs(fit.slope - 0.5) < 0.08

    def test_floor_exclusion_flagged(self):
        good = [McEstimate(value=0.2 / (i + 1), std_error=0.01,
                           replicas=1000, seed=0, spacing=1.0,
                           horizon=float(2 ** (i + 4))) for i in range(4)]
        bad = McEstimate(value=0.001, std_error=0.001, replicas=1000, seed=0,
                         spacing=1.0, horizon=512.0)
        fit = exponent_fit(good + [bad])
        assert 512.0 in fit.excluded

    # fails at e7c0d46, which excluded it: 10 / 154 * 154 < 10
    def test_ten_hits_are_kept(self):
        ests = [McEstimate.proportion(count, 154, seed=0, spacing=1.0,
                                      horizon=float(t))
                for count, t in ((80, 2), (40, 4), (20, 8), (10, 16))]
        assert exponent_fit(ests).excluded == ()

    # fails at ccdf48f, which raised ValueError after the Monte Carlo
    def test_too_few_reliable_horizons_is_degenerate(self):
        ests = [McEstimate(value=0.2 if t == 2 else 0.001, std_error=0.001,
                           replicas=1000, seed=0, spacing=1.0,
                           horizon=float(t)) for t in (2, 4, 8, 16)]
        fit = exponent_fit(ests)
        assert fit.degenerate and np.isnan(fit.slope)
        assert fit.excluded == (2.0, 4.0, 8.0, 16.0)

    def test_needs_four_horizons(self):
        ests = [McEstimate(value=0.5, std_error=0.01, replicas=1000, seed=0,
                           spacing=1.0, horizon=float(t)) for t in (2, 4, 8)]
        with pytest.raises(ValueError):
            exponent_fit(ests)


class TestRefinementStudy:
    def test_pathwise_monotone_for_max_event(self):
        ev = BarrierEvent("fbm_max", 1.0, 16.0)
        ests = refinement_study(ev, 0.5, [0.5, 0.25, 0.125], 2000, 14)
        ps = [e.value for e in ests]
        assert ps[0] >= ps[1] >= ps[2]

    def test_integral_event_monotone_within_noise(self):
        ev = BarrierEvent("ifbm_one_sided", 1.0, 16.0)
        ests = refinement_study(ev, 0.5, [0.5, 0.25, 0.125], 3000, 15)
        for a, b in zip(ests[:-1], ests[1:]):
            two_sigma = 2 * math.hypot(a.std_error, b.std_error)
            assert b.value <= a.value + two_sigma

    def test_finest_close_to_oracle(self):
        ev = BarrierEvent("fbm_max", 1.0, 64.0)
        ests = refinement_study(ev, 0.5, [1.0 / 16, 1.0 / 64], 4000, 16)
        fine = ests[-1]
        # grid checking misses crossings between grid points: the grid
        # maximum stays below the level about as often as the continuous
        # one stays below the level raised by 0.5826 sqrt(spacing), with
        # 0.5826 = -zeta(1/2)/sqrt(2 pi) (Broadie, Glasserman & Kou 1997)
        oracle = bm_max_below_prob(1.0 + 0.5826 * math.sqrt(fine.spacing), 64.0)
        print(f"  finest p={fine.value:.4f} oracle={oracle:.4f} "
              f"se={fine.std_error:.4f}")
        assert abs(fine.value - oracle) <= 2.5 * fine.std_error

    def test_determinism_and_validation(self):
        ev = BarrierEvent("fbm_max", 1.0, 8.0)
        a = refinement_study(ev, 0.3, [1.0, 0.5], 500, 2)
        b = refinement_study(ev, 0.3, [1.0, 0.5], 500, 2)
        assert a == b
        with pytest.raises(ValueError):
            refinement_study(ev, 0.3, [0.5, 1.0], 500, 2)


# zeros, subnormals of both signs, and normal magnitudes 1e-300 .. 1e300
_SUM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),
    st.builds(lambda sign, mag, exp: sign * mag * 10.0 ** exp,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0),
              st.integers(-300, 299)))


class TestExactSums:
    """``exact_sums`` against ``math.fsum``, and ``mean_se`` against the
    ``math.fsum`` formulation (``oracles.fsum_mean_se``)."""

    @settings(max_examples=200, deadline=None)
    # past the row slice, where a float sum of the column drops the ones
    @example([2.0 ** 52, 1.0, -0.5], False, 2500, 2, False, 1)
    @given(st.lists(_SUM_VALUES, min_size=1, max_size=40), st.booleans(),
           st.integers(1, 3000), st.integers(1, 3), st.booleans(),
           st.integers(0, 2 ** 32))
    def test_equals_fsum_per_column(self, pool, cancel, rows, cols, flat,
                                    seed):
        # rows drawn from a small pool reach past the kernel's row slice;
        # with ``cancel`` every value also comes with its negative
        rng = np.random.default_rng(seed)
        values = rng.choice(np.array(pool), size=(rows, cols))
        if cancel:
            values = rng.permuted(np.concatenate([values, -values]), axis=0)
        if flat:
            values = values[:, 0]
        sums = exact_sums(values)
        columns = values.reshape(len(values), -1).T.tolist()
        assert sums.shape == (len(columns),)
        assert all(isinstance(total, int) for total in sums)
        assert [total / 2 ** 1074 for total in sums] == [
            math.fsum(c) for c in columns]
        if len(values) > 1:   # the sums of two parts add up to the whole's
            cut = int(rng.integers(1, len(values)))
            assert list(exact_sums(values[:cut])
                        + exact_sums(values[cut:])) == list(sums)

    @pytest.mark.parametrize("shape", [(1,), (2000,), (4097,), (512, 63),
                                       (1500, 3)])
    def test_mean_se_equals_fsum_formulation(self, shape):
        rng = np.random.default_rng(sum(shape))
        values = np.clip(rng.standard_normal(shape), 0.0, None) * 1e3
        got, want = mean_se(values), fsum_mean_se(values)
        if len(shape) == 1:
            assert got == want and all(isinstance(v, float) for v in got)
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        values = np.ones((5, 3))
        values[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            exact_sums(values)
        with pytest.raises(ValueError, match="finite"):
            mean_se(values[:, 1])

    def test_chain_parts_hold_no_gap_matrix(self):
        # per replica, or one exact sum per interior k: nothing of
        # R x (N-1) crosses from a pass part to the reducer
        n, reps = 16, 40
        grid = SampleGrid.anchored(1.0, n, 2 * n)
        out = _slope_stats(n, sample_fbm_fast_batch(0.5, grid, 5,
                                                    range(reps)))
        assert [a.shape for a in out] == [(reps,)] * 6 + [(1, n - 1)] * 3
        assert all(a.dtype == object for a in out[6:])


class TestMaxMeanEstimate:
    def test_brownian_value(self):
        spacing = 2.0 ** -10
        est = estimate_fbm_max_mean(0.5, spacing, 4000, 33)
        # the grid max sits below the continuum max by about
        # 0.58 sqrt(spacing); never above it in expectation
        deficit_bound = 1.5 * 0.5826 * math.sqrt(spacing)
        assert est.value <= BROWNIAN_MAX_MEAN + 4 * est.std_error
        assert est.value >= BROWNIAN_MAX_MEAN - deficit_bound - 4 * est.std_error


class TestVerifyChain:
    def test_brownian_small_chain_passes(self):
        report = verify_chain(0.5, 16, 1500, 7)
        for name, rel in report["relations"].items():
            print(f"  {name}: pass={rel['pass']}")
        assert report["pass"]

    def test_degenerate_two_point_chain_well_formed(self):
        report = verify_chain(0.5, 2, 400, 1)
        assert set(report["relations"]) == {
            "telescoping", "eq10", "eq11", "eq14", "eq15", "eq16",
            "eq16 pathwise", "eq17"}
        assert isinstance(report["pass"], bool)

    def test_eq14_row_without_se_is_its_worst_k(self):
        # one replica gives no SE at any k; its row is a k whose difference
        # is negative (k = 5), so it fails as every k's bound demands, where
        # ranking a k without an SE last would report a passing k = 1
        rel = verify_chain(0.5, 8, 1, 16)["relations"]["eq14"]
        assert (rel["worst_k"], rel["se"], rel["pass"]) == (5, 0.0, False)
        assert rel["got"] < 0 and rel["margin_sigma"] is None

    def test_determinism(self):
        a = verify_chain(0.3, 8, 400, 5)
        b = verify_chain(0.3, 8, 400, 5)
        assert a == b

    def test_json_export(self, tmp_path):
        report = verify_chain(0.6, 8, 400, 5)
        write_json(tmp_path / "chain.json", report)
        import json
        doc = json.loads((tmp_path / "chain.json").read_text())
        assert "eq17" in doc["relations"]

    def test_binom_upper_equals_beta_quantile(self):
        # counts >= 1 are solved by bisection, so they match scipy's
        # quantile to a tolerance rather than bit for bit
        for total in (100, 400, 2000, 50_000, 10 ** 6):
            counts = np.unique(np.geomspace(1, total - 1, 40).astype(int))
            for count in [0, *counts.tolist()]:
                want = float(betaincinv(count + 1, total - count,
                                        1.0 - _ALPHA_4SIGMA))
                # count 0 takes the closed form, equal bit for bit
                assert _binom_upper(count, total) == pytest.approx(
                    want, rel=1e-9 if count else 0, abs=0), (count, total)
        assert _binom_upper(7, 7) == 1.0
        # count 0 takes the closed form
        totals = np.concatenate([np.arange(1, 5001), np.unique(
            np.geomspace(5001, 10 ** 8, 400).astype(int))])
        want = beta.ppf(1.0 - _ALPHA_4SIGMA, 1, totals)
        for total, upper in zip(totals.tolist(), want.tolist()):
            assert _binom_upper(0, total) == upper, total


    def test_count_zero_chain_skips_scipy(self):
        src = str(Path(persistence.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "BURGERSLAB_WORKERS": "1"}
        code = ("import sys; from burgerslab.persistence import verify_chain; "
                "doc = verify_chain(0.5, 64, 2000, 1); "
                "print(doc['relations']['eq16']['count_trended'], "
                "'scipy.special' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "False"]

# mixed Hurst indices, horizons and events at spacing 0.5; the first two
# share (h, grid), and the cells are not in order of noise length
MIXED_CELLS = (
    (BarrierEvent("ifbm_two_sided", 1.0, 4.0), 0.3),
    (BarrierEvent("ifbm_punctured", 1.0, 4.0), 0.3),
    (BarrierEvent("ifbm_trended", 0.0, 16.0), 0.7),
    (BarrierEvent("fbm_max", 1.0, 8.0), 0.5),
    (BarrierEvent("ifbm_punctured", 0.5, 8.0), 0.6),
)


def _rows(vals):
    # a copy: the pass reuses the rows' buffer for its next (h, grid)
    return (vals.copy(),)


class TestSharedPass:
    """One noise draw per part serves every cell of one seed, and each
    cell's result equals that of its own pass."""

    def test_rows_equal_separate_draws(self):
        grids = [SampleGrid.anchored(0.5, 8, 8), SampleGrid.one_sided(1.0, 64),
                 SampleGrid.anchored(1.0, 8, 16)]
        cells = tuple((FastRows(h, grid), _rows) for grid in grids
                      for h in (0.3, 0.7))
        reps = range(3, 40)
        got = persistence._shared_pass(cells, 17, reps)
        assert len(got) == len(cells)
        for (source, _), (rows,) in zip(cells, got):
            assert np.array_equal(rows, sample_fbm_fast_batch(
                source.h, source.grid, 17, reps))

    def test_back_to_back_passes_equal_fresh_draws(self, monkeypatch):
        # the second pass reuses the first one's buffers, here grown by the
        # longer rows and then handed out in a smaller shape
        monkeypatch.setattr(persistence, "_BUFFERS", RowBuffers())
        passes = [((0.7, SampleGrid.one_sided(0.25, 256)),
                   (0.3, SampleGrid.anchored(1.0, 8, 16))),
                  ((0.5, SampleGrid.anchored(0.5, 8, 8)),)]
        for seed, keys in zip((23, 4), passes):
            cells = tuple((FastRows(h, grid), _rows) for h, grid in keys)
            got = persistence._shared_pass(cells, seed, range(5, 31))
            for (h, grid), (rows,) in zip(keys, got):
                assert np.array_equal(
                    rows, sample_fbm_fast_batch(h, grid, seed, range(5, 31)))

    @pytest.mark.parametrize("reps, long_cell", [
        (range(512), False),
        (range(10 ** 6 - 64, 10 ** 6), False),
        (range(512), True)], ids=["block", "tail", "split"])
    def test_fast_and_kernel_cells_equal_separate_draws(self, reps,
                                                        long_cell):
        # checked on 512 rows, on the last 64 of 10^6 replicas and on the
        # parts of a pass that _PASS_BYTES splits because a fast cell draws
        # 2048 normals
        grid33, grid17 = (SampleGrid.anchored(0.125, 16, 16),
                          SampleGrid.anchored(0.25, 8, 8))
        spaces = [build_space(grid33, 0.5), build_space(grid17, 0.3),
                  build_space(grid33, 0.7)]
        fast = [FastRows(0.3, SampleGrid.anchored(1.0, 8, 16))]
        if long_cell:
            fast.append(FastRows(0.5, SampleGrid.one_sided(2.0 ** -10, 1024)))
            assert persistence._PASS_BYTES // (8 * 2048) < len(reps)
        cells = tuple((source, _rows) for source in spaces + fast)
        got = persistence._shared_pass(cells, 1101, reps)
        for space, (rows,) in zip(spaces, got):
            assert np.array_equal(rows, space.sample_batch(1101, reps))
        for source, (rows,) in zip(fast, got[len(spaces):]):
            assert np.array_equal(rows, sample_fbm_fast_batch(
                source.h, source.grid, 1101, reps))

    def test_cells_on_one_source_share_its_rows(self, monkeypatch):
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        space = build_space(SampleGrid.anchored(0.25, 8, 8), 0.5)
        fast = FastRows(0.5, space.grid)
        # parts of 256 rows of the fast cell's 32 normals
        monkeypatch.setattr(persistence, "_PASS_BYTES",
                            8 * fast.noise_length * 256)
        calls = []
        rows = rkhs.KernelSpace.rows
        monkeypatch.setattr(rkhs.KernelSpace, "rows",
                            lambda sp, noise, buffers=None:
                            calls.append(len(noise)) or rows(sp, noise))
        got = persistence.replica_stats(
            [(space, _rows), (fast, _rows),
             (space, lambda w: (w.sum(axis=1),))], 7, 600)
        assert calls == [256, 256, 88]
        want = space.sample_batch(7, range(600))
        assert np.array_equal(got[0][0], want)
        assert np.array_equal(got[2][0], want.sum(axis=1))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicas", [1, 2, 5, 600, 1025, 1566])
    def test_one_contiguous_span_per_worker(self, monkeypatch, workers,
                                            replicas):
        spans = []

        def spy_map(fn, items):
            spans.extend(items)
            return [fn(item) for item in items]

        monkeypatch.setattr(persistence, "worker_count", lambda: workers)
        monkeypatch.setattr(persistence, "pool_map", spy_map)
        cell = (FastRows(0.5, SampleGrid.anchored(1.0, 4, 4)), _rows)
        (rows,), = persistence.replica_stats([cell], 3, replicas)
        assert len(spans) == min(workers, replicas)
        assert [r for span in spans for r in span] == list(range(replicas))
        assert all(span.step == 1 for span in spans)
        # split by replica count
        assert max(map(len, spans)) - min(map(len, spans)) <= 1
        assert np.array_equal(rows, sample_fbm_fast_batch(
            0.5, cell[0].grid, 3, range(replicas)))

    @pytest.mark.parametrize("replicas", [1, 36, 37, 60, 1566])
    def test_kernel_rows_equal_for_any_worker_count(self, monkeypatch,
                                                    replicas):
        # an unpadded BLAS product of 1-36 rows gives other last bits than
        # a larger one, which made 2 spans of 30 differ from 1 span of 60
        monkeypatch.setattr(persistence, "pool_map",
                            lambda fn, items: [fn(item) for item in items])
        space = build_space(SampleGrid.anchored(0.125, 16, 16), 0.5)
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(persistence, "worker_count", lambda: workers)
            (rows,), = persistence.replica_stats([(space, _rows)], 1101,
                                                 replicas)
            got.append(rows)
        assert all(np.array_equal(rows, got[0]) for rows in got[1:])

    def test_plural_persistence_equals_singular(self):
        got = estimate_persistences(MIXED_CELLS, 0.5, 150, 11)
        assert got == [estimate_persistence(event, h, 0.5, 150, 11)
                       for event, h in MIXED_CELLS]

    def test_verify_chains_equals_verify_chain(self):
        hs = (0.3, 0.5, 0.7)
        got = verify_chains(hs, 8, 150, 5)
        assert got == [verify_chain(h, 8, 150, 5) for h in hs]

    def test_one_draw_per_block_at_longest_length(self, monkeypatch):
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        draws, built = [], []
        normals, rows = persistence.replica_normals, FastRows.rows

        def spy_normals(seed, reps, length, out=None):
            draws.append((seed, len(reps), length))
            built.append([])
            return normals(seed, reps, length, out=out)

        def spy_rows(source, noise, buffers=None):
            built[-1].append((source.noise_length, source.h, source.grid))
            return rows(source, noise, buffers)

        monkeypatch.setattr(persistence, "replica_normals", spy_normals)
        monkeypatch.setattr(FastRows, "rows", spy_rows)
        r = 600
        estimate_persistences(MIXED_CELLS, 0.5, r, 11)
        longest = max(FastRows(h, event.grid(0.5)).noise_length
                      for event, h in MIXED_CELLS)
        # the whole span fits in one part
        assert persistence._PASS_BYTES // (8 * longest) >= r
        assert draws == [(11, r, longest)]
        for part in built:
            # one transform per distinct (h, grid), longest noise first
            assert len(part) == len(MIXED_CELLS) - 1
            assert len(set(part)) == len(part)
            assert [n for n, _, _ in part] == sorted(
                (n for n, _, _ in part), reverse=True)
        draws.clear()
        verify_chains((0.3, 0.5, 0.7), 8, r, 5)
        chain = FastRows(0.5, SampleGrid.anchored(1.0, 8, 16)).noise_length
        peak = FastRows(0.5, SampleGrid.one_sided(2.0 ** -10,
                                                  1024)).noise_length
        # the max-mean pass's long rows come in parts of _PASS_BYTES, so
        # 600 rows split 9 x 64 + 24
        part = persistence._PASS_BYTES // (8 * peak)
        assert part == 64
        assert draws == [(5, r, chain)] + [(6, part, peak)] * 9 + \
            [(6, r - 9 * part, peak)]


class TestBlockSizeInvariance:
    """Statistics are per-replica rows or per-part exact sums, which
    integer addition combines, so the reducer's part size cannot change
    any result."""

    @staticmethod
    def estimates():
        return (
            estimate_persistence(BarrierEvent("ifbm_one_sided", 1.0, 8.0),
                                 0.4, 0.5, 150, 11),
            refinement_study(BarrierEvent("ifbm_punctured", 1.0, 8.0), 0.6,
                             [0.5, 0.25], 150, 2),
            estimate_fbm_max_mean(0.3, 2.0 ** -6, 150, 3),
            verify_chain(0.3, 8, 150, 5),
            estimate_persistences(MIXED_CELLS, 0.5, 150, 11),
        )

    @pytest.mark.parametrize("pass_bytes", [1, 8 * 300])
    def test_results_equal_whole_pass(self, monkeypatch, pass_bytes):
        # a shared pass split into parts of one row, or of a few rows
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        want = self.estimates()
        monkeypatch.setattr(persistence, "_PASS_BYTES", pass_bytes)
        assert self.estimates() == want


class TestWorkerInvariance:
    """Spans of replicas spread over the worker pool give the serial
    results exactly; a callback that does not pickle fails here."""

    REPLICAS = 600

    def results(self):
        space = build_space(SampleGrid.anchored(0.25, 8, 8), 0.5)
        trend = covariance_column_trend(space, 1.0, 0.1)
        cfg = RunConfig("dim", hurst=(0.4, 0.6), replicas=5, seed=4,
                        options={"grid-log2": "10"})
        r = self.REPLICAS
        return (
            refinement_study(BarrierEvent("ifbm_punctured", 1.0, 8.0), 0.6,
                             [0.5, 0.25], r, 2),
            estimate_fbm_max_mean(0.3, 2.0 ** -6, r, 3),
            verify_chain(0.3, 8, r, 5),
            verify_shift_inequality(space, trend, 1.0, r, 6),
            _dim_cells(cfg),
            estimate_persistences(MIXED_CELLS, 0.5, r, 11),
            verify_chains((0.3, 0.7), 8, r, 5),
        )

    def test_two_workers_equal_one(self, monkeypatch):
        maps = []
        executor_map = futures.ProcessPoolExecutor.map

        def counted(pool, fn, *iterables, **kwargs):
            maps.append(fn)
            return executor_map(pool, fn, *iterables, **kwargs)

        monkeypatch.setattr(futures.ProcessPoolExecutor, "map", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        serial = self.results()
        assert maps == []
        monkeypatch.setenv("BURGERSLAB_WORKERS", "2")
        pooled = self.results()
        # refinement_study, the max mean, the chain (twice), the shift
        # check, the dim pass, the plural persistence and the plural chain
        # (twice) each map through the pool
        assert len(maps) == 9
        assert pooled == serial


class TestSlopeSymmetryInExpectation:
    def test_endpoint_slope_means_agree(self):
        # E(-left(N)) equals E(right(0)) over integrated paths
        h, n, reps = 0.6, 32, 10_000
        grid = SampleGrid.one_sided(1.0, n)
        w = sample_fbm_fast_batch(h, grid, 71, range(reps))
        ii = integrate_values(w, 1.0, 0)
        gm, gp = all_slope_pairs_batch(ii)
        d = -gm[:, -1] - gp[:, 0]
        mean, se = d.mean(), d.std(ddof=1) / math.sqrt(reps)
        print(f"  E(-left(N))-E(right(0)) = {mean:.5f} +- {se:.5f}")
        assert abs(mean) <= 4 * se


class TestWindowedSlopeDistributionalIdentity:
    def test_interior_matches_origin_in_law(self):
        # gap of window-widened slopes at an interior point vs at the origin
        h, n, reps = 0.6, 24, 2500
        grid = SampleGrid.anchored(1.0, n, 2 * n)

        def gaps(seed, center):
            # slopes over p in 1..n: the window's kernel at its centre
            rows = sample_fbm_fast_batch(h, grid, seed, range(reps))
            ii = integrate_values(rows, 1.0, n)
            gm, gp = all_slope_pairs_batch(ii[:, center - n:center + n + 1])
            return gm[:, n] - gp[:, n]

        at_origin = gaps(100, n)
        at_interior = gaps(200, n + n // 2)
        stat = ks_2samp(at_origin, at_interior).statistic
        crit = math.sqrt(-math.log(0.005) / 2) * math.sqrt(2 / reps)
        print(f"  KS={stat:.4f} crit(1%)={crit:.4f}")
        assert stat < crit
