"""Distributional and determinism checks for the two fBm samplers."""

import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp

from burgerslab import fbm, grids
from burgerslab.fbm import (
    EmbeddingError,
    FactorizationError,
    ifbm_covariance,
    sample_fbm_exact_batch,
    sample_fbm_fast,
    sample_fbm_fast_batch,
)
from burgerslab.grids import (
    RandomnessSpec,
    SampleGrid,
    read_path_csv,
    replica_normals,
    rng_state_write,
)

from oracles import (complex_fft_fgn_rows, generator_fbm_exact,
                     generator_fbm_fast, hfft_fgn_rows)


def ks_critical_value(n1, n2, alpha=0.01):
    c = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    return c * np.sqrt((n1 + n2) / (n1 * n2))


class TestExactSampler:
    def test_two_point_grid_is_standard_normal(self):
        grid = SampleGrid.one_sided(1.0, 1)
        vals = sample_fbm_exact_batch(0.62, grid, 7, range(4000))[:, 1]
        assert abs(vals.mean()) < 4.0 / np.sqrt(4000)
        se_var = np.sqrt(2.0 / (4000 - 1))
        assert abs(vals.var() - 1.0) < 4 * se_var

    def test_anchor_is_exact_zero(self):
        grid = SampleGrid.anchored(0.5, 3, 4)
        [path] = sample_fbm_exact_batch(0.3, grid, 1, range(1))
        assert path[grid.anchor_index] == 0.0

    def test_empirical_covariance_matches_formula(self):
        h, replicas = 0.6, 4000
        grid = SampleGrid.anchored(0.5, 3, 4)
        vals = sample_fbm_exact_batch(h, grid, 11, range(replicas))
        coords = grid.coordinates
        target = fbm.fbm_covariance(h, coords[:, None], coords[None, :])
        emp = vals.T @ vals / replicas
        se = np.sqrt((np.outer(np.diag(target), np.diag(target))
                      + target ** 2) / replicas)
        dev = np.abs(emp - target)
        mask = se > 0  # anchor row/col is deterministic zero
        assert np.all(dev[mask] <= 4 * se[mask])
        assert np.all(dev[~mask] == 0)

    def test_determinism(self):
        grid = SampleGrid.one_sided(0.25, 16)
        a = sample_fbm_exact_batch(0.44, grid, 5, range(2, 3))
        b = sample_fbm_exact_batch(0.44, grid, 5, range(2, 3))
        assert np.array_equal(a, b)
        c = sample_fbm_exact_batch(0.44, grid, 5, range(3, 4))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("grid", [SampleGrid.anchored(0.5, 3, 4),
                                      SampleGrid.one_sided(1.0, 64)],
                             ids=["8-points", "65-points"])
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_batch_rows_equal_generator_paths(self, h, grid, monkeypatch):
        replicas = [0, 1, 9_999]
        want = [generator_fbm_exact(h, grid, RandomnessSpec(101, r))
                for r in replicas]
        # the package draws every exact path from replica_normals
        monkeypatch.setattr(RandomnessSpec, "generator", None)
        batch = sample_fbm_exact_batch(h, grid, 101, replicas)
        for r, row, path in zip(replicas, batch, want):
            assert np.array_equal(row, path), f"replica {r} differs"
        whole = sample_fbm_exact_batch(h, grid, 101, range(10_000))
        assert np.array_equal(whole[replicas], batch)

    def test_size_cap(self):
        grid = SampleGrid.one_sided(1.0, fbm.EXACT_SAMPLER_MAX_POINTS + 10)
        with pytest.raises(ValueError, match="fast"):
            sample_fbm_exact_batch(0.5, grid, 0, range(1))

    def test_factorization_error_names_pivot(self, monkeypatch):
        monkeypatch.setattr(fbm, "fbm_covariance",
                            lambda h, x, y: np.ones(np.broadcast(x, y).shape))
        grid = SampleGrid.one_sided(1.0, 4)
        with pytest.raises(FactorizationError, match="pivot"):
            sample_fbm_exact_batch(0.5, grid, 0, range(1))


class TestFastSampler:
    @staticmethod
    def assert_rows_equal_generator_paths(h, grid, replicas):
        batch = sample_fbm_fast_batch(h, grid, 9, replicas)
        for row, r in zip(batch, replicas):
            want = generator_fbm_fast(h, grid, RandomnessSpec(9, r))
            assert np.array_equal(row, want), f"replica {r} differs"
            single = sample_fbm_fast(h, grid, RandomnessSpec(9, r)).values
            assert np.array_equal(single, want), f"replica {r} differs"
        again = sample_fbm_fast_batch(h, grid, 9, replicas)
        assert np.array_equal(batch, again)

    def test_determinism_and_batch_consistency(self):
        self.assert_rows_equal_generator_paths(
            0.37, SampleGrid.anchored(1.0, 8, 24), range(5))

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_dim_grid_rows_equal_generator_paths(self, h):
        self.assert_rows_equal_generator_paths(
            h, SampleGrid.anchored(2.0 ** -15, 2 ** 15, 2 ** 15), [0, 1, 19])

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_max_functional_matches_exact_sampler(self, h):
        n, reps = 32, 3000
        grid = SampleGrid.one_sided(1.0, n)
        mx_exact = sample_fbm_exact_batch(h, grid, 21, range(reps)).max(axis=1)
        mx_fast = sample_fbm_fast_batch(h, grid, 22, range(reps)).max(axis=1)
        stat = ks_2samp(mx_exact, mx_fast).statistic
        crit = ks_critical_value(reps, reps)
        print(f"  H={h}: KS={stat:.4f} crit(1%)={crit:.4f}")
        assert stat < crit

    def test_brownian_increments_uncorrelated(self):
        grid = SampleGrid.one_sided(1.0, 16)
        vals = sample_fbm_fast_batch(0.5, grid, 3, range(6000))
        inc = np.diff(vals, axis=1)
        for lag in (1, 2, 5):
            c = np.mean(inc[:, :-lag] * inc[:, lag:], axis=0)
            se = np.std(inc[:, :-lag] * inc[:, lag:], axis=0) / np.sqrt(6000)
            assert np.all(np.abs(c) <= 4 * se)

    def test_self_similar_rescaling(self):
        # marginal variances of lambda^-H w(lambda x) match those of w(x)
        h, lam, reps = 0.6, 4.0, 6000
        fine = SampleGrid.one_sided(0.01, 32)
        coarse = SampleGrid.one_sided(0.01 * lam, 32)
        v_fine = sample_fbm_fast_batch(h, fine, 31, range(reps))
        v_coarse = sample_fbm_fast_batch(h, coarse, 32, range(reps)) * lam ** -h
        var_f = v_fine.var(axis=0)[1:]
        var_c = v_coarse.var(axis=0)[1:]
        se = np.sqrt(2.0 / reps) * np.maximum(var_f, var_c)
        assert np.all(np.abs(var_f - var_c) <= 4 * se)

    def test_stationary_increments(self):
        h, reps = 0.7, 6000
        grid = SampleGrid.one_sided(1.0, 12)
        vals = sample_fbm_fast_batch(h, grid, 17, range(reps))
        inc = np.diff(vals, axis=1)
        for lag in (0, 1, 3):
            prods = inc[:, :inc.shape[1] - lag] * inc[:, lag:]
            means = prods.mean(axis=0)
            ses = prods.std(axis=0) / np.sqrt(reps)
            spread = np.abs(means - means.mean())
            assert np.all(spread <= 4 * ses), f"lag {lag} not stationary"

    def test_two_sided_halves_are_dependent_for_rough_h(self):
        # at H != 1/2 the two half-axes must correlate; at H = 1/2 they must not
        grid = SampleGrid.anchored(1.0, 1, 1)
        for h, dependent in ((0.25, True), (0.5, False)):
            vals = sample_fbm_fast_batch(h, grid, envseed := 41, range(8000))
            prod = vals[:, 0] * vals[:, 2]
            corr = prod.mean()
            se = prod.std() / np.sqrt(8000)
            target = fbm.fbm_covariance(h, -1.0, 1.0)
            assert abs(corr - target) <= 4 * se
            if dependent:
                assert abs(target) > 0.1

    def test_fast_sampler_covariance_matches_formula(self):
        h, replicas = 0.6, 6000
        grid = SampleGrid.anchored(0.5, 3, 4)
        vals = sample_fbm_fast_batch(h, grid, 12, range(replicas))
        coords = grid.coordinates
        target = fbm.fbm_covariance(h, coords[:, None], coords[None, :])
        emp = vals.T @ vals / replicas
        se = np.sqrt((np.outer(np.diag(target), np.diag(target))
                      + target ** 2) / replicas)
        mask = se > 0
        assert np.all(np.abs(emp - target)[mask] <= 4 * se[mask])

    def test_self_similarity_per_coordinate_and_max(self):
        # lambda^-H w(lambda x) vs w(x) on a common grid: two-sample KS per
        # coordinate and for the path maximum, 1% level
        h, lam, reps, n = 0.4, 2.0, 3000, 16
        base = SampleGrid.one_sided(0.05, n)
        stretched = SampleGrid.one_sided(0.05 * lam, n)
        a = sample_fbm_fast_batch(h, base, 51, range(reps))
        b = sample_fbm_fast_batch(h, stretched, 52, range(reps)) * lam ** -h
        crit = ks_critical_value(reps, reps)
        for k in range(1, n + 1):
            stat = ks_2samp(a[:, k], b[:, k]).statistic
            assert stat < crit, f"coordinate {k}: KS {stat:.4f} >= {crit:.4f}"
        stat = ks_2samp(a.max(axis=1), b.max(axis=1)).statistic
        assert stat < crit

    def test_shift_identity_variances(self):
        # I(x + x0) - I(x0) - w(x0) x has the variances of I(x)
        h, reps = 0.7, 8000
        shift_steps, n = 12, 10
        spacing = 0.25
        grid = SampleGrid.one_sided(spacing, shift_steps + n)
        w = sample_fbm_fast_batch(h, grid, 61, range(reps))
        ii = fbm.integrate_values(w, spacing, 0)
        x = spacing * np.arange(1, n + 1)
        shifted = (ii[:, shift_steps + 1:]
                   - ii[:, shift_steps:shift_steps + 1]
                   - w[:, shift_steps:shift_steps + 1] * x[None, :])
        emp = shifted.var(axis=0)
        # the identity is exact for the trapezoid integral: the shifted
        # sample has the discrete I covariance (sharp 4 SE check) ...
        tm = np.zeros((n + 1, grid.count))
        for i in range(1, n + 1):
            tm[i, 0] = tm[i, i] = 0.5 * spacing
            tm[i, 1:i] = spacing
        cw = fbm.fbm_covariance(h, grid.coordinates[:, None],
                                grid.coordinates[None, :])
        disc = (tm @ cw @ tm.T).diagonal()[1:]
        se = disc * np.sqrt(2.0 / reps)
        assert np.all(np.abs(emp - disc) <= 4 * se)
        # ... and matches the continuum covariance once the (exactly known)
        # trapezoid correction is allowed for
        target = fbm.ifbm_covariance(h, x, x)
        assert np.all(np.abs(emp - target) <= 4 * se + np.abs(disc - target))

    def test_embedding_failure_instructs_doubling(self, monkeypatch):
        def bad_autocov(h, lag, spacing=1.0):
            k = np.abs(np.asarray(lag, dtype=float))
            return np.where(k == 0, 1.0, -0.9)
        monkeypatch.setattr(fbm, "fgn_autocovariance", bad_autocov)
        fbm._embedding_amplitudes.cache_clear()
        grid = SampleGrid.one_sided(1.0, 9)
        with pytest.raises(EmbeddingError, match="doubl"):
            sample_fbm_fast(0.97, grid, RandomnessSpec(0))
        fbm._embedding_amplitudes.cache_clear()


def _swapped_limbs(bit_gen, states, setter=grids._direct_setter):
    """A direct setter for a struct that keeps the high word first."""
    return setter(bit_gen, states[:, [1, 0, 3, 2]])


def _no_address(bit_gen, states):
    raise AttributeError("state_address")


class TestReplicaNormals:
    """The vectorised seeding must reproduce each replica's own generator."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 31 + 5, 2 ** 32 - 1])
    @pytest.mark.parametrize("replicas", [range(4), range(7, 12),
                                          range(65_533, 65_539),
                                          range(2 ** 32 - 3, 2 ** 32)])
    def test_equals_per_replica_generators(self, seed, replicas):
        oracle = np.stack([RandomnessSpec(seed, r).generator().standard_normal(19)
                           for r in replicas])
        assert np.array_equal(replica_normals(seed, replicas, 19), oracle)

    @pytest.mark.parametrize("seed", [0, 1101, 2 ** 32 - 1])
    def test_prefix_equals_shorter_draw(self, seed):
        # what lets one noise draw serve cells of several lengths
        reps = range(1000)
        long = replica_normals(seed, reps, 2048)
        for length in (1, 2, 33, 128, 2047):
            assert np.array_equal(long[:, :length],
                                  replica_normals(seed, reps, length))

    def test_non_range_replicas_and_empty(self):
        reps = [5, 0, 70_000, 5]
        oracle = np.stack([RandomnessSpec(3, r).generator().standard_normal(8)
                           for r in reps])
        assert np.array_equal(replica_normals(3, reps, 8), oracle)
        assert replica_normals(3, range(0), 8).shape == (0, 8)

    @pytest.mark.parametrize("seed", [0, 1101, 2 ** 32 - 1])
    def test_random_indices_equal_per_replica_generators(self, seed):
        # random words set every carry of the limb arithmetic both ways
        reps = np.random.default_rng(7).integers(0, 2 ** 32, 20_000)
        oracle = np.stack([RandomnessSpec(seed, r).generator().standard_normal(2)
                           for r in reps.tolist()])
        assert np.array_equal(replica_normals(seed, reps, 2), oracle)

    @pytest.mark.skipif(sys.platform != "linux", reason="numpy's Linux builds "
                        "keep the PCG64 state in native 128-bit integers")
    def test_probe_picks_direct_writes(self, monkeypatch):
        monkeypatch.setattr(grids, "_STATE_WRITE", None)
        assert rng_state_write() == "direct"

    @pytest.mark.parametrize("direct", [_swapped_limbs, _no_address],
                             ids=["swapped_limbs", "no_address"])
    def test_generator_fallback_when_probe_fails(self, monkeypatch, direct):
        calls = []

        def counted(bit_gen, states):
            calls.append(len(states))
            return direct(bit_gen, states)
        monkeypatch.setattr(grids, "_STATE_WRITE", None)
        monkeypatch.setattr(grids, "_direct_setter", counted)
        assert rng_state_write() == "generator"
        assert calls == [4]     # the probe only
        reps = np.random.default_rng(8).integers(0, 2 ** 32, 2000)
        oracle = np.stack([RandomnessSpec(1101, r).generator().standard_normal(3)
                           for r in reps.tolist()])
        assert np.array_equal(replica_normals(1101, reps, 3), oracle)
        assert calls == [4]

    @pytest.mark.parametrize("seed, replicas", [
        (-1, range(2)), (2 ** 32, range(2)), (1, range(-1, 2)),
        (1, range(2 ** 32 - 1, 2 ** 32 + 1))])
    def test_out_of_range_raises(self, seed, replicas):
        with pytest.raises(ValueError, match="2\\^32"):
            replica_normals(seed, replicas, 4)

    def test_out_equals_allocating_call(self):
        out = np.full((4, 9), np.nan)
        got = replica_normals(5, range(2, 6), 9, out=out)
        assert got is out
        assert np.array_equal(out, replica_normals(5, range(2, 6), 9))

    @pytest.mark.parametrize("out", [
        np.empty((4, 8)), np.empty((3, 9)), np.empty((5, 9)), np.empty(36),
        np.empty((4, 9), dtype=np.float32)])
    def test_out_of_wrong_shape_raises(self, out):
        with pytest.raises(ValueError, match="out must be"):
            replica_normals(5, range(2, 6), 9, out=out)


class TestHalfSpectrumFft:
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n_inc", [1, 31, 32, 700])
    def test_matches_complex_fft(self, h, n_inc):
        ln = fbm._noise_length(h, 0.5, n_inc)
        noise = np.random.default_rng(n_inc).standard_normal((64, ln))
        got = fbm._fgn_rows(h, 0.5, n_inc, noise, fbm.RowBuffers())
        want = complex_fft_fgn_rows(h, 0.5, n_inc, noise)
        assert got.shape == want.shape == (64, n_inc)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


    @pytest.mark.parametrize("h", [0.3, 0.7])
    @pytest.mark.parametrize("m", [64, 256, 1024, 2 ** 16])
    def test_irfft_equals_hfft_bit_for_bit(self, h, m):
        noise = np.random.default_rng(m).standard_normal((3, 2 * m))
        got = fbm._fgn_rows(h, 1.0, m, noise, fbm.RowBuffers())
        assert got.tobytes() == hfft_fgn_rows(h, 1.0, m, noise).tobytes()


# H whose circulant embedding is indefinite at every odd power of two, so
# its half-size doubles once from 8, 32, 128 and 512
_DOUBLING_H = 0.9


class TestRowBuffers:
    """Rows built in reused buffers equal freshly allocated rows bit for
    bit, whatever the buffers held and whatever shapes they served before."""

    @pytest.fixture
    def doubling(self, monkeypatch):
        autocov = fbm.fgn_autocovariance

        def odd_powers_indefinite(h, lag, spacing=1.0):
            m = len(lag) - 1
            if h == _DOUBLING_H and m.bit_length() % 2 == 0:
                return np.where(np.asarray(lag) == 0, 1.0, -0.9)
            return autocov(h, lag, spacing)

        monkeypatch.setattr(fbm, "fgn_autocovariance", odd_powers_indefinite)
        fbm._embedding_amplitudes.cache_clear()
        yield
        fbm._embedding_amplitudes.cache_clear()

    def test_reused_buffers_equal_fresh_rows(self, doubling):
        buffers = fbm.RowBuffers()
        sizes = [2 ** k for k in range(2, 11)]
        doubled = 0
        for m in sizes + sizes[::-1]:
            for h in (0.3, 0.7, _DOUBLING_H):
                source = fbm.FastRows(h, SampleGrid.anchored(0.5, m // 4,
                                                             m - m // 4))
                length = source.noise_length
                doubled += length > 2 * m
                noise = replica_normals(m, range(m % 3 + 2), length + 3)
                for flat in buffers._flat.values():
                    flat.view(float).fill(np.nan)
                got = source.rows(noise, buffers)
                want = source.rows(noise, fbm.RowBuffers())
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (m, h)
        assert doubled == 8


class TestIntegratePath:
    def test_zero_in_zero_out(self):
        out = fbm.integrate_values(np.zeros(5), 1.0, 2)
        assert np.array_equal(out, np.zeros(5))

    def test_linear_exact(self):
        out = fbm.integrate_values(np.array([0.0, 1.0, 2.0]), 1.0, 0)
        np.testing.assert_allclose(out, [0.0, 0.5, 2.0], rtol=0, atol=0)

    def test_signed_two_sided(self):
        # I(x) = -integral from x to 0 for x < 0; for w = 1, I(x) = x
        grid = SampleGrid.anchored(0.5, 4, 4)
        out = fbm.integrate_values(np.ones(9), 0.5, grid.anchor_index)
        np.testing.assert_allclose(out, grid.coordinates, atol=1e-15)

    def test_integrated_bm_variance_matches_oracle(self):
        h, reps = 0.5, 10_000
        grid = SampleGrid.one_sided(1.0 / 256, 256)
        vals = sample_fbm_fast_batch(h, grid, 77, range(reps))
        ivals = fbm.integrate_values(vals, grid.spacing, 0)
        v = ivals[:, -1].var()
        se = np.sqrt(2.0 / reps) * (1.0 / 3.0)
        # trapezoid bias is O(spacing) here, far below the MC band
        assert abs(v - 1.0 / 3.0) <= 4 * se + 2.0 / 256


class TestCsvRoundTrip:
    def test_full_precision(self, tmp_path):
        grid = SampleGrid.anchored(1.0 / 3, 5, 5)
        path = sample_fbm_fast(0.41, grid, RandomnessSpec(123))
        f = tmp_path / "path.csv"
        path.to_csv(f)
        coords, values = read_path_csv(f)
        assert np.array_equal(coords, path.coordinates)
        assert np.array_equal(values, path.values)
