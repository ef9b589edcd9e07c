"""Closed-form covariances against independent quadrature oracles."""

import numpy as np
import pytest
from oracles import quad_ifbm_covariance

from burgerslab.fbm import fbm_covariance, fgn_autocovariance, ifbm_covariance


class TestMotionCovariance:
    def test_brownian_diagonal(self):
        assert fbm_covariance(0.5, 1.0, 1.0) == 1.0

    def test_brownian_is_min(self):
        assert fbm_covariance(0.5, 1.0, 2.0) == 1.0
        assert fbm_covariance(0.5, 0.25, 3.0) == pytest.approx(0.25, rel=1e-15)

    def test_h075_frozen_value(self):
        # 0.5 * 2^1.5
        assert fbm_covariance(0.75, 1.0, 2.0) == pytest.approx(
            1.4142135623730951, rel=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_symmetry_and_two_sided(self, h):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-3, 3, size=20)
        ys = rng.uniform(-3, 3, size=20)
        a = fbm_covariance(h, xs, ys)
        b = fbm_covariance(h, ys, xs)
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_rejects_boundary_hurst(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                fbm_covariance(bad, 1.0, 1.0)


class TestIncrementAutocovariance:
    def test_unit_variance(self):
        assert fgn_autocovariance(0.5, 0, 1.0) == 1.0

    def test_brownian_independence(self):
        assert fgn_autocovariance(0.5, 3, 1.0) == 0.0

    def test_h07_lag1_frozen(self):
        # 0.5 * (2^1.4 - 2)
        assert fgn_autocovariance(0.7, 1, 1.0) == pytest.approx(
            0.3195079107728942, rel=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("lag", [-4, 0, 1, 5])
    def test_matches_second_difference_of_motion(self, h, lag):
        spacing = 0.25
        k = lag
        direct = (fbm_covariance(h, (k + 1) * spacing, spacing)
                  - fbm_covariance(h, k * spacing, spacing)
                  - fbm_covariance(h, (k + 1) * spacing, 0.0)
                  + fbm_covariance(h, k * spacing, 0.0))
        assert fgn_autocovariance(h, lag, spacing) == pytest.approx(
            direct, rel=1e-12, abs=1e-15)


class TestIntegralCovariance:
    def test_zero_at_origin(self):
        assert ifbm_covariance(0.4, 0.0, 2.3) == 0.0
        assert ifbm_covariance(0.8, -1.7, 0.0) == 0.0

    def test_brownian_unit_square(self):
        # double integral of min(u, v) over the unit square
        assert ifbm_covariance(0.5, 1.0, 1.0) == pytest.approx(1.0 / 3.0,
                                                               rel=1e-14)

    def test_quadrature_oracle_self_check(self):
        assert quad_ifbm_covariance(0.5, 1.0, 1.0) == pytest.approx(
            1.0 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("h,s,t", [
        (0.75, 1.0, 2.0),
        (0.3, 0.7, 1.9),
        (0.5, -1.0, 1.0),
        (0.7, -0.8, -2.1),
        (0.4, 1.5, -0.6),
    ])
    def test_against_quadrature(self, h, s, t):
        expected = quad_ifbm_covariance(h, s, t)
        got = ifbm_covariance(h, s, t)
        print(f"  H={h} s={s} t={t}: closed={got:.12g} quad={expected:.12g}")
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_symmetric_psd_small_matrix(self):
        x = np.array([-2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0])
        for h in (0.3, 0.5, 0.7):
            cov = ifbm_covariance(h, x[:, None], x[None, :])
            np.testing.assert_allclose(cov, cov.T, rtol=1e-13)
            eig = np.linalg.eigvalsh(cov)
            assert eig.min() >= -1e-10 * eig.max()
