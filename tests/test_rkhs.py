"""Kernel space, localizer trends and the trend-shift inequality."""

import json
import math

import numpy as np
import pytest

from oracles import quad_ifbm_covariance

from burgerslab.grids import (RandomnessSpec, SampleGrid, replica_normals,
                              write_json)
from burgerslab.rkhs import (
    TrendFunction,
    TrendRangeError,
    build_space,
    combined_trend,
    covariance_column_trend,
    localizer_trends,
    psi_trend,
    rkhs_norm,
    verify_shift_inequalities,
    verify_shift_inequality,
)
from burgerslab import persistence, rkhs
from burgerslab.acceptance import check_rkhs


def symmetric_grid(spacing, n_half):
    return SampleGrid.anchored(spacing, n_half, n_half)


class TestBuildSpace:
    def test_two_point_degenerate_row(self):
        grid = SampleGrid.one_sided(1.0, 1)
        sp = build_space(grid, 0.5)
        np.testing.assert_allclose(sp.cov, [[0.0, 0.0], [0.0, 1.0 / 3.0]],
                                   atol=1e-15)
        assert sp.regularized  # anchor eigenvalue sits below the cutoff
        z, residual = sp.solve(np.array([0.0, 1.0]))
        assert residual < 1e-12
        np.testing.assert_allclose(z, [0.0, 3.0], rtol=1e-12)

    def test_entries_match_quadrature_oracle(self):
        rng = np.random.default_rng(6)
        coords = np.sort(np.concatenate([[0.0], rng.uniform(-2, 2, 7)]))
        h = 0.65
        for s in coords:
            for t in coords[:3]:
                from burgerslab.fbm import ifbm_covariance
                got = ifbm_covariance(h, s, t)
                want = quad_ifbm_covariance(h, s, t)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_symmetry_and_size_cap(self):
        grid = symmetric_grid(0.25, 8)
        sp = build_space(grid, 0.4)
        np.testing.assert_allclose(sp.cov, sp.cov.T, rtol=1e-12)
        big = SampleGrid.one_sided(1.0, 600)
        with pytest.raises(ValueError, match="capped"):
            build_space(big, 0.4)

    def test_sample_batch_moments_and_determinism(self):
        grid = symmetric_grid(0.5, 3)
        sp = build_space(grid, 0.5)
        a = sp.sample_batch(3, range(4000))
        b = sp.sample_batch(3, range(4000))
        assert np.array_equal(a, b)
        emp = a.T @ a / 4000
        d = np.sqrt(np.diag(sp.cov))
        se = np.sqrt((np.outer(d ** 2, d ** 2) + sp.cov ** 2) / 4000)
        mask = se > 0
        assert np.all(np.abs(emp - sp.cov)[mask] <= 4 * se[mask])

    def test_sample_batch_rows_use_replica_generators(self):
        sp = build_space(symmetric_grid(0.5, 3), 0.4)
        factor = sp.eigvecs * np.sqrt(np.clip(sp.eigvals, 0.0, None))
        z = np.stack([RandomnessSpec(8, r).generator().standard_normal(7)
                      for r in range(90, 96)])
        assert np.array_equal(sp.sample_batch(8, range(90, 96)), z @ factor.T)

    @pytest.mark.parametrize("offset", [0, 17, 333])
    def test_rows_equal_one_large_product(self, offset):
        # with the installed OpenBLAS a product of 1-36 rows can give other
        # last bits than the same rows in a larger one
        noise = replica_normals(1101, range(600), 33)
        for sp in (build_space(symmetric_grid(0.125, 16), 0.5),
                   build_space(symmetric_grid(0.25, 8), 0.3)):
            big = noise[:, :sp.grid.count] @ sp.factor.T
            for n in range(1, 130):
                rows = noise[offset:offset + n]
                assert np.array_equal(sp.rows(rows), big[offset:offset + n])


class TestNorm:
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_reproducing_property(self, h):
        sp = build_space(symmetric_grid(0.125, 16), h)
        worst = 0.0
        for i in range(sp.grid.count):
            target = math.sqrt(sp.cov[i, i])
            if target == 0.0:
                continue
            got = rkhs_norm(sp, sp.cov[:, i])
            worst = max(worst, abs(got - target) / target)
        print(f"  H={h}: worst reproducing error {worst:.2e}")
        assert worst <= 1e-8

    def test_zero_trend(self):
        sp = build_space(symmetric_grid(0.5, 4), 0.5)
        assert rkhs_norm(sp, np.zeros(sp.grid.count)) == 0.0

    def test_out_of_range_trend_raises(self):
        sp = build_space(symmetric_grid(0.5, 4), 0.5)
        bad = np.zeros(sp.grid.count)
        bad[sp.grid.anchor_index] = 1.0  # I(0) is deterministically zero
        with pytest.raises(TrendRangeError, match="residual"):
            rkhs_norm(sp, bad)

    def test_psi_norm_monotone_under_refinement(self):
        norms = []
        for n_half in (4, 8, 16):
            grid = symmetric_grid(2.0 / n_half, n_half)
            sp = build_space(grid, 0.5)
            norms.append(rkhs_norm(sp, psi_trend(grid)))
        print(f"  psi norms over nested grids: {norms}")
        assert norms[0] <= norms[1] <= norms[2]


class TestLocalizers:
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_localization_and_norm_identity(self, h):
        grid = symmetric_grid(0.125, 16)
        sp = build_space(grid, h)
        phi1, phi2 = localizer_trends(sp)
        x = grid.coordinates
        i1 = grid.index_of(1.0)
        peak = phi1.values[i1]
        assert peak > 0
        # vanishes left of 0 and is constant right of 1, to solver precision
        assert np.abs(phi1.values[x <= 0]).max() <= 1e-6 * peak
        assert np.abs(phi1.values[x >= 1] - peak).max() <= 1e-6 * peak
        # phi1(1) = E eta^2 = ||phi1||^2, via two computation paths
        assert peak == pytest.approx(phi1.norm_sq, rel=1e-6)
        # mirrored partner
        np.testing.assert_array_equal(phi2.values, phi1.values[::-1])
        # kernel norm agrees with the constructed norm as the grid resolves
        sigma_norm_sq = rkhs_norm(sp, phi1) ** 2
        assert sigma_norm_sq == pytest.approx(phi1.norm_sq, rel=0.2)

    def test_markov_case_exact_zeros(self):
        sp = build_space(symmetric_grid(0.25, 8), 0.5)
        phi1, _ = localizer_trends(sp)
        x = sp.grid.coordinates
        assert np.abs(phi1.values[x <= 0]).max() <= 1e-12

    def test_requires_symmetric_anchored_cover(self):
        with pytest.raises(ValueError, match="cover"):
            localizer_trends(build_space(symmetric_grid(0.25, 4), 0.5))


class TestPsiAndCombined:
    def test_psi_closed_form_values(self):
        grid = symmetric_grid(0.5, 4)
        psi = psi_trend(grid)
        assert psi.values[grid.index_of(0.5)] == 0.5
        assert psi.values[grid.index_of(2.0)] == 3.0
        assert psi.values[grid.index_of(1.0)] == 1.0
        assert psi.values[grid.index_of(-1.5)] == 2.0

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("a", [0, 1])
    def test_composition_equals_linear_outside(self, h, a):
        grid = symmetric_grid(0.125, 16)
        sp = build_space(grid, h)
        trend = combined_trend(sp, a)
        x = grid.coordinates
        outside = np.abs(x) >= 1.0
        dev = np.abs(trend.values[outside] - (2.0 * np.abs(x[outside]) + a))
        print(f"  H={h} a={a}: max deviation {dev.max():.2e}")
        assert dev.max() <= 1e-5

    def test_specific_points(self):
        sp = build_space(symmetric_grid(0.25, 8), 0.5)
        t0 = combined_trend(sp, 0)
        t1 = combined_trend(sp, 1)
        g = sp.grid
        assert t0.values[g.index_of(1.5)] == pytest.approx(3.0, abs=1e-5)
        assert t0.values[g.index_of(-1.5)] == pytest.approx(3.0, abs=1e-5)
        assert t1.values[g.index_of(2.0)] == pytest.approx(5.0, abs=1e-5)
        assert t1.values[g.index_of(-2.0)] == pytest.approx(5.0, abs=1e-5)

    def test_offset_validation(self):
        sp = build_space(symmetric_grid(0.25, 8), 0.5)
        with pytest.raises(ValueError):
            combined_trend(sp, 2)


class TestShiftInequality:
    def test_zero_trend_tight(self):
        sp = build_space(symmetric_grid(0.25, 8), 0.5)
        rep = verify_shift_inequality(
            sp, TrendFunction(np.zeros(sp.grid.count), "zero"), 1.0, 20_000, 1)
        # lhs 0 against a bound of 0 plus 4 SE
        assert rep["got"] == 0.0 and rep["norm"] == 0.0
        assert rep["hi"] == 4.0 * rep["se"] and rep["pass"]

    def test_small_covariance_column(self):
        sp = build_space(symmetric_grid(0.25, 8), 0.5)
        trend = covariance_column_trend(sp, 1.0, 0.1)
        assert rkhs_norm(sp, trend) == pytest.approx(
            math.sqrt(trend.norm_sq), rel=1e-8)
        rep = verify_shift_inequality(sp, trend, 1.0, 50_000, 2)
        print(f"  lhs={rep['got']:.4f} hi={rep['hi']:.4f} "
              f"margin={rep['margin_sigma']:.1f} sigma")
        assert rep["pass"] and not rep["inconclusive"]

    def test_combined_trend_conclusive_at_raised_level(self):
        sp = build_space(symmetric_grid(0.125, 16), 0.5)
        rep = verify_shift_inequality(sp, combined_trend(sp, 0), 2.0,
                                      100_000, 3)
        assert rep["pass"] and not rep["inconclusive"]

    # a probability below the reliability floor, and one of exactly 1, where
    # the delta-method SE is 0/0: the second raises ZeroDivisionError at
    # e7c0d46
    @pytest.mark.parametrize("name, level, replicas", [
        ("combined0", 1.0, 20_000), ("zero", 100.0, 200)],
        ids=["below_floor", "probability_one"])
    def test_unresolvable_probability_flagged(self, name, level, replicas):
        sp = build_space(symmetric_grid(0.125, 16), 0.5)
        rep = verify_shift_inequality(sp, rkhs.trend(sp, name), level, replicas,
                                      4)
        assert rep["inconclusive"] and not rep["pass"]
        assert rep["got"] is None and rep["lhs"] is None

    def test_cases_share_one_pass_of_draws(self, monkeypatch):
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        sp = build_space(symmetric_grid(0.125, 16), 0.5)
        small = build_space(symmetric_grid(0.25, 8), 0.3)
        cases = [(sp, combined_trend(sp, 0), 2.0),
                 (sp, combined_trend(sp, 1), 3.0),
                 (sp, covariance_column_trend(sp, 1.0, 0.1), 1.0),
                 (small, covariance_column_trend(small, 1.0, 0.1), 1.0)]
        alone = [verify_shift_inequality(*case, 3000, 1101) for case in cases]
        rows = []
        normals = persistence.replica_normals
        monkeypatch.setattr(persistence, "replica_normals",
                            lambda seed, reps, length, out=None:
                            rows.append((len(reps), length))
                            or normals(seed, reps, length, out=out))
        together = verify_shift_inequalities(cases, 3000, 1101)
        # one draw of 33 normals per replica serves both spaces
        assert sum(n for n, _ in rows) == 3000
        assert {length for _, length in rows} == {33}
        assert [json.dumps(r) for r in together] == \
            [json.dumps(r) for r in alone]
        assert together == alone

    def test_criterion_11_draws_each_replica_once(self, monkeypatch):
        # its five configurations on four (grid, H) spaces share one pass:
        # at the pinned 10^6 replicas that is 10^6 rows, not 4 * 10^6
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        rows = []
        normals = persistence.replica_normals
        monkeypatch.setattr(persistence, "replica_normals",
                            lambda seed, reps, length, out=None:
                            rows.append((seed, len(reps), length))
                            or normals(seed, reps, length, out=out))
        check_rkhs({"rkhs.replicas": 5000})
        part = persistence._PASS_BYTES // (8 * 33)
        assert part == 3971
        assert rows == [(1101, part, 33), (1101, 5000 - part, 33)]

    # fails at e7c0d46, which keyed its rows by ids of their own
    def test_criterion_11_keys_rows_by_name(self):
        rows = check_rkhs({"rkhs.replicas": 5000})["rows"]
        assert [row["name"] for row in rows] == [
            "reproducing rel err", "composition abs err",
            *(f"shift bound {name} h={h}"
              for name, h in [("combined0", 0.5), ("combined1", 0.5),
                              ("covcol@1*0.1", 0.3), ("covcol@-1*0.3", 0.7),
                              ("psi*0.2", 0.5)])]

    def test_grid_cap(self):
        sp = build_space(symmetric_grid(0.05, 40), 0.5)
        with pytest.raises(ValueError, match="restricted"):
            verify_shift_inequality(
                sp, TrendFunction(np.zeros(sp.grid.count), "zero"),
                1.0, 1000, 0)

    def test_json_export(self, tmp_path):
        sp = build_space(symmetric_grid(0.25, 8), 0.5)
        rep = verify_shift_inequality(
            sp, covariance_column_trend(sp, 1.0, 0.1), 1.0, 20_000, 5)
        write_json(tmp_path / "shift.json", rep)
        doc = json.loads((tmp_path / "shift.json").read_text())
        assert {"p_trended", "p_plain", "norm", "lhs", "rhs", "pass"} <= set(doc)
