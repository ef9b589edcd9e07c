"""Box counting against exactly known sets, and the dim experiment against
its one-replica-at-a-time oracle."""

import json

import numpy as np
import pytest

from burgerslab import fbm, persistence
from burgerslab.experiments import RunConfig, run_experiment
from burgerslab.fractal import box_count, default_scale_ladder, dimension_estimate
from burgerslab.fitting import fit_scaling
from burgerslab.grids import write_json
from oracles import dim_outputs


def middle_thirds_points(depth: int) -> np.ndarray:
    """All 2^depth left endpoints of the level-``depth`` middle-thirds
    construction on [0, 1]."""
    pts = np.array([0.0])
    for k in range(1, depth + 1):
        pts = np.concatenate([pts, pts + 2.0 / 3.0 ** k])
    return np.sort(pts)


class TestBoxCount:
    def test_full_coverage(self):
        pts = np.linspace(0.0, 1.0, 1000)
        assert box_count(pts, 0.01, (0.0, 1.0)) == 100

    def test_single_point(self):
        for eps in (0.3, 1.0, 2.0):
            assert box_count(np.array([0.4]), eps, (0.0, 1.0)) == 1

    def test_empty(self):
        assert box_count(np.array([]), 0.1, (0.0, 1.0)) == 0

    def test_monotone_and_doubling_bound(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, 300) ** 2
        window = (0.0, 1.0)
        prev = None
        for j in range(2, 9):
            n = box_count(pts, 2.0 ** -j, window)
            if prev is not None:
                assert prev <= n <= 2 * prev + 1
            prev = n

    def test_equals_distinct_cells_in_any_order(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, 400) ** 3
        pts[::7] = 1.0    # hi belongs to the last cell
        for eps in (0.3, 2.0 ** -6, 2.0 ** -12):
            cells = {min(int(p // eps), int(np.ceil(1 / eps)) - 1)
                     for p in pts}
            assert box_count(pts, eps, (0.0, 1.0)) == len(cells)
            assert box_count(np.sort(pts), eps, (0.0, 1.0)) == len(cells)

    def test_rejects_outside_points(self):
        with pytest.raises(ValueError):
            box_count(np.array([1.5]), 0.1, (0.0, 1.0))


class TestDimensionEstimate:
    def test_middle_thirds_set(self):
        pts = middle_thirds_points(10)
        scales = [3.0 ** -j for j in range(1, 8)]
        fit = dimension_estimate(pts, scales, window=(0.0, 1.0))
        target = np.log(2.0) / np.log(3.0)
        print(f"  middle-thirds slope {fit.slope:.4f} target {target:.4f}")
        assert abs(fit.slope - target) < 0.05

    def test_uniform_grid_dimension_one(self):
        pts = np.linspace(0.0, 1.0, 4097)
        scales = [2.0 ** -j for j in range(2, 9)]
        fit = dimension_estimate(pts, scales, window=(0.0, 1.0))
        assert abs(fit.slope - 1.0) < 0.03

    def test_needs_four_scales(self):
        with pytest.raises(ValueError):
            dimension_estimate(np.linspace(0, 1, 50), [0.5, 0.25, 0.125])

    def test_degenerate_flagged(self):
        pts = np.array([0.5])
        fit = dimension_estimate(pts, [0.5, 0.25, 0.125, 0.0625],
                                 window=(0.0, 1.0))
        assert fit.degenerate and np.isnan(fit.slope)

    def test_split_diagnostic_present(self):
        pts = np.linspace(0.0, 1.0, 4097)
        fit = dimension_estimate(pts, [2.0 ** -j for j in range(2, 10)],
                                 window=(0.0, 1.0))
        assert fit.split_discrepancy is not None
        assert abs(fit.split_discrepancy) < 0.05

    def test_default_ladder_trims_saturation(self):
        pts = np.linspace(0.0, 1.0, 64)
        ladder = default_scale_ladder(pts, (0.0, 1.0), j_min=1, j_max=10)
        for eps in ladder:
            n = box_count(pts, eps, (0.0, 1.0))
            assert 4 <= n <= len(pts) / 4


class TestFitExport:
    def test_csv_and_json(self, tmp_path):
        pts = np.linspace(0.0, 1.0, 4097)
        fit = dimension_estimate(pts, [2.0 ** -j for j in range(2, 9)],
                                 window=(0.0, 1.0))
        fit.to_csv(tmp_path / "fit.csv")
        lines = (tmp_path / "fit.csv").read_text().splitlines()
        assert lines[0] == "scale,count"
        assert len(lines) == 8
        write_json(tmp_path / "fit.json", fit.summary())
        import json
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert {"slope", "intercept", "max_residual"} <= set(doc)


class TestFitScaling:
    def test_exact_power_law(self):
        scales = [2.0 ** -j for j in range(2, 8)]
        values = [s ** -0.4 for s in scales]
        fit = fit_scaling(scales, values)
        assert fit.slope == pytest.approx(0.4, abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_se_propagation(self):
        scales = [1 / 64, 1 / 128, 1 / 256, 1 / 512]
        values = [64.0, 128.0, 256.0, 512.0]
        ses = [1.0, 1.0, 1.0, 1.0]
        fit = fit_scaling(scales, values, value_ses=ses)
        assert fit.slope == pytest.approx(1.0)
        assert fit.slope_se is not None and fit.slope_se > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_scaling([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_scaling([0.5, 0.25], [1.0, -2.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                fit_scaling([0.5, 0.25, 0.125], [1.0, bad, 2.0])

    def test_degenerate_only_when_all_values_equal(self):
        assert fit_scaling([0.5, 0.25, 0.125], [3.0] * 3).degenerate
        # values one ulp apart fit
        assert not fit_scaling([0.5, 0.25],
                               [3.0, np.nextafter(3.0, 4.0)]).degenerate


class TestDimExperiment:
    """dim estimates every Hurst index on one pass of draws; its result
    files equal those of the oracle's separate replicas, byte for byte."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("hurst, replicas, seed, fitted", [
        # 5 replicas over 2 workers; replica 2 collapses at H 0.7
        ((0.3, 0.7), 5, 4, ("0.3", "0.7")),
        # replica 0 collapses at H 0.7, so it writes no fit files
        ((0.3, 0.7), 3, 10, ("0.3",))])
    def test_files_equal_oracle(self, tmp_path, monkeypatch, workers, hurst,
                                replicas, seed, fitted):
        monkeypatch.setenv("BURGERSLAB_WORKERS", workers)
        cfg = RunConfig("dim", hurst=hurst, replicas=replicas, seed=seed,
                        out=str(tmp_path / "run"),
                        options={"grid-log2": "10"})
        status, _ = run_experiment(cfg)
        assert status == 2    # a collapsed window flags the run
        want = tmp_path / "oracle"
        want.mkdir()
        dim_outputs(cfg, want)
        names = sorted(p.name for p in want.iterdir())
        records = (want / "records.jsonl").read_text().splitlines()
        assert any('"slope": null' in line for line in records)
        assert names == sorted(["records.jsonl", "summary.json"] + [
            f"fit_h{h}{ext}" for h in fitted
            for ext in ("_scale_count.csv", ".json")])
        got = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert got == sorted(names + ["manifest.json"])
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == \
                (want / name).read_bytes(), name

    def test_one_noise_row_per_replica(self, tmp_path, monkeypatch):
        # the replica's noise serves every H; no single-path sampler runs
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        rows = []
        normals = persistence.replica_normals
        monkeypatch.setattr(persistence, "replica_normals",
                            lambda seed, reps, length, out=None:
                            rows.append(len(reps))
                            or normals(seed, reps, length, out=out))

        def refused(*args, **kwargs):
            raise AssertionError("noise drawn outside the shared pass")

        monkeypatch.setattr(fbm, "replica_normals", refused)
        run_experiment(RunConfig("dim", hurst=(0.3, 0.5, 0.7), replicas=5,
                                 seed=4, out=str(tmp_path / "run"),
                                 options={"grid-log2": "10"}))
        assert sum(rows) == 5

    # both fail at 17d119b, whose records gave no reason for a null slope
    @pytest.mark.parametrize("hurst, replicas, grid_log2, reasons", [
        # replica 18's window holds no contact point
        (0.7, 20, "10", {18: "window_collapsed"}),
        # at 2^5 points no box holds two contacts, so every scale counts
        # the same
        (0.5, 6, "5", dict.fromkeys(range(6), "degenerate_fit"))])
    def test_null_slope_reason(self, tmp_path, hurst, replicas, grid_log2,
                               reasons):
        out = tmp_path / "run"
        assert run_experiment(RunConfig(
            "dim", hurst=(hurst,), replicas=replicas, seed=1, out=str(out),
            options={"grid-log2": grid_log2}))[0] == 2
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        assert {r["replica"]: r["reason"] for r in records
                if r["slope"] is None} == reasons
        assert all("reason" not in r for r in records
                   if r["slope"] is not None)
        for r in records:
            if "reason" in r:
                assert (r["points"] < 4) == (r["reason"] == "window_collapsed")
