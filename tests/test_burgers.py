"""Minorant solver against trivial closed forms and the sticky-particle oracle."""

import numpy as np
import pytest

from burgerslab.burgers import (
    sticky_shock_clusters,
    LagrangianSolution,
    ParticleSystem,
    build_potential,
    clusters_match,
    merged_intervals,
    solve,
    sticky_simulate,
)
from burgerslab.experiments import RunConfig, run_experiment
from burgerslab.fbm import sample_fbm_fast
from burgerslab.grids import GridPath, RandomnessSpec, SampleGrid
from oracles import solve_clusters_jsonl


def zero_velocity(grid):
    return GridPath(grid, np.zeros(grid.count), "fbm", hurst=0.5)


def particles_from_path(u0: GridPath) -> ParticleSystem:
    """One particle per grid point: velocity from the path, mass = spacing."""
    grid = u0.grid
    return ParticleSystem(positions=grid.coordinates.copy(),
                          velocities=u0.values.copy(),
                          masses=np.full(grid.count, grid.spacing),
                          members=tuple((i, i) for i in range(grid.count)))


def holder_check(solution: LagrangianSolution, gamma: float,
                 window: tuple[float, float]) -> float:
    """Smallest constant K with |dC'| <= K |dx|^gamma over contact pairs in
    the window; 0 when fewer than two contacts fall inside."""
    hurst = solution.potential.hurst
    if hurst is not None and not gamma < hurst:
        raise ValueError(f"gamma must be < driving Hurst index {hurst}")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    lo, hi = window
    coords = solution.contact_coordinates
    mask = (coords >= lo) & (coords <= hi)
    x = coords[mask]
    v = solution.lagrangian_velocity[mask]
    if x.size < 2:
        return 0.0
    best = 0.0
    for i in range(x.size - 1):
        dx = x[i + 1:] - x[i]
        dv = np.abs(v[i + 1:] - v[i])
        best = max(best, float(np.max(dv / dx ** gamma)))
    return best


class TestPotential:
    def test_zero_velocity_gives_parabola(self):
        grid = SampleGrid.anchored(0.25, 8, 8)
        psi = build_potential(zero_velocity(grid), t=1.0)
        np.testing.assert_array_equal(psi.values, grid.coordinates ** 2 / 2.0)

    def test_linear_velocity_exact_under_trapezoid(self):
        grid = SampleGrid.anchored(0.125, 16, 16)
        u0 = GridPath(grid, -2.0 * grid.coordinates, "fbm", hurst=0.5)
        psi = build_potential(u0, t=1.0)
        np.testing.assert_allclose(psi.values, -grid.coordinates ** 2 / 2.0,
                                   atol=1e-14)

    def test_refinement_convergence(self):
        h, seed = 0.5, 13
        prev = None
        for n_half in (256, 512):
            grid = SampleGrid.anchored(1.0 / n_half, n_half, n_half)
            u0 = sample_fbm_fast(h, grid, RandomnessSpec(seed))
            psi = build_potential(u0, t=1.0)
            # the parabola part is exact; only the quadrature of u0 moves
            para = grid.coordinates ** 2 / 2.0
            if prev is not None:
                coarse_vals, coarse_grid = prev
                fine_on_coarse = psi.values[::2] - para[::2]
                # different sample paths, so only check magnitudes stay bounded
                assert np.max(np.abs(fine_on_coarse)) < 10
            prev = (psi.values - para, grid)

    def test_time_must_be_positive(self):
        grid = SampleGrid.anchored(0.5, 2, 2)
        with pytest.raises(ValueError):
            build_potential(zero_velocity(grid), t=0.0)

    def test_general_time_scales_parabola(self):
        grid = SampleGrid.anchored(0.25, 8, 8)
        psi = build_potential(zero_velocity(grid), t=2.0)
        np.testing.assert_array_equal(psi.values, grid.coordinates ** 2 / 4.0)


class TestSolve:
    def test_rest_fluid_all_points_regular(self):
        grid = SampleGrid.anchored(0.1, 10, 10)
        sol = solve(zero_velocity(grid), t=1.0)
        assert np.array_equal(sol.contact_indices, np.arange(grid.count))
        assert sol.shock_clusters == ()
        # C'(x) ~ x (midpoint forward slopes)
        np.testing.assert_allclose(sol.lagrangian_velocity[:-1],
                                   grid.coordinates[:-1] + grid.spacing / 2,
                                   atol=1e-12)

    def test_total_collapse(self):
        grid = SampleGrid.anchored(0.05, 20, 20)
        u0 = GridPath(grid, -2.0 * grid.coordinates, "fbm", hurst=0.5)
        sol = solve(u0, t=1.0)
        assert sol.contact_indices.tolist() == [0, grid.count - 1]
        assert sol.shock_clusters == ((1, grid.count - 2),)

    def test_minorant_dominance_and_monotone_velocity(self):
        grid = SampleGrid.anchored(1.0 / 512, 512, 512)
        u0 = sample_fbm_fast(0.5, grid, RandomnessSpec(101))
        sol = solve(u0, t=1.0)
        env = sol.minorant.evaluate()
        scale = np.abs(sol.potential.values).max()
        assert np.all(env <= sol.potential.values + 1e-12 * scale)
        touched = sol.potential.values[sol.contact_indices]
        np.testing.assert_array_equal(sol.minorant.node_values, touched)
        assert np.all(np.diff(sol.lagrangian_velocity) >= 0)

    def test_partition_into_contacts_and_clusters(self):
        grid = SampleGrid.anchored(1.0 / 256, 256, 256)
        u0 = sample_fbm_fast(0.4, grid, RandomnessSpec(55))
        sol = solve(u0, t=1.0)
        covered = set(sol.contact_indices.tolist())
        assert sol.shock_clusters
        for a, b in sol.shock_clusters:
            assert type(a) is int and type(b) is int
            cluster = set(range(a, b + 1))
            assert not cluster & covered
            covered |= cluster
        assert covered == set(range(grid.count))

    def test_contact_count_grows_like_sqrt_for_bm(self):
        # Brownian case: contact-set cardinality ~ N^(1/2)
        slopes = []
        counts = []
        for log2n in (10, 12, 14):
            n = 2 ** log2n
            sizes = []
            for rep in range(8):
                grid = SampleGrid.anchored(2.0 / n, n // 2, n // 2)
                u0 = sample_fbm_fast(0.5, grid, RandomnessSpec(7000 + rep))
                sol = solve(u0, t=1.0)
                # drop near-edge contacts, where the parabola dominates
                coords = sol.contact_coordinates
                inner = (coords > -0.95) & (coords < 0.95)
                sizes.append(np.count_nonzero(inner))
            counts.append(np.mean(sizes))
        slope = np.polyfit(np.log([2 ** 10, 2 ** 12, 2 ** 14]),
                           np.log(counts), 1)[0]
        print(f"  contact-count growth exponent: {slope:.3f} (counts {counts})")
        assert 0.4 <= slope <= 0.6

    def test_export_csv_and_clusters(self, tmp_path):
        grid = SampleGrid.anchored(0.05, 20, 20)
        u0 = sample_fbm_fast(0.5, grid, RandomnessSpec(3))
        sol = solve(u0, t=1.0)
        sol.to_csv(tmp_path / "sol.csv")
        sol.clusters_to_jsonl(tmp_path / "clusters.jsonl", u0)
        header = (tmp_path / "sol.csv").read_text().splitlines()[0]
        assert header == "coordinate,potential,minorant,is_contact,velocity"
        import json
        rows = [json.loads(line) for line in
                (tmp_path / "clusters.jsonl").read_text().splitlines()]
        assert len(rows) == len(sol.shock_clusters)
        for row in rows:
            assert set(row) == {"left", "right", "mass", "momentum"}

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_solve_run_files_equal_oracle(self, tmp_path, h):
        # contacts and clusters read single entries of the grid's
        # coordinates, bit for bit those of the whole array
        cfg = RunConfig("solve", hurst=(h,), replicas=2, seed=5,
                        out=str(tmp_path / "run"),
                        options={"spacing": 2.0 ** -9})
        assert run_experiment(cfg)[0] == 0
        grid = SampleGrid.anchored(cfg.opt("spacing"), 512, 512)
        for rep in range(cfg.replicas):
            u0 = sample_fbm_fast(h, grid, RandomnessSpec(cfg.seed, rep))
            sol = solve(u0)
            assert sol.contact_coordinates.tobytes() == \
                grid.coordinates[sol.contact_indices].tobytes()
            got = tmp_path / "run" / f"clusters_h{h:g}_r{rep}.jsonl"
            assert got.read_text() == solve_clusters_jsonl(sol, u0)


class TestStickyParticles:
    def test_symmetric_triple_collapses_to_origin(self):
        system = ParticleSystem(np.array([-1.0, 0.0, 1.0]),
                                np.array([1.0, 0.0, -1.0]),
                                np.array([1.0, 1.0, 1.0]))
        out = sticky_simulate(system, t=1.0)
        assert out.positions.tolist() == [0.0]
        assert out.velocities.tolist() == [0.0]
        assert out.masses.tolist() == [3.0]

    def test_equal_velocities_translate(self):
        system = ParticleSystem(np.array([0.0, 1.0, 3.0]),
                                np.array([0.5, 0.5, 0.5]),
                                np.array([1.0, 2.0, 3.0]))
        out = sticky_simulate(system, t=2.0)
        np.testing.assert_allclose(out.positions, [1.0, 2.0, 4.0])
        assert out.masses.tolist() == [1.0, 2.0, 3.0]

    def test_conservation_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = 40
            system = ParticleSystem(np.sort(rng.uniform(-1, 1, n) * 3),
                                    rng.standard_normal(n),
                                    rng.uniform(0.5, 2.0, n))
            out = sticky_simulate(system, t=2.0)
            assert np.sum(out.masses) == pytest.approx(np.sum(system.masses),
                                                       rel=1e-14)
            assert np.sum(out.masses * out.velocities) == pytest.approx(
                np.sum(system.masses * system.velocities), rel=1e-12,
                abs=1e-12)
            assert np.all(np.diff(out.positions) > 0)

    def test_zero_time_noop(self):
        system = ParticleSystem(np.array([0.0, 1.0]), np.array([5.0, -5.0]),
                                np.array([1.0, 1.0]))
        out = sticky_simulate(system, t=0.0)
        np.testing.assert_array_equal(out.positions, system.positions)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_matches_minorant_clusters(self, h):
        n = 64
        for rep in range(6):
            grid = SampleGrid.anchored(2.0 / n, n // 2, n // 2)
            u0 = sample_fbm_fast(h, grid, RandomnessSpec(900 + rep))
            sol = solve(u0, t=1.0)
            sticky = sticky_shock_clusters(u0, t=1.0)
            ok = clusters_match(sol.shock_clusters, sticky, tol_cells=1)
            print(f"  H={h} rep={rep}: minorant {sol.shock_clusters} "
                  f"sticky {sticky}")
            assert ok

    def test_grid_point_particles_also_close(self):
        # grid-point particles track the same shocks but can drift a few
        # cells at marginal contacts; check gross structure only
        n = 64
        grid = SampleGrid.anchored(2.0 / n, n // 2, n // 2)
        u0 = sample_fbm_fast(0.5, grid, RandomnessSpec(900))
        sol = solve(u0, t=1.0)
        sticky = merged_intervals(sticky_simulate(particles_from_path(u0), 1.0))
        assert clusters_match(sol.shock_clusters, sticky, tol_cells=4) or \
            abs(len(sticky) - len(sol.shock_clusters)) <= 1


class TestHolderCheck:
    def test_rest_fluid_constant(self):
        grid = SampleGrid.anchored(0.02, 50, 50)
        sol = solve(zero_velocity(grid), t=1.0)
        k = holder_check(sol, gamma=0.4, window=(-0.5, 0.5))
        # C' ~ x so the ratio is |dx|^(1-gamma) <= window length^0.6 <= 1
        assert 0 < k <= 1.0 + 1e-12

    def test_single_contact_returns_zero(self):
        grid = SampleGrid.anchored(0.05, 20, 20)
        sol = solve(zero_velocity(grid), t=1.0)
        assert holder_check(sol, 0.4, window=(0.01, 0.04)) == 0.0

    def test_gamma_validation(self):
        grid = SampleGrid.anchored(0.05, 20, 20)
        sol = solve(zero_velocity(grid), t=1.0)  # hurst 0.5
        with pytest.raises(ValueError):
            holder_check(sol, 0.6, window=(-1, 1))

    def test_refinement_stability(self):
        # K_gamma estimates stay within a factor of 2 as the grid refines
        h, gamma = 0.5, 0.4
        ks = []
        for n_half in (2 ** 10, 2 ** 11, 2 ** 12):
            grid = SampleGrid.anchored(1.0 / n_half, n_half, n_half)
            u0 = sample_fbm_fast(h, grid, RandomnessSpec(424242))
            sol = solve(u0, t=1.0)
            ks.append(holder_check(sol, gamma, window=(-0.5, 0.5)))
        print(f"  K_gamma over refinements: {ks}")
        assert max(ks) <= 2.0 * min(ks)
