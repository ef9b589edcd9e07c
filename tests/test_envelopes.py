"""Envelope node extraction against a definition-chasing oracle, slope
functionals and the telescoping identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgerslab import envelopes
from burgerslab.burgers import build_potential
from burgerslab.envelopes import (
    all_slope_pairs_batch,
    functional_F,
    lower_envelope,
    slope_functional_batch,
)
from burgerslab.fbm import (integrate_values, sample_fbm_fast,
                            sample_fbm_fast_batch)
from burgerslab.grids import RandomnessSpec, SampleGrid
from oracles import (all_slope_pairs, chain_hull_nodes, cube_slope_pairs,
                     functional_F_endpoint)


def oracle_nodes(y, lower):
    """O(n^2)-ish definition chase: interior k is a node iff every chord
    i < k < j passes strictly on the non-data side of (k, y[k])."""
    y = np.asarray(y, dtype=float)
    n = y.size
    tol = 1e-9 * max(1.0, np.abs(y).max())
    nodes = [0]
    for k in range(1, n - 1):
        best = None
        for i in range(0, k):
            for j in range(k + 1, n):
                chord = y[i] + (y[j] - y[i]) * (k - i) / (j - i)
                if best is None:
                    best = chord
                elif lower:
                    best = min(best, chord)
                else:
                    best = max(best, chord)
        if lower and best > y[k] + tol:
            nodes.append(k)
        if not lower and best < y[k] - tol:
            nodes.append(k)
    nodes.append(n - 1)
    return np.array(nodes)


# values quantized to 3 decimals: exact ties stay exact, everything else is
# separated from collinear by far more than the kernel tolerance
quantized_sequences = st.lists(
    st.integers(min_value=-100_000, max_value=100_000).map(lambda v: v / 1000.0),
    min_size=4, max_size=24,
)


class TestEnvelopeNodes:
    def test_peak_is_majorant_node(self):
        # the majorant of y is the minorant of -y, negated
        env = lower_envelope(-np.array([0.0, 1.0, 0.0]))
        assert env.node_indices.tolist() == [0, 1, 2]
        assert env.segment_slopes.tolist() == [-1.0, 1.0]

    def test_collinear_interior_dropped(self):
        env = lower_envelope([0.0, 1.0, 2.0])
        assert env.node_indices.tolist() == [0, 2]
        assert env.segment_slopes.tolist() == [1.0]

    def test_valley_minorant(self):
        assert lower_envelope([0.0, 1.0, 0.0]).node_indices.tolist() == [0, 2]
        assert lower_envelope([0.0, -1.0, 0.0]).node_indices.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("lower", [True, False])
    def test_random_sequences_match_oracle(self, lower):
        rng = np.random.default_rng(42)
        sign = 1.0 if lower else -1.0
        for _ in range(200):
            y = rng.standard_normal(16)
            env = lower_envelope(sign * y)
            assert np.array_equal(env.node_indices, oracle_nodes(y, lower))

    @settings(max_examples=150, deadline=None)
    @given(quantized_sequences)
    def test_hypothesis_matches_oracle(self, y):
        y = np.array(y)
        env = lower_envelope(y)
        assert np.array_equal(env.node_indices, oracle_nodes(y, True))
        env = lower_envelope(-y)
        assert np.array_equal(env.node_indices, oracle_nodes(y, False))

    def test_envelope_invariants_random(self):
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.standard_normal(257))
        scale = np.abs(y).max()
        for v in (y, -y):
            lo = lower_envelope(v)
            assert np.all(np.diff(lo.segment_slopes) > 0)
            assert np.all(lo.evaluate() <= v + 1e-12 * scale)
            assert np.array_equal(lo.evaluate(lo.node_indices),
                                  v[lo.node_indices])


# Sequences full of exact and rounding-level ties: every pop test on them is
# either far from the 1e-12 tolerance or deep inside it.
quantised = st.lists(st.integers(-8, 8).map(lambda v: v / 4.0),
                     min_size=3, max_size=300)
integer_walks = st.lists(st.integers(-1, 1), min_size=3, max_size=300).map(
    lambda steps: np.cumsum(steps).astype(float))


@st.composite
def linear_runs_with_bumps(draw):
    """An exactly representable line with sparse +-1 bumps."""
    bumps = draw(st.lists(st.sampled_from([0] * 18 + [1, -1]),
                          min_size=3, max_size=300))
    slope = draw(st.integers(-16, 16)) / 8.0
    offset = draw(st.integers(-5, 5))
    return slope * np.arange(len(bumps)) + offset + np.array(bumps)


@st.composite
def rounded_parabolas(draw):
    """c (k - k0)^2 rounded to 0-3 decimals, either sign."""
    n = draw(st.integers(3, 300))
    c = draw(st.integers(1, 9)) / 7.0
    k0 = draw(st.integers(0, n - 1))
    y = np.round(c * (np.arange(n) - k0) ** 2, draw(st.integers(0, 3)))
    return draw(st.sampled_from([1.0, -1.0])) * y


@st.composite
def zippers(draw):
    """Convex arcs, each ending in a dip far below it, joined end to end,
    then mirrored (reversed) and negated at random: zippers for both hulls,
    with the dip on either side of its arc.  Every value is exact."""
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(3, 60))
        k = np.arange(n) - n / 2
        arc = (draw(st.integers(1, 8)) / 8.0 * k ** 2
               + draw(st.integers(-8, 8)) / 4.0 * k + draw(st.integers(-50, 50)))
        dip = arc.min() - draw(st.integers(1, 10_000))
        pieces.append(np.append(arc, dip))
    y = np.concatenate(pieces)
    if draw(st.booleans()):
        y = y[::-1]
    return draw(st.sampled_from([1.0, -1.0])) * y


def _fbm_potential(h, log2n, seed=1):
    n = 2 ** log2n
    grid = SampleGrid.anchored(2.0 / n, n // 2, n // 2)
    u0 = sample_fbm_fast(h, grid, RandomnessSpec(seed, 0))
    return build_potential(u0).values


class TestHullKernelMatchesChain:
    """The numpy kernel returns the plain monotone chain's nodes."""

    @staticmethod
    def assert_same_nodes(y):
        # the minorant of -y against the chain's majorant of y
        y = np.asarray(y, dtype=float)
        for sign, lower in ((1.0, True), (-1.0, False)):
            env = lower_envelope(sign * y)
            assert np.array_equal(env.node_indices, chain_hull_nodes(y, lower))

    @pytest.fixture
    def chain_calls(self, monkeypatch):
        """(points in, nodes out) of every call to the kernel's chain stage."""
        calls = []
        chain = envelopes._chain

        def spy(xs, ys):
            nodes = chain(xs, ys)
            calls.append((len(xs), nodes.size))
            return nodes

        monkeypatch.setattr(envelopes, "_chain", spy)
        return calls

    @pytest.mark.parametrize("log2n", [12, 16])
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_fbm_potentials(self, h, log2n, chain_calls):
        self.assert_same_nodes(_fbm_potential(h, log2n))
        # both sides reach the fixed point of the pop test in numpy
        assert chain_calls == []

    @pytest.mark.parametrize("cap", [0, 1])
    def test_round_cap_falls_back_to_chain(self, cap, chain_calls, monkeypatch):
        monkeypatch.setattr(envelopes, "_ROUND_CAP", cap)
        self.assert_same_nodes(_fbm_potential(0.7, 16))
        # one chain call per side, and the chain still had points to pop
        assert len(chain_calls) == 2
        assert any(points > nodes for points, nodes in chain_calls)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(quantised, integer_walks, linear_runs_with_bumps(),
                     rounded_parabolas()))
    def test_tie_heavy_sequences(self, y):
        self.assert_same_nodes(y)

    @settings(max_examples=200, deadline=None)
    @given(zippers())
    def test_zippers(self, y):
        self.assert_same_nodes(y)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_strictly_convex_and_concave(self, sign, chain_calls):
        # the grid chords drop every interior point on one side, and the
        # first pop test drops none on the other
        y = sign * (np.arange(101) - 37.5) ** 2
        self.assert_same_nodes(y)
        assert chain_calls == []

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3, 3), st.floats(-100, 100),
           st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12,
                                     3e-12, -3e-12]), min_size=3,
                    max_size=200))
    def test_near_tolerance_envelopes_agree(self, a, b, bumps):
        # A line with bumps at the scale of the collinearity tolerance.  Here
        # a pop decision can flip with the point left below on the chain's
        # stack, and the prefilter changes which points those are, so the
        # node sets may differ; the envelopes agree to the tolerance scale.
        x = np.arange(len(bumps))
        y = a * x + b
        y = y + np.array(bumps) * max(np.abs(y).max(), 1.0)
        scale = max(np.abs(y).max(), 1.0)
        for sign, lower in ((1.0, True), (-1.0, False)):
            env = lower_envelope(sign * y)
            ref = chain_hull_nodes(y, lower)
            gap = np.abs(sign * env.evaluate()
                         - np.interp(x, ref, y[ref])).max()
            assert gap <= 1e-11 * scale


class TestSlopePairs:
    def test_peak_values(self):
        gm, gp = all_slope_pairs([0.0, 1.0, 0.0])
        assert (gm[1], gp[1]) == (1.0, -1.0)

    def test_convex_point_not_nodal(self):
        gm, gp = all_slope_pairs([0.0, 0.0, 1.0])
        assert (gm[1], gp[1]) == (0.0, 1.0)
        assert gm[1] < gp[1]

    def test_linear_sequence_common_slope(self):
        gm, gp = all_slope_pairs(0.7 * np.arange(9) - 2.0)
        np.testing.assert_allclose(gm[1:], 0.7, rtol=1e-12)
        np.testing.assert_allclose(gp[:-1], 0.7, rtol=1e-12)

    def test_windowed_coincides_at_center(self):
        # the kernel on the window k-n..k+n of a longer sequence gives, at
        # the window's centre, the extremal quotients over p in 1..n alone
        rng = np.random.default_rng(5)
        y = np.cumsum(rng.standard_normal(41))
        k, n = 20, 8
        gm, gp = all_slope_pairs(y[k - n:k + n + 1])
        p = np.arange(1, n + 1)
        assert gm[n] == ((y[k] - y[k - p]) / p).min()
        assert gp[n] == ((y[k + p] - y[k]) / p).max()

    def test_windowed_widening_direction(self):
        # left(k) >= windowed-left(k), right(k) <= windowed-right(k)
        rng = np.random.default_rng(6)
        n = 16
        for _ in range(100):
            ext = np.cumsum(rng.standard_normal(3 * n + 1))  # I on [-n, 2n]
            gm, gp = all_slope_pairs(ext[n:2 * n + 1])
            for k in (1, n // 2, n - 1):
                wide_gm, wide_gp = all_slope_pairs(ext[k:k + 2 * n + 1])
                assert gm[k] >= wide_gm[n]
                assert gp[k] <= wide_gp[n]

    def test_symmetric_sequence_antisymmetry(self):
        rng = np.random.default_rng(7)
        half = rng.standard_normal(6)
        y = np.concatenate([half[::-1], [0.3], half])  # y[c-p] == y[c+p]
        gm, gp = all_slope_pairs(y)
        assert gm[6] == -gp[6]

    def test_all_slope_pairs_match_pointwise(self):
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.standard_normal(33))
        gm, gp = all_slope_pairs(y)
        assert math.isnan(gm[0]) and math.isnan(gp[-1])
        for k in range(1, 33):
            p = np.arange(1, k + 1)
            assert gm[k] == ((y[k] - y[k - p]) / p).min()
        for k in range(32):
            p = np.arange(1, 33 - k)
            assert gp[k] == ((y[k + p] - y[k]) / p).max()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        rows = np.cumsum(rng.standard_normal((5, 20)), axis=1)
        gmb, gpb = all_slope_pairs_batch(rows)
        for r in range(5):
            gm, gp = all_slope_pairs(rows[r])
            np.testing.assert_array_equal(gmb[r][1:], gm[1:])
            np.testing.assert_array_equal(gpb[r][:-1], gp[:-1])


class TestLagKernelMatchesCube:
    """The one-lag-at-a-time slope kernel returns exactly the slopes of the
    whole quotient cube, NaN positions included."""

    @staticmethod
    def assert_same_slopes(rows):
        for got, want in zip(all_slope_pairs_batch(rows), cube_slope_pairs(rows)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_fbm_integrals(self, h, n):
        grid = SampleGrid.one_sided(1.0, n)
        w = sample_fbm_fast_batch(h, grid, 31, range(40))
        self.assert_same_slopes(integrate_values(w, 1.0, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(st.integers(-8, 8).map(lambda v: v / 4.0),
                              min_size=2, max_size=300),
                     integer_walks, linear_runs_with_bumps(),
                     rounded_parabolas()))
    def test_tie_heavy_sequences(self, y):
        y = np.asarray(y, dtype=float)
        self.assert_same_slopes(np.stack([y, y[::-1], 0.5 - y]))

    def test_slope_functional_fields(self):
        rng = np.random.default_rng(12)
        rows = np.cumsum(np.cumsum(rng.standard_normal((6, 33)), axis=1), axis=1)
        sf = slope_functional_batch(rows)
        gm, gp = cube_slope_pairs(rows)
        for r in range(len(rows)):
            terms = np.clip(gm[r, 1:-1] - gp[r, 1:-1], 0.0, None)
            endpoint = gp[r, 0] - gm[r, -1]
            assert np.array_equal(sf.terms[r], terms)
            assert sf.f[r] == terms.sum()
            assert sf.right0[r] == gp[r, 0]
            assert sf.endpoint[r] == endpoint
            assert sf.rel_err[r] == abs(sf.f[r] - endpoint) / max(
                abs(sf.f[r]), abs(endpoint), 1e-30)


class TestFunctionalF:
    def test_peak(self):
        assert functional_F([0.0, 1.0, 0.0]) == 2.0

    def test_convex_sequence_is_zero(self):
        y = (np.arange(12) - 5.0) ** 2
        assert functional_F(y) == 0.0

    def test_telescoping_identity_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            y = np.cumsum(np.cumsum(rng.standard_normal(65)))
            f = functional_F(y)
            endpoint = functional_F_endpoint(y)
            scale = max(abs(f), abs(endpoint), 1e-30)
            assert abs(f - endpoint) <= 1e-9 * scale

    @settings(max_examples=100, deadline=None)
    @given(quantized_sequences)
    def test_telescoping_identity_hypothesis(self, y):
        f = functional_F(y)
        endpoint = functional_F_endpoint(y)
        scale = max(abs(f), abs(endpoint), 1.0)
        assert abs(f - endpoint) <= 1e-9 * scale


class TestNodalEvent:
    """k is a node of the majorant, the minorant of -y, exactly when
    left(k) >= right(k)."""

    def test_peak_and_convex(self):
        gm, gp = all_slope_pairs([0.0, 1.0, 0.0])
        assert gm[1] >= gp[1]
        gm, gp = all_slope_pairs([0.0, 0.0, 1.0])
        assert gm[1] < gp[1]

    def test_matches_majorant_nodes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = np.cumsum(rng.standard_normal(32))
            nodes = set(lower_envelope(-y).node_indices.tolist())
            gm, gp = all_slope_pairs(y)
            for k in range(1, 31):
                assert (gm[k] >= gp[k]) == (k in nodes), f"k={k}"
