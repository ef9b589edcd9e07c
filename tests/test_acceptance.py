"""Acceptance suite: every criterion at its pinned desk scale and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The same checks back ``burgerslab check``.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from burgerslab import acceptance
from burgerslab.acceptance import CHECKS, H_TRIPLE, _ks_statistic, \
    _puncture_ordering, run_checks
from burgerslab.persistence import BarrierEvent, _event_cell, replica_stats
from oracles import assert_check_rows, check_rows

CRITERIA = [
    (1, "sampler-covariance",
     "exact-sampler covariance within 4 SE entrywise, H in {0.3,0.5,0.7}"),
    (2, "sampler-equivalence",
     "exact vs fast path-max KS below the 1% critical value"),
    (3, "telescoping",
     "slope functional equals its endpoint form to 1e-9 relative"),
    (4, "expectation-identity",
     "mean functional equals twice the mean extremal slope within 4 SE"),
    (5, "inequality-chain",
     "relations (10), (11), (14)-(17) at 4 sigma; max-mean cross-check"),
    (6, "burgers-oracle",
     "sticky clusters match minorant shock clusters within one cell"),
    (7, "dimension",
     "contact-set box dimension within 0.1 of H at N=2^16"),
    (8, "max-exponent",
     "stay-below exponent of the motion within 0.07 of 1-H"),
    (9, "integral-exponent",
     "integrated-motion one-sided exponent within 0.08 of 1/4"),
    (10, "two-sided-bound",
     "two-sided exponent at least (1-H)-0.15; puncture ordering holds"),
    (11, "rkhs",
     "reproducing to 1e-8, composition to 1e-5, shift bound on 5 configs"),
    (12, "determinism",
     "every experiment re-runs bit-identically from its manifest"),
]


def test_registry_covers_all_criteria():
    assert [name for _, name, _ in CRITERIA] == list(CHECKS)


@pytest.mark.parametrize("number,name,blurb", CRITERIA,
                         ids=[f"{n:02d}-{name}" for n, name, _ in CRITERIA])
def test_criterion(number, name, blurb):
    result = run_checks([name])[0]
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:2d} {verdict} [{name}] {blurb} "
          f"({result.runtime_s:.1f}s)")
    assert result.passed, json.dumps(result.details, indent=2, default=str)


class TestPunctureOrdering:
    """Criterion 10's ordering check runs where its two events differ, so
    it can fail."""

    @pytest.mark.parametrize("h", H_TRIPLE)
    def test_events_differ_on_some_replica(self, h):
        # criterion 10's configuration: level 0, T = 128, spacing 0.25
        [(two,), (punctured,)] = replica_stats(
            [_event_cell(BarrierEvent(process, 0.0, 128.0), h, [0.25])
             for process in ("ifbm_two_sided", "ifbm_punctured")], 1002, 1000)
        assert np.all(two <= punctured)
        assert np.any(two != punctured)

    def test_swapped_pair_fails(self, monkeypatch):
        # the pair is ordered as criterion 10 runs it ...
        assert all(p1 <= p2 for p1, p2 in _puncture_ordering(1000))
        # ... and swapped, its ordering rows fail, and with them the criterion
        swapped = ("ifbm_punctured", "ifbm_two_sided")
        monkeypatch.setattr(acceptance, "_puncture_ordering",
                            lambda replicas: _puncture_ordering(replicas,
                                                                swapped))
        result = run_checks(["two-sided-bound"],
                            {"two-sided.replicas": "1000"})[0]
        assert [row["pass"] for row in result.details["rows"]
                if row["name"].startswith("puncture ordering")] == [False] * 3
        assert result.passed is False


class TestKsStatistic:
    """Criterion 02's statistic equals scipy's ``ks_2samp`` in its exact
    mode, which it takes for samples of up to 10 000."""

    def test_criterion_02_samples(self, monkeypatch):
        equal = []

        def with_oracle(a, b):
            equal.append(_ks_statistic(a, b) == ks_2samp(a, b).statistic)
            return _ks_statistic(a, b)

        monkeypatch.setattr(acceptance, "_ks_statistic", with_oracle)
        result = run_checks(["sampler-equivalence"])[0]
        assert equal == [True] * 3
        # the statistics of the scipy implementation
        assert [(row["name"], row["got"]) for row in result.details["rows"]] \
            == [("ks h=0.3", 0.0106), ("ks h=0.5", 0.0125),
                ("ks h=0.7", 0.0118)]
        assert result.details["critical_1pct"] == 0.023018074130013652

    def test_statistic_at_critical_value_fails(self, monkeypatch):
        # the 1% rule is strict: KS < crit passes, KS == crit does not
        overrides = {"sampler-eq.replicas": "100", "sampler-eq.points": "8"}
        crit = run_checks(["sampler-equivalence"],
                          overrides)[0].details["critical_1pct"]
        for got, passed in ((crit, False), (math.nextafter(crit, 0.0), True)):
            monkeypatch.setattr(acceptance, "_ks_statistic", lambda a, b: got)
            result = run_checks(["sampler-equivalence"], overrides)[0]
            assert [row["pass"] for row in result.details["rows"]] \
                == [passed] * 3
            assert result.passed is passed

    @pytest.mark.parametrize("n1, n2", [(6, 6), (7, 13), (100, 250),
                                        (999, 1000), (3000, 10_000),
                                        (10_000, 10_000)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_random_samples(self, n1, n2, ties):
        rng = np.random.default_rng(n1 * n2 + ties)
        for shift in (0.0, 0.05, 0.5):
            a = rng.standard_normal(n1)
            b = rng.standard_normal(n2) + shift
            if ties:
                a, b = np.round(a, 1), np.round(b, 1)
            assert _ks_statistic(a, b) == ks_2samp(a, b).statistic
            assert _ks_statistic(b, a) == ks_2samp(b, a).statistic


# each criterion's count of check rows
ROWS = {"sampler-covariance": 1, "sampler-equivalence": 3, "telescoping": 1,
        "expectation-identity": 1, "inequality-chain": 25,
        "burgers-oracle": 1, "dimension": 3, "max-exponent": 3,
        "integral-exponent": 1, "two-sided-bound": 6, "rkhs": 7,
        "determinism": 1}
# the rows with no SE, by name: exact arithmetic, counts and the KS rule;
# every other row has a positive SE
NO_SE = {"sampler-equivalence": [f"ks h={h:g}" for h in H_TRIPLE],
         "telescoping": ["telescoping"],
         "inequality-chain": [f"{rel} h={h:g}" for h in H_TRIPLE
                              for rel in ("telescoping", "eq16",
                                          "eq16 pathwise")],
         "burgers-oracle": ["cluster mismatches"],
         "two-sided-bound": [f"puncture ordering h={h:g}" for h in H_TRIPLE],
         "rkhs": ["reproducing rel err", "composition abs err"],
         "determinism": ["rerun mismatches"]}


@pytest.mark.parametrize("name, overrides", [
    ("dimension", {"dim.replicas": "4", "dim.grid-log2": "13",
                   "dim.slope-tol": "0.3"}),
    ("max-exponent", {"max-exp.replicas": "1000"}),
    ("integral-exponent", {"int-exp.replicas": "1000"}),
    ("two-sided-bound", {"two-sided.replicas": "1000"}),
    ("expectation-identity", {}),
    ("sampler-covariance", {"sampler-cov.replicas": "1000"}),
    ("inequality-chain", {"chain.replicas": "1000", "chain.n": "16"}),
    ("rkhs", {"rkhs.replicas": "100000"}),
    ("sampler-equivalence", {"sampler-eq.replicas": "100"}),
    ("telescoping", {"telescoping.sequences": "20"}),
    ("burgers-oracle", {"burgers.paths": "2"}),
    ("determinism", {})])
def test_margins_in_se(name, overrides):
    """Every criterion's verdict is its rows: each is built by one rule
    (``oracles.assert_check_rows``), and the criterion passes exactly when
    all of them do."""
    result = run_checks([name], overrides)[0]
    rows = result.details["rows"]
    assert len(rows) == ROWS[name]
    assert check_rows(result.details) == rows
    no_se = NO_SE.get(name, [])
    assert [row["name"] for row in rows if row["se"] is None] == no_se
    assert all(row["se"] > 0 for row in rows if row["name"] not in no_se)
    assert_check_rows(rows)
    assert result.passed == all(row["pass"] for row in rows)
