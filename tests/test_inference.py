import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtt import inference
from rtt.errors import (
    ConfigurationError,
    DegenerateSample,
    InvalidArgument,
    SampleTooSmall,
)
from rtt.fa import DEFAULT_NODES, LogFaMemo, log_f_a_single
from rtt.inference import (
    CI_GRID_POINTS,
    PValueResult,
    TableSet,
    _nested,
    _rows,
    confidence_interval,
    decide,
    p_value,
    summarize,
    to_ystar,
)
from rtt.populations import make_population, population_names
from rtt.table import TestTable, read_table

ROOT = Path(__file__).resolve().parents[1]
DESK = ROOT / "tables" / "desk_k4_a05.rtt"
SMOKE = [ROOT / "perfbench" / "data" / f"smoke_k4_a{a}.rtt" for a in ("10", "20")]


def gate_only_table(alpha=0.05, k=4, lam=1e-250):
    """Near-zero atom weights: conditions 2-4 hold almost surely, so the
    decision is the condition-1 gate at this level."""
    return TestTable(
        k=k, n0=50, alpha=alpha, rho1=0.1, rho_r=0.1,
        single_atoms=((lam, 3.0, 0.05, 0.0),),
        full_atoms=((lam, 3.0, 0.05, 0.0, 3.0, 0.05, 0.0),),
        xi_grid=tuple(np.linspace(-0.5, 0.5, 5)),
    )


TBL = gate_only_table()


def sequential_ci(w, level, source):
    """``confidence_interval`` refined one point per decision call: the
    reference the batched refinement must reproduce bit for bit."""
    tset = source if isinstance(source, TableSet) else TableSet([source])
    at = tset.table_at(1.0 - level)
    tables = [t for t in tset.tables if t.alpha >= at.alpha]
    s = summarize(w, at.k)
    center = float(w.mean())
    span = inference.CI_SPAN_RANGES * float(np.ptp(w)) / math.sqrt(w.size)
    for widen in (1.0, 4.0):
        grid = np.linspace(center - widen * span, center + widen * span, CI_GRID_POINTS)
        accept = np.flatnonzero(~_nested(*_rows(s, grid), tables, LogFaMemo(at.xi_grid)))
        if accept.size:
            break

    def refine(a_rej, b_acc):
        for _ in range(inference._BISECT_ITER):
            mid = 0.5 * (a_rej + b_acc)
            if mid == a_rej or mid == b_acc:
                break
            if _nested(*_rows(s, [mid]), tables, LogFaMemo(at.xi_grid))[0]:
                a_rej = mid
            else:
                b_acc = mid
        return b_acc

    lo_idx, hi_idx = accept[0], accept[-1]
    lo = grid[lo_idx] if lo_idx == 0 else refine(grid[lo_idx - 1], grid[lo_idx])
    hi = grid[hi_idx] if hi_idx == grid.size - 1 else refine(grid[hi_idx + 1], grid[hi_idx])
    return float(lo), float(hi)


class TestSummarize:
    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSample):
            summarize(np.ones(60), 4)

    def test_too_small_sample(self):
        with pytest.raises(SampleTooSmall):
            summarize(np.arange(9.0), 4)

    def test_blocks_are_ordered(self):
        rng = np.random.default_rng(0)
        s = summarize(rng.normal(size=50), 8)
        assert np.all(np.diff(s.w_right) <= 0)
        assert np.all(np.diff(s.w_left_neg) <= 0)
        assert s.n == 50 and s.k == 8

    def test_shift_applied_before_summary(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=40)
        a = summarize(w, 4, mu0=0.7)
        b = summarize(w - 0.7, 4, mu0=0.0)
        assert_allclose(a.w_right, b.w_right)
        assert_allclose(a.middle_sum, b.middle_sum)
        assert_allclose(a.s2, b.s2)

    def test_variance_divisor(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=30)
        s = summarize(w, 4)
        mid = np.sort(w)[4:-4]
        assert_allclose(s.s2, ((mid - mid.mean()) ** 2).sum() / (mid.size - 1), rtol=1e-12)

    def test_scale_invariance_of_ystar(self):
        rng = np.random.default_rng(3)
        w = rng.standard_t(3, size=60)
        base = to_ystar(summarize(w, 8))
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = to_ystar(summarize(c * w, 8))
            assert_allclose(scaled.y_right, base.y_right, rtol=1e-9)
            assert_allclose(scaled.y_left, base.y_left, rtol=1e-9)
            assert_allclose(scaled.y0, base.y0, rtol=1e-9)

    def test_to_ystar_is_the_rows_at_zero(self):
        # the benchmark's recorded rows come from to_ystar: they must stay the
        # plain scaled blocks, and equal _rows' row at 0 of any grid; a single
        # mean's row equals its row of a grid at every other mean too
        rng = np.random.default_rng(21)
        for _ in range(5):
            s = summarize(rng.standard_t(3, size=50) + rng.normal(), 4)
            y = to_ystar(s)
            d = s.denom
            means = np.array([-0.3, 0.0, 1e-3, 0.7])
            yr, yl, y0 = _rows(s, means)
            for got, want in ((y.y_right, s.w_right / d), (y.y_left, s.w_left_neg / d), (y.y0, s.middle_sum / d)):
                assert np.array_equal(got, want)
            assert np.array_equal(yr[1], y.y_right) and np.array_equal(yl[1], y.y_left) and y0[1] == y.y0
            for i, m in enumerate(means):
                one = _rows(s, float(m))
                assert np.array_equal(one[0], yr[i]) and np.array_equal(one[1], yl[i]) and one[2] == y0[i]

    def test_sign_flip_swaps_blocks(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=50)
        a = to_ystar(summarize(w, 8))
        b = to_ystar(summarize(-w, 8))
        assert_allclose(b.y_right, a.y_left)
        assert_allclose(b.y_left, a.y_right)
        assert_allclose(b.y0, -a.y0)


class TestDecide:
    def test_extreme_hypothesis_rejected(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=50)
        mu0 = w.max() + 10.0 * np.ptp(w)
        assert decide(w, mu0, TBL).reject

    def test_gate_blocks_small_t(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=50)
        dec = decide(w, float(w.mean()), TBL)
        assert not dec.reject
        assert abs(dec.t_statistic) < dec.critical_value

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        w = rng.standard_t(3, size=60)
        base = decide(w, 0.0, TBL).reject
        for c in (1e-6, 0.01, 100.0, 1e6):
            assert decide(c * w, 0.0, TBL).reject == base

    def test_small_sample_warns(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=20)
        with pytest.warns(UserWarning, match="design horizon"):
            dec = decide(w, 0.0, TBL)
        assert dec.notes

    def test_gate_evaluated_once(self, monkeypatch):
        # one gate evaluation gives the Decision's t and cv and condition 1;
        # only a row that passes it reaches conditions 2 to 4
        import rtt.solver as solver_mod

        calls = {"gate": 0, "lr": 0}
        gate, lr = solver_mod._gate_of_sums, solver_mod.TestEvaluator._lr_conditions

        def gate_spy(*args):
            calls["gate"] += 1
            return gate(*args)

        def lr_spy(self, *args):
            calls["lr"] += 1
            return lr(self, *args)

        monkeypatch.setattr(solver_mod, "_gate_of_sums", gate_spy)
        monkeypatch.setattr(solver_mod.TestEvaluator, "_lr_conditions", lr_spy)
        w = np.random.default_rng(5).normal(size=50)
        for mu0, passes in ((float(w.max() + 10.0 * np.ptp(w)), True), (float(w.mean()), False)):
            calls.update(gate=0, lr=0)
            dec = decide(w, mu0, TBL)
            assert (abs(dec.t_statistic) > dec.critical_value) == passes == dec.reject
            assert calls == {"gate": 1, "lr": int(passes)}


class TestNonFiniteMean:
    """A mean whose standardized row is not finite is an error on every
    single-mean query, not a silent accept."""

    @pytest.mark.parametrize(
        "mu0", [math.nan, math.inf, -math.inf, 1e308, pytest.param(np.float32("nan"), id="float32_nan")]
    )
    def test_every_single_mean_query_raises(self, mu0):
        w = np.random.default_rng(5).normal(size=50)
        tables = TableSet([gate_only_table(a) for a in (0.05, 0.2)])
        queries = (
            lambda: decide(w, mu0, TBL),
            lambda: p_value(w, mu0, tables),
            lambda: tables.raw_decisions(w, mu0),
            lambda: tables.nested_reject(w, mu0, 0.05),
        )
        for query in queries:
            with pytest.raises(InvalidArgument, match=re.escape(f"hypothesized mean {mu0!r}")):
                query()

    def test_zero_d_array_mean_is_one_mean(self):
        # a 0-d array is checked like the number it holds, and otherwise
        # decides exactly as that number does
        w = np.random.default_rng(5).normal(size=50)
        tables = TableSet([gate_only_table(a) for a in (0.05, 0.2)])
        for query in (lambda m: decide(w, m, TBL), lambda m: p_value(w, m, tables)):
            with pytest.raises(InvalidArgument, match="hypothesized mean nan"):
                query(np.array(np.nan))
        for mu0 in (float(w.mean()), float(w.max() + 10.0 * np.ptp(w))):
            assert decide(w, np.array(mu0), TBL) == decide(w, mu0, TBL)
            assert p_value(w, np.array(mu0), tables) == p_value(w, mu0, tables)

    @pytest.mark.parametrize("mu0", [math.nan, math.inf, -math.inf])
    def test_summarize_rejects_non_finite_mean(self, mu0):
        with pytest.raises(InvalidArgument, match=re.escape(f"hypothesized mean {mu0!r} is not finite")):
            summarize(np.random.default_rng(5).normal(size=50), 4, mu0)


class TestVarianceOverflow:
    """A sample whose variance overflows float64 is an error on every query,
    not a t statistic of 0."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    # at 2.59e153 the variance is finite but (n - 2k) s2 overflows
    @pytest.mark.parametrize("scale", [2.59e153, 1e154, 1e300])
    def test_every_query_raises(self, scale):
        w = np.random.default_rng(0).standard_normal(60) * scale
        desk = read_table(DESK)
        tables = TableSet([desk, *map(read_table, SMOKE)])
        queries = (
            lambda: summarize(w, 4),
            lambda: decide(w, 0.0, desk),
            lambda: p_value(w, 0.0, tables),
            lambda: confidence_interval(w, 0.95, desk),
            lambda: confidence_interval(w, 0.80, tables),
        )
        for query in queries:
            with pytest.raises(InvalidArgument, match="variance overflows"):
                query()

    def test_large_finite_variance_is_scale_invariant(self):
        w = np.random.default_rng(0).standard_normal(60)
        desk = read_table(DESK)
        t = decide(w, 0.0, desk).t_statistic
        assert t != 0.0
        assert_allclose(decide(w * 1e150, 0.0, desk).t_statistic, t, rtol=1e-12)


class TestPValue:
    def make_set(self):
        return TableSet([gate_only_table(a) for a in (0.01, 0.05, 0.2, 0.5)])

    def test_definition(self):
        rng = np.random.default_rng(9)
        tables = self.make_set()
        for _ in range(25):
            w = rng.standard_t(3, size=50)
            res = p_value(w, 0.0, tables)
            if not res.exceeds_max:
                # rejection at the reported level, none below
                assert tables.nested_reject(w, 0.0, res.value)
                below = [a for a in tables.alphas if a < res.value - 1e-12]
                for a in below:
                    assert not tables.nested_reject(w, 0.0, a)

    def test_coherent_with_decision(self):
        rng = np.random.default_rng(10)
        tables = self.make_set()
        for _ in range(25):
            w = rng.standard_t(3, size=50)
            if decide(w, 0.0, tables.table_at(0.05)).reject:
                res = p_value(w, 0.0, tables)
                if not res.exceeds_max:
                    assert res.value <= 0.05 + 1e-12

    def test_centered_sample_exceeds_max(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=200)
        res = p_value(w, float(w.mean()), self.make_set())
        assert res.exceeds_max
        assert str(res).startswith(">")
        assert float(res) == 0.5

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        tables = self.make_set()
        w = rng.standard_t(3, size=60) + 0.4
        a = p_value(w, 0.0, tables)
        b = p_value(1e4 * w, 0.0, tables)
        assert (a.value, a.exceeds_max) == (b.value, b.exceeds_max)

    def test_small_sample_warns_once(self):
        # rejected at every level, so both calls evaluate every table
        tables = self.make_set()
        w = np.random.default_rng(8).normal(size=20) + 3.0
        msg = "sample size 20 is below the table's design horizon n0=50"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert p_value(w, 0.0, tables) == PValueResult(0.01)
        assert [str(c.message) for c in caught] == [msg]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert tables.nested_reject(w, 0.0, 0.01)
        assert [str(c.message) for c in caught] == [msg]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert tables.raw_decisions(w, 0.0) == [True] * len(tables.tables)
        assert [str(c.message) for c in caught] == [msg]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lo, hi = confidence_interval(w, 0.95, tables)
        assert lo < hi and [str(c.message) for c in caught] == [msg]

    def test_level_tolerance_is_shared(self):
        # a level 5e-10 off a table's level selects that table everywhere:
        # in nested_reject, in table_at and (below) in confidence_interval
        tables = TableSet([gate_only_table(a) for a in (0.05, 0.1)])
        w = np.random.default_rng(18).standard_t(3, size=50)
        means = np.linspace(-2.0, 2.0, 400)
        want = [tables.nested_reject(w, float(m), 0.05) for m in means]
        assert 0 < sum(want) < means.size
        for alpha in (0.05 + 5e-10, 0.05 - 5e-10):
            assert [tables.nested_reject(w, float(m), alpha) for m in means] == want
            assert tables.table_at(alpha) is tables.tables[0]
        with pytest.raises(ConfigurationError):
            tables.table_at(0.05 + 2e-9)

    def test_set_validation(self):
        with pytest.raises(ConfigurationError):
            TableSet([])
        with pytest.raises(ConfigurationError):
            TableSet([gate_only_table(0.05, k=4), gate_only_table(0.1, k=6)])
        with pytest.raises(ConfigurationError):
            TableSet([gate_only_table(0.05), gate_only_table(0.05)])
        # one f_a memo serves a query over the set, so the tables share a grid
        other = replace(gate_only_table(0.1), xi_grid=tuple(np.linspace(-0.5, 0.5, 9)))
        with pytest.raises(ConfigurationError, match="shape grid"):
            TableSet([gate_only_table(0.05), other])


class TestConfidenceInterval:
    def test_contains_t_zero_region(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=50)
        lo, hi = confidence_interval(w, 0.95, TBL)
        # the value solving T = 0 is never rejected (condition-1 gate)
        s = summarize(w, TBL.k)
        d = s.denom
        num0 = s.middle_sum / d + s.w_right.sum() / d - s.w_left_neg.sum() / d
        slope = (s.n - 2 * TBL.k + 2 * TBL.k) / d  # every block shifts
        mu_t0 = num0 / slope
        assert lo <= mu_t0 <= hi

    def test_nesting_across_levels(self):
        tables = TableSet([gate_only_table(a) for a in (0.01, 0.05, 0.1)])
        rng = np.random.default_rng(14)
        for _ in range(5):
            w = rng.standard_t(3, size=50)
            l99, h99 = confidence_interval(w, 0.99, tables)
            l95, h95 = confidence_interval(w, 0.95, tables)
            l90, h90 = confidence_interval(w, 0.90, tables)
            assert l99 <= l95 <= l90 and h90 <= h95 <= h99

    def test_set_grid_is_nested_rule(self):
        tables = TableSet([gate_only_table(a) for a in (0.01, 0.05, 0.1)])
        rng = np.random.default_rng(17)
        w = rng.standard_t(3, size=50)
        grid = float(w.mean()) + np.linspace(-1.5, 1.5, 41)
        for alpha in tables.alphas:
            nested = [t for t in tables.tables if t.alpha >= alpha]
            want = [tables.nested_reject(w, float(m), alpha) for m in grid]
            memo = LogFaMemo(tables.tables[0].xi_grid)
            assert np.array_equal(_nested(*_rows(summarize(w, tables.k), grid), nested, memo), want)
            assert 0 < sum(want) < grid.size
            pvals = [p_value(w, float(m), tables) for m in grid]
            assert [not p.exceeds_max and p.value <= alpha for p in pvals] == want
        # the last level is the top table's, whose nested rule is its own test
        assert [decide(w, float(m), tables.tables[-1]).reject for m in grid] == want

    def test_scale_equivariance(self):
        rng = np.random.default_rng(15)
        w = rng.standard_t(3, size=60)
        lo, hi = confidence_interval(w, 0.95, TBL)
        for c in (0.25, 40.0):
            lo_c, hi_c = confidence_interval(c * w, 0.95, TBL)
            assert_allclose((lo_c, hi_c), (c * lo, c * hi), rtol=1e-7)

    def test_level_within_tolerance_nests_from_matched_table(self):
        # a level 5e-10 off a table's level picks that table, so the set
        # nests it with the higher levels and a lone table accepts it too
        tables = TableSet([gate_only_table(a) for a in (0.05, 0.1)])
        w = np.random.default_rng(18).standard_t(3, size=50)
        for source in (tables, tables.tables[0]):
            want = confidence_interval(w, 0.95, source)
            assert confidence_interval(w, 0.95 - 5e-10, source) == want
        assert want != confidence_interval(w, 0.90, tables)

    @pytest.mark.parametrize("bisect_iter", [1, 2, 5, 7, 80])
    def test_batched_refinement_equals_sequential_bisection(self, monkeypatch, bisect_iter):
        # caps that are not multiples of the tree depth end a round early
        monkeypatch.setattr(inference, "_BISECT_ITER", bisect_iter)
        gate_set = TableSet([gate_only_table(a) for a in (0.01, 0.05, 0.1)])
        rng = np.random.default_rng(20)
        for _ in range(4):
            w = rng.standard_t(3, size=50) + 0.3 * rng.normal()
            for level in (0.90, 0.95, 0.99):
                assert confidence_interval(w, level, gate_set) == sequential_ci(w, level, gate_set)
        if bisect_iter in (5, 80):
            desk = read_table(DESK)
            w = rng.standard_t(3, size=50)
            assert confidence_interval(w, 0.95, desk) == sequential_ci(w, 0.95, desk)

    def test_endpoint_on_grid_edge_is_not_refined(self, monkeypatch):
        # a grid narrower than the interval on its left: the lower end is the
        # grid's first point, with no bracket, and only the upper end bisects
        monkeypatch.setattr(inference, "CI_SPAN_RANGES", 0.375)
        w = np.random.default_rng(19).lognormal(size=50)
        lo, hi = confidence_interval(w, 0.95, TBL)
        assert lo == float(w.mean()) - 0.375 * float(np.ptp(w)) / math.sqrt(w.size)
        assert hi < float(w.mean()) + 0.375 * float(np.ptp(w)) / math.sqrt(w.size)
        assert (lo, hi) == sequential_ci(w, 0.95, TBL)

    def test_endpoints_decide_as_the_interval_does(self):
        # each endpoint is accepted by the test it inverts, and its outward
        # neighbouring double, the refined bracket's rejected end, is rejected
        desk = read_table(DESK)
        tset = TableSet([desk, *map(read_table, SMOKE)])
        rng = np.random.default_rng(0)
        names = population_names()
        for i in range(10):
            w = make_population(names[i % len(names)]).draw(rng, 50) + rng.normal(0.0, 0.35)
            span = inference.CI_SPAN_RANGES * float(np.ptp(w)) / math.sqrt(w.size)
            for level, source in ((0.95, desk), (0.80, tset)):
                lo, hi = confidence_interval(w, level, source)
                assert float(w.mean()) - span < lo < hi < float(w.mean()) + span  # both refined
                for end, outward in ((lo, -np.inf), (hi, np.inf)):
                    out = float(np.nextafter(end, outward))
                    if source is desk:
                        assert not decide(w, end, desk).reject
                        assert decide(w, out, desk).reject
                    else:
                        assert not tset.nested_reject(w, end, 0.20)
                        assert p_value(w, end, tset).exceeds_max
                        assert tset.nested_reject(w, out, 0.20)

    def test_level_must_match_table(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=50)
        with pytest.raises(ConfigurationError):
            confidence_interval(w, 0.9, TBL)


def quadrature_blocks(monkeypatch):
    """Spy on the f_a quadrature: the returned list gets, per quadrature
    block (one positive-shape ``_log_fa_shapes`` call), the bytes of the
    spacing rows it evaluates."""
    import rtt.fa as fa_mod

    real, blocks = fa_mod._log_fa_shapes, []

    def spy(dl, xi, *args):
        if xi[0] > 0.0:
            blocks.append([row.tobytes() for row in dl])
        return real(dl, xi, *args)

    monkeypatch.setattr(fa_mod, "_log_fa_shapes", spy)
    return blocks


class _PassThrough:
    """A memo that remembers nothing: the quadrature on every row it is given."""

    def __init__(self, xi_grid):
        self.xi_grid = tuple(xi_grid)

    def __call__(self, y):
        return log_f_a_single(y, self.xi_grid, DEFAULT_NODES)


class TestOneFaPassPerQuery:
    """A query hands its f_a memos to every decision it makes, and makes
    new ones each time it runs."""

    @staticmethod
    def _sources():
        desk = read_table(DESK)
        return desk, TableSet([desk, *map(read_table, SMOKE)])

    def test_p_value_scan_makes_one_quadrature_call(self, monkeypatch):
        desk, tset = self._sources()
        w = np.random.default_rng(3).standard_t(3, size=50)
        mu0 = float(w.mean()) - 5.0 * float(w.std()) / math.sqrt(w.size)
        # rejected at every level: the scan decides with all three tables
        assert tset.raw_decisions(w, mu0) == [True, True, True]
        blocks = quadrature_blocks(monkeypatch)
        assert p_value(w, mu0, tset) == PValueResult(0.05)
        assert len(blocks) == 1 and len(blocks[0]) == 2
        assert tset.raw_decisions(w, mu0) == [True, True, True]
        assert tset.nested_reject(w, mu0, 0.05)
        assert len(blocks) == 3

    def test_nothing_outlives_a_query(self, monkeypatch):
        desk, tset = self._sources()
        w = make_population("LogN").draw(np.random.default_rng(4), 50)
        mu0 = float(w.mean()) - 5.0 * float(w.std()) / math.sqrt(w.size)
        blocks = quadrature_blocks(monkeypatch)
        queries = [
            lambda: confidence_interval(w, 0.95, desk),
            lambda: confidence_interval(w, 0.80, tset),
            lambda: p_value(w, mu0, tset),
            lambda: tset.raw_decisions(w, mu0),
        ]
        for query in queries:
            counts = []
            for _ in range(2):
                before = len(blocks)
                query()
                counts.append(len(blocks) - before)
            assert counts[0] == counts[1] > 0

    def test_shared_memo_decides_as_fresh_ones(self):
        # a CI's grid rows, decided by every table of the set in parts that
        # share one memo, equal one memo-free call per table bit for bit
        desk, tset = self._sources()
        w = make_population("P(0.4)").draw(np.random.default_rng(8), 50)
        span = inference.CI_SPAN_RANGES * float(np.ptp(w)) / math.sqrt(w.size)
        grid = np.linspace(w.mean() - span, w.mean() + span, CI_GRID_POINTS)
        yr, yl, y0 = _rows(summarize(w, tset.k), grid)
        memo = LogFaMemo(desk.xi_grid)
        for t in tset.tables:
            ev = inference._evaluator(t)
            fresh = ev.decide_batch(yr, yl, y0)
            shared = [ev.decide_batch(yr[p], yl[p], y0[p], memo) for p in np.array_split(np.arange(grid.size), 5)]
            assert 0 < fresh.sum() < grid.size
            assert np.array_equal(np.concatenate(shared), fresh)

    def test_memo_on_another_grid_is_refused(self):
        desk, _ = self._sources()
        w = np.random.default_rng(3).standard_t(3, size=50)
        rows = _rows(summarize(w, desk.k), 0.0)
        with pytest.raises(ConfigurationError, match="shape grid"):
            inference._evaluator(desk).decide_batch(*rows, LogFaMemo(TBL.xi_grid))

    @pytest.mark.parametrize(
        "first, level, on_set", [(0, 0.95, False), (1, 0.80, True), (2, 0.95, True)],
        ids=["desk_095", "set_080", "set_095"],
    )
    def test_endpoints_and_p_values_match_a_memo_free_reference(self, monkeypatch, first, level, on_set):
        # 98 fresh samples in all, the seven populations at n = 50 and 200,
        # a third of them per case; p-values at 0 and at both endpoints
        desk, tset = self._sources()
        source = tset if on_set else desk
        rng = np.random.default_rng(23)
        names = population_names()
        samples = [
            make_population(names[i % 7]).draw(rng, n) + rng.normal(0.0, 0.35)
            for n in (50, 200) for i in range(49)
        ][first::3]

        def run():
            out = []
            for w in samples:
                ends = confidence_interval(w, level, source)
                pvals = [p_value(w, mu0, tset) for mu0 in (0.0, *ends)]
                out.append(([e.hex() for e in ends], [(p.value, p.exceeds_max) for p in pvals]))
            return out

        got = run()
        blocks = quadrature_blocks(monkeypatch)
        # the queries make their memos in rtt.inference
        monkeypatch.setattr(inference, "LogFaMemo", _PassThrough)
        assert run() == got
        # the reference evaluates rows the memo would have remembered
        rows = sum(blocks, [])
        assert len(rows) > len(set(rows))


class TestMirrorSymmetry:
    def test_decision_mirrors(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = rng.standard_t(3, size=50) + rng.normal() * 0.5
            mu0 = rng.normal() * 0.2
            assert decide(w, mu0, TBL).reject == decide(-w, -mu0, TBL).reject
