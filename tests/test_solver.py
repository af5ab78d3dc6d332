import gc
import logging
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtt.errors import CalibrationError, InvalidArgument
from rtt.fa import DEFAULT_NODES, DEFAULT_XI_GRID, LogFaMemo, log_f_a_single
from rtt.gev import TailParams, _row_sum, log_tail_density, log_tail_density_multi
from rtt.model import (
    ThetaFull,
    big_m_star,
    big_m_star_support,
    joint_log_term,
    log_joint_density_parts,
    single_tail_log_term,
)
from rtt.solver import (
    DEFAULT_LADDER,
    IsPool,
    RpEstimate,
    SwitchConstants,
    TestEvaluator,
    _BOOST,
    _DECIDE_CHUNK,
    _denom_rows,
    _iterate_lfd,
    _Mixture,
    _PoolCtx,
    _rp_of_entries,
    _RpSweep,
    _single_condition_bits,
    _table_entry_bits,
    SolverTuning,
    boundary_left_reps,
    build_proposal,
    calibrate_switching_direct,
    critical_values,
    estimate_rp,
    heavy_single_candidates,
    proposal_region,
    simulate_rp,
    solve_single_tail,
    smoke_build_config,
    spot_check,
    build_table,
    gate_values,
    switching_index,
)
from rtt.space import SpaceConfig, boundary_grid, sample_interior
from rtt.table import TestTable, read_table, table_checksum

CFG = SpaceConfig(n0=50, k=4)
DESK = Path(__file__).resolve().parents[1] / "tables" / "desk_k4_a05.rtt"


def _always(yr, yl, y0):
    return np.ones(np.shape(y0), dtype=bool)


def _never(yr, yl, y0):
    return np.zeros(np.shape(y0), dtype=bool)


def _t_gt_2(yr, yl, y0):
    return np.abs(gate_values(yr, yl, y0, 0.0, 0.0)[0]) > 2.0


@pytest.fixture(scope="module")
def pool():
    region = proposal_region(CFG, n_xi=5, n_kappa=3, per_cell=5, eta_decades=2.5)
    return build_proposal(CFG, region, size=30_000, K=8, seed=1)


# the pool's contexts at level 0.05, with the runtime's 40 f_a nodes and the
# smoke builds' 24; each costs about a second, so the module shares them
@pytest.fixture(scope="module")
def ctx40(pool):
    return _PoolCtx(pool, 0.05, DEFAULT_NODES)


@pytest.fixture(scope="module")
def ctx24(pool):
    return _PoolCtx(pool, 0.05, 24)


def _table_entries(ctx, table):
    """The entries where the stored test's conditions 2 and 3 hold, and its
    full atoms, composed as ``build_table`` composes them."""
    switch = SwitchConstants(table.rho1, table.rho_r)
    return np.flatnonzero(_single_condition_bits(ctx, table.single_atoms, switch)), table.full_atoms


class TestEstimateRp:
    def test_unit_test_with_matching_proposal(self):
        th = TailParams(2.0, 0.1, 0.1)
        p = build_proposal(CFG, [th], size=1500, K=4, seed=0)
        est = estimate_rp(_always, ThetaFull(th, th), p)
        assert_allclose(est.rp, 1.0, rtol=1e-10)

    def test_zero_test(self, pool):
        th = TailParams(3.0, 0.05, 0.0)
        est = estimate_rp(_never, ThetaFull(th, th), pool)
        assert est.rp == 0.0 and est.se == 0.0

    def test_matches_direct_simulation(self, pool):
        theta = ThetaFull(TailParams(3.0, 0.05, 0.0), TailParams(2.2, 0.08, 0.2))
        a = estimate_rp(_t_gt_2, theta, pool)
        b = simulate_rp(_t_gt_2, theta, 0.0, 4, 400_000, seed=7)
        assert abs(a.rp - b.rp) < 3.0 * math.hypot(a.se, b.se)

    def test_offset_reseeding_is_within_noise(self, pool):
        # a pool drawn with another seed recombines other draws
        region = proposal_region(CFG, n_xi=5, n_kappa=3, per_cell=5, eta_decades=2.5)
        other = build_proposal(CFG, region, size=30_000, K=8, seed=2)
        theta = ThetaFull(TailParams(2.8, 0.06, 0.1), TailParams(2.8, 0.06, 0.1))
        base = estimate_rp(_t_gt_2, theta, pool)
        alt = estimate_rp(_t_gt_2, theta, other)
        assert base.rp != alt.rp
        assert abs(base.rp - alt.rp) < 3.0 * (base.se + alt.se)

    def test_degenerate_flag_for_uncovered_target(self):
        th = TailParams(2.0, 0.1, 0.1)
        p = build_proposal(CFG, [th], size=800, K=4, seed=0)
        # a scale far outside the proposal's support has zero weights
        far = TailParams(30.0, 1e4, -0.45)
        est = estimate_rp(_always, ThetaFull(far, far), p)
        assert est.degenerate


class TestPool:
    def test_invariants(self):
        with pytest.raises(InvalidArgument):
            IsPool(
                y_tail=np.zeros((5, 2)),
                y0e=np.zeros(5),
                proposal_logdens=np.zeros(5),
                K=5,
            )

    def test_unsorted_row_rejected(self):
        # the pool's tail densities rely on rows checked once, here
        y = np.sort(np.random.default_rng(2).exponential(size=(6, 4)), axis=1)[:, ::-1].copy()
        IsPool(y_tail=y, y0e=np.zeros(6), proposal_logdens=np.zeros(6), K=2)
        y[3, 1:3] = y[3, 2:0:-1]
        with pytest.raises(InvalidArgument):
            IsPool(y_tail=y, y0e=np.zeros(6), proposal_logdens=np.zeros(6), K=2)

    def test_proposal_covers_own_draws(self, pool):
        assert np.all(np.isfinite(pool.proposal_logdens))

    def test_effective_sample_size_at_grid_points(self, pool, ctx40):
        for th in pool.components[:: max(1, len(pool.components) // 12)]:
            w = ctx40.weight(th)
            ess = w.sum() ** 2 / (w * w).sum()
            assert ess >= 0.01 * pool.n

    def test_deterministic_given_seed(self):
        region = [TailParams(2.5, 0.05, 0.2), TailParams(3.0, 0.02, 0.0)]
        a = build_proposal(CFG, region, size=500, K=3, seed=9)
        b = build_proposal(CFG, region, size=500, K=3, seed=9)
        assert np.array_equal(a.y_tail, b.y_tail) and np.array_equal(a.y0e, b.y0e)


class TestSwitching:
    def test_index_definition(self):
        sw = SwitchConstants(0.1, 0.2)
        # ratio branch: Y1/Yk - 1 - rho_r
        got = switching_index(np.array([[2.0, 1.0]]), sw)
        assert_allclose(got, [min(2.0 - 0.1, 2.0 - 1.0 - 0.2)], rtol=1e-12)
        # small first component switches
        assert switching_index(np.array([[0.05, 0.01]]), sw) == 0.0
        # non-positive k-th component switches regardless of the ratio
        assert switching_index(np.array([[5.0, -1.0]]), sw) == 0.0

    def test_monotone_in_constants(self):
        rng = np.random.default_rng(0)
        y = np.sort(rng.exponential(size=(200, 3)), axis=1)[:, ::-1]
        small = switching_index(y, SwitchConstants(0.1, 0.1))
        large = switching_index(y, SwitchConstants(0.3, 0.3))
        assert np.all(large <= small + 1e-15)

    def test_huge_alpha_accepts_first_ladder_point(self):
        # at the first ladder point the gate's worst boundary rejection rate
        # exceeds the level by 0.004-0.009 (0.509 at 0.5, 0.704 at 0.7 with
        # this seed); at 0.7 the excess lies inside the 2-se allowance
        sw = calibrate_switching_direct(CFG, alpha=0.7, seed=2)
        assert (sw.rho1, sw.rho_r) == DEFAULT_LADDER[0]

    def test_no_passing_ladder_point_raises(self, monkeypatch):
        import rtt.solver as solver_mod
        from rtt.solver import RpEstimate

        def all_high(theta, alpha, k, n, seed):
            return RpEstimate(rp=0.5, se=1e-6)

        monkeypatch.setattr(solver_mod, "_direct_gate_rp", all_high)
        with pytest.raises(CalibrationError, match="no ladder point"):
            calibrate_switching_direct(CFG, alpha=0.05, seed=2, ladder=((0.05, 0.05),))


def _stub_table(alpha=0.05, lam=1e-250, k=4):
    # near-zero weights make conditions 2-4 hold almost surely, so the
    # decision reduces to the condition-1 gate
    single = ((lam, 3.0, 0.05, 0.0),)
    full = ((lam, 3.0, 0.05, 0.0, 3.0, 0.05, 0.0),)
    return TestTable(
        k=k, n0=50, alpha=alpha, rho1=0.1, rho_r=0.1,
        single_atoms=single, full_atoms=full, xi_grid=tuple(np.linspace(-0.5, 0.5, 5)),
    )


class TestEvaluateConditions:
    def test_zero_observation_never_rejects(self):
        table = TestTable(
            k=4, n0=10, alpha=0.05, rho1=0.1, rho_r=0.1,
            single_atoms=((1.0, 3.0, 0.05, 0.0),),
            full_atoms=((1.0, 3.0, 0.05, 0.0, 3.0, 0.05, 0.0),),
            xi_grid=DEFAULT_XI_GRID,
        )
        assert not TestEvaluator(table).decide_batch(np.zeros(4), np.zeros(4), [0.0])[0]

    def test_blended_cv_at_zero_tails(self):
        cv_z, cv_t = critical_values(0.05)
        assert_allclose(cv_z, 1.959964, atol=1e-5)
        # w_cv = 1 at zero tails: the gate critical value is the normal one
        ev = TestEvaluator(_stub_table())
        t = 1.97
        y0 = t  # zero tails: T = y0
        assert ev.condition1(np.zeros((1, 4)), np.zeros((1, 4)), np.array([y0]))[0]
        assert not ev.condition1(np.zeros((1, 4)), np.zeros((1, 4)), np.array([1.9]))[0]

    def test_df_rule_uses_natural_log(self):
        _, cv_t = critical_values(0.05)
        from scipy import stats
        df = 80.0 + 10.0 * math.log(0.05)
        assert_allclose(cv_t, stats.t.ppf(0.975, df), rtol=1e-12)
        assert 49.0 < df < 51.0

    def test_chi_zero_below_rho1(self):
        sw = SwitchConstants(0.1, 0.1)
        assert switching_index(np.array([[0.05, 0.04, 0.03, 0.02]]), sw) == 0.0

    def test_soft_boost_at_least_one(self):
        rng = np.random.default_rng(1)
        y = np.sort(rng.exponential(size=(50, 4)), axis=1)[:, ::-1]
        chi = switching_index(y, SwitchConstants(0.2, 0.2))
        boost = np.exp(_BOOST * chi)
        assert np.all(boost >= 1.0)
        assert np.all((boost == 1.0) == (chi == 0.0))

    def test_gate_is_hard(self):
        # with huge weights conditions 2-4 essentially never hold, and with
        # tiny weights they almost always do; the gate bounds both
        rng = np.random.default_rng(8)
        yr = np.sort(rng.exponential(size=(300, 4)), axis=1)[:, ::-1]
        yl = np.sort(rng.exponential(size=(300, 4)), axis=1)[:, ::-1]
        y0 = rng.standard_normal(300)
        loose = TestEvaluator(_stub_table(lam=1e-250))
        gate = loose.condition1(yr, yl, y0)
        dec = loose.decide_batch(yr, yl, y0)
        assert not np.any(dec & ~gate)

    def test_doubling_weights_shrinks_rejections(self):
        rng = np.random.default_rng(9)
        yr = np.sort(rng.exponential(size=(400, 4)), axis=1)[:, ::-1] * 2.0
        yl = np.sort(rng.exponential(size=(400, 4)), axis=1)[:, ::-1]
        y0 = rng.standard_normal(400) * 2.0
        base = _stub_table(lam=1e-3)
        doubled = TestTable(
            k=base.k, n0=base.n0, alpha=base.alpha, rho1=base.rho1, rho_r=base.rho_r,
            single_atoms=tuple((2 * r[0],) + r[1:] for r in base.single_atoms),
            full_atoms=tuple((2 * r[0],) + r[1:] for r in base.full_atoms),
            xi_grid=base.xi_grid,
        )
        d_base = TestEvaluator(base).decide_batch(yr, yl, y0)
        d_doub = TestEvaluator(doubled).decide_batch(yr, yl, y0)
        assert not np.any(d_doub & ~d_base)

    def test_mirror_symmetry_with_symmetric_atoms(self):
        rng = np.random.default_rng(10)
        a = TailParams(2.5, 0.08, 0.2)
        b = TailParams(3.0, 0.05, 0.0)
        table = TestTable(
            k=4, n0=50, alpha=0.05, rho1=0.1, rho_r=0.1,
            single_atoms=((0.01, *a.astuple()), (0.02, *b.astuple())),
            full_atoms=(
                (0.01, *a.astuple(), *b.astuple()),
                (0.01, *b.astuple(), *a.astuple()),
                (0.03, *b.astuple(), *b.astuple()),
            ),
            xi_grid=tuple(np.linspace(-0.5, 0.5, 9)),
        )
        ev = TestEvaluator(table)
        yr = np.sort(rng.exponential(size=(500, 4)), axis=1)[:, ::-1]
        yl = np.sort(rng.exponential(size=(500, 4)), axis=1)[:, ::-1]
        y0 = rng.standard_normal(500)
        fwd = ev.decide_batch(yr, yl, y0)
        rev = ev.decide_batch(yl, yr, -y0)
        assert np.array_equal(fwd, rev)


    def test_chunked_batch_matches_per_row(self):
        desk = read_table(DESK)
        ev = TestEvaluator(desk)
        rng = np.random.default_rng(11)
        yr = np.sort(rng.exponential(size=(300, 4)), axis=1)[:, ::-1] * 0.3
        yl = np.sort(rng.exponential(size=(300, 4)), axis=1)[:, ::-1] * 0.1
        y0 = rng.standard_normal(300) * 3.0
        batch = ev.decide_batch(yr, yl, y0)
        assert ev.condition1(yr, yl, y0).sum() > _DECIDE_CHUNK
        assert 0 < batch.sum() < ev.condition1(yr, yl, y0).sum()
        per_row = [ev.decide_batch(yr[i], yl[i], y0[i : i + 1])[0] for i in range(300)]
        assert np.array_equal(batch, per_row)


class TestRuntimeAppliesCertifiedTest:
    def test_decisions_match_solver_bits(self, pool, ctx40):
        # the evaluator on the recombined pool entries decides as the solver's
        # stage-4 bits do, wherever no log-denominator lies within the
        # float32 tail cache's reach of the threshold
        table = read_table(DESK)
        ctx = ctx40
        bits = _table_entry_bits(ctx, *_table_entries(ctx, table)) > 0.0
        singles = [TailParams(*r[1:]) for r in table.single_atoms]
        s_lam = np.array([r[0] for r in table.single_atoms])
        pairs = [(TailParams(*r[1:4]), TailParams(*r[4:])) for r in table.full_atoms]
        f_lam = np.array([r[0] for r in table.full_atoms])
        chi = switching_index(pool.y_tail, SwitchConstants(table.rho1, table.rho_r))
        with np.errstate(divide="ignore"):
            log_denoms = np.log([
                _Mixture.single(ctx, singles, chi).denom(s_lam),
                _Mixture.single(ctx, singles, chi, swapped=True).denom(s_lam),
                _Mixture.pair(ctx, pairs, np.arange(ctx.la.size)).denom(f_lam),
            ])
        clear = np.all(np.abs(log_denoms) > 1e-4, axis=0)
        ev = TestEvaluator(table)
        memo = LogFaMemo(table.xi_grid)
        got = np.concatenate([
            ev._lr_conditions(
                pool.y_tail[la], pool.y_tail[lb], pool.y0e[la] - pool.y0e[lb], memo
            )
            for la, lb in zip(np.array_split(ctx.la, 32), np.array_split(ctx.lb, 32))
        ])
        assert clear.mean() > 0.99
        assert 0 < bits[clear].sum() < clear.sum()
        assert np.array_equal(got[clear], bits[clear])

    def test_pool_pairs_are_runtime_gate_passes(self, pool, ctx40):
        # the solver's entries are exactly the recombined pairs, offsets 1..K,
        # on which the runtime's gate holds
        table = read_table(DESK)
        n, K = pool.n, pool.K
        la = np.tile(np.arange(n), K)
        lb = (la + np.repeat(np.arange(1, K + 1), n)) % n
        keep = TestEvaluator(table).condition1(pool.y_tail[la], pool.y_tail[lb], pool.y0e[la] - pool.y0e[lb])
        assert 0 < keep.sum() < keep.size
        assert np.array_equal(ctx40.la, la[keep]) and np.array_equal(ctx40.lb, lb[keep])

    def test_estimate_rp_of_runtime_matches_spot_check(self, pool, ctx40):
        # the public estimator applied to the shipped decision rule gives the
        # stage-4 certificate's rate, up to the solver's float32 tail cache
        table = read_table(DESK)
        points = boundary_grid(CFG, 2) + sample_interior(CFG, 10, np.random.default_rng(6))
        points = [points[i] for i in (0, 25, 38)]
        decide = TestEvaluator(table).decide_batch
        for theta, cert in zip(points, spot_check(ctx40, *_table_entries(ctx40, table), points)):
            est = estimate_rp(decide, theta, pool)
            assert cert.rp > 0.02
            assert_allclose([est.rp, est.se], [cert.rp, cert.se], rtol=1e-5)

    def test_runtime_tail_terms_match_solver_bits(self, pool):
        # the evaluator's (rows, atoms) grids of log f_T and M* equal, bit for
        # bit, the per-tail values the solver computes on its pool
        table = read_table(DESK)
        tails = {tuple(r[1:4]) for r in table.single_atoms}
        tails |= {tail for r in table.full_atoms for tail in (tuple(r[1:4]), tuple(r[4:7]))}
        cols = np.array(sorted(tails)).T
        y = pool.y_tail
        lf = log_tail_density_multi(y, *cols)
        ms = big_m_star_support(y[:, -1:], lf, *cols)
        assert 0 < np.isfinite(lf).mean() < 1
        for a, tail in enumerate(sorted(tails)):
            t = TailParams(*tail)
            assert np.array_equal(lf[:, a], log_tail_density(y, t))
            ok = np.isfinite(lf[:, a])
            assert np.array_equal(ms[ok, a], big_m_star(y[ok], t))
            assert np.all(ms[~ok, a] == 0.0)

    def test_atom_without_density_changes_nothing(self):
        # a Gumbel tail so far out that its log density is -inf and its M*
        # overflows at every row: the atom must contribute exactly 0
        desk = read_table(DESK)
        far = (800.0, 1.0, 0.0)
        padded = replace(
            desk,
            single_atoms=desk.single_atoms + ((1.0, *far),),
            full_atoms=desk.full_atoms + ((1.0, *far, *far),),
        )
        rng = np.random.default_rng(11)
        yr = np.sort(rng.exponential(size=(300, 4)), axis=1)[:, ::-1] * 0.3
        yl = np.sort(rng.exponential(size=(300, 4)), axis=1)[:, ::-1] * 0.1
        y0 = rng.standard_normal(300) * 3.0
        lf = log_tail_density_multi(np.vstack([yr, yl]), *np.array([far]).T)
        assert np.all(lf == -np.inf)
        base = TestEvaluator(desk).decide_batch(yr, yl, y0)
        assert base.sum() > 0
        assert np.array_equal(TestEvaluator(padded).decide_batch(yr, yl, y0), base)


def _per_atom_decisions(table, yr, yl, y0):
    """``decide_batch`` with one kernel column per atom, the formula the
    evaluator used before atoms with equal tails shared columns: decisions,
    and every (rows, atoms) term with its denominators, in the order the
    evaluator sums them."""
    s = np.asarray(table.single_atoms, dtype=float).T
    f = np.asarray(table.full_atoms, dtype=float).T
    switch = SwitchConstants(table.rho1, table.rho_r)

    def single(heavy, thin, y0, shift):
        lf = log_tail_density_multi(heavy, *s[1:])
        ms = big_m_star_support(heavy[:, -1:], lf, *s[1:])
        var = 1.0 + _row_sum(thin * thin)
        base = y0 - _row_sum(thin)
        return single_tail_log_term(lf, ms, base[:, None], var[:, None], np.log(var)[:, None], shift[:, None])

    out = TestEvaluator(table).condition1(yr, yl, y0)
    passing = np.flatnonzero(out)
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, passing.size, _DECIDE_CHUNK):
            idx = passing[lo : lo + _DECIDE_CHUNK]
            r, l, d = yr[idx], yl[idx], y0[idx]
            fa_r = log_f_a_single(r, table.xi_grid, DEFAULT_NODES)
            fa_l = log_f_a_single(l, table.xi_grid, DEFAULT_NODES)
            t2 = single(r, l, d, fa_r + _BOOST * switching_index(l, switch))
            t3 = single(l, r, -d, fa_l + _BOOST * switching_index(r, switch))
            d2, d3 = _denom_rows(t2, s[0]), _denom_rows(t3, s[0])
            terms += [(t2, d2), (t3, d3)]
            ok = (d2 < 1.0) & (d3 < 1.0)
            sub = np.flatnonzero(ok)
            if sub.size:
                lf_r = log_tail_density_multi(r[sub], *f[4:])
                lf_l = log_tail_density_multi(l[sub], *f[1:4])
                ms_r = big_m_star_support(r[sub, -1:], lf_r, *f[4:])
                ms_l = big_m_star_support(l[sub, -1:], lf_l, *f[1:4])
                t4 = joint_log_term(lf_r, lf_l, ms_r, ms_l, d[sub, None], 0.0, (fa_r[sub] + fa_l[sub])[:, None])
                terms.append((t4, _denom_rows(t4, f[0])))
                ok[sub] = terms[-1][1] < 1.0
            out[idx] = ok
    return out, terms


def _evaluator_rows(seed, m=300):
    rng = np.random.default_rng(seed)
    yr = np.sort(rng.exponential(size=(m, 4)), axis=1)[:, ::-1] * 0.3
    yl = np.sort(rng.exponential(size=(m, 4)), axis=1)[:, ::-1] * 0.1
    return yr, yl, rng.standard_normal(m) * 3.0


class TestDistinctTailColumns:
    """The evaluator computes log f_T and M* once per distinct tail and
    gathers each atom's columns; every term stays the per-atom value."""

    @staticmethod
    def _tables():
        desk = read_table(DESK)
        # every other single atom: many full-atom tails are then no single
        # atom's tail, and condition 4 with the weights raised 1e20-fold
        # decides some rows that conditions 2 and 3 pass
        sparse = replace(
            desk,
            single_atoms=desk.single_atoms[::2],
            full_atoms=tuple((1e20 * r[0], *r[1:]) for r in desk.full_atoms),
        )
        return desk, sparse

    def test_terms_and_decisions_match_per_atom_reference(self, monkeypatch):
        import rtt.solver as solver_mod

        yr, yl, y0 = _evaluator_rows(11)
        for table in self._tables():
            want, want_terms = _per_atom_decisions(table, yr, yl, y0)
            got_terms = []

            def spy(term, lam):
                got_terms.append((term, _denom_rows(term, lam)))
                return got_terms[-1][1]

            monkeypatch.setattr(solver_mod, "_denom_rows", spy)
            got = TestEvaluator(table).decide_batch(yr, yl, y0)
            monkeypatch.undo()
            assert 0 < want.sum() < TestEvaluator(table).condition1(yr, yl, y0).sum()
            assert np.array_equal(got, want)
            assert len(got_terms) == len(want_terms) > 4
            # the sums too: numpy sums a C-ordered row pairwise and an
            # F-ordered array column by column
            for (a, da), (b, db) in zip(got_terms, want_terms):
                assert a.flags.c_contiguous and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert da.tobytes() == db.tobytes()
        desk, sparse = self._tables()
        assert TestEvaluator(sparse).tails.shape[1] > len(sparse.single_atoms)
        # the raised weights make condition 4 decide some rows
        c23 = _per_atom_decisions(replace(sparse, full_atoms=desk.full_atoms), yr, yl, y0)[0]
        assert np.any(c23 & ~_per_atom_decisions(sparse, yr, yl, y0)[0])

    def test_two_kernel_calls_per_block_at_the_distinct_tails(self, monkeypatch):
        import rtt.solver as solver_mod

        calls = []

        def spy(y, kappa, eta, xi):
            calls.append((np.atleast_2d(y).shape[0], np.asarray(kappa).size))
            return log_tail_density_multi(y, kappa, eta, xi)

        desk = read_table(DESK)
        ev = TestEvaluator(desk)
        yr, yl, y0 = _evaluator_rows(12)
        blocks = -(-int(ev.condition1(yr, yl, y0).sum()) // _DECIDE_CHUNK)
        monkeypatch.setattr(solver_mod, "log_tail_density_multi", spy)
        ev.decide_batch(yr, yl, y0)
        assert ev.tails.shape == (3, 156) and blocks >= 2
        assert len(calls) == 2 * blocks
        assert {cols for _, cols in calls} == {156}
        assert sum(rows for rows, _ in calls) == 2 * ev.condition1(yr, yl, y0).sum()

    def test_one_f_a_call_per_batch_for_both_tails(self, monkeypatch):
        import rtt.fa as fa_mod

        calls = []

        def spy(y, xi_grid, nodes):
            calls.append(np.atleast_2d(y).copy())
            return log_f_a_single(y, xi_grid, nodes)

        def spacings(y):
            return {row.tobytes() for row in y[:, :-1] - y[:, -1:]}

        ev = TestEvaluator(read_table(DESK))
        yr, yl, y0 = _evaluator_rows(12)
        # repeated rows: a batch evaluates each distinct spacing row once
        yr, yl, y0 = (np.concatenate([a, a[::2]]) for a in (yr, yl, y0))
        passing = np.flatnonzero(ev.condition1(yr, yl, y0))
        want = ev.decide_batch(yr, yl, y0)
        monkeypatch.setattr(fa_mod, "log_f_a_single", spy)
        assert np.array_equal(ev.decide_batch(yr, yl, y0), want)
        assert passing.size > _DECIDE_CHUNK and len(calls) == 1
        # the distinct spacing rows of every gate-passing row's two tails
        both = np.concatenate([yr[passing], yl[passing]])
        assert len(calls[0]) == len(spacings(calls[0])) < both.shape[0]
        assert spacings(calls[0]) == spacings(both)
        # each call makes its own memo: nothing carries over between calls
        ev.decide_batch(yr, yl, y0)
        assert len(calls) == 2 and np.array_equal(calls[1], calls[0])

    def test_signed_zeros_are_distinct_tails(self):
        plus, minus = (0.0, 0.05, 0.0), (-0.0, 0.05, 0.0)
        table = TestTable(
            k=4, n0=50, alpha=0.05, rho1=0.1, rho_r=0.1,
            single_atoms=((0.01, *plus), (0.02, *minus), (0.03, *plus)),
            full_atoms=((0.01, *minus, *plus), (0.01, 3.0, 0.05, 0.0, *minus)),
            xi_grid=DEFAULT_XI_GRID,
        )
        ev = TestEvaluator(table)
        assert ev.tails.shape == (3, 3)
        assert list(np.signbit(ev.tails[0])) == [False, True, False]
        assert list(ev.s_col) == [0, 1, 0]
        assert list(ev.l_col) == [1, 2] and list(ev.r_col) == [0, 1]


class TestNeymanPearsonOracle:
    def test_single_atom_reproduces_np_test(self):
        # Collapse the null to one theta; the fixed point of the iteration is
        # the likelihood-ratio test of f_a against f(.|theta, 0) at level
        # alpha.  Verified against direct simulation of the solved test.
        alpha = 0.05
        th = TailParams(2.5, 0.15, 0.2)
        theta = ThetaFull(th, th)
        region = [th, TailParams(2.5, 0.25, 0.2), TailParams(2.5, 0.08, 0.2)]
        p = build_proposal(CFG, region, size=30_000, K=8, seed=11)
        ctx = _PoolCtx(p, alpha)
        # every recombined pair, not only the gate-passing ones
        ctx.la = np.tile(np.arange(p.n, dtype=np.int32), p.K)
        ctx.lb = (ctx.la + np.repeat(np.arange(1, p.K + 1, dtype=np.int32), p.n)) % p.n
        pairs = [(th, th)]
        denom = _Mixture.pair(ctx, pairs, np.arange(ctx.la.size))
        sweep = _RpSweep(ctx, [theta])
        lam = _iterate_lfd(
            3, denom.denom, sweep, np.zeros(1, dtype=int), alpha,
            SolverTuning(max_iter=120, min_iter=10, prescale_iter=30), 1, time.perf_counter(),
        )
        lam_star = float(lam[0])

        def np_test(yr, yl, y0):
            num = log_f_a_single(yr, DEFAULT_XI_GRID) + log_f_a_single(yl, DEFAULT_XI_GRID)
            den = math.log(lam_star) + log_joint_density_parts(yr, yl, y0, theta, 0.0)
            return num > den

        direct = simulate_rp(np_test, theta, 0.0, 4, 300_000, seed=12)
        # IS noise at this pool size dominates; allow a generous band
        assert abs(direct.rp - alpha) < 0.015


class _BlockSweep:
    """Stand-in sweep: check i rejects at the share of its block of entries
    where the test rejects."""

    def __init__(self, n_checks: int, n_entries: int):
        th = TailParams(2.0, 0.1, 0.1)
        self.checks = [ThetaFull(th, th)] * n_checks
        self.blocks = np.array_split(np.arange(n_entries), n_checks)

    def rp(self, bits):
        return np.array([bits[b].mean() for b in self.blocks])

    def rp_se(self, bits, i):
        p = float(bits[self.blocks[i]].mean())
        return RpEstimate(rp=p, se=math.sqrt(p * (1.0 - p) / self.blocks[i].size))


class TestPrescale:
    def test_one_denominator_pass_and_same_bracket(self, caplog):
        # a linear denominator: atom j adds lam_j * base[j] at every entry
        rng = np.random.default_rng(4)
        base = rng.lognormal(0.0, 3.0, size=(3, 6000))
        calls = []

        def denom(lam):
            calls.append(lam.copy())
            return lam @ base

        alpha, tuning = 0.05, SolverTuning(max_iter=60, prescale_iter=24)
        sweep = _BlockSweep(3, base.shape[1])
        with caplog.at_level(logging.INFO, logger="rtt.solver"):
            _iterate_lfd(2, denom, sweep, np.arange(3), alpha, tuning, 3, time.perf_counter())
        iterations = sum("lfd stage=2 iter=" in r.getMessage() for r in caplog.records)
        assert len(calls) == 1 + iterations
        uniform = np.full(3, 1.0 / 3)
        assert np.array_equal(calls[0], uniform)
        # the bracket of the reference bisection, one denominator per step
        lo, hi = -30.0, 30.0
        for _ in range(tuning.prescale_iter):
            mid = 0.5 * (lo + hi)
            bits = (uniform * math.exp(mid) @ base < 1.0).astype(np.float32)
            if sweep.rp(bits).max() > alpha:
                lo = mid
            else:
                hi = mid
        assert np.array_equal(calls[1], uniform * math.exp(hi))


class TestSpotCheck:
    def test_matches_per_point_reference(self, pool, ctx40):
        table = read_table(DESK)
        points = boundary_grid(CFG, 2) + sample_interior(CFG, 10, np.random.default_rng(6))
        tails = {t.astuple() for th in points for t in (th.left, th.right)}
        assert len(tails) < 2 * len(points)
        ctx = ctx40
        sub, fulls = _table_entries(ctx, table)
        got = spot_check(ctx, sub, fulls, points)
        bits = _table_entry_bits(ctx, sub, fulls)
        want = []
        for th in points:
            u = ctx.weight(th.right)
            v = ctx.weight(th.left)
            want.append(_rp_of_entries(bits, u, v, ctx.la, ctx.lb, pool.n, pool.K))
        assert got == want
        # the iteration's se, from the same estimator
        sweep = _RpSweep(ctx, points)
        assert got == [sweep.rp_se(bits, i) for i in range(len(points))]

    def test_keeps_no_tail_arrays(self, ctx40):
        # the context keeps the atoms' tails only; the points' are dropped
        table = read_table(DESK)
        points = boundary_grid(CFG, 2) + sample_interior(CFG, 10, np.random.default_rng(7))
        sub, fulls = _table_entries(ctx40, table)
        kept = len(ctx40._tails)
        spot_check(ctx40, sub, fulls, points)
        assert len(ctx40._tails) == kept


class TestSolveSingleTail:
    def test_smoke_solve_properties(self, ctx24, caplog):
        sw = SwitchConstants(0.1, 0.1)
        with caplog.at_level(logging.INFO, logger="rtt.solver"):
            atoms = solve_single_tail(
                ctx24, CFG, sw,
                heavy_single_candidates(CFG, sw, seed=0), boundary_left_reps(CFG, sw, seed=1),
                tuning=SolverTuning(max_iter=60, prescale_iter=14),
            )
        assert atoms and all(row[0] > 0 for row in atoms)
        # documented progress format
        pat = re.compile(r"lfd stage=2 iter=\d+ max_rp=\d\.\d+ se=\d\.\d+ worst=\S+")
        lines = [r.getMessage() for r in caplog.records]
        assert any(pat.match(ln) for ln in lines)

    def test_fixed_point_band_at_convergence(self, ctx24):
        # fixed-point property: at convergence the binding check sits inside
        # [alpha - 3 se, alpha + 2 se] and no check exceeds the upper edge;
        # solved and checked on the same context
        ctx = ctx24
        alpha = ctx.alpha
        sw = SwitchConstants(0.1, 0.1)
        lefts = boundary_left_reps(CFG, sw, seed=1)
        cands = heavy_single_candidates(CFG, sw, seed=0)
        atoms = solve_single_tail(
            ctx, CFG, sw, cands, lefts,
            tuning=SolverTuning(max_iter=120, min_iter=25, prescale_iter=14),
        )
        from rtt.space import contains

        params = [TailParams(*row[1:]) for row in atoms]
        lam = np.array([row[0] for row in atoms])
        denom = _Mixture.single(ctx, params, switching_index(ctx.y_tail, sw))
        bits = (denom.denom(lam) < 1.0).astype(np.float32)
        checks = [
            ThetaFull(left=l, right=h)
            for h in cands
            for l in lefts
            if contains(ThetaFull(left=l, right=h), CFG)
        ]
        sweep = _RpSweep(ctx, checks)
        rp = sweep.rp(bits)
        i_star = int(np.argmax(rp))
        est = sweep.rp_se(bits, i_star)
        assert est.rp <= alpha + 2.0 * est.se + 1e-12
        assert est.rp >= alpha - 3.0 * est.se - 0.01


# checksums of the smoke builds below; any change to the solver's numerics
# changes them, so a deliberate change records the new values here
SMOKE_SEED3_CHECKSUM = "13229896ea3cb090b2abd9fa3c2235c9480d88ac7ffe58fd876755e80d4b6daa"
SMOKE_SEED1_A20_CHECKSUM = "fa90b03551ddc2a0a729222e40cea88b86b7415782fb2935b09f1fa7f91abce9"


def _tiny_config():
    return smoke_build_config(
        n_draws=4_000, n_xi=3, n_kappa=2, n_eta=2, proposal_per_cell=3,
        max_pairs=20, spot_boundary_resolution=2, spot_interior=5,
    )


class TestSmokeBuild:
    def test_build_leaves_no_pool_context_behind(self):
        # with the cyclic collector off, a context that outlives the build is
        # held by a reference cycle
        config = _tiny_config()
        gc.collect()
        gc.disable()
        try:
            before = {id(o) for o in gc.get_objects() if isinstance(o, _PoolCtx)}
            build_table(config)
            left = [o for o in gc.get_objects() if isinstance(o, _PoolCtx) and id(o) not in before]
        finally:
            gc.enable()
        assert not left

    def test_one_context_and_one_single_condition_pass(self, monkeypatch):
        # the build hands one context to every stage, and stages 3 and 4
        # share one evaluation of conditions 2 and 3
        import rtt.solver as solver_mod

        calls = {"ctx": 0, "c23": 0}

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solver_mod, "_PoolCtx", spy("ctx", solver_mod._PoolCtx))
        monkeypatch.setattr(solver_mod, "_single_condition_bits", spy("c23", solver_mod._single_condition_bits))
        build_table(_tiny_config())
        assert calls == {"ctx": 1, "c23": 1}

    def test_build_and_metadata(self, caplog):
        with caplog.at_level(logging.INFO, logger="rtt.solver"):
            table = build_table(smoke_build_config(seed=3))
        assert table_checksum(table) == SMOKE_SEED3_CHECKSUM
        # every stage logs, the pool before and after its build, and every
        # line ends in the seconds since its stage began
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("lfd stage=")]
        stages = [int(re.match(r"lfd stage=(\d)", ln).group(1)) for ln in lines]
        assert stages.count(0) == 2 and set(stages) == {0, 1, 2, 3, 4}
        assert all(re.search(r" elapsed_s=\d+\.\d{3}$", ln) for ln in lines)
        assert table.k == 4 and table.alpha == 0.05
        meta = dict(table.build_metadata)
        assert int(meta["spot_points"]) > 20
        assert "spot_max_rp" in meta
        ev = TestEvaluator(table)
        assert not ev.decide_batch(np.zeros(4), np.zeros(4), [0.0])[0]

    def test_build_at_alpha_20(self):
        table = build_table(smoke_build_config(seed=1, alpha=0.2))
        assert table_checksum(table) == SMOKE_SEED1_A20_CHECKSUM
