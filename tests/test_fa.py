import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, logsumexp
from scipy import integrate

from rtt.errors import InvalidArgument
from rtt.fa import DEFAULT_XI_GRID, _CHUNK, LogFaMemo, _logsumexp, _unit_nodes, f_a_single, log_f_a_single
from rtt.gev import XI_ZERO_TOL


class TestScaling:
    def test_scale_location_rule(self):
        # f_a(c y + b) = c^{-k} f_a(y) for any c > 0, b.
        y = np.array([2.0, 0.7, -0.4, -1.1])
        base = log_f_a_single(y)
        got = log_f_a_single(2.0 * y + 1.0)
        assert_allclose(got, base - 4.0 * math.log(2.0), rtol=1e-10)

    def test_positive_for_strictly_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = np.sort(rng.normal(size=5))[::-1]
            assert np.isfinite(log_f_a_single(y))

    def test_tied_block_is_unbounded(self):
        assert log_f_a_single(np.array([1.0, 1.0, 1.0])) == np.inf


class TestQuadratureAccuracy:
    def test_zero_shape_closed_form(self):
        # Single-point grid at xi = 0: Gamma(k)^2 / S^k exactly.
        y = np.array([1.5, 0.4, -0.2])
        s = (y - y[-1]).sum()
        want = 2.0 * gammaln(3) - 3.0 * math.log(s)
        assert_allclose(log_f_a_single(y, xi_grid=[0.0]), want, rtol=1e-12)

    @pytest.mark.parametrize("xi", [-0.5, -0.2, 0.1, 0.3, 0.5])
    def test_against_adaptive_quadrature(self, xi):
        # Independent oracle: integrate the reduced integrand adaptively.
        y = np.array([1.0, 0.35, 0.0])
        d = (y[:-1] - y[-1])
        k = y.size

        def integrand(r):
            return r ** (k - 1) * np.prod((1.0 + xi * d * r) ** (-1.0 - 1.0 / xi))

        rmax = np.inf if xi > 0 else -1.0 / (xi * d[0])
        val, _ = integrate.quad(integrand, 0.0, rmax, limit=200)
        want = gammaln(k - xi) + math.log(val)
        assert_allclose(log_f_a_single(y, xi_grid=[xi], nodes=60), want, rtol=5e-5)

    def test_node_doubling_stability(self):
        y = np.array([1.0, 0.0])
        a = log_f_a_single(y, nodes=40)
        b = log_f_a_single(y, nodes=80)
        assert abs(a - b) < 1e-4

    def test_grid_average(self):
        y = np.array([0.8, 0.1, -0.5])
        per_xi = np.array([log_f_a_single(y, xi_grid=[x]) for x in DEFAULT_XI_GRID])
        want = math.log(np.exp(per_xi).mean())
        assert_allclose(log_f_a_single(y), want, rtol=1e-10)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        ys = np.sort(rng.normal(size=(10, 4)), axis=1)[:, ::-1]
        batch = log_f_a_single(ys)
        for i in range(10):
            assert_allclose(batch[i], log_f_a_single(ys[i]), rtol=1e-12)


class TestValidation:
    def test_small_block_rejected(self):
        with pytest.raises(InvalidArgument):
            log_f_a_single(np.array([1.0]))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgument):
            f_a_single(np.array([1.0, 0.0]), xi_grid=[])


def _reference_log_fa_xi(d, xi, nodes):
    """Per-shape quadrature with scipy's logsumexp (the loop the one-pass
    evaluation replaced)."""
    m, km1 = d.shape
    k = km1 + 1
    s = d.sum(axis=1)
    out = np.full(m, np.inf)
    live = s > 0.0
    if not np.any(live):
        return out
    dl = d[live]
    sl = s[live]
    u, w = _unit_nodes(nodes)
    logw = np.log(w)
    if abs(xi) < XI_ZERO_TOL:
        out[live] = 2.0 * gammaln(k) - k * np.log(sl)
        return out
    if xi > 0.0:
        rpeak = (k - 1.0) / sl
        r = rpeak[:, None] * (u / (1.0 - u))[None, :]
        logjac = np.log(rpeak)[:, None] + logw[None, :] - 2.0 * np.log1p(-u)[None, :]
    else:
        rmax = -1.0 / (xi * dl[:, 0])
        r = rmax[:, None] * u[None, :]
        logjac = np.log(rmax)[:, None] + logw[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        logfac = np.log1p(xi * dl[:, :, None] * r[:, None, :])
        logint = (k - 1.0) * np.log(r) - (1.0 + 1.0 / xi) * logfac.sum(axis=1)
    out[live] = gammaln(k - xi) + logsumexp(logint + logjac, axis=1)
    return out


def _reference_log_f_a(ya, xi_grid, nodes):
    """All rows in one (shapes, rows) array: with two rows or more numpy
    averages the shapes row by row, the one order for every row."""
    assert ya.shape[0] >= 2
    xi_grid = np.asarray(xi_grid, dtype=float)
    d = ya[:, :-1] - ya[:, -1:]
    vals = np.stack([_reference_log_fa_xi(d, float(xi), nodes) for xi in xi_grid], axis=0)
    with np.errstate(invalid="ignore"):
        return logsumexp(vals, axis=0) - math.log(xi_grid.size)


def _tail_rows(rng, m, k):
    """Descending rows at mixed scales, with some fully and some partly tied."""
    y = np.sort(rng.normal(size=(m, k)) * rng.uniform(0.1, 5.0, (m, 1)), axis=1)[:, ::-1].copy()
    tied = rng.random(m) < 0.1
    y[tied] = y[tied, :1]
    partly = rng.random(m) < 0.1
    y[partly, 1:] = y[partly, -1:]
    return y


GRIDS = {
    "default": DEFAULT_XI_GRID,
    "zero": (0.0,),
    "negative": (-0.5, -0.35, -0.2, -0.05),
    "positive": (0.05, 0.2, 0.35, 0.5),
}


class TestOnePassMatchesPerShapeLoop:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_bit_identical(self, k, grid):
        rng = np.random.default_rng(100 + k)
        y = _tail_rows(rng, 300, k)
        assert np.isinf(log_f_a_single(y)[np.all(y == y[:, :1], axis=1)]).all()
        for nodes in (40, 60):
            want = _reference_log_f_a(y, GRIDS[grid], nodes)
            assert np.array_equal(log_f_a_single(y, GRIDS[grid], nodes), want)
            assert log_f_a_single(y[7], GRIDS[grid], nodes) == want[7]

    @pytest.mark.parametrize("k", [7, 8, 9])
    def test_bit_identical_long_blocks(self, k):
        # the integrand adds one spacing column at a time into its buffer,
        # in the order a sum over the column axis adds them
        rng = np.random.default_rng(200 + k)
        y = _tail_rows(rng, 300, k)
        for grid in ("default", "negative", "positive"):
            want = _reference_log_f_a(y, GRIDS[grid], 40)
            assert np.array_equal(log_f_a_single(y, GRIDS[grid], 40), want)

    @pytest.mark.parametrize("grid", ["default", "negative", "positive"])
    def test_short_last_chunk_in_reused_buffers(self, grid):
        # every chunk reuses buffers sized for the first, full one: a last
        # chunk of a few rows reads only its own part of them
        xi_grid = GRIDS[grid]
        step = _CHUNK // len(xi_grid)
        rng = np.random.default_rng(31)
        y = np.sort(rng.standard_t(3, size=(2 * step + 3, 5)), axis=1)[:, ::-1].copy()
        assert np.array_equal(log_f_a_single(y, xi_grid), _reference_log_f_a(y, xi_grid, 40))
        assert np.array_equal(log_f_a_single(y[-3:], xi_grid), _reference_log_f_a(y[-3:], xi_grid, 40))

    def test_bit_identical_across_chunks(self):
        # numpy sums a one-column (shapes, 1) array pairwise but wider ones
        # row by row: a row alone in the last 4096-row block or in the last
        # quadrature block must still be averaged row by row
        rng = np.random.default_rng(9)
        y = _tail_rows(rng, _CHUNK + 1, 4)
        assert np.array_equal(log_f_a_single(y), _reference_log_f_a(y, DEFAULT_XI_GRID, 40))
        step = _CHUNK // len(DEFAULT_XI_GRID)
        for last in range(30):
            rows = np.concatenate([y[:step], y[step + last : step + last + 1]])
            assert np.array_equal(log_f_a_single(rows), _reference_log_f_a(rows, DEFAULT_XI_GRID, 40))


class TestOneRowMatchesBatch:
    def test_each_row_alone(self):
        # a row's bits must not depend on which rows share its call
        rng = np.random.default_rng(0)
        y = np.sort(rng.exponential(size=(2000, 4)), axis=1)[:, ::-1]
        batch = log_f_a_single(y)
        alone = np.array([log_f_a_single(row) for row in y])
        assert np.array_equal(alone, batch)


class TestDistinctSpacingRows:
    """``LogFaMemo`` runs the quadrature once per distinct spacing row in its
    life, with the bits of ``log_f_a_single`` on each row alone."""

    @staticmethod
    def _batch():
        # one sample's right tail shifted to many means, as a confidence
        # interval's rows are, with exact duplicates, tied rows and other
        # tails, over more rows than one quadrature block
        rng = np.random.default_rng(21)
        base = np.sort(rng.standard_t(3, size=4))[::-1] / 1.7
        shifts = np.linspace(-2.0, 2.0, 400) / 1.7
        shifted = base[None, :] - shifts[:, None]
        others = _tail_rows(rng, 150, 4)
        y = np.concatenate([shifted, others, shifted[::3], others[::5], np.full((5, 4), np.pi)])
        y = y[rng.permutation(y.shape[0])]
        assert y.shape[0] > _CHUNK // len(DEFAULT_XI_GRID)
        return y

    def test_bits_match_reference_and_rows_alone(self):
        y = self._batch()
        want = _reference_log_f_a(y, DEFAULT_XI_GRID, 40)
        got = LogFaMemo()(y)
        assert np.array_equal(got, want)
        assert np.array_equal(got, [log_f_a_single(row) for row in y])
        assert np.array_equal(log_f_a_single(y), want)
        assert np.isposinf(got).sum() >= 5
        # a memo that has seen every row returns the same bits
        memo = LogFaMemo()
        memo(y[::2])
        assert np.array_equal(memo(y), want)

    @staticmethod
    def _quadrature_rows(monkeypatch, call):
        """The spacing rows, as bytes, that reach the quadrature while
        ``call()`` runs, one list per quadrature block."""
        import rtt.fa as fa_mod

        real, seen = fa_mod._log_fa_shapes, []

        def spy(dl, xi, r, logjac, work):
            if xi[0] > 0.0:  # one of the two calls per block
                seen.append([row.tobytes() for row in dl])
            return real(dl, xi, r, logjac, work)

        monkeypatch.setattr(fa_mod, "_log_fa_shapes", spy)
        call()
        monkeypatch.undo()
        return seen

    def test_quadrature_sees_each_distinct_spacing_row_once(self, monkeypatch):
        y = self._batch()
        d = y[:, :-1] - y[:, -1:]
        distinct = {row.tobytes() for row in d if row.sum() > 0.0}
        seen = sum(self._quadrature_rows(monkeypatch, lambda: LogFaMemo()(y)), [])
        assert len(seen) == len(distinct) < y.shape[0] // 2
        assert set(seen) == distinct
        # over a memo's life, in several calls: rows it has seen never reach
        # the quadrature again, and a call of seen rows alone runs none
        memo = LogFaMemo()
        parts = np.array_split(y, 5)
        seen = sum(self._quadrature_rows(monkeypatch, lambda: [memo(part) for part in parts]), [])
        assert sorted(seen) == sorted(distinct)
        assert self._quadrature_rows(monkeypatch, lambda: memo(y[::-1])) == []

    def test_signed_zero_spacings_are_not_merged(self, monkeypatch):
        y = np.array([[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, 0.0]])
        d = y[:, :-1] - y[:, -1:]
        assert d[0].tobytes() != d[1].tobytes()
        assert sum(map(len, self._quadrature_rows(monkeypatch, lambda: LogFaMemo()(y)))) == 2
        assert np.array_equal(LogFaMemo()(y), [log_f_a_single(row) for row in y])

    def test_bound_to_its_grid_and_nodes(self):
        y = self._batch()[:50]
        for grid, nodes in ((GRIDS["negative"], 40), (DEFAULT_XI_GRID, 60)):
            memo = LogFaMemo(grid, nodes)
            assert np.array_equal(memo(y), log_f_a_single(y, grid, nodes))
            assert np.array_equal(memo(y[:3]), log_f_a_single(y[:3], grid, nodes))


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_scipy_bits(self, axis):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 30)) * 50.0
        a[0, :] = -np.inf  # an all -inf row
        a[:, 0] = -np.inf  # and column
        a[1, 3] = a[1, 5] = a[1, 9] = a[1].max() + 1.0  # tied maxima
        a[4:7, 2] = a[4:7, 8] = 7.25
        a[2, 4] = np.inf
        a[9, 1:4] = np.inf  # tied +inf entries
        a[11, 6] = -np.inf
        a[:, 12] = a[:, 13]  # ties along the other axis
        a[13:20, 14] = 2.5
        got = _logsumexp(a, axis=axis)
        want = logsumexp(a, axis=axis)
        assert np.array_equal(got, want)
        assert np.isneginf(got[0])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_all_neg_inf_slice_takes_the_direct_form(self, axis):
        a = np.random.default_rng(4).normal(size=(6, 5))
        np.moveaxis(a, axis, 0)[:, 2] = -np.inf  # one whole slice along axis
        got = _logsumexp(a, axis=axis)
        assert np.array_equal(got, logsumexp(a, axis=axis))
        assert np.isneginf(got[2]) and np.isfinite(np.delete(got, 2)).all()
