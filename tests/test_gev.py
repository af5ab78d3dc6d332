import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtt.errors import InvalidArgument, MomentUndefined
from rtt.gev import (
    TailParams,
    _ROW_SUM_MIN_SIZE,
    _gamma_to_x,
    _row_sum,
    log_tail_density,
    log_tail_density_multi,
    order_stat_moment,
    order_stat_moment_vectors,
    sample_joint_tail,
    tail_density,
)

EULER_GAMMA = 0.5772156649015329


class _ForcedExponentials:
    """Stub stream returning preset exponential increments."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_exponential(self, shape):
        return np.broadcast_to(self.values, shape).copy()


class TestSampling:
    def test_forced_gumbel_draw(self):
        # Gamma_1 = 1 under xi = 0 maps to X_1 = -log 1 = 0.
        x = sample_joint_tail(1, 0.0, _ForcedExponentials([1.0]))
        assert_allclose(x, [0.0], atol=1e-15)

    def test_forced_frechet_draw(self):
        # Gamma_1 = 4 under xi = 0.5: X_1 = (4^-0.5 - 1)/0.5 = -1.
        x = sample_joint_tail(1, 0.5, _ForcedExponentials([4.0]))
        assert_allclose(x, [-1.0], rtol=1e-14)

    def test_draws_are_decreasing_and_in_support(self):
        rng = np.random.default_rng(7)
        x = sample_joint_tail(3, 0.4, rng, size=500)
        assert np.all(x[:, :-1] >= x[:, 1:])
        assert np.all(1.0 + 0.4 * x[:, -1] > 0.0)

    def test_zero_block_size_rejected(self):
        with pytest.raises(InvalidArgument):
            sample_joint_tail(0, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [1, 4, 7])
    @pytest.mark.parametrize("xi", [-0.3, 0.0, 0.4])
    @pytest.mark.parametrize("size", [None, 3000])
    def test_partial_sums_match_cumsum(self, k, xi, size):
        got = sample_joint_tail(k, xi, np.random.default_rng(k), size=size)
        shape = (k,) if size is None else (size, k)
        gamma = np.cumsum(np.random.default_rng(k).standard_exponential(shape), axis=-1)
        assert np.array_equal(got, _gamma_to_x(gamma, xi))


class TestRowSum:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_bit_identical_to_numpy_sum(self, k, dtype):
        rng = np.random.default_rng(k)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        # 2-D and 3-D on both sides of the small-array fallback, a strided
        # view, rows of negative zeros, and specials mixed into wide ranges
        cases = []
        with np.errstate(over="ignore"):
            for shape in [(2, k), (3000, k), (3, 5, k), (40, 30, k)]:
                a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)).astype(dtype)
                b = a.copy()
                hit = rng.random(shape) < 0.3
                b[hit] = rng.choice(specials, hit.sum())
                cases += [a, b]
        cases.append(rng.standard_normal((3000, 2 * k)).astype(dtype)[:, ::2])
        cases.append(np.full((3000, k), -0.0, dtype=dtype))
        assert min(c.size for c in cases) < _ROW_SUM_MIN_SIZE <= max(c.size for c in cases)
        with np.errstate(over="ignore", invalid="ignore"):
            for a in cases:
                got, want = _row_sum(a), a.sum(axis=-1)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMoments:
    def test_gumbel_first_moment_is_euler_gamma(self):
        assert_allclose(order_stat_moment(1, 0.0, 1), EULER_GAMMA, rtol=1e-12)

    def test_frechet_half_first_moment(self):
        # E[Gamma_1^{-1/2}] = Gamma(1/2) = sqrt(pi).
        assert_allclose(order_stat_moment(1, 0.5, 1), (math.sqrt(math.pi) - 1.0) / 0.5, rtol=1e-12)

    def test_second_gumbel_order_statistic_mean(self):
        assert_allclose(order_stat_moment(2, 0.0, 1), EULER_GAMMA - 1.0, rtol=1e-12)

    def test_nonexistent_moment_raises(self):
        with pytest.raises(MomentUndefined):
            order_stat_moment(1, 0.5, 2)

    def test_vector_moments_match_scalar(self):
        for xi in (-0.5, -0.1, 0.0, 0.3, 0.45):
            m1, m2 = order_stat_moment_vectors(6, xi)
            for j in range(1, 7):
                assert_allclose(m1[j - 1], order_stat_moment(j, xi, 1), rtol=1e-12)
                assert_allclose(m2[j - 1], order_stat_moment(j, xi, 2), rtol=1e-12)

    @pytest.mark.parametrize("xi", [-0.5, 0.0, 0.25, 0.4])
    def test_monte_carlo_agreement(self, xi):
        rng = np.random.default_rng(123)
        x = sample_joint_tail(4, xi, rng, size=200_000)
        for j in (1, 3):
            sample = x[:, j - 1]
            mean = sample.mean()
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(mean - order_stat_moment(j, xi, 1)) < 4.5 * se


class TestTailDensity:
    def test_standard_gumbel_at_zero(self):
        assert_allclose(tail_density([0.0], TailParams(0.0, 1.0, 0.0)), math.exp(-1.0), rtol=1e-12)

    def test_out_of_support_is_zero(self):
        assert tail_density([2.0], TailParams(0.0, 1.0, -1.0)) == 0.0

    def test_non_decreasing_input_is_zero(self):
        assert tail_density([0.0, 1.0], TailParams(0.0, 1.0, 0.2)) == 0.0

    def test_normalization_by_monte_carlo(self):
        # Importance-sample the integral of f_T over {y1 >= y2} with a heavy
        # t(1.5) reference so the weights have finite variance.
        from scipy import stats

        theta = TailParams(0.3, 1.2, 0.2)
        rng = np.random.default_rng(42)
        ref = stats.t(df=1.5, scale=4.0)
        y = ref.rvs(size=(400_000, 2), random_state=rng)
        logref = ref.logpdf(y).sum(axis=1)
        logf = log_tail_density(np.sort(y, axis=1)[:, ::-1], theta)
        # Only ordered draws count; sorting double-counts, so halve.
        w = np.exp(logf - logref) * 0.5
        est = w.mean()
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(est - 1.0) < max(0.01, 4.0 * se)

    def test_scale_location_equivariance(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.normal(size=(50, 3)), axis=1)[:, ::-1]
        base = log_tail_density(x, TailParams(0.0, 1.0, 0.25))
        for kappa, eta in [(0.7, 0.5), (-1.2, 3.0)]:
            y = eta * (x + kappa)
            shifted = log_tail_density(y, TailParams(kappa, eta, 0.25))
            assert_allclose(shifted + 3 * np.log(eta), base, rtol=1e-10)

    def test_positive_shape_pareto_support(self):
        # kappa = 1/xi makes the support of eta (X + kappa e) positive orthant.
        rng = np.random.default_rng(3)
        xi = 0.4
        x = sample_joint_tail(4, xi, rng, size=2000)
        y = 1.7 * (x + 1.0 / xi)
        assert np.all(y > 0.0)

    def test_multi_matches_single(self):
        rng = np.random.default_rng(5)
        y = np.sort(rng.normal(size=(40, 4)), axis=1)[:, ::-1] + 1.0
        thetas = [
            TailParams(0.1, 0.8, -0.3),
            TailParams(0.5, 2.0, 0.0),  # Gumbel
            TailParams(2.5, 0.3, 0.4),
            TailParams(2.0, 0.5, -0.5),  # support ends inside the rows
            TailParams(0.3, 1.3, 5e-7),  # Gumbel branch at a nonzero shape
        ]
        got = log_tail_density_multi(
            y,
            np.array([t.kappa for t in thetas]),
            np.array([t.eta for t in thetas]),
            np.array([t.xi for t in thetas]),
        )
        assert 0 < np.isinf(got[:, 3]).sum() < y.shape[0]
        for a, t in enumerate(thetas):
            assert np.array_equal(got[:, a], log_tail_density(y, t))

    def test_invalid_scale_rejected(self):
        with pytest.raises(InvalidArgument):
            TailParams(0.0, 0.0, 0.1)


class TestSamplingDensityConsistency:
    def test_sample_moments_match_density_moments(self):
        # Empirical mean of X_2 under sampling agrees with the closed form,
        # which itself integrates the tail density.
        rng = np.random.default_rng(11)
        for xi in (-0.3, 0.2):
            x = sample_joint_tail(3, xi, rng, size=300_000)
            m = x[:, 1]
            se = m.std(ddof=1) / math.sqrt(m.size)
            assert abs(m.mean() - order_stat_moment(2, xi, 1)) < 4.0 * se
