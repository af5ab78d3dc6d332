import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtt.adapters import (
    ClusteredDataset,
    GmmProblem,
    cluster_robust_t,
    clustered_ols_w,
    finite_difference_jacobian,
    gmm_w,
    two_sample_w,
)
from rtt.errors import InvalidArgument, LinearAlgebraError


class TestTwoSample:
    def test_constant_samples(self):
        w = two_sample_w(np.full(5, 3.0), np.full(5, 1.0))
        assert_allclose(w, np.full(10, 2.0))

    def test_mean_identity(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=25), rng.normal(size=25)
        w = two_sample_w(a, b)
        assert_allclose(w.mean(), a.mean() - b.mean(), rtol=1e-14)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(InvalidArgument):
            two_sample_w(np.zeros(4), np.zeros(5))

    def test_t_statistic_equivalence(self):
        # t on the effective observations equals the unpooled two-sample t
        # up to the sqrt((n-1)/(n-2)) variance-divisor factor
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=30), 0.5 + rng.normal(size=30) * 2.0
        w = two_sample_w(a, b)
        n = w.size
        t_w = w.mean() / (w.std(ddof=1) / math.sqrt(n))
        t_2s = (a.mean() - b.mean()) / math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / (n / 2))
        assert_allclose(t_w, t_2s * math.sqrt((n - 1.0) / (n - 2.0)), rtol=1e-10)


class TestGmm:
    def test_just_identified_mean_problem(self):
        # g = z - theta with unit weight and singleton clusters: W_i = z_i
        rng = np.random.default_rng(2)
        z = rng.normal(size=40)
        prob = GmmProblem(
            moments=(z - z.mean())[:, None],
            jacobian=np.array([[-1.0]]),
            weight=np.eye(1),
            theta_hat=np.array([z.mean()]),
            clusters=np.arange(40),
        )
        assert_allclose(gmm_w(prob), z, rtol=1e-12)

    def test_mean_equals_estimate_when_moments_sum_to_zero(self):
        rng = np.random.default_rng(3)
        # exactly identified IV-style moments at the solution
        n = 60
        x = rng.normal(size=n)
        zz = x + 0.5 * rng.normal(size=n)
        beta = 0.7
        y = beta * x + rng.normal(size=n)
        bhat = float((zz * y).sum() / (zz * x).sum())
        g = (zz * (y - bhat * x))[:, None]
        prob = GmmProblem(
            moments=g,
            jacobian=np.array([[-float((zz * x).mean())]]),
            weight=np.eye(1),
            theta_hat=np.array([bhat]),
            clusters=np.arange(n),
        )
        w = gmm_w(prob)
        assert_allclose(w.mean(), bhat, rtol=1e-12)

    def test_sandwich_t_equivalence(self):
        # t test on the effective observations reproduces the cluster-robust
        # GMM t up to the sqrt((n-1)/n) sample-variance divisor; the Jacobian
        # is the per-unit one, so the sandwich divides by the unit count
        rng = np.random.default_rng(4)
        n_units, r, q = 90, 3, 2
        z = rng.normal(size=(n_units, r))
        jac = rng.normal(size=(r, q))
        psi = np.eye(r)
        theta_hat = np.array([0.3, -0.2])
        clusters = rng.integers(0, 30, size=n_units)
        g = z - z.mean(axis=0)  # moments summing to zero at the estimate
        prob = GmmProblem(g, jac, psi, theta_hat, clusters)
        w = gmm_w(prob)
        n = w.size
        beta0 = 0.1
        t_w = (w.mean() - beta0) / (w.std(ddof=1) / math.sqrt(n))
        # sandwich: a' Ghat_i per cluster
        a = np.linalg.solve(jac.T @ psi @ jac, jac.T @ psi)[0]
        uniq, inv = np.unique(clusters, return_inverse=True)
        g_hat = np.zeros((uniq.size, r))
        for j in range(r):
            g_hat[:, j] = np.bincount(inv, weights=g[:, j])
        s = g_hat @ a
        se = math.sqrt(float(s @ s)) / n_units
        t_cr = (theta_hat[0] - beta0) / se
        assert_allclose(t_w, t_cr * math.sqrt((n - 1.0) / n), rtol=1e-10)

    def test_singular_weighting_rejected(self):
        with pytest.raises(LinearAlgebraError):
            GmmProblem(
                moments=np.zeros((5, 2)),
                jacobian=np.eye(2),
                weight=np.zeros((2, 2)),
                theta_hat=np.zeros(2),
                clusters=np.arange(5),
            )

    def test_singular_jwj_rejected(self):
        with pytest.raises(LinearAlgebraError, match="cond"):
            gmm_w(
                GmmProblem(
                    moments=np.random.default_rng(0).normal(size=(5, 2)),
                    jacobian=np.zeros((2, 1)),
                    weight=np.eye(2),
                    theta_hat=np.zeros(1),
                    clusters=np.arange(5),
                )
            )

    def test_ols_moment_reproduces_clustered_ols(self):
        # the per-observation OLS moment with its finite-difference Jacobian
        # gives clustered_ols_w's effective observations, 10 units a cluster
        d = _cluster_data(seed=12, n_cl=40, t_i=10)
        design = np.column_stack([d.x, d.controls])

        def g_fn(theta, data):
            return data * (d.y - data @ theta)[:, None]

        theta_hat = np.linalg.lstsq(design, d.y, rcond=None)[0]
        prob = GmmProblem(
            moments=g_fn(theta_hat, design),
            jacobian=finite_difference_jacobian(g_fn, theta_hat, design),
            weight=np.eye(design.shape[1]),
            theta_hat=theta_hat,
            clusters=d.clusters,
        )
        assert_allclose(gmm_w(prob), clustered_ols_w(d), rtol=1e-8)

    def test_finite_difference_jacobian(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(50, 2))

        def g_fn(theta, zz):
            return zz - theta[None, :]

        jac = finite_difference_jacobian(g_fn, np.array([0.3, -0.1]), z)
        assert_allclose(jac, -np.eye(2), atol=1e-8)


def _cluster_data(seed=6, n_cl=25, t_i=8, beta=0.4):
    rng = np.random.default_rng(seed)
    n = n_cl * t_i
    x = rng.normal(size=n)
    z = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
    labels = np.repeat(np.arange(n_cl), t_i)
    nu = rng.normal(size=n_cl)
    y = beta * x + z @ np.array([0.5, -0.2, 0.1, 0.3]) + nu[labels] * x + rng.normal(size=n)
    return ClusteredDataset(y=y, x=x, controls=z, clusters=labels)


class TestClusteredOls:
    def test_mean_equals_beta_hat(self):
        d = _cluster_data()
        w = clustered_ols_w(d)
        design = np.column_stack([d.x, d.controls])
        beta_hat = np.linalg.lstsq(design, d.y, rcond=None)[0][0]
        assert_allclose(w.mean(), beta_hat, rtol=1e-10)
        assert w.size == d.n_clusters

    def test_intercept_only_reduction(self):
        # singleton clusters, centered regressor, intercept-only controls:
        # W_i = beta_hat + x_til_i u_i / (n^{-1} sum x_til^2)
        rng = np.random.default_rng(7)
        n = 40
        x = rng.normal(size=n)
        y = 0.8 * x + rng.normal(size=n)
        d = ClusteredDataset(y=y, x=x, controls=np.ones((n, 1)), clusters=np.arange(n))
        w = clustered_ols_w(d)
        design = np.column_stack([x, np.ones(n)])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        u = y - design @ coef
        x_til = x - x.mean()
        want = coef[0] + x_til * u / (x_til @ x_til / n)
        assert_allclose(w, want, rtol=1e-9)

    def test_t_statistic_equivalence(self):
        d = _cluster_data()
        w = clustered_ols_w(d)
        n = w.size
        beta0 = 0.1
        t_w = (w.mean() - beta0) / (w.std(ddof=1) / math.sqrt(n))
        t_cr = cluster_robust_t(d, beta0)
        assert_allclose(t_w, t_cr * math.sqrt((n - 1.0) / n), rtol=1e-10)

    def test_row_permutation_within_cluster(self):
        d = _cluster_data()
        rng = np.random.default_rng(8)
        perm = np.concatenate(
            [rng.permutation(np.flatnonzero(d.clusters == c)) for c in range(d.n_clusters)]
        )
        d2 = ClusteredDataset(
            y=d.y[perm], x=d.x[perm], controls=d.controls[perm], clusters=d.clusters[perm]
        )
        assert_allclose(clustered_ols_w(d2), clustered_ols_w(d), rtol=1e-9)

    def test_label_permutation_permutes_w(self):
        d = _cluster_data()
        relabel = {c: (c + 7) % d.n_clusters for c in range(d.n_clusters)}
        new_labels = np.array([relabel[c] for c in d.clusters])
        d2 = ClusteredDataset(y=d.y, x=d.x, controls=d.controls, clusters=new_labels)
        w, w2 = clustered_ols_w(d), clustered_ols_w(d2)
        # cluster c of the original appears as relabel[c] in the new output
        order = np.argsort([relabel[c] for c in range(d.n_clusters)])
        assert_allclose(w2, w[order], rtol=1e-9)

    def test_rank_deficiency_rejected(self):
        rng = np.random.default_rng(9)
        n = 30
        z = np.column_stack([np.ones(n), rng.normal(size=n)])
        z = np.column_stack([z, z[:, 1]])  # duplicated column
        with pytest.raises(LinearAlgebraError):
            ClusteredDataset(y=rng.normal(size=n), x=rng.normal(size=n), controls=z,
                             clusters=np.arange(n))

    def test_regressor_collinear_with_controls_rejected(self):
        # one design check serves the effective observations and the CR0 t
        rng = np.random.default_rng(9)
        n = 30
        z = np.column_stack([np.ones(n), rng.normal(size=n)])
        d = ClusteredDataset(y=rng.normal(size=n), x=2.0 * z[:, 1], controls=z, clusters=np.arange(n))
        for fit in (clustered_ols_w, lambda d: cluster_robust_t(d, 0.0)):
            with pytest.raises(LinearAlgebraError, match="design matrix is rank deficient"):
                fit(d)
