"""Reductions of richer designs to the inference-for-the-mean problem.

Each adapter produces effective observations whose ordinary t-test matches
the conventional robust test for the original problem (two-sample
difference, GMM scalar parameter, clustered regression coefficient) up to
documented finite-sample divisor conventions, so the robust test applies
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, LinearAlgebraError


@dataclass(frozen=True)
class ClusteredDataset:
    """Outcome, regressor of interest, controls (with intercept), labels."""

    y: np.ndarray
    x: np.ndarray
    controls: np.ndarray
    clusters: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        n = y.size
        if np.asarray(self.x).shape != (n,) or np.asarray(self.clusters).shape[0] != n:
            raise InvalidArgument("outcome, regressor and cluster labels must align")
        z = np.asarray(self.controls, dtype=float)
        if z.ndim != 2 or z.shape[0] != n:
            raise InvalidArgument("controls must be a (n_obs, p) matrix")
        if np.linalg.matrix_rank(z) < z.shape[1]:
            raise LinearAlgebraError(
                f"controls matrix is rank deficient (cond={np.linalg.cond(z):.3e})"
            )

    @property
    def n_clusters(self) -> int:
        return np.unique(np.asarray(self.clusters)).size


@dataclass(frozen=True)
class GmmProblem:
    """Per-unit moment evaluations at the estimate plus first-order pieces.

    ``jacobian`` is d E[g] / d theta' of one unit's moment row, the Jacobian
    of the unit average that ``finite_difference_jacobian`` returns, also
    when clusters hold several units."""

    moments: np.ndarray  # (n_units, r) rows g(theta_hat, z_j)
    jacobian: np.ndarray  # (r, q) estimate of d E[g] / d theta' per unit
    weight: np.ndarray  # (r, r) positive definite
    theta_hat: np.ndarray  # (q,), first coordinate is the parameter of interest
    clusters: np.ndarray  # (n_units,)

    def __post_init__(self):
        g = np.asarray(self.moments, dtype=float)
        r = g.shape[1]
        jac = np.asarray(self.jacobian, dtype=float)
        psi = np.asarray(self.weight, dtype=float)
        if jac.shape[0] != r or psi.shape != (r, r):
            raise InvalidArgument("jacobian/weight dimensions do not match the moments")
        if np.asarray(self.clusters).shape[0] != g.shape[0]:
            raise InvalidArgument("cluster labels must align with moment rows")
        try:
            np.linalg.cholesky(0.5 * (psi + psi.T))
        except np.linalg.LinAlgError:
            raise LinearAlgebraError("weighting matrix is not positive definite") from None


def two_sample_w(sample1, sample2) -> np.ndarray:
    """Effective observations for a difference of two equal-sized means."""
    a = np.asarray(sample1, dtype=float)
    b = np.asarray(sample2, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise InvalidArgument("the two samples must be one-dimensional and equal-sized")
    mean_a, mean_b = a.mean(), b.mean()
    diff = mean_a - mean_b
    return np.concatenate([diff + 2.0 * (a - mean_a), diff - 2.0 * (b - mean_b)])


def _cluster_sums(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sum rows of ``values`` within clusters; clusters ordered by sorted label."""
    uniq, inv = np.unique(labels, return_inverse=True)
    if values.ndim == 1:
        return np.bincount(inv, weights=values, minlength=uniq.size)
    out = np.empty((uniq.size, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(inv, weights=values[:, j], minlength=uniq.size)
    return out


def gmm_w(p: GmmProblem) -> np.ndarray:
    """Effective observations for the first GMM coordinate, one per cluster.

    Uses the influence-function deviation -(J'WJ)^{-1} J'W G_i, whose sign
    makes the plain mean problem reduce to W_i = z_i (the estimator moves
    with the moments, against the negative Jacobian).  J is the per-unit
    Jacobian, so a cluster's summed moment G_i has on average
    n_units / n_clusters times it, and the deviation is scaled by
    n_clusters / n_units; with one unit per cluster the factor is 1.
    """
    g = np.asarray(p.moments, dtype=float)
    g_hat = _cluster_sums(g, np.asarray(p.clusters))
    jac = np.asarray(p.jacobian, dtype=float)
    psi = np.asarray(p.weight, dtype=float)
    jtp = jac.T @ psi
    h = jtp @ jac
    cond = np.linalg.cond(h)
    if not np.isfinite(cond) or cond > 1e12:
        raise LinearAlgebraError(f"J'WJ is numerically singular (cond={cond:.3e})")
    a = -np.linalg.solve(h, jtp)[0]  # minus first row of (J'WJ)^{-1} J'W
    beta_hat = float(np.asarray(p.theta_hat, dtype=float)[0])
    return beta_hat + (g_hat @ a) * (g_hat.shape[0] / g.shape[0])


def _residualize(target: np.ndarray, z: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(z)
    return target - q @ (q.T @ target)


def _ols_cluster_scores(d: ClusteredDataset) -> tuple[float, np.ndarray, np.ndarray]:
    """OLS coefficient of the regressor, the regressor residualized on the
    controls, and the cluster sums of that residual times the OLS residual."""
    y = np.asarray(d.y, dtype=float)
    x = np.asarray(d.x, dtype=float)
    z = np.asarray(d.controls, dtype=float)
    design = np.column_stack([x, z])
    # lstsq's rank uses matrix_rank's default tolerance, so no second SVD
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise LinearAlgebraError(
            f"design matrix is rank deficient (cond={np.linalg.cond(design):.3e})"
        )
    u_hat = y - design @ coef
    x_til = _residualize(x, z)
    return float(coef[0]), x_til, _cluster_sums(x_til * u_hat, np.asarray(d.clusters))


def clustered_ols_w(d: ClusteredDataset) -> np.ndarray:
    """Effective observations for the regressor coefficient, one per cluster.

    Uses Frisch-Waugh residualization of the regressor on the controls; the
    normalizer is the average sum of squared residualized regressors per
    cluster (the printed first-power form does not reproduce the GMM
    equivalence).
    """
    beta_hat, x_til, h = _ols_cluster_scores(d)
    scale = float(x_til @ x_til) / d.n_clusters
    if scale <= 0.0:
        raise LinearAlgebraError("regressor is collinear with the controls")
    return beta_hat + h / scale


def _cr0_se(x_til: np.ndarray, h: np.ndarray) -> float:
    """CR0 standard error of the regressor coefficient from the residualized
    regressor and the cluster scores of ``_ols_cluster_scores``."""
    return float(np.sqrt(float(h @ h)) / float(x_til @ x_til))


def cluster_robust_t(d: ClusteredDataset, beta0: float) -> float:
    """CR0 cluster-robust t statistic for the regressor coefficient."""
    beta_hat, x_til, h = _ols_cluster_scores(d)
    return (beta_hat - beta0) / _cr0_se(x_til, h)


def finite_difference_jacobian(g_fn, theta, z, eps: float = 1e-6) -> np.ndarray:
    """Central differences of the averaged moment function in theta.

    ``g_fn(theta, z)`` must return an (n_units, r) array; the result is the
    (r, q) Jacobian of its row average.
    """
    theta = np.asarray(theta, dtype=float)
    q = theta.size
    base = np.asarray(g_fn(theta, z), dtype=float)
    r = base.shape[1]
    jac = np.empty((r, q))
    for j in range(q):
        step = eps * max(1.0, abs(theta[j]))
        hi = theta.copy()
        hi[j] += step
        lo = theta.copy()
        lo[j] -= step
        ghi = np.asarray(g_fn(hi, z), dtype=float).mean(axis=0)
        glo = np.asarray(g_fn(lo, z), dtype=float).mean(axis=0)
        jac[:, j] = (ghi - glo) / (2.0 * step)
    return jac
