"""Joint generalized extreme value block of the k largest order statistics.

The k largest order statistics of a sample from a population with a
generalized Pareto upper tail are, after affine normalization, jointly
distributed as the vector X with

    {(1 + xi * X_j) ** (-1/xi)}_{j=1..k}  ~  {E_1 + ... + E_j}_{j=1..k}

where the E_l are i.i.d. unit exponentials (the xi = 0 forms are the
exponential limits).  This module provides exact sampling, the log density
of the affine family Y = eta * (X + kappa * e), and closed-form moments of
the X_j via the gamma representation Gamma_j ~ Gamma(j, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, polygamma, psi

from .errors import InvalidArgument, MomentUndefined

# |xi| below this routes to the exact Gumbel (xi = 0) branch; the generic
# power forms lose precision near zero shape.
XI_ZERO_TOL = 1e-6

# Arrays smaller than this are summed by numpy: below it, one reduction call
# costs less than the per-column calls of ``_row_sum``.
_ROW_SUM_MIN_SIZE = 1024


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of a float array, bit for bit, by column adds.

    numpy sums a row shorter than 8 left to right starting from 0.0, so the
    same adds in the same order give the same bits; a long row is summed
    pairwise, and a small array is cheaper in one reduction call.
    """
    k = a.shape[-1]
    if k >= 8 or a.size < _ROW_SUM_MIN_SIZE:
        return a.sum(axis=-1)
    out = 0.0 + a[..., 0]
    for j in range(1, k):
        out += a[..., j]
    return out


@dataclass(frozen=True)
class TailParams:
    """Location ``kappa``, scale ``eta`` > 0 and shape ``xi`` of one tail."""

    kappa: float
    eta: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise InvalidArgument(f"tail scale must be positive and finite, got {self.eta!r}")
        if not (math.isfinite(self.kappa) and math.isfinite(self.xi)):
            raise InvalidArgument("tail location and shape must be finite")

    def astuple(self) -> tuple[float, float, float]:
        return (self.kappa, self.eta, self.xi)


def _gamma_to_x(g: np.ndarray, xi: float) -> np.ndarray:
    """Map partial exponential sums to GEV order-statistic coordinates."""
    if abs(xi) < XI_ZERO_TOL:
        return -np.log(g)
    return np.expm1(-xi * np.log(g)) / xi


def sample_joint_tail(k: int, xi: float, rng: np.random.Generator, size: int | None = None):
    """Draw the k-vector X (weakly decreasing) of the joint GEV block.

    With ``size`` given, returns a ``(size, k)`` array of independent draws.
    Consumes ``rng.standard_exponential`` once with the full output shape.
    """
    if k < 1:
        raise InvalidArgument("tail block size k must be at least 1")
    shape = (k,) if size is None else (int(size), k)
    # partial sums in place, column by column: the sequential adds of cumsum
    gamma = rng.standard_exponential(shape)
    for j in range(1, k):
        gamma[..., j] += gamma[..., j - 1]
    return _gamma_to_x(gamma, xi)


def order_stat_moment(j: int, xi: float, order: int) -> float:
    """Exact E[X_j ** order] via Gamma_j ~ Gamma(j, 1), for order in {1, 2}."""
    if j < 1 or int(j) != j:
        raise InvalidArgument("order statistic index j must be a positive integer")
    if order not in (1, 2):
        raise InvalidArgument("only first and second moments are supported")
    if order * xi >= j:
        raise MomentUndefined(f"E[X_{j}^{order}] does not exist for xi={xi}")
    if abs(xi) < XI_ZERO_TOL:
        if order == 1:
            return float(-psi(j))
        return float(polygamma(1, j) + psi(j) ** 2)
    g1 = math.exp(gammaln(j - xi) - gammaln(j))
    if order == 1:
        return (g1 - 1.0) / xi
    g2 = math.exp(gammaln(j - 2.0 * xi) - gammaln(j))
    return (g2 - 2.0 * g1 + 1.0) / xi ** 2


@lru_cache(maxsize=1024)
def order_stat_moment_vectors(n: int, xi: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments of X_1..X_n as arrays (vectorized), read-only
    and kept for the 1,024 most recently used (n, xi): the space's
    membership checks ask for the same few shapes many times."""
    if n < 1:
        raise InvalidArgument("need at least one order statistic")
    if 2.0 * xi >= 1.0:
        raise MomentUndefined(f"E[X_1^2] does not exist for xi={xi}")
    idx = np.arange(1, n + 1, dtype=float)
    if abs(xi) < XI_ZERO_TOL:
        m1 = -psi(idx)
        m2 = polygamma(1, idx) + psi(idx) ** 2
    else:
        lg = gammaln(idx)
        g1 = np.exp(gammaln(idx - xi) - lg)
        g2 = np.exp(gammaln(idx - 2.0 * xi) - lg)
        m1, m2 = (g1 - 1.0) / xi, (g2 - 2.0 * g1 + 1.0) / xi ** 2
    for a in (m1, m2):
        a.flags.writeable = False
    return m1, m2


def log_tail_density(y, theta: TailParams):
    """Log density of Y = eta * (X + kappa e); -inf outside the support.

    Accepts a single k-vector or an ``(..., k)`` batch.  Inputs that are not
    weakly decreasing are outside the support and return -inf.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    ya = y[None, :] if scalar else y
    cols = np.array([theta.astuple()]).T
    out = log_tail_density_multi(ya.reshape(-1, ya.shape[-1]), *cols).reshape(ya.shape[:-1])
    out[~np.all(ya[..., :-1] >= ya[..., 1:], axis=-1)] = -np.inf
    return float(out[0]) if scalar else out


def tail_density(y, theta: TailParams):
    """Density of the affine GEV block; 0 outside the support."""
    return np.exp(log_tail_density(y, theta))


def log_tail_density_multi(y: np.ndarray, kappa: np.ndarray, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Log tail density of each row of ``y`` (m, k) under each parameter triple.

    Returns an (m, a) array for parameter vectors of length a; -inf outside
    the support.  Rows are assumed weakly decreasing (``log_tail_density``
    and the solver's pool check it).  The one f_T kernel of the package.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    kappa = np.asarray(kappa, dtype=float)
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    k = y.shape[-1]
    x = y[:, None, :] / eta[:, None] - kappa[:, None]  # (m, a, k)
    lead = -k * np.log(eta)
    near0 = np.abs(xi) < XI_ZERO_TOL
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if near0.any():
            gumbel = lead - np.exp(-x[..., -1]) - _row_sum(x)
            if near0.all():
                return gumbel
        t = 1.0 + xi[:, None] * x
        ok = (t[..., 0] > 0.0) & (t[..., -1] > 0.0) | near0
        logt = np.log(t, out=t)  # on the support every t is positive
        s = np.where(near0, 1.0, xi)
        out = lead - np.exp(-logt[..., -1] / s) - (1.0 + 1.0 / s) * _row_sum(logt)
    out[~ok] = -np.inf
    return np.where(near0, gumbel, out) if near0.any() else out
