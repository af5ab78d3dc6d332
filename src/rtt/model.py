"""The 2k+1 dimensional approximate parametric model for a two-tailed sample.

An observation consists of two standardized extreme blocks (one per tail,
each distributed as an affine GEV block) and a conditionally normal scalar
carrying the middle of the sample:

    Y* = ( eta_R (X_R + kappa_R e),
           eta_L (X_L + kappa_L e),
           Z + mu - eta_R m*(X_R) + eta_L m*(X_L) )

with Z standard normal independent of both blocks.  The module provides the
mean-shift functions m*/M*, exact sampling, the joint log density, the
single-heavy-tail approximation used when one tail is judged thin, and the
"extended" single tails whose recombination reproduces Y* exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, OutOfSupport
from .gev import TailParams, XI_ZERO_TOL, log_tail_density, sample_joint_tail

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


@dataclass(frozen=True)
class ThetaFull:
    """Nuisance point: left and right tail parameters."""

    left: TailParams
    right: TailParams

    def astuple(self):
        return self.left.astuple() + self.right.astuple()

    def swapped(self) -> "ThetaFull":
        return ThetaFull(left=self.right, right=self.left)


@dataclass(frozen=True)
class YStar:
    """One observation of the approximate model (both tails descending)."""

    y_right: np.ndarray
    y_left: np.ndarray
    y0: float
    mu: float = 0.0


@dataclass(frozen=True)
class ExtendedTail:
    """Single tail extended by a half-variance normal coordinate."""

    y_tail: np.ndarray
    y0e: float


def _m_star_raw(x, kappa, xi):
    """m* without domain checks; caller guarantees 1 + xi x > 0 and xi < 1.
    ``kappa`` and ``xi`` broadcast against ``x``.  The one m* kernel."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    near0 = np.abs(xi) < XI_ZERO_TOL
    if near0.any():
        gumbel = np.exp(-x) * (kappa + x + 1.0)
        if near0.all():
            return gumbel
    # (1+xi x)^(-1/xi) * (kappa + (1+xi x)/(xi(1-xi)) - 1/xi) simplifies to
    # the cancellation-free form below.
    s = np.where(near0, 1.0, xi)
    out = np.exp(-np.log1p(xi * x) / s) * (kappa + (x + 1.0) / (1.0 - xi))
    return np.where(near0, gumbel, out) if near0.any() else out


def m_star(x_k, kappa: float, xi: float):
    """Standardized conditional mean shift of the non-tail average."""
    if xi >= 1.0:
        raise InvalidArgument(f"m* requires xi < 1, got {xi}")
    x = np.asarray(x_k, dtype=float)
    if abs(xi) >= XI_ZERO_TOL and np.any(1.0 + xi * x <= 0.0):
        raise OutOfSupport("1 + xi*x_k must be positive")
    out = _m_star_raw(x, kappa, xi)
    return float(out) if np.isscalar(x_k) or out.ndim == 0 else out


def big_m_star(y, theta: TailParams):
    """M*(y, theta) = eta * m*(y_k / eta - kappa, kappa, xi); y_k = last element."""
    y = np.asarray(y, dtype=float)
    x_k = y[..., -1] / theta.eta - theta.kappa
    return theta.eta * m_star(x_k, theta.kappa, theta.xi)


def big_m_star_support(y_k, lf, kappa, eta, xi):
    """M* of last elements ``y_k`` under parameters that broadcast against
    them, 0 wherever the tail log density ``lf`` is -inf, so a parameter
    without density adds nothing there even where M* overflows."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ms = eta * _m_star_raw(y_k / eta - kappa, kappa, xi)
    return np.where(lf > -np.inf, ms, 0.0)


def extended_log_term(lf, ms, y0e):
    """Log f^e from log f_T, M* and y0e: a variance-1/2 normal in y0e + M*."""
    u = y0e + ms
    return lf - u * u - _LOG_SQRT_PI


def single_tail_log_term(lf, ms, base, var, log_var, shift):
    """Log single-tail density less ``shift`` from the heavy tail's log f_T and
    M*: a normal in base + M* = y0 - sum(y_thin) + M*, variance 1 + sum(y_thin^2)."""
    u = base + ms
    return lf - 0.5 * u * u / var - 0.5 * log_var - _LOG_SQRT_2PI - shift


def joint_log_term(lf_r, lf_l, ms_r, ms_l, y0_r, y0_l, shift):
    """Log joint density less ``shift`` from both tails' log f_T and M*: a
    standard normal in (y0_r + M*_r) - (y0_l + M*_l), with y0_r - y0_l = y0 - mu."""
    u = (y0_r + ms_r) - (y0_l + ms_l)
    return lf_r + lf_l - 0.5 * u * u - _LOG_SQRT_2PI - shift


def sample_ystar(theta: ThetaFull, mu: float, k: int, rng: np.random.Generator) -> YStar:
    """Draw one Y* observation; consumes rng as (X_R, X_L, Z)."""
    yr, yl, y0 = sample_ystar_block(theta, mu, k, rng, 1)
    return YStar(y_right=yr[0], y_left=yl[0], y0=float(y0[0]), mu=mu)


def sample_ystar_block(theta: ThetaFull, mu: float, k: int, rng: np.random.Generator, size: int):
    """Vectorized Y* draws: returns (y_right (n,k), y_left (n,k), y0 (n,))."""
    return ystar_of_standard(theta, mu, *sample_standard_block(theta, k, rng, size))


def sample_standard_block(theta: ThetaFull, k: int, rng: np.random.Generator, size: int):
    """The standardized draws (X_R (n,k), X_L (n,k), Z (n,)) of Y*, consumed
    from rng in that order; they depend on theta only through the shapes."""
    xr = sample_joint_tail(k, theta.right.xi, rng, size=size)
    xl = sample_joint_tail(k, theta.left.xi, rng, size=size)
    return xr, xl, rng.standard_normal(size)


def ystar_of_standard(theta: ThetaFull, mu: float, xr, xl, z):
    """Y* at (theta, mu) of standardized draws: the affine maps of the
    blocks, and Z shifted by mu and the blocks' m* terms."""
    tr, tl = theta.right, theta.left
    y0 = z + mu - tr.eta * _m_star_raw(xr[:, -1], tr.kappa, tr.xi) + tl.eta * _m_star_raw(
        xl[:, -1], tl.kappa, tl.xi
    )
    return tr.eta * (xr + tr.kappa), tl.eta * (xl + tl.kappa), y0


def _tail_parts(y, theta: TailParams):
    """(log f_T, M*) of each row of ``y`` under one tail's parameters."""
    lf = np.atleast_1d(log_tail_density(y, theta))
    return lf, big_m_star_support(y[..., -1], lf, *theta.astuple())


def log_joint_density_parts(y_right, y_left, y0, theta: ThetaFull, mu: float):
    """Log of f(y*|theta, mu) for batched blocks; -inf outside the support."""
    y_right = np.atleast_2d(np.asarray(y_right, dtype=float))
    y_left = np.atleast_2d(np.asarray(y_left, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    lf_r, mr = _tail_parts(y_right, theta.right)
    lf_l, ml = _tail_parts(y_left, theta.left)
    return joint_log_term(lf_r, lf_l, mr, ml, y0 - mu, 0.0, 0.0)


def joint_density(y: YStar, theta: ThetaFull, mu: float) -> float:
    """f(y*|theta, mu) = f_T(y_R) f_T(y_L) phi(y0 - mu + M*_R - M*_L)."""
    return float(np.exp(log_joint_density_parts(y.y_right, y.y_left, y.y0, theta, mu))[0])


def log_single_tail_density_parts(y_heavy, y_thin, y0, theta_s: TailParams):
    """Log single-tail density: heavy block explicit, thin block absorbed.

    The thin tail enters only through y0_tilde = y0 - sum(y_thin) and
    v_tilde = 1 + sum(y_thin^2); the heavy block carries the GEV density and
    the mean shift M*.
    """
    y_heavy = np.atleast_2d(np.asarray(y_heavy, dtype=float))
    y_thin = np.atleast_2d(np.asarray(y_thin, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    vt = 1.0 + (y_thin * y_thin).sum(axis=-1)
    lf, ms = _tail_parts(y_heavy, theta_s)
    return single_tail_log_term(lf, ms, y0 - y_thin.sum(axis=-1), vt, np.log(vt), 0.0)


def single_tail_density(y_heavy, y_thin, y0, theta_s: TailParams) -> float:
    return float(np.exp(log_single_tail_density_parts(y_heavy, y_thin, y0, theta_s))[0])


def sample_extended_tail(theta_s: TailParams, k: int, rng: np.random.Generator) -> ExtendedTail:
    """Draw Y^e = (eta (X + kappa e), Z / sqrt(2) - eta m*(X))."""
    y_tail, y0e = sample_extended_tail_block(theta_s, k, rng, 1)
    return ExtendedTail(y_tail=y_tail[0], y0e=float(y0e[0]))


def sample_extended_tail_block(theta_s: TailParams, k: int, rng: np.random.Generator, size: int):
    x = sample_joint_tail(k, theta_s.xi, rng, size=size)
    z = rng.standard_normal(size)
    y0e = z / math.sqrt(2.0) - theta_s.eta * _m_star_raw(x[:, -1], theta_s.kappa, theta_s.xi)
    return theta_s.eta * (x + theta_s.kappa), y0e


def log_extended_density_parts(y_tail, y0e, theta_s: TailParams):
    """Log f^e: tail density times a variance-1/2 normal in y0e + M*."""
    y_tail = np.atleast_2d(np.asarray(y_tail, dtype=float))
    y0e = np.atleast_1d(np.asarray(y0e, dtype=float))
    return extended_log_term(*_tail_parts(y_tail, theta_s), y0e)


def extended_density(e: ExtendedTail, theta_s: TailParams) -> float:
    return float(np.exp(log_extended_density_parts(e.y_tail, e.y0e, theta_s))[0])


def recombine(right_draw: ExtendedTail, left_draw: ExtendedTail) -> YStar:
    """Combine two extended tails into one both-tails observation.

    If ``right_draw`` is distributed under the right-tail parameter and
    ``left_draw`` under the left-tail parameter, the result is distributed
    exactly as Y* under (left, right) with mu = 0: the difference of the two
    independent half-variance normals is standard normal, and the m* shifts
    enter with the signs of the joint model.
    """
    return YStar(
        y_right=right_draw.y_tail,
        y_left=left_draw.y_tail,
        y0=right_draw.y0e - left_draw.y0e,
    )
