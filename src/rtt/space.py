"""Nuisance parameter space: membership tests and sampling grids.

The null space restricts each tail's (kappa, eta, xi) and couples the two
tails through moment conditions evaluated on the extreme value approximation
extended to the most extreme n0 observations.  All moment sums are analytic
(gamma-function moments of the GEV block), so membership is deterministic
and exact to floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidArgument
from .gev import TailParams, order_stat_moment, order_stat_moment_vectors
from .model import ThetaFull

# Upper truncation of the location grid above its lower bound; the space is
# unbounded in kappa for non-positive shapes, but far locations produce fully
# compressed tails that the switching rule absorbs.
KAPPA_SPAN = 12.0

# Highest shape value placed on grids; membership itself uses the strict
# xi < 1/2 constraint.
XI_GRID_MAX = 0.499

# Lowest scale of interior draws, as a fraction of the (d)-binding scale, and
# the most draws ``sample_interior`` makes.
_INTERIOR_ETA_LO_FRAC = 2e-3
_INTERIOR_TRIES = 200_000


@dataclass(frozen=True)
class SpaceConfig:
    """Extension horizon n0 and tail block size k."""

    n0: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise InvalidArgument("tail block size k must be at least 2")
        if self.n0 < 2 * self.k + 2:
            raise InvalidArgument("extension horizon n0 must be at least 2k + 2")

    @property
    def half(self) -> int:
        return self.n0 // 2


def tail_mean(i: int, theta_s: TailParams) -> float:
    """E[Y_i] = eta * (E[X_i] + kappa)."""
    return theta_s.eta * (order_stat_moment(i, theta_s.xi, 1) + theta_s.kappa)


def tail_second_moment(i: int, theta_s: TailParams) -> float:
    """E[Y_i^2] = eta^2 * (E[X_i^2] + 2 kappa E[X_i] + kappa^2)."""
    m1 = order_stat_moment(i, theta_s.xi, 1)
    m2 = order_stat_moment(i, theta_s.xi, 2)
    return theta_s.eta ** 2 * (m2 + 2.0 * theta_s.kappa * m1 + theta_s.kappa ** 2)


def _moment_sums(theta_s: TailParams, cfg: SpaceConfig):
    """Per-tail moment aggregates used by the membership constraints."""
    m1, m2 = order_stat_moment_vectors(cfg.n0, theta_s.xi)
    ey = theta_s.eta * (m1 + theta_s.kappa)
    ey2 = theta_s.eta ** 2 * (m2 + 2.0 * theta_s.kappa * m1 + theta_s.kappa ** 2)
    return ey, ey2


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    first_violation: str | None


# Relative slack for the moment-sum inequalities so that exactly-binding grid
# points (eta or kappa solved from the constraint) are not excluded by the
# rounding of a 50-term sum.  The sign constraints (f), (g) stay exact.
_REL_TOL = 1e-9


def check_membership(theta: ThetaFull, cfg: SpaceConfig) -> MembershipReport:
    """Evaluate restrictions (a)-(h); reports the first violated one."""
    tails = (("R", theta.right), ("L", theta.left))
    # (a), (b) need no moments and guard the moment computations below.
    for label, t in tails:
        if not t.xi < 0.5:
            return MembershipReport(False, f"(a):{label}")
    for label, t in tails:
        if t.xi > 0.0 and not t.kappa <= 1.0 / t.xi:
            return MembershipReport(False, f"(b):{label}")
    sums = {}
    for label, t in tails:
        ey, ey2 = _moment_sums(t, cfg)
        sums[label] = (ey, ey2)
        if not ey.sum() >= -_REL_TOL * np.abs(ey).sum():
            return MembershipReport(False, f"(c):{label}")
        if not ey2[cfg.k : cfg.n0 - cfg.k].sum() <= 2.0 * (1.0 + _REL_TOL):
            return MembershipReport(False, f"(d):{label}")
    ey_r, ey2_r = sums["R"]
    ey_l, ey2_l = sums["L"]
    ek_r, ek_l = ey_r[cfg.k - 1], ey_l[cfg.k - 1]
    if not ek_r + ek_l >= -_REL_TOL * (abs(ek_r) + abs(ek_l)):
        return MembershipReport(False, "(e)")
    half = cfg.half
    sum_l, sum_r = ey_l[:half].sum(), ey_r[:half].sum()
    if sum_l > sum_r and not ey_r[half - 1] > 0.0:
        return MembershipReport(False, "(f)")
    if sum_r > sum_l and not ey_l[half - 1] > 0.0:
        return MembershipReport(False, "(g)")
    if not ey2_l[cfg.k : half].sum() + ey2_r[cfg.k : half].sum() <= 2.0 * (1.0 + _REL_TOL):
        return MembershipReport(False, "(h)")
    return MembershipReport(True, None)


def contains(theta: ThetaFull, cfg: SpaceConfig) -> bool:
    return check_membership(theta, cfg).ok


def single_tail_ok(theta_s: TailParams, cfg: SpaceConfig) -> bool:
    """Restrictions (a)-(d) on one tail (the single-tail null space)."""
    if not theta_s.xi < 0.5:
        return False
    if theta_s.xi > 0.0 and not theta_s.kappa <= 1.0 / theta_s.xi:
        return False
    ey, ey2 = _moment_sums(theta_s, cfg)
    return (
        ey.sum() >= -_REL_TOL * np.abs(ey).sum()
        and ey2[cfg.k : cfg.n0 - cfg.k].sum() <= 2.0 * (1.0 + _REL_TOL)
    )


def kappa_min(xi: float, cfg: SpaceConfig) -> float:
    """Smallest location satisfying the sum-of-means constraint (c)."""
    m1, _ = order_stat_moment_vectors(cfg.n0, xi)
    return -float(m1.mean())


def kappa_max(xi: float, cfg: SpaceConfig) -> float:
    """Grid truncation: the inward-shift bound (b) for heavy shapes, else
    ``KAPPA_SPAN`` above the lowest location."""
    hi = kappa_min(xi, cfg) + KAPPA_SPAN
    if xi > 0.0:
        hi = min(hi, 1.0 / xi)
    return hi


def eta_max_d(kappa: float, xi: float, cfg: SpaceConfig) -> float:
    """Scale at which the middle second-moment constraint (d) binds exactly."""
    m1, m2 = order_stat_moment_vectors(cfg.n0, xi)
    s = (m2 + 2.0 * kappa * m1 + kappa ** 2)[cfg.k : cfg.n0 - cfg.k].sum()
    return float(np.sqrt(2.0 / s))


def eta_h_symmetric(kappa: float, xi: float, cfg: SpaceConfig) -> float:
    """Scale at which (h) binds exactly for a symmetric pair of this tail."""
    m1, m2 = order_stat_moment_vectors(cfg.n0, xi)
    s = (m2 + 2.0 * kappa * m1 + kappa ** 2)[cfg.k : cfg.half].sum()
    return float(np.sqrt(1.0 / s))


def single_tail_grid(
    cfg: SpaceConfig,
    n_xi: int,
    n_kappa: int,
    n_eta: int,
    eta_lo_frac: float = 0.05,
    include_h_binding: bool = False,
) -> list[TailParams]:
    """Deterministic grid over one tail's parameters satisfying (a)-(d).

    Scales are log-spaced up to the exact (d)-binding value, so the binding
    point itself is always on the grid.
    """
    out = []
    for xi in np.linspace(-0.5, XI_GRID_MAX, n_xi):
        k_lo = kappa_min(xi, cfg)
        k_hi = kappa_max(xi, cfg)
        for kappa in np.linspace(k_lo, k_hi, n_kappa):
            e_max = eta_max_d(kappa, xi, cfg)
            for eta in e_max * np.geomspace(eta_lo_frac, 1.0, n_eta):
                out.append(TailParams(float(kappa), float(eta), float(xi)))
            if include_h_binding:
                e_h = eta_h_symmetric(kappa, xi, cfg)
                if e_h < e_max:
                    out.append(TailParams(float(kappa), float(e_h), float(xi)))
    return [t for t in out if single_tail_ok(t, cfg)]


def boundary_grid(cfg: SpaceConfig, resolution: int) -> list[ThetaFull]:
    """Grid over the full space including (c)-, (d)- and (h)-binding points."""
    if resolution < 2:
        raise InvalidArgument("grid resolution must be at least 2")
    singles = single_tail_grid(
        cfg, resolution, resolution, resolution, include_h_binding=True
    )
    out = []
    seen = set()
    for a, b in itertools.product(singles, repeat=2):
        theta = ThetaFull(left=a, right=b)
        key = theta.astuple()
        if key in seen:
            continue
        seen.add(key)
        if contains(theta, cfg):
            out.append(theta)
    if not out:
        raise ConfigurationError("boundary grid is empty for this configuration")
    return out


def sample_interior(cfg: SpaceConfig, m: int, rng: np.random.Generator) -> list[ThetaFull]:
    """Random interior points of the space (rejection sampling, at most
    ``_INTERIOR_TRIES`` draws); scales are log-uniform from
    ``_INTERIOR_ETA_LO_FRAC`` of the (d)-binding scale up to it."""
    out = []
    tries = 0
    while len(out) < m and tries < _INTERIOR_TRIES:
        tries += 1
        tails = []
        for _ in range(2):
            xi = rng.uniform(-0.5, XI_GRID_MAX)
            kappa = rng.uniform(kappa_min(xi, cfg), kappa_max(xi, cfg))
            e_max = eta_max_d(kappa, xi, cfg)
            eta = e_max * np.exp(rng.uniform(np.log(_INTERIOR_ETA_LO_FRAC), 0.0))
            tails.append(TailParams(float(kappa), float(eta), float(xi)))
        theta = ThetaFull(left=tails[0], right=tails[1])
        if contains(theta, cfg):
            out.append(theta)
    if len(out) < m:
        raise ConfigurationError("interior sampling failed to reach the requested count")
    return out
