"""Numerical determination of the robust test and its runtime evaluator.

The composite test rejects only when four conditions hold simultaneously: a
blended-critical-value gate on the full-sample statistic, two single-tail
likelihood-ratio conditions (one per tail, each softened by the opposite
tail's switching index), and a two-tail likelihood-ratio condition.  The
solver's stages and ``TestEvaluator`` decide with the same formulas: the
gate of ``_gate_of_sums``, and likelihood-ratio conditions that hold where
their shifted denominators, weighted sums over atoms of exp(min(term,
_EXP_CAP)) with the terms of ``model.single_tail_log_term`` and
``model.joint_log_term``, are below 1.  The construction proceeds in four
stages over increasingly large parts of the nuisance space:

1. choose switching constants so the gate alone controls size where both
   tails switch with 90% probability;
2. determine the single-tail atoms so gate+single-tail-condition controls
   size when one tail rides the switching boundary and the other is heavy;
3. determine the full atoms so the complete test controls size when both
   tails are heavy;
4. spot-check the final test over a wide grid plus random interior points.

Stage 1 estimates the gate's null rejection probabilities by plain Monte
Carlo; stages 2 to 4 and ``estimate_rp`` estimate them with one importance
sampling estimator, ``_rp_of_entries``, over a pool of "extended" single
tails, each draw recombined with the K draws after it.  ``build_table``
builds the pool's one context, ``_PoolCtx``, right after the pool and hands
it to stages 2 to 4; it evaluates conditions 2 and 3 once, after stage 2,
and hands the entries where they hold to stages 3 and 4.  Stages 2 and 3
return their atoms as the table's ``S`` and ``F`` rows, the form the pool's
conditions, the spot check and ``TestEvaluator`` all read.
Progress is logged one line per iteration on the ``rtt.solver`` logger as

    lfd stage=<n> iter=<i> max_rp=<float> se=<float> worst=<theta> elapsed_s=<float>

which is the documented plain-text diagnostic format; stages 0 (before and
after the pool build), 1 and 4 log ``lfd stage=`` lines of their own, and
every such line ends in the wall seconds since its stage began.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import stats

from .errors import (
    CalibrationError,
    ConfigurationError,
    InvalidArgument,
    NonconvergenceError,
)
from .fa import DEFAULT_NODES, DEFAULT_XI_GRID, LogFaMemo, log_f_a_single
from .gev import (
    TailParams,
    _row_sum,
    log_tail_density_multi,
    sample_joint_tail,
)
from .model import (
    ThetaFull,
    big_m_star_support,
    extended_log_term,
    joint_log_term,
    sample_extended_tail_block,
    sample_ystar_block,
    single_tail_log_term,
)
from .space import (
    XI_GRID_MAX,
    SpaceConfig,
    boundary_grid,
    contains,
    eta_max_d,
    kappa_max,
    kappa_min,
    sample_interior,
    single_tail_grid,
    single_tail_ok,
)
from .table import FullAtomRow, SingleAtomRow, TestTable

logger = logging.getLogger("rtt.solver")

# Candidate switching constants, smallest first; stage 1 keeps the first pair
# for which the gate alone respects the level on the switching boundary.
DEFAULT_LADDER: tuple[tuple[float, float], ...] = (
    (0.05, 0.05),
    (0.10, 0.10),
    (0.15, 0.15),
    (0.20, 0.20),
    (0.25, 0.25),
    (0.30, 0.30),
    (0.40, 0.40),
    (0.50, 0.50),
    (0.70, 0.70),
    (1.00, 1.00),
    (1.50, 1.50),
)

# Shape cells and location offsets (above the lowest admissible location) of
# the switching-boundary sweep shared by stage 1 and the stage-2 thin side.
_BOUNDARY_XI_CELLS = (-0.3, 0.0, 0.2, 0.4)
_BOUNDARY_KAPPA_OFFSETS = (0.0, 2.0)
_BOUNDARY_ETA_FACTORS = (1.0, 0.3)  # thin-side scales, as fractions of eta*
_BOUNDARY_DRAWS = 30_000  # standardized tail draws per shape cell
_RP_DRAWS = 20_000  # Monte Carlo draws per boundary pair in stage 1


@dataclass(frozen=True)
class SwitchConstants:
    """Thresholds of the switching index: absolute level and spread ratio."""

    rho1: float
    rho_r: float

    def __post_init__(self):
        if not (self.rho1 > 0.0 and self.rho_r > 0.0):
            raise InvalidArgument("switching constants must be positive")


@dataclass(frozen=True)
class RpEstimate:
    rp: float
    se: float
    degenerate: bool = False


@dataclass
class IsPool:
    """Importance-sampling pool of extended single tails."""

    y_tail: np.ndarray
    y0e: np.ndarray
    proposal_logdens: np.ndarray
    K: int
    components: tuple[TailParams, ...] = ()

    def __post_init__(self):
        n = self.y_tail.shape[0]
        if n < 1:
            raise InvalidArgument("pool must contain at least one draw")
        if not 1 <= self.K < n:
            raise InvalidArgument("recombination count K must satisfy 1 <= K < N")
        if self.y0e.shape != (n,) or self.proposal_logdens.shape != (n,):
            raise InvalidArgument("pool arrays have inconsistent shapes")
        # the pool's tail densities skip the per-call ordering check
        if not np.all(self.y_tail[:, :-1] >= self.y_tail[:, 1:]):
            raise InvalidArgument("pool tail rows must be weakly decreasing")

    @property
    def n(self) -> int:
        return self.y_tail.shape[0]

    @property
    def k(self) -> int:
        return self.y_tail.shape[1]


def fmt_tail(t: TailParams) -> str:
    return f"{t.kappa:.4g}:{t.eta:.4g}:{t.xi:.4g}"


def fmt_theta(theta) -> str:
    if isinstance(theta, ThetaFull):
        return fmt_tail(theta.left) + "|" + fmt_tail(theta.right)
    return fmt_tail(theta)


def critical_values(alpha: float) -> tuple[float, float]:
    """Two-sided normal and heavy-df student-t critical values.

    The student degrees of freedom follow 80 + 10 log(alpha) with the
    natural logarithm, floored at 2.
    """
    cv_z = float(stats.norm.ppf(1.0 - alpha / 2.0))
    df = max(2.0, 80.0 + 10.0 * math.log(alpha))
    cv_t = float(stats.t.ppf(1.0 - alpha / 2.0, df))
    return cv_z, cv_t


def switching_index(y_tail, switch: SwitchConstants):
    """chi(Y) = max(0, min(Y1 - rho1, [Yk > 0](Y1/Yk - 1 - rho_r)))."""
    y = np.asarray(y_tail, dtype=float)
    y1 = y[..., 0]
    yk = y[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(yk > 0.0, y1 / np.where(yk > 0.0, yk, 1.0) - 1.0 - switch.rho_r, 0.0)
    return np.maximum(0.0, np.minimum(y1 - switch.rho1, ratio))


def _gate_of_sums(y0, s_r, s_l, q_r, q_l, cv_z: float, cv_t: float):
    """Statistic t and critical value cv of the gate (condition 1), which
    holds where |t| > cv, from each tail's row sums s and sums of squares q;
    cv blends the normal and student-t values by tail weight.  The one gate:
    the runtime and stage 1 reach it through ``gate_values``, and the pool's
    pair index calls it on recombined sums."""
    t = (np.asarray(y0, dtype=float) + s_r - s_l) / np.sqrt(1.0 + q_r + q_l)
    w = 1.0 / (1.0 + np.asarray(q_r + q_l, dtype=float))
    return t, w * cv_z + (1.0 - w) * cv_t


def gate_values(y_right, y_left, y0, cv_z: float, cv_t: float):
    """Row-wise gate statistic t and critical value cv of tail blocks."""
    yr = np.atleast_2d(np.asarray(y_right, dtype=float))
    yl = np.atleast_2d(np.asarray(y_left, dtype=float))
    return _gate_of_sums(y0, _row_sum(yr), _row_sum(yl), _row_sum(yr * yr), _row_sum(yl * yl), cv_z, cv_t)


def _sorted_tail_parts(y_tail: np.ndarray, t: TailParams) -> tuple[np.ndarray, np.ndarray]:
    """(log f_T, M*) of every row of ``y_tail`` under t, for rows already
    known to be weakly decreasing: the pool's, which ``IsPool`` checks once."""
    lf = log_tail_density_multi(y_tail, *np.array([t.astuple()]).T)[:, 0]
    return lf, big_m_star_support(y_tail[:, -1], lf, *t.astuple())


# ---------------------------------------------------------------------------
# proposal construction


def build_proposal(
    cfg: SpaceConfig,
    target_region: list[TailParams],
    size: int,
    K: int = 16,
    seed: int = 0,
) -> IsPool:
    """Draw extended tails from an equal-weight mixture over the region.

    The mixture density is recorded exactly per draw for reweighting, so the
    pool is a valid proposal for any parameter the mixture covers.
    """
    if not target_region:
        raise InvalidArgument("proposal target region must be nonempty")
    comps = tuple(target_region)
    m = len(comps)
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, m, size)
    y_tail = np.empty((size, cfg.k))
    y0e = np.empty(size)
    for c, th in enumerate(comps):
        idx = np.where(assign == c)[0]
        if idx.size == 0:
            continue
        y_tail[idx], y0e[idx] = sample_extended_tail_block(th, cfg.k, rng, idx.size)
    logdens = np.empty(size)
    chunk = max(1, int(4e6 // m))
    for lo in range(0, size, chunk):
        sl = slice(lo, min(lo + chunk, size))
        mat = np.empty((sl.stop - sl.start, m))
        for c, th in enumerate(comps):
            mat[:, c] = extended_log_term(*_sorted_tail_parts(y_tail[sl], th), y0e[sl])
        mx = mat.max(axis=1)
        logdens[sl] = mx + np.log(np.exp(mat - mx[:, None]).sum(axis=1)) - math.log(m)
    return IsPool(
        y_tail=y_tail,
        y0e=y0e,
        proposal_logdens=logdens,
        K=K,
        components=comps,
    )


# ---------------------------------------------------------------------------
# pool context: derived statistics, tail caches, condition-1 pair index


class _PoolCtx:
    """The pool's context at level ``alpha``, which a build makes once and
    hands to stages 2 to 4.  It holds the pool's arrays and per-draw
    statistics, computed here and never changed: row sums, log f_a of every
    draw over ``DEFAULT_XI_GRID`` with ``fa_nodes`` quadrature nodes, and the
    entries, the recombined pairs (i, i + j mod n), j = 1, ..., K in that
    order, on which the gate holds, as index arrays ``la`` and ``lb``.  Only
    the cache of the atoms' (log f_T, M*) grows; the switching index depends
    on the table's constants, so its readers compute it."""

    def __init__(self, pool: IsPool, alpha: float, fa_nodes: int = DEFAULT_NODES):
        self.alpha = alpha
        self.y_tail, self.y0e, self.logdens = pool.y_tail, pool.y0e, pool.proposal_logdens
        self.n, self.K = pool.n, pool.K
        s1 = _row_sum(self.y_tail)
        self.S2 = _row_sum(self.y_tail * self.y_tail)
        self.tnum = self.y0e + s1
        cv_z, cv_t = critical_values(alpha)
        idx = np.arange(self.n, dtype=np.int64)
        las, lbs = [], []
        for j in range(1, self.K + 1):
            jdx = (idx + j) % self.n
            t, cv = _gate_of_sums(self.y0e - self.y0e[jdx], s1, s1[jdx], self.S2, self.S2[jdx], cv_z, cv_t)
            keep = np.abs(t) > cv
            las.append(idx[keep].astype(np.int32))
            lbs.append(jdx[keep].astype(np.int32))
        self.la = np.concatenate(las)
        self.lb = np.concatenate(lbs)
        self.logfa = log_f_a_single(self.y_tail, DEFAULT_XI_GRID, fa_nodes)
        self._tails: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # -- per-parameter caches -------------------------------------------------
    def _parts32(self, t: TailParams) -> tuple[np.ndarray, np.ndarray]:
        lf, ms = _sorted_tail_parts(self.y_tail, t)
        return lf.astype(np.float32), ms.astype(np.float32)

    def tail_arrays(self, t: TailParams) -> tuple[np.ndarray, np.ndarray]:
        """(log f_T, M*) of every pool draw under t, float32, NaN-free,
        kept for the context's life: the denominators' atoms read them at
        every iteration."""
        key = t.astuple()
        got = self._tails.get(key)
        if got is None:
            got = self._tails[key] = self._parts32(t)
        return got

    def weight(self, t: TailParams) -> np.ndarray:
        """Float64 importance weight of every draw under t, from t's kept
        tail arrays if an atom has them; neither is kept: the sweeps of one
        stage keep their weights, so a stage's weights are freed when it
        ends."""
        got = self._tails.get(t.astuple())
        with np.errstate(over="ignore"):
            lf, ms = self._parts32(t) if got is None else got
            return np.exp(extended_log_term(lf.astype(float), ms.astype(float), self.y0e) - self.logdens)


def _rp_of_entries(bits, u, v, la, lb, n: int, K: int) -> RpEstimate:
    """The one IS rejection estimator: the mean over the K·n recombined pairs
    of ``bits`` times right weight u[la] times left weight v[lb], with the
    batch-means se of its sums per first draw la (blocks exceed K)."""
    c = bits * u[la] * v[lb] / (K * n)
    r = np.bincount(la, weights=c, minlength=n)
    block = max(64, 4 * K)
    nb = n // block
    if nb < 2:
        se = r.std() * math.sqrt(n)
    else:
        s = r[: nb * block].reshape(nb, block).sum(axis=1)
        scale = n / (nb * block)
        se = s.std(ddof=1) * math.sqrt(nb) * scale
    return RpEstimate(rp=float(c.sum()), se=float(se))


# ---------------------------------------------------------------------------
# public importance-sampling estimator


def estimate_rp(test, theta: ThetaFull, pool: IsPool) -> RpEstimate:
    """Recombined importance-sampling estimate of the null rejection rate.

    ``test`` is a vectorized candidate test: called with (y_right (m, k),
    y_left (m, k), y0 (m,)) it returns a boolean array.  Each pool draw i is
    recombined with draws i + 1, ..., i + K (modulo N), the solver's pairs;
    the right-tail role is taken by the first index, whose extended
    coordinate enters positively.
    """
    n, K = pool.n, pool.K
    with np.errstate(over="ignore"):
        u, v = (np.exp(extended_log_term(*_sorted_tail_parts(pool.y_tail, t), pool.y0e) - pool.proposal_logdens)
                for t in (theta.right, theta.left))
    if not (np.any(u > 0.0) and np.any(v > 0.0)):
        return RpEstimate(rp=0.0, se=0.0, degenerate=True)
    la = np.tile(np.arange(n), K)
    lb = (la + np.repeat(np.arange(1, K + 1), n)) % n
    # one offset per call keeps the test's inputs at N rows
    bits = np.concatenate([
        np.asarray(test(pool.y_tail, pool.y_tail[jdx], pool.y0e - pool.y0e[jdx]), dtype=float)
        for jdx in np.split(lb, K)
    ])
    return _rp_of_entries(bits, u, v, la, lb, n, K)


def simulate_rp(test, theta: ThetaFull, mu: float, k: int, n: int, seed: int = 0) -> RpEstimate:
    """Plain Monte Carlo rejection rate (the direct oracle for estimate_rp)."""
    rng = np.random.default_rng(seed)
    chunk = 100_000
    done = 0
    hits = 0.0
    while done < n:
        m = min(chunk, n - done)
        yr, yl, y0 = sample_ystar_block(theta, mu, k, rng, m)
        hits += float(np.asarray(test(yr, yl, y0), dtype=float).sum())
        done += m
    p = hits / done
    return RpEstimate(rp=p, se=math.sqrt(max(p * (1.0 - p), 1e-12) / done))


# ---------------------------------------------------------------------------
# stage 1: switching constants


def _switch_boundary_eta(kappa: float, x_draws: np.ndarray, switch: SwitchConstants):
    """Scale at which the switch probability is 0.9; None if the tail
    switches at least that often at every scale.  With more than 5 draws,
    ``need`` <= (0.9 - frac_always)·draws + 0.5 < ``h.size``."""
    a1 = x_draws[:, 0] + kappa
    ak = x_draws[:, -1] + kappa
    always = (a1 <= 0.0) | (ak <= 0.0) | (a1 <= (1.0 + switch.rho_r) * ak)
    frac_always = always.mean()
    if frac_always >= 0.9:
        return None
    h = switch.rho1 / a1[~always]
    need = int(round((0.9 - frac_always) * x_draws.shape[0]))
    if need < 1:
        return None
    return float(np.sort(h)[-need])


def _boundary_draws(cfg: SpaceConfig, seed: int):
    """Standardized tail draws, one block per shape cell, in cell order."""
    rng = np.random.default_rng(seed)
    return [(xi, sample_joint_tail(cfg.k, xi, rng, size=_BOUNDARY_DRAWS)) for xi in _BOUNDARY_XI_CELLS]


def _boundary_sweep(cfg: SpaceConfig, switch: SwitchConstants, cells):
    """(xi, kappa, eta*) on the 90%-switching boundary for each shape cell and
    location offset; offsets where the tail switches at every scale are
    skipped."""
    for xi, x_draws in cells:
        k_lo, k_hi = kappa_min(xi, cfg), kappa_max(xi, cfg)
        for off in _BOUNDARY_KAPPA_OFFSETS:
            kappa = min(k_lo + off, k_hi)
            eta = _switch_boundary_eta(kappa, x_draws, switch)
            if eta is not None:
                yield xi, kappa, eta


def _direct_gate_rp(theta: ThetaFull, alpha: float, k: int, n: int, seed: int) -> RpEstimate:
    cv_z, cv_t = critical_values(alpha)

    def gate(yr, yl, y0):
        t, cv = gate_values(yr, yl, y0, cv_z, cv_t)
        return np.abs(t) > cv

    return simulate_rp(gate, theta, 0.0, k, n, seed=seed)


def calibrate_switching_direct(
    cfg: SpaceConfig,
    alpha: float,
    ladder=DEFAULT_LADDER,
    seed: int = 0,
) -> SwitchConstants:
    """Stage 1: smallest ladder point whose gate-only test respects the level
    on the 90%-switching boundary manifold, by plain Monte Carlo.

    The gate statistic is cheap to simulate, so the boundary sweep needs no
    importance-sampling pool, which lets the pool built afterwards cover the
    switching-dependent candidate grids exactly.
    """
    started = time.perf_counter()
    cells = _boundary_draws(cfg, seed)
    diagnostics = []
    for rho1, rho_r in ladder:
        switch = SwitchConstants(rho1, rho_r)
        singles = []
        for xi, kappa, eta in _boundary_sweep(cfg, switch, cells):
            cand = TailParams(float(kappa), float(eta), float(xi))
            if single_tail_ok(cand, cfg):
                singles.append(cand)
        pairs = [
            ThetaFull(left=a, right=b)
            for a in singles
            for b in singles
            if contains(ThetaFull(left=a, right=b), cfg)
        ]
        if not pairs:
            logger.info("lfd stage=1 ladder=(%g,%g) boundary empty; accepted elapsed_s=%.3f",
                        rho1, rho_r, time.perf_counter() - started)
            return switch
        worst = RpEstimate(rp=-1.0, se=0.0)
        worst_pair = pairs[0]
        ok = True
        for i, pair in enumerate(pairs):
            est = _direct_gate_rp(pair, alpha, cfg.k, _RP_DRAWS, seed=seed + 17 * i + 1)
            if est.rp > worst.rp:
                worst, worst_pair = est, pair
            if est.rp > alpha + 2.0 * est.se:
                ok = False
        logger.info(
            "lfd stage=1 ladder=(%g,%g) max_rp=%.6f se=%.6f worst=%s ok=%d elapsed_s=%.3f",
            rho1, rho_r, worst.rp, worst.se, fmt_theta(worst_pair), int(ok),
            time.perf_counter() - started,
        )
        diagnostics.append((rho1, rho_r, worst.rp, worst.se, fmt_theta(worst_pair)))
        if ok:
            return switch
    lines = "; ".join(
        f"rho=({a:g},{b:g}) max_rp={c:.4f} se={d:.4f} at {e}" for a, b, c, d, e in diagnostics
    )
    raise CalibrationError(f"no ladder point controls the gate-only size: {lines}")


# ---------------------------------------------------------------------------
# candidate grids


def heavy_single_candidates(
    cfg: SpaceConfig,
    switch: SwitchConstants,
    n_xi: int = 9,
    n_kappa: int = 5,
    n_eta: int = 4,
    seed: int = 0,
) -> list[TailParams]:
    """Single-tail grid over the non-switching part of the one-tail space."""
    rng = np.random.default_rng(seed)
    out = []
    for xi in np.linspace(-0.5, XI_GRID_MAX, n_xi):
        draws = sample_joint_tail(cfg.k, xi, rng, size=_BOUNDARY_DRAWS)
        k_lo, k_hi = kappa_min(xi, cfg), kappa_max(xi, cfg)
        for kappa in np.linspace(k_lo, k_hi, n_kappa):
            e_max = eta_max_d(kappa, xi, cfg)
            e_star = _switch_boundary_eta(kappa, draws, switch)
            if e_star is None:
                continue
            lo = max(e_star, e_max * 1e-3)
            if lo >= e_max:
                continue
            for eta in np.geomspace(lo, e_max, n_eta):
                cand = TailParams(float(kappa), float(eta), float(xi))
                if single_tail_ok(cand, cfg):
                    out.append(cand)
    return out


def boundary_left_reps(cfg: SpaceConfig, switch: SwitchConstants, seed: int = 1) -> list[TailParams]:
    """Thin-side representatives on (and just inside) the switching boundary."""
    cells = _boundary_draws(cfg, seed)
    out = []
    for xi, kappa, e_star in _boundary_sweep(cfg, switch, cells):
        e_max = eta_max_d(kappa, xi, cfg)
        for fac in _BOUNDARY_ETA_FACTORS:
            eta = min(max(e_star * fac, e_max * 2e-3), e_max)
            cand = TailParams(float(kappa), float(eta), float(xi))
            if single_tail_ok(cand, cfg):
                out.append(cand)
    return out


def proposal_region(
    cfg: SpaceConfig,
    n_xi: int = 9,
    n_kappa: int = 5,
    per_cell: int = 8,
    eta_decades: float = 3.0,
) -> list[TailParams]:
    """Mixture components spanning each cell's scale range for the pool."""
    return single_tail_grid(cfg, n_xi, n_kappa, per_cell, eta_lo_frac=10.0 ** -eta_decades)


# ---------------------------------------------------------------------------
# shared LFD iteration


@dataclass(frozen=True)
class SolverTuning:
    """Iteration schedule of the multiplicative weight updates."""

    margin_se: float = 0.5
    max_iter: int = 200
    min_iter: int = 3
    prescale_iter: int = 24


_STEP_C = 5.0  # log-weight step per unit of an atom's worst violation of alpha
_MAX_LOG_STEP = 0.7  # cap on one update's log step (a decay is capped at half)
_PRUNE_REL = 1e-12  # atoms lighter than this share of the heaviest are dropped
_EXP_CAP = 50.0  # cap on per-atom log terms; beyond it the mixture dominates 1
_BOOST = 5.0  # single-tail conditions soften by exp(_BOOST * chi) of the other tail
_GATHER_CACHE_BUDGET = 4e8  # bytes of float32 weight gathers a sweep may keep
_DECIDE_CHUNK = 64  # gate-passing rows per decide_batch block; bounds its memory


class _SingleDenom:
    """Shifted denominator of a single-tail condition at every entry.

    Condition 2 takes the heavy block from the first index of each entry
    (``la``) and the thin block from the second (``lb``); condition 3 is the
    same formula with the blocks exchanged (``swapped``).  ``chi`` is the
    switching index of every pool draw.
    """

    def __init__(self, ctx: _PoolCtx, atoms: list[TailParams], chi: np.ndarray, swapped: bool = False):
        heavy, thin = (ctx.lb, ctx.la) if swapped else (ctx.la, ctx.lb)
        self.ctx = ctx
        self.atoms = atoms
        self.heavy = heavy
        self.shift = ctx.logfa[heavy] + _BOOST * chi[thin]
        self.base = ctx.y0e[heavy] - ctx.tnum[thin]
        self.var = 1.0 + ctx.S2[thin]
        self.log_var = np.log(self.var)

    def denom(self, lam: np.ndarray) -> np.ndarray:
        heavy = self.heavy
        out = np.zeros(heavy.size)
        for lam_i, t in zip(lam, self.atoms):
            if lam_i <= 0.0:
                continue
            lf, ms = self.ctx.tail_arrays(t)
            term = single_tail_log_term(
                lf[heavy].astype(float), ms[heavy], self.base, self.var, self.log_var, self.shift
            )
            np.add(out, lam_i * np.exp(np.minimum(term, _EXP_CAP)), out=out)
        return out


class _PairDenom:
    """Shifted denominator of the two-tail condition at the entries ``sub``;
    atoms are ordered (left, right) tail pairs."""

    def __init__(self, ctx: _PoolCtx, atoms: list[tuple[TailParams, TailParams]], sub: np.ndarray):
        self.ctx = ctx
        self.atoms = atoms
        self.la = ctx.la[sub]
        self.lb = ctx.lb[sub]
        self.shift = ctx.logfa[self.la] + ctx.logfa[self.lb]
        self.y0e_la = ctx.y0e[self.la]
        self.y0e_lb = ctx.y0e[self.lb]

    def denom(self, lam: np.ndarray) -> np.ndarray:
        ctx, la, lb = self.ctx, self.la, self.lb
        out = np.zeros(la.size)
        for lam_i, (left, right) in zip(lam, self.atoms):
            if lam_i <= 0.0:
                continue
            lf_r, ms_r = ctx.tail_arrays(right)
            lf_l, ms_l = ctx.tail_arrays(left)
            term = joint_log_term(
                lf_r[la].astype(float), lf_l[lb].astype(float), ms_r[la], ms_l[lb],
                self.y0e_la, self.y0e_lb, self.shift,
            )
            np.add(out, lam_i * np.exp(np.minimum(term, _EXP_CAP)), out=out)
        return out


class _RpSweep:
    """RP of a bit vector at many check points over the ctx entry index."""

    def __init__(self, ctx: _PoolCtx, checks: list[ThetaFull], sub=slice(None)):
        self.ctx = ctx
        self.checks = checks
        self.la = ctx.la[sub]
        self.lb = ctx.lb[sub]
        self.scale = 1.0 / (ctx.K * ctx.n)
        uniq_r = {th.right.astuple(): th.right for th in checks}
        uniq_l = {th.left.astuple(): th.left for th in checks}
        budget = (len(uniq_r) + len(uniq_l)) * self.la.size * 4
        self._cache_gathers = budget <= _GATHER_CACHE_BUDGET
        self._gathers: dict[tuple, np.ndarray] = {}
        self._weights: dict[tuple, np.ndarray] = {}

    def _weight(self, t: TailParams) -> np.ndarray:
        """Float64 weight of t at every pool draw, kept for the sweep."""
        key = t.astuple()
        w = self._weights.get(key)
        if w is None:
            w = self._weights[key] = self.ctx.weight(t)
        return w

    def _at(self, t: TailParams, right: bool) -> np.ndarray:
        """Float32 weights of t at each entry's right (``la``) or left
        (``lb``) draw."""
        key = (right, t.astuple())
        got = self._gathers.get(key)
        if got is None:
            got = self._weight(t)[self.la if right else self.lb].astype(np.float32)
            if self._cache_gathers:
                self._gathers[key] = got
        return got

    def rp(self, bits: np.ndarray) -> np.ndarray:
        """RP at every check in float32 products, the fast path for many
        checks: the iteration's atom updates are decided on these values."""
        out = np.empty(len(self.checks))
        for i, th in enumerate(self.checks):
            w = bits * self._at(th.right, True)
            out[i] = float(w @ self._at(th.left, False)) * self.scale
        return out

    def rp_se(self, bits: np.ndarray, i: int) -> RpEstimate:
        """RP and se at check i by the IS estimator, on float64 weights."""
        th = self.checks[i]
        ctx = self.ctx
        return _rp_of_entries(bits, self._weight(th.right), self._weight(th.left), self.la, self.lb, ctx.n, ctx.K)


def _iterate_lfd(
    stage: int,
    denom: Callable[[np.ndarray], np.ndarray],
    sweep: _RpSweep,
    atom_of_check: np.ndarray,
    alpha: float,
    tuning: SolverTuning,
    n_atoms: int,
    started: float,
) -> np.ndarray:
    """Multiplicative-weights fixed point: binding checks pushed to level alpha.

    ``denom(lam)`` gives the shifted mixture denominator at every sweep entry
    for atom weights ``lam``; it must be linear in ``lam``, and the test
    rejects where it is below one.  The uniform start is first scaled by a
    global factor e^s, bisected over s in [-30, 30] for ``prescale_iter``
    steps so that the worst check starts near the level; by linearity every
    step compares d0 * e^s with one, where d0 is the denominator of the
    uniform start, computed once.  Returns the converged weights; raises
    NonconvergenceError at the iteration cap.  Log lines give the seconds
    since ``started``, the stage's ``time.perf_counter()`` at its start.
    """
    lam = np.full(n_atoms, 1.0 / n_atoms)

    def bits_of(d):
        return (d < 1.0).astype(np.float32)

    d0 = denom(lam)
    lo, hi = -30.0, 30.0
    for _ in range(tuning.prescale_iter):
        mid = 0.5 * (lo + hi)
        worst = sweep.rp(bits_of(d0 * math.exp(mid))).max(initial=0.0)
        if worst > alpha:
            lo = mid
        else:
            hi = mid
    del d0  # one float per entry; the iteration does not need it
    lam *= math.exp(hi)

    for it in range(1, tuning.max_iter + 1):
        bits = bits_of(denom(lam))
        rp = sweep.rp(bits)
        i_worst = int(np.argmax(rp))
        est = sweep.rp_se(bits, i_worst)
        logger.info(
            "lfd stage=%d iter=%d max_rp=%.6f se=%.6f worst=%s elapsed_s=%.3f",
            stage, it, est.rp, est.se, fmt_theta(sweep.checks[i_worst]),
            time.perf_counter() - started,
        )
        if it >= tuning.min_iter and est.rp <= alpha + 2.0 * est.se:
            over = [i for i in np.flatnonzero(rp > alpha) if i != i_worst]
            fine = True
            for i in over:
                ei = sweep.rp_se(bits, i)
                if ei.rp > alpha + 2.0 * ei.se:
                    fine = False
                    break
            if fine:
                return lam
        # worst violation per atom across its checks; slack atoms decay at a
        # quarter of the violation rate to keep the fixed point from cycling
        v = np.full(n_atoms, -np.inf)
        np.maximum.at(v, atom_of_check, rp)
        v[~np.isfinite(v)] = 0.0
        raw = _STEP_C * (v - alpha)
        step = np.where(raw >= 0.0, raw, 0.25 * raw)
        step = np.clip(step, -0.5 * _MAX_LOG_STEP, _MAX_LOG_STEP)
        lam *= np.exp(step)
    rp = sweep.rp(bits_of(denom(lam)))
    order = np.argsort(rp)[::-1][:5]
    raise NonconvergenceError(
        f"stage {stage} hit the iteration cap with max RP {rp.max():.4f} > {alpha}",
        worst=[(fmt_theta(sweep.checks[i]), float(rp[i])) for i in order],
    )

# ---------------------------------------------------------------------------
# stages 2 and 3


def solve_single_tail(
    ctx: _PoolCtx,
    cfg: SpaceConfig,
    switch: SwitchConstants,
    candidates: list[TailParams],
    left_boundary: list[TailParams],
    tuning: SolverTuning = SolverTuning(),
) -> tuple[SingleAtomRow, ...]:
    """Stage 2: single-tail atoms, as the table's rows, so that
    gate+condition-2 respects the level for pairs (thin boundary left, heavy
    right) inside the null space."""
    started = time.perf_counter()
    if not candidates:
        raise ConfigurationError("no heavy single-tail candidates; switching absorbs the space")
    if not left_boundary:
        raise ConfigurationError("no boundary representatives for the thin tail")
    checks, atom_of_check = [], []
    for i, cand in enumerate(candidates):
        for left in left_boundary:
            theta = ThetaFull(left=left, right=cand)
            if contains(theta, cfg):
                checks.append(theta)
                atom_of_check.append(i)
    if not checks:
        raise ConfigurationError("no admissible (boundary, heavy) pairs to check")
    denom = _SingleDenom(ctx, candidates, switching_index(ctx.y_tail, switch))
    sweep = _RpSweep(ctx, checks)
    lam = _iterate_lfd(
        2, denom.denom, sweep, np.asarray(atom_of_check), ctx.alpha, tuning, len(candidates), started
    )
    keep = lam > _PRUNE_REL * lam.max()
    return tuple((float(w), *t.astuple()) for t, w, kp in zip(candidates, lam, keep) if kp)


def _single_condition_bits(ctx: _PoolCtx, rows: tuple[SingleAtomRow, ...], switch: SwitchConstants):
    """Conditions 2 and 3 of the single-tail test with the atom ``rows``
    and switching constants ``switch`` at every entry."""
    params = [TailParams(*r[1:]) for r in rows]
    lam = np.array([r[0] for r in rows])
    chi = switching_index(ctx.y_tail, switch)
    bits2 = _SingleDenom(ctx, params, chi).denom(lam) < 1.0
    bits3 = _SingleDenom(ctx, params, chi, swapped=True).denom(lam) < 1.0
    return bits2 & bits3


def solve_two_tail(
    ctx: _PoolCtx,
    cfg: SpaceConfig,
    sub: np.ndarray,
    pair_pool: list[TailParams],
    max_pairs: int = 420,
    tuning: SolverTuning = SolverTuning(),
    seed: int = 0,
) -> tuple[FullAtomRow, ...]:
    """Stage 3: full atoms, as the table's rows, so the complete
    four-condition test respects the level on heavy/heavy pairs; ``sub`` holds the entries where conditions 2
    and 3 hold.  Atoms are kept mirror-symmetric: each unordered pair
    contributes both orderings with half its weight."""
    started = time.perf_counter()
    if not pair_pool:
        raise ConfigurationError("no heavy single-tail candidates for pairing")
    diag = []
    offdiag = []
    for i, a in enumerate(pair_pool):
        if contains(ThetaFull(left=a, right=a), cfg):
            diag.append((a, a))
        for b in pair_pool[i + 1 :]:
            if contains(ThetaFull(left=a, right=b), cfg):
                offdiag.append((a, b))
    rng = np.random.default_rng(seed)
    room = max(0, max_pairs - len(diag))
    if len(offdiag) > room:
        pick = rng.choice(len(offdiag), size=room, replace=False)
        offdiag = [offdiag[int(i)] for i in np.sort(pick)]
    pairs = diag + offdiag
    if not pairs:
        raise ConfigurationError("no admissible heavy/heavy pairs")
    # each unordered pair weighs its orderings by 1 (a == b) or 1/2 each
    ordered, of_pair, half = [], [], []
    for p, (a, b) in enumerate(pairs):
        same = a.astuple() == b.astuple()
        for left, right in ((a, b),) if same else ((a, b), (b, a)):
            ordered.append((left, right))
            of_pair.append(p)
            half.append(1.0 if same else 0.5)
    of_pair, half = np.asarray(of_pair), np.asarray(half)
    checks = [ThetaFull(left=a, right=b) for a, b in pairs]
    pair_denom = _PairDenom(ctx, ordered, sub)
    sweep = _RpSweep(ctx, checks, sub=sub)
    lam = _iterate_lfd(
        3, lambda w: pair_denom.denom(half * w[of_pair]),
        sweep, np.arange(len(pairs)), ctx.alpha, tuning, len(pairs), started,
    )
    keep = lam > _PRUNE_REL * lam.max()
    return tuple(
        (float(h * lam[p]), *left.astuple(), *right.astuple())
        for (left, right), p, h in zip(ordered, of_pair, half)
        if keep[p]
    )

# ---------------------------------------------------------------------------
# runtime evaluation of a stored test


def _denom_rows(term: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Sum over the atom axis of lam * exp(min(term, _EXP_CAP))."""
    return (lam * np.exp(np.minimum(term, _EXP_CAP))).sum(axis=1)


class TestEvaluator:
    """Vectorized evaluation of a stored composite test on standardized data:
    conditions 2 to 4 hold where their denominators, summed from the solver's
    terms, are below 1, the rule the table's size was certified with.

    Atoms share tails (the desk table's 717 full atoms use 150 tails, all
    among its 156 single atoms), so each block of rows makes one f_T and M*
    kernel call per tail block at the table's distinct tails, ``tails``, in
    ``np.unique``'s order of their float64 bytes.  The conditions gather
    their atoms' columns of those grids (``s_col``, ``l_col``, ``r_col``),
    so every term is the value a per-atom kernel call gives, and sum the
    terms in the table's atom order, which the column order never enters.
    Conditions 2 to 4 read log f_a of both tails of every gate-passing row
    from one ``LogFaMemo`` call, which runs the quadrature once per distinct
    spacing row the memo has not seen; a row's f_a bits depend on that row
    alone, so the blocks then read their slices of it.  ``decide_batch``
    makes a fresh memo per call; a runtime query hands its memos to all of
    its decisions, so f_a runs once per distinct spacing row per query."""

    __test__ = False  # not a pytest class

    def __init__(self, table):
        self.switch = SwitchConstants(table.rho1, table.rho_r)
        self.xi_grid = tuple(table.xi_grid)
        self.cv_z, self.cv_t = critical_values(table.alpha)
        s = np.fromiter(chain.from_iterable(table.single_atoms), float).reshape(-1, 4)
        f = np.fromiter(chain.from_iterable(table.full_atoms), float).reshape(-1, 7)
        self.s_lam, self.f_lam = s[:, 0].copy(), f[:, 0].copy()
        # every atom's (kappa, eta, xi): the single atoms, then each full
        # atom's left and right tail
        rows = np.concatenate([s[:, 1:], f[:, 1:].reshape(-1, 3)])
        keys = rows.view(np.dtype((np.void, 24))).ravel()  # one 24-byte key per row
        _, first, col = np.unique(keys, return_index=True, return_inverse=True)
        self.tails = rows[first].T.copy()
        self.s_col = col[: s.shape[0]]
        self.l_col, self.r_col = col[s.shape[0] :].reshape(-1, 2).T.copy()

    def _tail_grids(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log f_T and M* of the rows ``y`` at every distinct tail."""
        lf = log_tail_density_multi(y, *self.tails)
        return lf, big_m_star_support(y[:, -1:], lf, *self.tails)

    def _single_denom(self, lf, ms, thin: np.ndarray, y0: np.ndarray, shift: np.ndarray) -> np.ndarray:
        var = 1.0 + _row_sum(thin * thin)
        base = y0 - _row_sum(thin)
        term = single_tail_log_term(lf, ms, base[:, None], var[:, None], np.log(var)[:, None], shift[:, None])
        return _denom_rows(term, self.s_lam)

    def condition1(self, y_right, y_left, y0):
        t, cv = gate_values(y_right, y_left, y0, self.cv_z, self.cv_t)
        return np.abs(t) > cv

    def decide_batch(self, y_right, y_left, y0) -> np.ndarray:
        return self._decide_batch(y_right, y_left, y0, {})

    def _decide_batch(self, y_right, y_left, y0, fa: dict) -> np.ndarray:
        """``decide_batch`` reading log f_a from ``fa``, the caller's f_a
        memos keyed by shape grid, as ``_lr_conditions`` does."""
        yr = np.atleast_2d(np.asarray(y_right, dtype=float))
        yl = np.atleast_2d(np.asarray(y_left, dtype=float))
        y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        out = np.zeros(y0.shape, dtype=bool)
        c1 = np.atleast_1d(self.condition1(yr, yl, y0))
        passing = np.flatnonzero(c1)
        if passing.size:
            out[passing] = self._lr_conditions(yr[passing], yl[passing], y0[passing], fa)
        return out

    def _lr_conditions(self, yrs: np.ndarray, yls: np.ndarray, y0s: np.ndarray, fa: dict) -> np.ndarray:
        """Conditions 2 to 4 on gate-passing rows: one f_a memo call for both
        tails of every row, then blocks of ``_DECIDE_CHUNK`` rows, which
        bound the memory of the tail grids.  The memo is ``fa``'s for the
        table's shape grid, added to ``fa`` if it has none, so calls that
        share one ``fa`` share its memos."""
        memo = fa.setdefault(self.xi_grid, LogFaMemo(self.xi_grid, DEFAULT_NODES))
        logfa_r, logfa_l = np.split(memo(np.concatenate([yrs, yls])), 2)
        out = np.empty(y0s.shape, dtype=bool)
        for lo in range(0, y0s.size, _DECIDE_CHUNK):
            b = slice(lo, lo + _DECIDE_CHUNK)
            out[b] = self._block_conditions(yrs[b], yls[b], y0s[b], logfa_r[b], logfa_l[b])
        return out

    def _block_conditions(
        self, yrs: np.ndarray, yls: np.ndarray, y0s: np.ndarray, logfa_r: np.ndarray, logfa_l: np.ndarray
    ) -> np.ndarray:
        """Conditions 2 to 4 on a block of gate-passing rows given their log
        f_a; ``y0s`` is already the difference the solver forms as
        y0_r - y0_l, so y0_l is 0 here.  Condition 4 is evaluated only where
        2 and 3 hold, as in the solver."""
        chi_r = switching_index(yrs, self.switch)
        chi_l = switching_index(yls, self.switch)
        with np.errstate(over="ignore", invalid="ignore"):
            lf_r, ms_r = self._tail_grids(yrs)
            lf_l, ms_l = self._tail_grids(yls)
            # gathers keep C order: numpy sums a C-ordered row pairwise, as
            # in a per-atom grid, but an F-ordered array column by column
            s = self.s_col
            out = self._single_denom(lf_r.take(s, 1), ms_r.take(s, 1), yls, y0s, logfa_r + _BOOST * chi_l) < 1.0
            out &= self._single_denom(lf_l.take(s, 1), ms_l.take(s, 1), yrs, -y0s, logfa_l + _BOOST * chi_r) < 1.0
            sub = np.flatnonzero(out)
            if sub.size:
                cr, cl = self.r_col, self.l_col
                shift = (logfa_r[sub] + logfa_l[sub])[:, None]
                term = joint_log_term(
                    lf_r[sub].take(cr, 1), lf_l[sub].take(cl, 1), ms_r[sub].take(cr, 1), ms_l[sub].take(cl, 1),
                    y0s[sub, None], 0.0, shift,
                )
                out[sub] = _denom_rows(term, self.f_lam) < 1.0
        return out


# ---------------------------------------------------------------------------
# stage 4 spot check


def _table_entry_bits(ctx: _PoolCtx, sub: np.ndarray, rows: tuple[FullAtomRow, ...]) -> np.ndarray:
    """Composite-test bits at every entry: condition 4 with the full atom
    ``rows`` at the entries ``sub`` where conditions 1 to 3 hold."""
    pairs = [(TailParams(*r[1:4]), TailParams(*r[4:])) for r in rows]
    acc = _PairDenom(ctx, pairs, sub).denom(np.array([r[0] for r in rows]))
    bits = np.zeros(ctx.la.size, dtype=np.float32)
    bits[sub[acc < 1.0]] = 1.0
    return bits


def spot_check(
    ctx: _PoolCtx, sub: np.ndarray, rows: tuple[FullAtomRow, ...], thetas: list[ThetaFull]
) -> list[RpEstimate]:
    """Estimated null rejection rate at each point of the composite test
    whose conditions 2 and 3 hold at the entries ``sub`` and whose full
    atoms are the table rows ``rows``.

    Points share tails, so each distinct tail's weights are computed once
    and dropped after the last point that uses them."""
    bits = _table_entry_bits(ctx, sub, rows)
    last_use = {}
    for i, theta in enumerate(thetas):
        last_use[theta.right.astuple()] = last_use[theta.left.astuple()] = i
    live: dict[tuple, np.ndarray] = {}

    def weight(t: TailParams) -> np.ndarray:
        key = t.astuple()
        if key not in live:
            live[key] = ctx.weight(t)
        return live[key]

    out = []
    for i, theta in enumerate(thetas):
        u = weight(theta.right)
        v = weight(theta.left)
        out.append(_rp_of_entries(bits, u, v, ctx.la, ctx.lb, ctx.n, ctx.K))
        for key in (theta.right.astuple(), theta.left.astuple()):
            if last_use[key] == i:
                live.pop(key, None)
    return out

# ---------------------------------------------------------------------------
# end-to-end build


@dataclass(frozen=True)
class BuildConfig:
    """All knobs of the four-stage construction.

    The table keeps k, n0 and alpha, and its metadata seed, n_draws,
    recombine, fa_nodes, the n_xi x n_kappa x n_eta grid, step_c (the
    constant ``_STEP_C``), margin_se and max_iter.  Stage 1 searches
    ``DEFAULT_LADDER``; the shape grid is ``DEFAULT_XI_GRID``.  The other
    fields are not recorded."""

    k: int = 4
    n0: int = 50
    alpha: float = 0.05
    n_draws: int = 200_000
    recombine: int = 16
    seed: int = 0
    fa_nodes: int = DEFAULT_NODES
    n_xi: int = 9
    n_kappa: int = 5
    n_eta: int = 4
    proposal_per_cell: int = 8
    eta_decades: float = 3.0
    tuning: SolverTuning = field(default_factory=SolverTuning)
    max_pairs: int = 420
    spot_boundary_resolution: int = 3
    spot_interior: int = 200
    spot_slack: float = 0.005


def smoke_build_config(**overrides) -> BuildConfig:
    """Small, fast configuration for tests and demos (not a production table)."""
    base = dict(
        n_draws=20_000,
        recombine=8,
        n_xi=5,
        n_kappa=3,
        n_eta=2,
        proposal_per_cell=5,
        eta_decades=2.5,
        fa_nodes=24,
        tuning=SolverTuning(max_iter=80, prescale_iter=18),
        max_pairs=60,
        spot_boundary_resolution=2,
        spot_interior=25,
        spot_slack=0.02,
    )
    base.update(overrides)
    return BuildConfig(**base)


def build_table(config: BuildConfig) -> TestTable:
    """Run the four-stage construction and return a serializable table."""
    cfg = SpaceConfig(n0=config.n0, k=config.k)
    switch = calibrate_switching_direct(cfg, config.alpha, seed=config.seed + 1)
    candidates = heavy_single_candidates(
        cfg, switch, config.n_xi, config.n_kappa, config.n_eta, seed=config.seed + 2
    )
    lefts = boundary_left_reps(cfg, switch, seed=config.seed + 3)
    # the proposal covers the whole space and, exactly, every candidate atom
    # and boundary representative, which bounds the importance weights at
    # all the points the solver iterates over
    region = proposal_region(
        cfg, config.n_xi, config.n_kappa, config.proposal_per_cell, config.eta_decades
    )
    seen = {t.astuple() for t in region}
    for extra in candidates + lefts:
        if extra.astuple() not in seen:
            region.append(extra)
            seen.add(extra.astuple())
    started = time.perf_counter()
    logger.info("lfd stage=0 proposal components=%d draws=%d elapsed_s=0.000", len(region), config.n_draws)
    pool = build_proposal(cfg, region, config.n_draws, config.recombine, seed=config.seed)
    ctx = _PoolCtx(pool, config.alpha, config.fa_nodes)
    logger.info("lfd stage=0 pool built draws=%d elapsed_s=%.3f", pool.n, time.perf_counter() - started)
    single_atoms = solve_single_tail(ctx, cfg, switch, candidates, lefts, config.tuning)
    # the entries where conditions 2 and 3 hold, for stages 3 and 4
    sub = np.flatnonzero(_single_condition_bits(ctx, single_atoms, switch))
    full_atoms = solve_two_tail(
        ctx, cfg, sub, candidates, config.max_pairs, config.tuning, seed=config.seed + 4
    )
    # stage 4: wide spot check
    started = time.perf_counter()
    points = boundary_grid(cfg, config.spot_boundary_resolution)
    points += sample_interior(cfg, config.spot_interior, np.random.default_rng(config.seed + 5))
    rps = spot_check(ctx, sub, full_atoms, points)
    worst = max(range(len(points)), key=lambda i: rps[i].rp - 2.0 * rps[i].se)
    n_bad = sum(
        1 for r in rps if r.rp > config.alpha + 2.0 * r.se + config.spot_slack
    )
    logger.info(
        "lfd stage=4 points=%d max_rp=%.6f se=%.6f worst=%s violations=%d elapsed_s=%.3f",
        len(points), rps[worst].rp, rps[worst].se, fmt_theta(points[worst]), n_bad,
        time.perf_counter() - started,
    )
    if n_bad:
        warnings.warn(
            f"stage-4 spot check found {n_bad} points above "
            f"alpha + 2 se + {config.spot_slack}; worst at {fmt_theta(points[worst])}"
        )
    meta = (
        ("format", "1"),
        ("seed", str(config.seed)),
        ("n_draws", str(config.n_draws)),
        ("recombine", str(config.recombine)),
        ("step_c", repr(_STEP_C)),
        ("margin_se", repr(config.tuning.margin_se)),
        ("max_iter", str(config.tuning.max_iter)),
        ("fa_nodes", str(config.fa_nodes)),
        ("grid", f"{config.n_xi}x{config.n_kappa}x{config.n_eta}"),
        ("spot_points", str(len(points))),
        ("spot_max_rp", f"{rps[worst].rp:.6f}"),
        ("spot_max_rp_se", f"{rps[worst].se:.6f}"),
        ("spot_violations", str(n_bad)),
    )
    return TestTable(
        k=config.k,
        n0=config.n0,
        alpha=config.alpha,
        rho1=switch.rho1,
        rho_r=switch.rho_r,
        single_atoms=single_atoms,
        full_atoms=full_atoms,
        xi_grid=DEFAULT_XI_GRID,
        build_metadata=meta,
    )
