"""Alternative weighting density for one standardized tail block.

The improper weighting over (kappa, eta) with density d(kappa) d(eta)/eta
marginalizes analytically down to a one-dimensional integral in the spacings
d_i = y_i - y_k:

    f_{a|xi}(y) = Gamma(k - xi) * int_0^rmax r^(k-1)
                  prod_{i<k} (1 + xi d_i r)^(-1-1/xi) dr

with rmax = inf for xi >= 0 and rmax = -1/(xi d_1) for xi < 0, and the exact
xi = 0 form Gamma(k)^2 / (sum_i d_i)^k.  The overall weighting averages
f_{a|xi} over an even grid of shape values; the integral is evaluated by
fixed Gauss-Legendre quadrature after a peak-scaled rational change of
variables.

The whole shape grid is evaluated in one pass per chunk of rows.  Shapes
near zero take the closed form; positive shapes share one set of nodes and
log-Jacobian, because the peak scale (k-1)/S does not depend on xi;
negative shapes each have their own upper limit rmax.  The (shapes, rows,
nodes) integrand is built in place, one spacing column at a time, in two
buffers allocated once per call and reused by every chunk and both shape
signs, so a call of many rows does not allocate and free its temporaries
chunk after chunk.  The log-sum-exp
reductions are done by a local helper in scipy's arithmetic, so the bits
do not depend on the installed scipy's ``logsumexp``.
A row's quadrature sums run over its own nodes and its shape average adds
the shapes in grid order, so a one-row call and any batch give it equal bits.

The density is location-invariant, so a row enters only through its
spacings, and the rows of one sample shifted to many means (a confidence
interval's grid and bisection) mostly share them bit for bit.  A
``LogFaMemo`` keys rows by their spacings' float64 bytes and runs the
quadrature once per distinct spacing row in its life, copying the value
back to each row; since a row's bits depend on that row alone, this is
exact.  Rows that differ in any byte, -0.0 against 0.0 included, are never
merged.  One runtime query (a decision batch, a p-value, a confidence
interval) makes one memo, on its tables' one shape grid, and hands it to
every decision it makes, so the quadrature runs once per distinct spacing
row per query; ``log_f_a_single`` itself evaluates every row it is given.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import InvalidArgument
from .gev import XI_ZERO_TOL

DEFAULT_XI_GRID: tuple[float, ...] = tuple(np.linspace(-0.5, 0.5, 21))
DEFAULT_NODES = 40

# The quadrature runs on _CHUNK // n_shapes rows at a time, so each of its two
# integrand buffers holds at most _CHUNK * nodes values.
_CHUNK = 4096


@lru_cache(maxsize=32)
def _unit_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to the open unit interval."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=32)
def _node_maps(n: int) -> tuple[np.ndarray, ...]:
    """Unit nodes u, their log weights, and the xi > 0 map u/(1-u) with its
    log-Jacobian term 2 log(1-u), all read-only.  For xi > 0, r = r_peak *
    u/(1-u): the peak scale (k-1)/S tracks the exponential limit of the
    integrand."""
    u, w = _unit_nodes(n)
    maps = (u, np.log(w), u / (1.0 - u), 2.0 * np.log1p(-u))
    for a in maps:
        a.flags.writeable = False
    return maps


@lru_cache(maxsize=32)
def _shape_split(xi_grid: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Masks of a grid's zero, positive and negative shapes, then its
    positive and its negative shapes, all read-only."""
    xi = np.array(xi_grid, dtype=float)
    if xi.size == 0:
        raise InvalidArgument("shape grid must be nonempty")
    zero = np.abs(xi) < XI_ZERO_TOL
    pos = ~zero & (xi > 0.0)
    neg = ~zero & ~pos
    split = (zero, pos, neg, xi[pos], xi[neg])
    for a in split:
        a.flags.writeable = False
    return split


def _sum(a: np.ndarray, axis: int) -> np.ndarray:
    """``a.sum(axis)``, but row by row along axis 0 for every width: numpy
    sums a one-column array pairwise and only wider ones row by row."""
    return np.cumsum(a, axis=0)[-1] if axis == 0 else a.sum(axis=axis)


def _logsumexp(a: np.ndarray, axis: int, work: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` in scipy.special.logsumexp's arithmetic.

    The m tied maxima are kept out of the sum (Blanchard, Higham & Higham
    2021): log1p(s/m) + log(m) + a_max, falling back to the direct
    log(sum(exp(a))) wherever that is not finite.  Sums follow ``_sum``.
    The masked, shifted exponentials are written to ``work``, an array of
    a's shape and layout, or to a new one.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        at_max = a == a_max
        m = at_max.sum(axis=axis, dtype=float)
        e = np.empty_like(a) if work is None else work
        np.copyto(e, a)
        np.copyto(e, -np.inf, where=at_max)
        e -= a_max
        s = _sum(np.exp(e, out=e), axis)
        s = np.where(s == 0.0, s, s / m)
        out = np.log1p(s) + np.log(m) + np.squeeze(a_max, axis=axis)
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(_sum(np.exp(a), axis))[bad]
    return out


def _log_fa_shapes(dl: np.ndarray, xi: np.ndarray, r: np.ndarray, logjac: np.ndarray, work: np.ndarray) -> np.ndarray:
    """log f_{a|xi} (g, m) for shapes xi (g,) and spacing rows dl (m, k-1),
    given quadrature nodes r and log-Jacobian, each (g or 1, m, nodes).

    The integrand is built in place in the two rows of ``work``, one
    spacing column at a time, adding the columns' log factors in the order
    ``sum`` over that axis of a (g, m, k-1, nodes) array adds them."""
    k = dl.shape[1] + 1
    g, m, nodes = xi.size, dl.shape[0], r.shape[-1]
    acc, e = (b[: g * m * nodes].reshape(g, m, nodes) for b in work)
    xd = xi[:, None, None] * dl[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(k - 1):
            term = acc if i == 0 else e
            np.multiply(xd[:, :, i : i + 1], r, out=term)
            np.log1p(term, out=term)
            if i:
                acc += term
        acc *= (1.0 + 1.0 / xi)[:, None, None]
        logr = np.log(r, out=e[: r.shape[0]])
        logr *= k - 1.0
        np.subtract(logr, acc, out=acc)
        acc += logjac
    return gammaln(k - xi)[:, None] + _logsumexp(acc, axis=-1, work=e)


def log_f_a_single(y, xi_grid=DEFAULT_XI_GRID, nodes: int = DEFAULT_NODES):
    """Log of the shape-averaged invariant density of one tail block.

    Accepts a single k-vector or an (m, k) batch; k must be at least 2.
    Rows with all components tied have an unbounded invariant density and
    return +inf.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    ya = y[None, :] if scalar else y
    if ya.shape[-1] < 2:
        raise InvalidArgument("the invariant density needs a tail block of size >= 2")
    zero, pos, neg, xi_pos, xi_neg = _shape_split(tuple(np.ravel(xi_grid).tolist()))
    k = ya.shape[-1]
    u, logw, pos_map, pos_jac = _node_maps(nodes)
    step = max(1, _CHUNK // zero.size)
    d = ya[:, :-1] - ya[:, -1:]
    s = d.sum(axis=1)
    out = np.full(d.shape[0], np.inf)
    # one pair of integrand buffers for every chunk and both shape signs, in
    # one allocation: glibc then keeps later calls' freed temporaries on its
    # heap (a 5,000-row desk decide_batch took 689 minor page faults, against
    # 26,906 with two separate buffers)
    size = max(xi_pos.size, xi_neg.size) * min(step, d.shape[0]) * nodes
    work = np.empty((2, size))
    for a in range(0, d.shape[0], step):
        live = s[a : a + step] > 0.0
        if not np.any(live):
            continue
        dl = d[a : a + step][live]
        sl = s[a : a + step][live]
        part = np.empty((zero.size, sl.size))
        part[zero] = 2.0 * gammaln(k) - k * np.log(sl)
        if xi_pos.size:
            rpeak = (k - 1.0) / sl
            r = rpeak[:, None] * pos_map[None, :]
            logjac = np.log(rpeak)[:, None] + logw[None, :] - pos_jac[None, :]
            part[pos] = _log_fa_shapes(dl, xi_pos, r[None], logjac[None], work)
        if xi_neg.size:
            rmax = -1.0 / (xi_neg[:, None] * dl[None, :, 0])
            r = rmax[:, :, None] * u[None, None, :]
            logjac = np.log(rmax)[:, :, None] + logw[None, None, :]
            part[neg] = _log_fa_shapes(dl, xi_neg, r, logjac, work)
        with np.errstate(invalid="ignore"):
            out[a : a + step][live] = _logsumexp(part, axis=0) - math.log(zero.size)
    return float(out[0]) if scalar else out


class LogFaMemo:
    """``log_f_a_single`` under one shape grid at the runtime's
    ``DEFAULT_NODES``, evaluated once per distinct spacing row in its life.

    A call keys its (m, k) rows by the float64 bytes of their spacings
    y - y_k, runs the quadrature in one call on the first row of each key
    the memo has not seen, and copies every key's value back to its rows.
    The memo keeps its keys sorted, as ``np.unique`` returns them, with
    their values; it lives as long as the query that made it."""

    def __init__(self, xi_grid=DEFAULT_XI_GRID):
        self.xi_grid = tuple(xi_grid)
        self._keys = self._values = None

    def __call__(self, y) -> np.ndarray:
        """log f_a of each row of the (m, k) batch ``y``."""
        y = np.asarray(y, dtype=float)
        d = y[:, :-1] - y[:, -1:]
        keys = d.view(np.dtype((np.void, d.itemsize * d.shape[1]))).ravel()
        if self._keys is None:
            self._keys, self._values = keys[:0], np.empty(0)
        seen = self._keys.size
        # the memo's keys come first, so a key it holds is first seen there
        keys, first, inverse = np.unique(np.concatenate([self._keys, keys]), return_index=True, return_inverse=True)
        values = np.empty(keys.size)
        old = first < seen
        values[old] = self._values[first[old]]
        if not old.all():
            values[~old] = log_f_a_single(y[first[~old] - seen], self.xi_grid, DEFAULT_NODES)
        self._keys, self._values = keys, values
        return values[inverse[seen:]]


def f_a_single(y, xi_grid=DEFAULT_XI_GRID, nodes: int = DEFAULT_NODES):
    """Shape-averaged invariant density (exponentiated form)."""
    return np.exp(log_f_a_single(y, xi_grid, nodes))
