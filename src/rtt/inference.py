"""Runtime inference: sample summaries, decisions, p-values, intervals.

A raw sample is summarized once, at mean 0, and ``_rows``, the one
standardization, shifts the summary to any hypothesized mean, so decisions,
p-values and intervals decide the same rows at the same mean.  P-values come
from a nested family of tables over a level grid; confidence intervals from
test inversion on a deterministic grid whose two endpoints are refined
together, several bisection levels per batched decision call, taking exactly
the steps of one-point-per-call bisection.

f_a is location-invariant, so the rows of one sample at many means share
their spacing rows.  Each query (``decide``, ``p_value``, ``confidence_interval``,
``TableSet.raw_decisions`` and ``TableSet.nested_reject``) makes one
``LogFaMemo`` on its tables' one shape grid after it standardizes, and every
decision it makes reads f_a from it (``TestEvaluator.decide_batch``'s
``memo``): f_a runs once per distinct spacing row per query.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateSample,
    IntervalNotFound,
    InvalidArgument,
    SampleTooSmall,
)
from .fa import LogFaMemo
from .model import YStar
from .solver import TestEvaluator, gate_values
from .table import TestTable, read_table

# a requested level within this distance of a table's level selects that table
_LEVEL_TOL = 1e-9


@dataclass(frozen=True)
class SampleSummary:
    """Order-statistic blocks and middle moments of a (shifted) sample."""

    w_right: np.ndarray  # k largest, descending
    w_left_neg: np.ndarray  # k smallest, negated, descending
    middle_sum: float
    s2: float
    n: int

    @property
    def k(self) -> int:
        return self.w_right.size

    @property
    def denom(self) -> float:
        return math.sqrt((self.n - 2 * self.k) * self.s2)


def summarize(w, k: int, mu0: float = 0.0) -> SampleSummary:
    """Shift by ``mu0``, split off both k-tails, summarize (the runtime
    summarizes at 0 only; ``_rows`` moves the summary to other means)."""
    if not math.isfinite(mu0):
        raise InvalidArgument(f"hypothesized mean {mu0!r} is not finite")
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InvalidArgument("sample must be one-dimensional")
    if not np.all(np.isfinite(w)):
        raise InvalidArgument("sample contains non-finite values")
    n = w.size
    if n < 2 * k + 2:
        raise SampleTooSmall(f"need at least {2 * k + 2} observations for k={k}, got {n}")
    v = np.sort(w - mu0)
    middle = v[k : n - k]
    s2 = float(middle.var(ddof=1))
    # the denominator sqrt((n - 2k) s2) must be finite too
    if not math.isfinite((n - 2 * k) * s2):
        raise InvalidArgument("the sample's variance overflows; rescale the data")
    if s2 <= 0.0:
        raise DegenerateSample("middle observations are constant")
    return SampleSummary(
        w_right=v[n - k :][::-1].copy(),
        w_left_neg=-v[:k],
        middle_sum=float(middle.sum()),
        s2=s2,
        n=n,
    )


def _rows(s: SampleSummary, mu0s):
    """(y_right, y_left, y0) of ``s`` shifted affinely to the mean or array of
    means ``mu0s``: one row, or one per mean, each equal bit for bit to its
    row in any array.  A single number, or a 0-d array, takes the cheap
    float path, the one every single-mean query takes, which rejects a mean
    whose row is not finite (a NaN or infinite mean, or one that overflows
    it)."""
    d = s.denom
    one = isinstance(mu0s, (float, int, np.number))
    if not one and np.ndim(mu0s) == 0:
        return _rows(s, float(mu0s))
    if one:
        shift = col = float(mu0s) / d
    else:
        shift = np.asarray(mu0s, dtype=float) / d
        col = shift[..., None]
    yr, yl, y0 = s.w_right / d - col, s.w_left_neg / d + col, s.middle_sum / d - (s.n - 2 * s.k) * shift
    # on the float path, a k-row check in Python is cheaper than numpy's
    if one and not all(map(math.isfinite, [y0, *yr.tolist(), *yl.tolist()])):
        raise InvalidArgument(f"hypothesized mean {mu0s!r} gives a non-finite standardized statistic")
    return yr, yl, y0


def to_ystar(s: SampleSummary) -> YStar:
    """The standardized statistic of the summary at its own mean."""
    return YStar(*_rows(s, 0.0))


@lru_cache(maxsize=16)
def _evaluator(table: TestTable) -> TestEvaluator:
    return TestEvaluator(table)


@dataclass(frozen=True)
class Decision:
    reject: bool
    t_statistic: float
    critical_value: float
    alpha: float
    notes: tuple[str, ...] = ()


def _standardize(w, table: TestTable) -> tuple[SampleSummary, tuple[str, ...]]:
    """The sample's summary for ``table``'s k, plus the note (also warned
    once) that the sample is shorter than the table's design horizon."""
    s = summarize(w, table.k)
    notes = ()
    if s.n < table.n0:
        msg = f"sample size {s.n} is below the table's design horizon n0={table.n0}"
        warnings.warn(msg)
        notes = (msg,)
    return s, notes


def _nested(yr: np.ndarray, yl: np.ndarray, y0: np.ndarray, tables, memo: LogFaMemo) -> np.ndarray:
    """Rows rejected by every given table (the nested rule as a cumulative
    AND) with the query's f_a ``memo``, each only on the rows still rejected."""
    reject = np.ones(y0.shape, dtype=bool)
    for t in tables:
        rows = np.flatnonzero(reject)
        if rows.size == 0:
            break
        reject[rows] = _evaluator(t).decide_batch(yr[rows], yl[rows], y0[rows], memo)
    return reject


def decide(w, mu0: float, table: TestTable) -> Decision:
    """Apply the stored test to H0: mean = mu0 for the given sample."""
    ev = _evaluator(table)
    s, notes = _standardize(w, table)
    yr, yl, y0 = _rows(s, mu0)
    # the one gate evaluation gives the Decision's fields and condition 1;
    # conditions 2 to 4 run only on a row that passes it, as in decide_batch
    t, cv = gate_values(yr, yl, y0, ev.cv_z, ev.cv_t)
    memo = LogFaMemo(table.xi_grid)
    reject = bool(abs(t[0]) > cv[0]) and bool(ev._lr_conditions(yr[None], yl[None], np.array([y0]), memo)[0])
    return Decision(
        reject=reject, t_statistic=float(t[0]), critical_value=float(cv[0]),
        alpha=table.alpha, notes=notes,
    )


class TableSet:
    """Tables over a level grid, evaluated with nested rejection regions.

    The effective test at a grid level rejects only if every stored test at
    that level or above rejects, which makes p-values coherent with levels
    and confidence intervals nested across levels by construction; all of
    them standardize with ``_rows``, so they agree at every interval end.
    The tables share k, n0 and the shape grid, so one f_a memo serves them.
    """

    def __init__(self, tables):
        tables = list(tables)
        if not tables:
            raise ConfigurationError("table set is empty")
        first = tables[0]
        for t in tables:
            if (t.k, t.n0, t.xi_grid) != (first.k, first.n0, first.xi_grid):
                raise ConfigurationError(
                    f"tables in a set must share k, n0 and the shape grid (found k={t.k}, n0={t.n0}, "
                    f"xi_grid={t.xi_grid} vs k={first.k}, n0={first.n0}, xi_grid={first.xi_grid})"
                )
        alphas = [t.alpha for t in tables]
        if len(set(alphas)) != len(alphas):
            raise ConfigurationError("duplicate levels in table set")
        self.tables = sorted(tables, key=lambda t: t.alpha)

    @classmethod
    def from_paths(cls, paths) -> "TableSet":
        return cls(read_table(p) for p in paths)

    @property
    def alphas(self) -> list[float]:
        return [t.alpha for t in self.tables]

    @property
    def k(self) -> int:
        return self.tables[0].k

    def table_at(self, alpha: float) -> TestTable:
        """The table whose level is nearest alpha, if within ``_LEVEL_TOL``."""
        t = min(self.tables, key=lambda t: abs(t.alpha - alpha))
        if abs(t.alpha - alpha) > _LEVEL_TOL:
            raise ConfigurationError(f"no table at level alpha={alpha}")
        return t

    def raw_decisions(self, w, mu0: float) -> list[bool]:
        """Each table's own decision, without the nested rule; the tables
        share k and n0, so the sample is standardized (and warned about) once."""
        rows = _rows(_standardize(w, self.tables[0])[0], mu0)
        memo = LogFaMemo(self.tables[0].xi_grid)
        return [bool(_evaluator(t).decide_batch(*rows, memo)[0]) for t in self.tables]

    def nested_reject(self, w, mu0: float, alpha: float) -> bool:
        """Reject at alpha only if all tests at levels >= alpha reject."""
        tables = [t for t in self.tables if t.alpha + _LEVEL_TOL >= alpha]
        if not tables:
            raise ConfigurationError(f"no table at level >= {alpha}")
        yr, yl, y0 = _rows(_standardize(w, tables[0])[0], mu0)
        return bool(_nested(yr[None], yl[None], np.array([y0]), tables, LogFaMemo(tables[0].xi_grid))[0])


@dataclass(frozen=True)
class PValueResult:
    """Smallest grid level that rejects; ``exceeds_max`` if none does."""

    value: float
    exceeds_max: bool = False

    def __str__(self):
        return f"> {self.value:g}" if self.exceeds_max else f"{self.value:g}"

    def __float__(self):
        return self.value


def p_value(w, mu0: float, tables: TableSet) -> PValueResult:
    """Scan levels from the largest down while the tests keep rejecting."""
    if not isinstance(tables, TableSet):
        tables = TableSet(tables)
    rows = _rows(_standardize(w, tables.tables[0])[0], mu0)
    memo = LogFaMemo(tables.tables[0].xi_grid)
    smallest = None
    for t in reversed(tables.tables):
        if not _evaluator(t).decide_batch(*rows, memo)[0]:
            break
        smallest = t.alpha
    if smallest is None:
        return PValueResult(value=tables.alphas[-1], exceeds_max=True)
    return PValueResult(value=smallest)


CI_GRID_POINTS = 512
CI_SPAN_RANGES = 10.0
_BISECT_ITER = 80
_BISECT_DEPTH = 3


def _bisection_tree(a_rej: float, b_acc: float, depth: int) -> list[float]:
    """Midpoints of the next ``depth`` bisection levels of a bracket in heap
    order: node i's children 2i + 1 and 2i + 2 bisect the half left after
    node i's midpoint is rejected and accepted, respectively."""
    brackets = [(a_rej, b_acc)]
    mids = []
    for j in range(2**depth - 1):
        a, b = brackets[j]
        mid = 0.5 * (a + b)
        mids.append(mid)
        brackets += [(mid, b), (a, mid)]
    return mids


def _refine(s: SampleSummary, brackets: list[tuple[float, float]], tables: list[TestTable], memo) -> list[float]:
    """Bisect each (rejected, accepted) bracket to its accepted end.

    Each round decides the next ``_BISECT_DEPTH`` levels of every live
    bracket's bisection tree in one call, then walks each tree along the
    decided branch.  The walk keeps the sequential loop's stop rules (a
    midpoint equal to an end, at most ``_BISECT_ITER`` halvings), so every
    end equals that of one-point-per-call bisection bit for bit.
    """
    brackets = list(brackets)
    live = list(range(len(brackets)))
    used = 0
    while live and used < _BISECT_ITER:
        depth = min(_BISECT_DEPTH, _BISECT_ITER - used)
        trees = [_bisection_tree(*brackets[i], depth) for i in live]
        rejected = _nested(*_rows(s, np.ravel(trees)), tables, memo).reshape(len(live), -1)
        used += depth
        unsettled = []
        for i, mids, rej in zip(live, trees, rejected):
            a_rej, b_acc = brackets[i]
            node = 0
            for _ in range(depth):
                mid = mids[node]
                if mid == a_rej or mid == b_acc:
                    break
                if rej[node]:
                    a_rej, node = mid, 2 * node + 1
                else:
                    b_acc, node = mid, 2 * node + 2
            else:
                unsettled.append(i)
            brackets[i] = (a_rej, b_acc)
        live = unsettled
    return [b_acc for _, b_acc in brackets]


def confidence_interval(w, level: float, table: TestTable | TableSet) -> tuple[float, float]:
    """Test inversion: hull of non-rejected means on a refined grid."""
    if not 0.0 < level < 1.0:
        raise InvalidArgument("confidence level must lie in (0, 1)")
    alpha = 1.0 - level
    tset = table if isinstance(table, TableSet) else TableSet([table])
    # the level picks one table; the interval nests every table at or above it
    at = tset.table_at(alpha)
    tables = [t for t in tset.tables if t.alpha >= at.alpha]
    w = np.asarray(w, dtype=float)
    center = float(w.mean())
    span = CI_SPAN_RANGES * float(np.ptp(w)) / math.sqrt(w.size)
    if span <= 0.0:
        raise DegenerateSample("sample has zero range")
    s = _standardize(w, at)[0]
    memo = LogFaMemo(at.xi_grid)
    for widen in (1.0, 4.0):
        grid = np.linspace(center - widen * span, center + widen * span, CI_GRID_POINTS)
        reject = _nested(*_rows(s, grid), tables, memo)
        accept = np.flatnonzero(~reject)
        if accept.size:
            break
    else:
        raise IntervalNotFound("every candidate mean was rejected on the widened grid")

    lo_idx, hi_idx = accept[0], accept[-1]
    ends = [grid[lo_idx], grid[hi_idx]]
    # an endpoint inside the grid is bracketed by its rejected outer neighbour
    brackets = {}
    if lo_idx > 0:
        brackets[0] = (grid[lo_idx - 1], grid[lo_idx])
    if hi_idx < grid.size - 1:
        brackets[1] = (grid[hi_idx + 1], grid[hi_idx])
    for e, end in zip(brackets, _refine(s, list(brackets.values()), tables, memo)):
        ends[e] = end
    return float(ends[0]), float(ends[1])
