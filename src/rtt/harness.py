"""Monte Carlo harness: comparator tests, experiment runner, reporting.

Reproduces the size/length experiment designs at desk scale: inference for
the mean, difference of two means, and a clustered regression with a
heterogeneous within-cluster component.  Rejection rates carry binomial
standard errors; confidence interval lengths are reported relative to the
infeasible size-corrected t benchmark whose critical value is calibrated by
simulation.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .adapters import ClusteredDataset, _cr0_se, _ols_cluster_scores, clustered_ols_w, two_sample_w
from .errors import ConfigurationError, DegenerateSample, InvalidArgument
from .inference import confidence_interval, decide
from .populations import Population, make_population
from .table import TestTable, read_table

CLUSTER_SIZE = 10
N_CONTROLS = 5


@dataclass(frozen=True)
class TestOutcome:
    reject: bool
    ci_low: float = math.nan
    ci_high: float = math.nan

    @property
    def ci_length(self) -> float:
        return self.ci_high - self.ci_low


def _mean_se(w) -> tuple[np.ndarray, float, float]:
    """The sample as floats, its mean and the standard error of the mean."""
    w = np.asarray(w, dtype=float)
    s = w.std(ddof=1)
    if s <= 0.0:
        raise DegenerateSample("constant sample")
    return w, float(w.mean()), s / math.sqrt(w.size)


def _studentized(mean: float, se: float, mu0: float, q_lo: float, q_hi: float, with_ci: bool) -> TestOutcome:
    """Reject where (mean - mu0)/se falls outside [q_lo, q_hi]; the interval
    inverts the same quantiles."""
    t_obs = (mean - mu0) / se
    reject = t_obs < q_lo or t_obs > q_hi
    if not with_ci:
        return TestOutcome(reject)
    return TestOutcome(reject, mean - q_hi * se, mean - q_lo * se)


def t_test(w, mu0: float, alpha: float, with_ci: bool = True) -> TestOutcome:
    """Plain t test with student-t critical value at n-1 degrees of freedom."""
    w, mean, se = _mean_se(w)
    cv = float(stats.t.ppf(1.0 - alpha / 2.0, w.size - 1))
    return _studentized(mean, se, mu0, -cv, cv, with_ci)


_MAX_REDRAWS = 100


def _bootstrap_t_draws(w: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    """Studentized statistics of bootstrap resamples, recentered at the
    sample mean (resampling the demeaned empirical distribution)."""
    n = w.size
    mean = w.mean()
    t_star = np.empty(B)
    pending = np.arange(B)
    for _ in range(_MAX_REDRAWS):
        idx = rng.integers(0, n, size=(pending.size, n))
        res = w[idx]
        m = res.mean(axis=1)
        s = res.std(axis=1, ddof=1)
        ok = s > 0.0
        t_star[pending[ok]] = (m[ok] - mean) / (s[ok] / math.sqrt(n))
        pending = pending[~ok]
        if pending.size == 0:
            return t_star
    raise DegenerateSample(f"{pending.size} bootstrap resamples stayed degenerate")


def boot_sym(w, mu0: float, alpha: float, B: int = 999, rng=None, with_ci: bool = True) -> TestOutcome:
    """Percentile-t bootstrap on the absolute studentized statistic."""
    if B < 99:
        raise InvalidArgument("bootstrap needs at least 99 replicates")
    w, mean, se = _mean_se(w)
    t_star = _bootstrap_t_draws(w, B, np.random.default_rng(rng))
    q = float(np.quantile(np.abs(t_star), 1.0 - alpha))
    return _studentized(mean, se, mu0, -q, q, with_ci)


def boot_asym(w, mu0: float, alpha: float, B: int = 999, rng=None, with_ci: bool = True) -> TestOutcome:
    """Percentile-t bootstrap with equal-tail signed quantiles."""
    if B < 99:
        raise InvalidArgument("bootstrap needs at least 99 replicates")
    w, mean, se = _mean_se(w)
    t_star = _bootstrap_t_draws(w, B, np.random.default_rng(rng))
    q_lo = float(np.quantile(t_star, alpha / 2.0))
    q_hi = float(np.quantile(t_star, 1.0 - alpha / 2.0))
    return _studentized(mean, se, mu0, q_lo, q_hi, with_ci)


def wild_cluster_boot(
    dataset: ClusteredDataset,
    beta0: float,
    alpha: float,
    B: int = 999,
    rng=None,
    with_ci: bool = True,
) -> TestOutcome:
    """Wild cluster bootstrap imposing the null, Rademacher weights.

    The observed CR0 statistic is compared against bootstrap quantiles of the
    null-restricted resampled statistics; the interval uses the bootstrap
    critical value around the unrestricted estimate.
    """
    if B < 99:
        raise InvalidArgument("bootstrap needs at least 99 replicates")
    rng = np.random.default_rng(rng)
    y = np.asarray(dataset.y, dtype=float)
    x = np.asarray(dataset.x, dtype=float)
    z = np.asarray(dataset.controls, dtype=float)
    labels = np.asarray(dataset.clusters)
    uniq, inv = np.unique(labels, return_inverse=True)
    n_cl = uniq.size
    # null-restricted fit
    gamma, _, _, _ = np.linalg.lstsq(z, y - beta0 * x, rcond=None)
    u_tilde = y - beta0 * x - z @ gamma
    base = z @ gamma + beta0 * x
    design = np.column_stack([x, z])
    pinv = np.linalg.pinv(design)
    beta_hat, x_til, h_obs = _ols_cluster_scores(dataset)
    denom = float(x_til @ x_til)
    cmat = np.zeros((n_cl, y.size))
    cmat[inv, np.arange(y.size)] = 1.0

    signs = np.where(rng.random((n_cl, B)) < 0.5, -1.0, 1.0)
    y_star = base[:, None] + u_tilde[:, None] * signs[inv]
    coefs = pinv @ y_star
    resid = y_star - design @ coefs
    h = cmat @ (x_til[:, None] * resid)
    se_star = np.sqrt((h * h).sum(axis=0)) / denom
    t_star = (coefs[0] - beta0) / se_star

    se_obs = _cr0_se(x_til, h_obs)
    q = float(np.quantile(np.abs(t_star), 1.0 - alpha))
    reject = abs((beta_hat - beta0) / se_obs) > q
    if not with_ci:
        return TestOutcome(reject)
    return TestOutcome(reject, beta_hat - q * se_obs, beta_hat + q * se_obs)


# ---------------------------------------------------------------------------
# experiment designs


ADAPTERS = ("mean", "two_sample", "cluster_ols")
METHODS = ("t_test", "sym_boot", "asym_boot", "wild_cluster", "new")


@dataclass(frozen=True)
class ExperimentDesign:
    population: str
    adapter: str = "mean"
    n: int = 50
    replications: int = 1000
    alpha: float = 0.05
    methods: tuple[str, ...] = ("t_test",)
    seed: int = 0
    table: TestTable | None = None
    compute_ci: bool = True
    bootstrap_b: int = 999
    calibration_reps: int = 100_000

    def __post_init__(self):
        if self.replications < 1:
            raise InvalidArgument("need at least one replication")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidArgument(f"level alpha must lie in (0, 1), got {self.alpha!r}")
        if self.n < 2:
            raise InvalidArgument(f"need at least 2 effective observations, got n={self.n}")
        if self.compute_ci and self.calibration_reps < 1:
            raise InvalidArgument("intervals need at least one calibration replication")
        if self.bootstrap_b < 99 and set(self.methods) & {"sym_boot", "asym_boot", "wild_cluster"}:
            raise InvalidArgument(f"bootstrap needs at least 99 replicates, got bootstrap_b={self.bootstrap_b}")
        if self.adapter not in ADAPTERS:
            raise InvalidArgument(f"unknown adapter {self.adapter!r}; known: {ADAPTERS}")
        if self.adapter == "two_sample" and self.n % 2:
            raise InvalidArgument("two-sample designs need an even total sample size")
        if not self.methods:
            raise InvalidArgument(f"a design needs at least one method; known: {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise InvalidArgument(f"each method may be named once, got {self.methods}")
        for m in self.methods:
            if m not in METHODS:
                raise InvalidArgument(f"unknown method {m!r}; known: {METHODS}")
        if "wild_cluster" in self.methods and self.adapter != "cluster_ols":
            raise InvalidArgument("wild_cluster applies only to the cluster_ols adapter")
        if "new" in self.methods and self.table is None:
            raise InvalidArgument("method 'new' needs a test table")
        if "new" in self.methods and self.n < 2 * self.table.k + 2:
            raise InvalidArgument(
                f"method 'new' needs n >= {2 * self.table.k + 2} for the table's k={self.table.k}, got n={self.n}"
            )


def _generate(design: ExperimentDesign, pop: Population, rng: np.random.Generator):
    """One replication's effective observations (plus the raw dataset when
    the design is a clustered regression)."""
    if design.adapter == "mean":
        return pop.draw(rng, design.n), None
    if design.adapter == "two_sample":
        half = design.n // 2
        nu = pop.draw(rng, half)
        w1 = nu + math.sqrt(0.1) * rng.standard_normal(half)
        w2 = math.sqrt(0.1) * rng.standard_normal(half)
        return two_sample_w(w1, w2), None
    n_cl = design.n
    t_i = CLUSTER_SIZE
    n_obs = n_cl * t_i
    x = rng.standard_normal(n_obs)
    z = np.column_stack([np.ones(n_obs), rng.standard_normal((n_obs, N_CONTROLS))])
    nu = pop.draw(rng, n_cl)
    labels = np.repeat(np.arange(n_cl), t_i)
    u = nu[labels] * x + rng.standard_normal(n_obs)
    dataset = ClusteredDataset(y=u, x=x, controls=z, clusters=labels)
    return clustered_ols_w(dataset), dataset


def _plain_t_stat(w: np.ndarray) -> np.ndarray:
    """The plain t statistic of each row of ``w``: numpy reduces each row
    of a C-ordered block as it reduces that row alone."""
    return w.mean(axis=-1) / (w.std(ddof=1, axis=-1) / math.sqrt(w.shape[-1]))


_CALIBRATION_BLOCK = 1024  # replications per t-statistic pass; bounds its memory


def size_corrected_benchmark(design: ExperimentDesign) -> float:
    """Critical value making the plain t test exactly level-alpha by
    simulation under the design (the infeasible benchmark).  Each
    replication draws from its own stream; the statistics are computed a
    block of replications at a time."""
    pop = make_population(design.population)
    reps = design.calibration_reps
    stats_ = np.empty(reps)
    for lo in range(0, reps, _CALIBRATION_BLOCK):
        hi = min(lo + _CALIBRATION_BLOCK, reps)
        block = [_generate(design, pop, np.random.default_rng([design.seed, 10 ** 6 + r]))[0] for r in range(lo, hi)]
        stats_[lo:hi] = _plain_t_stat(np.stack(block))
    return float(np.quantile(np.abs(stats_), 1.0 - design.alpha))


@dataclass
class Report:
    design: ExperimentDesign
    rows: list[dict] = field(default_factory=list)

    def to_csv(self, destination) -> None:
        close = False
        if isinstance(destination, (str, os.PathLike)):
            fh = open(destination, "w", newline="", encoding="utf-8")
            close = True
        else:
            fh = destination
        try:
            writer = csv.DictWriter(
                fh,
                fieldnames=["method", "population", "n", "reject_rate", "se", "rel_ci_length"],
            )
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        finally:
            if close:
                fh.close()

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def rate(self, method: str) -> float:
        for row in self.rows:
            if row["method"] == method:
                return row["reject_rate"]
        raise KeyError(method)

    def rel_length(self, method: str) -> float:
        for row in self.rows:
            if row["method"] == method:
                return row["rel_ci_length"]
        raise KeyError(method)


def run_experiment(design: ExperimentDesign) -> Report:
    """Null rejection rates and relative interval lengths for each method.

    Deterministic given the design seed: every replication derives its own
    stream from (seed, replication index), so results do not depend on
    execution order.
    """
    pop = make_population(design.population)
    mu0 = 0.0
    rejects = {m: np.zeros(design.replications, dtype=bool) for m in design.methods}
    lengths = {m: np.full(design.replications, np.nan) for m in design.methods}
    bench = np.full(design.replications, np.nan)
    cv_star = size_corrected_benchmark(design) if design.compute_ci else math.nan

    for r in range(design.replications):
        rng = np.random.default_rng([design.seed, r])
        eff, dataset = _generate(design, pop, rng)
        if design.compute_ci:
            bench[r] = 2.0 * cv_star * eff.std(ddof=1) / math.sqrt(eff.size)
        for m in design.methods:
            if m == "t_test":
                out = t_test(eff, mu0, design.alpha, with_ci=design.compute_ci)
            elif m == "sym_boot":
                out = boot_sym(eff, mu0, design.alpha, design.bootstrap_b, rng, design.compute_ci)
            elif m == "asym_boot":
                out = boot_asym(eff, mu0, design.alpha, design.bootstrap_b, rng, design.compute_ci)
            elif m == "wild_cluster":
                out = wild_cluster_boot(
                    dataset, mu0, design.alpha, design.bootstrap_b, rng, design.compute_ci
                )
            else:
                dec = decide(eff, mu0, design.table)
                if design.compute_ci:
                    lo, hi = confidence_interval(eff, 1.0 - design.alpha, design.table)
                    out = TestOutcome(dec.reject, lo, hi)
                else:
                    out = TestOutcome(dec.reject)
            rejects[m][r] = out.reject
            if design.compute_ci:
                lengths[m][r] = out.ci_length

    report = Report(design=design)
    bench_mean = float(np.nanmean(bench)) if design.compute_ci else math.nan
    for m in design.methods:
        rate = float(rejects[m].mean())
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / design.replications)
        rel = float(np.nanmean(lengths[m]) / bench_mean) if design.compute_ci else math.nan
        report.rows.append(
            {
                "method": m,
                "population": pop.name,
                "n": design.n,
                "reject_rate": rate,
                "se": se,
                "rel_ci_length": rel,
            }
        )
    return report


# ---------------------------------------------------------------------------
# plain-text design files


# design-file key -> (ExperimentDesign field, conversion of the value text,
# which raises ValueError or KeyError on text it does not accept)
_DESIGN_KEYS = {
    "population": ("population", str),
    "table": ("table", str),
    "adapter": ("adapter", str),
    "n": ("n", int),
    "reps": ("replications", int),
    "alpha": ("alpha", float),
    "methods": ("methods", lambda v: tuple(m.strip() for m in v.split(",") if m.strip())),
    "seed": ("seed", int),
    "ci": ("compute_ci", lambda v: {"true": True, "yes": True, "1": True,
                                    "false": False, "no": False, "0": False}[v.lower()]),
    "bootstrap_b": ("bootstrap_b", int),
    "calibration_reps": ("calibration_reps", int),
}


def parse_design_config(text: str, table_loader=None) -> ExperimentDesign:
    """Parse the key=value design format (# starts a comment).

    Keys: population, adapter, n, reps, alpha, methods (comma-separated),
    seed, table (path, optional), ci (true/false/yes/no/1/0), bootstrap_b,
    calibration_reps; any other key, or a value its key does not accept, is
    an error naming the line.
    """
    given = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigurationError(f"design line {lineno}: expected key = value")
        key, val = key.strip().lower(), val.strip()
        if key not in _DESIGN_KEYS:
            raise ConfigurationError(f"design line {lineno}: unknown key '{key}'")
        name, convert = _DESIGN_KEYS[key]
        try:
            given[name] = convert(val)
        except (ValueError, KeyError):
            raise ConfigurationError(f"design line {lineno}: bad value {val!r} for '{key}'") from None
    if "population" not in given:
        raise ConfigurationError("design file must set 'population'")
    # the design's own defaults stand for every key the file leaves out
    path = given.pop("table", "")
    if path:
        given["table"] = (table_loader or read_table)(path)
    return ExperimentDesign(**given)
