import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtt.adapters import ClusteredDataset, _cr0_se, _ols_cluster_scores, cluster_robust_t
from rtt.errors import ConfigurationError, DegenerateSample, InvalidArgument
from rtt.harness import (
    ExperimentDesign,
    boot_asym,
    boot_sym,
    parse_design_config,
    run_experiment,
    size_corrected_benchmark,
    t_test,
    wild_cluster_boot,
    _CALIBRATION_BLOCK,
    _generate,
)
from rtt.populations import make_population, population_names
from rtt.table import read_table

DESK = Path(__file__).resolve().parents[1] / "tables" / "desk_k4_a05.rtt"


class TestPopulations:
    @pytest.mark.parametrize("name", population_names())
    def test_standardization(self, name):
        # analytic normalization confirmed on ten million draws
        pop = make_population(name)
        rng = np.random.default_rng(42)
        x = pop.draw(rng, 10_000_000)
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean()) < 4.0 * se_mean
        v = x ** 2
        se_var = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - 1.0) < 4.0 * se_var

    def test_lognormal_constants(self):
        pop = make_population("LogN")
        assert_allclose(pop.shift, math.exp(0.5), rtol=1e-12)
        assert_allclose(pop.scale, math.sqrt(math.exp(2) - math.exp(1)), rtol=1e-12)

    def test_pareto_constants(self):
        pop = make_population("P(0.4)")
        assert_allclose(pop.shift, 5.0 / 3.0, rtol=1e-12)
        assert_allclose(pop.scale ** 2, 20.0 / 9.0, rtol=1e-12)

    def test_aliases_and_unknown(self):
        assert make_population("logn").name == "LogN"
        with pytest.raises(InvalidArgument):
            make_population("cauchy")


class TestComparators:
    def test_t_test_size_on_normal(self):
        rng = np.random.default_rng(0)
        hits = sum(
            t_test(rng.standard_normal(50), 0.0, 0.05, with_ci=False).reject
            for _ in range(2000)
        )
        rate = hits / 2000
        assert abs(rate - 0.05) < 0.02

    def test_t_test_ci_covers_mean(self):
        out = t_test(np.arange(10.0), 4.5, 0.05)
        assert not out.reject
        assert out.ci_low < 4.5 < out.ci_high

    def test_constant_sample_errors(self):
        with pytest.raises(DegenerateSample):
            t_test(np.ones(20), 0.0, 0.05)
        with pytest.raises(DegenerateSample):
            boot_sym(np.ones(20), 0.0, 0.05, B=99, rng=0)

    def test_boot_requires_replicates(self):
        with pytest.raises(InvalidArgument):
            boot_sym(np.arange(10.0), 0.0, 0.05, B=10, rng=0)

    def test_boot_deterministic_given_rng(self):
        w = np.random.default_rng(1).standard_normal(40)
        a = boot_sym(w, 0.0, 0.05, B=199, rng=np.random.default_rng(5))
        b = boot_sym(w, 0.0, 0.05, B=199, rng=np.random.default_rng(5))
        assert a == b

    def test_asym_interval_is_equal_tail(self):
        w = np.random.default_rng(2).lognormal(size=60)
        out = boot_asym(w, 0.0, 0.1, B=999, rng=np.random.default_rng(3))
        assert out.ci_low < out.ci_high

    def test_wild_cluster_boot_runs(self):
        rng = np.random.default_rng(4)
        n_cl, t_i = 30, 6
        labels = np.repeat(np.arange(n_cl), t_i)
        x = rng.standard_normal(n_cl * t_i)
        z = np.column_stack([np.ones(n_cl * t_i), rng.standard_normal((n_cl * t_i, 2))])
        nu = rng.standard_normal(n_cl)
        y = 0.0 * x + nu[labels] * x + rng.standard_normal(n_cl * t_i)
        d = ClusteredDataset(y=y, x=x, controls=z, clusters=labels)
        out = wild_cluster_boot(d, 0.0, 0.05, B=199, rng=np.random.default_rng(6))
        assert out.ci_low < out.ci_high
        # one CR0 fit: the interval is centred on its estimate, and the test
        # rejects where the CR0 t statistic exceeds the interval's critical value
        beta_hat, x_til, h = _ols_cluster_scores(d)
        se = _cr0_se(x_til, h)
        assert_allclose(0.5 * (out.ci_low + out.ci_high), beta_hat, rtol=1e-12)
        q = (out.ci_high - out.ci_low) / (2.0 * se)
        assert (abs(cluster_robust_t(d, 0.0)) > q) == out.reject
        # imposing an absurd null must reject
        far = wild_cluster_boot(d, 50.0, 0.05, B=199, rng=np.random.default_rng(7))
        assert far.reject


class TestDesigns:
    def test_cluster_design_recovers_beta(self):
        # the within-cluster heteroskedastic design keeps the coefficient
        # identified: OLS on one large draw recovers beta = 0
        design = ExperimentDesign(population="LogN", adapter="cluster_ols", n=400,
                                  replications=1, methods=("t_test",), seed=3,
                                  compute_ci=False)
        pop = make_population("LogN")
        eff, dataset = _generate(design, pop, np.random.default_rng(11))
        assert dataset is not None and eff.size == 400
        beta_hat = eff.mean()
        se = eff.std(ddof=1) / math.sqrt(eff.size)
        assert abs(beta_hat) < 4.0 * se

    def test_two_sample_design_centered(self):
        design = ExperimentDesign(population="LogN", adapter="two_sample", n=600,
                                  replications=1, methods=("t_test",), seed=3,
                                  compute_ci=False)
        pop = make_population("LogN")
        eff, _ = _generate(design, pop, np.random.default_rng(12))
        assert eff.size == 600
        se = eff.std(ddof=1) / math.sqrt(eff.size)
        assert abs(eff.mean()) < 4.0 * se

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            ExperimentDesign(population="LogN", adapter="two_sample", n=51)
        with pytest.raises(InvalidArgument):
            ExperimentDesign(population="LogN", methods=("wild_cluster",))
        with pytest.raises(InvalidArgument):
            ExperimentDesign(population="LogN", methods=("new",))
        with pytest.raises(InvalidArgument):
            ExperimentDesign(population="LogN", methods=("bogus",))

    @pytest.mark.parametrize("methods, match", [
        ((), "at least one method"),
        (("t_test", "t_test"), "named once"),
        (("sym_boot", "t_test", "sym_boot"), "named once"),
    ])
    def test_methods_nonempty_and_distinct(self, methods, match):
        with pytest.raises(InvalidArgument, match=match):
            ExperimentDesign(population="LogN", methods=methods, compute_ci=False)


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        design = ExperimentDesign(
            population="LogN", n=40, replications=60, methods=("t_test", "sym_boot"),
            seed=7, compute_ci=False, bootstrap_b=99,
        )
        a = run_experiment(design).csv_text()
        b = run_experiment(design).csv_text()
        assert a == b

    def test_binomial_standard_errors(self):
        design = ExperimentDesign(
            population="LogN", n=40, replications=50, methods=("t_test",),
            seed=8, compute_ci=False,
        )
        row = run_experiment(design).rows[0]
        p = row["reject_rate"]
        assert_allclose(row["se"], math.sqrt(max(p * (1 - p), 1e-12) / 50), rtol=1e-9)

    def test_t_test_relative_length_near_one_on_normal(self):
        design = ExperimentDesign(
            population="N(0,1)", n=50, replications=400, methods=("t_test",),
            seed=9, compute_ci=True, calibration_reps=20_000,
        )
        report = run_experiment(design)
        assert abs(report.rel_length("t_test") - 1.0) < 0.05

    def test_benchmark_critical_value_near_t_quantile_for_normal(self):
        from scipy import stats

        design = ExperimentDesign(
            population="N(0,1)", n=50, replications=1, methods=("t_test",),
            seed=10, calibration_reps=40_000,
        )
        cv = size_corrected_benchmark(design)
        assert abs(cv - stats.t.ppf(0.975, 49)) < 0.06

    @pytest.mark.parametrize(
        "adapter, populations",
        [("mean", population_names()), ("two_sample", population_names()), ("cluster_ols", ("N(0,1)", "LogN"))],
        ids=["mean", "two_sample", "cluster_ols"],
    )
    def test_blocked_calibration_matches_per_replication_loop(self, adapter, populations):
        # the stacked t statistics give the per-replication loop's critical
        # value bit for bit, over several blocks and a short last one
        reps = 2 * _CALIBRATION_BLOCK + 37 if adapter != "cluster_ols" else _CALIBRATION_BLOCK + 5
        for name in populations:
            design = ExperimentDesign(
                population=name, adapter=adapter, n=40, replications=1, seed=12, calibration_reps=reps,
            )
            pop = make_population(name)
            looped = []
            for r in range(reps):
                w, _ = _generate(design, pop, np.random.default_rng([design.seed, 10 ** 6 + r]))
                looped.append(float(w.mean() / (w.std(ddof=1) / math.sqrt(w.size))))
            want = float(np.quantile(np.abs(looped), 1.0 - design.alpha))
            assert size_corrected_benchmark(design) == want

    def test_report_csv_shape(self):
        design = ExperimentDesign(
            population="Mix1", n=30, replications=25, methods=("t_test", "asym_boot"),
            seed=11, compute_ci=False, bootstrap_b=99,
        )
        text = run_experiment(design).csv_text()
        lines = text.strip().splitlines()
        assert lines[0] == "method,population,n,reject_rate,se,rel_ci_length"
        assert len(lines) == 3

    def test_desk_size_row(self):
        # null rejections out of 2000 replications at n = 50 with the shipped
        # desk table, pinned so that a deliberate change to the table shows
        # here: the new test sits far below its level of 5% (100 of 2000)
        pops = ("N(0,1)", "LogN", "F(4,5)", "t(3)", "P(0.4)", "Mix1", "Mix2")
        want = {"new": [2, 15, 41, 7, 52, 18, 66], "t_test": [85, 191, 283, 86, 273, 152, 368]}
        desk = read_table(DESK)
        got = {m: [] for m in want}
        for pop in pops:
            report = run_experiment(ExperimentDesign(
                population=pop, n=50, replications=2000, methods=("t_test", "new"),
                seed=1, table=desk, compute_ci=False,
            ))
            for m in got:
                got[m].append(round(report.rate(m) * 2000))
        assert got == want


class TestDesignConfig:
    def test_round_trip(self):
        text = """
        # comment
        population = LogN
        adapter = mean
        n = 40
        reps = 10
        alpha = 0.1
        methods = t_test, sym_boot
        seed = 5
        ci = false
        """
        d = parse_design_config(text)
        assert d.population == "LogN" and d.n == 40 and d.alpha == 0.1
        assert d.methods == ("t_test", "sym_boot") and not d.compute_ci

    def test_missing_population(self):
        with pytest.raises(ConfigurationError):
            parse_design_config("n = 40")

    def test_unset_keys_take_the_design_defaults(self):
        assert parse_design_config("population = LogN") == ExperimentDesign(population="LogN")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="line 2: unknown key 'rep'"):
            parse_design_config("population = LogN\nrep = 10")

    @pytest.mark.parametrize("text, match", [
        pytest.param("alpha = 0", "alpha", id="alpha_zero"),
        pytest.param("alpha = nan", "alpha", id="alpha_nan"),
        pytest.param("alpha = 1.5", "alpha", id="alpha_above_one"),
        pytest.param("n = 1\nmethods = sym_boot", "n=1", id="one_observation"),
        pytest.param("n = 9\nmethods = new\ntable = desk", r"n >= 10 .* k=4", id="n_below_2k_plus_2"),
        pytest.param("ci = true\ncalibration_reps = 0", "calibration", id="ci_without_calibration"),
        pytest.param("methods = asym_boot\nbootstrap_b = 98", "bootstrap_b=98", id="too_few_resamples"),
        pytest.param("methods = ", "at least one method", id="no_method"),
        pytest.param("methods = , ,", "at least one method", id="only_commas"),
        pytest.param("methods = t_test, sym_boot, t_test", "named once", id="repeated_method"),
    ])
    def test_values_checked(self, text, match):
        with pytest.raises(InvalidArgument, match=match):
            parse_design_config(f"population = LogN\n{text}", table_loader=lambda _: read_table(DESK))

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_design_config("population = LogN\nbogus line")

    @pytest.mark.parametrize("text, key", [
        ("n = 50.0", "n"),
        ("reps = ten", "reps"),
        ("alpha = 5%", "alpha"),
        ("seed = 1e3", "seed"),
        ("ci = flase", "ci"),
        ("ci = on", "ci"),
        ("bootstrap_b = 999.5", "bootstrap_b"),
        ("calibration_reps = ", "calibration_reps"),
    ])
    def test_bad_value_names_line_and_key(self, text, key):
        with pytest.raises(ConfigurationError, match=f"line 3: bad value .* for '{key}'"):
            parse_design_config(f"population = LogN\n# a comment\n{text}")

    @pytest.mark.parametrize("text, want", [
        ("true", True), ("Yes", True), ("1", True), ("FALSE", False), ("no", False), ("0", False),
    ])
    def test_ci_flags(self, text, want):
        assert parse_design_config(f"population = LogN\nci = {text}").compute_ci is want
