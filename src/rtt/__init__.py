"""Extreme-value robust t-test: construction, inference, and simulation."""

from .adapters import (
    ClusteredDataset,
    GmmProblem,
    clustered_ols_w,
    finite_difference_jacobian,
    gmm_w,
    two_sample_w,
)
from .fa import DEFAULT_XI_GRID, f_a_single, log_f_a_single
from .gev import TailParams, order_stat_moment, sample_joint_tail, tail_density
from .harness import (
    ExperimentDesign,
    Report,
    boot_asym,
    boot_sym,
    run_experiment,
    size_corrected_benchmark,
    t_test,
    wild_cluster_boot,
)
from .inference import (
    Decision,
    PValueResult,
    SampleSummary,
    TableSet,
    confidence_interval,
    decide,
    p_value,
    summarize,
    to_ystar,
)
from .model import (
    ExtendedTail,
    ThetaFull,
    YStar,
    big_m_star,
    extended_density,
    joint_density,
    m_star,
    recombine,
    sample_extended_tail,
    sample_ystar,
    single_tail_density,
)
from .populations import Population, make_population, population_names
from .solver import (
    BuildConfig,
    IsPool,
    RpEstimate,
    SwitchConstants,
    TestEvaluator,
    build_proposal,
    build_table,
    estimate_rp,
    simulate_rp,
    smoke_build_config,
    switching_index,
)
from .space import SpaceConfig, boundary_grid, contains, tail_mean, tail_second_moment
from .table import TestTable, read_table, table_checksum, write_table

__version__ = "0.1.0"
