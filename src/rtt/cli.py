"""Command line interface.

Subcommands:

    rtt test     --data FILE --mu0 V --alpha V --table PATH
    rtt pvalue   --data FILE --mu0 V --tables DIR
    rtt ci       --data FILE --level V (--table PATH | --tables DIR)
    rtt regress  --data FILE --y COL --x COL --cluster COL --beta0 V --table PATH
    rtt simulate --design FILE --out FILE
    rtt build    --out PATH [--profile desk|smoke] [options]

Data files hold one number per line, or CSV with a header when --column is
given.  Results are printed as a human line followed by machine-readable
key=value lines; each distinct warning a command gives, such as a sample
below the table's design horizon, ends them as a ``warning=`` line.
"""

from __future__ import annotations

import argparse
import csv
import glob
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .adapters import ClusteredDataset, clustered_ols_w
from .errors import InvalidArgument, RttError
from .harness import parse_design_config, run_experiment
from .inference import _LEVEL_TOL, TableSet, confidence_interval, decide, p_value
from .solver import BuildConfig, build_table, smoke_build_config
from .table import read_table, write_table


def _floats(path: str, where: str, cells) -> np.ndarray:
    """Numbers of (position, text) pairs; a bad one is reported as
    ``<path>, <where> <position>``."""
    values = []
    for pos, cell in cells:
        try:
            values.append(float(cell))
        except (TypeError, ValueError):  # a short CSV row's missing cell is None
            raise InvalidArgument(f"{path}, {where} {pos}: not a number: {cell!r}") from None
    return np.asarray(values, dtype=float)


def _csv_floats(path: str, data: dict[str, np.ndarray], column: str) -> np.ndarray:
    return _floats(path, f"column {column!r}, data row", enumerate(data[column].tolist(), start=1))


def _read_numbers(path: str, column: str | None) -> np.ndarray:
    if column is not None:
        return _csv_floats(path, _read_csv_columns(path, [column]), column)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, raw.strip()) for lineno, raw in enumerate(fh, start=1)]
    return _floats(path, "line", [(i, ln) for i, ln in lines if ln and not ln.startswith("#")])


def _read_csv_columns(path: str, columns: list[str]) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise RttError(f"{path}: empty CSV file")
        for col in columns:
            if col not in reader.fieldnames:
                raise RttError(f"{path}: no column named {col!r}; have {reader.fieldnames}")
        rows = list(reader)
    return {col: np.asarray([row[col] for row in rows]) for col in columns}


def _print_kv(**kv):
    for key, value in kv.items():
        print(f"{key}={value}")


def _cmd_test(args) -> int:
    w = _read_numbers(args.data, args.column)
    table = read_table(args.table)
    if args.alpha is not None and abs(table.alpha - args.alpha) > _LEVEL_TOL:
        print(f"error: table holds alpha={table.alpha:g}, requested {args.alpha:g}", file=sys.stderr)
        return 2
    dec = decide(w, args.mu0, table)
    verdict = "reject" if dec.reject else "accept"
    print(f"{verdict} H0: mean = {args.mu0:g} at level {table.alpha:g}")
    _print_kv(
        decision=verdict,
        reject=int(dec.reject),
        mu0=f"{args.mu0:.17g}",
        alpha=f"{table.alpha:.17g}",
        t_statistic=f"{dec.t_statistic:.17g}",
        gate_critical_value=f"{dec.critical_value:.17g}",
        n=w.size,
        k=table.k,
    )
    return 0


def _load_table_set(spec: str) -> TableSet:
    if os.path.isdir(spec):
        paths = sorted(glob.glob(os.path.join(spec, "*.rtt")))
    else:
        paths = sorted(glob.glob(spec)) or [spec]
    if not paths:
        raise RttError(f"no tables found at {spec!r}")
    return TableSet.from_paths(paths)


def _cmd_pvalue(args) -> int:
    w = _read_numbers(args.data, args.column)
    tables = _load_table_set(args.tables)
    res = p_value(w, args.mu0, tables)
    print(f"p-value {res} (level grid of {len(tables.tables)} tables)")
    if res.exceeds_max:
        _print_kv(p_value_gt=f"{res.value:.17g}")
    else:
        _print_kv(p_value=f"{res.value:.17g}")
    return 0


def _cmd_ci(args) -> int:
    w = _read_numbers(args.data, args.column)
    if args.tables is not None:
        source = _load_table_set(args.tables)
    else:
        source = read_table(args.table)
    lo, hi = confidence_interval(w, args.level, source)
    print(f"{args.level:.0%} confidence interval [{lo:.6g}, {hi:.6g}]")
    _print_kv(level=f"{args.level:.17g}", ci_low=f"{lo:.17g}", ci_high=f"{hi:.17g}")
    return 0


def _cmd_regress(args) -> int:
    columns = [args.y, args.x, args.cluster]
    controls = [c for c in (args.controls.split(",") if args.controls else []) if c]
    data = _read_csv_columns(args.data, columns + controls)
    n = data[args.y].size
    ctrl = np.column_stack(
        [np.ones(n)] + [_csv_floats(args.data, data, c) for c in controls]
    )
    dataset = ClusteredDataset(
        y=_csv_floats(args.data, data, args.y),
        x=_csv_floats(args.data, data, args.x),
        controls=ctrl,
        clusters=data[args.cluster],
    )
    w = clustered_ols_w(dataset)
    table = read_table(args.table)
    dec = decide(w, args.beta0, table)
    verdict = "reject" if dec.reject else "accept"
    print(
        f"{verdict} H0: beta = {args.beta0:g} at level {table.alpha:g} "
        f"({dataset.n_clusters} clusters)"
    )
    _print_kv(
        decision=verdict,
        reject=int(dec.reject),
        beta0=f"{args.beta0:.17g}",
        alpha=f"{table.alpha:.17g}",
        beta_hat=f"{float(np.mean(w)):.17g}",
        n_clusters=dataset.n_clusters,
        t_statistic=f"{dec.t_statistic:.17g}",
    )
    return 0


def _cmd_simulate(args) -> int:
    with open(args.design, "r", encoding="utf-8") as fh:
        design = parse_design_config(fh.read())
    report = run_experiment(design)
    report.to_csv(args.out)
    print(f"wrote {len(report.rows)} rows to {args.out}")
    for row in report.rows:
        _print_kv(
            **{
                f"{row['method']}_reject_rate": f"{row['reject_rate']:.6f}",
                f"{row['method']}_se": f"{row['se']:.6f}",
            }
        )
    return 0


def _cmd_build(args) -> int:
    if args.profile == "smoke":
        config = smoke_build_config(
            k=args.k, n0=args.n0, alpha=args.alpha, seed=args.seed
        )
    else:
        config = BuildConfig(k=args.k, n0=args.n0, alpha=args.alpha, seed=args.seed)
    overrides = {"n_draws": args.n_draws, "recombine": args.recombine}
    config = replace(config, **{key: v for key, v in overrides.items() if v is not None})
    table = build_table(config)
    write_table(table, args.out)
    print(f"wrote table to {args.out}")
    _print_kv(
        k=table.k,
        n0=table.n0,
        alpha=f"{table.alpha:g}",
        single_atoms=len(table.single_atoms),
        full_atoms=len(table.full_atoms),
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtt", description="extreme-value robust t-test")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data(p):
        p.add_argument("--data", required=True, help="one number per line, or CSV")
        p.add_argument("--column", default=None, help="CSV column to use")

    p = sub.add_parser("test", help="test H0: mean = mu0")
    add_data(p)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=None, help="must match the table if given")
    p.add_argument("--table", required=True)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("pvalue", help="p-value from a level grid of tables")
    add_data(p)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--tables", required=True, help="directory or glob of .rtt tables")
    p.set_defaults(func=_cmd_pvalue)

    p = sub.add_parser("ci", help="confidence interval by test inversion")
    add_data(p)
    p.add_argument("--level", type=float, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--table", default=None)
    source.add_argument("--tables", default=None, help="directory of tables for nested levels")
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("regress", help="clustered regression coefficient test")
    p.add_argument("--data", required=True, help="CSV file with a header")
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--controls", default="", help="comma-separated control columns")
    p.add_argument("--cluster", required=True)
    p.add_argument("--beta0", type=float, default=0.0)
    p.add_argument("--table", required=True)
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("simulate", help="run a Monte Carlo design file")
    p.add_argument("--design", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build", help="construct and store a test table")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n0", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-draws", type=_positive_int, default=None)
    p.add_argument("--recombine", type=_positive_int, default=None)
    p.add_argument("--profile", choices=("desk", "smoke"), default="desk")
    p.set_defaults(func=_cmd_build)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code = args.func(args)
        except (RttError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    for note in dict.fromkeys(str(c.message) for c in caught):
        _print_kv(warning=note)
    return code


if __name__ == "__main__":
    sys.exit(main())
