"""Command-line interface: fit a CSV of angles, run a Monte Carlo
experiment from a config file, or generate a random correlation matrix."""

import argparse
import csv
import functools
import json
import os
import re
import sys

import numpy as np

from . import model, simulate
from ._linalg import TWO_PI
from .cem import CemFitResult
from .circular import wrap_angle
from .direct import _guard_dimension
from .errors import DimensionGuardError, FitFailure
from .fitting import METHODS, _fitted_loglik, fit
from .mixed import MixedSample, fit_mixed_cem, fit_mixed_em

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_DEGENERATE = 2

_PI_TOKEN = re.compile(r"^(\d+)?pi(?:/(\d+))?$")


class _InputError(ValueError):
    """Malformed user input; maps to exit status 1."""


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2, which means a fit failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def parse_sigma_token(token):
    """Parse a standard-deviation token: a float literal or a symbolic
    multiple of pi such as ``pi/8``, ``3pi/2``, or ``2pi``."""
    token = token.strip().lower().replace(" ", "")
    match = _PI_TOKEN.match(token)
    if match:
        mult = int(match.group(1)) if match.group(1) else 1
        div = int(match.group(2)) if match.group(2) else 1
        if div == 0:
            raise _InputError(f"cannot parse sigma value {token!r}")
        return mult * np.pi / div
    try:
        value = float(token)
    except ValueError:
        raise _InputError(f"cannot parse sigma value {token!r}") from None
    return value


def _read_numeric_csv(path):
    """Read a CSV of floats, tolerating one optional header line."""
    try:
        with open(path, newline="") as handle:
            raw = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    if not raw:
        raise _InputError(f"{path} contains no data")

    def try_parse(row):
        try:
            return [float(cell) for cell in row]
        except ValueError:
            return None

    start = 0
    if try_parse(raw[0]) is None:
        start = 1
        if len(raw) == 1:
            raise _InputError(f"{path} contains a header but no data rows")
    width = len(raw[start])
    data = []
    for lineno, row in enumerate(raw[start:], start=start + 1):
        parsed = try_parse(row)
        if parsed is None or len(parsed) != width:
            raise _InputError(f"{path} line {lineno}: malformed row")
        data.append(parsed)
    values = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(values)):
        raise _InputError(f"{path} contains non-finite values")
    return values


def _prepare_angles(values, degrees, warnings_out):
    if degrees:
        values = np.radians(values)
    outside = np.sum((values < 0.0) | (values >= TWO_PI))
    if outside:
        warnings_out.append(
            f"{int(outside)} angle value(s) outside [0, 2pi) were wrapped"
        )
        values = wrap_angle(values)
    return values


def _default_unwrapped_path(args):
    if args.unwrapped_out:
        return args.unwrapped_out
    base = args.output if args.output else args.csv
    return str(base) + ".unwrapped.csv"


def _write_float_csv(path, matrix):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def _cmd_fit(args):
    warnings_out = []
    values = _read_numeric_csv(args.csv)
    n, total_cols = values.shape

    linear_idx = []
    if args.linear_columns:
        try:
            linear_idx = sorted(
                {int(tok) for tok in args.linear_columns.split(",") if tok.strip()}
            )
        except ValueError:
            raise _InputError(
                f"cannot parse --linear-columns {args.linear_columns!r}"
            ) from None
        if any(i < 0 or i >= total_cols for i in linear_idx):
            raise _InputError(
                f"--linear-columns out of range for {total_cols} columns"
            )
        if len(linear_idx) == total_cols:
            raise _InputError("at least one torus column is required")

    torus_idx = [i for i in range(total_cols) if i not in linear_idx]
    torus = _prepare_angles(values[:, torus_idx], args.degrees, warnings_out)
    config = model.LatticeConfig(args.J)
    fit_kwargs = {"max_iter": args.max_iter, "tol": args.tol}

    if linear_idx:
        if args.method not in ("em", "cem"):
            raise _InputError(
                "mixed torus/linear fits support only the em and cem methods"
            )
        sample = MixedSample(torus, values[:, linear_idx])
        fitter = fit_mixed_em if args.method == "em" else fit_mixed_cem
        result = fitter(sample, None, config, **fit_kwargs)
        mu, sigma = result.params.joint_mu(), result.params.joint_cov()
        iterated = result.torus_result
    else:
        sample = torus
        result = iterated = fit(torus, args.method, None, config, **fit_kwargs)
        mu, sigma = result.params.mu, result.params.sigma

    out = {
        "method": args.method,
        "p": total_cols,
        "n": int(n),
        "mu": mu.tolist(),
        "sigma": sigma.tolist(),
        "loglik": _fitted_loglik(sample, result, config),
        "iterations": int(iterated.iterations),
        "converged": bool(iterated.converged),
    }
    if linear_idx:
        out["linear_columns"] = linear_idx
    if isinstance(iterated, CemFitResult):
        path = _default_unwrapped_path(args)
        _write_float_csv(path, iterated.unwrapped)
        out["coefficients"] = iterated.coefficients.tolist()
        out["unwrapped_path"] = path
    out["warnings"] = warnings_out
    text = json.dumps(out, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _parse_config_file(path):
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    entries = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _InputError(f"{path} line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        entries[key.strip().lower()] = value.strip()
    return entries


def _build_experiment_config(entries):
    known = {"p", "n", "sigma", "reps", "cn", "methods", "j", "seed"}
    unknown = set(entries) - known
    if unknown:
        raise _InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("p", "n", "sigma", "reps"):
        if key not in entries:
            raise _InputError(f"config is missing required key {key!r}")

    def int_list(text):
        try:
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise _InputError(f"cannot parse integer list {text!r}") from None

    methods = tuple(
        tok.strip() for tok in entries.get("methods", "em,cem,direct").split(",")
        if tok.strip()
    )
    sigma = tuple(
        parse_sigma_token(tok) for tok in entries["sigma"].split(",") if tok.strip()
    )
    config = simulate.ExperimentConfig(
        p_list=int_list(entries["p"]),
        n_list=int_list(entries["n"]),
        sigma_list=sigma,
        replications=int(entries["reps"]),
        cn=float(entries.get("cn", "20")),
        methods=methods,
        J=int(entries.get("j", "3")),
        seed=int(entries.get("seed", "0")),
    )
    if any(m.startswith("direct") for m in config.methods):
        _guard_dimension(max(config.p_list))
    return config


def _cmd_simulate(args):
    entries = _parse_config_file(args.config)
    config = _build_experiment_config(entries)
    rows = simulate.run_experiment(config, workers=args.threads)
    simulate.write_report_csv(rows, args.output)
    for cell in simulate.summarize_report(rows):
        print(
            "p={p} n={n} sigma={sigma:.6g} method={method}: "
            "median wilks={median_wilks:.6g} "
            "angle_sep={median_angle_sep:.6g} "
            "scatter_div={median_scatter_div:.6g} "
            "(failures {failures}/{replicates})".format(**cell)
        )
    print(f"report written to {args.output}")
    return EXIT_OK


def _cmd_gencor(args):
    spec = simulate.CorrelationSpec(
        p=args.p, cn=args.cn, tol=args.tol, max_rounds=args.max_rounds
    )
    corr = simulate.random_correlation(spec, args.seed)
    for row in corr:
        print(" ".join(repr(float(v)) for v in row))
    print(f"# condition number: {simulate._condition_number(corr)!r}")
    return EXIT_OK


def build_parser():
    parser = _ArgumentParser(
        prog="wntorus",
        description="Wrapped normal estimation on the torus",
    )
    # A string default goes through ``type`` too, so a malformed
    # WNTORUS_THREADS is a usage error like a malformed --threads.
    parser.add_argument(
        "--threads",
        type=int,
        default=os.environ.get("WNTORUS_THREADS", "1"),
        help="worker processes for experiment sweeps "
        "(default from WNTORUS_THREADS, else 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a wrapped normal to a CSV of angles")
    p_fit.add_argument("csv", help="input CSV (radians; one observation per row)")
    p_fit.add_argument("--method", default="em", choices=METHODS)
    p_fit.add_argument(
        "--degrees", action="store_true", help="angle columns are in degrees"
    )
    p_fit.add_argument(
        "--linear-columns",
        default="",
        help="comma-separated 0-based indices of non-angular columns",
    )
    p_fit.add_argument("--J", type=int, default=3, help="lattice window radius")
    p_fit.add_argument(
        "--max-iter",
        type=int,
        default=500,
        help="em lattice passes, cem iterations, or direct's objective evaluations",
    )
    p_fit.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="em/cem log-likelihood tolerance; direct stops on its gradient test",
    )
    p_fit.add_argument("--output", default="", help="JSON output path (default stdout)")
    p_fit.add_argument(
        "--unwrapped-out",
        default="",
        help="where to write the unwrapped data for cem fits",
    )

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("config", help="key=value config file")
    p_sim.add_argument("-o", "--output", default="experiment.csv")

    p_gen = sub.add_parser(
        "gencor", help="generate a random correlation matrix with fixed condition number"
    )
    p_gen.add_argument("-p", type=int, required=True, help="dimension")
    p_gen.add_argument("--cn", type=float, default=20.0, help="condition number")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--tol", type=float, default=1e-3)
    p_gen.add_argument("--max-rounds", type=int, default=100)
    return parser


@functools.cache
def _parser():
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    # the --threads default follows WNTORUS_THREADS as it is now
    parser.set_defaults(threads=os.environ.get("WNTORUS_THREADS", "1"))
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads or WNTORUS_THREADS must be at least 1, got {args.threads}")
    handler = {"fit": _cmd_fit, "simulate": _cmd_simulate, "gencor": _cmd_gencor}[
        args.command
    ]
    try:
        return handler(args)
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FitFailure as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
