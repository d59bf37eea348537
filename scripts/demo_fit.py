#!/usr/bin/env python3
"""Fit one synthetic torus dataset with every estimator and compare.

Draws a sample from a wrapped normal with a random correlation structure,
runs every method of ``wntorus.fit`` (EM, classification EM, direct
search, and CEM followed by EM), and prints parameter recovery plus
discrepancy metrics for each.

    python3 scripts/demo_fit.py --p 2 --n 200 --sigma pi/4
"""

import argparse
import math
import time

import numpy as np

from wntorus import METHODS, DimensionGuardError, fit, model, simulate
from wntorus.cli import parse_sigma_token


def build_parser():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--p", type=int, default=2, help="torus dimension")
    parser.add_argument("--n", type=int, default=200, help="sample size")
    parser.add_argument(
        "--sigma",
        type=parse_sigma_token,
        default=math.pi / 4,
        help="common standard deviation; accepts tokens like pi/4 or 0.9",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def describe(method, result, seconds, sample, truth):
    params = result.params
    report = simulate.evaluate_fit(sample, params, truth)
    print(f"--- {method} ({seconds * 1e3:.0f} ms) ---")
    print(f"  mean      : {np.array2string(params.mu, precision=4)}")
    print(f"  scale diag: {np.array2string(np.diag(params.sigma), precision=4)}")
    print(
        f"  loglik {result.loglik_trace[-1]:.4f}  "
        f"iterations {result.iterations}  converged {result.converged}"
    )
    print(
        f"  vs truth  : wilks {report.wilks:.4f}  "
        f"angle_sep {report.angle_sep:.5f}  "
        f"scatter_div {report.scatter_div:.5f}"
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    rng = np.random.default_rng(args.seed)
    if args.p == 1:
        corr = np.eye(1)
    else:
        corr = simulate.random_correlation(
            simulate.CorrelationSpec(p=args.p, cn=20.0), seed=args.seed
        )
    truth = model.WnParams(
        rng.uniform(0.0, 2.0 * math.pi, size=args.p),
        simulate.scale_to_covariance(corr, args.sigma),
    )
    sample = simulate.sample_wn(truth, args.n, seed=args.seed + 1)
    print(
        f"p={args.p} n={args.n} sigma={args.sigma:.4f}  "
        f"true mean {np.array2string(truth.mu, precision=4)}"
    )
    print(f"loglik at truth: {model.log_likelihood(sample, truth):.4f}\n")

    for method in METHODS:
        start = time.perf_counter()
        try:
            result = fit(sample, method)
        except DimensionGuardError as exc:
            print(f"--- {method} skipped: {exc} ---")
            continue
        describe(method, result, time.perf_counter() - start, sample, truth)
        if method == "cem":
            moved = int(np.count_nonzero(np.any(result.coefficients != 0, axis=1)))
            print(f"  unwrapped : {moved}/{args.n} observations shifted by a full turn")


if __name__ == "__main__":
    main()
