"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Runs each workload once at a small size, confirms that its check passes
on the genuine outputs, then feeds it corrupted copies and confirms that
the check fails on every one.  Exits 1 if any corruption goes unnoticed
or a genuine output is refused.
"""

import copy
import dataclasses
import math
import sys
import types

import run  # pins BLAS threads before numpy is imported

pkg = run.import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

TWO_PI = 2.0 * np.pi


class SmallStudy(workloads.Study):
    COMMANDS = 2


class SmallHighDim(workloads.HighDim):
    P, N = 4, 60


class SmallLargeN(workloads.LargeN):
    N = 150


def small(cls):
    workdir = run.OUT / "selftest" / cls.name
    workdir.mkdir(parents=True, exist_ok=True)
    return cls(pkg, 0, workdir)


def one_round(workload):
    workload.build()
    return [op.collect(op.run()) for op in workload.operations()]


def with_trace(fit, trace):
    return dataclasses.replace(fit, loglik_trace=np.asarray(trace))


def with_params(fit, mu, sigma):
    return dataclasses.replace(fit, params=types.SimpleNamespace(mu=mu, sigma=sigma))


def study_corruptions(outputs):
    def edit(index, **fields):
        bad = copy.deepcopy(outputs)
        bad[0][index].update({k: repr(v) for k, v in fields.items()})
        return [bad]

    first = outputs[0][0]
    return {
        "row missing": [[outputs[0][:-1], outputs[1]]],
        "row duplicated": [[outputs[0] + outputs[0][-1:], outputs[1]]],
        "wilks off by 1e-3": edit(0, wilks=float(first["wilks"]) + 1e-3),
        "wilks NaN": edit(1, wilks=math.nan),
        "scatter divergence negative": edit(2, scatter_div=-0.01),
        "angle separation above 2p": edit(3, angle_sep=4.5),
        "iteration count off by one": edit(0, iterations=int(first["iterations"]) + 1),
        "second round differs": [outputs] + edit(4, wilks=float(outputs[0][4]["wilks"]) * 1.5),
    }


def highdim_corruptions(outputs, J):
    em_fit, cem_fit = outputs
    trace = em_fit.loglik_trace
    dip = trace.copy()
    dip[-2] = dip[-1] + 1e-3
    shifted = trace.copy()
    shifted[-1] += 1e-3 * abs(shifted[-1])
    nudged = cem_fit.unwrapped.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    coef = cem_fit.coefficients.copy()
    coef[0, 0] = J + 1
    outside = cem_fit.unwrapped.copy()
    outside[0, 0] += TWO_PI * (J + 1 - cem_fit.coefficients[0, 0])
    mu_out = em_fit.params.mu.copy()
    mu_out[0] += TWO_PI
    sigma_bad = np.array(em_fit.params.sigma)
    sigma_bad[0, 0] = -sigma_bad[0, 0]
    return {
        "EM trace decreases": [[with_trace(em_fit, dip), cem_fit]],
        "EM log-likelihood off": [[with_trace(em_fit, shifted), cem_fit]],
        "EM mean outside [0, 2pi)": [[with_params(em_fit, mu_out, em_fit.params.sigma), cem_fit]],
        "EM covariance not PD": [[with_params(em_fit, em_fit.params.mu, sigma_bad), cem_fit]],
        "CEM unwrapped off by one ulp": [[em_fit, dataclasses.replace(cem_fit, unwrapped=nudged)]],
        "CEM coefficient outside window": [
            [em_fit, dataclasses.replace(cem_fit, unwrapped=outside, coefficients=coef)]
        ],
        "second round differs": [outputs, [with_trace(em_fit, shifted), cem_fit]],
    }


def large_n_corruptions(outputs, J):
    def edit(command, change):
        bad = copy.deepcopy(outputs)
        change(bad[SmallLargeN.COMMANDS.index(command)])
        return [bad]

    def shift_loglik(out):
        out["loglik"] += 1e-6 * abs(out["loglik"])

    def nudge_unwrapped(out):
        out["unwrapped"][0][0] = float(np.nextafter(out["unwrapped"][0][0], np.inf))

    def coefficient_outside(out):
        out["unwrapped"][0][0] += TWO_PI * (J + 1 - out["coefficients"][0][0])
        out["coefficients"][0][0] = J + 1

    def joint_not_pd(out):
        out["sigma"][-1][-1] = -1.0

    def mean_outside(out):
        out["mu"][0] += TWO_PI

    return {
        "em log-likelihood off": edit("em", shift_loglik),
        "cem-then-em log-likelihood off": edit("cem-then-em", shift_loglik),
        "mixed log-likelihood off": edit("mixed-em", shift_loglik),
        "cem unwrapped off by one ulp": edit("cem", nudge_unwrapped),
        "cem coefficient outside window": edit("cem", coefficient_outside),
        "mixed joint covariance not PD": edit("mixed-em", joint_not_pd),
        "em mean outside [0, 2pi)": edit("em", mean_outside),
        "second round differs": [outputs] + edit("cem", shift_loglik),
    }


def direct_corruptions():
    """The direct-trace check sees library refits, so it is fed here."""
    truth = pkg.model.WnParams(np.array([1.0, 5.0]), 0.4 * np.array([[1.0, 0.3], [0.3, 1.0]]))
    fit = pkg.direct.fit_direct(pkg.simulate.sample_wn(truth, 80, seed=3))
    start, end = fit.loglik_trace
    return fit.loglik_trace, {"direct ends below its start": [end, start - 1e-9]}


def expect(label, check, genuine, corruptions):
    failures = 0
    try:
        check(genuine)
        print(f"pass   {label}: genuine output accepted")
    except checks.CheckError as exc:
        print(f"FAIL   {label}: genuine output refused: {exc}")
        failures += 1
    for name, bad in corruptions.items():
        try:
            check(bad)
        except checks.CheckError as exc:
            print(f"pass   {label}: {name} -> {exc}")
        else:
            print(f"FAIL   {label}: {name} was not detected")
            failures += 1
    return failures


def main():
    failures = 0

    study = small(SmallStudy)
    outputs = one_round(study)
    failures += expect("study", study.check, [outputs], study_corruptions(outputs))

    highdim = small(SmallHighDim)
    outputs = one_round(highdim)
    failures += expect("highdim", highdim.check, [outputs], highdim_corruptions(outputs, highdim.J))

    large = small(SmallLargeN)
    outputs = one_round(large)
    failures += expect("large_n", large.check, [outputs], large_n_corruptions(outputs, large.J))

    trace, bad = direct_corruptions()
    failures += expect("direct", checks.check_direct_trace, trace, bad)

    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
