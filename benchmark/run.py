"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src``.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics (``setup_s``, ``fits_per_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans are written to ``benchmark/out/``.  See README.md for the method.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported here or in
# a set-up child, which inherits the environment.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "WNTORUS_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (standard library only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters whose import and input build give ``setup_s``.
SETUP_REPEATS = 7

#: Rounds continue while the projected end stays within this share of
#: ``--seconds``.
ROUND_SLACK = 1.1


def import_package():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import wntorus
    import wntorus.cli  # noqa: F401  (not imported by the package itself)

    return wntorus


def make_workload(name, seed, workdir):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](sys.modules["wntorus"], seed, workdir)


def setup_probe(args):
    """Child mode: time the import and the input build once."""
    start = time.perf_counter()
    import_package()
    workdir = OUT / f"setup-{os.getpid()}"
    make_workload(args.workload, args.seed, workdir).build()
    elapsed = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(args):
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def run_rounds(workload, seconds, log):
    """Whole rounds of the workload's operations for about ``seconds``.

    Returns the per-operation times, the collected outputs per round and
    the attempted and failed fit counts.
    """
    ops = workload.operations()
    times = {op.label: [] for op in ops}
    rounds = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        outputs = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # a failed operation is counted, not fatal
                log(traceback.format_exc())
                result = None
                ok = False
            else:
                ok = True
            times[op.label].append(time.perf_counter() - t0)
            output = op.collect(result) if ok else None
            attempted += op.fits
            failed += workload.failures(op, output)
            outputs.append(output)
        rounds.append(outputs)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > ROUND_SLACK * seconds:
            break
    workload.last_outputs = rounds[-1]
    return ops, times, rounds, attempted, failed


def fits_per_s(ops, times):
    """Fits of one round over the sum of each operation's fastest time."""
    return sum(op.fits for op in ops) / sum(min(times[op.label]) for op in ops)


def thread_count():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "highdim", "large_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    def log(message):
        print(message, file=sys.stderr, flush=True)

    pkg = import_package()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pkg)
    else:
        setup_s, setup_times = measure_setup(args)
        log(f"setup_s samples: {', '.join(f'{t:.3f}' for t in setup_times)}")

    workload = make_workload(args.workload, args.seed, OUT / f"{args.workload}-{args.seed}")
    workload.build()
    if tracer:
        tracer.phase = "warmup"
    workload.warm_up()
    if tracer:
        tracer.phase = "timed"
    ops, times, rounds, attempted, failed = run_rounds(workload, args.seconds, log)
    threads = thread_count()
    if threads > 2:
        raise RuntimeError(f"{threads} threads in the load process; BLAS was not pinned")
    rate = fits_per_s(ops, times)
    log(
        f"{args.workload}: {len(rounds)} round(s), fits_per_s {rate:.4g}, threads {threads}, "
        + ", ".join(f"{k} {' '.join(f'{t:.3f}' for t in v)}" for k, v in times.items())
    )
    if tracer:
        tracer.phase = "probe"
        workload.probe(tracer)
        tracer.uninstall()

    import checks

    try:
        workload.check(rounds)
        correct = True
    except checks.CheckError as exc:
        log(f"CHECK FAILED: {exc}")
        correct = False

    if tracer:
        metrics = tracing.per_layer_metrics(tracer)
        tracer.write(
            OUT / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "traced_fits_per_s": rate},
        )
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "fits_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
