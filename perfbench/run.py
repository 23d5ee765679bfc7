"""Benchmark of robustcd: one closed-loop client, one process, one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cd-grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run repeats the workload's pass of ops, untraced,
until ``--seconds`` seconds have passed at a pass end, and reports the
end-to-end metrics. With ``--trace 1`` it runs a shorter fixed pass three
times: traced, untraced (the baseline of the tracing overhead) and traced
again, and reports the per-layer metrics of the first traced pass;
the two traced passes must give equal counts. ``--seconds`` does not apply
there. The seed sets the order of the ops in a pass.

Every op's outputs are compared with the outputs recorded at the reference
commit (``perfbench/reference/<workload>.json``); ``--record`` rewrites that
file from the checkout's code. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is the checkout's ``src/robustcd``; the run fails,
printing no result, when it is missing.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads; set-up probes inherit this.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 3

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import robustcd from the checkout's src directory, never from elsewhere."""
    init = os.path.join(SRC, "robustcd", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} not found; run from the root of a robustcd checkout")
    sys.path.insert(0, SRC)
    import robustcd
    import robustcd.cli
    if os.path.dirname(os.path.abspath(robustcd.__file__)) != os.path.dirname(init):
        sys.exit(f"perfbench: imported robustcd from {robustcd.__file__}, not {SRC}")
    workloads.bind(robustcd, robustcd.cli)


def setup(workload, n_instances):
    """Import the program and generate the inputs of a pass.

    Returns (ops, workdir); input files go to a fresh working directory
    inside the checkout.
    """
    import_program()
    workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return workloads.SETUP[workload](workdir, range(n_instances)), workdir


def environment():
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "robustcd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["ops"]


class Outcome:
    """Outcome of one op: latency, failure reason and reference check."""

    __slots__ = ("key", "seconds", "error", "mismatch", "cli_exit", "outputs")

    def __init__(self, key, seconds, outputs, error, cli_exit):
        self.key, self.seconds, self.outputs = key, seconds, outputs
        self.error, self.cli_exit, self.mismatch = error, cli_exit, None

    @property
    def failed(self):
        return self.error is not None or self.mismatch is not None


def run_op(key, fn, arg):
    """Run one op; an exception of any kind is that op's failure reason."""
    outputs = error = None
    cli_exit = False
    t0 = time.perf_counter()
    try:
        outputs = fn(arg)
    except workloads.OpFailed as exc:
        error, cli_exit = str(exc), isinstance(exc, workloads.CliExit)
    except Exception as exc:  # the loop must go on; the reason is reported
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(key, time.perf_counter() - t0, outputs, error, cli_exit)


def check(outcome, reference):
    """Set ``outcome.mismatch`` when the op disagrees with its recorded outputs.

    An op that failed at the reference commit and fails again matches; one
    that now succeeds is counted as a success with nothing to compare.
    """
    ref = reference.get(outcome.key)
    if ref is None:
        outcome.mismatch = "no recorded reference"
    elif "error" in ref:
        return
    elif outcome.error is not None:
        outcome.mismatch = "failed where the reference succeeded"
    else:
        outcome.mismatch = workloads.compare(outcome.outputs, ref["outputs"])


def run_passes(ops, reference, sink, deadline=None):
    """Run the pass once, or, with a deadline, until the first pass end past
    it. Warnings go to ``sink``. Returns (outcomes, wall seconds)."""
    outcomes = []
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = sink
        while True:
            for key, fn, arg in ops:
                outcome = run_op(key, fn, arg)
                if reference is not None:
                    check(outcome, reference)
                outcomes.append(outcome)
            if deadline is None or time.perf_counter() >= deadline:
                break
    return outcomes, time.perf_counter() - t0


def probe_setup_s(workload, seed):
    """Median wall time of fresh processes that do the run's set-up and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summarize(outcomes):
    failed = [o for o in outcomes if o.failed]
    reasons = {}
    for o in failed:
        reason = o.mismatch or o.error
        reasons[reason] = reasons.get(reason, 0) + 1
    return failed, reasons


def p50(outcomes, wall):
    """Median latency; a failed op counts as slower than any, and a median
    that lands on one reads as the whole timed wall time."""
    lat = sorted(math.inf if o.failed else o.seconds for o in outcomes)
    mid = statistics.median(lat)
    return wall if math.isinf(mid) else mid


def timed_run(args, reference, ops):
    outcomes, wall = run_passes(ops, reference, lambda *a, **k: None,
                                deadline=time.perf_counter() + args.seconds)
    setup_s = probe_setup_s(args.workload, args.seed)
    failed, reasons = summarize(outcomes)
    ok = len(outcomes) - len(failed)
    values = {
        "ops_per_s": ok / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lat = sorted(o.seconds for o in outcomes)
    print(f"ops {len(outcomes)} in {wall:.2f} s ({len(outcomes) // len(ops)} passes); "
          f"latency min {lat[0]:.3f} s, max {lat[-1]:.3f} s")
    print(f"op_p50_s {p50(outcomes, wall):.6g} s (median of {len(outcomes)} ops)")
    print(f"failed_frac {len(failed) / len(outcomes):.6g} fraction "
          f"({len(failed)}/{len(outcomes)})")
    for reason, count in reasons.items():
        print(f"  failed x{count}: {reason}")
    return outcomes, failed, values, {}


def traced_run(args, reference, ops):
    """Traced, untraced and traced passes of the same ops.

    The untraced pass sits between the traced ones, so the overhead
    (traced over untraced wall time, minus 1) is not skewed by a machine
    that speeds up or slows down during the run.
    """
    tracer = Tracer()

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            return run_passes(ops, reference, tracer.on_warning)
        finally:
            tracer.uninstall()

    outcomes, wall = traced_pass()
    counts, dump = tracer.counts(), tracer.dump()
    values = tracer.metrics(len(outcomes), {
        "cli.nonzero_exit": sum(o.cli_exit for o in outcomes),
        "trace.overhead_frac": 0.0,
        "trace.counts_repeat": 0,
    })
    _, wall_plain = run_passes(ops, reference, lambda *a, **k: None)
    _, wall_again = traced_pass()
    counts_again = tracer.counts()
    repeat = counts == counts_again
    values["trace.counts_repeat"] = int(repeat)
    values["trace.overhead_frac"] = (wall + wall_again) / (2.0 * wall_plain) - 1.0
    if not repeat:
        diff = sorted(k for k in set(counts) | set(counts_again)
                      if counts.get(k) != counts_again.get(k))
        print(f"trace counts differ between the two traced passes: {diff[:10]}")
    print(f"traced {len(outcomes)} ops: traced {wall:.2f} s, untraced {wall_plain:.2f} s, "
          f"traced {wall_again:.2f} s; counts repeat: {repeat}")
    if dump["absent"]:
        print(f"absent spans: {', '.join(dump['absent'])}")
    for w in dump["warnings"]:
        print(f"  warning x{w['count']} [{w['layer']}] {w['reason']}")
    failed, reasons = summarize(outcomes)
    for reason, count in reasons.items():
        print(f"  failed x{count}: {reason}")
    return outcomes, failed, values, {"trace": dump, "counts_repeat": repeat}


def record(workload):
    """Run the workload's pass once and write its outputs as the reference."""
    ops, workdir = setup(workload, workloads.PASS_INSTANCES[workload])
    try:
        outcomes, _ = run_passes(ops, None, lambda *a, **k: None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recorded = {}
    for o in outcomes:
        recorded[o.key] = {"error": o.error} if o.error else {"outputs": o.outputs}
        print(f"{o.key}: {o.seconds:.3f} s {o.error or 'ok'}")
    doc = {"environment": environment(), "workload": workload, "ops": recorded}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference outputs from this checkout")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.record:
        record(args.workload)
        return
    sizes = workloads.TRACE_INSTANCES if args.trace else workloads.PASS_INSTANCES
    ops, workdir = setup(args.workload, sizes[args.workload])
    ops = workloads.ordered(ops, args.seed)
    try:
        if args.setup_probe:
            return
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        reference = load_reference(args.workload)
        run = traced_run if args.trace else timed_run
        outcomes, failed, values, extra = run(args, reference, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(METRICS) if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = (all(o.mismatch is None for o in outcomes)
               and extra.get("counts_repeat", True))
    result = {"correct": bool(correct), "attempted": len(outcomes),
              "failed": len(failed), "metrics": metrics}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = os.path.join(WORK_ROOT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    records = [{"key": o.key, "seconds": o.seconds, "error": o.error,
                "mismatch": o.mismatch} for o in outcomes]
    with open(path, "w") as fh:
        json.dump(dict(result, environment=env, ops=records, **extra), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
