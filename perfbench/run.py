"""Benchmark of narxcomp, run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and README.md) in this process
through the program's entry point ``narxcomp.cli.main``, with one thread
and NARX_COMP_THREADS unset.  It repeats whole passes of the workload for
``--seconds``, then checks every distinct output against the reference
code.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
cpu_s, peak_rss_mb), the times scaled to a reference machine speed (see
``calibration_s``); with ``--trace 1`` wrappers from ``tracing.py`` are
installed and the metrics are the per-layer ones.  An operation is one
CLI call; it fails when it exits non-zero or its output fails its check.
"""

from __future__ import annotations

import os

# One thread: no BLAS thread pool.  The Monte Carlo thread pool stays off
# unless --threads asks for it (a reference figure, not a workload).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NARX_COMP_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 9

#: The calibration loop's length, and its time at the reference speed.
CALIBRATION_ITERATIONS = 100000
CALIBRATION_REF_S = 0.010


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=20260817)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="set NARX_COMP_THREADS (reference figure only)")
    return p.parse_args()


def calibration_s():
    """Median time of three runs of a fixed pure-Python loop: the
    machine's speed right now.

    The speed of this machine drifts by tens of percent over minutes, as
    other tenants load the cores, and the program's speed drifts with it.
    Each timing is scaled by CALIBRATION_REF_S over the mean of the loop
    times taken just before and just after it, which gives the time the
    work would take at the reference speed.
    """
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        values = [0.0] * 64
        for i in range(CALIBRATION_ITERATIONS):
            x = i * 0.5
            acc += x * x - acc * 0.25
            values[i & 63] = acc
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def scale(before, after):
    return CALIBRATION_REF_S / (0.5 * (before + after))


def setup_seconds(workload):
    """(median scaled, median raw) set-up time over fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    before = calibration_s()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, *workload.models],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail("set-up probe failed: %s" % proc.stderr.strip())
        after = calibration_s()
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def import_cli():
    sys.path.insert(0, SRC)
    from narxcomp import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail("narxcomp was imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def run_passes(cli, workload, seed, seconds, outdir, tracer=None):
    """Whole passes until ``seconds`` have gone by.

    Returns (times, outcomes, outputs, per-pass counts).  ``times`` has one
    (wall, cpu, raw wall, raw cpu) per pass, the first two scaled to the
    reference speed operation by operation (see ``calibration_s``).
    ``outcomes`` holds one (label, exit code, key) per operation and
    ``outputs`` maps each distinct key to (label, kept CSV path, stderr).
    """
    times, outcomes, counts = [], [], []
    outputs = {}
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        ops = workload.ops(seed, len(times), outdir)
        done = []
        before = tracer.snapshot() if tracer else None
        pass_times = [0.0] * 4
        cal = calibration_s()
        for op in ops:
            err = io.StringIO()
            fault = None
            t0, c0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(list(op.argv))
                except Exception:  # a fault of the program: the operation failed
                    rc, fault = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            cal_after = calibration_s()
            factor = scale(cal, cal_after)
            cal = cal_after
            for i, t in enumerate((wall * factor, cpu * factor, wall, cpu)):
                pass_times[i] += t
            if fault:
                print(fault, file=sys.stderr)
            done.append((op, rc, err.getvalue()))
        times.append(pass_times)
        if tracer:
            after = tracer.snapshot()
            after.subtract(before)
            counts.append(+after)
        for op, rc, stderr in done:
            key = None
            if rc == 0:
                with open(op.argv[-1], "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                key = (op.label, digest, stderr)
                if key not in outputs:
                    kept = os.path.join(outdir, "checked-%d.csv" % len(outputs))
                    shutil.copyfile(op.argv[-1], kept)
                    outputs[key] = (op.label, kept, stderr)
            outcomes.append((op.label, rc, key))
    return times, outcomes, outputs, counts


def check_outputs(workload, seed, outcomes, outputs):
    """(attempted, failed) after checking each distinct output once."""
    verdict = {}
    for key, (label, path, stderr) in outputs.items():
        with open(path) as fh:
            problems = workload.check(label, fh.read(), stderr, seed)
        for problem in problems:
            print("check failed: %s" % problem, file=sys.stderr)
        verdict[key] = not problems
        print("sha256 %s %s" % (label, key[1]))
    failed = 0
    for label, rc, key in outcomes:
        if rc != 0:
            print("operation %s exited with %s" % (label, rc), file=sys.stderr)
        if rc != 0 or not verdict[key]:
            failed += 1
    return len(outcomes), failed


def main():
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    args = parse_args(sorted(WORKLOADS))
    if not os.path.isfile(os.path.join(SRC, "narxcomp", "__init__.py")):
        fail("no program source at %s; run from the root of a checkout" % SRC)
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed at least 0")
    workload = WORKLOADS[args.workload]
    if args.threads is not None:
        os.environ["NARX_COMP_THREADS"] = str(args.threads)

    setup = None if args.trace else setup_seconds(workload)
    cli = import_cli()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        try:
            times, outcomes, outputs, counts = run_passes(
                cli, workload, args.seed, args.seconds, outdir, tracer
            )
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = check_outputs(workload, args.seed, outcomes, outputs)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    median = [statistics.median(column) for column in zip(*times)]
    print("workload %s seed %d: %d passes, %d operations, %d failed"
          % (args.workload, args.seed, len(times), attempted, failed))
    print("unscaled medians: wall %.4f s, cpu %.4f s per pass%s" % (
        median[2], median[3], "" if setup is None else ", set-up %.4f s" % setup[1]))
    if tracer:
        from tracing import per_layer

        if any(c != counts[0] for c in counts):
            print("per-pass counts differ between passes", file=sys.stderr)
        trace_path = os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed))
        tracer.write(trace_path)
        print("spans written to %s" % os.path.relpath(trace_path, ROOT))
        traced = sum(t[2] for t in times)
        for name in sorted(tracer.total):
            print("share %-30s %5.1f%% of traced wall, self %5.1f%%" % (
                name, 100.0 * tracer.total[name] / traced,
                100.0 * tracer.self_time[name] / traced))
        metrics = per_layer(tracer, counts[0], median[0])
    else:
        metrics = {
            "setup_s": (setup[0], "s"),
            "wall_s": (median[0], "s"),
            "cpu_s": (median[1], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
