"""Measure one workload in this fresh process and print one JSON line.

Started by run.py, never by hand: run.py sets the thread environment
(one BLAS/OpenMP thread, no CESMUL_THREADS) before this interpreter
loads numpy.  With --setup-only it times the set-up alone and exits.

The loop is closed: one caller, each op starts when the previous one
has returned.  Untraced, it runs ops in passes over the workload's op
list until --seconds have passed.  Traced, it runs whole passes (at
least one), each op once untraced and once traced, and reports the
per-layer metrics per traced pass.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# a failed check on a produced output fails the run; above this relative
# deviation from the recorded reference a value counts as changed
VALUE_RTOL = 1e-9


def _setup(workload: str, seed: int, workdir: str):
    sys.path.insert(0, SRC)
    import cescop

    if os.path.dirname(os.path.dirname(os.path.abspath(cescop.__file__))) != SRC:
        raise SystemExit(f"cescop imported from {cescop.__file__}, not from {SRC}")
    import workloads

    return workloads, workloads.make(workload, seed, workdir)


class Tally:
    """Attempted and failed ops, and deviations from the reference."""

    def __init__(self, workloads, wl):
        self.workloads, self.wl = workloads, wl
        self.attempted = self.failed = self.wrong = 0
        self.dev_max = 0.0
        self.checked = 0
        self.shown = 0

    def report(self, what: str) -> None:
        if self.shown < 5:
            print(what, file=sys.stderr)
            self.shown += 1

    def timed(self, op):
        """Run one op; returns (output, seconds), output None if it raised.

        Any exception fails the op: known defects escape as
        OverflowError, ValueError or an uncaught OSError, not only as
        CescopError.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(op)
        except (Exception, SystemExit):
            out = None
            self.failed += 1
            self.report(f"op {op[:2]!r} raised:\n{traceback.format_exc(limit=-3)}")
        return out, time.perf_counter() - t0

    def check(self, op, out) -> bool:
        """Check one output against the criteria and the reference."""
        try:
            problems = self.wl.problems(op, out)
            pairs = [] if problems else self.wl.values(op, out)
        except Exception:
            problems = ["output unreadable: " + traceback.format_exc(limit=-2)]
        if problems:
            self.failed += 1
            self.wrong += 1
            self.report(f"op {op[:2]!r} failed its checks: {problems}")
            return False
        for got, ref in pairs:
            self.checked += 1
            self.dev_max = max(self.dev_max, self.workloads.rel_dev(got, ref))
        return True


# A shared VM can run the same code 10-50% faster or slower from one
# minute to the next.  After every op (and after set-up) a fixed kernel
# shaped like cescop's work (1-D log-space sums on the default grid, a
# 2-D row reduction, many small array calls) is timed, and the measured
# times are scaled by CAL_REF_S over the median kernel time: they are
# reported as they would read on a machine that runs the kernel in
# CAL_REF_S.  The kernel is not cescop code, so a change to cescop moves
# only the measured times.
CAL_REF_S = 1.5e-3
SETUP_CAL_RUNS = 15
_CAL_S = np.linspace(-30.0, 30.0, 6672)
_CAL_ROWS = np.linspace(-9.0, 9.0, 64 * 446).reshape(64, 446)


def calibration_s() -> float:
    """Seconds for one run of the calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(2):
        li = -np.abs(_CAL_S)
        np.logaddexp.accumulate(np.logaddexp(li[:-1], li[1:]))
        rows = _CAL_ROWS - _CAL_ROWS.max(axis=-1, keepdims=True)
        np.log(np.sum(np.exp(rows), axis=-1))
        for row in _CAL_ROWS:
            np.arange(row.size)[np.isfinite(row)][0]
    return time.perf_counter() - t0


def measure(tally: Tally, seconds: float) -> dict:
    """Closed loop for ``seconds``.

    Throughput is the median over whole blocks (groups of ops that cover
    the workload's mix once) of ops per second of op time, so that a
    burst of load from outside slows a few blocks, not the figure.  It
    counts every op that returned or raised: an op that fails early must
    not make the run look slower or faster than the ops around it, and
    failures are reported on their own.  Latencies are those of
    successful ops.  Both are scaled by the block's calibration factor;
    the unscaled figures are returned too.
    """
    wl = tally.wl
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    lat, raw_lat, rates, raw_rates, factors = [], [], [], [], []
    k = 0
    while time.perf_counter() < deadline:
        ops = wl.pass_ops(k)
        for start in range(0, len(ops), wl.block):
            block = ops[start:start + wl.block]
            times, ok_times, cal = [], [], []
            for op in block:
                out, dt = tally.timed(op)
                times.append(dt)
                if out is not None and tally.check(op, out):
                    ok_times.append(dt)
                cal.append(calibration_s())
                if time.perf_counter() >= deadline:
                    break
            f = CAL_REF_S / float(np.median(cal))
            factors.append(f)
            raw_lat += [dt * 1e3 for dt in ok_times]
            lat += [dt * 1e3 * f for dt in ok_times]
            if len(times) == len(block):
                raw_rates.append(len(block) / sum(times))
                rates.append(raw_rates[-1] / f)
            else:
                break
        k += 1
    wall = time.perf_counter() - t_begin
    p50, p90 = np.percentile(lat, (50, 90)) if lat else (math.nan, math.nan)
    raw_p50, raw_p90 = np.percentile(raw_lat, (50, 90)) if lat else (math.nan, math.nan)
    return {
        "ops_per_s": float(np.median(rates)) if rates else math.nan,
        "op_ms_p50": float(p50),
        "op_ms_p90": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "blocks": len(rates),
        "speed_factor": float(np.median(factors)),
        "unscaled": {"ops_per_s": float(np.median(raw_rates)) if raw_rates else math.nan,
                     "op_ms_p50": float(raw_p50), "op_ms_p90": float(raw_p90),
                     "mean_ops_per_s_wall": tally.attempted / wall},
    }


def measure_traced(tally: Tally, seconds: float) -> dict:
    """Whole passes; each block of ops runs untraced, then traced, so that
    the overhead compares the same ops under the same machine load."""
    import layers
    from tracer import Tracer

    wl = tally.wl
    key = tally.workloads.output_key
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    passes = mismatches = 0
    t_begin = time.perf_counter()

    def another_pass_fits():
        spent = time.perf_counter() - t_begin
        return spent + spent / passes <= seconds

    while passes == 0 or another_pass_fits():
        ops = wl.pass_ops(passes)
        for start in range(0, len(ops), wl.block):
            block = ops[start:start + wl.block]
            t0 = time.perf_counter()
            plain = [tally.timed(op)[0] for op in block]
            untraced_s += time.perf_counter() - t0
            layers.install(tracer)
            try:
                t0 = time.perf_counter()
                traced = [tally.timed(op)[0] for op in block]
                traced_s += time.perf_counter() - t0
            finally:
                tracer.uninstall()
            for op, out, out_t in zip(block, plain, traced):
                for o in (out, out_t):
                    if o is not None:
                        tally.check(op, o)
                if (out is None) != (out_t is None) or (
                        out is not None and key(wl, op, out) != key(wl, op, out_t)):
                    mismatches += 1
                    tally.report(f"op {op[:2]!r}: traced output differs from untraced")
        passes += 1
    result = layers.metrics(tracer, passes)
    result["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    result["passes"] = passes
    result["trace_mismatches"] = mismatches
    result["span_table"] = tracer.table()
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True,
                    help="scratch directory for generated configs")
    args = ap.parse_args()

    workloads, wl = _setup(args.workload, args.seed, args.workdir)
    unscaled_setup_s = time.perf_counter() - T_START
    setup_s = unscaled_setup_s * CAL_REF_S / float(np.median(
        [calibration_s() for _ in range(SETUP_CAL_RUNS)]))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "unscaled_setup_s": unscaled_setup_s}))
        return 0
    tally = Tally(workloads, wl)
    if args.trace:
        result = measure_traced(tally, args.seconds)
    else:
        result = measure(tally, args.seconds)
    mismatches = result.get("trace_mismatches", 0)
    result.update({
        "setup_s": setup_s,
        "unscaled_setup_s": unscaled_setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed + mismatches,
        "fail_frac": (tally.failed + mismatches) / max(tally.attempted, 1),
        "value_rel_dev_max": tally.dev_max,
        "values_checked": tally.checked,
        "correct": tally.wrong == 0 and mismatches == 0 and tally.dev_max <= VALUE_RTOL,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
