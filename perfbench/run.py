"""cescop benchmark: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload regimes|crossval|glue \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; cescop is imported from
``src/``.  The workload runs in a fresh interpreter with one BLAS/OpenMP
thread and without ``CESMUL_THREADS``, so its set-up time and peak memory
are its own.  Set-up is timed in that process and in four more fresh
ones, and the median is reported.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see README.md).  Lines before it repeat every metric
in a table.  The exit code is 0 when a result was printed.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import METRICS as LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("peak_rss_mb", "MB"))
# trace-run metrics beyond the layer ones; the first two are also
# printed, but not bounded, in untraced runs because they read 0 when
# the program is right
PER_LAYER = (("fail_frac", "frac"), ("value_rel_dev_max", "frac")) + LAYER_METRICS + (
    ("trace.overhead_frac", "frac"),)

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CESMUL_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update({k: "1" for k in THREAD_VARS})
    return env


def _worker(args, workdir: str, deadline: float, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the worker could start")
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_table(rows) -> None:
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>16.6g} {unit}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(DEFAULT_SEED))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: 0 for regimes and crossval, where "
                         "it shuffles the call order; the glue seed 12345 for glue)")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEED[args.workload]
    if not os.path.isfile(os.path.join(ROOT, "src", "cescop", "__init__.py")):
        print(f"no cescop sources under {os.path.join(ROOT, 'src')}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    # on SIGTERM unwind like an exception: subprocess.run kills and waits
    # for the running child, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
            setups = [_worker(args, workdir, deadline, "--setup-only")
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _worker(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    setups.append(res)
    for key in ("setup_s", "unscaled_setup_s"):
        res[key] = statistics.median(s[key] for s in setups)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['attempted']} ops attempted, {res['failed']} failed, "
          f"{res['values_checked']} output values compared with the reference, "
          f"correct={res['correct']}")
    if args.trace:
        print(f"traced run: {res['passes']} untraced + {res['passes']} traced passes; "
              "counts and seconds are per traced pass")
        wanted = PER_LAYER
    else:
        print(f"latency from {res['samples']} successful ops, {res['beyond_p90']} "
              f"above p90; throughput median of {res['blocks']} blocks; set-up "
              f"median of {len(setups)} fresh processes; op times scaled by the "
              f"median calibration factor {res['speed_factor']:.3f}")
        print("unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in res["unscaled"].items())
              + f", setup_s {res['unscaled_setup_s']:.4g}")
        wanted = END_TO_END
    _print_table([(n, res[n], u) for n, u in wanted])
    if args.trace:
        table = res["span_table"]
        layer_self = {}
        for name, row in table.items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
        traced = sum(layer_self.values())
        print("share of traced time by layer: " + ", ".join(
            f"{k} {v / traced:.1%}" for k, v in sorted(layer_self.items(),
                                                       key=lambda kv: -kv[1])))
        print("spans with the most self time (per traced pass):")
        spans = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in spans[:12]:
            print(f"  {name:<36} {row['calls'] / res['passes']:>10.0f} calls "
                  f"{row['self_s'] / res['passes']:>10.4f} s self "
                  f"{row['total_s'] / res['passes']:>10.4f} s total")
    else:
        _print_table([("fail_frac", res["fail_frac"], "frac"),
                      ("value_rel_dev_max", res["value_rel_dev_max"], "frac")])
    bad = [n for n, _ in wanted if not math.isfinite(res[n])]
    if bad:
        print(f"no result: {', '.join(bad)} not finite", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": res[n], "unit": u} for n, u in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
