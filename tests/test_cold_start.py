"""What a fresh interpreter loads: scipy only on first use.

These run in a subprocess, because the test process has loaded scipy
long before any test starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cescop import Interval, expfam, from_log_callable, integrate

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh(code: str):
    """Run code in a fresh interpreter; its last stdout line, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _fresh(f"import json, sys, cescop, cescop.cli\n"
                  f"print(json.dumps({SCIPY_LOADED}))") == []


def test_glue_command_loads_no_scipy():
    code = ("import contextlib, io, json, sys\n"
            "from cescop import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.run(['glue', '--lemma', 'all', '--count', '1'])\n"
            f"print(json.dumps([code, {SCIPY_LOADED}]))")
    assert _fresh(code) == [0, []]


def test_first_closed_form_call_loads_scipy_special_and_matches_a_warm_call():
    # the gamma-function closed form of t^0.5 e^-t over (0, inf)
    code = ("import json, sys\n"
            "from cescop import expfam, integrate\n"
            "before = 'scipy.special' in sys.modules\n"
            "first = integrate(expfam(1, 0.5, -1))\n"
            "print(json.dumps([before, 'scipy.special' in sys.modules, repr(first),\n"
            "                  repr(integrate(expfam(1, 0.5, -1)))]))")
    warm = repr(integrate(expfam(1, 0.5, -1)))
    assert _fresh(code) == [False, True, warm, warm]


def test_integral_without_a_closed_form_loads_no_scipy_integrate():
    # the log grid is the one integration engine
    code = ("import json, sys\n"
            "from cescop import Interval, from_log_callable, integrate\n"
            "value = integrate(from_log_callable(lambda t: -t), Interval(1, 2))\n"
            "print(json.dumps([repr(value), 'scipy.integrate' in sys.modules]))")
    warm = repr(integrate(from_log_callable(lambda t: -t), Interval(1, 2)))
    assert _fresh(code) == [warm, False]
