"""Command-line front-end: config parsing, reports, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cescop import cli
from cescop.cli import run
from cescop.exponents import Exponent

EDEC = {"family": "exp", "c": 1.0, "alpha": 0.0, "gamma": -1.0}
ONE = {"family": "constant", "c": 1.0}


def _write(tmp_path, rec, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(rec))
    return str(p)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_norm_command(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "space": {"kind": "ces", "exponents": [1, 1], "weights": [EDEC, ONE]},
        "f": EDEC})
    code, rep = _run_json(capsys, ["norm", "--config", cfg])
    assert code == 0
    assert rep["value"] == pytest.approx(0.5, rel=1e-6)


def test_norm_of_disjoint_product_is_zero(tmp_path, capsys):
    def ind_sum(*bounds):
        return {"family": "sum",
                "parts": [{"family": "indicator", "lo": lo, "hi": hi} for lo, hi in bounds]}
    cfg = _write(tmp_path, {
        "space": {"kind": "ces", "exponents": [1, 1], "weights": [EDEC, ONE]},
        "f": {"family": "product",
              "parts": [ind_sum((0, 1), (0.5, 0.8)), ind_sum((2, 3), (2.5, 4))]}})
    code, rep = _run_json(capsys, ["norm", "--config", cfg])
    assert code == 0
    assert rep["value"] == 0.0


MULT_T6 = {
    "r": {"num": 1, "den": 2}, "u": ONE, "p": 1, "q": 2, "w": EDEC, "v": ONE,
    "f": {"family": "exp", "c": 1.0, "alpha": 2.0, "gamma": 1.0}}


def test_mult_command_t6(tmp_path, capsys):
    cfg = _write(tmp_path, MULT_T6)
    code, rep = _run_json(capsys, ["mult", "--config", cfg])
    assert code == 0
    assert rep["regime"] == "T6"
    assert rep["value"] == pytest.approx(0.70710678, rel=1e-6)
    assert rep["terms"] and rep["omegas"]


def test_mult_with_oracle_block(tmp_path, capsys):
    rec = dict(MULT_T6)
    rec["oracle"] = {"seed": 7, "size": 20, "rounds": 1}
    cfg = _write(tmp_path, rec)
    code, rep = _run_json(capsys, ["mult", "--config", cfg])
    assert code == 0
    orc = rep["oracle"]
    assert 0 < orc["lower_bound"] < 100.0 * rep["value"]
    assert orc["evaluated"] > 0


def test_reduce_command(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "p1": 2, "q1": 4, "p2": 1, "q2": 2,
        "u1": ONE, "v1": ONE, "u2": EDEC, "v2": ONE,
        "f": {"family": "exp", "c": 1.0, "alpha": 1.0, "gamma": 0.5},
        "validate": False})
    code, rep = _run_json(capsys, ["reduce", "--config", cfg])
    assert code == 0
    assert rep["outer_power"] == 0.5
    assert rep["value"] == pytest.approx(rep["reduced"]["value"] ** 0.5, rel=1e-12)


def test_glue_command(capsys):
    code, rep = _run_json(capsys, ["glue", "--lemma", "SUP_SUP",
                                   "--count", "3", "--seed", "1"])
    assert code == 0
    assert len(rep["suites"]["SUP_SUP"]) == 3


def test_verify_quick_deterministic(capsys):
    code1, rep1 = _run_json(capsys, ["verify", "--quick", "--seed", "3"])
    code2, rep2 = _run_json(capsys, ["verify", "--quick", "--seed", "3"])
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["ok"] is True


def test_verify_exits_1_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli, "arrow", lambda p, q: Exponent(1))
    code, rep = _run_json(capsys, ["verify", "--quick", "--seed", "0"])
    assert code == 1
    assert rep["ok"] is False
    assert [c["name"] for c in rep["checks"] if not c["ok"]] == ["exponent_arrow_identity"]


def test_oracle_command(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "f": ONE,
        "X": {"kind": "ces", "exponents": [1, 2], "weights": [EDEC, ONE]},
        "Y": {"kind": "ces", "exponents": [1, 2], "weights": [EDEC, ONE]},
        "seed": 5, "size": 25})
    code, rep = _run_json(capsys, ["oracle", "--config", cfg])
    assert code == 0
    assert rep["lower_bound"] == pytest.approx(1.0, rel=1e-9)


def test_csv_format(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "space": {"kind": "cop", "exponents": [1, 1], "weights": [EDEC, ONE]},
        "f": EDEC})
    code = run(["norm", "--config", cfg, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("field,value")
    assert any(line.startswith("value,") for line in out.splitlines())


def test_csv_quotes_fields_that_hold_commas(tmp_path, capsys):
    cfg = _write(tmp_path, MULT_T6)
    code_json, rep = _run_json(capsys, ["mult", "--config", cfg])
    code_csv = run(["mult", "--config", cfg, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert code_json == code_csv == 0
    assert all(len(row) == 2 for row in rows)
    assert "," in rep["problem"]
    assert dict(rows)["problem"] == rep["problem"]


def test_out_path(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "space": {"kind": "ces", "exponents": [1, 1], "weights": [EDEC, ONE]},
        "f": EDEC})
    dest = tmp_path / "report.json"
    code = run(["norm", "--config", cfg, "--out", str(dest)])
    assert code == 0
    rep = json.loads(dest.read_text())
    assert rep["command"] == "norm"


def test_exit_2_on_unknown_field(tmp_path, capsys):
    rec = dict(MULT_T6)
    rec["bogus"] = 1
    assert run(["mult", "--config", _write(tmp_path, rec)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_2_on_missing_field(tmp_path, capsys):
    rec = dict(MULT_T6)
    del rec["w"]
    assert run(["mult", "--config", _write(tmp_path, rec)]) == 2


def test_exit_2_on_unreadable_config(capsys):
    assert run(["mult", "--config", "/nonexistent/cfg.json"]) == 2


def test_exit_2_on_unwritable_out(capsys):
    argv = ["glue", "--lemma", "SUP_SUP", "--count", "1", "--out", "/nonexistent/x.json"]
    assert run(argv) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_exit_3_on_overflow(tmp_path, capsys):
    # sup of e^t over (0, 800) is finite but beyond the float range
    f = {"family": "product", "parts": [
        {"family": "exp", "c": 1.0, "alpha": 0.0, "gamma": 1.0},
        {"family": "indicator", "lo": 0.0, "hi": 800.0}]}
    cfg = _write(tmp_path, {
        "space": {"kind": "ces", "exponents": ["inf", "inf"], "weights": [ONE, ONE]},
        "f": f})
    assert run(["norm", "--config", cfg]) == 3
    assert "NumericOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"oracle": {"size": "x"}},
    {"oracle": {"rounds": "two"}},
    {"oracle": {"seed": -3}},
    {"oracle": {"size": True}},
    {"validate": "no"},
    {"cfg": {"panels": 256}},
    {"cfg": {"S": float("inf")}},
    {"cfg": {"S": float("nan")}},
    {"cfg": {"S": 710}},
    {"cfg": {"sup_grid": float("inf")}},
])
def test_exit_2_on_bad_config_value(tmp_path, capsys, extra):
    code = run(["mult", "--config", _write(tmp_path, {**MULT_T6, **extra})])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["glue", "--seed", "-1", "--count", "1", "--lemma", "SUP_SUP"],
    ["glue", "--count", "-2", "--lemma", "SUP_SUP"],
    ["verify", "--quick", "--seed", "-5"],
])
def test_exit_2_on_negative_seed_or_count(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_exit_2_on_bad_family(tmp_path, capsys):
    rec = dict(MULT_T6)
    rec["f"] = {"family": "mystery", "c": 1}
    assert run(["mult", "--config", _write(tmp_path, rec)]) == 2


def test_exit_3_on_unsupported_regime(tmp_path, capsys):
    rec = dict(MULT_T6)
    rec.update({"r": 1, "p": 2, "q": 3, "validate": False})
    assert run(["mult", "--config", _write(tmp_path, rec)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_2_on_malformed_space(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "space": {"kind": "bogus", "exponents": [1, 1], "weights": [EDEC, ONE]},
        "f": EDEC})
    assert run(["norm", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: space: kind must be" in err and "Traceback" not in err


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "cescop.cli", "glue", "--lemma", "SUP_SUP", "--count", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["command"] == "glue" and len(rep["suites"]["SUP_SUP"]) == 1
