"""Command-line front-end: config parsing, reports, exit codes."""

import argparse
import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_reduce_exits_3_when_the_outer_power_overflows(tmp_path, capsys):
    # the reduced value, 5.7e154, squared (1 / p1 = 2) is beyond the float range
    cfg = _write(tmp_path, {
        "p1": "1/2", "q1": "1/2", "p2": "1/4", "q2": "1/4",
        "u1": ONE, "v1": ONE, "u2": EDEC, "v2": ONE,
        "f": {"family": "exp", "c": 1e306, "alpha": 1.0, "gamma": 0.5},
        "validate": False})
    assert run(["reduce", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: NumericOverflow" in err and "Traceback" not in err


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


@pytest.mark.parametrize("command", ["norm", "mult", "reduce", "oracle"])
@pytest.mark.parametrize("payload", ["5", "null", "true", "[[1]]"])
def test_exit_2_when_the_config_is_not_an_object(tmp_path, capsys, command, payload):
    # each command once took set() of the top level before checking it
    path = tmp_path / "cfg.json"
    path.write_text(payload)
    code = run([command, "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err


def test_exit_2_on_unwritable_out(capsys):
    argv = ["glue", "--lemma", "SUP_SUP", "--count", "1", "--out", "/nonexistent/x.json"]
    assert run(argv) == 2
    assert "cannot write output" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_exit_2_when_the_out_device_is_full(capsys):
    # the write fails only when the buffer is flushed, at close
    argv = ["glue", "--lemma", "SUP_SUP", "--count", "1", "--out", "/dev/full"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ") and err.count("\n") == 1


def _cli_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_exit_2_when_the_reader_closes_the_pipe():
    # the report (over 100 kB) outgrows the pipe after the reader has gone
    with subprocess.Popen([sys.executable, "-m", "cescop.cli", "glue", "--count", "100"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_cli_env()) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    # one line, and no "Exception ignored" from the interpreter's last flush
    assert err.startswith("config error: cannot write output: ") and err.count("\n") == 1


def _nested_sums(depth):
    f = ONE
    for _ in range(depth):
        f = {"family": "sum", "parts": [f]}
    return f


@pytest.mark.parametrize("command, text", [
    # too deep for json.load
    ("mult", json.dumps({k: v for k, v in MULT_T6.items() if k != "r"})[:-1]
     + ', "r": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    # too deep for parse_fun
    ("norm", json.dumps({"space": {"kind": "ces", "exponents": [1, 1],
                                   "weights": [EDEC, ONE]},
                         "f": _nested_sums(400)})),
], ids=["mult-r-arrays", "norm-f-sums"])
def test_exit_2_when_the_config_nests_too_deeply(tmp_path, capsys, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: config nests too deeply\n"


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
    {"cfg": {"sup_grid": 8.5}},
    {"cfg": {"sup_grid": 300.7}},
    {"cfg": {"sup_grid": "300"}},
    {"cfg": {"sup_grid": 1e9}},
    {"cfg": {"sup_grid": 10**9}},
    # numbers must be JSON numbers, not strings or booleans
    {"cfg": {"S": "30"}},
    {"cfg": {"S": True}},
    {"f": {"family": "exp", "c": "2", "alpha": 2.0, "gamma": 1.0}},
    {"f": {"family": "exp", "c": 1.0, "alpha": True, "gamma": 1.0}},
    {"v": {"family": "indicator", "lo": "0", "hi": "inf"}},
    {"v": {"family": "constant", "c": 10**400}},
    # an exponent is not a boolean, num and den are JSON integers and
    # table samples lists of JSON numbers
    {"p": True},
    {"r": {"num": 3.7, "den": 2}},
    {"r": {"num": True, "den": 2}},
    # finite exponents whose float overflows or reads 0.0
    {"r": {"num": 10**400, "den": 3}},
    {"r": {"num": 1, "den": 10**400}},
    {"v": {"family": "table", "log_t": [True, 2.0], "values": [1.0, 1.0]}},
    {"v": {"family": "table", "log_t": ["0", "1"], "values": [1.0, 1.0]}},
    # JSON's NaN and Infinity are numbers, but no function parameter
    {"f": {"family": "exp", "c": float("nan"), "alpha": 2.0, "gamma": 1.0}},
    {"v": {"family": "power", "c": 1, "alpha": float("inf")}},
])
def test_exit_2_on_bad_config_value(tmp_path, capsys, extra):
    code = run(["mult", "--config", _write(tmp_path, {**MULT_T6, **extra})])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err


def test_exit_3_when_a_coefficient_power_overflows_the_value(tmp_path, capsys):
    # c ** s beyond the float range builds, since c is held as its log;
    # T6's value is then beyond it too
    v = {"family": "powerof", "base": {"family": "constant", "c": 1e200}, "s": 2}
    code = run(["mult", "--config", _write(tmp_path, {**MULT_T6, "v": v})])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure: NumericOverflow" in err and "Traceback" not in err


def _space_configs(key, value):
    """A norm and an oracle config whose space (X) has key set to value."""
    good = {"kind": "ces", "exponents": [1, 2], "weights": [EDEC, ONE]}
    bad = {**good, key: value}
    return {"norm": {"space": bad, "f": EDEC},
            "oracle": {"f": ONE, "X": bad, "Y": good, "size": 14}}


@pytest.mark.parametrize("command", ["norm", "oracle"])
@pytest.mark.parametrize("key, value", [
    *((key, v) for key in ("exponents", "weights") for v in (5, True, None, 5e-324)),
    ("exponents", "11"),  # once read as [1, 1]
])
def test_exit_2_when_a_space_list_is_not_a_list(tmp_path, capsys, command, key, value):
    rec = _space_configs(key, value)[command]
    code = run([command, "--config", _write(tmp_path, rec)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: " in err and f".{key}: expected a list" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family", ["product", "sum"])
@pytest.mark.parametrize("parts", ["", {}], ids=["string", "object"])
def test_exit_2_when_parts_is_not_a_list(tmp_path, capsys, family, parts):
    # an empty string or object was once read as no parts: 1 or 0
    cfg = _write(tmp_path, {
        "space": {"kind": "ces", "exponents": [1, 1], "weights": [EDEC, ONE]},
        "f": {"family": family, "parts": parts}})
    assert run(["norm", "--config", cfg]) == 2
    assert "f.parts: expected a list" in capsys.readouterr().err


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


def test_the_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    argv = ["glue", "--lemma", "SUP_SUP", "--count", "1"]
    first = _run_json(capsys, argv)
    assert _run_json(capsys, argv + ["--seed", "5"]) != first
    assert _run_json(capsys, argv) == first  # the default seed again
    assert len(parsers) == 3 and all(p is parsers[0] for p in parsers)


def test_exit_2_on_bad_family(tmp_path, capsys):
    rec = dict(MULT_T6)
    rec["f"] = {"family": "mystery", "c": 1}
    assert run(["mult", "--config", _write(tmp_path, rec)]) == 2


def test_indicator_takes_inf_as_its_upper_end():
    g = cli.parse_fun({"family": "indicator", "lo": 2, "hi": "inf"})
    assert (g.support.lo, g.support.hi) == (2.0, float("inf"))


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
    proc = subprocess.run(
        [sys.executable, "-m", "cescop.cli", "glue", "--lemma", "SUP_SUP", "--count", "1"],
        capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["command"] == "glue" and len(rep["suites"]["SUP_SUP"]) == 1


# Mutation tests: one field of a valid config is replaced by a malformed
# value, or removed, and the CLI must still exit 0, 2 or 3.  The cfg and
# oracle blocks are left as they are: they request work, they are not
# malformed input.

NORM_RECORDS = [
    {"space": {"kind": "ces", "exponents": [1, 2], "weights": [EDEC, ONE]}, "f": EDEC},
    {"space": {"kind": "cop", "exponents": ["1/2", "inf"],
               "weights": [ONE, {"family": "power", "c": 2.0, "alpha": -0.5}]},
     "f": {"family": "product",
           "parts": [EDEC, {"family": "indicator", "lo": 0.5, "hi": "inf"}]}},
    {"space": {"kind": "ces", "exponents": [1, {"num": 3, "den": 2}, 2],
               "weights": [EDEC, ONE, ONE]},
     "f": {"family": "sum", "parts": [
         {"family": "table", "log_t": [-1.0, 0.0, 1.0], "values": [1.0, 2.0, 1.0]},
         {"family": "powerof", "s": 2,
          "base": {"family": "powerlog", "c": 1.0, "alpha": 1.0, "beta": 1.0}}]},
     "cfg": {"S": 16, "sup_grid": 24}},
]
CONFIG_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
MULT_RECORDS = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("T*.json"))]
_REMOVE = "<removed>"
MUTATIONS = [float("nan"), float("inf"), -float("inf"), 1e308, 5e-324, "x", [1.0],
             {"x": 1}, True, None, _REMOVE]


def _field_paths(node, path=()):
    """The path of every field below node, cfg and oracle blocks left out."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        if path or key not in ("cfg", "oracle"):
            yield path + (key,)
            yield from _field_paths(child, path + (key,))


def _mutated(rec, path, value):
    rec = copy.deepcopy(rec)
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(value, str) and value == _REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return rec


def _check_mutation(data, records, command, tmp_path_factory):
    rec = data.draw(st.sampled_from(records))
    path = data.draw(st.sampled_from(list(_field_paths(rec))))
    rec = _mutated(rec, path, data.draw(st.sampled_from(MUTATIONS)))
    cfg = _write(tmp_path_factory.getbasetemp(), rec, "mutated.json")
    err = io.StringIO()
    with (warnings.catch_warnings(record=True), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = run([command, "--config", cfg])
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_norm_config_exits_0_2_or_3(tmp_path_factory, data):
    _check_mutation(data, NORM_RECORDS, "norm", tmp_path_factory)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_mult_config_exits_0_2_or_3(tmp_path_factory, data):
    _check_mutation(data, MULT_RECORDS, "mult", tmp_path_factory)
