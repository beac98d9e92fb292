"""Batch command-line front-end.

Subcommands take a JSON config describing weights (family records),
exponents (exact rationals or "inf") and the function under test, run
the requested computation and emit a JSON or CSV report on stdout.
Exit codes: 0 success, 1 a failed ``verify`` check, 2 config/schema
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import CescopError, ConfigError, NumericOverflow, SpecInvalid
from .exponents import Exponent, arrow
from .gluing import GLUE_CFG, LEMMAS, glue_eval, random_instance
from .multiplier import ThreeWeightProblem, characterize, reduce_problem
from .oracle import brute_force_multiplier, default_family, enrich
from .realfun import (
    DEFAULT_CFG,
    ONE,
    QuadratureConfig,
    RealFun,
    constant,
    expfam,
    funsum,
    indicator,
    power,
    powerlog,
    powerof,
    product,
    table,
    weight,
)
from .spaces import SpaceSpec, space_norm

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# config parsing

def _need(rec: dict, keys: set, what: str) -> None:
    if not isinstance(rec, dict):
        raise ConfigError(f"{what}: expected an object, got {type(rec).__name__}")
    got = set(rec)
    if got != keys:
        missing, extra = keys - got, got - keys
        parts = []
        if missing:
            parts.append("missing " + ", ".join(sorted(missing)))
        if extra:
            parts.append("unknown " + ", ".join(sorted(extra)))
        raise ConfigError(f"{what}: " + "; ".join(parts))


def parse_exponent(rec, what: str = "exponent") -> Exponent:
    """An exponent record: a JSON number, a string such as "3/4" or "inf",
    or {"num": ..., "den": ...} with JSON integers."""
    try:
        if isinstance(rec, dict):
            _need(rec, {"num", "den"}, what)
            num, den = rec["num"], rec["den"]
            if any(isinstance(v, bool) or not isinstance(v, int) for v in (num, den)):
                raise ConfigError(f"{what}: num and den must be integers, got {rec!r}")
            return Exponent(Fraction(num, den))
        return Exponent(rec)
    except (SpecInvalid, ZeroDivisionError) as e:
        raise ConfigError(f"{what}: {e}") from e


# family -> (factory, the number fields it takes in order)
_ELEMENTARY = {"power": (power, ("c", "alpha")),
               "powerlog": (powerlog, ("c", "alpha", "beta")),
               "exp": (expfam, ("c", "alpha", "gamma")),
               "constant": (constant, ("c",))}


def parse_fun(rec, what: str = "function") -> RealFun:
    if not isinstance(rec, dict) or "family" not in rec:
        raise ConfigError(f"{what}: expected an object with a 'family' key")
    fam = rec["family"]

    def num(key):
        return _number(rec[key], f"{what}.{key}")

    try:
        if isinstance(fam, str) and fam in _ELEMENTARY:
            make, keys = _ELEMENTARY[fam]
            _need(rec, {"family", *keys}, what)
            return make(*(num(k) for k in keys))
        if fam == "indicator":
            _need(rec, {"family", "lo", "hi"}, what)
            hi = math.inf if rec["hi"] == "inf" else num("hi")
            return indicator(num("lo"), hi)
        if fam == "table":
            _need(rec, {"family", "log_t", "values"}, what)
            return table(*(_list(rec, key, what, _number) for key in ("log_t", "values")))
        if fam == "product":
            _need(rec, {"family", "parts"}, what)
            return product(*_list(rec, "parts", what, parse_fun))
        if fam == "sum":
            _need(rec, {"family", "parts"}, what)
            return funsum(*_list(rec, "parts", what, parse_fun))
        if fam == "powerof":
            _need(rec, {"family", "base", "s"}, what)
            return powerof(parse_fun(rec["base"], what), num("s"))
    except ConfigError:
        raise
    except (SpecInvalid, ValueError, TypeError) as e:
        raise ConfigError(f"{what}: {e}") from e
    raise ConfigError(f"{what}: unknown family {fam!r}")


def parse_space(rec, what: str = "space") -> SpaceSpec:
    _need(rec, {"kind", "exponents", "weights"}, what)
    exps = _list(rec, "exponents", what, parse_exponent)
    ws = _list(rec, "weights", what, parse_fun)
    try:
        return SpaceSpec(rec["kind"], tuple(exps), tuple(ws), validate=False)
    except SpecInvalid as e:
        raise ConfigError(f"{what}: {e}") from e


_CFG_KEYS = {"S", "sup_grid"}


def parse_cfg(rec) -> QuadratureConfig:
    if rec is None:
        return DEFAULT_CFG
    if not isinstance(rec, dict) or not set(rec) <= _CFG_KEYS:
        raise ConfigError(f"cfg: allowed keys are {sorted(_CFG_KEYS)}")
    base = DEFAULT_CFG
    sup_grid = _count(rec, "sup_grid", base.sup_grid, "cfg")
    try:
        return QuadratureConfig(S=_number(rec.get("S", base.S), "cfg.S"), sup_grid=sup_grid)
    except (SpecInvalid, ValueError, OverflowError) as e:
        raise ConfigError(f"cfg: {e}") from e


def _number(v, where: str) -> float:
    """v, read at where, as a float; it must be a JSON number (a string or
    a boolean is not one)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as e:  # an integer beyond the float range
        raise ConfigError(f"{where}: {e}") from e


def _list(rec: dict, key: str, what: str, parse) -> list:
    """parse(x, where) of each entry x of rec[key], which must be a JSON list."""
    v = rec[key]
    if not isinstance(v, list):
        raise ConfigError(f"{what}.{key}: expected a list, got {v!r}")
    return [parse(x, f"{what}.{key}") for x in v]


def _count(rec: dict, key: str, default: int, what: str) -> int:
    """rec[key] as a non-negative integer (a JSON boolean is not one)."""
    v = rec.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ConfigError(f"{what}.{key}: expected a non-negative integer, got {v!r}")
    return v


def _validate_flag(rec: dict, what: str) -> bool:
    v = rec.get("validate", True)
    if not isinstance(v, bool):
        raise ConfigError(f"{what}.validate: expected true or false, got {v!r}")
    return v


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(rec, dict):
        raise ConfigError(f"config: expected an object, got {type(rec).__name__}")
    return rec


# ---------------------------------------------------------------------------
# reports

def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    # csv: flatten scalar fields plus any (name, value) term tables
    rows = [("field", "value")]
    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                flatten(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, x in enumerate(obj):
                flatten(f"{prefix}{i}.", x)
        else:
            rows.append((prefix.rstrip("."), str(obj)))
    flatten("", report)
    csv.writer(out, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_norm(args) -> dict:
    cfgrec = _load_config(args.config)
    _need(cfgrec, {"space", "f"} | ({"cfg"} & set(cfgrec)), "norm config")
    spec = parse_space(cfgrec["space"])
    f = parse_fun(cfgrec["f"], "f")
    cfg = parse_cfg(cfgrec.get("cfg"))
    value = space_norm(spec, f, cfg)
    return {"command": "norm", "space": spec.describe(), "value": value}


# the fields of a mult config's problem, in parsing order, with their parsers
_PROBLEM_FIELDS = {"r": parse_exponent, "u": parse_fun, "p": parse_exponent,
                   "q": parse_exponent, "w": parse_fun, "v": parse_fun, "f": parse_fun}


def _problem_from_config(rec) -> tuple:
    _need(rec, set(_PROBLEM_FIELDS) | ({"cfg", "validate", "oracle"} & set(rec)),
          "mult config")
    prob = ThreeWeightProblem(
        **{k: parse(rec[k], k) for k, parse in _PROBLEM_FIELDS.items()},
        validate=_validate_flag(rec, "mult config"))
    return prob, parse_cfg(rec.get("cfg")), rec.get("oracle")


_ORACLE_KEYS = {"seed", "size", "rounds"}


def _oracle(f, X, Y, rec: dict, cfg) -> dict:
    """Build the seeded candidate family, enrich it and score it."""
    fam = default_family(seed=_count(rec, "seed", 0, "oracle"),
                         size=_count(rec, "size", 60, "oracle"))
    rounds = _count(rec, "rounds", 0, "oracle")
    fam = enrich(fam, f, X, Y, rounds=rounds, cfg=cfg)
    res = brute_force_multiplier(f, X, Y, fam, cfg)
    return {"lower_bound": res.lower_bound,
            "argmax": res.argmax.describe() if res.argmax else None,
            "evaluated": res.evaluated, "skipped": res.skipped}


def _mult_report(prob, cfg, orec) -> dict:
    res = characterize(prob, cfg)
    report = {
        "command": "mult", "problem": prob.describe(), "regime": res.regime,
        "value": res.value,
        "terms": [{"name": n, "value": v} for n, v in res.terms],
        "omegas": [{"name": n, "recipe": r} for n, r in res.omegas],
        "warnings": list(res.warnings),
    }
    if orec is not None:
        if not isinstance(orec, dict) or not set(orec) <= _ORACLE_KEYS:
            raise ConfigError(f"oracle: allowed keys are {sorted(_ORACLE_KEYS)}")
        X = SpaceSpec("cop", (Exponent(1), prob.r), (prob.u, ONE), validate=False)
        Y = SpaceSpec("ces", (prob.p, prob.q), (prob.w, prob.v), validate=False)
        report["oracle"] = _oracle(prob.f, X, Y, orec, cfg)
    return report


def _cmd_mult(args) -> dict:
    prob, cfg, orec = _problem_from_config(_load_config(args.config))
    return _mult_report(prob, cfg, orec)


def _cmd_reduce(args) -> dict:
    rec = _load_config(args.config)
    keys = {"p1", "q1", "p2", "q2", "u1", "v1", "u2", "v2", "f"}
    _need(rec, keys | ({"cfg", "validate", "oracle"} & set(rec)), "reduce config")
    cfg = parse_cfg(rec.get("cfg"))
    # an infinite exponent raises SpecInvalid, which run() reports as a config error
    prob, outer = reduce_problem(
        parse_exponent(rec["p1"], "p1"), parse_exponent(rec["q1"], "q1"),
        parse_exponent(rec["p2"], "p2"), parse_exponent(rec["q2"], "q2"),
        parse_fun(rec["u1"], "u1"), parse_fun(rec["v1"], "v1"),
        parse_fun(rec["u2"], "u2"), parse_fun(rec["v2"], "v2"),
        parse_fun(rec["f"], "f"), validate=_validate_flag(rec, "reduce config"))
    inner = _mult_report(prob, cfg, rec.get("oracle"))
    try:
        value = inner["value"] ** outer if inner["value"] > 0 else 0.0
    except OverflowError:  # a finite norm beyond the float range
        raise NumericOverflow(f"{inner['value']:g}^{outer:g} exceeds the float range") from None
    return {"command": "reduce", "outer_power": outer,
            "reduced": inner, "value": value}


def _non_negative(args, *names) -> None:
    """Reject a negative integer option: seeds and counts cannot be."""
    for name in names:
        v = getattr(args, name)
        if v < 0:
            raise ConfigError(f"--{name}: expected a non-negative integer, got {v}")


def _glue_suite(seed: int, lem: str, count: int) -> list:
    """glue_eval on the first count seeded random instances of one lemma."""
    i = LEMMAS.index(lem)
    return [glue_eval(random_instance(lem, np.random.default_rng((seed, i, k))),
                      GLUE_CFG) for k in range(count)]


def _cmd_glue(args) -> dict:
    _non_negative(args, "seed", "count")
    lemmas = LEMMAS if args.lemma == "all" else (args.lemma,)
    for lem in lemmas:
        if lem not in LEMMAS:
            raise ConfigError(f"unknown lemma {lem!r}; choose from {LEMMAS}")
    suites = {}
    for lem in lemmas:
        suites[lem] = [{"index": k, "lhs": res.lhs, "rhs_terms": list(res.rhs_terms),
                        "ratio": res.ratio}
                       for k, res in enumerate(_glue_suite(args.seed, lem, args.count))]
    return {"command": "glue", "seed": args.seed, "count": args.count,
            "suites": suites}


def _verify_checks(seed: int, quick: bool):
    cfg = QuadratureConfig.quick() if quick else DEFAULT_CFG
    checks = []

    def record(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail,
                       "replay_seed": seed})

    rng = np.random.default_rng(seed)
    # exact arrow chain identity on ordered random rationals
    ok = True
    for _ in range(50):
        vals = sorted(Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 30)))
                      for _ in range(3))
        p, q, r = (Exponent(x) for x in vals)
        if arrow(r, p).reciprocal() != (arrow(r, q).reciprocal()
                                        + arrow(q, p).reciprocal()):
            ok = False
    record("exponent_arrow_identity", ok, "50 ordered rational triples, exact")

    prob = ThreeWeightProblem(
        r=Fraction(1, 2), u=weight(constant(1.0)), p=1, q=2,
        w=weight(expfam(1.0, 0.0, -1.0)), v=weight(constant(1.0)),
        f=expfam(1.0, 2.0, 1.0))
    base = characterize(prob, cfg)
    scaled = characterize(
        dataclasses.replace(prob, f=product(constant(3.0), prob.f)), cfg)
    record("homogeneity_in_f",
           abs(scaled.value - 3.0 * base.value) <= 1e-10 * scaled.value,
           f"value {base.value:.12g}, 3x {scaled.value:.12g}")
    again = characterize(prob, cfg)
    record("determinism", again.value == base.value and again.terms == base.terms,
           "repeat evaluation is bit-identical")

    nglue = 5 if quick else 20
    ok, worst = True, 0.0
    for lem in LEMMAS:
        for res in _glue_suite(seed, lem, nglue):
            if not (math.isnan(res.ratio) or 1e-2 <= res.ratio <= 1e2):
                ok = False
            if not math.isnan(res.ratio):
                worst = max(worst, res.ratio, 1.0 / res.ratio)
    record("glue_two_sided", ok,
           f"{len(LEMMAS)}x{nglue} instances, worst ratio factor {worst:.3g}")
    return checks


def _cmd_verify(args) -> dict:
    _non_negative(args, "seed")
    checks = _verify_checks(args.seed, args.quick)
    return {"command": "verify", "seed": args.seed, "quick": args.quick,
            "checks": checks, "ok": all(c["ok"] for c in checks)}


def _cmd_oracle(args) -> dict:
    rec = _load_config(args.config)
    _need(rec, {"f", "X", "Y"} | (({"cfg"} | _ORACLE_KEYS) & set(rec)), "oracle config")
    f = parse_fun(rec["f"], "f")
    X = parse_space(rec["X"], "X")
    Y = parse_space(rec["Y"], "Y")
    return {"command": "oracle", "X": X.describe(), "Y": Y.describe(),
            **_oracle(f, X, Y, rec, parse_cfg(rec.get("cfg")))}


# ---------------------------------------------------------------------------
# entry point

@functools.cache  # one parser per process: building one costs over a millisecond
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cescop",
        description="Weighted Cesaro/Copson space norms and multiplier "
                    "characterizations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON problem config")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="-", help="output path, - for stdout")

    common(sub.add_parser("norm", help="evaluate a 2- or 3-parameter space norm"))
    common(sub.add_parser("mult", help="closed-form multiplier characterization"))
    common(sub.add_parser("reduce", help="four-weight reduction, then mult"))
    g = sub.add_parser("glue", help="randomized gluing-lemma suites")
    g.add_argument("--lemma", default="all")
    g.add_argument("--count", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    common(g, config=False)
    v = sub.add_parser("verify", help="randomized property suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--quick", action="store_true")
    common(v, config=False)
    common(sub.add_parser("oracle", help="brute-force multiplier lower bound"))
    return ap


_DISPATCH = {"norm": _cmd_norm, "mult": _cmd_mult, "reduce": _cmd_reduce,
             "glue": _cmd_glue, "verify": _cmd_verify, "oracle": _cmd_oracle}


def _write_report(report: dict, fmt: str, path: str) -> None:
    """_emit the report to path, - for stdout; ConfigError when it cannot
    be written."""
    try:
        out = sys.stdout if path == "-" else open(path, "w")
        try:
            _emit(report, fmt, out)
            out.flush()
        finally:
            if out is not sys.stdout:
                out.close()
    except OSError as e:  # an unwritable path, a full device or a closed pipe
        raise ConfigError(f"cannot write output: {e}") from e


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            report = _DISPATCH[args.command](args)
        except RecursionError:  # a config nested past the limit, in json.load or a parser
            raise ConfigError("config nests too deeply") from None
        _write_report(report, args.format, args.out)
    except (ConfigError, SpecInvalid) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CescopError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if args.command == "verify" and not report["ok"]:
        return 1
    return 0


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:
        # run has reported the failed write; send what is left in the
        # buffer nowhere, so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
