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
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .conventions import xpow
from .errors import CescopError, ConfigError, SpecInvalid
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
    try:
        if rec == "inf":
            return Exponent("inf")
        if isinstance(rec, dict):
            _need(rec, {"num", "den"}, what)
            return Exponent(Fraction(int(rec["num"]), int(rec["den"])))
        if isinstance(rec, (int, float, str)):
            return Exponent(rec)
    except (SpecInvalid, ValueError, TypeError, ZeroDivisionError) as e:
        raise ConfigError(f"{what}: {e}") from e
    raise ConfigError(f"{what}: cannot interpret {rec!r}")


def parse_fun(rec, what: str = "function") -> RealFun:
    if not isinstance(rec, dict) or "family" not in rec:
        raise ConfigError(f"{what}: expected an object with a 'family' key")
    fam = rec["family"]
    try:
        if fam == "power":
            _need(rec, {"family", "c", "alpha"}, what)
            return power(float(rec["c"]), float(rec["alpha"]))
        if fam == "powerlog":
            _need(rec, {"family", "c", "alpha", "beta"}, what)
            return powerlog(float(rec["c"]), float(rec["alpha"]), float(rec["beta"]))
        if fam == "exp":
            _need(rec, {"family", "c", "alpha", "gamma"}, what)
            return expfam(float(rec["c"]), float(rec["alpha"]), float(rec["gamma"]))
        if fam == "indicator":
            _need(rec, {"family", "lo", "hi"}, what)
            hi = math.inf if rec["hi"] == "inf" else float(rec["hi"])
            return indicator(float(rec["lo"]), hi)
        if fam == "table":
            _need(rec, {"family", "log_t", "values"}, what)
            return table(np.asarray(rec["log_t"], dtype=float),
                         np.asarray(rec["values"], dtype=float))
        if fam == "constant":
            _need(rec, {"family", "c"}, what)
            return constant(float(rec["c"]))
        if fam == "product":
            _need(rec, {"family", "parts"}, what)
            return product(*(parse_fun(p, what) for p in rec["parts"]))
        if fam == "sum":
            _need(rec, {"family", "parts"}, what)
            return funsum(*(parse_fun(p, what) for p in rec["parts"]))
        if fam == "powerof":
            _need(rec, {"family", "base", "s"}, what)
            return powerof(parse_fun(rec["base"], what), float(rec["s"]))
    except ConfigError:
        raise
    except (SpecInvalid, ValueError, TypeError) as e:
        raise ConfigError(f"{what}: {e}") from e
    raise ConfigError(f"{what}: unknown family {fam!r}")


def parse_space(rec, what: str = "space") -> SpaceSpec:
    _need(rec, {"kind", "exponents", "weights"}, what)
    exps = [parse_exponent(e, f"{what}.exponents") for e in rec["exponents"]]
    ws = [parse_fun(w, f"{what}.weights") for w in rec["weights"]]
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
    try:
        return QuadratureConfig(
            S=float(rec.get("S", base.S)),
            sup_grid=int(rec.get("sup_grid", base.sup_grid)))
    except (SpecInvalid, ValueError, OverflowError) as e:
        raise ConfigError(f"cfg: {e}") from e


def _oracle_count(rec: dict, key: str, default: int) -> int:
    """rec[key] as a non-negative integer (a JSON boolean is not one)."""
    v = rec.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ConfigError(f"oracle.{key}: expected a non-negative integer, got {v!r}")
    return v


def _validate_flag(rec: dict, what: str) -> bool:
    v = rec.get("validate", True)
    if not isinstance(v, bool):
        raise ConfigError(f"{what}.validate: expected true or false, got {v!r}")
    return v


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


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


def _problem_from_config(rec) -> tuple:
    keys = {"r", "u", "p", "q", "w", "v", "f"}
    _need(rec, keys | ({"cfg", "validate", "oracle"} & set(rec)), "mult config")
    prob = ThreeWeightProblem(
        r=parse_exponent(rec["r"], "r"), u=parse_fun(rec["u"], "u"),
        p=parse_exponent(rec["p"], "p"), q=parse_exponent(rec["q"], "q"),
        w=parse_fun(rec["w"], "w"), v=parse_fun(rec["v"], "v"),
        f=parse_fun(rec["f"], "f"), validate=_validate_flag(rec, "mult config"))
    return prob, parse_cfg(rec.get("cfg")), rec.get("oracle")


_ORACLE_KEYS = {"seed", "size", "rounds"}


def _oracle(f, X, Y, rec: dict, cfg) -> dict:
    """Build the seeded candidate family, enrich it and score it.

    One score dict serves the enrich rounds and the final scoring, so
    each candidate is scored once; it lives only for this call.
    """
    fam = default_family(seed=_oracle_count(rec, "seed", 0),
                         size=_oracle_count(rec, "size", 60))
    scores = {}
    fam = enrich(fam, f, X, Y, rounds=_oracle_count(rec, "rounds", 0), cfg=cfg,
                 scores=scores)
    res = brute_force_multiplier(f, X, Y, fam, cfg, scores=scores)
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
    value = xpow(inner["value"], outer) if inner["value"] > 0 else 0.0
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
        ThreeWeightProblem(r=prob.r, u=prob.u, p=prob.p, q=prob.q, w=prob.w,
                           v=prob.v, f=product(constant(3.0), prob.f)), cfg)
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


def _open_out(path: str):
    if path == "-":
        return sys.stdout
    try:
        return open(path, "w")
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}") from e


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _DISPATCH[args.command](args)
        out = _open_out(args.out)
    except (ConfigError, SpecInvalid) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CescopError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    try:
        _emit(report, args.format, out)
    finally:
        if out is not sys.stdout:
            out.close()
    if args.command == "verify" and not report["ok"]:
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
