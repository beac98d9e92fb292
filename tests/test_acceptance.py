"""Acceptance gate: the nine release criteria, each with pinned tolerances.

Each test runs one criterion end to end, records a one-line pass/fail
summary (printed after the session), and asserts the stated bounds.
"""

import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
from scipy.special import gamma as Gamma

from acceptance_report import record
from cescop import (
    Exponent,
    FULL,
    Interval,
    ONE,
    SpaceSpec,
    ThreeWeightProblem,
    arrow,
    brute_force_multiplier,
    characterize,
    default_family,
    dual_exponent,
    enrich,
    expfam,
    funsum,
    indicator,
    integrate,
    op_A,
    power,
    powerof,
    product,
    reduce_problem,
    space_norm,
    stieltjes_density,
    weight,
)
from cescop.gluing import LEMMAS, almost_geometric_check, discrete_equiv, glue_eval, random_instance

EDEC = expfam(1.0, 0.0, -1.0)


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# 1. quadrature exactness

QUAD_CASES = [
    (expfam(1, 0, -1), FULL, 1.0),
    (expfam(1, 1, -1), FULL, 1.0),
    (expfam(1, 4, -1), FULL, 24.0),
    (expfam(1, -0.5, -1), FULL, math.sqrt(math.pi)),
    (expfam(1, 2, -3), FULL, 2.0 / 27.0),
    (expfam(2.5, 1.5, -0.5), FULL, 2.5 * Gamma(2.5) * 2.0 ** 2.5),
    (power(1, -2), Interval(1, math.inf), 1.0),
    (power(1, -0.5), Interval(0, 1), 2.0),
    (power(1, 3), Interval(2, 5), (625.0 - 16.0) / 4.0),
    (power(3, 0.5), Interval(1, 4), 3.0 * (8.0 - 1.0) * 2.0 / 3.0),
    (funsum(indicator(1, 3), product(power(2, 0), indicator(2, 6))), FULL, 10.0),
    (product(power(1, 1), indicator(0.5, 2)), FULL, (4.0 - 0.25) / 2.0),
    (product(expfam(1, 0, -1), indicator(1, math.inf)), FULL, math.exp(-1.0)),
    (powerof(expfam(1, 1, -1), 2.0), FULL, 0.25 * Gamma(3.0) / 2.0),
    (product(power(1, 1), expfam(1, 1, -2)), FULL, Gamma(3.0) / 8.0),
    (expfam(1, 9, -1), FULL, float(Gamma(10.0))),
    (power(4, -3), Interval(2, math.inf), 4.0 / (2.0 * 4.0)),
    (funsum(expfam(1, 0, -1), expfam(1, 1, -1)), FULL, 2.0),
    (powerof(power(2, 1), 2.0), Interval(0, 3), 4.0 * 9.0),
    (product(powerof(EDEC, 0.5), powerof(EDEC, 1.5)), FULL, 0.5),
]


def test_criterion_1_quadrature_exactness():
    t0 = time.time()
    worst = 0.0
    for g, interval, want in QUAD_CASES:
        got = integrate(g, interval)
        worst = max(worst, _rel(got, want))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    record(1, "quadrature exactness",
           ok, f"{len(QUAD_CASES)} analytic cases, worst rel err {worst:.2e}, "
               f"{elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. exponent algebra

def test_criterion_2_exponent_algebra():
    table_ok = (
        dual_exponent(Exponent(F(1, 2))).value == F(1, 1)
        and dual_exponent(Exponent(F(1, 3))).value == F(1, 2)
        and dual_exponent(Exponent(1)).is_inf
        and dual_exponent(Exponent(3)).value == F(3, 2)
        and dual_exponent(Exponent("inf")).value == F(1, 1)
    )
    rng = np.random.default_rng(20240817)
    chain_ok = True
    for _ in range(100):
        vals = sorted(F(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
                      for _ in range(3))
        if len(set(vals)) < 3:
            continue
        p, q, r = (Exponent(x) for x in vals)
        if arrow(r, p).reciprocal() != (arrow(r, q).reciprocal()
                                        + arrow(q, p).reciprocal()):
            chain_ok = False
    ok = table_ok and chain_ok
    record(2, "exponent algebra", ok,
           "conjugate table exact; arrow chain identity exact on 100 "
           "random rational triples")
    assert table_ok
    assert chain_ok


# ---------------------------------------------------------------------------
# 3. Stieltjes density identity

STIELTJES_CASES = [
    (ONE, F(1, 1), F(1, 2)),
    (ONE, F(2, 1), F(1, 1)),
    (ONE, F(3, 4), F(1, 2)),
    (power(1, 0.5), F(2, 1), F(1, 2)),
    (power(2, 1.0), F(3, 1), F(2, 1)),
    (EDEC, F(1, 1), F(1, 2)),
    (EDEC, F(2, 1), F(1, 1)),
    (expfam(1, 1, -1), F(3, 2), F(1, 2)),
    (funsum(power(1, 0.5), power(1, 1.5)), F(2, 1), F(1, 1)),
    (powerof(EDEC, 0.5), F(4, 3), F(2, 3)),
]


def test_criterion_3_stieltjes_identity():
    t = np.logspace(-2, 2, 41)
    worst = 0.0
    for u, r, p in STIELTJES_CASES:
        e = arrow(Exponent(r), Exponent(p))
        dens = stieltjes_density(u, Exponent(r), Exponent(p))
        ref = product(power(float(e) / float(r), 0.0),
                      powerof(op_A(u, r, p), float(e)))
        d = np.exp(dens.logv(t))
        rr = np.exp(ref.logv(t))
        worst = max(worst, float(np.max(np.abs(d - rr) / rr)))
    ok = worst < 1e-4
    record(3, "Stieltjes density identity", ok,
           f"{len(STIELTJES_CASES)} weight/exponent instances, worst "
           f"pointwise rel err {worst:.2e}")
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# 4. gluing suite

def test_criterion_4_gluing_suite():
    t0 = time.time()
    seed = 12345
    n = 100
    ok = True
    worst_ratio, worst_term = 1.0, 0.0
    bad = []
    # lhs and both rhs terms of every instance at this seed, as recorded
    # for the benchmark; compared by repr, so bit for bit
    ref_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())["glue"]
    moved = []
    for i, lem in enumerate(LEMMAS):
        for k in range(n):
            inst = random_instance(lem, np.random.default_rng((seed, i, k)))
            res = glue_eval(inst)
            if repr([res.lhs, *res.rhs_terms]) != repr(reference[lem][k]):
                moved.append((lem, k))
            if math.isnan(res.ratio):
                continue
            worst_ratio = max(worst_ratio, res.ratio, 1.0 / res.ratio)
            for term in res.rhs_terms:
                if math.isfinite(term) and math.isfinite(res.lhs):
                    frac = term / res.lhs if res.lhs > 0 else 0.0
                    worst_term = max(worst_term, frac)
                    if term > 8.0 * res.lhs:
                        ok = False
                        bad.append((lem, k))
            if not (1e-2 <= res.ratio <= 1e2):
                ok = False
                bad.append((lem, k))
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    record(4, "gluing suite", ok,
           f"6 lemmas x {n} seeded instances (seed {seed}), worst two-sided "
           f"ratio {worst_ratio:.3g}, worst term/lhs {worst_term:.3g}, "
           f"{elapsed:.1f}s" + (f", failures {bad[:5]}" if bad else ""))
    assert ok, f"replay (seed, lemma-index, instance): {bad[:10]}"
    assert elapsed < 120.0
    assert not moved, f"outputs differ from perfbench/reference.json: {moved[:10]}"


# ---------------------------------------------------------------------------
# 5. discrete lemmas

def test_criterion_5_discrete_lemmas():
    rng = np.random.default_rng(987)
    checked = 0
    ok = True
    worst = 1.0
    while checked < 200:
        direction = "AGD" if rng.random() < 0.5 else "AGI"
        nlen = int(rng.integers(8, 25))
        rho = rng.uniform(0.3, 0.75) if direction == "AGD" else rng.uniform(1.4, 3.0)
        jitter = rng.uniform(0.85, 1.18, size=nlen)
        tau = rho ** np.arange(nlen) * jitter
        if almost_geometric_check(tau, "dec" if direction == "AGD" else "inc") is None:
            continue
        a = 10.0 ** rng.uniform(-1.5, 1.5, size=nlen)
        q = [0.5, 1.0, 2.0, math.inf][int(rng.integers(0, 4))]
        lhs, rhs = discrete_equiv(direction, tau, a, q)
        checked += 1
        if lhs < rhs:
            ok = False
        ratio = lhs / rhs
        worst = max(worst, ratio)
        if not (1.0 <= ratio * (1 + 1e-12) <= 64.0):
            ok = False
    record(5, "discrete AGD/AGI lemmas", ok,
           f"200 witnessed sequences, lhs >= rhs always, worst lhs/rhs "
           f"{worst:.3g} within [1, 64]")
    assert ok


# ---------------------------------------------------------------------------
# 6. theorem cross-validation

REGIME_INSTANCES = [
    ("T1", dict(r=1, u=ONE, p=F(1, 2), q=F(1, 2), w=EDEC, v=ONE),
     expfam(1, 2, -1)),
    ("T2i", dict(r=1, u=ONE, p=F(1, 2), q=2, w=EDEC, v=ONE),
     expfam(1, 2, -1)),
    ("T2ii", dict(r=1, u=ONE, p=F(1, 2), q=F(1, 3), w=EDEC, v=ONE),
     expfam(1, 2, -1)),
    ("T3i", dict(r=F(1, 3), u=ONE, p=F(1, 2), q=F(1, 2), w=EDEC, v=ONE),
     expfam(1, 4, -1)),
    ("T3ii", dict(r=2, u=EDEC, p=F(1, 2), q=F(1, 2), w=EDEC, v=ONE),
     expfam(1, 2, -1)),
    ("T4i", dict(r=F(1, 3), u=ONE, p=F(1, 2), q=2, w=EDEC,
                 v=power(1, 2.5)), expfam(1, 1, -1)),
    ("T4ii", dict(r=F(1, 3), u=ONE, p=F(1, 2), q=F(3, 4), w=EDEC,
                  v=power(1, 2.5)), expfam(1, 1, -1)),
    ("T5i", dict(r=F(3, 4), u=ONE, p=F(1, 2), q=2, w=EDEC,
                 v=power(1, 1.0)), expfam(1, 1, -1)),
    ("T5ii", dict(r=2, u=ONE, p=F(1, 2), q=F(3, 2), w=EDEC,
                  v=power(1, 0.2)), expfam(1, 1, -1)),
    ("T5iii", dict(r=F(3, 4), u=ONE, p=F(1, 2), q=F(4, 5), w=EDEC,
                   v=power(1, 1.0)), expfam(1, 1, -1)),
    ("T5iv", dict(r=F(3, 4), u=ONE, p=F(1, 2), q=F(3, 5), w=EDEC,
                  v=power(1, 1.0)), expfam(1, 1, -1)),
    ("T6", dict(r=F(1, 2), u=ONE, p=1, q=2, w=EDEC, v=ONE),
     expfam(1, 2, 1)),
    ("T7i", dict(r=F(3, 2), u=EDEC, p=1, q=2, w=EDEC, v=ONE),
     expfam(1, 4, -1)),
    ("T7ii", dict(r=2, u=EDEC, p=1, q=F(3, 2), w=EDEC, v=ONE),
     expfam(1, 4, -1)),
]

# The closed forms are equivalences whose constants the source never
# bounds and which can fall below 1 (a point-mass test function already
# exceeds the T3i closed form by a factor ~4), so the envelope is
# two-sided: neither side may exceed the other by more than the policy
# constant 100.
ENVELOPE = 100.0


def test_criterion_6_theorem_cross_validation():
    t0 = time.time()
    lines = []
    ok = True
    for tag, kw, f in REGIME_INSTANCES:
        prob = ThreeWeightProblem(f=f, **kw)
        res = characterize(prob)
        assert res.regime == tag
        X = SpaceSpec("cop", (Exponent(1), prob.r), (prob.u, ONE),
                      validate=False)
        Y = SpaceSpec("ces", (prob.p, prob.q), (prob.w, prob.v), validate=False)
        scores = {}
        fam = enrich(default_family(seed=101, size=60), f, X, Y, rounds=5,
                     scores=scores)
        lb = brute_force_multiplier(f, X, Y, fam, scores=scores).lower_bound
        good = (0.0 < lb < math.inf and 0.0 < res.value < math.inf
                and lb <= ENVELOPE * res.value and res.value <= ENVELOPE * lb)
        ok = ok and good
        lines.append(f"{tag}:{res.value / lb:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    record(6, "theorem cross-validation", ok,
           f"{len(REGIME_INSTANCES)} instances (all 14 regime tags), "
           f"value/lower_bound per tag {{{', '.join(lines)}}}, x{ENVELOPE:g} "
           f"two-sided envelope, {elapsed:.1f}s")
    assert ok
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. reduction proposition

REDUCTION_INSTANCES = [
    dict(p1=2, q1=2, p2=1, q2=1, u1=ONE, v1=ONE, u2=EDEC, v2=ONE,
         f=expfam(1, 1, -0.5)),
    dict(p1=2, q1=2, p2=1, q2=4, u1=ONE, v1=ONE, u2=EDEC, v2=ONE,
         f=expfam(1, 1, -0.5)),
    dict(p1=3, q1=3, p2=F(3, 2), q2=F(3, 2), u1=ONE, v1=ONE, u2=EDEC,
         v2=ONE, f=expfam(1, 1, -0.5)),
    dict(p1=2, q1=2, p2=1, q2=1, u1=powerof(EDEC, 0.5), v1=ONE,
         u2=EDEC, v2=ONE, f=expfam(1, 1, -0.5)),
    dict(p1=2, q1=2, p2=1, q2=F(2, 3), u1=ONE, v1=power(1, 0.25),
         u2=EDEC, v2=ONE, f=expfam(1, 2, -0.5)),
]


def test_criterion_7_reduction():
    ok = True
    lines = []
    for rec in REDUCTION_INSTANCES:
        prob, outer = reduce_problem(**rec, validate=False)
        res = characterize(prob)
        value = res.value ** outer
        X = SpaceSpec("cop", (Exponent(rec["p1"]), Exponent(rec["q1"])),
                      (rec["u1"], rec["v1"]), validate=False)
        Y = SpaceSpec("ces", (Exponent(rec["p2"]), Exponent(rec["q2"])),
                      (rec["u2"], rec["v2"]), validate=False)
        scores = {}
        fam = enrich(default_family(seed=55, size=50), rec["f"], X, Y, rounds=3,
                     scores=scores)
        lb = brute_force_multiplier(rec["f"], X, Y, fam, scores=scores).lower_bound
        good = (0.0 < lb < math.inf and 0.0 < value < math.inf
                and lb <= ENVELOPE * value and value <= ENVELOPE * lb)
        ok = ok and good
        lines.append(f"{res.regime}:{value / lb:.2f}")
    record(7, "four-weight reduction", ok,
           f"5 instances, value^(1/p1) vs direct brute force "
           f"{{{', '.join(lines)}}}, x{ENVELOPE:g} envelope")
    assert ok


# ---------------------------------------------------------------------------
# 8. T6 spot check

def test_criterion_8_t6_spot_check():
    prob = ThreeWeightProblem(r=F(1, 2), u=weight(ONE), p=1, q=2,
                              w=weight(EDEC), v=weight(ONE),
                              f=expfam(1, 2, 1))
    res = characterize(prob)
    err = _rel(res.value, 1.0 / math.sqrt(2.0))
    ok = res.regime == "T6" and err < 1e-4
    record(8, "T6 closed-form spot check", ok,
           f"value {res.value:.10f} vs 1/sqrt(2), rel err {err:.2e}")
    assert res.regime == "T6"
    assert err < 1e-4


# ---------------------------------------------------------------------------
# 9. invariants

def test_criterion_9_invariants():
    t0 = time.time()
    checks = []

    # homogeneity of characterize in f across regimes
    for tag, kw, f in REGIME_INSTANCES[:6]:
        base = characterize(ThreeWeightProblem(f=f, **kw))
        scaled = characterize(
            ThreeWeightProblem(f=product(power(7.0, 0.0), f), **kw))
        checks.append(abs(scaled.value - 7.0 * base.value)
                      <= 1e-10 * max(scaled.value, 1e-300))

    # monotonicity of space norms in f
    spec = SpaceSpec("ces", (1, 2), (EDEC, ONE), validate=False)
    f1, f2 = expfam(1, 1, -1), expfam(2, 1, -0.5)
    checks.append(space_norm(spec, f1) <= space_norm(spec, f2))

    # f = 0 gives 0 in every regime
    from cescop.realfun import ZERO
    for tag, kw, _ in REGIME_INSTANCES:
        checks.append(characterize(ThreeWeightProblem(f=ZERO, **kw)).value == 0.0)

    # scaling u -> c u multiplies the T6 value by 1/c
    tag, kw, f = REGIME_INSTANCES[11]
    assert tag == "T6"
    base = characterize(ThreeWeightProblem(f=f, **kw))
    kw2 = dict(kw)
    kw2["u"] = power(5.0, 0.0)
    scaled = characterize(ThreeWeightProblem(f=f, **kw2))
    checks.append(abs(scaled.value - base.value / 5.0) <= 1e-9 * base.value)

    # determinism: identical reruns bit for bit
    a = characterize(ThreeWeightProblem(f=f, **kw))
    b = characterize(ThreeWeightProblem(f=f, **kw))
    checks.append(a.value == b.value and a.terms == b.terms)

    # oracle determinism and enrich monotonicity
    X = SpaceSpec("cop", (1, F(1, 2)), (ONE, ONE), validate=False)
    Y = SpaceSpec("ces", (1, 2), (EDEC, ONE), validate=False)
    fam = default_family(seed=9, size=30)
    r1 = brute_force_multiplier(f, X, Y, fam)
    r2 = brute_force_multiplier(f, X, Y, default_family(seed=9, size=30))
    checks.append(r1.lower_bound == r2.lower_bound and r1.argmax == r2.argmax)
    fam2 = enrich(fam, f, X, Y, rounds=2)
    r3 = brute_force_multiplier(f, X, Y, fam2)
    checks.append(r3.lower_bound >= r1.lower_bound)

    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 60.0
    record(9, "homogeneity/monotonicity/determinism", ok,
           f"{len(checks)} property checks, {elapsed:.1f}s")
    assert all(checks)
    assert elapsed < 60.0
