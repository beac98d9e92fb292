"""Regime dispatch and the closed-form multiplier characterizations."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from cescop import grids, operators
from cescop.errors import DegenerateOperator, SpecInvalid, UnsupportedRegime
from cescop.exponents import Exponent
from cescop.multiplier import (
    REGIME_TAGS,
    ThreeWeightProblem,
    _phi,
    characterize,
    classify_regime,
    hypothesis_check,
    reduce_problem,
)
from cescop.operators import big_V
from cescop.realfun import (DEFAULT_CFG, ONE, ZERO, QuadratureConfig, expfam, power, product,
                            table)
from test_acceptance import REGIME_INSTANCES
from test_grids import full_width_reduce

EDEC = expfam(1.0, 0.0, -1.0)

DISPATCH_CASES = [
    ((1, 1, 1), "T1"),
    ((F(1, 2), F(1, 2), 1), "T1"),
    ((F(1, 2), 2, 1), "T2i"),
    ((1, 2, 1), "T2i"),
    ((F(1, 2), F(1, 3), 1), "T2ii"),
    ((F(1, 2), F(1, 2), F(1, 3)), "T3i"),
    ((F(1, 2), F(1, 2), 2), "T3ii"),
    ((F(1, 2), 2, F(1, 3)), "T4i"),
    ((F(1, 2), 2, F(1, 2)), "T4i"),
    ((F(1, 2), F(3, 4), F(1, 3)), "T4ii"),
    ((F(1, 2), 2, F(3, 4)), "T5i"),
    ((F(1, 2), F(3, 2), 2), "T5ii"),
    ((F(1, 2), F(4, 5), F(3, 4)), "T5iii"),
    ((F(1, 2), F(3, 5), F(3, 4)), "T5iv"),
    ((1, 2, F(1, 2)), "T6"),
    ((1, 2, F(3, 2)), "T7i"),
    ((1, F(3, 2), 2), "T7ii"),
    ((2, 3, 1), "UNSUPPORTED"),
    ((2, 2, 2), "UNSUPPORTED"),
    ((1, F(1, 2), 2), "UNSUPPORTED"),
    (("inf", 1, 1), "UNSUPPORTED"),
]


@pytest.mark.parametrize("pqr,tag", DISPATCH_CASES)
def test_classify_regime(pqr, tag):
    p, q, r = pqr
    assert classify_regime(p, q, r) == tag


def test_classification_total_and_exclusive():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = F(int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        q = F(int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        r = F(int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        tag = classify_regime(p, q, r)
        assert tag in REGIME_TAGS


def _t6_problem(f=expfam(1, 2, 1), u=ONE):
    return ThreeWeightProblem(r=F(1, 2), u=u, p=1, q=2, w=EDEC,
                              v=ONE, f=f)


def test_t6_closed_form():
    res = characterize(_t6_problem())
    assert res.regime == "T6"
    assert res.value == pytest.approx(1 / math.sqrt(2), rel=1e-6)
    assert res.value == sum(v for _, v in res.terms)


@pytest.mark.xfail(strict=True, reason="the tail of e^-t underflows in log(gammaincc), "
                   "so op_A_star(w, 2, 2) reads 0 from t ~ 355 on (ROADMAP known defects)")
@pytest.mark.parametrize("S", [10.0, 20.0, 30.0])
def test_t6_sup_term_of_an_unbounded_product_is_inf(S):
    # f = t^3 e^t: f * omega = t / sqrt(2) is unbounded
    res = characterize(_t6_problem(f=expfam(1, 3, 1)), QuadratureConfig(S=S))
    assert res.value == math.inf


def test_unsupported_regime_raises():
    prob = ThreeWeightProblem(r=1, u=ONE, p=2, q=3, w=EDEC, v=ONE,
                              f=ONE)
    with pytest.raises(UnsupportedRegime):
        characterize(prob)


def test_gate_violation_raises():
    # w = 1 has infinite tail norms, failing the Omega_2 gate
    prob = ThreeWeightProblem(r=F(1, 2), u=ONE, p=1, q=2, w=ONE,
                              v=ONE, f=ONE)
    with pytest.raises(SpecInvalid):
        characterize(prob)


def test_a_weight_that_is_no_function_is_invalid():
    with pytest.raises(SpecInvalid, match="u must be a RealFun"):
        characterize(ThreeWeightProblem(r=1, u=1.0, p=1, q=2, w=ONE, v=ONE, f=ONE))


def test_zero_multiplier_everywhere():
    regimes = [
        dict(r=1, u=ONE, p=F(1, 2), q=F(1, 2), w=EDEC, v=ONE),
        dict(r=2, u=EDEC, p=F(1, 2), q=F(1, 2), w=EDEC, v=ONE),
        dict(r=F(1, 2), u=ONE, p=1, q=2, w=EDEC, v=ONE),
        dict(r=2, u=EDEC, p=1, q=F(3, 2), w=EDEC, v=ONE),
    ]
    for kw in regimes:
        assert characterize(ThreeWeightProblem(f=ZERO, **kw)).value == 0.0


def test_homogeneity_in_f():
    base = characterize(_t6_problem())
    scaled = characterize(_t6_problem(f=product(power(4.0, 0.0),
                                                expfam(1, 2, 1))))
    assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-12)


def test_u_scaling_inverse_in_t6():
    base = characterize(_t6_problem())
    scaled = characterize(_t6_problem(u=power(3.0, 0.0)))
    assert scaled.value == pytest.approx(base.value / 3.0, rel=1e-9)


def test_extra_term_vanishes_for_nonintegrable_u():
    # ||u||_r = inf -> the coefficient 1/||u||_r is 0 by convention
    prob = ThreeWeightProblem(r=2, u=ONE, p=F(1, 2), q=F(1, 2), w=EDEC,
                              v=ONE, f=expfam(1, 2, -1))
    res = characterize(prob)
    assert res.regime == "T3ii"
    extras = [v for n, v in res.terms if n.startswith("extra")]
    assert extras == [0.0]


def test_extra_term_active_for_integrable_u():
    prob = ThreeWeightProblem(r=2, u=EDEC, p=F(1, 2), q=F(1, 2), w=EDEC,
                              v=ONE, f=expfam(1, 2, -1))
    res = characterize(prob)
    extras = [v for n, v in res.terms if n.startswith("extra")]
    assert extras[0] > 0.0


def test_hypothesis_check_t4_power_weights_clean():
    prob = ThreeWeightProblem(r=F(1, 3), u=ONE, p=F(1, 2), q=2, w=EDEC,
                              v=power(1, 2.5), f=ONE)
    assert hypothesis_check(prob) == []


def test_hypothesis_check_flags_degenerate_phi():
    # u with finite r-norm freezes phi1 at large x: degenerate
    prob = ThreeWeightProblem(r=F(1, 3), u=EDEC, p=F(1, 2), q=2, w=EDEC,
                              v=ONE, f=ONE)
    notes = hypothesis_check(prob)
    assert any("phi1" in n for n in notes)


_FAIL4 = ("fail", "fail", "fail", "fail")
PHI_CASES = {  # tag -> ((r, p, q), {u: statuses of the flagged phi check, or None})
    "T4i": ((F(1, 3), F(1, 2), 2), {"exp": ("fail", "fail", "pass", "pass"),
                                    "sqrt": ("fail", "fail", "pass", "pass"),
                                    "one": ("fail", "fail", "pass", "pass")}),
    "T5i": ((2, F(1, 2), 3), {"exp": ("pass", "fail", "pass", "pass"),
                              "sqrt": _FAIL4, "one": None}),
    "T5ii": ((2, F(1, 2), F(3, 2)), {"exp": ("pass", "fail", "pass", "pass"),
                                     "sqrt": _FAIL4, "one": None}),
    "T5iii": ((F(2, 3), F(1, 2), F(3, 4)), {"exp": _FAIL4, "sqrt": _FAIL4, "one": _FAIL4}),
    "T5iv": ((F(3, 4), F(1, 2), F(3, 5)), {"exp": _FAIL4,
                                           "sqrt": ("fail", "pass", "pass", "pass"),
                                           "one": _FAIL4}),
}
PHI_US = {"exp": EDEC, "sqrt": power(1, -0.5), "one": ONE}


@pytest.mark.parametrize("tag,u", [(tag, u) for tag in PHI_CASES for u in PHI_US])
def test_hypothesis_check_phi_notes(tag, u):
    (r, p, q), expected = PHI_CASES[tag]
    assert classify_regime(p, q, r) == tag
    prob = ThreeWeightProblem(r=r, u=PHI_US[u], p=p, q=q, w=EDEC, v=ONE, f=ONE,
                              validate=False)
    statuses = expected[u]
    which = "phi1" if tag.startswith("T4") else "phi2"
    assert hypothesis_check(prob) == (
        [] if statuses is None else [f"{which} degenerate or inconclusive: {statuses}"])


_PHI_INSTANCES = [case for case in REGIME_INSTANCES if case[0][:2] in ("T4", "T5")]


@pytest.mark.parametrize("tag,kw,f", _PHI_INSTANCES, ids=[tag for tag, _, _ in _PHI_INSTANCES])
def test_phi_matches_the_full_width_rows(tag, kw, f, monkeypatch):
    # phi at the points is_nondegenerate reads, against every kernel row
    # reduced on the whole window
    prob = ThreeWeightProblem(f=f, **kw)
    V = big_V(prob.v, prob.p, DEFAULT_CFG)
    prepared = []

    class Capturing(grids.SupportColumns):
        __slots__ = ()

        def __init__(self, *args):
            prepared.append(args)
            super().__init__(*args)
    monkeypatch.setattr(grids, "SupportColumns", Capturing)
    phi = _phi(tag, prob, V, DEFAULT_CFG)
    ks = np.arange(40 - operators._LIMIT_SPAN, 41, dtype=float)
    x = np.concatenate([2.0 ** -ks, 2.0 ** ks])
    assert x.size == 22 and len(prepared) == 1
    lf, g, e = prepared[0]
    lV = V.logv(g.t)
    want = np.array([full_width_reduce(grids.log_kernel(lx, lV), lf, g, e)
                     for lx in V.logv(x)]) / (1.0 if e is None else e)
    assert phi.logv(x).tobytes() == want.tobytes()


def test_hypothesis_check_classifies_the_problem():
    # (r, p, q) = (3/4, 1/2, 2/3) is T5iv, so its phi2 checks run
    prob = ThreeWeightProblem(r=F(3, 4), u=power(1, -0.5), p=F(1, 2), q=F(2, 3),
                              w=EDEC, v=ONE, f=ONE, validate=False)
    assert classify_regime(prob.p, prob.q, prob.r) == "T5iv"
    assert hypothesis_check(prob) == [
        "phi2 degenerate or inconclusive: ('fail', 'pass', 'pass', 'pass')"]
    # a triple with no closed form has no regime hypotheses to check
    prob = ThreeWeightProblem(r=1, u=ONE, p=2, q=3, w=EDEC, v=ONE, f=ONE,
                              validate=False)
    assert classify_regime(prob.p, prob.q, prob.r) == "UNSUPPORTED"
    assert hypothesis_check(prob) == []


def test_hypothesis_check_t7_gates():
    # w = t^-2 chi + ... simpler: power weight fails the q'-integrability
    # of 1/w near zero when w blows up too slowly? use discontinuous v
    from cescop.realfun import funsum, indicator, product as prod
    v = funsum(indicator(0, 1), prod(power(2, 0), indicator(1, math.inf)))
    prob = ThreeWeightProblem(r=F(3, 2), u=EDEC, p=1, q=2, w=EDEC,
                              v=v, f=ONE)
    notes = hypothesis_check(prob)
    assert any("discontinuous" in n for n in notes)


def test_reduce_problem_identity_at_p1_one():
    prob, outer = reduce_problem(1, 2, F(1, 2), 1, ONE, ONE, EDEC,
                                 ONE, EDEC, validate=False)
    assert outer == 1.0
    assert prob.r == Exponent(2)
    assert prob.p == Exponent(F(1, 2))
    assert prob.q == Exponent(1)


def test_reduce_problem_substitution():
    prob, outer = reduce_problem(2, 4, 1, 2, ONE, ONE, EDEC, ONE,
                                 EDEC, validate=False)
    assert outer == 0.5
    assert prob.r == Exponent(2)
    assert prob.p == Exponent(F(1, 2))
    assert prob.q == Exponent(1)
    # u2^p1 = e^-2t
    t = np.array([1.0, 2.0])
    np.testing.assert_allclose(prob.w.logv(t), -2.0 * t, atol=1e-12)


def test_reduce_rejects_infinite_exponents():
    with pytest.raises(SpecInvalid):
        reduce_problem("inf", 1, 1, 1, ONE, ONE, EDEC, ONE, ONE)


def test_interpretive_warnings_present():
    prob = ThreeWeightProblem(r=2, u=EDEC, p=F(1, 2), q=F(1, 2), w=EDEC,
                              v=ONE, f=expfam(1, 2, -1))
    res = characterize(prob)
    assert any("||u||_r^-1" in w for w in res.warnings)


def test_terms_and_omegas_reported():
    res = characterize(_t6_problem())
    assert [n for n, _ in res.omegas] == ["omega"]
    assert "A_{r,r}(u)" in dict(res.omegas)["omega"]


def test_t7_table_v_is_not_flagged_discontinuous():
    # a table is log-linear between samples and flat outside: continuous
    with pytest.warns(UserWarning):
        v = table([-2.0, 0.0, 2.0], [1.0, 2.0, 1.5])
    prob = ThreeWeightProblem(r=F(3, 2), u=EDEC, p=1, q=2, w=EDEC,
                              v=v, f=ONE)
    notes = hypothesis_check(prob)
    assert not any("discontinuous" in n for n in notes)


@pytest.mark.parametrize("pqr", [(1, 2, F(3, 2)), (1, F(3, 2), 2)])  # T7i, T7ii
def test_t7_divergent_w_tail_names_w(pqr):
    p, q, r = pqr
    prob = ThreeWeightProblem(r=r, u=EDEC, p=p, q=q, w=power(1, 5),
                              v=ONE, f=ONE, validate=False)
    with pytest.raises(DegenerateOperator,
                       match=r"tail integral of \(power\(c=1, alpha=5\)\)"):
        characterize(prob)


_ONE_TO_THREE = ["omega1", "omega2", "omega3"]
_T5_TERMS = ["ces3_a", "ces3_b", "extra_ces"]
REGIME_NAMES = {  # tag -> (term names, omega names), in report order
    "T1": (["lp"], ["omega"]),
    "T2i": (["ces"], ["omega2", "omega1"]),
    "T2ii": (["ces"], ["omega2", "omega1"]),
    "T3i": (["ces"], ["omega2", "omega1"]),
    "T3ii": (["ces", "extra_lp"], ["omega2", "omega1"]),
    "T4i": (["ces_sup"], ["omega1"]),
    "T4ii": (["ces_sup", "ces3"], _ONE_TO_THREE),
    "T5i": (["ces3", "ces_sup", "extra_ces"], _ONE_TO_THREE),
    "T5ii": (_T5_TERMS, _ONE_TO_THREE + ["omega4"]),
    "T5iii": (_T5_TERMS, _ONE_TO_THREE + ["omega4"]),
    "T5iv": (_T5_TERMS, _ONE_TO_THREE + ["omega4"]),
    "T6": (["sup"], ["omega"]),
    "T7i": (["ces3", "sup", "extra_sup"], _ONE_TO_THREE + ["omega4"]),
    "T7ii": (["ces3_a", "ces3_b", "extra_sup"], _ONE_TO_THREE + ["omega4", "omega5"]),
}


@pytest.mark.parametrize("tag,kw,f", REGIME_INSTANCES,
                         ids=[tag for tag, _, _ in REGIME_INSTANCES])
def test_regime_term_and_omega_names(tag, kw, f):
    res = characterize(ThreeWeightProblem(f=f, **kw))
    assert res.regime == tag
    terms, omegas = REGIME_NAMES[tag]
    assert [n for n, _ in res.terms] == terms
    assert [n for n, _ in res.omegas] == omegas
    assert REGIME_TAGS == tuple(REGIME_NAMES) + ("UNSUPPORTED",)


def test_characterize_builds_each_transform_once(monkeypatch):
    import cescop.multiplier as mult
    builds, kept = [], []

    def counting(name, op):
        def wrapped(g, *args, **kwargs):
            kept.append(g)  # keeps ids unique while the call runs
            builds.append((name, id(g), tuple(float(a) for a in args[:2])))
            return op(g, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(mult, "op_A", counting("A", mult.op_A))
    monkeypatch.setattr(mult, "op_A_star", counting("A*", mult.op_A_star))
    dups = {}
    for tag, kw, f in REGIME_INSTANCES:
        builds.clear()
        characterize(ThreeWeightProblem(f=f, **kw))
        assert builds
        if len(set(builds)) != len(builds):
            dups[tag] = len(builds) - len(set(builds))
    assert dups == {}
