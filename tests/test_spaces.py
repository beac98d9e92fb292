"""Two- and three-parameter Cesaro/Copson quasi-norms."""

import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from cescop import spaces
from cescop.cli import _problem_from_config
from cescop.errors import SpecInvalid
from cescop.exponents import Exponent
from cescop.grids import from_log
from cescop.oracle import default_family
from cescop.realfun import (ONE, ZERO, QuadratureConfig, expfam, from_log_callable, indicator,
                             power, powerof, product, table)
from cescop.spaces import SpaceSpec, _Plan, check_omega, space_norm, space_norm3

EDEC = expfam(1.0, 0.0, -1.0)


def test_check_omega_tail_class():
    assert check_omega(EDEC, 1).ok                 # finite positive tails
    assert not check_omega(power(1, 0), 1).ok      # tails diverge
    assert not check_omega(power(1, -3), 1, dual=True).ok  # heads diverge


def test_check_omega_samples_t_1_in_a_window_below_a_decade():
    # at S < ln 10 the window holds no whole decade; t = 1 is still
    # sampled, where the tail of indicator(0, 1) vanishes
    rep = check_omega(indicator(0, 1), 1, cfg=QuadratureConfig(S=2.0))
    assert not rep.ok and rep.failures == ((1.0, 0.0),)
    assert not check_omega(indicator(0, 1), 1, cfg=QuadratureConfig(S=30.0)).ok


def test_check_omega_at_q_inf_reads_esssups():
    # q = inf: the tail norm at t is the esssup of u over (t, inf), the
    # head norm the one over (0, t)
    assert check_omega(EDEC, "inf").ok and check_omega(ONE, math.inf, dual=True).ok
    rep = check_omega(indicator(0, 1), "inf")
    assert not rep.ok and rep.failures == tuple((10.0 ** k, 0.0) for k in (0, 3, 6, 9, 12))
    rep = check_omega(power(1, -1), "inf", dual=True)
    assert not rep.ok and all(value == math.inf for _, value in rep.failures)
    assert len(rep.failures) == 9


def test_check_omega_dual_class():
    assert check_omega(ONE, 1, dual=True).ok
    assert check_omega(EDEC, 2, dual=True).ok


def test_check_omega_underflow_resistant():
    # e^-t tail norms underflow linear arithmetic near t = 10^3 but the
    # weight still belongs to the class
    assert check_omega(EDEC, 1).ok


with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # a table warns that it is flat beyond its points
    _TABLE = table([-2.0, 0.0, 3.0], [1.0, 5.0, 0.5])

PANEL_WEIGHTS = {
    "t^-3": power(1, -3), "t^-1": power(1, -1), "1": power(1, 0), "t^2": power(1, 2),
    "e^-t": EDEC, "t^2 e^-3t": expfam(1, 2, -3), "1(0,1)": indicator(0, 1),
    "1(1e-3,1e3)": indicator(1e-3, 1e3), "table": _TABLE,
    "(1+t)^-2": from_log_callable(lambda t: -2.0 * np.log1p(t), label="(1+t)^-2"),
}
PANEL_S = (2.0, 10.0, 30.0)
ALL = "every sample"  # 1 at S = 2, 10^-3 ... 10^3 at S = 10, 10^-12, 10^-9 ... 10^12 at S = 30
SAMPLES = {2.0: (1.0,), 10.0: tuple(10.0 ** k for k in range(-3, 4)),
           30.0: tuple(10.0 ** k for k in range(-12, 13, 3))}

# the failing samples of check_omega(weight, q, dual) at S = 2, 10 and 30
# as a log grid on each sampled interval read them; every case not listed
# fails at none
GRID_FAILURES = {
    ("t^-3", F(1, 2), True): (ALL, ALL, ALL),
    ("t^-3", 1, True): (ALL, ALL, ALL),
    ("t^-3", 2, True): (ALL, ALL, ALL),
    ("t^-3", "inf", True): (ALL, ALL, ALL),
    ("t^-1", F(1, 2), False): (ALL, ALL, ALL),
    ("t^-1", 1, False): (ALL, ALL, ALL),
    ("t^-1", 1, True): (ALL, ALL, ALL),
    ("t^-1", 2, True): (ALL, ALL, ALL),
    ("t^-1", "inf", True): (ALL, ALL, ALL),
    ("1", F(1, 2), False): (ALL, ALL, ALL),
    ("1", 1, False): (ALL, ALL, ALL),
    ("1", 2, False): (ALL, ALL, ALL),
    ("t^2", F(1, 2), False): (ALL, ALL, ALL),
    ("t^2", 1, False): (ALL, ALL, ALL),
    ("t^2", 2, False): (ALL, ALL, ALL),
    ("t^2", "inf", False): (ALL, ALL, ALL),
    ("e^-t", "inf", True): (ALL, ALL, ()),
    ("1(0,1)", F(1, 2), False): (ALL, (1, 10, 100, 1e3), (1, 1e3, 1e6, 1e9, 1e12)),
    ("1(0,1)", 1, False): (ALL, (1, 10, 100, 1e3), (1, 1e3, 1e6, 1e9, 1e12)),
    ("1(0,1)", 2, False): (ALL, (1, 10, 100, 1e3), (1, 1e3, 1e6, 1e9, 1e12)),
    ("1(0,1)", "inf", False): (ALL, (1, 10, 100, 1e3), (1, 1e3, 1e6, 1e9, 1e12)),
    ("1(1e-3,1e3)", F(1, 2), False): (ALL, (), (1e6, 1e9, 1e12)),
    ("1(1e-3,1e3)", F(1, 2), True): ((), (), (1e-12, 1e-9, 1e-6)),
    ("1(1e-3,1e3)", 1, False): (ALL, (), (1e6, 1e9, 1e12)),
    ("1(1e-3,1e3)", 1, True): ((), (), (1e-12, 1e-9, 1e-6)),
    ("1(1e-3,1e3)", 2, False): (ALL, (), (1e6, 1e9, 1e12)),
    ("1(1e-3,1e3)", 2, True): ((), (), (1e-12, 1e-9, 1e-6)),
    ("1(1e-3,1e3)", "inf", False): ((), (1e3,), (1e3, 1e6, 1e9, 1e12)),
    ("1(1e-3,1e3)", "inf", True): ((), (1e-3,), (1e-12, 1e-9, 1e-6, 1e-3)),
    ("table", F(1, 2), False): (ALL, ALL, ALL),
    ("table", 1, False): (ALL, ALL, ALL),
    ("table", 2, False): ((), ALL, ALL),
    ("(1+t)^-2", F(1, 2), False): (ALL, ALL, ALL),
    ("(1+t)^-2", 2, True): (ALL, (), ()),
    ("(1+t)^-2", "inf", True): (ALL, ALL, ()),
}

# where the window table decides otherwise, (weight, q, dual, S): failures
TABLE_FAILURES = {
    # the edges 1e-3 and 1e3 lie on samples.  The table reads 0 across the
    # panel that holds an edge, as esssup reads at q = inf and as the exact
    # norm is; the grid on (1e3, inf) or (0, 1e-3) put its end node, e^(ln t),
    # a rounding inside the support.
    ("1(1e-3,1e3)", F(1, 2), False, 10.0): (1e3,),
    ("1(1e-3,1e3)", F(1, 2), False, 30.0): (1e3, 1e6, 1e9, 1e12),
    ("1(1e-3,1e3)", F(1, 2), True, 10.0): (1e-3,),
    ("1(1e-3,1e3)", F(1, 2), True, 30.0): (1e-12, 1e-9, 1e-6, 1e-3),
    ("1(1e-3,1e3)", 1, False, 10.0): (1e3,),
    ("1(1e-3,1e3)", 1, False, 30.0): (1e3, 1e6, 1e9, 1e12),
    ("1(1e-3,1e3)", 1, True, 10.0): (1e-3,),
    ("1(1e-3,1e3)", 1, True, 30.0): (1e-12, 1e-9, 1e-6, 1e-3),
    ("1(1e-3,1e3)", 2, False, 10.0): (1e3,),
    ("1(1e-3,1e3)", 2, False, 30.0): (1e3, 1e6, 1e9, 1e12),
    ("1(1e-3,1e3)", 2, True, 10.0): (1e-3,),
    ("1(1e-3,1e3)", 2, True, 30.0): (1e-12, 1e-9, 1e-6, 1e-3),
    # at S < ln 10 the one sample t = 1 lies in the window's first decade,
    # over which the table fits its head estimate; there e^-2t already
    # decays in s, so the head reads as divergent.  The grid on (0, 1)
    # fitted over (e^-2, 1) only.
    ("e^-t", 2, True, 2.0): ALL,
}


@pytest.mark.parametrize("S", PANEL_S)
@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("q", [F(1, 2), 1, 2, "inf"])
@pytest.mark.parametrize("name", PANEL_WEIGHTS)
def test_check_omega_over_a_fixed_panel(name, q, dual, S):
    grid = GRID_FAILURES.get((name, q, dual), ((), (), ()))[PANEL_S.index(S)]
    want = TABLE_FAILURES.get((name, q, dual, S), grid)
    want = SAMPLES[S] if want == ALL else tuple(map(float, want))
    rep = check_omega(PANEL_WEIGHTS[name], q, dual, QuadratureConfig(S=S))
    assert rep.ok == (not want)
    assert tuple(t for t, _ in rep.failures) == want


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        SpaceSpec("bogus", (1, 2), (ONE, ONE))
    with pytest.raises(SpecInvalid):
        SpaceSpec("ces", (1,), (ONE,))
    spec = SpaceSpec("ces", (1, 1), (power(1, 0), ONE))
    with pytest.raises(SpecInvalid):
        space_norm(spec, EDEC)  # outer weight fails the Omega gate


def test_a_weight_that_is_no_function_is_invalid():
    with pytest.raises(SpecInvalid, match="weight 0 must be a RealFun"):
        space_norm(SpaceSpec("ces", (1, 1), (1.0, 2.0)), ONE)


def test_ces_fubini_closed_form():
    # ces_{1,1}(e^-t, 1) of e^-t: int_0^inf e^-t int_0^t e^-s ds dt
    # = int e^-t (1 - e^-t) = 1/2
    spec = SpaceSpec("ces", (1, 1), (EDEC, ONE), validate=False)
    assert space_norm(spec, EDEC) == pytest.approx(0.5, rel=1e-6)


def test_cop_closed_form():
    # cop_{1,1}(e^-t, 1) of e^-t: int e^-t int_t^inf e^-s ds dt = 1/2
    spec = SpaceSpec("cop", (1, 1), (EDEC, ONE), validate=False)
    assert space_norm(spec, EDEC) == pytest.approx(0.5, rel=1e-6)


def test_ces_inner_sup():
    # inner sup norm: sup_(0,t) e^-s = 1, outer 1-norm in e^-t -> 1
    spec = SpaceSpec("ces", ("inf", 1), (EDEC, ONE), validate=False)
    assert space_norm(spec, EDEC) == pytest.approx(1.0, rel=1e-6)


def test_outer_sup():
    # sup_t e^-t int_0^t 1 ds = sup t e^-t = 1/e
    spec = SpaceSpec("ces", (1, "inf"), (EDEC, ONE), validate=False)
    assert space_norm(spec, ONE) == pytest.approx(1 / math.e, rel=1e-4)


def test_zero_function_norm_zero():
    spec2 = SpaceSpec("ces", (1, 2), (EDEC, ONE), validate=False)
    spec3 = SpaceSpec("ces", (1, 2, 1), (EDEC, ONE, ONE), validate=False)
    assert space_norm(spec2, ZERO) == 0.0
    assert space_norm(spec3, ZERO) == 0.0


def test_divergent_norm_is_inf():
    # f = 1 in ces_{1,1}(e^-t,1) has inner t, outer int t e^-t = 1 finite;
    # but with polynomial outer weight it diverges
    spec = SpaceSpec("ces", (1, 1), (power(1, -0.5), ONE), validate=False)
    assert space_norm(spec, ONE) == math.inf


def test_space_norm3_collapses_to_two_level():
    # middle exponent inf with unit middle weight turns the 3-level ces
    # into running sups of the inner norm; outer integral of a
    # non-decreasing running sup >= the two-level value
    f = expfam(1, 1, -1)
    spec3 = SpaceSpec("ces", (1, "inf", 1), (EDEC, ONE, ONE),
                      validate=False)
    spec2 = SpaceSpec("ces", (1, 1), (EDEC, ONE), validate=False)
    v3 = space_norm3(spec3, f)
    v2 = space_norm(spec2, f)
    assert v3 >= v2 * (1 - 1e-9)


def test_space_norm_takes_three_parameters():
    # one level loop serves both arities: an arity-3 spec reads the same
    # through space_norm as through space_norm3
    f = expfam(1, 1, -1)
    for kind, exps in (("ces", (1, 2, 1)), ("ces", (0.5, "inf", 2)),
                       ("cop", (2, 1, "inf")), ("ces", ("inf", 1, 1))):
        spec = SpaceSpec(kind, exps, (EDEC, power(1, 0.5), EDEC),
                         validate=False)
        v = space_norm(spec, f)
        assert 0.0 < v < math.inf
        assert v == space_norm3(spec, f)


def test_space_norm3_rejects_two_parameters():
    spec = SpaceSpec("ces", (1, 2), (EDEC, ONE), validate=False)
    with pytest.raises(SpecInvalid):
        space_norm3(spec, ONE)


def test_three_parameter_spec_is_gated():
    # the outermost weight against the outermost exponent, as for two
    # parameters: 1 is not in Omega_1 (its tails diverge), e^-t is
    f = expfam(1, 1, -1)
    with pytest.raises(SpecInvalid):
        space_norm(SpaceSpec("ces", (1, 1, 1), (ONE, ONE, ONE)), f)
    assert 0.0 < space_norm(SpaceSpec("ces", (1, 1, 1), (EDEC, ONE, ONE)), f) < math.inf


def test_power_zero_of_a_function_is_one():
    # x^0 = 1 also where the base vanishes: (1_{(0,1)})^0 * 1_{(0.5,4)}
    # is 1_{(0.5,4)}, not a NaN on (1, 4)
    spec = SpaceSpec("ces", (1, 1), (power(1, -2), ONE), validate=False)
    plain = indicator(0.5, 4)
    assert space_norm(spec, product(powerof(indicator(0, 1), 0), plain)) == \
        space_norm(spec, plain)


def test_norm_monotone_in_f():
    spec = SpaceSpec("ces", (0.5, 2), (EDEC, ONE), validate=False)
    small = space_norm(spec, expfam(1, 1, -1))
    big = space_norm(spec, expfam(2, 1, -1))
    assert big == pytest.approx(2 * small, rel=1e-9)
    assert small <= big


def test_weight_powers_consistency():
    # scaling the inner weight by c scales a (1, q) ces norm linearly
    c = 3.0
    spec1 = SpaceSpec("ces", (1, 2), (EDEC, ONE), validate=False)
    specc = SpaceSpec("ces", (1, 2), (EDEC, power(c, 0)), validate=False)
    f = expfam(1, 1, -1)
    assert space_norm(specc, f) == pytest.approx(c * space_norm(spec1, f),
                                                 rel=1e-9)


def test_describe_roundtrip():
    spec = SpaceSpec("ces", (1, "inf"), (EDEC, ONE), validate=False)
    s = spec.describe()
    assert s.startswith("ces_") and "inf" in s


def _bits(plan, f):
    """plan's log_norm and screen of f, as exact float text."""
    screened = plan.screen(f)
    return (float(plan.log_norm(f)).hex(),
            None if screened is None else float(screened).hex())


def test_a_reused_plan_reads_each_f_as_a_fresh_one():
    # the crossval spaces of T3ii and its family, in two orders: a plan
    # holds its weights' log-values across calls, and no call may write
    # to them
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "T3ii.json"
    prob, cfg, _ = _problem_from_config(json.loads(config.read_text()))
    X = SpaceSpec("cop", (Exponent(1), prob.r), (prob.u, ONE), validate=False)
    Y = SpaceSpec("ces", (prob.p, prob.q), (prob.w, prob.v), validate=False)
    gs = [cand.build() for cand in default_family(seed=101, size=60).candidates]
    pairs = [(X, g) for g in gs] + [(Y, product(prob.f, g)) for g in gs]
    fresh = [_bits(_Plan(spec, cfg), f) for spec, f in pairs]
    assert sum(bits[1] is not None for bits in fresh) > len(pairs) // 2
    for order in (1, -1):
        plans = {X: _Plan(X, cfg), Y: _Plan(Y, cfg)}
        assert [_bits(plans[spec], f) for spec, f in pairs[::order]] == fresh[::order]


def test_a_plan_runs_the_gate_once_when_built(monkeypatch):
    # the gate runs when a spec's plan is built, once over repeated norms
    # with one cfg
    gates, check = [], spaces.check_omega
    monkeypatch.setattr(spaces, "check_omega",
                        lambda *args, **kwargs: gates.append(args) or check(*args, **kwargs))
    spec, f = SpaceSpec("ces", (1, 1), (EDEC, ONE)), indicator(0.5, 4)
    assert len({space_norm(spec, f) for _ in range(5)}) == 1
    assert len(gates) == 1
    space_norm(spec, f, QuadratureConfig(S=20.0))
    space_norm(spec, f, QuadratureConfig(S=20.0))
    assert len(gates) == 2
    # a spec that fails its gate keeps no plan and raises on every norm,
    # even once its equal twin with the gate off has planned
    bad = SpaceSpec("ces", (1, 1), (power(1, 0), ONE))
    twin = replace(bad, validate=False)
    assert twin == bad and hash(twin) == hash(bad)
    space_norm(twin, f)
    for _ in range(2):
        with pytest.raises(SpecInvalid):
            space_norm(bad, f)
    with pytest.raises(SpecInvalid):
        _Plan(bad)


@pytest.mark.parametrize("kind, exps", [
    ("ces", (1, 2, 1)), ("cop", (2, 1, "inf")), ("ces", ("inf", 1)),
    ("ces", (1, "inf")), ("cop", ("inf", 2)), ("cop", (0.5, "inf")),
])
def test_only_finite_two_parameter_plans_screen(kind, exps):
    weights = (EDEC, power(1, 0.5), EDEC)[-len(exps):]
    spec = SpaceSpec(kind, exps, weights, validate=False)
    plan = _Plan(spec)
    for f in (expfam(1, 1, -1), indicator(0.5, 4), ZERO):
        assert plan.screen(f) is None
        assert from_log(plan.log_norm(f)) == space_norm(spec, f)


# +inf below t = 1: an all-zero row meets it under the 0 * inf = 0 rule
INF_BELOW_ONE = from_log_callable(lambda t: np.where(t < 1.0, math.inf, -t), "inf below 1")


@pytest.mark.parametrize("kind", ["ces", "cop"])
@pytest.mark.parametrize("exps", [
    (1, 2), ("1/2", "inf"), ("inf", 1), ("inf", "inf"), (1, 2, 1), ("inf", "1/2", 2),
    (2, "inf", "inf"), (1, 1, "inf"), ("inf", "inf", "inf"),
])
@pytest.mark.parametrize("u", [EDEC, power(1, -2), INF_BELOW_ONE], ids=["edec", "t^-2", "inf<1"])
def test_zero_rows_read_minus_inf_through_the_full_window(kind, exps, u):
    # f·v reads -inf on every node of the window: each level and the
    # outer reduction keep it at -inf, exactly and with no warning
    spec = SpaceSpec(kind, exps, (u, power(1, 0.5), EDEC)[:len(exps)], validate=False)
    plan = _Plan(spec)
    for f in (ZERO, indicator(1e40, 1e50), indicator(1e-50, 1e-40)):
        assert plan.log_norm(f) == -math.inf, f.describe()
        assert space_norm(spec, f) == 0.0
