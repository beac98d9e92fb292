"""Two- and three-parameter Cesaro/Copson quasi-norms."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cescop import grids
from cescop.cli import _problem_from_config
from cescop.errors import SpecInvalid
from cescop.exponents import Exponent
from cescop.grids import from_log
from cescop.oracle import default_family
from cescop.realfun import (ONE, ZERO, QuadratureConfig, expfam, funsum, indicator, power,
                             powerof, product)
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


def test_check_omega_dual_class():
    assert check_omega(ONE, 1, dual=True).ok
    assert check_omega(EDEC, 2, dual=True).ok


def test_check_omega_underflow_resistant():
    # e^-t tail norms underflow linear arithmetic near t = 10^3 but the
    # weight still belongs to the class
    assert check_omega(EDEC, 1).ok


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        SpaceSpec("bogus", (1, 2), (ONE, ONE))
    with pytest.raises(SpecInvalid):
        SpaceSpec("ces", (1,), (ONE,))
    spec = SpaceSpec("ces", (1, 1), (power(1, 0), ONE))
    with pytest.raises(SpecInvalid):
        space_norm(spec, EDEC)  # outer weight fails the Omega gate


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
            None if screened is None else tuple(float(x).hex() for x in screened))


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


def test_a_plan_runs_the_gate_once_when_built():
    with pytest.raises(SpecInvalid):
        _Plan(SpaceSpec("ces", (1, 1), (power(1, 0), ONE)))
    plan = _Plan(SpaceSpec("ces", (1, 1), (EDEC, ONE)))
    assert not plan.spec.validate


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


def _full_width_log_norm(plan, f):
    """plan.log_norm(f) with every level at full width: f·v read on the
    whole window, cumulated from its open end, the outer integral over
    every node."""
    g = plan.grid
    lv = product(f, plan.v).logv(g.t)
    if np.all(np.isneginf(lv)) and math.isfinite(plan.inner[0]):
        return -math.inf
    for e, lw in zip(plan.inner, plan.lws):
        lv = grids.log_mul(grids.log_cumnorm(lv, g, e, plan.head), lw)
    if math.isinf(plan.q):
        return grids.log_sup(lv, g)
    return float(grids.log_integral(plan.q * lv + g.s, g)) / plan.q


@pytest.mark.parametrize("kind, exps", [
    ("ces", (1, 2)), ("cop", (1, "1/2")), ("ces", (2, 1, 3)), ("cop", ("1/2", 2, 1)),
    ("ces", (1, "inf")), ("cop", ("inf", 2)), ("ces", (2, "inf", 1)), ("cop", (1, 1, "inf")),
])
def test_log_norm_on_the_span_reads_the_full_window_bit_for_bit(kind, exps):
    # the inner levels start one node before the span of f·v, on the side
    # where it is -inf, and the outer integral lays its zero terms out at
    # full width: logaddexp(-inf, x) is x, so nothing moves
    weights = (EDEC, power(1, 0.5), expfam(2.0, -0.5, -0.1))[-len(exps):]
    plan = _Plan(SpaceSpec(kind, exps, weights, validate=False))
    t = plan.grid.t
    fs = [indicator(0.5, 4.0), indicator(float(t[10]), float(t[20])),
          indicator(float(t[1]), float(t[-2])), indicator(1e-20, 1e-16),
          indicator(1e16, 1e20), indicator(1e-14, 1e-12), indicator(5e12, 1e14),
          indicator(float(t[3000]) * 1.001, float(t[3000]) * 1.002),
          indicator(0.0, 3.0), indicator(3.0, math.inf), expfam(1.0, 1.0, -1.0),
          product(power(1.0, -1.5), indicator(1e-3, 1e3)), ZERO,
          funsum(indicator(1e-3, 1e-1), product(power(2.0, 0), indicator(1e1, 1e3)))]
    for f in fs:
        assert plan.log_norm(f).hex() == _full_width_log_norm(plan, f).hex(), f.describe()
