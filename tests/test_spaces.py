"""Two- and three-parameter Cesaro/Copson quasi-norms."""

import math

import pytest

from cescop.errors import SpecInvalid
from cescop.realfun import ONE, ZERO, expfam, indicator, power, powerof, product
from cescop.spaces import SpaceSpec, check_omega, space_norm, space_norm3

EDEC = expfam(1.0, 0.0, -1.0)


def test_check_omega_tail_class():
    assert check_omega(EDEC, 1).ok                 # finite positive tails
    assert not check_omega(power(1, 0), 1).ok      # tails diverge
    assert not check_omega(power(1, -3), 1, dual=True).ok  # heads diverge


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
