"""Function families, quadrature, and norms on (0, inf)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cescop.errors import NumericOverflow
from cescop.realfun import (
    FULL,
    Interval,
    ONE,
    QuadratureConfig,
    Weight,
    ZERO,
    constant,
    esssup,
    expfam,
    from_log_callable,
    funsum,
    indicator,
    integrate,
    lp_norm,
    power,
    powerlog,
    powerof,
    primitive_at,
    product,
    table,
    tail_at,
)


def test_power_evaluation():
    f = power(2.0, -0.5)
    t = np.array([0.25, 1.0, 4.0])
    np.testing.assert_allclose(np.exp(f.logv(t)), 2.0 * t ** -0.5)


def test_constant_zero_is_zero_function():
    assert constant(0.0) is ZERO
    assert integrate(ZERO) == 0.0
    assert esssup(ZERO) == 0.0


def test_indicator_half_open_tiling():
    left = indicator(0.5, 1.0)
    right = indicator(1.0, 2.0)
    t = np.array([1.0])
    # adjacent pieces tile: exactly one of them covers the breakpoint
    assert np.isneginf(left.logv(t))[0]
    assert right.logv(t)[0] == 0.0
    assert integrate(funsum(left, right)) == pytest.approx(1.5, rel=1e-9)


def test_integrate_gamma():
    assert integrate(expfam(1, 3, -1)) == pytest.approx(6.0, rel=1e-9)


def test_primitive_and_tail():
    g = expfam(1, 0, -1)
    assert primitive_at(g, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-8)
    assert tail_at(g, 1.0) == pytest.approx(math.exp(-1), rel=1e-8)


def test_esssup_interior_max():
    f = expfam(1, 2, -1)  # t^2 e^-t peaks at t = 2
    assert esssup(f) == pytest.approx(4 * math.exp(-2), rel=1e-6)


def test_lp_norm_weighted():
    # ||e^-t||_{2, (0,inf)} = 1/sqrt(2)
    assert lp_norm(expfam(1, 0, -1), ONE, FULL, 2) == pytest.approx(
        1 / math.sqrt(2), rel=1e-8)
    # sup norm with weight
    assert lp_norm(ONE, Weight(expfam(1, 0, -1)), FULL, "inf") == pytest.approx(
        1.0, rel=1e-6)


def test_lp_norm_quasi_p_below_one():
    # ||e^-t||_{1/2} = (int e^{-t/2})^2 = 4
    assert lp_norm(expfam(1, 0, -1), ONE, FULL, 0.5) == pytest.approx(4.0, rel=1e-8)


def test_divergent_integral_is_inf():
    assert integrate(power(1, -1)) == math.inf
    assert integrate(ONE) == math.inf


def test_powerof_product_algebra():
    f = powerof(expfam(1, 1, -1), 2.0)
    g = product(expfam(1, 1, -1), expfam(1, 1, -1))
    t = np.logspace(-3, 3, 50)
    np.testing.assert_allclose(f.logv(t), g.logv(t), atol=1e-12)


def test_table_interpolation():
    with pytest.warns(UserWarning):
        f = table(np.log([1.0, 10.0]), [1.0, 2.0])
    mid = math.sqrt(10.0)
    val = float(np.exp(f.logv(np.array([mid]))[0]))
    assert 1.0 < val < 2.0


def test_powerlog_positive():
    f = powerlog(1.0, 0.0, 2.0)
    # the log factor is centered: value 1 at t = 1, grows both ways
    assert np.exp(f.logv(np.array([1.0])))[0] == pytest.approx(1.0, rel=1e-12)
    assert np.exp(f.logv(np.array([math.e])))[0] > 1.0


def test_from_log_callable():
    f = from_log_callable(lambda t: -t)
    assert integrate(f) == pytest.approx(1.0, rel=1e-6)


def test_esssup_overflow_is_a_package_error():
    with pytest.raises(NumericOverflow):
        esssup(expfam(1, 0, 1), Interval(0, 800))


@pytest.mark.parametrize("g,I", [
    (power(1, 1), Interval(0, 1e160)),            # primitive (1e160)^2 / 2
    (power(1, -3), Interval(1e-200, math.inf)),   # tail (1e-200)^-2 / 2
])
def test_analytic_integral_overflow_is_a_package_error(g, I):
    # finite integrals beyond the float range raise instead of reading inf
    with pytest.raises(NumericOverflow):
        integrate(g, I)


def test_quad_integral_overflow_is_a_package_error():
    # e^t has no primitive hint, so this takes the quadrature path
    assert integrate(expfam(1, 0, 1), Interval(0, 700)) == 1.0142320547343756e+304
    with pytest.raises(NumericOverflow):
        integrate(expfam(1, 0, 1), Interval(0, 800))


def test_weight_rejects_vanishing():
    with pytest.raises(ValueError):
        Weight(indicator(0, 1))
    Weight(indicator(0, 1), check=False)  # explicit opt-out works


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(S=-1)
    q = QuadratureConfig.quick()
    assert q.S < QuadratureConfig().S


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_integral_scaling_property(c, lam):
    # int c e^{-lam t} = c / lam
    got = integrate(expfam(c, 0.0, -lam))
    assert got == pytest.approx(c / lam, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0))
def test_lp_norm_homogeneity(c):
    f = expfam(1, 1, -1)
    base = lp_norm(f, ONE, FULL, 2)
    scaled = lp_norm(product(constant(c), f), ONE, FULL, 2)
    assert scaled == pytest.approx(c * base, rel=1e-10)


def test_product_of_disjoint_sums_is_zero():
    f = product(funsum(indicator(0, 1), indicator(0.5, 0.8)),
                funsum(indicator(2, 3), indicator(2.5, 4)))
    assert f is ZERO
    assert integrate(f) == 0.0


def test_restriction_interval():
    g = power(1, 0)
    assert integrate(g, Interval(1.0, 3.0)) == pytest.approx(2.0, rel=1e-9)
