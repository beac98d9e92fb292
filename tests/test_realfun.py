"""Function families, quadrature, and norms on (0, inf)."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cescop import realfun
from cescop.errors import NumericOverflow, SpecInvalid
from cescop.exponents import Exponent
from cescop.multiplier import reduce_problem
from cescop.gluing import dyadic_cover
from cescop.operators import (
    FundamentalSpec,
    big_V,
    cal_V,
    head_integral_fun,
    is_admissible,
    is_nondegenerate,
    is_quasiconcave,
    kernel_A,
    op_A,
    op_A_star,
    running_sup_fun,
    stieltjes_density,
    stieltjes_tail_density,
    suffix_sup_fun,
    tail_integral_fun,
)
from cescop.realfun import (
    FULL,
    Interval,
    ONE,
    QuadratureConfig,
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
    weight,
)
from cescop.realfun import _Elementary, _Table
from cescop.spaces import check_omega


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


def test_indicator_has_one_normal_form():
    rng = np.random.default_rng(15)
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-3, 2))
        b = a * float(10.0 ** rng.uniform(0.01, 2))
        forms = [indicator(a, b), product(indicator(a, b)),
                 product(constant(1), indicator(a, b))]
        assert len({type(f) for f in forms}) == 1
        assert {f.describe() for f in forms} == {f"indicator(({a:g}, {b:g}))"}
        lo = a * float(10.0 ** rng.uniform(-1, 1))
        for I in (FULL, Interval(lo, lo * float(10.0 ** rng.uniform(0.01, 1)))):
            assert len({integrate(f, I) for f in forms}) == 1


def test_constants_and_indicators_are_finite_at_zero():
    t = np.array([0.0, 0.5])
    assert np.array_equal(indicator(0, 1).logv(t), [0.0, 0.0])
    assert np.array_equal(constant(2).logv(t), [math.log(2)] * 2)
    assert np.array_equal(expfam(2, 0, -1).logv(t), [math.log(2), math.log(2) - 0.5])


def test_a_unit_factor_leaves_the_rest_alone():
    f = from_log_callable(lambda t: -t, label="e^-t")
    assert product(constant(1), f) is f
    assert product(constant(2), f).describe() == "power(c=2, alpha=0) * e^-t"


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
    assert lp_norm(ONE, weight(expfam(1, 0, -1)), FULL, "inf") == pytest.approx(
        1.0, rel=1e-6)


def test_lp_norm_needs_an_exponent():
    with pytest.raises(SpecInvalid):
        lp_norm(ONE, ONE)


def test_lp_norm_quasi_p_below_one():
    # ||e^-t||_{1/2} = (int e^{-t/2})^2 = 4
    assert lp_norm(expfam(1, 0, -1), ONE, FULL, 0.5) == pytest.approx(4.0, rel=1e-8)


def test_lp_norm_root_in_log_space_when_the_power_overflows():
    # (int_0^1e160 t^2)^(1/2) = 1e240 / sqrt(3); the integral itself is e^1104.14
    assert lp_norm(power(1, 1), ONE, Interval(0, 1e160), 2) == pytest.approx(
        1e240 / math.sqrt(3), rel=1e-12)
    # -p of a tail: (int_1e-100^inf t^-4)^(1/2) = 1e150 / sqrt(3)
    assert lp_norm(power(1, -2), ONE, Interval(1e-100, math.inf), 2) == pytest.approx(
        1e150 / math.sqrt(3), rel=1e-12)
    # no analytic hint: the integral e^799.3 is beyond the float range,
    # (int_0^400 e^2t)^(1/2) = e^400 / sqrt(2) is not
    assert lp_norm(expfam(1, 0, 1), ONE, Interval(0, 400), 2) == pytest.approx(
        math.exp(400) / math.sqrt(2), rel=1e-12)
    # a norm beyond the float range still raises, also where p < 1 puts
    # only the root beyond it: (int_0^1e200 1)^2 = 1e400
    with pytest.raises(NumericOverflow):
        lp_norm(expfam(1, 0, 1), ONE, Interval(0, 800), 1)
    with pytest.raises(NumericOverflow):
        lp_norm(ONE, ONE, Interval(0, 1e200), 0.5)
    assert lp_norm(ONE, ONE, Interval(0, 1e100), 0.5) == pytest.approx(1e200, rel=1e-12)


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
    # e^t has no primitive hint, so this takes the grid path; the exact
    # value is e^700 - 1
    assert integrate(expfam(1, 0, 1), Interval(0, 700)) == pytest.approx(math.expm1(700),
                                                                         rel=1e-12)
    with pytest.raises(NumericOverflow):
        integrate(expfam(1, 0, 1), Interval(0, 800))


def test_quad_has_no_absolute_tolerance_floor(monkeypatch):
    # 1e6 t^2 e^-1000t * (e^-500t / 500)^2 = 4 t^2 e^-2000t integrates to
    # 1e-9; an absolute tolerance of 1.49e-8 (scipy's quad default) read 1.285e-9
    calls = _counting_grid(monkeypatch)
    g = product(expfam(1e6, 2, -1000), op_A_star(expfam(1, 0, -1000), 0.5, 0.5))
    assert integrate(g) == pytest.approx(1e-9, rel=1e-12, abs=0.0)
    assert len(calls) == 1


def test_weight_rejects_vanishing():
    with pytest.raises(SpecInvalid):
        weight(indicator(0, 1))


def test_quadrature_config_validation():
    with pytest.raises(SpecInvalid):
        QuadratureConfig(S=-1)
    q = QuadratureConfig.quick()
    assert q.S < QuadratureConfig().S
    # the window edge e^S must stay a float
    assert QuadratureConfig(S=math.log(sys.float_info.max)).S > 709
    # the densest window in use, 1024 per decade at S = 30, stays valid
    assert QuadratureConfig(S=30.0, sup_grid=1024).sup_grid == 1024


def test_intersect_keeps_the_ends_max_and_min_pick():
    # an operand comes back as is only when its ends are bit for bit the
    # intersection's; -0.0 and 0.0 compare equal but print apart
    ends = (0.0, -0.0, 0.5, 1.0, 2.0, math.inf)
    ivs = [Interval(lo, hi) for lo in ends for hi in ends if lo < hi]
    for a in ivs:
        for b in ivs:
            got = a.intersect(b)
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if not lo < hi:
                assert got is None
                continue
            assert (repr(got.lo), repr(got.hi)) == (repr(lo), repr(hi))
    assert FULL.intersect(FULL) is FULL
    inner = Interval(0.0, 5.0)
    assert FULL.intersect(inner) is inner and inner.intersect(FULL) is inner


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


def test_product_outside_the_window_is_zero():
    # the sum's support (0, 1) misses the window (2, 3)
    f = product(funsum(indicator(0, 1), indicator(0.5, 0.8)), indicator(2, 3))
    assert f is ZERO


def test_a_product_of_an_infinite_and_a_zero_factor_is_zero():
    # 0 * inf = 0 (grids.log_mul) at every node, not a NaN
    f = from_log_callable(lambda t: math.inf)
    g = from_log_callable(lambda t: -math.inf)
    assert np.isneginf(product(f, g).logv(np.logspace(-3, 3, 7))).all()
    assert esssup(product(f, g)) == 0.0
    assert lp_norm(f, g, FULL, "inf") == 0.0
    assert integrate(product(f, g)) == 0.0
    assert lp_norm(f, g, FULL, 2) == 0.0


def test_elementary_product_logv_is_bit_exact():
    # log c + alpha ln t first, then the beta and the gamma terms: with
    # the log and exp parts at c = 1, alpha = 0 the sum is exact
    pl, ex, pw = powerlog(1.0, 0.0, 2.0), expfam(1.0, 0.0, -0.7), power(3.0, -1.25)
    f = product(pl, ex, pw)
    t = np.logspace(-8, 8, 193)
    assert np.array_equal(f.logv(t), pw.logv(t) + pl.logv(t) + ex.logv(t))
    assert f.describe() == "powerlog(c=3, alpha=-1.25, beta=2, gamma=-0.7)"


def test_powerof_exp_keeps_closed_forms():
    f = powerof(expfam(2.0, 1.0, -1.0), 0.5)  # sqrt(2) t^0.5 e^{-t/2}
    x = np.array([0.1, 1.0, 10.0])
    prim, tail = f.integral_log(0.0, x), f.integral_log(x, math.inf)
    assert prim is not None and tail is not None
    full = math.sqrt(2.0) * math.gamma(1.5) / 0.5 ** 1.5
    np.testing.assert_allclose(np.logaddexp(prim, tail), math.log(full), rtol=1e-12)
    assert f.integral_log(0.0, math.inf) == pytest.approx(math.log(full), rel=1e-14)


def test_restriction_interval():
    g = power(1, 0)
    assert integrate(g, Interval(1.0, 3.0)) == pytest.approx(2.0, rel=1e-9)


def test_divergent_power_integrals_over_the_half_line_are_inf():
    # the tail of t^alpha (alpha < -1) at 0 is +inf, not its value at a tiny x
    assert integrate(power(1, -2)) == math.inf
    assert lp_norm(power(1, -1), ONE, FULL, 2) == math.inf
    assert lp_norm(power(1, -2), ONE, FULL, 2) == math.inf


def test_gamma_integral_over_the_half_line_takes_the_tail_at_zero():
    # int_0^inf t^-0.99 e^-t = Gamma(0.01); a tail at x = 1e-300 misses
    # the (1e-300)^0.01 = 1e-3 head of it
    assert integrate(expfam(1, -0.99, -1)) == pytest.approx(99.43258511915052, rel=1e-14)


# log(gammaincc(a, x)) reads -inf once gammaincc leaves the normal
# floats, so an exponential tail past x ~ 708 reads 0 (ROADMAP known defects)
GAMMA_TAIL_UNDERFLOW = pytest.mark.xfail(
    strict=True, reason="_Elementary._gamma_log takes the log of an underflowed gammaincc")


@pytest.mark.parametrize("x", [10.0, 700.0, pytest.param(720.0, marks=GAMMA_TAIL_UNDERFLOW),
                               pytest.param(1000.0, marks=GAMMA_TAIL_UNDERFLOW)])
def test_exponential_tail_integral_is_exact_far_out(x):
    lv = expfam(1, 0, -1).integral_log(np.array([x]), np.array([math.inf]))
    assert lv[0] == pytest.approx(-x, rel=0.0, abs=1e-12)


def test_restricted_integral_is_one_difference_of_the_base():
    # (int_3^7 t^-4)^(1/2) inside the window (1e-3, 1e3): a difference of
    # two tails of t^-4, not of two window-clipped primitives (mpmath value)
    g = product(power(1, -2), indicator(1e-3, 1e3))
    assert lp_norm(g, ONE, Interval(3, 7), 2) == pytest.approx(
        0.10664830853791244, rel=1e-13)


@pytest.mark.parametrize("g", [
    expfam(2.0, 1.0, -1.0),                                  # elementary
    indicator(0.5, 4),                                       # indicator
    product(power(1, -2), indicator(0.5, 4)),                # restricted
    product(expfam(1, 0, -1), indicator(0.2, math.inf)),     # restricted, open window
    funsum(product(power(1, -2), indicator(1, 5)), expfam(1, 1, -1)),  # sum
])
def test_head_plus_tail_integral_is_the_whole_integral(g):
    x = np.array([0.3, 1.0, 2.5, 4.0, 9.0])
    assert g.integral_log(0.0, x) is not None and g.integral_log(x, math.inf) is not None
    total = integrate(g)
    both = head_integral_fun(g)(x) + tail_integral_fun(g)(x)
    np.testing.assert_allclose(both, total, rtol=1e-12)


def test_table_keeps_infinite_runs_exact():
    inf = math.inf
    f = _Table(np.arange(7.0), np.array([-inf, -inf, 0.0, 1.0, inf, inf, -inf]))
    s = np.array([-1.0, 0.5, 1.5, 2.5, 3.3, 4.5, 5.5, 7.0])
    # -inf run, panel to -inf, finite panel, panel to +inf, +inf run,
    # panel from +inf to -inf (the 0 * inf rule), flat beyond
    want = [-inf, -inf, -inf, 0.5, inf, inf, -inf, -inf]
    assert np.array_equal(f.logv(np.exp(s)), want)
    assert np.array_equal(f.logv(np.exp(np.arange(7.0))), f.log_values)


def _counting_grid(monkeypatch):
    """Count the grid integrals realfun takes where there is no closed form."""
    calls, real = [], realfun._log_grid_integral

    def grid(g, I, cfg):
        calls.append(I)
        return real(g, I, cfg)

    monkeypatch.setattr(realfun, "_log_grid_integral", grid)
    return calls


def test_reciprocal_integral_over_a_finite_interval_is_closed_form(monkeypatch):
    calls = _counting_grid(monkeypatch)
    assert integrate(power(1, -1), Interval(3, 7)) == pytest.approx(math.log(7 / 3), rel=1e-15)
    assert integrate(power(2, -1), Interval(3, 7)) == pytest.approx(2 * math.log(7 / 3),
                                                                     rel=1e-15)
    assert integrate(power(1, -1), Interval(0, 7)) == math.inf
    assert integrate(power(1, -1), Interval(3, math.inf)) == math.inf
    assert calls == []


def test_product_merges_the_base_of_a_restricted_factor(monkeypatch):
    calls = _counting_grid(monkeypatch)
    g = product(product(power(1, 2), indicator(0, 1)), power(1, 3))
    assert g.describe() == "power(c=1, alpha=5) * indicator((0, 1))"
    assert g.integral_log(0.0, math.inf) is not None
    assert integrate(g) == pytest.approx(1 / 6, rel=1e-15)
    assert calls == []


@pytest.mark.parametrize("k, value", [(20, 467.65824718614), (50, 486.7949784804417)])
def test_quad_that_does_not_converge_runs_once(monkeypatch, k, value):
    # an indicator of {sin(k ln t) <= 0}: Romberg doubling does not settle
    # before the node cap, and the grid value stands
    calls = _counting_grid(monkeypatch)
    f = from_log_callable(lambda t: np.where(np.sin(k * np.log(t)) > 0, 0.0, -np.inf))
    assert integrate(f, Interval(1e-3, 1e3)) == value
    assert len(calls) == 1


_LOG10 = math.log(10.0)


@pytest.mark.parametrize("logfn, I, exact", [
    (lambda t: t, Interval(0, 50), math.expm1(50)),
    (lambda t: 2 * np.log(t) + t, Interval(0, 30), math.exp(30) * 842 - 2),
    (lambda t: 3 * t, Interval(0, 100), math.expm1(300) / 3),
    (lambda t: 10 * t, Interval(0, 60), math.expm1(600) / 10),
    (lambda t: -t, Interval(1, 2), math.exp(-1) - math.exp(-2)),
    # (1 + |ln t|)^2 over (0.1, 10), through u = |ln t| on each side of 1
    (powerlog(1, 0, 2).logv, Interval(0.1, 10), 9.9 * _LOG10 ** 2 - 0.4 * _LOG10 + 13.5),
])
def test_grid_integral_without_a_closed_form_is_exact(logfn, I, exact):
    # growing exponentials are refined until the Romberg diagonal settles
    assert integrate(from_log_callable(logfn), I) == pytest.approx(exact, rel=1e-11)


def _opaque_one(t):
    return np.zeros_like(t)


@pytest.mark.parametrize("value, exact", [
    (lambda: integrate(from_log_callable(_opaque_one), Interval(1e14, 1e15)), 9e14),
    (lambda: integrate(from_log_callable(_opaque_one), Interval(1e10, 1e15)), 1e15 - 1e10),
    (lambda: integrate(from_log_callable(_opaque_one), Interval(0, 1e-20)), 1e-20),
    (lambda: integrate(from_log_callable(lambda t: -2 * np.log(t)), Interval(1e20, math.inf)),
     1e-20),
    (lambda: esssup(power(1, 1), Interval(1e14, 1e15)), 1e15),
    (lambda: esssup(power(1, 1), Interval(0, 1e-20)), 1e-20),
], ids=["one-above", "one-across", "one-below", "tail-above", "sup-above", "sup-below"])
def test_interval_grids_cover_intervals_beyond_the_window(value, exact):
    # the default window is [e^-30, e^30], about [1e-13, 1e13]: a finite
    # end is a node, and an open end lies a decade past a finite end beyond it
    assert value() == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_interval_grid_stays_within_the_float_range():
    # a decade past 1e308 is beyond the largest float, so the grid of
    # (1e308, inf) ends there and the tail estimate takes the rest
    got = integrate(from_log_callable(lambda t: -1.5 * np.log(t)), Interval(1e308, math.inf))
    assert got == pytest.approx(2e-154, rel=1e-12, abs=0.0)


def test_interval_grid_from_the_largest_float_stays_within_it():
    # no sliver of nodes past the largest float: the grid ends there and
    # the tail estimate takes the rest, 1 / max exactly
    big = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(from_log_callable(lambda t: -2 * np.log(t)), Interval(big, math.inf))
    assert got == pytest.approx(1.0 / big, rel=1e-5, abs=0.0)


def test_interval_grid_above_the_node_cap_is_invalid():
    # 600 decades at 2048 per decade would take 1.2 million nodes
    cfg = QuadratureConfig(sup_grid=2048)
    with pytest.raises(SpecInvalid, match="above the cap of 1000000"):
        integrate(from_log_callable(_opaque_one), Interval(1e-300, 1e300), cfg)
    with pytest.raises(SpecInvalid, match="above the cap of 1000000"):
        esssup(power(1, 1), Interval(1e-300, 1e300), cfg)


@pytest.mark.parametrize("build", [
    lambda: Exponent(-1),
    lambda: Interval(2, 1),
    lambda: QuadratureConfig(S=-1),
    lambda: QuadratureConfig(S=math.inf),
    lambda: QuadratureConfig(S=math.nan),
    lambda: QuadratureConfig(S=710),
    lambda: QuadratureConfig(sup_grid=math.inf),
    lambda: QuadratureConfig(sup_grid=10**9),
    lambda: QuadratureConfig(S=math.log(sys.float_info.max), sup_grid=2048),
    lambda: weight(indicator(0, 1)),
    lambda: power(-1, 0),
    lambda: powerlog(-1, 0, 1),
    lambda: expfam(-1, 0, -1),
    lambda: constant(-1),
    lambda: table([0.0, 1.0, 2.0], [1.0, 2.0]),
    lambda: table([0.0, 0.0], [1.0, 2.0]),
    lambda: table([0.0, 1.0], [1.0, 0.0]),
    lambda: table([0.0, math.nan], [1.0, 2.0]),
    lambda: table([1.0, math.inf], [1.0, 2.0]),
    lambda: table([-math.inf, 0.0], [1.0, 2.0]),
    lambda: reduce_problem("inf", 1, 1, 1, ONE, ONE, ONE, ONE, ONE),
    lambda: reduce_problem(10**400, 1, 1, 1, ONE, ONE, ONE, ONE, ONE),
], ids=["exponent", "interval", "cfg", "cfg-inf-S", "cfg-nan-S", "cfg-S-beyond-float",
        "cfg-inf-sup-grid", "cfg-huge-sup-grid", "cfg-huge-window", "weight", "power",
        "powerlog", "expfam", "constant",
        "table-shape", "table-order", "table-value", "table-nan-abscissa",
        "table-inf-abscissa", "table-neg-inf-abscissa", "reduce",
        "reduce-exponent-beyond-float"])
def test_public_constructors_raise_a_package_error(build):
    with pytest.raises(SpecInvalid):
        build()


@pytest.mark.parametrize("call", [
    lambda: op_A(ONE, "inf", 1),
    lambda: op_A_star(ONE, 1, "inf"),
    lambda: stieltjes_density(ONE, 1, 2),
    lambda: stieltjes_tail_density(ONE, 1, 1),
    lambda: primitive_at(ONE, 0.0),
    lambda: tail_at(ONE, -1.0),
    lambda: lp_norm(3.0, ONE, FULL, 2),
    lambda: integrate(3.0),
    lambda: esssup(3.0),
    lambda: integrate(power(1, 1), (0, 1)),
    lambda: esssup(ONE, (0, 1)),
    lambda: realfun.log_esssup(ONE, (0, 1)),
    lambda: lp_norm(ONE, ONE, (0, 1), 2),
    lambda: lp_norm(ONE, ONE, (0, 1), "inf"),
    lambda: FundamentalSpec(U=3.0, w=ONE),
    lambda: FundamentalSpec(U=ONE, w=3.0),
    # a number where a function belongs: each leaked AttributeError, and
    # powerof and funsum returned it
    lambda: powerof(3.0, 1.0),
    lambda: powerof(3.0, 2.0),
    lambda: funsum(3.0),
    lambda: funsum(ONE, 3.0),
    lambda: check_omega(3.0, 2),
    lambda: weight(3.0),
    lambda: op_A(3.0, 2, 1),
    lambda: op_A_star(3.0, 2, 1),
    lambda: big_V(3.0, 1),
    lambda: big_V(3.0, 2),
    lambda: stieltjes_density(3.0, 2, 1),
    lambda: stieltjes_tail_density(3.0, 0.5),
    lambda: head_integral_fun(3.0),
    lambda: tail_integral_fun(3.0),
    lambda: running_sup_fun(3.0),
    lambda: suffix_sup_fun(3.0),
    lambda: cal_V(3.0, 1.0, 2.0),
    lambda: kernel_A(3.0, 1.0, 2.0),
    lambda: is_quasiconcave(3.0, ONE),
    lambda: is_quasiconcave(ONE, 3.0),
    lambda: is_admissible(3.0),
    lambda: is_nondegenerate(3.0, ONE),
    lambda: is_nondegenerate(ONE, 3.0),
    lambda: dyadic_cover(3.0),
    lambda: dyadic_cover(3.0, "tail"),
], ids=["op_A", "op_A_star", "stieltjes-p-above-r", "stieltjes-tail-q-one",
        "primitive_at", "tail_at", "lp_norm-no-function", "integrate-no-function",
        "esssup-no-function", "integrate-no-interval", "esssup-no-interval",
        "log_esssup-no-interval", "lp_norm-no-interval", "lp_norm-inf-no-interval",
        "fundamental-U-no-function", "fundamental-w-no-function",
        "powerof-one-no-function", "powerof-no-function", "funsum-one-no-function",
        "funsum-no-function", "check_omega-no-function", "weight-no-function", "op_A-no-function", "op_A_star-no-function",
        "big_V-p-one-no-function", "big_V-no-function", "stieltjes-no-function",
        "stieltjes-tail-no-function", "head_integral_fun-no-function",
        "tail_integral_fun-no-function", "running_sup_fun-no-function",
        "suffix_sup_fun-no-function", "cal_V-no-function", "kernel_A-no-function",
        "is_quasiconcave-f-no-function", "is_quasiconcave-a-no-function",
        "is_admissible-no-function", "is_nondegenerate-phi-no-function",
        "is_nondegenerate-U-no-function", "dyadic_cover-no-function",
        "dyadic_cover-tail-no-function"])
def test_public_functions_raise_a_package_error(call):
    with pytest.raises(SpecInvalid):
        call()


@pytest.mark.parametrize("make, args", [
    (power, (1, math.nan)), (power, (math.nan, 1)), (expfam, (math.inf, 0, -1)),
    (powerlog, (1, 0, math.inf)), (constant, (math.nan,)),
    # and c positive
    (power, (0.0, 1)), (constant, (-1.0,))])
def test_elementary_parameters_must_be_finite(make, args):
    with pytest.raises(SpecInvalid):
        make(*args)


def test_coefficients_beyond_the_float_range_build():
    # c is held as its log, so these products and powers are representable
    t = np.logspace(-3, 3, 13)
    lc = math.log(1e200)
    for f, want in ((powerof(constant(1e200), 2.0), 2.0 * lc + 0.0 * t),
                    (product(constant(1e200), constant(1e200)), 2.0 * lc + 0.0 * t),
                    (powerof(power(1e-200, 1), 2.0), -2.0 * lc + 2.0 * np.log(t))):
        np.testing.assert_allclose(f.logv(t), want, rtol=1e-15, atol=0.0)
    assert powerof(constant(1e200), 2.0).describe() == "power(c=e^921.034, alpha=0)"
    assert constant(1e200).describe() == "power(c=1e+200, alpha=0)"


# the rules hold within this much, absolute, on log-values
_LOG_TOL = 1e-12
_T = np.logspace(-4, 2, 61)


@st.composite
def _funs(draw):
    """An elementary function (log c in [-700, 700]), a table or a restricted
    elementary function."""
    real = st.floats
    kind = draw(st.sampled_from(["elementary", "table", "restricted"]))
    if kind == "table":
        log_t = sorted(draw(st.lists(real(-10.0, 10.0), min_size=2, max_size=6, unique=True)))
        log_values = draw(st.lists(real(-700.0, 700.0), min_size=len(log_t),
                                   max_size=len(log_t)))
        return _Table(np.array(log_t), np.array(log_values))
    f = _Elementary(draw(real(-700.0, 700.0)), draw(real(-3.0, 3.0)),
                    draw(real(-2.0, 2.0)), draw(real(-1.0, 1.0)))
    if kind == "restricted":
        lo = draw(real(0.0, 10.0))
        f = product(f, indicator(lo, lo + draw(real(0.1, 100.0))))
    return f


def _assert_log_close(got, want):
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= _LOG_TOL)


@settings(max_examples=200, deadline=None)
@given(_funs(), _funs())
def test_product_adds_log_values(f, g):
    _assert_log_close(product(f, g).logv(_T), f.logv(_T) + g.logv(_T))


@settings(max_examples=200, deadline=None)
@given(_funs(), st.floats(-2.0, 2.0).filter(lambda s: s != 0.0))
def test_powerof_multiplies_log_values(f, s):
    _assert_log_close(powerof(f, s).logv(_T), s * f.logv(_T))


@settings(max_examples=200, deadline=None)
@given(_funs(), _funs())
def test_funsum_adds_values(f, g):
    _assert_log_close(funsum(f, g).logv(_T), np.logaddexp(f.logv(_T), g.logv(_T)))
