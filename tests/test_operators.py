"""Weight transforms, quasiconcavity checks, and Stieltjes densities."""

import math

import numpy as np
import pytest

from cescop import grids
from cescop.errors import DegenerateOperator
from cescop.operators import (
    FundamentalSpec,
    big_V,
    cal_V,
    fundamental_function,
    is_admissible,
    is_nondegenerate,
    is_quasiconcave,
    kernel_A,
    head_integral_fun,
    op_A,
    op_A_star,
    running_sup_fun,
    stieltjes_density,
    stieltjes_tail_density,
    suffix_sup_fun,
    tail_integral_fun,
)
from cescop.realfun import (
    DEFAULT_CFG, ONE, ZERO, expfam, indicator, power, powerlog, product,
)

T = np.logspace(-2, 2, 41)
EDEC = expfam(1.0, 0.0, -1.0)


def _vals(f):
    return np.exp(f.logv(T))


def test_op_A_unit_weight():
    # A_{1,1}(1)(x) = (int_0^x 1)^-1 = 1/x
    np.testing.assert_allclose(_vals(op_A(ONE, 1, 1)), 1.0 / T, rtol=1e-9)


def test_op_A_power_exponents():
    # A_{1/2,1/2}(1)(x) = x^-2
    np.testing.assert_allclose(_vals(op_A(ONE, 0.5, 0.5)), T ** -2.0, rtol=1e-9)


def test_op_A_star_exponential():
    # A*_{2,2}(e^-t)(x) = (int_x^inf e^-2t)^(1/2) = e^-x / sqrt(2)
    np.testing.assert_allclose(_vals(op_A_star(EDEC, 2, 2)),
                               np.exp(-T) / math.sqrt(2.0), rtol=1e-7)


def test_op_A_star_of_op_A_composition():
    # A_{1,1/2}(1) = x^-2; A*_{1,1}(x^-2)(x) = int_x^inf t^-2 = 1/x
    inner = op_A(ONE, 1, 0.5)
    outer = op_A_star(inner, 1, 1)
    # grid-accumulated: tolerance reflects the trapezoid error at the
    # default nodes-per-decade density
    np.testing.assert_allclose(_vals(outer), 1.0 / T, rtol=1e-4)


def test_op_A_degenerate():
    with pytest.raises(DegenerateOperator):
        op_A_star(ONE, 1, 1)  # tail integral of 1 diverges


@pytest.mark.parametrize("build,operand", [
    (lambda: op_A(ZERO, 2, 1), "head integral of (0)^2"),
    (lambda: op_A_star(power(1, 5), 2, 2), "tail integral of (power(c=1, alpha=5))^2"),
    (lambda: stieltjes_density(ZERO, 2, 1), "head integral of (0)^2"),
    (lambda: stieltjes_tail_density(power(1, 5), 0.5),
     "tail integral of (power(c=1, alpha=5))^0.5"),
], ids=["op_A", "op_A_star", "stieltjes_density", "stieltjes_tail_density"])
def test_degenerate_message_names_the_operand(build, operand):
    with pytest.raises(DegenerateOperator) as err:
        build()
    assert operand in str(err.value)


def test_big_V():
    # p = 1/2 -> p' = 1: V(x) = int_0^x v
    V = big_V(ONE, 0.5)
    np.testing.assert_allclose(_vals(V), T, rtol=1e-9)


def test_cal_V_kernel_range():
    V = big_V(ONE, 0.5)
    k = cal_V(V, T, np.ones_like(T))
    assert np.all((0 < k) & (k < 1))
    # symmetric split at equal arguments
    assert cal_V(V, np.array([2.0]), np.array([2.0]))[0] == pytest.approx(0.5)


def test_kernel_A_monotone():
    a = power(1, 1)
    x = np.full_like(T, 5.0)
    k = kernel_A(a, x, T)
    assert np.all(np.diff(k) <= 1e-12)  # decreasing in t for fixed x


def test_stieltjes_density_closed_forms():
    # u = 1, r = 1, p = 1/2: r->p = 1, density = (int_0^t 1)^-2 = t^-2
    d = stieltjes_density(ONE, 1, 0.5)
    np.testing.assert_allclose(_vals(d), T ** -2.0, rtol=1e-9)


def test_stieltjes_tail_density_closed_form():
    # w = e^-t, q = 1/2: q' = 1, density (q'/q)(int_t^inf e^{-t/2})^{q'/q-1} w^q
    # = 2 (2 e^{-t/2})^1 e^{-t/2} = 4 e^{-t}
    d = stieltjes_tail_density(EDEC, 0.5)
    np.testing.assert_allclose(_vals(d), 4.0 * np.exp(-T), rtol=1e-7)


def test_is_admissible():
    assert is_admissible(power(1, 1)).ok          # U(x) = x
    assert is_admissible(power(1, 0.5)).ok
    assert not is_admissible(ONE).ok              # constant: no growth
    assert not is_admissible(EDEC).ok             # decreasing


def test_is_quasiconcave():
    # min(x, 1) is 1-quasiconcave w.r.t. a(x) = x
    a = power(1, 1)
    assert is_quasiconcave(power(1, 0.5), a).ok
    assert not is_quasiconcave(power(1, 2), a).ok  # f/a increasing


def test_is_nondegenerate():
    U = power(1, 1)
    assert is_nondegenerate(power(1, 0.5), U).ok
    # phi = U itself fails the vanishing ratio limits
    assert not is_nondegenerate(power(1, 1), U).ok


def test_fundamental_function_positive_and_monotone():
    spec = FundamentalSpec(U=power(1, 1), w=EDEC)
    v1 = fundamental_function(spec, 0.5)
    v2 = fundamental_function(spec, 5.0)
    assert 0 < v1 < v2  # phi is non-decreasing


def test_stieltjes_matches_operator_power():
    # the density equals ((r->p)/r) A_{r,p}(u)^{r->p} algebraically
    from cescop.exponents import Exponent, arrow
    from cescop.realfun import powerof, product

    for u, r, p in ((ONE, 2.0, 1.0), (EDEC, 1.0, 0.5), (power(1, 0.5), 2.0, 0.5)):
        e = arrow(Exponent(r), Exponent(p))
        d = stieltjes_density(u, r, p)
        ref = product(power(float(e) / r, 0.0), powerof(op_A(u, r, p), float(e)))
        np.testing.assert_allclose(d.logv(T), ref.logv(T), atol=1e-10)


@pytest.mark.parametrize("build, q, head", [
    (head_integral_fun, 1.0, True),
    (tail_integral_fun, 1.0, False),
    (running_sup_fun, math.inf, True),
    (suffix_sup_fun, math.inf, False),
])
def test_grid_transforms_read_the_cumulative_norm_at_the_nodes(build, q, head):
    # (1 + |ln t|)^-3 e^-t has no closed-form integral, so every transform
    # is tabulated on the working grid and reads log_cumnorm at its nodes
    # (up to the rounding of ln(e^s))
    g = product(powerlog(1.0, 0.0, -3.0), expfam(1.0, 0.0, -1.0))
    s, t = grids.log_nodes(DEFAULT_CFG)
    np.testing.assert_allclose(build(g).logv(t), grids.log_cumnorm(g.logv(t), s, q, head),
                               rtol=1e-12)


def test_suffix_sup_of_an_indicator_is_zero_past_its_end():
    # inside the grid panel that holds ln 100 the function is 0 from 100 on;
    # a finite log-value there would break the 0 * inf rule of log_mul
    F = suffix_sup_fun(indicator(0, 100))
    s, _ = grids.log_nodes(DEFAULT_CFG)
    j = int(np.searchsorted(s, math.log(100)))
    x = s[j - 1] + np.array([0.001, 0.1, 0.3, 0.5, 0.9]) * (s[j] - s[j - 1])
    assert np.all(np.isneginf(F.logv(np.exp(x))))
    assert np.all(F.logv(np.exp(s[:j])) == 0.0)
