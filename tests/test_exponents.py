"""Exact rational exponent arithmetic."""

import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cescop.errors import SpecInvalid
from cescop.exponents import Exponent, INF_EXP, arrow, dual_exponent


def test_exponent_construction():
    assert Exponent(F(1, 2)).value == F(1, 2)
    assert Exponent(2).value == F(2)
    assert Exponent(0.5).value == F(1, 2)
    assert Exponent("3/4").value == F(3, 4)
    assert Exponent("inf").is_inf
    assert Exponent(math.inf).is_inf
    # the ends of the float range are exponents
    assert float(Exponent(5e-324)) == 5e-324
    assert float(Exponent(sys.float_info.max)) == sys.float_info.max
    with pytest.raises(SpecInvalid):
        Exponent(0)
    with pytest.raises(SpecInvalid):
        Exponent(-1)


@pytest.mark.parametrize("value", [True, None, [1], "abc", "1/0", float("nan"), -math.inf,
                                   np.bool_(True)])
def test_exponent_rejects_unreadable_values(value):
    with pytest.raises(SpecInvalid):
        Exponent(value)


@pytest.mark.parametrize("value, expected", [
    (np.int64(2), F(2)), (np.uint8(3), F(3)), (np.float32(0.5), F(1, 2)),
    (np.float64(1.5), F(3, 2)), (np.float32("inf"), math.inf)])
def test_exponent_reads_numpy_numbers(value, expected):
    e = Exponent(value)
    assert e.value == expected
    # no fixed-width integer inside an exact exponent
    assert e.is_inf or type(e.value.numerator) is int


@pytest.mark.parametrize("value", [10**400, F(10**400, 3), "1e400", F(1, 10**400), "1e-400"],
                         ids=["int", "fraction", "string", "tiny-fraction", "tiny-string"])
def test_finite_exponent_beyond_the_float_range_is_invalid(value):
    # its float would overflow or read 0.0
    with pytest.raises(SpecInvalid):
        Exponent(value)


def test_exponent_ordering():
    assert Exponent(F(1, 2)) < Exponent(1) < Exponent(2) < INF_EXP
    assert Exponent(F(2, 4)) == Exponent(F(1, 2))
    assert float(Exponent(F(3, 2))) == 1.5


def test_dual_exponent_table():
    # the four conjugation branches
    assert dual_exponent(Exponent(F(1, 2))).value == F(1, 1)      # p < 1
    assert dual_exponent(Exponent(F(2, 3))).value == F(2, 1)
    assert dual_exponent(Exponent(1)).is_inf                      # p = 1
    assert dual_exponent(Exponent(2)).value == F(2)               # 1 < p < inf
    assert dual_exponent(Exponent(3)).value == F(3, 2)
    assert dual_exponent(INF_EXP).value == F(1)                   # p = inf


def test_arrow_basic():
    # 1/(p->q) = 1/q - 1/p for q < p, else inf
    assert arrow(Exponent(2), Exponent(1)).value == F(2)
    assert arrow(Exponent(3), Exponent(1)).value == F(3, 2)
    assert arrow(Exponent(1), Exponent(2)).is_inf
    assert arrow(Exponent(2), Exponent(2)).is_inf
    assert arrow(INF_EXP, Exponent(1)).value == F(1)


rational = st.fractions(min_value=F(1, 50), max_value=F(50))


@given(rational, rational, rational)
def test_arrow_chain_identity(a, b, c):
    p, q, r = (Exponent(x) for x in sorted([a, b, c]))
    assert arrow(r, p).reciprocal() == (arrow(r, q).reciprocal()
                                        + arrow(q, p).reciprocal())


@given(st.fractions(min_value=F(51, 50), max_value=F(50)))
def test_dual_involution_above_one(a):
    # conjugation is an involution on (1, inf); below 1 it is not
    p = Exponent(a)
    assert dual_exponent(dual_exponent(p)) == p
    assert dual_exponent(p).reciprocal() + p.reciprocal() == 1
