"""Gluing-lemma functionals, dyadic covers, and the discrete lemmas."""

import math

import numpy as np
import pytest

from cescop.errors import NoWitness, ZeroMass
from cescop.gluing import (
    GlueInstance,
    LEMMAS,
    almost_geometric_check,
    discrete_equiv,
    dyadic_cover,
    glue_eval,
    random_instance,
)
from cescop.realfun import ONE, expfam, indicator, power, product


def test_instance_validates_exponents():
    g = product(power(1, 0), indicator(1, 2))
    with pytest.raises(ValueError):
        GlueInstance("SUP_INT", g, g, power(1, 1))  # beta missing
    with pytest.raises(ValueError):
        GlueInstance("NOPE", g, g, power(1, 1))
    # random instances carry exactly the exponents each lemma needs
    need = {"SUP_SUP": [], "SUP_INT": ["beta"], "INT_SUP": ["beta"],
            "INT_INT_SUP": ["alpha", "beta"], "INTEGRAL": ["alpha", "beta", "gamma"],
            "MIXED": ["beta"]}
    for lem in LEMMAS:
        exps = random_instance(lem, np.random.default_rng(1)).exps
        assert sorted(exps) == need[lem]
        for k in exps:
            with pytest.raises(ValueError):
                GlueInstance(lem, g, g, power(1, 1),
                             {j: v for j, v in exps.items() if j != k})


def test_sup_sup_worked_example():
    # a constant: the kernel is identically 1/2, so lhs = 1/4 while each
    # one-sided term is 1
    g = indicator(0.0, 1.0)
    inst = GlueInstance("SUP_SUP", g, g, power(1, 0))
    res = glue_eval(inst)
    assert res.lhs == pytest.approx(0.25, rel=1e-9)
    assert res.rhs == pytest.approx(2.0, rel=1e-9)
    assert res.ratio == pytest.approx(0.125, rel=1e-9)


def test_sup_sup_zero_h():
    from cescop.realfun import ZERO
    inst = GlueInstance("SUP_SUP", indicator(0, 1), ZERO, power(1, 1))
    res = glue_eval(inst)
    assert res.lhs == 0.0 and res.rhs == 0.0
    assert math.isnan(res.ratio)


def test_int_int_sup_band_example():
    g = indicator(1.0, 2.0)
    inst = GlueInstance("INT_INT_SUP", g, g, power(1, 1),
                        exps={"alpha": 1.0, "beta": 1.0})
    res = glue_eval(inst)
    assert 1.0 / 16.0 <= res.ratio <= 16.0


def test_all_lemmas_two_sided():
    for i, lem in enumerate(LEMMAS):
        for k in range(10):
            inst = random_instance(lem, np.random.default_rng((7, i, k)))
            res = glue_eval(inst)
            if math.isnan(res.ratio):
                continue
            assert 1e-2 <= res.ratio <= 1e2, (lem, k, res)
            for term in res.rhs_terms:
                assert term <= 8.0 * res.lhs + 1e-12, (lem, k, res)


def test_glue_deterministic_replay():
    inst1 = random_instance("INTEGRAL", np.random.default_rng(42))
    inst2 = random_instance("INTEGRAL", np.random.default_rng(42))
    r1, r2 = glue_eval(inst1), glue_eval(inst2)
    assert r1.lhs == r2.lhs and r1.rhs_terms == r2.rhs_terms


def test_dyadic_cover_unit_density():
    # g = 1: int_0^x g = 2^m at x = 2^m
    cover = dyadic_cover(ONE, "head")
    for m, x in zip(cover.levels, cover.points):
        assert x == pytest.approx(2.0 ** m, rel=1e-6)


def test_dyadic_cover_linear_density():
    # g = 2t: int_0^x = x^2 = 2^m at x = 2^(m/2)
    cover = dyadic_cover(power(2, 1), "head")
    for m, x in zip(cover.levels, cover.points):
        assert x == pytest.approx(2.0 ** (m / 2.0), rel=1e-6)


def test_dyadic_cover_tail():
    cover = dyadic_cover(expfam(1, 0, -1), "tail")
    # tail 2^-m = e^-x -> x = m log 2
    for m, x in zip(cover.levels, cover.points):
        if x > 1e-6:
            assert x == pytest.approx(m * math.log(2.0), rel=1e-4)


def test_dyadic_cover_zero_mass():
    from cescop.realfun import ZERO
    with pytest.raises(ZeroMass):
        dyadic_cover(ZERO, "head")


def test_almost_geometric_witness():
    w = almost_geometric_check([2.0 ** -k for k in range(10)], "dec")
    assert w is not None and w.L >= 1 and w.alpha > 1
    assert almost_geometric_check(np.ones(10), "dec") is None
    wi = almost_geometric_check([2.0 ** k for k in range(10)], "inc")
    assert wi is not None


def test_discrete_equiv_examples():
    tau = np.array([2.0 ** -k for k in range(12)])
    a = np.zeros(12)
    a[0] = 1.0  # single spike: prefix sums constant 1
    lhs, rhs = discrete_equiv("AGD", tau, a, 1)
    assert lhs == pytest.approx(np.sum(tau), rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-12)
    # sup-norm equality when the spike dominates
    lhs, rhs = discrete_equiv("AGD", tau, a, math.inf)
    assert lhs == rhs == 1.0


def test_discrete_equiv_requires_witness():
    with pytest.raises(NoWitness):
        discrete_equiv("AGD", np.ones(8), np.ones(8), 2)


def test_discrete_lower_bound_exact():
    rng = np.random.default_rng(5)
    tau = np.array([0.5 ** k for k in range(15)]) * rng.uniform(0.9, 1.1, 15)
    a = rng.uniform(0.1, 10.0, 15)
    for q in (0.5, 1, 2, math.inf):
        lhs, rhs = discrete_equiv("AGD", tau, a, q)
        assert lhs >= rhs
