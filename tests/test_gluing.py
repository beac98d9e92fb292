"""Gluing-lemma functionals, dyadic covers, and the discrete lemmas."""

import math
import warnings

import numpy as np
import pytest

from cescop import gluing, grids
from cescop.errors import NoWitness, SpecInvalid, ZeroMass
from cescop.gluing import (
    GLUE_CFG,
    GlueInstance,
    LEMMAS,
    almost_geometric_check,
    discrete_equiv,
    dyadic_cover,
    glue_eval,
    random_instance,
)
from cescop.oracle import Candidate
from cescop.realfun import (
    ONE,
    ZERO,
    QuadratureConfig,
    expfam,
    from_log_callable,
    indicator,
    power,
    product,
)

NEEDS = {"SUP_SUP": [], "SUP_INT": ["beta"], "INT_SUP": ["beta"],
         "INT_INT_SUP": ["alpha", "beta"], "INTEGRAL": ["alpha", "beta", "gamma"],
         "MIXED": ["beta"]}


def test_instance_validates_exponents():
    g = product(power(1, 0), indicator(1, 2))
    with pytest.raises(SpecInvalid):
        GlueInstance("SUP_INT", g, g, power(1, 1))  # beta missing
    with pytest.raises(SpecInvalid):
        GlueInstance("NOPE", g, g, power(1, 1))
    # random instances carry exactly the exponents each lemma needs
    for lem in LEMMAS:
        exps = random_instance(lem, np.random.default_rng(1)).exps
        assert sorted(exps) == NEEDS[lem]
        for k in exps:
            with pytest.raises(SpecInvalid):
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


@pytest.mark.parametrize("lem", LEMMAS)
def test_weight_vanishing_near_zero_is_warning_free(lem):
    # a = t on (1, inf) and 0 below: the kernel is 0 (log -inf) on those rows
    a = product(power(1, 1), indicator(1, math.inf))
    g = product(power(1, 0.5), indicator(0.01, 10))
    h = product(power(1, -0.5), indicator(0.1, 50))
    exps = {"alpha": 2.0, "beta": 2.0, "gamma": 1.0}
    inst = GlueInstance(lem, g, h, a, {k: exps[k] for k in NEEDS[lem]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = glue_eval(inst)
    assert 0.0 < res.lhs < math.inf
    assert all(0.0 < term < math.inf for term in res.rhs_terms)


def test_glue_deterministic_replay():
    inst1 = random_instance("INTEGRAL", np.random.default_rng(42))
    inst2 = random_instance("INTEGRAL", np.random.default_rng(42))
    r1, r2 = glue_eval(inst1), glue_eval(inst2)
    assert r1.lhs == r2.lhs and r1.rhs_terms == r2.rhs_terms


def _full_width_rows(la, grid, g_side, h_side):
    """The row reductions with the kernel built on every column: the
    reference the support-column rows must match bit for bit."""
    outs = ([], [])
    for start in range(0, la.size, gluing._ROW_CHUNK):
        lA = grids.log_kernel(la[start:start + gluing._ROW_CHUNK, None], la)
        lAc = np.log(np.maximum(1.0 - np.exp(lA), 1e-300))
        for acc, lk, (lf, e) in zip(outs, (lA, lAc), (g_side, h_side)):
            acc.append(grids.log_row_reduce(lk, lf, grid, e))
    return [np.concatenate(acc) for acc in outs]


def _row_inputs(inst, cfg=GLUE_CFG):
    """(la, grid, g side, h side) on the glue grid, as glue_eval builds them."""
    grid = grids.log_nodes(cfg)
    t = grid.t
    g_entry, h_entry, _ = gluing._LEMMA_TABLE[inst.lemma_id]

    def side(f, entry):
        e = None if entry is gluing._SUP else gluing._exponent(entry, inst.exps)
        return f.logv(t), e
    return inst.a.logv(t), grid, side(inst.g, g_entry), side(inst.h, h_entry)


def _assert_rows_match_full_width(inst, cfg=GLUE_CFG):
    args = _row_inputs(inst, cfg)
    for new, old in zip(gluing._row_kernel_ops(*args), _full_width_rows(*args)):
        np.testing.assert_array_equal(new, old)


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("lem", LEMMAS)
def test_support_column_rows_match_full_width(seed, lem):
    i = LEMMAS.index(lem)
    for k in range(40):
        _assert_rows_match_full_width(
            random_instance(lem, np.random.default_rng((seed, i, k))))


def _one_node(j):
    """An indicator whose support holds exactly node j of the glue grid."""
    t = grids.log_nodes(GLUE_CFG).t
    return indicator(0.0 if j == 0 else t[j] * (1 - 1e-9), t[j] * (1 + 1e-9))


_EDGE_SUPPORTS = {
    "zero": ZERO,
    "left_end": indicator(0.0, 1.0),
    "right_end": indicator(1.0, math.inf),
    "one_node_first": _one_node(0),
    "one_node_inner": _one_node(200),
    "one_node_last": _one_node(grids.log_nodes(GLUE_CFG)[0].size - 1),
}


@pytest.mark.parametrize("which", ["g", "h"])
@pytest.mark.parametrize("support", sorted(_EDGE_SUPPORTS))
@pytest.mark.parametrize("lem", LEMMAS)
def test_support_column_rows_match_full_width_at_edges(lem, support, which):
    # an empty support (zero) on a sup side and on an integral side, and
    # supports at the window ends, where the edge estimates read them
    base = random_instance(lem, np.random.default_rng((11, LEMMAS.index(lem))))
    f = product(power(1, 0.5), _EDGE_SUPPORTS[support])
    g, h = (f, base.h) if which == "g" else (base.g, f)
    inst = GlueInstance(lem, g, h, base.a, base.exps)
    if support.startswith("one_node"):
        lf = _row_inputs(inst)[2 if which == "g" else 3][0]
        assert np.count_nonzero(np.isfinite(lf)) == 1
    _assert_rows_match_full_width(inst)


@pytest.mark.parametrize("lem", LEMMAS)
def test_support_column_rows_match_full_width_on_a_dense_grid(lem):
    cfg = QuadratureConfig(S=20, sup_grid=128)
    inst = random_instance(lem, np.random.default_rng((13, LEMMAS.index(lem))))
    _assert_rows_match_full_width(inst, cfg)


def _kernel_entries_built(monkeypatch, inst):
    """The number of kernel entries glue_eval builds for inst."""
    built = []
    kernel = grids.log_kernel

    def counting_kernel(lx, lt):
        out = kernel(lx, lt)
        built.append(out.size)
        return out
    monkeypatch.setattr(grids, "log_kernel", counting_kernel)
    glue_eval(inst)
    return sum(built)


def _support_size(lf):
    return np.count_nonzero(~np.isneginf(lf))


def test_glue_kernel_is_built_on_the_support_columns_only(monkeypatch):
    inst = random_instance("INTEGRAL", np.random.default_rng((12345, 4, 0)))
    la, s, (lg, _), (lh, _) = _row_inputs(inst)
    support = _support_size(lg) + _support_size(lh)
    assert 0 < support < la.size
    assert 0 < _kernel_entries_built(monkeypatch, inst) <= la.size * support


@pytest.mark.parametrize("lem", LEMMAS)
def test_glue_kernel_rows_are_on_g_support_under_an_outer_integral(monkeypatch, lem):
    # an outer integral weighs row x by g(x), so only g's support is
    # reduced; an outer sup reduces only the rows that can hold the max
    inst = random_instance(lem, np.random.default_rng((12345, LEMMAS.index(lem), 0)))
    la, s, (lg, _), (lh, _) = _row_inputs(inst)
    n_g, n_h = _support_size(lg), _support_size(lh)
    assert 0 < n_g < la.size and n_h > 0
    built = _kernel_entries_built(monkeypatch, inst)
    if gluing._LEMMA_TABLE[lem][2] is gluing._SUP:
        assert 0 < built < la.size * (n_g + n_h)
    else:
        assert built == n_g * (n_g + n_h)


def _assert_glue_matches_every_row(inst, cfg=GLUE_CFG):
    """glue_eval against a reference that reduces every kernel row.

    Returns the number of rows glue_eval reduced."""
    reduce_rows = gluing._row_kernel_ops

    def every_row(la, s, g_side, h_side, rows=None):
        return reduce_rows(la, s, g_side, h_side)

    def every_row_max(la, s, g_side, h_side, eg, eh):
        return gluing._log_max(*reduce_rows(la, s, g_side, h_side), eg, eh)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gluing, "_row_kernel_ops", every_row)
        mp.setattr(gluing, "_outer_sup_lhs", every_row_max)
        ref = glue_eval(inst, cfg)
    counted = []

    def counting(la, s, g_side, h_side, rows=None):
        counted.append(la.size if rows is None else rows.size)
        return reduce_rows(la, s, g_side, h_side, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gluing, "_row_kernel_ops", counting)
        assert repr(glue_eval(inst, cfg)) == repr(ref)
    return sum(counted)


_OUTER_INTEGRAL = ["INTEGRAL", "MIXED"]
_OUTER_SUP = ["SUP_SUP", "SUP_INT", "INT_SUP", "INT_INT_SUP"]


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("lem", _OUTER_INTEGRAL)
def test_g_support_rows_match_every_row(seed, lem):
    i = LEMMAS.index(lem)
    for k in range(40):
        _assert_glue_matches_every_row(
            random_instance(lem, np.random.default_rng((seed, i, k))))


@pytest.mark.parametrize("support", sorted(_EDGE_SUPPORTS))
@pytest.mark.parametrize("lem", _OUTER_INTEGRAL)
def test_g_support_rows_match_every_row_at_edges(lem, support):
    # zero leaves no row to reduce; one-node supports at both window ends
    base = random_instance(lem, np.random.default_rng((11, LEMMAS.index(lem))))
    g = product(power(1, 0.5), _EDGE_SUPPORTS[support])
    _assert_glue_matches_every_row(GlueInstance(lem, g, base.h, base.a, base.exps))


@pytest.mark.parametrize("lem", _OUTER_INTEGRAL)
def test_g_support_rows_match_every_row_on_a_dense_grid(lem):
    cfg = QuadratureConfig(S=20, sup_grid=128)
    inst = random_instance(lem, np.random.default_rng((13, LEMMAS.index(lem))))
    _assert_glue_matches_every_row(inst, cfg)


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("lem", _OUTER_SUP)
def test_outer_sup_rows_match_every_row(seed, lem):
    i = LEMMAS.index(lem)
    n = grids.log_nodes(GLUE_CFG).s.size
    rows = [_assert_glue_matches_every_row(
        random_instance(lem, np.random.default_rng((seed, i, k)))) for k in range(40)]
    assert max(rows) < n  # every instance reduces fewer rows than the grid has


def _integral_side_at_edge_nodes(inst, cfg=GLUE_CFG):
    """Whether an integral side of inst is nonzero at an edge-fit node."""
    la, grid, *sides = _row_inputs(inst, cfg)
    edges = [i for pair in grids._edge_nodes(grid) for i in pair]
    return any(e is not None and not np.all(np.isneginf(lf[edges])) for lf, e in sides)


@pytest.mark.parametrize("which", ["g", "h"])
@pytest.mark.parametrize("support", sorted(_EDGE_SUPPORTS))
@pytest.mark.parametrize("lem", _OUTER_SUP)
def test_outer_sup_rows_match_every_row_at_edges(lem, support, which):
    # an integral side that reaches an edge-fit node takes edge estimates,
    # which need not be monotone in x, so every row is reduced
    base = random_instance(lem, np.random.default_rng((11, LEMMAS.index(lem))))
    f = product(power(1, 0.5), _EDGE_SUPPORTS[support])
    g, h = (f, base.h) if which == "g" else (base.g, f)
    inst = GlueInstance(lem, g, h, base.a, base.exps)
    rows = _assert_glue_matches_every_row(inst)
    if _integral_side_at_edge_nodes(inst):
        assert rows == grids.log_nodes(GLUE_CFG).s.size


@pytest.mark.parametrize("lem", _OUTER_SUP)
def test_outer_sup_rows_match_every_row_on_a_dense_grid(lem):
    cfg = QuadratureConfig(S=20, sup_grid=128)
    inst = random_instance(lem, np.random.default_rng((13, LEMMAS.index(lem))))
    assert _assert_glue_matches_every_row(inst, cfg) < grids.log_nodes(cfg).s.size


def _steep_instance(lem, k):
    """A steep a with log a < 0 over most of the window, and g and h on
    supports decades apart, either one below the other."""
    rng = np.random.default_rng((17, LEMMAS.index(lem), k))

    def bump(lo_decade):
        lo = float(10.0 ** (lo_decade + rng.uniform(0, 1.5)))
        return product(power(float(10.0 ** rng.uniform(-8, 8)), float(rng.uniform(-3, 3))),
                       indicator(lo, lo * float(10.0 ** rng.uniform(0.02, 1.5))))
    low, high = bump(-5.5), bump(2.5)
    g, h = (low, high) if k % 2 else (high, low)
    a = power(float(10.0 ** rng.uniform(-8, -2)), float(rng.uniform(2, 6)))
    exps = {name: float(rng.choice((0.25, 0.5, 1.0, 2.0, 4.0))) for name in gluing._needs(lem)}
    return GlueInstance(lem, g, h, a, exps)


@pytest.mark.parametrize("lem", _OUTER_SUP)
def test_outer_sup_rows_match_every_row_on_steep_weights(lem):
    n = grids.log_nodes(GLUE_CFG).s.size
    rows = [_assert_glue_matches_every_row(_steep_instance(lem, k)) for k in range(20)]
    assert min(rows) < n


_NOT_NONDECREASING = {
    "decreasing": power(1, -1),
    "reaches_inf": from_log_callable(
        lambda t: np.where(t > 100.0, math.inf, np.log(t)), "t, inf beyond 100"),
}


@pytest.mark.parametrize("a", sorted(_NOT_NONDECREASING))
@pytest.mark.parametrize("lem", _OUTER_SUP)
def test_outer_sup_reduces_every_row_unless_a_is_nondecreasing_and_finite(lem, a):
    base = random_instance(lem, np.random.default_rng((19, LEMMAS.index(lem))))
    inst = GlueInstance(lem, base.g, base.h, _NOT_NONDECREASING[a], base.exps)
    assert _assert_glue_matches_every_row(inst) == grids.log_nodes(GLUE_CFG).s.size


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


_GEOM = [2.0 ** -k for k in range(4)]
_BAND = product(power(1, 0), indicator(1, 2))


@pytest.mark.parametrize("call", [
    lambda: dyadic_cover(ONE, "up"),
    lambda: almost_geometric_check([1, 2], "up"),
    lambda: discrete_equiv("AGX", _GEOM, [1.0] * 4, 1),
    lambda: discrete_equiv("AGD", [1, 2], [1], 1),
    lambda: discrete_equiv("AGD", _GEOM, [1.0, -1.0, 1.0, 1.0], 1),
    lambda: GlueInstance("SUP_INT", _BAND, _BAND, power(1, 1), {"beta": "x"}),
    lambda: GlueInstance("SUP_INT", _BAND, _BAND, power(1, 1), {"beta": None}),
    lambda: Candidate("nope", ()).build(),
    lambda: Candidate("head", ()).build(),
    lambda: Candidate("band", (1.0,)).build(),
    lambda: Candidate("bump", (1.0, 2.0)).build(),
    lambda: Candidate("step", ((1.0, 2.0),)).build(),
    lambda: Candidate("decay", (1.0,)).build(),
], ids=["cover-direction", "geometric-direction", "equiv-lemma", "equiv-lengths",
        "equiv-negative", "glue-exponent-text", "glue-exponent-none", "candidate-kind",
        "candidate-head-arity", "candidate-band-arity", "candidate-bump-arity",
        "candidate-step-arity", "candidate-decay-arity"])
def test_public_entry_points_raise_spec_invalid(call):
    with pytest.raises(SpecInvalid):
        call()
