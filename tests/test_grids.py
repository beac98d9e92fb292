"""Log-space grid helpers: integrals, edge estimates, suprema."""

import math

import numpy as np
import pytest

from cescop import grids
from cescop.errors import NumericOverflow
from cescop.realfun import QuadratureConfig

CFG = QuadratureConfig(S=12.0, sup_grid=32)


def _rows(s):
    """Rows with convergent, divergent, flat, vanishing and edge-infinite ends."""
    rows = [slope * s + c for slope in (-2.0, -0.5, 0.0, 0.5, 2.0) for c in (-3.0, 4.0)]
    rows.append(-np.abs(s) * 1.5)
    rows.append(np.where(s < 0.0, -math.inf, -s))       # zero on the left half
    rows.append(np.where(s > 2.0, -math.inf, s))        # zero on the right end
    rows.append(np.full_like(s, -math.inf))             # the zero function
    inf_edge = -np.abs(s)
    inf_edge[0] = inf_edge[-1] = math.inf
    rows.append(inf_edge)
    return np.array(rows)


def test_2d_rows_match_1d_bit_for_bit():
    s, _ = grids.log_nodes(CFG)
    rows = _rows(s)
    for head in (False, True):
        for tail in (False, True):
            whole = grids.log_integral(rows, s, head=head, tail=tail)
            each = [grids.log_integral(r, s, head=head, tail=tail) for r in rows]
            np.testing.assert_array_equal(whole, each)
    for estimate in (grids.log_head_estimate, grids.log_tail_estimate):
        np.testing.assert_array_equal(estimate(rows, s), [estimate(r, s) for r in rows])


def test_edge_estimates_follow_the_power_law():
    s, _ = grids.log_nodes(CFG)
    # e^{2s} on (-inf, s_0) integrates to e^{2 s_0} / 2; e^{-2s} likewise on the right
    assert grids.log_head_estimate(2.0 * s, s) == pytest.approx(2.0 * s[0] - math.log(2.0))
    assert grids.log_tail_estimate(-2.0 * s, s) == pytest.approx(-2.0 * s[-1] - math.log(2.0))
    assert grids.log_head_estimate(-2.0 * s, s) == math.inf
    assert grids.log_tail_estimate(np.zeros_like(s), s) == math.inf
    assert grids.log_head_estimate(np.where(s < 0, -math.inf, 0.0), s) == -math.inf


def test_log_cumint_ends_at_log_integral():
    s, _ = grids.log_nodes(CFG)
    li = -np.abs(s)
    head = grids.log_cumint(li, s, head=True)
    tail = grids.log_cumint(li, s, head=False)
    assert head[-1] == pytest.approx(grids.log_integral(li, s, tail=False), abs=1e-12)
    assert tail[0] == pytest.approx(grids.log_integral(li, s, head=False), abs=1e-12)
    assert np.all(np.diff(head) >= 0) and np.all(np.diff(tail) <= 0)


def test_log_sup_edge_divergence():
    s, _ = grids.log_nodes(CFG)
    rising, falling = 0.5 * s, -0.5 * s
    assert grids.log_sup(rising, s) == math.inf
    assert grids.log_sup(falling, s) == math.inf
    assert grids.log_sup(rising, s, open_hi=False) == rising[-1]
    assert grids.log_sup(falling, s, open_lo=False) == falling[0]
    assert grids.log_sup(-np.abs(s - 1.0), s) == pytest.approx(0.0, abs=0.05)
    assert grids.log_sup(np.full_like(s, -math.inf), s) == -math.inf
    # a lone finite value at the edge gives no slope to extrapolate
    lone = np.full_like(s, -math.inf)
    lone[-1] = 3.0
    assert grids.log_sup(lone, s) == 3.0


def test_zero_wins_and_from_log():
    lv = grids.log_mul(np.array([math.inf, -math.inf, 1.0]), np.array([-math.inf, 0.0, 1.0]))
    np.testing.assert_array_equal(lv, [-math.inf, -math.inf, 2.0])
    assert grids.from_log(-math.inf) == 0.0
    assert grids.from_log(math.inf) == math.inf
    assert grids.from_log(1.0) == math.exp(1.0)
    with pytest.raises(NumericOverflow):
        grids.from_log(710.0)


def test_log_kernel_splits_evenly_where_undetermined():
    inf = math.inf
    lx = np.array([0.0, 0.0, -inf, -inf, inf, inf, 1.0])
    lt = np.array([0.0, -inf, 0.0, -inf, inf, 0.0, inf])
    half = math.log(0.5)
    np.testing.assert_array_equal(grids.log_kernel(lx, lt),
                                  [half, 0.0, -inf, half, half, half, -inf])
    # broadcasting: rows x against columns t
    la = np.log(np.array([1.0, 2.0, 4.0]))
    k = np.exp(grids.log_kernel(la[:, None], la))
    np.testing.assert_allclose(k + k.T, 1.0, rtol=1e-15)


def test_log_row_reduce_sup_and_integral():
    s, _ = grids.log_nodes(CFG)
    lk = np.stack([np.zeros_like(s), np.full_like(s, math.log(0.5))])
    lf = -np.abs(s)
    np.testing.assert_array_equal(grids.log_row_reduce(lk, lf, s),
                                  [0.0, math.log(0.5)])
    # a zero kernel against an infinite value (0 * inf) does not count
    np.testing.assert_array_equal(
        grids.log_row_reduce(np.array([-math.inf, 0.0]), np.array([math.inf, 1.0]),
                             s[:2]), 1.0)
    # int K^2 f dt with K = 1/2 is a quarter of int f dt
    whole = grids.log_integral(lf + s, s)
    np.testing.assert_allclose(grids.log_row_reduce(lk, lf, s, 2.0),
                               [whole, whole + 2.0 * math.log(0.5)], rtol=1e-14)


@pytest.mark.parametrize("e", [None, 0.5, 2.0])
def test_log_row_reduce_on_columns_matches_full_width(e):
    # lf vanishes off its columns: two bumps, one touching each window end
    s, _ = grids.log_nodes(CFG)
    la = 0.7 * s
    lk = grids.log_kernel(la[:, None], la)
    n = s.size
    for kept in ([], [0], [n - 1], [5], list(range(0, 9)) + list(range(n - 12, n)),
                 list(range(20, 60)) + list(range(90, 95))):
        cols = np.array(kept, dtype=np.intp)
        lf = np.full(n, -math.inf)
        lf[cols] = -np.abs(s[cols]) + 1.0
        np.testing.assert_array_equal(
            grids.log_row_reduce(lk[:, cols], lf, s, e, cols),
            grids.log_row_reduce(lk, lf, s, e))


def test_log_row_reduce_on_columns_keeps_an_all_nan_sup():
    # a zero kernel row against f = inf on every node has only 0 * inf terms
    lk = np.full((2, 3), -math.inf)
    lk[1, 0] = 0.0
    lf = np.full(3, math.inf)
    full = grids.log_row_reduce(lk, lf, np.arange(3.0))
    np.testing.assert_array_equal(full, [math.nan, math.inf])
    np.testing.assert_array_equal(
        grids.log_row_reduce(lk, lf, np.arange(3.0), None, np.arange(3)), full)


def test_log_cumnorm():
    s, _ = grids.log_nodes(CFG)
    lf = -np.abs(s)
    np.testing.assert_array_equal(grids.log_cumnorm(lf, s, 1.0, head=True),
                                  grids.log_cumint(lf + s, s, head=True))
    np.testing.assert_array_equal(grids.log_cumnorm(lf, s, math.inf, head=False),
                                  grids.suffix_logmax(lf))
    # ||f||_{2,(0,t)}^2 = int_0^t f^2
    l2 = grids.log_cumnorm(lf, s, 2.0, head=True)
    np.testing.assert_allclose(2.0 * l2, grids.log_cumint(2.0 * lf + s, s, head=True),
                               rtol=1e-14)


def test_full_window_nodes_are_built_once_and_read_only():
    s, t = grids.log_nodes(CFG)
    assert grids.log_nodes(CFG)[0] is s and grids.log_nodes(CFG)[1] is t
    assert not s.flags.writeable and not t.flags.writeable
    np.testing.assert_array_equal(s, np.linspace(-CFG.S, CFG.S, s.size))
    np.testing.assert_array_equal(t, np.exp(s))
    with pytest.raises(ValueError):
        s[0] = 0.0
    # an interval inside the window gets fresh arrays every call
    sub, _ = grids.log_nodes(CFG, 1.0, 10.0)
    assert sub.flags.writeable and grids.log_nodes(CFG, 1.0, 10.0)[0] is not sub
