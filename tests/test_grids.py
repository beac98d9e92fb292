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
    with np.errstate(invalid="ignore"):
        lv = grids.zero_wins(np.array([math.inf, -math.inf, 1.0]) + np.array([-math.inf, 0.0, 1.0]))
    np.testing.assert_array_equal(lv, [-math.inf, -math.inf, 2.0])
    assert grids.from_log(-math.inf) == 0.0
    assert grids.from_log(math.inf) == math.inf
    assert grids.from_log(1.0) == math.exp(1.0)
    with pytest.raises(NumericOverflow):
        grids.from_log(710.0)
