"""Log-space grid helpers: integrals, edge estimates, suprema."""

import math
import warnings

import numpy as np
import pytest

from cescop import grids
from cescop.errors import NumericOverflow
from cescop.gluing import GLUE_CFG, LEMMAS, glue_eval, random_instance
from cescop.realfun import DEFAULT_CFG, ONE, QuadratureConfig, expfam
from cescop.spaces import SpaceSpec, space_norm

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


# the three kinds of grid a kernel sees: the default window, the glue
# window and a fresh interval grid inside the default window
_WINDOW_GRIDS = {
    "default": lambda: grids.log_nodes(DEFAULT_CFG),
    "glue": lambda: grids.log_nodes(GLUE_CFG),
    "interval": lambda: grids.log_nodes(DEFAULT_CFG, 1e-3, 50.0),
}


def _hostile_rows(s):
    """Log-values with -inf runs, +inf and NaN, inside and at both edges."""
    n = s.size
    rows = []
    for slope in (-1.5, -0.5, 0.0, 0.5, 1.5):
        li = slope * s + 0.3 * np.sin(3.0 * s)
        li[n // 7:n // 7 + 25] = -math.inf
        li[n // 2] = math.inf
        li[2 * n // 3] = math.nan
        rows.append(li)
    rows.append(np.where((s > -2.0) & (s < 3.0), -np.abs(s), -math.inf))
    edge = -np.abs(s)
    edge[0], edge[-1] = math.inf, math.nan
    rows.append(edge)
    edge = -np.abs(s)
    edge[:3], edge[-5:] = -math.inf, math.inf
    rows.append(edge)
    rows.append(np.full(n, -math.inf))
    rows.append(-np.abs(s) - 700.0)
    return rows


@pytest.mark.parametrize("grid", sorted(_WINDOW_GRIDS))
def test_suffix_cumtrapz_matches_the_reversed_forward_sum(grid):
    s, _ = _WINDOW_GRIDS[grid]()
    for li in _hostile_rows(s):
        for lt in (-math.inf, -3.0, 2.5, math.inf, math.nan):
            old = grids.log_cumtrapz(li[::-1], -s[::-1], lt)[::-1]
            new = grids.log_suffix_cumtrapz(li, s, lt)
            assert np.array_equal(new, old, equal_nan=True)


def test_running_sums_over_a_nan_emit_no_warning():
    s, _ = grids.log_nodes(CFG)
    k = s.size // 2
    li = -np.abs(s)
    li[k] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        head = grids.log_cumtrapz(li, s)
        tail = grids.log_suffix_cumtrapz(li, s)
    # the panels k - 1 and k touch the NaN node; the sums short of them stay finite
    assert np.all(np.isfinite(head[1:k])) and np.all(np.isnan(head[k:]))
    assert np.all(np.isfinite(tail[k + 1:-1])) and np.all(np.isnan(tail[:k]))


@pytest.mark.parametrize("grid", sorted(_WINDOW_GRIDS))
def test_window_constants_match_a_fresh_computation(grid):
    s, t = _WINDOW_GRIDS[grid]()
    fresh_s, fresh_t = s.copy(), t.copy()
    assert fresh_s.flags.writeable and fresh_t.flags.writeable
    lw = grids._log_half_widths(s)
    assert np.array_equal(lw, np.log(np.diff(fresh_s) / 2.0))
    assert np.array_equal(grids.log_t(t), np.log(fresh_t))
    for li in _hostile_rows(s):
        assert np.array_equal(grids._panel_logmass(li, lw),
                              grids._panel_logmass(li, grids._log_half_widths(fresh_s)),
                              equal_nan=True)
    if grid != "interval":
        assert not lw.flags.writeable and not grids.log_t(t).flags.writeable


@pytest.mark.parametrize("grid", sorted(_WINDOW_GRIDS))
def test_one_row_edge_estimate_matches_the_row_path(grid):
    s, _ = _WINDOW_GRIDS[grid]()
    n = s.size
    for li in _hostile_rows(s) + list(_rows(s)):
        # lo, hi: the columns li holds, some leaving out an edge node or
        # the node one decade inside
        for lo, hi in ((0, n), (3, n), (0, n - 2), (n // 3, n), (0, n // 2), (5, n - 5)):
            part = li[lo:hi]
            for left in (True, False):
                one = grids._edge_estimate(part, s, left, lo)
                # rows read one -inf for all when neither node is a column
                row = np.broadcast_to(grids._edge_estimate(part[None], s, left, lo), 1)[0]
                assert np.array_equal(one, row, equal_nan=True), (lo, hi, left)
                assert type(one) in (float, np.float64)


def test_one_row_edge_estimate_takes_the_rows_log():
    # math.log and np.log differ in the last bit on a few rates in 10^4,
    # so a sweep of rates sees a one-row path that leaves np.log
    s, _ = grids.log_nodes(GLUE_CFG)
    n = s.size
    span = min(n - 1, max(4, int(round((n - 1) * grids.LOG10 / (s[-1] - s[0])))))
    d = s[span] - s[0]
    rates = np.exp(np.random.default_rng(0).uniform(-15.0, 4.0, 50000))
    rows = np.zeros((rates.size, span + 1))
    for left, lo, inner in ((True, 0, span), (False, n - 1 - span, 0)):
        rows[:, inner] = rates * d
        whole = grids._edge_estimate(rows, s, left, lo)
        one = [grids._edge_estimate(r, s, left, lo) for r in rows]
        assert np.array_equal(whole, one)
        rows[:, inner] = 0.0


def test_window_caches_hold_one_entry_per_window(monkeypatch):
    monkeypatch.setattr(grids, "_WINDOWS", {})
    spec = SpaceSpec("ces", (1, 2), (expfam(1.0, 0.0, -1.0),
                                     ONE), validate=False)
    small = QuadratureConfig(S=10.0, sup_grid=16)
    insts = [random_instance(lem, np.random.default_rng((3, k)))
             for k, lem in enumerate(LEMMAS)]
    for _ in range(3):
        for inst in insts:
            glue_eval(inst)
        for cfg in (small, CFG):
            space_norm(spec, expfam(1.0, 1.0, -1.0), cfg)
            s, t = grids.log_nodes(cfg)
            cols = np.arange(5, s.size // 2)
            lf = np.full(s.size, -math.inf)
            lf[cols] = -np.abs(s[cols])
            lk = grids.log_kernel(s[:, None], s[cols])
            grids.log_row_reduce(lk, lf, s, 1.0, cols)
            sub, tsub = grids.log_nodes(cfg, 1e-2, 1e2)
            grids.log_integral(grids.log_t(tsub) - tsub + sub, sub)
            grids.log_cumint(-np.abs(sub), sub, head=False)
    used = {(c.S, c.sup_grid) for c in (GLUE_CFG, small, CFG)}
    assert set(grids._WINDOWS) == used
    caches = [v for name, v in vars(grids).items()
              if isinstance(v, dict) and not name.startswith("__")]
    assert caches and all(len(c) == len(used) for c in caches)
    for win in grids._WINDOWS.values():
        assert not any(arr.flags.writeable for arr in win)
