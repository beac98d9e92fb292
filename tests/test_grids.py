"""Log-space grid helpers: integrals, edge estimates, suprema."""

import math
import sys
import warnings

import numpy as np
import pytest

from cescop import grids
from cescop.errors import NumericOverflow
from cescop.gluing import GLUE_CFG, LEMMAS, glue_eval, random_instance
from cescop.realfun import DEFAULT_CFG, ONE, QuadratureConfig, expfam
from cescop.spaces import SpaceSpec, space_norm

CFG = QuadratureConfig(S=12.0, sup_grid=32)


def _grid(s):
    """A Grid on the nodes s, open at both ends, with its constants computed
    afresh."""
    hw, n = np.diff(s) / 2.0, s.size
    d = min(n - 1, 4)
    return grids.Grid(s, np.exp(s), hw, np.log(hw), ((0, d), (n - 1, n - 1 - d)), True, True)


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
    g = grids.log_nodes(CFG)
    rows = _rows(g.s)
    for head in (False, True):
        for tail in (False, True):
            ends = g._replace(open_lo=head, open_hi=tail)
            whole = grids.log_integral(rows, ends)
            each = [grids.log_integral(r, ends) for r in rows]
            np.testing.assert_array_equal(whole, each)
    for estimate in (grids.log_head_estimate, grids.log_tail_estimate):
        np.testing.assert_array_equal(estimate(rows, g), [estimate(r, g) for r in rows])


def test_edge_estimates_follow_the_power_law():
    g = grids.log_nodes(CFG)
    s = g.s
    # e^{2s} on (-inf, s_0) integrates to e^{2 s_0} / 2; e^{-2s} likewise on the right
    assert grids.log_head_estimate(2.0 * s, g) == pytest.approx(2.0 * s[0] - math.log(2.0))
    assert grids.log_tail_estimate(-2.0 * s, g) == pytest.approx(-2.0 * s[-1] - math.log(2.0))
    assert grids.log_head_estimate(-2.0 * s, g) == math.inf
    assert grids.log_tail_estimate(np.zeros_like(s), g) == math.inf
    assert grids.log_head_estimate(np.where(s < 0, -math.inf, 0.0), g) == -math.inf


def test_log_cumint_ends_at_log_integral():
    g = grids.log_nodes(CFG)
    li = -np.abs(g.s)
    head = grids.log_cumint(li, g, head=True)
    tail = grids.log_cumint(li, g, head=False)
    assert head[-1] == pytest.approx(grids.log_integral(li, g._replace(open_hi=False)),
                                     abs=1e-12)
    assert tail[0] == pytest.approx(grids.log_integral(li, g._replace(open_lo=False)),
                                    abs=1e-12)
    assert np.all(np.diff(head) >= 0) and np.all(np.diff(tail) <= 0)


def test_log_sup_edge_divergence():
    g = grids.log_nodes(CFG)
    s = g.s
    rising, falling = 0.5 * s, -0.5 * s
    assert grids.log_sup(rising, g) == math.inf
    assert grids.log_sup(falling, g) == math.inf
    assert grids.log_sup(rising, g._replace(open_hi=False)) == rising[-1]
    assert grids.log_sup(falling, g._replace(open_lo=False)) == falling[0]
    assert grids.log_sup(-np.abs(s - 1.0), g) == pytest.approx(0.0, abs=0.05)
    assert grids.log_sup(np.full_like(s, -math.inf), g) == -math.inf
    # a lone finite value at the edge gives no slope to extrapolate
    lone = np.full_like(s, -math.inf)
    lone[-1] = 3.0
    assert grids.log_sup(lone, g) == 3.0


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


def full_width_reduce(lk, lf, g, e=None):
    """The row sup (e None) or the row integral of K^e f, from the kernel
    rows lk on every node: the rule SupportColumns matches bit for bit."""
    if e is None:
        with np.errstate(invalid="ignore"):
            return np.fmax.reduce(lk + lf, axis=-1)
    return grids.log_integral(e * lk + lf + g.s, g)


def _support_reduce(lk, lf, g, e=None):
    """SupportColumns(lf, g, e) on the full-width kernel rows lk."""
    side = grids.SupportColumns(lf, g, e)
    return side.reduce(lk[..., side.cols])


def test_log_row_reduce_sup_and_integral():
    g = grids.log_nodes(CFG)
    s = g.s
    lk = np.stack([np.zeros_like(s), np.full_like(s, math.log(0.5))])
    lf = -np.abs(s)
    for reduce in (full_width_reduce, _support_reduce):
        np.testing.assert_array_equal(reduce(lk, lf, g), [0.0, math.log(0.5)])
        # a zero kernel against an infinite value (0 * inf) does not count
        np.testing.assert_array_equal(
            reduce(np.array([-math.inf, 0.0]), np.array([math.inf, 1.0]), _grid(s[:2])), 1.0)
        # int K^2 f dt with K = 1/2 is a quarter of int f dt
        whole = grids.log_integral(lf + s, g)
        np.testing.assert_allclose(reduce(lk, lf, g, 2.0),
                                   [whole, whole + 2.0 * math.log(0.5)], rtol=1e-14)


@pytest.mark.parametrize("e", [None, 0.5, 1.0, 2.0])
def test_log_row_reduce_on_columns_matches_full_width(e):
    # lf vanishes off its columns: two bumps, one touching each window end
    g = grids.log_nodes(CFG)
    s = g.s
    la = 0.7 * s
    lk = grids.log_kernel(la[:, None], la)
    n, d = s.size, g.edges[0][1]
    half = n // 2
    # both fit nodes of one edge and nothing else, then only the inner one:
    # a row takes an edge estimate only where its columns hold both; then
    # runs that hold both fit nodes of an edge, or only one of them
    for kept in ([], [0], [n - 1], [5], list(range(0, 9)) + list(range(n - 12, n)),
                 list(range(20, 60)) + list(range(90, 95)),
                 [0, d], [n - 1 - d, n - 1], [d], [n - 1 - d],
                 list(range(0, d + 1)), list(range(n - 1 - d, n)),
                 list(range(0, d + 1)) + list(range(n - 1 - d, n)),
                 list(range(3, d + 3)), list(range(n - 3 - d, n - 3)),
                 list(range(d - 2, d + 5)) + list(range(n - 1 - d, n - 1))):
        cols = np.array(kept, dtype=np.intp)
        lf = np.full(n, -math.inf)
        lf[cols] = -np.abs(s[cols]) + 1.0
        prep = grids.SupportColumns(lf, g, e)
        np.testing.assert_array_equal(prep.cols, cols)
        part = prep.reduce(lk[:, cols])
        full = full_width_reduce(lk, lf, g, e)
        np.testing.assert_array_equal(part, full)
        assert part.tobytes() == full.tobytes(), kept
        # one preparation reduces the rows in any number of blocks
        blocks = [prep.reduce(lk[rows][:, cols]) for rows in (slice(0, half), slice(half, n))]
        assert np.concatenate(blocks).tobytes() == full.tobytes(), kept
        one = prep.reduce(lk[half, cols])
        assert np.asarray(one).tobytes() == full[half:half + 1].tobytes(), kept


def test_a_row_takes_an_edge_estimate_only_where_it_holds_both_fit_nodes(monkeypatch):
    g = grids.log_nodes(CFG)
    s = g.s
    n, d = s.size, g.edges[0][1]
    taken = []
    estimate = grids._edge_estimate
    monkeypatch.setattr(grids, "_edge_estimate",
                        lambda li, g, left, lo=0: taken.append(left) or estimate(li, g, left, lo))
    lk = grids.log_kernel(s[:, None], s)
    for kept, want in (([0, d], [True]), ([n - 1 - d, n - 1], [False]),
                       ([0, d, n - 1 - d, n - 1], [True, False]),
                       ([d], []), ([n - 1 - d], []),
                       # the row also holds the node on each side of its columns
                       ([0, d - 2], []), ([2, n - 3], [])):
        cols = np.array(kept, dtype=np.intp)
        lf = np.full(n, -math.inf)
        lf[cols] = 0.0
        taken.clear()
        grids.SupportColumns(lf, g, 1.0).reduce(lk[:, cols])
        assert taken == want, kept


def test_log_row_reduce_on_columns_keeps_an_all_nan_sup():
    # a zero kernel row against f = inf on every node has only 0 * inf terms
    lk = np.full((2, 3), -math.inf)
    lk[1, 0] = 0.0
    lf = np.full(3, math.inf)
    g = _grid(np.arange(3.0))
    full = full_width_reduce(lk, lf, g)
    np.testing.assert_array_equal(full, [math.nan, math.inf])
    np.testing.assert_array_equal(_support_reduce(lk, lf, g), full)


def test_log_cumnorm():
    g = grids.log_nodes(CFG)
    s = g.s
    lf = -np.abs(s)
    np.testing.assert_array_equal(grids.log_cumnorm(lf, g, 1.0, head=True),
                                  grids.log_cumint(lf + s, g, head=True))
    np.testing.assert_array_equal(grids.log_cumnorm(lf, g, math.inf, head=False),
                                  grids.suffix_logmax(lf))
    # ||f||_{2,(0,t)}^2 = int_0^t f^2
    l2 = grids.log_cumnorm(lf, g, 2.0, head=True)
    np.testing.assert_allclose(2.0 * l2, grids.log_cumint(2.0 * lf + s, g, head=True),
                               rtol=1e-14)


def test_full_window_nodes_are_built_once_and_read_only():
    g = grids.log_nodes(CFG)
    s, t = g.s, g.t
    assert grids.log_nodes(CFG)[0] is s and grids.log_nodes(CFG)[1] is t
    assert not s.flags.writeable and not t.flags.writeable
    assert grids.log_nodes(CFG) is g
    assert not g.half_widths.flags.writeable and not g.log_half_widths.flags.writeable
    np.testing.assert_array_equal(s, np.linspace(-CFG.S, CFG.S, s.size))
    np.testing.assert_array_equal(t, np.exp(s))
    with pytest.raises(ValueError):
        s[0] = 0.0
    # an interval inside the window gets fresh arrays every call
    sub = grids.log_nodes(CFG, 1.0, 10.0).s
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
    g = _WINDOW_GRIDS[grid]()
    s = g.s
    mirror = _grid(-s[::-1])
    for li in _hostile_rows(s):
        for lt in (-math.inf, -3.0, 2.5, math.inf, math.nan):
            old = grids.log_cumtrapz(li[::-1], mirror, lt)[::-1]
            new = grids.log_suffix_cumtrapz(li, g, lt)
            assert np.array_equal(new, old, equal_nan=True)


def test_running_sums_over_a_nan_emit_no_warning():
    g = grids.log_nodes(CFG)
    k = g.s.size // 2
    li = -np.abs(g.s)
    li[k] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        head = grids.log_cumtrapz(li, g)
        tail = grids.log_suffix_cumtrapz(li, g)
    # the panels k - 1 and k touch the NaN node; the sums short of them stay finite
    assert np.all(np.isfinite(head[1:k])) and np.all(np.isnan(head[k:]))
    assert np.all(np.isfinite(tail[k + 1:-1])) and np.all(np.isnan(tail[:k]))


@pytest.mark.parametrize("grid", sorted(_WINDOW_GRIDS))
def test_window_constants_match_a_fresh_computation(grid):
    g = _WINDOW_GRIDS[grid]()
    s, t = g.s, g.t
    fresh_s, fresh_t = s.copy(), t.copy()
    assert fresh_s.flags.writeable and fresh_t.flags.writeable
    lw = g.log_half_widths
    assert np.array_equal(lw, np.log(np.diff(fresh_s) / 2.0))
    assert np.array_equal(g.half_widths, np.diff(fresh_s) / 2.0)
    assert np.array_equal(grids.log_t(t), np.log(fresh_t))
    for li in _hostile_rows(s):
        assert np.array_equal(grids._panel_logmass(li, lw),
                              grids._panel_logmass(li, _grid(fresh_s).log_half_widths),
                              equal_nan=True)
    if grid != "interval":
        assert not lw.flags.writeable and not grids.log_t(t).flags.writeable


@pytest.mark.parametrize("grid", sorted(_WINDOW_GRIDS))
def test_one_row_edge_estimate_matches_the_row_path(grid):
    g = _WINDOW_GRIDS[grid]()
    s = g.s
    n = s.size
    for li in _hostile_rows(s) + list(_rows(s)):
        # lo, hi: the columns li holds, some leaving out an edge node or
        # the node one decade inside
        for lo, hi in ((0, n), (3, n), (0, n - 2), (n // 3, n), (0, n // 2), (5, n - 5)):
            part = li[lo:hi]
            for left in (True, False):
                one = grids._edge_estimate(part, g, left, lo)
                # rows read one -inf for all when neither node is a column
                row = np.broadcast_to(grids._edge_estimate(part[None], g, left, lo), 1)[0]
                assert np.array_equal(one, row, equal_nan=True), (lo, hi, left)
                assert type(one) in (float, np.float64)


@pytest.mark.parametrize("grid", sorted(_WINDOW_GRIDS))
def test_one_row_reduces_as_its_row_in_a_block(grid):
    g = _WINDOW_GRIDS[grid]()
    s = g.s
    n = s.size
    rows = _hostile_rows(s) + list(_rows(s))
    block = np.array(rows)
    lm_block = grids._panel_logmass(block, g.log_half_widths)
    for i, li in enumerate(rows):
        for head in (True, False):
            for tail in (True, False):
                ends = g._replace(open_lo=head, open_hi=tail)
                assert np.array_equal(grids.log_integral(li, ends),
                                      grids.log_integral(block, ends)[i],
                                      equal_nan=True), (i, head, tail)
        lm = grids._panel_logmass(li, g.log_half_widths)
        assert np.array_equal(grids._logsumexp_last(lm), grids._logsumexp_last(lm_block)[i],
                              equal_nan=True), i
        # lo, hi: the panels lm holds; the others are laid out as zeros.
        # The columns lo ... hi of li hold both fit nodes of an edge, or
        # stop one node inside one of them
        d = g.edges[0][1]
        for lo, hi in ((0, n - 1), (3, n - 1), (0, n // 2), (n // 3, n - 6),
                       (0, d), (0, d - 1), (1, n - 1), (n - 1 - d, n - 1),
                       (n - d, n - 1), (0, n - 2)):
            one = grids._logsumexp_last(lm[lo:hi], lo, n - 1)
            row = grids._logsumexp_last(lm_block[:, lo:hi], lo, n - 1)[i]
            assert np.array_equal(one, row, equal_nan=True), (i, lo, hi)
            one = grids.log_integral(li[lo:hi + 1], g, lo)
            row = grids.log_integral(block[:, lo:hi + 1], g, lo)[i]
            assert np.array_equal(one, row, equal_nan=True), (i, lo, hi)


def test_log_mul_leaves_its_arguments_unchanged():
    inf = math.inf
    a = np.array([inf, -inf, 1.0, math.nan])
    b = np.array([-inf, 0.0, 1.0, 2.0])
    c = np.array([0.5, inf, -inf, 0.0])
    for parts, want in (((a,), [inf, -inf, 1.0, -inf]),
                        ((a, b), [-inf, -inf, 2.0, -inf]),
                        ((a, b, c), [-inf, -inf, -inf, -inf]),
                        ((b, 1.0), [-inf, 1.0, 2.0, 3.0])):
        before = [np.copy(p) for p in parts]
        out = grids.log_mul(*parts)
        np.testing.assert_array_equal(out, want)
        for p, p0 in zip(parts, before):
            assert np.array_equal(p, p0, equal_nan=True) and out is not p
    # scalars give a 0-d array, as a sum of 0-d arrays would
    assert grids.log_mul(inf, -inf).shape == () and grids.log_mul(inf, -inf) == -inf


def test_one_row_edge_estimate_takes_the_rows_log():
    # math.log and np.log differ in the last bit on a few rates in 10^4,
    # so a sweep of rates sees a one-row path that leaves np.log
    g = grids.log_nodes(GLUE_CFG)
    s = g.s
    n = s.size
    span = min(n - 1, max(4, int(round((n - 1) * grids.LOG10 / (s[-1] - s[0])))))
    assert g.edges == ((0, span), (n - 1, n - 1 - span))
    d = s[span] - s[0]
    rates = np.exp(np.random.default_rng(0).uniform(-15.0, 4.0, 50000))
    rows = np.zeros((rates.size, span + 1))
    for left, lo, inner in ((True, 0, span), (False, n - 1 - span, 0)):
        rows[:, inner] = rates * d
        whole = grids._edge_estimate(rows, g, left, lo)
        one = [grids._edge_estimate(r, g, left, lo) for r in rows]
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
            g = grids.log_nodes(cfg)
            s = g.s
            cols = np.arange(5, s.size // 2)
            lf = np.full(s.size, -math.inf)
            lf[cols] = -np.abs(s[cols])
            lk = grids.log_kernel(s[:, None], s[cols])
            grids.SupportColumns(lf, g, 1.0).reduce(lk)
            sub = grids.log_nodes(cfg, 1e-2, 1e2)
            grids.log_integral(grids.log_t(sub.t) - sub.t + sub.s, sub)
            grids.log_cumint(-np.abs(sub.s), sub, head=False)
    used = {(c.S, c.sup_grid) for c in (GLUE_CFG, small, CFG)}
    assert set(grids._WINDOWS) == used
    caches = [v for name, v in vars(grids).items()
              if isinstance(v, dict) and not name.startswith("__")]
    assert caches and all(len(c) == len(used) for c in caches)
    for win, lt in grids._WINDOWS.values():
        assert not any(arr.flags.writeable for arr in (*win, lt) if isinstance(arr, np.ndarray))
        n = win.s.size
        span = round((n - 1) * grids.LOG10 / (win.s[-1] - win.s[0]))
        d = min(n - 1, max(4, span))
        assert win.edges == ((0, d), (n - 1, n - 1 - d))


@pytest.mark.parametrize("grid", ["default", "glue"])
def test_scaled_rules_lie_within_their_bounds_of_the_log_rules(grid):
    # rows whose log range runs past 1400, with -inf runs, +inf and NaN
    g = _WINDOW_GRIDS[grid]()
    s, t = g.s, g.t
    wide = [-t, 2.0 * s - t, np.where(s < 0.0, -math.inf, -40.0 * np.abs(s)),
            np.where(s > 1.0, -math.inf, 60.0 * s), -np.exp(np.abs(s))]
    left, right = g.edges
    for li in _hostile_rows(s) + list(_rows(s)) + wide:
        for head in (True, False):
            res = grids._scaled_cumint(li, g, head)
            if res is None:  # a +inf or NaN, and no divergent edge
                assert not np.max(li) < math.inf
                continue
            lc, (a, b), low = res
            with np.errstate(invalid="ignore"):
                exact = grids.log_cumint(li, g, head)
            assert np.array_equal(np.isneginf(lc), np.isneginf(exact))
            assert np.array_equal(np.isposinf(lc), np.isposinf(exact))
            fin = np.isfinite(exact) & ~low
            assert np.all(np.abs(lc[fin] - exact[fin]) <= a * np.abs(lc[fin]) + b)
            assert np.all(lc[low] >= exact[low])
            # an edge-fit node is never a bound: below the floor it is the
            # log rule's own entry
            edge = list(left + right)
            assert not low[edge].any()
            deep = [i for i in edge if exact[i] < np.max(li) + math.log(grids._SCALED_FLOOR)]
            assert np.array_equal(lc[deep], exact[deep])
        if not np.max(li) < math.inf:
            continue
        res = grids._scaled_integral(li, g, np.zeros(s.size), np.zeros(s.size, dtype=bool))
        if res is not None:
            value, bound = res
            exact = float(grids.log_integral(li, g))
            assert abs(value - exact) <= bound  # finite: an exact ±inf is refused


def test_an_upper_entry_off_the_edge_fit_nodes_is_taken():
    # _scaled_cumint never sets low at an edge-fit node (asserted above),
    # which is _scaled_integral's precondition on upper
    g = grids.log_nodes(DEFAULT_CFG)
    n = g.s.size
    li, err, upper = -5.0 * np.abs(g.s), np.zeros(n), np.zeros(n, dtype=bool)
    value, bound = grids._scaled_integral(li, g, err, upper)
    assert abs(value - float(grids.log_integral(li, g))) <= bound
    upper[n // 4] = True  # 60 and more below the max
    assert grids._scaled_integral(li, g, err, upper) is not None


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("grid", ["default", "glue"])
def test_rules_read_the_grid_by_value(grid, monkeypatch):
    # a Grid rebuilt from copies of the window's arrays, read while no
    # window is cached, gives every rule's results bit for bit
    g = _WINDOW_GRIDS[grid]()
    copy = grids.Grid(*(np.array(f) if isinstance(f, np.ndarray) else f for f in g))
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(g[:4], copy[:4]))
    s = g.s
    n = s.size
    la = 0.7 * s
    lk = grids.log_kernel(la[::n // 3, None], la)
    cols = np.arange(n // 5, n // 2)
    wide = [-g.t, np.where(s > 1.0, -math.inf, 60.0 * s)]

    certified = []

    def results(g):
        out = []
        for li in _hostile_rows(s) + list(_rows(s)) + wide:
            off = np.full(n, -math.inf)
            off[cols] = li[cols]
            with np.errstate(invalid="ignore"):
                out += [grids.log_trapz(li, g), grids.log_cumtrapz(li, g, -1.0),
                        grids.log_suffix_cumtrapz(li, g, -1.0),
                        grids.log_head_estimate(li, g), grids.log_tail_estimate(li, g),
                        grids.log_integral(li, g), grids.log_sup(li, g)]
                for head in (True, False):
                    out.append(grids.log_cumint(li, g, head))
                    out += [grids.log_cumnorm(li, g, q, head) for q in (0.5, 1.0, 2.0, math.inf)]
                    res = grids._scaled_cumint(li, g, head)
                    out += [None] if res is None else [res[0], *res[1], res[2]]
                for e in (None, 2.0):
                    out.append(full_width_reduce(lk, li, g, e))
                    out.append(_support_reduce(lk, li, g, e))
                    out.append(_support_reduce(lk, off, g, e))
            if np.max(li) < math.inf:
                zeros = np.zeros(n)
                res = grids._scaled_integral(li, g, zeros, zeros > 0.0)
                out += [None] if res is None else list(res)
                certified.append(res is not None)
        return out

    want = results(g)
    monkeypatch.setattr(grids, "_WINDOWS", {})
    got = results(copy)
    assert len(got) == len(want)
    assert all(_same(a, b) for a, b in zip(got, want))
    assert any(certified)  # the scaled integral certified some of these rows


@pytest.mark.parametrize("lo, hi", [
    (0.0, math.inf), (0.0, 1.0), (1.0, math.inf), (1e-3, 50.0), (0.0, 1e-20),
    (1e20, math.inf), (sys.float_info.max, math.inf)])
def test_an_interval_grid_knows_its_open_ends(lo, hi):
    g = grids.log_nodes(DEFAULT_CFG, lo, hi)
    assert (g.open_lo, g.open_hi) == (lo == 0.0, hi == math.inf)
    assert g[0] is g.s and np.all(np.isfinite(g.t))
    # the integral adds an edge estimate, and the supremum tests for
    # divergence, exactly at the open ends
    li = -np.abs(g.s - np.mean(g.s))
    lh = grids.log_head_estimate(li, g) if g.open_lo else -math.inf
    lt = grids.log_tail_estimate(li, g) if g.open_hi else -math.inf
    assert grids.log_integral(li, g) == np.logaddexp(np.logaddexp(grids.log_trapz(li, g), lh), lt)
    rising = 0.5 * g.s
    assert grids.log_sup(rising, g) == (math.inf if g.open_hi else rising[-1])
    assert grids.log_sup(-rising, g) == (math.inf if g.open_lo else -rising[0])


@pytest.mark.parametrize("cfg", [DEFAULT_CFG, GLUE_CFG, CFG, QuadratureConfig(S=1.0, sup_grid=16)],
                         ids=["default", "glue", "S12", "S1"])
@pytest.mark.parametrize("lo, hi", [
    (0.0, math.inf), (0.0, 1.0), (1.0, math.inf), (1e-3, 50.0), (1e20, math.inf),
    (2.0, 2.0 + 1e-9)])
def test_grid_edges_pair_each_end_with_the_node_a_decade_inside(cfg, lo, hi):
    # the fit nodes d panels inside, d the panels in a decade: at least 4,
    # at most all of them (the S1 window and the sliver (2, 2 + 1e-9))
    g = grids.log_nodes(cfg, lo, hi)
    s, n = g.s, g.s.size
    d = min(n - 1, max(4, int(round((n - 1) * math.log(10.0) / (s[-1] - s[0])))))
    assert g.edges == ((0, d), (n - 1, n - 1 - d))
    assert all(type(i) is int for pair in g.edges for i in pair)


@pytest.mark.parametrize("grid", ["default", "glue"])
def test_rows_on_some_columns_read_as_full_rows(grid):
    # a row that reads -inf off the columns [lo, hi): the scaled rules on
    # the columns (the nodes past hi - 1 as a _Rest) lie within their
    # bounds of the full row's log-space rules
    g = _WINDOW_GRIDS[grid]()
    s, n = g.s, g.s.size
    left, right = g.edges
    spans = [(n // 3, n), (0, 2 * n // 3), (1, n - 1), (n // 3, n // 3 + 5),
             (n - 3, n), (0, 3), (n // 2 - right[1] // 3, n // 2 + right[1] // 3)]
    for li in list(_rows(s)) + [-g.t, 2.0 * s - g.t, 0.5 * np.sin(s) - np.abs(s)]:
        if not np.max(li) < math.inf:
            continue
        for lo, hi in spans:
            row = np.full(n, -math.inf)
            row[lo:hi] = li[lo:hi]
            with np.errstate(invalid="ignore"):
                exact_int = float(grids.log_integral(row, g))
            # one -inf node beyond each cut end, as the screen takes the span
            a, b = max(lo - 1, 0), min(hi + 1, n)
            for head in (True, False):
                res = grids._scaled_cumint(row[a:b], g, head, a)
                with np.errstate(invalid="ignore"):
                    exact = grids.log_cumint(row, g, head)[a:b]
                if res is None or np.isposinf(res[0][0]):
                    assert res is not None or np.isposinf(exact[0])
                    continue
                lc, (ea, eb), low = res
                assert np.array_equal(np.isneginf(lc), np.isneginf(exact))
                fin = np.isfinite(exact) & ~low
                assert np.all(np.abs(lc[fin] - exact[fin]) <= ea * np.abs(lc[fin]) + eb)
            zeros = np.zeros(b - a)
            res = grids._scaled_integral(row[a:b], g, zeros, zeros > 0.0, a)
            if res is not None:
                assert abs(res[0] - exact_int) <= res[1]
            if b == n:
                continue
            # the same row with everything from node b - 1 on given by its sums
            j = b - 1
            log_sum = float(grids.log_suffix_cumtrapz(row, g)[j])
            if log_sum == -math.inf:
                continue
            at = {k: (float(row[k]), 0.0) for k in left + right if k > j}
            rest = grids._Rest(log_sum, 1e-12, float(np.max(row[j:])), 0.0, at)
            res = grids._scaled_integral(row[a:b], g, zeros, zeros > 0.0, a, rest)
            if res is not None:
                assert abs(res[0] - exact_int) <= res[1]
