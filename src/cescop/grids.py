"""Log-domain grid machinery.

Everything on (0, inf) is handled through the substitution t = e^s.  All
accumulation happens on log-values, so products of rapidly growing and
decaying factors (t^a * e^{b t} and friends) never overflow before they
cancel.  Integrals outside the working window [e^-S, e^S] are estimated
by fitting a local power law at the window edges.

This module is the one home of every log-space rule the other modules
use: the integral with its edge estimates (``log_integral``), its
cumulative form (``log_cumint``) and the cumulative q-norm built on it
(``log_cumnorm``), the supremum with its edge-divergence test
(``log_sup``), the two-sided kernel a(x)/(a(x)+a(t)) (``log_kernel``)
and the row sup or integral against it (``SupportColumns``), the
product of log factors under the 0 * inf = 0 rule (``log_mul``) and the
step back from a log-value to a number (``from_log``).

Quantities are nonnegative extended reals with 1/inf = 0 and 1/0 = inf,
so degenerate head and tail integrals drop out of sums, not into NaNs.

``log_nodes`` returns a ``Grid``, which every rule takes: the nodes s
and t = e^s with the panel half-widths diff(s) / 2 and their logs, which
every trapezoid panel mass multiplies or adds, the edge-fit node pairs
(edge node, the node one decade inside), and which ends are open (0 or inf),
where integrals add an edge estimate and the supremum tests divergence.
The full window of each (S, sup_grid) is built once, as read-only
arrays, with its log t.  ``log_t`` is the one lookup by array identity,
since the elementary functions are handed a bare t.

A single row (1-D) is reduced on scalars, without the masks a block of
rows needs; it reads bit for bit as the same row inside a 2-D block.

A row on part of the window has one form: the columns lo, lo + 1, ...
of the window's nodes, every other node reading -inf.
``log_integral`` and ``_edge_estimate`` take it for the support
columns of a row reduction, and the scaled rules below for a screen's
span; every other rule reads the whole window.  Such a row takes an
edge estimate only on a side where its columns hold both fit nodes:
with either one off the columns the estimate is -inf, and adding -inf
changes no bit of the trapezoid sum.  ``SupportColumns`` is the one
row reduction: built once from (lf, grid, e), it finds the columns where
lf is not -inf and gathers lf and s on them, and for an integral the
span [lo, hi) of nodes its rows hold and the columns' offsets in it; it
then reduces any number of kernel rows on those columns.

Two private rules take the same integrals in scaled linear space, for
the oracle's screen: ``_scaled_cumint`` (``log_cumint``) and
``_scaled_integral`` (``log_integral`` over the full window).  Each
shifts the row by its max, takes one exp per node, sums the trapezoid
panels and takes one log.  They carry no error bound: the oracle only
ranks candidates on them, and every number it reports is taken on the
log path.  ``_scaled_integral`` takes the nodes beyond a row's columns
on one side as a ``_Rest``: the sum of their panels and their max,
read from tables built once per outer weight.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import NumericOverflow, SpecInvalid

INF = math.inf
NEG_INF = -math.inf
LOG10 = math.log(10.0)
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows exactly above it

# nodes of the largest grid: 37 times the window of S = 30 at 1,024 per decade
_MAX_NODES = 1_000_000

# Slopes within this margin of the critical exponent 0 are treated as
# divergent: a borderline tail cannot be resolved numerically anyway.
_SLOPE_TOL = 1e-9

# A supremum at an open end of the window whose log-values still climb
# faster than this per unit of s is taken to be infinite.
_SUP_SLOPE_TOL = 1e-6

# The scaled rules clip a row's shifted log-values at _CLIP, so that no
# exp lands among the subnormals, where float arithmetic is ~50x slower.
# The clipped terms add at most 4 S e^_CLIP in all, under 1e-16 of a
# scaled running sum above _SCALED_FLOOR; an entry below it is taken as
# an upper bound only.
_CLIP = -690.0
_SCALED_FLOOR = 1e-280


class Grid(NamedTuple):
    """Log-spaced nodes s, t = e^s, and the constants every rule reads."""

    s: np.ndarray
    t: np.ndarray
    half_widths: np.ndarray      # diff(s) / 2, one per panel
    log_half_widths: np.ndarray  # log(diff(s) / 2), one per panel
    edges: tuple                 # ((0, d), (n - 1, n - 1 - d)): edge node, one decade inside
    open_lo: bool                # the left end stands for 0: a head lies beyond it
    open_hi: bool                # the right end stands for inf: a tail lies beyond it


# the full window of each (S, sup_grid), built once, with its log t
_WINDOWS: dict = {}


def log_nodes(cfg, lo: float = 0.0, hi: float = math.inf) -> Grid:
    """The Grid of log-spaced nodes covering (lo, hi).

    A finite end is a node; an open end (0 or inf) is cut at the edge of
    the working window [e^-S, e^S], or a decade past a finite end that
    lies beyond it, and no node passes the largest float.  Density is
    cfg.sup_grid points per decade, at least 16 and at most _MAX_NODES
    nodes (else SpecInvalid).  The full window (lo = 0, hi = inf) is
    built once per (S, sup_grid), as read-only arrays.
    """
    if lo == 0.0 and hi == math.inf:
        key = (cfg.S, cfg.sup_grid)
        win = _WINDOWS.get(key)
        if win is None:
            grid = _build_nodes(cfg, lo, hi)
            win = _WINDOWS[key] = (grid, np.log(grid.t))
            for arr in (*grid[:4], win[1]):
                arr.flags.writeable = False
        return win[0]
    return _build_nodes(cfg, lo, hi)


def _build_nodes(cfg, lo: float, hi: float) -> Grid:
    slo = math.log(lo) if lo > 0 else -cfg.S
    shi = math.log(hi) if hi != math.inf else cfg.S
    # an open end lies a decade past a finite end beyond the window, as floats allow
    if lo == 0 and shi <= slo:
        slo = shi - LOG10
    elif hi == math.inf and slo >= shi:
        shi = min(slo + LOG10, LOG_FLOAT_MAX)
    if slo >= shi:  # ends a few ulps apart, or lo at the largest float
        shi = slo + 1e-6
        if shi > LOG_FLOAT_MAX:  # then the sliver lies below it
            slo, shi = LOG_FLOAT_MAX - 1e-6, LOG_FLOAT_MAX
    n = max(16, int(round((shi - slo) / LOG10 * cfg.sup_grid)) + 1)
    if n > _MAX_NODES:
        raise SpecInvalid(f"a grid of {n} nodes is above the cap of {_MAX_NODES}")
    s = np.linspace(slo, shi, n)
    hw = np.diff(s) / 2.0
    with np.errstate(divide="ignore"):  # ends a few ulps apart: a panel of width 0
        lw = np.log(hw)
    d = min(n - 1, max(4, int(round((n - 1) * LOG10 / (s[-1] - s[0])))))
    return Grid(s, np.exp(s), hw, lw, ((0, d), (n - 1, n - 1 - d)), lo == 0.0, hi == math.inf)


def log_t(t: np.ndarray) -> np.ndarray:
    """np.log(t); read from the window when t is a full window's nodes
    from log_nodes.  The one lookup by array identity: RealFun.logv is
    handed the bare t."""
    for win, lt in _WINDOWS.values():
        if win.t is t:
            return lt
    return np.log(t)


def _panel_logmass(li: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """Log of trapezoid panel masses of exp(li) along the last axis, from
    the panel log half-widths lw."""
    with np.errstate(invalid="ignore"):
        return np.logaddexp(li[..., :-1], li[..., 1:]) + lw


def log_trapz(li: np.ndarray, g: Grid) -> np.ndarray:
    """log of the trapezoid integral of exp(li) ds along the last axis."""
    return _logsumexp_last(_panel_logmass(li, g.log_half_widths))


def _logsumexp_last(lm: np.ndarray, lo: int = 0, width: int | None = None) -> np.ndarray:
    """Log of the sum of exp(lm) along the last axis.

    lm may hold only the entries lo, lo + 1, ... of rows width long whose
    other entries are -inf.  Their zero terms are laid out at full width,
    so the pairwise sum rounds as it does on the full rows.  One full row
    is reduced on its scalar max, without the masks a block needs.
    """
    if lm.ndim == 1 and width in (None, lm.size):
        m = np.max(lm)
        if not math.isfinite(m):  # all -inf -> -inf, any +inf -> +inf
            return m
        return np.log(np.sum(np.exp(lm - m))) + m
    m = np.max(lm, axis=-1)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        terms = np.exp(lm - safe_m[..., None])
        if width not in (None, lm.shape[-1]):
            full = np.zeros(lm.shape[:-1] + (width,))
            full[..., lo:lo + lm.shape[-1]] = terms
            terms = full
        acc = np.log(np.sum(terms, axis=-1)) + safe_m
    out = np.where(np.isfinite(m), acc, m)  # all -inf -> -inf, any +inf -> +inf
    return out[()]


def _log_running_sum(log_head: float, lm: np.ndarray) -> np.ndarray:
    """Log of the running sums e^log_head, e^log_head + e^lm_0, ... over
    the 1-D log-terms lm."""
    if log_head == math.inf:
        return np.full(lm.size + 1, math.inf)
    out = np.empty(lm.size + 1)
    out[0] = log_head
    out[1:] = lm
    with np.errstate(invalid="ignore"):
        return np.logaddexp.accumulate(out, out=out)


def log_cumtrapz(li: np.ndarray, g: Grid, log_head: float = NEG_INF) -> np.ndarray:
    """Log of head + cumulative trapezoid integral of exp(li) ds at each node."""
    return _log_running_sum(log_head, _panel_logmass(li, g.log_half_widths))


def log_suffix_cumtrapz(li: np.ndarray, g: Grid, log_tail: float = NEG_INF) -> np.ndarray:
    """Log of (integral from each node to the right end) + tail."""
    lm = _panel_logmass(li, g.log_half_widths)
    return _log_running_sum(log_tail, lm[::-1])[::-1]


def _edge_estimate(li: np.ndarray, g: Grid, left: bool, lo: int = 0):
    """Log of the integral of exp(li) ds beyond one window edge, row by row.

    Fits a power law between the edge node and the node one decade
    inside: the integral is exp(lv) / rate, where rate is the decay of
    li per unit of s away from the window.  +inf when the fit says
    divergent (rate not positive), -inf when either log-value is not
    finite.  li may hold only the columns lo, lo + 1, ... of the nodes
    g.s; a node outside them reads -inf, so a row that does not hold both
    fit nodes reads -inf, and log_integral does not ask for it.  One
    row is worked on floats, with the same np.log as rows take, so it
    reads bit for bit as a row.
    """
    i0, i1 = g.edges[0 if left else 1]
    lv = li[..., i0 - lo] if 0 <= i0 - lo < li.shape[-1] else NEG_INF
    l1 = li[..., i1 - lo] if 0 <= i1 - lo < li.shape[-1] else NEG_INF
    if li.ndim == 1:
        lv, l1 = float(lv), float(l1)
        if not (math.isfinite(lv) and math.isfinite(l1)):
            return NEG_INF
        rate = (l1 - lv) / abs(float(g.s[i1]) - float(g.s[i0]))
        return lv - np.log(rate) if rate > _SLOPE_TOL else math.inf
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = (l1 - lv) / abs(g.s[i1] - g.s[i0])
        est = np.where(rate > _SLOPE_TOL, lv - np.log(rate), math.inf)
    return np.where(np.isfinite(lv) & np.isfinite(l1), est, NEG_INF)[()]


def log_head_estimate(li: np.ndarray, g: Grid):
    """Log of the integral of exp(li) ds over (-inf, s_0), power-law fit.

    li is the log of the ds-integrand (Jacobian included), so the head
    converges exactly when its s-slope at the left edge is positive.
    Works on one row (n,) or on rows (..., n).
    """
    return _edge_estimate(li, g, left=True)


def log_tail_estimate(li: np.ndarray, g: Grid):
    """Log of the integral of exp(li) ds over (s_end, inf), power-law fit.

    Converges exactly when the s-slope at the right edge is negative.
    """
    return _edge_estimate(li, g, left=False)


def log_integral(li: np.ndarray, g: Grid, lo: int = 0):
    """Log of the integral of exp(li) ds along the last axis.

    The trapezoid sum over the grid, plus the head and then the tail
    estimate beyond each of its open ends; li is 1-D or 2-D rows.  li
    may hold only the columns lo, lo + 1, ... of the nodes g.s, every
    other node reading -inf.  An open edge's estimate is taken only where
    the columns hold both of its fit nodes (g.edges); on any other row it
    reads -inf, and logaddexp(x, -inf) returns x bit for bit, so skipping
    it changes no output.
    """
    k = li.shape[-1]
    lw = g.log_half_widths[lo:lo + k - 1]
    with np.errstate(invalid="ignore"):
        out = _logsumexp_last(_panel_logmass(li, lw), lo, g.s.size - 1)
        for left, is_open, nodes in zip((True, False), (g.open_lo, g.open_hi), g.edges):
            if is_open and all(lo <= i < lo + k for i in nodes):
                out = np.logaddexp(out, _edge_estimate(li, g, left, lo))
    return out


def log_cumint(li: np.ndarray, g: Grid, head: bool) -> np.ndarray:
    """Log of the integral of exp(li) ds up to each node (head=True) or
    from each node on (head=False), with the edge estimate beyond that
    end of the grid when it is open."""
    if head:
        return log_cumtrapz(li, g, log_head_estimate(li, g) if g.open_lo else NEG_INF)
    return log_suffix_cumtrapz(li, g, log_tail_estimate(li, g) if g.open_hi else NEG_INF)


def log_cumnorm(lf: np.ndarray, g: Grid, q: float, head: bool) -> np.ndarray:
    """Log of ||exp(lf)||_{q,(0,t_j)} (head) or ||exp(lf)||_{q,(t_j,inf)}
    at every node t_j; q = inf is the running sup."""
    if q == math.inf:
        return running_logmax(lf) if head else suffix_logmax(lf)
    return log_cumint(q * lf + g.s, g, head) / q


def _scaled_cumint(li: np.ndarray, g: Grid, head: bool, lo: int = 0):
    """log_cumint of one window row, summed in scaled linear space.

    li may hold only the columns lo, lo + 1, ... of the nodes g.s, as for
    log_integral: every other node reads -inf, so an edge-fit node
    outside them reads -inf in the edge estimate, and the entries
    returned are the full row's at those columns.

    Returns (lc, low).  The edge estimate is log_cumint's own, so a
    divergent one gives +inf everywhere, as log_cumint does; otherwise a
    row holding +inf or NaN gives None.  An entry with no finite term is
    exactly -inf.  Where low is set the scaled running sum fell below
    _SCALED_FLOOR and lc is only an upper bound.  An edge-fit node
    (g.edges) is never low: below the floor it is taken bit for bit on
    the log path, so that edge estimates over lc read no upper bound.
    """
    k = li.size
    le = _edge_estimate(li, g, head, lo)
    low = np.zeros(k, dtype=bool)
    if le == math.inf:
        return np.full(k, math.inf), low
    m = float(np.max(li))
    if not m < math.inf:
        return None
    if m == NEG_INF:
        return np.full(k, NEG_INF), low
    hw, lw = g.half_widths[lo:lo + k - 1], g.log_half_widths[lo:lo + k - 1]
    # the edge-fit nodes among the columns, in summing order
    fit = {j - lo for pair in g.edges for j in pair if 0 <= j - lo < k}
    if not head:  # a tail row is summed as the head row of the reversed row
        li, hw, lw = li[::-1], hw[::-1], lw[::-1]
        fit = {k - 1 - i for i in fit}
    # the terms in summing order: the edge estimate, then the panels
    # from that edge on
    x = li - m
    np.maximum(x, _CLIP, out=x)
    np.exp(x, out=x)
    acc = np.empty(k)
    acc[0] = math.exp(le - m)
    np.add(x[:-1], x[1:], out=acc[1:])
    acc[1:] *= hw
    np.cumsum(acc, out=acc)
    with np.errstate(divide="ignore"):
        lc = np.log(acc)
    lc += m
    # entries [0, k0) of the summing order have no finite term, [k0, kf)
    # a scaled sum below the floor (it never falls along the order)
    k0 = 0
    if le == NEG_INF:
        k0 = max(int(np.argmax(li > NEG_INF)), 1)
        lc[:k0] = NEG_INF
    kf = max(int(np.searchsorted(acc, _SCALED_FLOOR)), k0)
    lc[k0:kf] = m + math.log(2.0 * _SCALED_FLOOR)
    low[k0:kf] = True
    redo = sorted(i for i in fit if low[i])
    if redo:
        hi = redo[-1] + 1
        lc[redo] = _log_running_sum(le, _panel_logmass(li[:hi], lw[:hi - 1]))[redo]
        low[redo] = False
    if not head:
        lc, low = lc[::-1], low[::-1]
    return lc, low


class _Rest(NamedTuple):
    """The nodes of a row beyond its columns on one side, given to
    _scaled_integral by their sums rather than node by node."""

    log_sum: float  # log of the sum of the trapezoid panels among them
    top: float      # the max of their log-values
    at: dict        # the log-value at each edge-fit node among them


def _scaled_integral(li: np.ndarray, g: Grid, upper: np.ndarray, lo: int = 0,
                     rest: _Rest | None = None):
    """log_integral of one window row, summed in scaled linear space.

    li and upper hold the columns lo, lo + 1, ... of the nodes g.s.  The
    nodes beyond them on one side are rest's when it is given (a _Rest,
    whose panels start at the last column on that side); every other
    node reads -inf.

    li must hold no +inf or NaN.  Where upper is set li is only an upper
    bound of the row, and the entry is left out of the sum; upper is
    never set at an edge-fit node (g.edges).  Returns the log value, or
    None for a row with no finite entry outside upper, an upper entry
    less than 60 below the max of the others, or an edge slope below
    _SLOPE_TOL or within 1e-6 of it, where the estimate's 1/rate
    sensitivity grows without limit.  The shifted terms are clipped at
    _CLIP.
    """
    k = li.size
    some_upper = bool(upper.any())
    core = np.where(upper, NEG_INF, li) if some_upper else li
    m = float(np.max(core))
    if rest is not None:
        m = max(m, rest.top)
    if m == NEG_INF:
        return None
    if some_upper and float(np.max(li[upper])) > m - 60.0:
        return None
    x = core - m
    np.maximum(x, _CLIP, out=x)
    np.exp(x, out=x)
    total = float(np.dot(x[:-1] + x[1:], g.half_widths[lo:lo + k - 1]))
    if rest is not None:
        total += math.exp(rest.log_sum - m)

    def node(j):
        if 0 <= j - lo < k:
            return float(core[j - lo])
        return rest.at.get(j, NEG_INF) if rest is not None else NEG_INF

    for i0, i1 in g.edges:
        lv, l1 = node(i0), node(i1)
        if lv == NEG_INF or l1 == NEG_INF:
            continue
        rate = (l1 - lv) / abs(float(g.s[i1]) - float(g.s[i0]))
        if rate - _SLOPE_TOL <= 1e-6:
            return None
        est = lv - math.log(rate)
        total += math.exp(est - m)
    return math.log(total) + m


def log_kernel(lx, lt) -> np.ndarray:
    """Log of the kernel a(x) / (a(x) + a(t)) from lx = log a(x) and
    lt = log a(t), broadcasting.

    Where the ratio is undetermined, a(x) infinite or a(x) = a(t) = 0,
    the kernel splits evenly (log 1/2).
    """
    with np.errstate(invalid="ignore"):
        lk = lx - np.logaddexp(lx, lt)
    return np.where(np.isnan(lk), math.log(0.5), lk)


class SupportColumns:
    """The row reduction against a kernel, prepared once from (lf, g, e)
    for any number of kernel rows: per row, the log of esup_t K(x,t) f(t)
    (e None) or of int K(x,t)^e f(t) dt, lf the log-values of f at the
    nodes.

    cols are the increasing node indices where lf is not -inf; lf and s
    are gathered on them.  Any other node adds -inf to the sup and a zero
    panel to the integral, so the rows read bit for bit as the full-width
    rules, np.fmax.reduce(lk + lf, axis=-1) and
    log_integral(e * lk + lf + g.s, g), at the cost of cols alone.  The
    sup skips NaN terms, which are 0 * inf products.  An integral's rows
    span the nodes [lo, hi), from one before the first column to one
    after the last, which carry every panel that touches a column, with
    the columns at offs in that span.
    """

    __slots__ = ("cols", "_g", "_e", "_lf", "_s", "_initial", "_lo", "_span", "_offs")

    def __init__(self, lf: np.ndarray, g: Grid, e=None):
        self.cols = cols = np.flatnonzero(~np.isneginf(lf))
        self._g, self._e, self._lf = g, e, lf[cols]
        # a column left out is a -inf term of the full-width sup
        self._initial = NEG_INF if cols.size < lf.size else None
        if e is not None and cols.size:
            self._s = g.s[cols]
            self._lo = lo = max(int(cols[0]) - 1, 0)
            self._span = min(int(cols[-1]) + 2, g.s.size) - lo
            self._offs = cols - lo

    def reduce(self, lk: np.ndarray) -> np.ndarray:
        """The per-row log sup or integral of the kernel rows lk on cols."""
        if self._e is None:
            with np.errstate(invalid="ignore"):
                return np.fmax.reduce(lk + self._lf, axis=-1, initial=self._initial)
        if not self.cols.size:
            return np.full(lk.shape[:-1], NEG_INF)
        li = np.full(lk.shape[:-1] + (self._span,), NEG_INF)
        li[..., self._offs] = self._e * lk + self._lf + self._s
        return log_integral(li, self._g, self._lo)


def running_logmax(li: np.ndarray) -> np.ndarray:
    """Prefix maxima along the last axis."""
    return np.maximum.accumulate(li, axis=-1)


def suffix_logmax(li: np.ndarray) -> np.ndarray:
    """Suffix maxima along the last axis."""
    return np.maximum.accumulate(li[..., ::-1], axis=-1)[..., ::-1]


def log_sup(lv: np.ndarray, g: Grid) -> float:
    """Max of the log-values lv at the nodes g.s.

    +inf when the max sits at an open end of the grid and the values
    still climb towards it from a finite neighbour: the supremum then
    lies beyond the grid.
    """
    if np.all(np.isneginf(lv)):
        return NEG_INF
    i = int(np.nanargmax(lv))
    best = float(lv[i])
    if np.isposinf(best):
        return math.inf
    if g.open_hi and i == lv.size - 1 and np.isfinite(lv[-2]):
        if (lv[-1] - lv[-2]) / (g.s[-1] - g.s[-2]) > _SUP_SLOPE_TOL:
            return math.inf
    if g.open_lo and i == 0 and np.isfinite(lv[1]):
        if (lv[1] - lv[0]) / (g.s[1] - g.s[0]) < -_SUP_SLOPE_TOL:
            return math.inf
    return best


def log_mul(*parts: np.ndarray) -> np.ndarray:
    """Log of a product of factors given by their log-values.

    A NaN sum is (+inf) + (-inf): an infinite factor against a zero
    one, which the 0 * inf = 0 convention resolves to zero (-inf).
    The parts are left unchanged.
    """
    with np.errstate(invalid="ignore"):
        out = np.array(parts[0], dtype=float) if len(parts) == 1 else parts[0] + parts[1]
        for p in parts[2:]:
            out = out + p
    out = np.asarray(out)
    out[np.isnan(out)] = NEG_INF
    return out


def from_log(lx) -> float:
    """exp(lx) as a float; NumericOverflow when a finite lx is too large."""
    if np.isposinf(lx):
        return math.inf
    if lx == NEG_INF:
        return 0.0
    try:
        return math.exp(lx)
    except OverflowError:
        raise NumericOverflow(f"e^{float(lx):.6g} exceeds the float range") from None
