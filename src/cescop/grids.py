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
and the row sup or integral against it (``log_row_reduce``), the
0 * inf = 0 rule (``zero_wins``) and the step back from a log-value to a
number (``from_log``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericOverflow

NEG_INF = -math.inf
LOG10 = math.log(10.0)

# Slopes within this margin of the critical exponent 0 are treated as
# divergent: a borderline tail cannot be resolved numerically anyway.
_SLOPE_TOL = 1e-9

# A supremum at an open end of the window whose log-values still climb
# faster than this per unit of s is taken to be infinite.
_SUP_SLOPE_TOL = 1e-6


def log_nodes(cfg, lo: float = 0.0, hi: float = math.inf):
    """Log-spaced nodes covering (lo, hi) clipped to the working window.

    Returns (s, t) with t = exp(s).  Density is cfg.sup_grid points per
    decade, at least 16 nodes total.
    """
    slo = max(math.log(lo), -cfg.S) if lo > 0 else -cfg.S
    shi = min(math.log(hi), cfg.S) if hi != math.inf else cfg.S
    if slo >= shi:
        shi = slo + 1e-6
    n = max(16, int(round((shi - slo) / LOG10 * cfg.sup_grid)) + 1)
    s = np.linspace(slo, shi, n)
    return s, np.exp(s)


def _panel_logmass(li: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Log of trapezoid panel masses of exp(li) over s, along the last axis."""
    ds = np.diff(s)
    with np.errstate(invalid="ignore"):
        return np.logaddexp(li[..., :-1], li[..., 1:]) + np.log(ds / 2.0)


def log_trapz(li: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log of the trapezoid integral of exp(li) ds along the last axis."""
    lm = _panel_logmass(li, s)
    with np.errstate(invalid="ignore"):
        out = _logsumexp_last(lm)
    return out


def _logsumexp_last(lm: np.ndarray) -> np.ndarray:
    m = np.max(lm, axis=-1)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        acc = np.log(np.sum(np.exp(lm - safe_m[..., None]), axis=-1)) + safe_m
    out = np.where(np.isfinite(m), acc, m)  # all -inf -> -inf, any +inf -> +inf
    return out


def log_cumtrapz(li: np.ndarray, s: np.ndarray, log_head: float = NEG_INF) -> np.ndarray:
    """Log of head + cumulative trapezoid integral of exp(li) ds at each node."""
    lm = _panel_logmass(li, s)
    out = np.empty_like(li)
    out[..., 0] = log_head
    if np.isposinf(log_head):
        out[...] = math.inf
        return out
    np.logaddexp.accumulate(np.concatenate([[log_head], lm]), out=out)
    return out


def log_suffix_cumtrapz(li: np.ndarray, s: np.ndarray, log_tail: float = NEG_INF) -> np.ndarray:
    """Log of (integral from each node to the right end) + tail."""
    rev = log_cumtrapz(li[::-1], -s[::-1], log_head=log_tail)
    return rev[::-1]


def _edge_estimate(li: np.ndarray, s: np.ndarray, left: bool):
    """Log of the integral of exp(li) ds beyond one window edge, row by row.

    Fits a power law between the edge node and the node one decade
    inside: the integral is exp(lv) / rate, where rate is the decay of
    li per unit of s away from the window.  +inf when the fit says
    divergent (rate not positive), -inf when either log-value is not
    finite.
    """
    n = li.shape[-1]
    span = min(n - 1, max(4, int(round((s.shape[0] - 1) * LOG10 / (s[-1] - s[0])))))
    i0, i1 = (0, span) if left else (n - 1, n - 1 - span)
    lv, l1 = li[..., i0], li[..., i1]
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = (l1 - lv) / abs(s[i1] - s[i0])
        est = np.where(rate > _SLOPE_TOL, lv - np.log(rate), math.inf)
    return np.where(np.isfinite(lv) & np.isfinite(l1), est, NEG_INF)[()]


def log_head_estimate(li: np.ndarray, s: np.ndarray):
    """Log of the integral of exp(li) ds over (-inf, s_0), power-law fit.

    li is the log of the ds-integrand (Jacobian included), so the head
    converges exactly when its s-slope at the left edge is positive.
    Works on one row (n,) or on rows (..., n).
    """
    return _edge_estimate(li, s, left=True)


def log_tail_estimate(li: np.ndarray, s: np.ndarray):
    """Log of the integral of exp(li) ds over (s_end, inf), power-law fit.

    Converges exactly when the s-slope at the right edge is negative.
    """
    return _edge_estimate(li, s, left=False)


def log_edge_estimates(li: np.ndarray, s: np.ndarray, head: bool, tail: bool):
    """(head, tail) estimates beyond the window edges; -inf for an edge
    not asked for."""
    return (log_head_estimate(li, s) if head else NEG_INF,
            log_tail_estimate(li, s) if tail else NEG_INF)


def log_integral(li: np.ndarray, s: np.ndarray, head: bool = True, tail: bool = True):
    """Log of the integral of exp(li) ds along the last axis.

    The trapezoid sum over the window, plus the head and then the tail
    estimate beyond its edges when asked; li is 1-D or 2-D rows.
    """
    lh, lt = log_edge_estimates(li, s, head, tail)
    with np.errstate(invalid="ignore"):
        return np.logaddexp(np.logaddexp(log_trapz(li, s), lh), lt)


def log_cumint(li: np.ndarray, s: np.ndarray, head: bool) -> np.ndarray:
    """Log of the integral of exp(li) ds up to each node (head=True, from
    -inf) or from each node on (head=False, to +inf), edge estimate
    included."""
    if head:
        return log_cumtrapz(li, s, log_head=log_head_estimate(li, s))
    return log_suffix_cumtrapz(li, s, log_tail=log_tail_estimate(li, s))


def log_cumnorm(lf: np.ndarray, s: np.ndarray, q: float, head: bool) -> np.ndarray:
    """Log of ||exp(lf)||_{q,(0,t_j)} (head) or ||exp(lf)||_{q,(t_j,inf)}
    at every node t_j; q = inf is the running sup."""
    if q == math.inf:
        return running_logmax(lf) if head else suffix_logmax(lf)
    return log_cumint(q * lf + s, s, head) / q


def log_kernel(lx, lt) -> np.ndarray:
    """Log of the kernel a(x) / (a(x) + a(t)) from lx = log a(x) and
    lt = log a(t), broadcasting.

    Where the ratio is undetermined, a(x) infinite or a(x) = a(t) = 0,
    the kernel splits evenly (log 1/2).
    """
    with np.errstate(invalid="ignore"):
        lk = lx - np.logaddexp(lx, lt)
    return np.where(np.isnan(lk), math.log(0.5), lk)


def log_row_reduce(lk: np.ndarray, lf: np.ndarray, s: np.ndarray, e=None) -> np.ndarray:
    """Per-row log of esup_t K(x,t) f(t) (e None), or of int K(x,t)^e f(t) dt,
    from the log kernel rows lk (..., n) and the log-values lf at the nodes.

    The sup skips NaN terms, which are 0 * inf products.
    """
    if e is None:
        with np.errstate(invalid="ignore"):
            return np.fmax.reduce(lk + lf, axis=-1)
    return log_integral(e * lk + lf + s, s)


def running_logmax(li: np.ndarray) -> np.ndarray:
    """Prefix maxima along the last axis."""
    return np.maximum.accumulate(li, axis=-1)


def suffix_logmax(li: np.ndarray) -> np.ndarray:
    """Suffix maxima along the last axis."""
    return np.maximum.accumulate(li[..., ::-1], axis=-1)[..., ::-1]


def log_sup(lv: np.ndarray, s: np.ndarray, open_lo: bool = True,
            open_hi: bool = True) -> float:
    """Max of the log-values lv at the nodes s.

    +inf when the max sits at an open end of the window and the values
    still climb towards it from a finite neighbour: the supremum then
    lies beyond the window.
    """
    if np.all(np.isneginf(lv)):
        return NEG_INF
    i = int(np.nanargmax(lv))
    best = float(lv[i])
    if np.isposinf(best):
        return math.inf
    if open_hi and i == lv.size - 1 and np.isfinite(lv[-2]):
        if (lv[-1] - lv[-2]) / (s[-1] - s[-2]) > _SUP_SLOPE_TOL:
            return math.inf
    if open_lo and i == 0 and np.isfinite(lv[1]):
        if (lv[1] - lv[0]) / (s[1] - s[0]) < -_SUP_SLOPE_TOL:
            return math.inf
    return best


def zero_wins(lv: np.ndarray) -> np.ndarray:
    """Resolve NaN log-values to -inf.

    A NaN here is (+inf) + (-inf): an infinite factor against a zero
    one, which the 0 * inf = 0 convention resolves to zero.
    """
    return np.where(np.isnan(lv), NEG_INF, lv)


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
