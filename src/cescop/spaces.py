"""Cesaro/Copson quasi-norms with two and three parameters.

A two-parameter Cesaro norm takes the inner p-norm of f in weight v over
(0, t) and then the outer q-norm in weight u over t in (0, inf); Copson
uses (t, inf) inside.  Three-parameter spaces add a middle cumulative
level.  Inner norms are accumulated on the shared log grid, so the outer
integral sees the inner norm at every node at once.

A ``_Plan`` prepares one space for many norms.  Its ``log_norm`` is the
log of ``space_norm``; its ``screen`` estimates that log with grids' scaled
linear-space integrals and a bound, and the oracle ranks with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import grids
from .errors import SpecInvalid
from .exponents import Exponent
from .realfun import (
    DEFAULT_CFG,
    QuadratureConfig,
    RealFun,
    _check_funs,
    _log_norms_at,
    product,
)

__all__ = ["SpaceSpec", "space_norm", "space_norm3", "check_omega", "OmegaReport"]

CES = "ces"
COP = "cop"


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a 2- or 3-parameter Cesaro/Copson space.

    Exponents are ordered innermost-first, matching the subscripts of
    ces_{p,q}(u,v) and ces_{p,q,r}(u,v,w); weights are RealFuns,
    outermost-first.  A spec keeps its norm plans, one per cfg (``_plan``).
    """

    kind: str
    exponents: tuple
    weights: tuple
    validate: bool = field(default=True, compare=False)
    _plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in (CES, COP):
            raise SpecInvalid(f"kind must be '{CES}' or '{COP}'")
        if len(self.exponents) not in (2, 3) or len(self.weights) != len(self.exponents):
            raise SpecInvalid("need 2 or 3 exponents with matching weights")
        _check_funs(**{f"weight {i}": w for i, w in enumerate(self.weights)})
        object.__setattr__(self, "exponents", tuple(Exponent(e) for e in self.exponents))

    @property
    def arity(self) -> int:
        return len(self.exponents)

    def describe(self) -> str:
        exps = ",".join("inf" if e.is_inf else str(e.value) for e in self.exponents)
        ws = ", ".join(w.describe() for w in self.weights)
        return f"{self.kind}_{{{exps}}}({ws})"


@dataclass(frozen=True)
class OmegaReport:
    ok: bool
    failures: tuple  # (t, value) samples violating 0 < value < inf


def check_omega(u: RealFun, q, dual: bool = False,
                cfg: QuadratureConfig = DEFAULT_CFG) -> OmegaReport:
    """Sampled membership check of u in Omega_q (tail norms) or its dual.

    dual=False requires 0 < ||u||_{q,(t,inf)} < inf for sampled t;
    dual=True uses head norms over (0, t), read by realfun._log_norms_at.
    """
    _check_funs(u=u)
    q = Exponent(q)
    decades = max(1, int(cfg.S / grids.LOG10))  # at least t = 1
    samples = [10.0 ** k for k in range(-decades + 1, decades, max(1, decades // 4))]
    lvals = _log_norms_at(u, q, dual, samples, cfg)
    failures = tuple((t, grids.from_log(lv)) for t, lv in zip(samples, lvals) if np.isinf(lv))
    return OmegaReport(ok=not failures, failures=failures)


def _gate(spec: SpaceSpec, cfg: QuadratureConfig) -> None:
    """The outermost weight must lie in (dual-)Omega_q, q the outermost exponent."""
    if not spec.validate:
        return
    u = spec.weights[0]
    q = spec.exponents[-1]
    rep = check_omega(u, q, dual=(spec.kind == COP), cfg=cfg)
    if not rep.ok:
        cls = "dual-Omega" if spec.kind == COP else "Omega"
        raise SpecInvalid(
            f"outer weight fails the {cls}_{q.value} gate at t = "
            + ", ".join(f"{t:g}" for t, _ in rep.failures))


def space_norm(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Cesaro/Copson quasi-norm of a nonnegative f, with two or three
    parameters.

    Starting from f times the innermost weight, each inner exponent takes
    the cumulative norm over (0, t) (ces) or (t, inf) (cop) and multiplies
    it by the next weight out; the outermost exponent reduces over (0, inf).
    """
    return grids.from_log(_plan(spec, cfg).log_norm(f))


def _plan(spec: SpaceSpec, cfg: QuadratureConfig) -> _Plan:
    """spec's _Plan for cfg, built and gated on first use and kept on the
    spec object: an equal spec, maybe with its gate off, plans on its own."""
    return spec._plans.get(cfg) or spec._plans.setdefault(cfg, _Plan(spec, cfg))


class _Plan:
    """One (spec, cfg) made ready for many norms.

    Construction runs the gate; ``_plan`` keeps one plan per spec and
    cfg, and a plan holds no reference to its spec.  It takes the window,
    the exponents as floats (innermost first) and the log-values on the
    window of every weight but the innermost, which meets f in
    product(f, v).  The screen is taken for an arity-2 spec with finite
    exponents and an outer weight below +inf; its rounding terms and
    tables are built on the first screen (``_outer``), once per plan.

    ``log_norm(f)`` is the log of space_norm(spec, f, cfg): product(f, v)
    read on the whole window, each inner level cumulated over the window
    from its open end, then the outer sup or integral over every node.

    ``screen(f)`` gives (log value, bound) with log_norm(f) within bound
    of the log value, or None: the same product(...).logv and the same
    elementwise steps as log_norm, with grids._scaled_cumint and
    grids._scaled_integral in place of log_cumnorm and log_integral.  Only
    the screen reads the span of the support of product(f, v): the nodes
    [a, b) of the window in its closed hull, off which its log-values are
    -inf.  It sums the span and one node beyond each cut end.  Past that
    node, on the other side (right for ces, left for cop), the inner
    integral is its total C, so the outer log-values are qC/p + w,
    w = q lu + s, and their panels sum to e^(qC/p) times the panel sums of
    e^w, read from the tables (a grids._Rest).  Only a divergent inner
    edge gives -inf or +inf, exact and with bound 0.  None for any spec
    the screen is not taken for, for rows holding +inf or NaN, and
    wherever grids cannot certify its integrals.
    """

    def __init__(self, spec: SpaceSpec, cfg: QuadratureConfig = DEFAULT_CFG):
        _gate(spec, cfg)
        self.cfg, self.head = cfg, spec.kind == CES
        self.grid = g = grids.log_nodes(cfg)
        *self.inner, self.q = (float(e) for e in spec.exponents)
        *ws, self.v = spec.weights
        # outward from the second weight in
        self.lws = tuple(w.logv(g.t) for w in ws[::-1])
        self.lu = self.lws[-1]
        self.lu_max = np.max(self.lu)
        self.screens = (spec.arity == 2 and math.isfinite(self.inner[0])
                        and math.isfinite(self.q) and self.lu_max < grids.INF)

    def _span(self, fv: RealFun) -> tuple:
        """The nodes [a, b) of the window in the closed hull of fv's
        support; fv.logv reads -inf off them."""
        t, sup = self.grid.t, fv.support
        return int(np.searchsorted(t, sup.lo)), int(np.searchsorted(t, sup.hi, "right"))

    def log_norm(self, f: RealFun) -> float:
        g = self.grid
        lv = product(f, self.v).logv(g.t)
        for e, lw in zip(self.inner, self.lws):
            lv = grids.log_mul(grids.log_cumnorm(lv, g, e, self.head), lw)
        if math.isinf(self.q):
            return grids.log_sup(lv, g)
        return float(grids.log_integral(self.q * lv + g.s, g)) / self.q

    @functools.cached_property
    def _outer(self) -> _Outer:
        """The screen's _Outer, built on the first screen of this plan."""
        (p,), q, g = self.inner, self.q, self.grid
        w = q * self.lu + g.s
        if self.head:  # the inner integral is constant right of the span
            sums, tops = grids.log_suffix_cumtrapz(w, g), grids.suffix_logmax(w)
        else:
            sums, tops = grids.log_cumtrapz(w, g), grids.running_logmax(w)
        # the rounding of / p, + lu, q * and + s in both paths, from
        # |lc / p + lu| <= |lc| / p + |lu| and |s| <= S
        return _Outer(np.abs(self.lu) * (12.0 * grids._U * q), 16.0 * grids._U * q / p,
                      4.0 * grids._U * (self.cfg.S + 1.0), w, sums, tops)

    def screen(self, f: RealFun):
        if not self.screens:
            return None
        (p,), q, g = self.inner, self.q, self.grid
        n = g.s.size
        fv = product(f, self.v)
        a, b = self._span(fv)
        if a >= b:  # no node: a row of -inf, which grids cannot certify
            return None
        # one -inf node beyond each cut end, whose panel meets the span
        lo, hi = max(a - 1, 0), min(b + 1, n)
        li = np.full(hi - lo, grids.NEG_INF)
        span = li[a - lo:b - lo]
        np.multiply(fv.logv(g.t if b - a == n else g.t[a:b]), p, out=span)
        span += g.s[a:b]
        res = grids._scaled_cumint(li, g, self.head, lo)
        if res is None:
            return None
        lc, (ea, eb), low = res
        if lc[0] == grids.INF:  # the inner edge estimate diverges
            return (grids.INF if self.lu_max > grids.NEG_INF else grids.NEG_INF), 0.0
        out = self._outer
        # as log_mul(lc / p, lu), which finds no NaN to mend: lc and lu hold
        # no +inf
        li = lc / p
        li += self.lu[lo:hi]
        li *= q
        li += g.s[lo:hi]
        # the inner error times q / p, then the rounding terms
        err = np.abs(lc)
        err *= (q / p) * ea + out.lc_err
        err += out.lu_err[lo:hi]
        err += (q / p) * eb + out.s_err
        j = hi - 1 if self.head else lo  # the joining node: lc there is the inner total C
        rest = None
        if (j < n - 1 if self.head else j > 0) and out.tops[j] > grids.NEG_INF:
            if not low[j - lo]:
                rest = self._rest(j, float(lc[j - lo]), (q / p) * ea, (q / p) * eb)
            if rest is None:
                return None
        res = grids._scaled_integral(li, g, err, low, lo, rest)
        if res is None:
            return None
        value = res[0] / q
        return value, res[1] / q + 4.0 * grids._U * abs(value)

    def _rest(self, j: int, C: float, ea: float, eb: float):
        """The outer row's nodes past the joining node j (right of it for
        ces, left for cop) as a grids._Rest, or None where its bound fails.

        Their inner integral is C, node j's, and their outer log-values
        c + w_k (c = qC/p) carry the error e0 + 12 U q |lu_k|, e0 that of
        C, scaled as ea and eb, and the rounding terms.  A node within 100
        of the row max m >= c + top (top = max w there) has q lu_k >=
        top - 100 - S, so |q lu_k| <= K = q |lu_max| + |top| + 100 + S
        and its error is at most e0 + 12 U K.  While that is at most 9, a
        node further down, at D = (m - 90) - (c + w_k) > 10, has
        |q lu_k| <= K + D and an error below D, as _scaled_integral asks.
        The table sum of e^w rounds within 16 n ulps of |its log| + |c| + 30.
        """
        g, out, n = self.grid, self._outer, self.grid.s.size
        (p,), q = self.inner, self.q
        c = C / p * q
        top = float(out.tops[j])
        e0 = abs(C) * (ea + out.lc_err) + eb + out.s_err
        err = e0 + 12.0 * grids._U * (q * abs(float(self.lu_max)) + abs(top) + 100.0
                                      + self.cfg.S)
        if not err <= 9.0:
            return None
        side = range(j + 1, n) if self.head else range(j)
        at = {k: (c + float(out.w[k]), e0 + float(out.lu_err[k]))
              for pair in g.edges for k in pair if k in side}
        log_sum = float(out.sums[j])
        sum_err = 16.0 * n * grids._U * (abs(log_sum) + abs(c) + 30.0)
        return grids._Rest(c + log_sum, sum_err, c + top, err, at)


class _Outer(NamedTuple):
    """The screen's rounding terms of one plan, and its tables of the outer
    row w = q lu + s on the window: the log of the panel sums of e^w and
    the max of w, from each node to the end where the inner integral of a
    row is constant (right for ces, left for cop)."""

    lu_err: np.ndarray  # 12 U q |lu|
    lc_err: float       # 16 U q / p
    s_err: float        # 4 U (S + 1)
    w: np.ndarray
    sums: np.ndarray
    tops: np.ndarray


def space_norm3(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """``space_norm`` of an arity-3 spec."""
    if spec.arity != 3:
        raise SpecInvalid("space_norm3 needs an arity-3 spec")
    return space_norm(spec, f, cfg)
