"""Cesaro/Copson quasi-norms with two and three parameters.

A two-parameter Cesaro norm takes the inner p-norm of f in weight v over
(0, t) and then the outer q-norm in weight u over t in (0, inf); Copson
uses (t, inf) inside.  Three-parameter spaces add a middle cumulative
level.  Inner norms are accumulated on the shared log grid, so the outer
integral sees the inner norm at every node at once.

A ``_Plan`` prepares one space for many norms.  Its ``log_norm`` is the
log of ``space_norm``; its ``screen`` estimates that log with grids' scaled
linear-space integrals, and the oracle ranks with it.
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
    _check_is,
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
    _check_funs(cfg=cfg, u=u)
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
    _check_is(SpaceSpec, spec=spec)
    _check_funs(cfg=cfg, f=f)
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
    exponents and an outer weight below +inf; its tables are built on the
    first screen (``_outer``), once per plan.

    ``log_norm(f)`` is the log of space_norm(spec, f, cfg): product(f, v)
    read on the whole window, each inner level cumulated over the window
    from its open end, then the outer sup or integral over every node.

    ``screen(f)`` estimates log_norm(f), or gives None: the same
    product(...).logv and the same elementwise steps as log_norm, with
    grids._scaled_cumint and grids._scaled_integral in place of
    log_cumnorm and log_integral.  It carries no bound; only the oracle
    reads it, to rank candidates, and its result is exact scoring's
    whenever each screened value lies within oracle._TAU / 4 of log_norm.
    Only the screen reads the span of the support of product(f, v): the
    nodes [a, b) of the window in its closed hull, off which its
    log-values are -inf.  It sums the span and one node beyond each cut
    end.  Past that node, on the other side (right for ces, left for cop),
    the inner integral is its total C, so the outer log-values are qC/p +
    w, w = q lu + s, and their panels sum to e^(qC/p) times the panel sums
    of e^w, read from the tables (a grids._Rest).  Only a divergent inner
    edge gives -inf or +inf, exact.  None for any spec the screen is not
    taken for, an empty span, rows holding +inf or NaN, a joining node
    below the scaled floor, and wherever grids._scaled_integral refuses.
    """

    def __init__(self, spec: SpaceSpec, cfg: QuadratureConfig = DEFAULT_CFG):
        _gate(spec, cfg)
        self.head = spec.kind == CES
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
        w = self.q * self.lu + self.grid.s
        if self.head:  # the inner integral is constant right of the span
            return _Outer(w, grids.log_suffix_cumtrapz(w, self.grid), grids.suffix_logmax(w))
        return _Outer(w, grids.log_cumtrapz(w, self.grid), grids.running_logmax(w))

    def screen(self, f: RealFun):
        if not self.screens:
            return None
        (p,), q, g = self.inner, self.q, self.grid
        n = g.s.size
        fv = product(f, self.v)
        a, b = self._span(fv)
        if a >= b:  # no node: a row of -inf, which the scaled rules leave to the log path
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
        lc, low = res
        if lc[0] == grids.INF:  # the inner edge estimate diverges
            return grids.INF if self.lu_max > grids.NEG_INF else grids.NEG_INF
        # as log_mul(lc / p, lu), which finds no NaN to mend: lc and lu hold
        # no +inf
        li = lc / p
        li += self.lu[lo:hi]
        li *= q
        li += g.s[lo:hi]
        j = hi - 1 if self.head else lo  # the joining node: lc there is the inner total C
        rest = None
        if (j < n - 1 if self.head else j > 0) and self._outer.tops[j] > grids.NEG_INF:
            if low[j - lo]:
                return None
            rest = self._rest(j, float(lc[j - lo]))
        res = grids._scaled_integral(li, g, low, lo, rest)
        return None if res is None else res / q

    def _rest(self, j: int, C: float) -> grids._Rest:
        """The outer row's nodes past the joining node j (right of it for
        ces, left for cop) as a grids._Rest.  Their inner integral is C,
        node j's, so their outer log-values are c + w_k, c = qC/p."""
        out, n = self._outer, self.grid.s.size
        c = C / self.inner[0] * self.q
        side = range(j + 1, n) if self.head else range(j)
        at = {k: c + float(out.w[k]) for pair in self.grid.edges for k in pair if k in side}
        return grids._Rest(c + float(out.sums[j]), c + float(out.tops[j]), at)


class _Outer(NamedTuple):
    """The screen's tables of one plan's outer row w = q lu + s on the
    window: the log of the panel sums of e^w and the max of w, from each
    node to the end where the inner integral of a row is constant (right
    for ces, left for cop)."""

    w: np.ndarray
    sums: np.ndarray
    tops: np.ndarray


def space_norm3(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """``space_norm`` of an arity-3 spec."""
    _check_is(SpaceSpec, spec=spec)
    if spec.arity != 3:
        raise SpecInvalid("space_norm3 needs an arity-3 spec")
    return space_norm(spec, f, cfg)
