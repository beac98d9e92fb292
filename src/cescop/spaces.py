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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import grids
from .errors import SpecInvalid
from .exponents import Exponent
from .realfun import (
    DEFAULT_CFG,
    Interval,
    QuadratureConfig,
    RealFun,
    log_esssup,
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
    outermost-first.
    """

    kind: str
    exponents: tuple
    weights: tuple
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.kind not in (CES, COP):
            raise SpecInvalid(f"kind must be '{CES}' or '{COP}'")
        if len(self.exponents) not in (2, 3) or len(self.weights) != len(self.exponents):
            raise SpecInvalid("need 2 or 3 exponents with matching weights")
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
    dual=True uses head norms over (0, t).
    """
    q = Exponent(q)
    decades = max(1, int(cfg.S / grids.LOG10))  # at least t = 1
    samples = [10.0 ** k for k in range(-decades + 1, decades, max(1, decades // 4))]
    failures = []
    for t0 in samples:
        I = Interval(0.0, t0) if dual else Interval(t0, grids.INF)
        lval = _log_interval_norm(u, I, q, cfg)
        if np.isneginf(lval) or np.isposinf(lval):
            failures.append((t0, grids.from_log(lval)))
    return OmegaReport(ok=not failures, failures=tuple(failures))


def _log_interval_norm(g, I: Interval, q: Exponent, cfg: QuadratureConfig) -> float:
    """Log of ||g||_{q,I}, computed without linear-space underflow."""
    if q.is_inf:
        return log_esssup(g, I, cfg)
    grid = grids.log_nodes(cfg, I.lo, I.hi)
    qf = float(q)
    return float(grids.log_integral(qf * g.logv(grid.t) + grid.s, grid)) / qf


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
    return grids.from_log(_Plan(spec, cfg).log_norm(f))


class _Plan:
    """One (spec, cfg) made ready for many norms.

    Construction runs the gate, so ``spec`` is the spec with its gate off,
    for the exact norms that follow.  It takes the window, the exponents
    as floats (innermost first) and the log-values on the window of every
    weight but the innermost, which meets f in product(f, v).  For an
    arity-2 spec with finite exponents and an outer weight below +inf it
    also takes the screen's rounding terms.

    ``log_norm(f)`` is the log of space_norm(spec, f, cfg).  ``screen(f)``
    gives (log value, bound) with log_norm(f) within bound of the log
    value, or None: the same product(...).logv and the same elementwise
    steps as log_norm, with grids._scaled_cumint and
    grids._scaled_integral in place of log_cumnorm and log_integral.  Only
    a divergent inner edge gives -inf or +inf, exact and with bound 0.
    None for any spec the rounding terms are not taken for, for rows
    holding +inf or NaN, and wherever grids cannot certify its integrals.
    """

    def __init__(self, spec: SpaceSpec, cfg: QuadratureConfig = DEFAULT_CFG):
        _gate(spec, cfg)
        self.spec, self.cfg = replace(spec, validate=False), cfg
        self.grid = g = grids.log_nodes(cfg)
        self.head = spec.kind == CES
        *self.inner, self.q = (float(e) for e in spec.exponents)
        *ws, self.v = spec.weights
        # outward from the second weight in
        self.lws = tuple(w.logv(g.t) for w in ws[::-1])
        self.lu = self.lws[-1]
        self.lu_max = np.max(self.lu)
        self.screens = (spec.arity == 2 and math.isfinite(self.inner[0])
                        and math.isfinite(self.q) and self.lu_max < grids.INF)
        if self.screens:
            # the rounding of / p, + lu, q * and + s in both paths, from
            # |lc / p + lu| <= |lc| / p + |lu| and |s| <= S
            (p,), q = self.inner, self.q
            self.lu_err = np.abs(self.lu) * (12.0 * grids._U * q)
            self.lc_err = 16.0 * grids._U * q / p
            self.s_err = 4.0 * grids._U * (cfg.S + 1.0)

    def log_norm(self, f: RealFun) -> float:
        g = self.grid
        lv = product(f, self.v).logv(g.t)
        if np.all(np.isneginf(lv)) and math.isfinite(self.inner[0]):
            return grids.NEG_INF
        for e, lw in zip(self.inner, self.lws):
            lv = grids.log_mul(grids.log_cumnorm(lv, g, e, self.head), lw)
        if math.isinf(self.q):
            return grids.log_sup(lv, g)
        return float(grids.log_integral(self.q * lv + g.s, g)) / self.q

    def screen(self, f: RealFun):
        if not self.screens:
            return None
        (p,), q, g = self.inner, self.q, self.grid
        li = p * product(f, self.v).logv(g.t) + g.s
        res = grids._scaled_cumint(li, g, self.head)
        if res is None:
            return None
        lc, (a, b), low = res
        if lc[0] == grids.INF:  # the inner edge estimate diverges
            return (grids.INF if self.lu_max > grids.NEG_INF else grids.NEG_INF), 0.0
        # as log_mul(lc / p, lu), which finds no NaN to mend: lc and lu hold
        # no +inf
        li = lc / p
        li += self.lu
        li *= q
        li += g.s
        # the inner error times q / p, then the rounding terms
        err = np.abs(lc)
        err *= (q / p) * a + self.lc_err
        err += self.lu_err
        err += (q / p) * b + self.s_err
        res = grids._scaled_integral(li, g, err, low)
        if res is None:
            return None
        value = res[0] / q
        return value, res[1] / q + 4.0 * grids._U * abs(value)


def space_norm3(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """``space_norm`` of an arity-3 spec."""
    if spec.arity != 3:
        raise SpecInvalid("space_norm3 needs an arity-3 spec")
    return space_norm(spec, f, cfg)
