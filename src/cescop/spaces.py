"""Cesaro/Copson quasi-norms with two and three parameters.

A two-parameter Cesaro norm takes the inner p-norm of f in weight v over
(0, t) and then the outer q-norm in weight u over t in (0, inf); Copson
uses (t, inf) inside.  Three-parameter spaces add a middle cumulative
level.  Inner norms are accumulated on the shared log grid, so the outer
integral sees the inner norm at every node at once.

``_Screen`` prepares one space for many norms and estimates the log of
a two-parameter norm with grids' scaled linear-space integrals, bounded
in its distance from the log of ``space_norm``; the oracle ranks its
candidates with it.
"""

from __future__ import annotations

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
    return grids.from_log(_log_norm(spec, f, cfg))


def _log_norm(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig) -> float:
    """The log of space_norm(spec, f, cfg), gate included."""
    _gate(spec, cfg)
    *inner, outer = spec.exponents
    ws = spec.weights[::-1]
    head = spec.kind == CES
    g = grids.log_nodes(cfg)
    lv = product(f, ws[0]).logv(g.t)
    if np.all(np.isneginf(lv)) and not inner[0].is_inf:
        return grids.NEG_INF
    for e, w in zip(inner, ws[1:]):
        lv = grids.log_mul(grids.log_cumnorm(lv, g, float(e), head), w.logv(g.t))
    if outer.is_inf:
        return grids.log_sup(lv, g)
    q = float(outer)
    return float(grids.log_integral(q * lv + g.s, g)) / q


class _Screen:
    """One (spec, cfg) made ready to screen many two-parameter norms.

    Construction runs the gate, so ``spec`` is the spec with its gate off,
    for the exact norms that follow.  For an arity-2 spec with finite
    exponents it also takes the exponents as floats and the outer weight's
    log-values on the window once, with their max and rounding terms.

    Calling it with f gives (log value, bound) with _log_norm(spec, f,
    cfg) within bound of the log value, or None: the same
    product(...).logv and the same elementwise steps as _log_norm, with
    grids._scaled_cumint and grids._scaled_integral in place of
    log_cumnorm and log_integral.  Only a divergent inner edge gives -inf
    or +inf, exact and with bound 0.  None for any other spec or an outer
    weight reaching +inf, for rows holding +inf or NaN, and wherever grids
    cannot certify its integrals.
    """

    def __init__(self, spec: SpaceSpec, cfg: QuadratureConfig = DEFAULT_CFG):
        _gate(spec, cfg)
        self.spec = replace(spec, validate=False)
        self.usable = spec.arity == 2 and not any(e.is_inf for e in spec.exponents)
        if not self.usable:
            return
        self.p, self.q = p, q = tuple(float(e) for e in spec.exponents)
        u, self.v = spec.weights
        self.head = spec.kind == CES
        self.grid = grids.log_nodes(cfg)
        self.lu = u.logv(self.grid.t)
        self.lu_max = np.max(self.lu)
        self.usable = self.lu_max < grids.INF
        # the rounding of / p, + lu, q * and + s in both paths, from
        # |lc / p + lu| <= |lc| / p + |lu| and |s| <= S
        self.lu_err = np.abs(self.lu) * (12.0 * grids._U * q)
        self.lc_err = 16.0 * grids._U * q / p
        self.s_err = 4.0 * grids._U * (cfg.S + 1.0)

    def __call__(self, f: RealFun):
        if not self.usable:
            return None
        p, q, g = self.p, self.q, self.grid
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
