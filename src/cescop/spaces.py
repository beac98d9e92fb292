"""Cesaro/Copson quasi-norms with two and three parameters.

A two-parameter Cesaro norm takes the inner p-norm of f in weight v over
(0, t) and then the outer q-norm in weight u over t in (0, inf); Copson
uses (t, inf) inside.  Three-parameter spaces add a middle cumulative
level.  Inner norms are accumulated on the shared log grid, so the outer
integral sees the inner norm at every node at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grids
from .conventions import INF
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
    decades = int(cfg.S / grids.LOG10)
    samples = [10.0 ** k for k in range(-decades + 1, decades, max(1, decades // 4))]
    failures = []
    for t0 in samples:
        I = Interval(0.0, t0) if dual else Interval(t0, INF)
        lval = _log_interval_norm(u, I, q, cfg)
        if np.isneginf(lval) or np.isposinf(lval):
            failures.append((t0, grids.from_log(lval)))
    return OmegaReport(ok=not failures, failures=tuple(failures))


def _log_interval_norm(g, I: Interval, q: Exponent, cfg: QuadratureConfig) -> float:
    """Log of ||g||_{q,I}, computed without linear-space underflow."""
    if q.is_inf:
        return log_esssup(g, I, cfg)
    s, t = grids.log_nodes(cfg, I.lo, I.hi)
    qf = float(q)
    li = qf * g.logv(t) + s
    return float(grids.log_integral(li, s, head=I.lo == 0.0, tail=I.hi == INF)) / qf


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
    _gate(spec, cfg)
    *inner, outer = spec.exponents
    ws = spec.weights[::-1]
    head = spec.kind == CES
    s, t = grids.log_nodes(cfg)
    lv = product(f, ws[0]).logv(t)
    if np.all(np.isneginf(lv)) and not inner[0].is_inf:
        return 0.0
    for e, w in zip(inner, ws[1:]):
        lv = grids.log_mul(grids.log_cumnorm(lv, s, float(e), head), w.logv(t))
    if outer.is_inf:
        return grids.from_log(grids.log_sup(lv, s))
    q = float(outer)
    return grids.from_log(float(grids.log_integral(q * lv + s, s)) / q)


def space_norm3(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """``space_norm`` of an arity-3 spec."""
    if spec.arity != 3:
        raise SpecInvalid("space_norm3 needs an arity-3 spec")
    return space_norm(spec, f, cfg)
