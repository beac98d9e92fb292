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
    Weight,
    as_fun,
    product,
)

__all__ = ["SpaceSpec", "space_norm", "space_norm3", "check_omega", "OmegaReport"]

CES = "ces"
COP = "cop"


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a 2- or 3-parameter Cesaro/Copson space.

    Exponents are ordered innermost-first, matching the subscripts of
    ces_{p,q}(u,v) and ces_{p,q,r}(u,v,w); weights are outermost-first.
    """

    kind: str
    exponents: tuple
    weights: tuple
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.kind not in (CES, COP):
            raise ValueError(f"kind must be '{CES}' or '{COP}'")
        if len(self.exponents) not in (2, 3) or len(self.weights) != len(self.exponents):
            raise ValueError("need 2 or 3 exponents with matching weights")
        object.__setattr__(self, "exponents", tuple(
            e if isinstance(e, Exponent) else Exponent(e) for e in self.exponents))

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


def check_omega(u: Weight, q, dual: bool = False,
                cfg: QuadratureConfig = DEFAULT_CFG) -> OmegaReport:
    """Sampled membership check of u in Omega_q (tail norms) or its dual.

    dual=False requires 0 < ||u||_{q,(t,inf)} < inf for sampled t;
    dual=True uses head norms over (0, t).
    """
    q = q if isinstance(q, Exponent) else Exponent(q)
    decades = int(cfg.S / grids.LOG10)
    samples = [10.0 ** k for k in range(-decades + 1, decades, max(1, decades // 4))]
    failures = []
    ufun = as_fun(u)
    for t0 in samples:
        I = Interval(0.0, t0) if dual else Interval(t0, INF)
        lval = _log_interval_norm(ufun, I, q, cfg)
        if np.isneginf(lval) or np.isposinf(lval):
            failures.append((t0, grids.from_log(lval)))
    return OmegaReport(ok=not failures, failures=tuple(failures))


def _log_interval_norm(g, I: Interval, q: Exponent, cfg: QuadratureConfig) -> float:
    """Log of ||g||_{q,I}, computed without linear-space underflow."""
    from .realfun import log_esssup

    if q.is_inf:
        return log_esssup(g, I, cfg)
    s, t = grids.log_nodes(cfg, I.lo, I.hi)
    qf = float(q)
    li = qf * g.logv(t) + s
    return float(grids.log_integral(li, s, head=I.lo == 0.0, tail=I.hi == INF)) / qf


def _cum_lognorm(lf: np.ndarray, s: np.ndarray, p: Exponent, head: bool) -> np.ndarray:
    """Log of ||exp(lf)||_{p,(0,t_j)} (head) or (t_j,inf) at every node."""
    if p.is_inf:
        return grids.running_logmax(lf) if head else grids.suffix_logmax(lf)
    pf = float(p)
    return grids.log_cumint(pf * lf + s, s, head) / pf


def _outer_lognorm(lg: np.ndarray, lu: np.ndarray, s: np.ndarray, q: Exponent) -> float:
    """Log of the outer q-norm in weight exp(lu) of exp(lg) over (0, inf)."""
    with np.errstate(invalid="ignore"):
        lv = grids.zero_wins(lg + lu)
    if q.is_inf:
        return grids.log_sup(lv, s)
    qf = float(q)
    return float(grids.log_integral(qf * lv + s, s)) / qf


def _gate(spec: SpaceSpec, cfg: QuadratureConfig) -> None:
    if not spec.validate or spec.arity != 2:
        return
    u = spec.weights[0]
    q = spec.exponents[1]
    rep = check_omega(u, q, dual=(spec.kind == COP), cfg=cfg)
    if not rep.ok:
        cls = "dual-Omega" if spec.kind == COP else "Omega"
        raise SpecInvalid(
            f"outer weight fails the {cls}_{q.value} gate at t = "
            + ", ".join(f"{t:g}" for t, _ in rep.failures))


def space_norm(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Two-parameter Cesaro/Copson quasi-norm of a nonnegative f."""
    if spec.arity != 2:
        raise ValueError("space_norm needs an arity-2 spec")
    _gate(spec, cfg)
    u, v = spec.weights
    p, q = spec.exponents
    s, t = grids.log_nodes(cfg)
    lf = product(as_fun(f), as_fun(v)).logv(t)
    if np.all(np.isneginf(lf)) and not p.is_inf:
        return 0.0
    inn = _cum_lognorm(lf, s, p, head=(spec.kind == CES))
    return grids.from_log(_outer_lognorm(inn, as_fun(u).logv(t), s, q))


def space_norm3(spec: SpaceSpec, f: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Three-parameter Cesaro/Copson quasi-norm of a nonnegative f."""
    if spec.arity != 3:
        raise ValueError("space_norm3 needs an arity-3 spec")
    u, v, w = spec.weights
    p, q, r = spec.exponents
    head = spec.kind == CES
    s, t = grids.log_nodes(cfg)
    lf = product(as_fun(f), as_fun(w)).logv(t)
    inn = _cum_lognorm(lf, s, p, head=head)
    with np.errstate(invalid="ignore"):
        mid = _cum_lognorm(grids.zero_wins(inn + as_fun(v).logv(t)), s, q, head=head)
    return grids.from_log(_outer_lognorm(mid, as_fun(u).logv(t), s, r))
