"""Weight transforms and structural checks.

The characterizations are built from a small set of weight transforms:
the head/tail averaging operators A and A*, the cumulative norm V with
its normalized kernel, fundamental functions of a representation
density, and the densities of the Stieltjes differentials that the
closed forms integrate against.  Everything returns lazy RealFun
objects so the transforms compose (the recipes nest them three deep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .conventions import INF
from .errors import DegenerateOperator, DivergentRepresentation, SpecInvalid
from .exponents import Exponent, arrow, dual_exponent
from .realfun import (
    DEFAULT_CFG,
    QuadratureConfig,
    RealFun,
    _Table,
    constant,
    from_log_callable,
    powerof,
    product,
)

__all__ = [
    "op_A", "op_A_star", "big_V", "cal_V", "kernel_A",
    "FundamentalSpec", "fundamental_function",
    "MonotoneReport", "LimitReport",
    "is_quasiconcave", "is_admissible", "is_nondegenerate",
    "stieltjes_density", "stieltjes_tail_density",
    "head_integral_fun", "tail_integral_fun", "running_sup_fun", "suffix_sup_fun",
]

NEG_INF = -math.inf
_BIG = 1e30


def _sanitize(lv: np.ndarray) -> np.ndarray:
    """NaN and -inf as -1e30, +inf as 1e30: the structural checks take
    finite differences of sampled log-values and report finite witnesses."""
    return np.clip(np.nan_to_num(lv, nan=-_BIG, posinf=_BIG, neginf=-_BIG), -_BIG, _BIG)


def _grid_norm_fun(g: RealFun, q: float, head: bool, cfg: QuadratureConfig,
                   label: str) -> RealFun:
    """x -> ||g||_{q,(0,x)} (head) or ||g||_{q,(x,inf)}, tabulated on the
    working grid by ``grids.log_cumnorm``."""
    s, t = grids.log_nodes(cfg)
    return _Table(s, grids.log_cumnorm(g.logv(t), s, q, head), label)


def _integral_fun(g: RealFun, head: bool, cfg: QuadratureConfig) -> RealFun:
    label = f"{'head' if head else 'tail'}({g.describe()})"

    def hint(t):
        return g.integral_log(0.0, t) if head else g.integral_log(t, INF)

    if hint(np.array([1.0])) is not None:
        return from_log_callable(hint, label=label)
    return _grid_norm_fun(g, 1.0, head, cfg, label)


def head_integral_fun(g: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """x -> integral of g over (0, x), as a lazy RealFun.

    Uses the family's closed form (``integral_log(0, x)``) when it has
    one; otherwise a cumulative trapezoid on the working grid.
    """
    return _integral_fun(g, True, cfg)


def tail_integral_fun(g: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """x -> integral of g over (x, inf), as a lazy RealFun."""
    return _integral_fun(g, False, cfg)


def running_sup_fun(g: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """x -> esssup of g over (0, x), via the grid prefix maxima."""
    return _grid_norm_fun(g, INF, True, cfg, f"runsup({g.describe()})")


def suffix_sup_fun(g: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """x -> esssup of g over (x, inf), via the grid suffix maxima."""
    return _grid_norm_fun(g, INF, False, cfg, f"sufsup({g.describe()})")


def _window_integral(f: RealFun, e: float, head: bool, cfg: QuadratureConfig) -> RealFun:
    """The head (or tail) integral of f^e, checked at the right window
    edge: DegenerateOperator when a head integral vanishes there or a
    tail integral diverges."""
    F = (head_integral_fun if head else tail_integral_fun)(powerof(f, e), cfg)
    lv = F.logv(np.array([math.exp(cfg.S)]))[0]
    if lv == NEG_INF if head else np.isposinf(lv):
        raise DegenerateOperator(
            f"{'head' if head else 'tail'} integral of ({f.describe()})^{e:g} "
            f"{'vanishes' if head else 'diverges'} on the window")
    return F


def _finite(e) -> float:
    e = Exponent(e)
    if e.is_inf:
        raise SpecInvalid("operator exponents must be finite")
    return float(e)


def op_A(u: RealFun, q, p, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """A_{q,p}(u)(x) = (int_0^x u^q)^(-1/p) * u(x)^((q-p)/p)."""
    qf, pf = _finite(q), _finite(p)
    P = _window_integral(u, qf, True, cfg)
    return product(powerof(P, -1.0 / pf), powerof(u, (qf - pf) / pf))


def op_A_star(u: RealFun, q, p, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """A*_{q,p}(u)(x) = (int_x^inf u^q)^(1/p) * u(x)^((p-q)/p)."""
    qf, pf = _finite(q), _finite(p)
    T = _window_integral(u, qf, False, cfg)
    return product(powerof(T, 1.0 / pf), powerof(u, (pf - qf) / pf))


def big_V(v: RealFun, p, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """V(x) = ||v||_{p',(0,x)}, non-decreasing in x."""
    pd = dual_exponent(p)
    if pd.is_inf:
        return running_sup_fun(v, cfg)
    pdf = float(pd)
    return powerof(head_integral_fun(powerof(v, pdf), cfg), 1.0 / pdf)


def cal_V(V: RealFun, x, t):
    """V(x) / (V(x) + V(t)), evaluated in log space; in (0, 1)."""
    lx = V.logv(np.asarray(x, dtype=float))
    lt = V.logv(np.asarray(t, dtype=float))
    return np.exp(grids.log_kernel(lx, lt))


def kernel_A(a: RealFun, x, t):
    """a(x) / (a(x) + a(t)) for a non-decreasing a."""
    return cal_V(a, x, t)


@dataclass(frozen=True)
class FundamentalSpec:
    """An admissible-candidate U together with a representation density w."""

    U: RealFun
    w: RealFun


def fundamental_function(spec: FundamentalSpec, t: float,
                         cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """phi(t) = int_0^inf w(tau) U(t) / (U(t) + U(tau)) dtau."""
    s, tau = grids.log_nodes(cfg)
    lk = grids.log_kernel(spec.U.logv(np.array([float(t)]))[0], spec.U.logv(tau))
    tot = grids.log_row_reduce(lk, spec.w.logv(tau), s, 1.0)
    if np.isposinf(tot):
        raise DivergentRepresentation(f"representation integral diverges at t = {t:g}")
    return grids.from_log(tot)


@dataclass(frozen=True)
class MonotoneReport:
    ok: bool
    increase_defect: float   # worst factor by which f drops below its past max
    decrease_defect: float   # worst factor by which f/a exceeds its past min


@dataclass(frozen=True)
class LimitReport:
    ok: bool
    statuses: tuple  # per-check "pass" | "fail" | "inconclusive"
    witnesses: tuple  # per-check sampled log-values


def _trend_samples(kmax: int = 40) -> np.ndarray:
    return 2.0 ** np.arange(-kmax, kmax + 1, dtype=float)


def is_quasiconcave(f: RealFun, a: RealFun, cfg: QuadratureConfig = DEFAULT_CFG,
                    slack: float = 10.0) -> MonotoneReport:
    """Sampled check that f is equivalent to an increasing function while
    f/a is equivalent to a decreasing one, within the given factor."""
    t = _trend_samples()
    lf = _sanitize(f.logv(t))
    la = _sanitize(a.logv(t))
    up = float(np.max(np.maximum.accumulate(lf) - lf))
    ld = lf - la
    down = float(np.max(ld - np.minimum.accumulate(ld)))
    tol = math.log(slack)
    return MonotoneReport(ok=(up <= tol and down <= tol),
                          increase_defect=math.exp(min(up, 700.0)),
                          decrease_defect=math.exp(min(down, 700.0)))


def is_admissible(U: RealFun, cfg: QuadratureConfig = DEFAULT_CFG) -> LimitReport:
    """U continuous and strictly increasing with U(0+) = 0, U(inf) = inf."""
    t = _trend_samples()
    lv = U.logv(t)
    strict = bool(np.all(np.diff(lv) > 0)) and bool(np.all(np.isfinite(lv)))
    l1 = float(U.logv(np.array([1.0]))[0])
    zero_at_0 = lv[0] < l1 - math.log(1e6)
    inf_at_inf = lv[-1] > l1 + math.log(1e6)
    statuses = ("pass" if strict else "fail",
                "pass" if zero_at_0 else "fail",
                "pass" if inf_at_inf else "fail")
    return LimitReport(ok=all(s == "pass" for s in statuses),
                       statuses=statuses, witnesses=(tuple(lv[:3]), tuple(lv[-3:])))


def _limit_zero_status(lv: np.ndarray) -> str:
    """Decide whether the sampled log-values tend to -inf (limit 0).

    lv is ordered toward the limit point.  A clean negative slope over
    the last decade of samples is a pass; a clean non-negative one is a
    fail; anything non-monotone is inconclusive.
    """
    lv = _sanitize(np.asarray(lv, dtype=float))
    span = min(10, lv.size - 1)
    steps = np.diff(lv[-(span + 1):])
    slope = float(np.mean(steps))
    if slope <= -0.05:
        return "pass"
    if np.any(steps > 0.25) and np.any(steps < -0.25):
        return "inconclusive"
    return "fail"


def is_nondegenerate(phi: RealFun, U: RealFun,
                     cfg: QuadratureConfig = DEFAULT_CFG) -> LimitReport:
    """The four vanishing limits of non-degenerate U-quasiconcavity.

    Limits are estimated by extrapolation along t = 2^(+-k), k <= 40.
    """
    ks = np.arange(0, 41, dtype=float)
    t_small = 2.0 ** (-ks)
    t_large = 2.0 ** ks
    ls, ll = phi.logv(t_small), phi.logv(t_large)
    lUs, lUl = U.logv(t_small), U.logv(t_large)
    checks = (
        ls,          # phi(t) -> 0 as t -> 0+
        -ll,         # 1/phi(t) -> 0 as t -> inf
        ll - lUl,    # phi(t)/U(t) -> 0 as t -> inf
        lUs - ls,    # U(t)/phi(t) -> 0 as t -> 0+
    )
    statuses = tuple(_limit_zero_status(c) for c in checks)
    return LimitReport(ok=all(s == "pass" for s in statuses),
                       statuses=statuses,
                       witnesses=tuple(tuple(_sanitize(c)[-3:]) for c in checks))


def stieltjes_density(u: RealFun, r, p, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """Density of d(-||u||_{r,(0,t)}^{-(r->p)}).

    Computed by differentiating the head primitive directly:
    ((r->p)/r) * (int_0^t u^r)^(-(r->p)/r - 1) * u(t)^r.
    """
    rf = _finite(r)
    e = arrow(r, p)
    if e.is_inf:
        raise SpecInvalid("requires p < r so that r->p is finite")
    ef = float(e)
    P = _window_integral(u, rf, True, cfg)
    return product(constant(ef / rf), powerof(P, -ef / rf - 1.0), powerof(u, rf))


def stieltjes_tail_density(w: RealFun, q, cfg: QuadratureConfig = DEFAULT_CFG) -> RealFun:
    """Density of d(-||w||_{q,(t,inf)}^{q'}) for q < 1.

    Computed as (q'/q) * (int_t^inf w^q)^(q'/q - 1) * w(t)^q.
    """
    qe = Exponent(q)
    qd = dual_exponent(qe)
    if qd.is_inf:
        raise SpecInvalid("requires q != 1 so that q' is finite")
    qf, qdf = float(qe), float(qd)
    T = _window_integral(w, qf, False, cfg)
    return product(constant(qdf / qf), powerof(T, qdf / qf - 1.0), powerof(w, qf))
