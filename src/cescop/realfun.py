"""Nonnegative functions on (0, inf) and the numerical kernel.

Functions are represented by a small algebra of families (powers,
power-log perturbations, exponential tilts, indicators, tabulated data
and their products / sums / real powers).  Every family evaluates in
log-space, so compositions like t^2 e^t * t^-2 e^-t are exact where a
naive evaluation would overflow.  Analytic primitives and tails are
attached wherever the family algebra permits; everything else goes
through adaptive quadrature after the substitution t = e^s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _sciint
from scipy import special as _sps

from . import grids
from .conventions import INF
from .errors import NonIntegrableOscillation

__all__ = [
    "Interval",
    "QuadratureConfig",
    "RealFun",
    "Weight",
    "power",
    "powerlog",
    "expfam",
    "indicator",
    "table",
    "product",
    "funsum",
    "powerof",
    "from_log_callable",
    "constant",
    "ONE",
    "ZERO",
    "integrate",
    "lp_norm",
    "primitive_at",
    "tail_at",
    "esssup",
]

NEG_INF = -math.inf


@dataclass(frozen=True)
class Interval:
    """An open subinterval (lo, hi) of (0, inf); hi may be inf."""

    lo: float = 0.0
    hi: float = INF

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got ({self.lo}, {self.hi})")

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo < hi else None


FULL = Interval(0.0, INF)


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical policy: window size, panel budget, grid density.

    The working window is [e^-S, e^S]; sup_grid is nodes per decade for
    grid-based suprema and nested norms.
    """

    S: float = 30.0
    panels: int = 1024
    sup_grid: int = 256

    def __post_init__(self):
        if self.S <= 0 or self.panels < 16 or self.sup_grid < 8:
            raise ValueError("invalid quadrature configuration")

    @classmethod
    def quick(cls) -> "QuadratureConfig":
        """Coarser settings for randomized suites."""
        return cls(S=16.0, panels=256, sup_grid=24)


DEFAULT_CFG = QuadratureConfig()


class RealFun:
    """Base class: a nonnegative measurable function on (0, inf).

    Subclasses implement ``logv`` (vectorized log-values, -inf where the
    function vanishes) and may provide analytic ``primitive_log`` /
    ``tail_log`` (log of the integral over (0, x) / (x, inf); may return
    +inf when that integral diverges, or None when no closed form exists).
    """

    support: Interval = FULL
    family: str = "opaque"

    def logv(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def primitive_log(self, x: np.ndarray):
        return None

    def tail_log(self, x: np.ndarray):
        return None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(self.logv(t))

    def describe(self) -> str:
        return self.family


class _Power(RealFun):
    family = "power"

    def __init__(self, c: float, alpha: float):
        if c <= 0:
            raise ValueError("power family needs c > 0")
        self.c, self.alpha = float(c), float(alpha)
        self.logc = math.log(c)

    def logv(self, t):
        return self.logc + self.alpha * np.log(t)

    def primitive_log(self, x):
        if self.alpha <= -1.0:
            return np.full_like(np.asarray(x, dtype=float), INF)
        x = np.asarray(x, dtype=float)
        return self.logc - math.log(self.alpha + 1.0) + (self.alpha + 1.0) * np.log(x)

    def tail_log(self, x):
        if self.alpha >= -1.0:
            return np.full_like(np.asarray(x, dtype=float), INF)
        x = np.asarray(x, dtype=float)
        return self.logc - math.log(-self.alpha - 1.0) + (self.alpha + 1.0) * np.log(x)

    def describe(self):
        return f"power(c={self.c:g}, alpha={self.alpha:g})"


class _PowerLog(RealFun):
    family = "powerlog"

    def __init__(self, c: float, alpha: float, beta: float):
        if c <= 0:
            raise ValueError("powerlog family needs c > 0")
        self.c, self.alpha, self.beta = float(c), float(alpha), float(beta)

    def logv(self, t):
        lt = np.log(t)
        return math.log(self.c) + self.alpha * lt + self.beta * np.log1p(np.abs(lt))

    def describe(self):
        return f"powerlog(c={self.c:g}, alpha={self.alpha:g}, beta={self.beta:g})"


class _Exp(RealFun):
    """c * t^alpha * e^{gamma t}."""

    family = "exp"

    def __init__(self, c: float, alpha: float, gamma: float):
        if c <= 0:
            raise ValueError("exp family needs c > 0")
        self.c, self.alpha, self.gamma = float(c), float(alpha), float(gamma)

    def logv(self, t):
        t = np.asarray(t, dtype=float)
        return math.log(self.c) + self.alpha * np.log(t) + self.gamma * t

    def primitive_log(self, x):
        if self.alpha <= -1.0:
            return np.full_like(np.asarray(x, dtype=float), INF)
        if self.gamma < 0:
            x = np.asarray(x, dtype=float)
            a1 = self.alpha + 1.0
            with np.errstate(divide="ignore"):
                lg = np.log(_sps.gammainc(a1, -self.gamma * x))
            return math.log(self.c) - a1 * math.log(-self.gamma) + _sps.gammaln(a1) + lg
        return None  # growing exponential: no stable closed form here

    def tail_log(self, x):
        if self.gamma > 0 or (self.gamma == 0 and self.alpha >= -1.0):
            return np.full_like(np.asarray(x, dtype=float), INF)
        if self.gamma < 0 and self.alpha > -1.0:
            x = np.asarray(x, dtype=float)
            a1 = self.alpha + 1.0
            with np.errstate(divide="ignore"):
                lg = np.log(_sps.gammaincc(a1, -self.gamma * x))
            return math.log(self.c) - a1 * math.log(-self.gamma) + _sps.gammaln(a1) + lg
        return None

    def describe(self):
        return f"exp(c={self.c:g}, alpha={self.alpha:g}, gamma={self.gamma:g})"


class _Indicator(RealFun):
    family = "indicator"

    def __init__(self, interval: Interval):
        self.interval = interval
        self.support = interval

    def logv(self, t):
        t = np.asarray(t, dtype=float)
        # half-open on the right so adjacent pieces tile without gaps
        inside = (t >= self.interval.lo) & (t < self.interval.hi)
        return np.where(inside, 0.0, NEG_INF)

    def primitive_log(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(np.clip(x, self.interval.lo, self.interval.hi) - self.interval.lo)

    def tail_log(self, x):
        if self.interval.hi == INF:
            return np.full_like(np.asarray(x, dtype=float), INF)
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(self.interval.hi - np.clip(x, self.interval.lo, self.interval.hi))

    def describe(self):
        return f"indicator(({self.interval.lo:g}, {self.interval.hi:g}))"


class _Table(RealFun):
    """Log-linear interpolation of positive samples, flat beyond the range."""

    family = "table"

    def __init__(self, log_t: np.ndarray, values: np.ndarray):
        log_t = np.asarray(log_t, dtype=float)
        values = np.asarray(values, dtype=float)
        if log_t.ndim != 1 or log_t.shape != values.shape or log_t.size < 2:
            raise ValueError("table needs matching 1-D log_t and values, >= 2 points")
        if np.any(np.diff(log_t) <= 0):
            raise ValueError("table log_t must be strictly increasing")
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("table values must be positive and finite")
        self.log_t = log_t
        self.log_values = np.log(values)
        warnings.warn("table function extended flat beyond its sampled range", stacklevel=3)

    def logv(self, t):
        return np.interp(np.log(np.asarray(t, dtype=float)), self.log_t, self.log_values)

    def describe(self):
        return f"table({self.log_t.size} pts)"


class _Restricted(RealFun):
    """base * indicator(interval); keeps the base's analytic hints usable."""

    family = "restricted"

    def __init__(self, base: RealFun, interval: Interval):
        self.base = base
        self.interval = interval
        sup = base.support.intersect(interval)
        self.support = sup if sup is not None else Interval(interval.lo, interval.lo * 2 or 1.0)
        self._empty = sup is None

    def logv(self, t):
        t = np.asarray(t, dtype=float)
        # half-open on the right so adjacent pieces tile without gaps
        inside = (t >= self.interval.lo) & (t < self.interval.hi)
        if self._empty:
            return np.full_like(t, NEG_INF)
        return np.where(inside, self.base.logv(t), NEG_INF)

    def _clip(self, x):
        return np.clip(np.asarray(x, dtype=float), self.interval.lo, self.interval.hi)

    def primitive_log(self, x):
        if self._empty:
            return np.full_like(np.asarray(x, dtype=float), NEG_INF)
        lo, hi = self.interval.lo, self.interval.hi
        bp = self.base.primitive_log
        pl_hi = bp(self._clip(x))
        if pl_hi is None or np.any(np.isposinf(pl_hi)):
            # try via the base tail: int_lo^y = T(lo) - T(y)
            bt = self.base.tail_log
            t_lo = bt(np.asarray(lo, dtype=float)) if lo > 0 else None
            if t_lo is None or np.any(np.isposinf(np.asarray(t_lo))):
                return None
            t_hi = bt(self._clip(x))
            return _log_diff(np.asarray(t_lo), np.asarray(t_hi))
        if lo == 0.0:
            return pl_hi
        pl_lo = bp(np.asarray(lo, dtype=float))
        return _log_diff(pl_hi, np.asarray(pl_lo))

    def tail_log(self, x):
        if self._empty:
            return np.full_like(np.asarray(x, dtype=float), NEG_INF)
        hi = self.interval.hi
        if hi == INF:
            bt = self.base.tail_log(self._clip(x))
            return bt
        bp = self.base.primitive_log
        pl_hi = bp(np.asarray(hi, dtype=float))
        if pl_hi is not None and not np.any(np.isposinf(np.asarray(pl_hi))):
            return _log_diff(np.asarray(pl_hi), bp(self._clip(x)))
        bt = self.base.tail_log
        t_x = bt(self._clip(x))
        if t_x is None or np.any(np.isposinf(np.asarray(t_x))):
            return None
        return _log_diff(np.asarray(t_x), np.asarray(bt(np.asarray(hi, dtype=float))))

    def describe(self):
        return f"{self.base.describe()} * indicator(({self.interval.lo:g}, {self.interval.hi:g}))"


def _log_diff(la, lb):
    """log(e^la - e^lb) for la >= lb, elementwise; -inf when equal."""
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(lb == NEG_INF, 1.0, -np.expm1(np.minimum(lb - la, 0.0)))
        out = la + np.log(np.maximum(d, 0.0))
    out = np.where(la == NEG_INF, NEG_INF, out)
    return out


def _common_support(parts) -> Interval | None:
    """The intersection of the parts' supports; None when it is empty."""
    sup = FULL
    for p in parts:
        sup = sup.intersect(p.support)
        if sup is None:
            break
    return sup


class _Product(RealFun):
    """Pointwise product of parts whose supports overlap."""

    family = "product"

    def __init__(self, parts):
        self.parts = list(parts)
        self.support = _common_support(self.parts)

    def logv(self, t):
        t = np.asarray(t, dtype=float)
        out = self.parts[0].logv(t).copy()
        for p in self.parts[1:]:
            out = out + p.logv(t)
        return out

    def describe(self):
        return " * ".join(p.describe() for p in self.parts)


class _Sum(RealFun):
    family = "sum"

    def __init__(self, parts):
        self.parts = list(parts)
        lo = min(p.support.lo for p in parts)
        hi = max(p.support.hi for p in parts)
        self.support = Interval(lo, hi)

    def logv(self, t):
        out = self.parts[0].logv(np.asarray(t, dtype=float))
        for p in self.parts[1:]:
            out = np.logaddexp(out, p.logv(t))
        return out

    def primitive_log(self, x):
        acc = None
        for p in self.parts:
            pl = p.primitive_log(x)
            if pl is None:
                return None
            acc = pl if acc is None else np.logaddexp(acc, pl)
        return acc

    def tail_log(self, x):
        acc = None
        for p in self.parts:
            tl = p.tail_log(x)
            if tl is None:
                return None
            acc = tl if acc is None else np.logaddexp(acc, tl)
        return acc

    def describe(self):
        return " + ".join(p.describe() for p in self.parts)


class _PowerOf(RealFun):
    family = "powerof"

    def __init__(self, base: RealFun, s: float):
        self.base, self.s = base, float(s)
        self.support = base.support if s > 0 else FULL

    def logv(self, t):
        return self.s * self.base.logv(np.asarray(t, dtype=float))

    def describe(self):
        return f"({self.base.describe()})^{self.s:g}"


class _LogCallable(RealFun):
    """Opaque function given by a vectorized log-value callable."""

    family = "opaque"

    def __init__(self, logfn, support: Interval = FULL, label: str = "opaque"):
        self._logfn = logfn
        self.support = support
        self._label = label

    def logv(self, t):
        return np.asarray(self._logfn(np.asarray(t, dtype=float)), dtype=float)

    def describe(self):
        return self._label


# ---------------------------------------------------------------------------
# factories with algebraic simplification

def power(c: float, alpha: float) -> RealFun:
    return _Power(c, alpha)


def powerlog(c: float, alpha: float, beta: float) -> RealFun:
    if beta == 0:
        return _Power(c, alpha)
    return _PowerLog(c, alpha, beta)


def expfam(c: float, alpha: float, gamma: float) -> RealFun:
    if gamma == 0:
        return _Power(c, alpha)
    return _Exp(c, alpha, gamma)


def indicator(lo: float, hi: float) -> RealFun:
    return _Indicator(Interval(lo, hi))


def table(log_t, values) -> RealFun:
    return _Table(np.asarray(log_t), np.asarray(values))


def constant(c: float) -> RealFun:
    if c == 0.0:
        return ZERO
    return _Power(c, 0.0)


ONE = constant(1.0)


class _Zero(RealFun):
    family = "zero"
    support = Interval(1.0, 2.0)

    def logv(self, t):
        return np.full_like(np.asarray(t, dtype=float), NEG_INF)

    def primitive_log(self, x):
        return np.full_like(np.asarray(x, dtype=float), NEG_INF)

    def tail_log(self, x):
        return np.full_like(np.asarray(x, dtype=float), NEG_INF)

    def describe(self):
        return "0"


ZERO = _Zero()


def product(*parts: RealFun) -> RealFun:
    """Pointwise product with family simplification.

    Power/exp factors merge into one analytic factor; indicator factors
    collapse into a restriction so analytic primitives survive.
    """
    flat: list[RealFun] = []
    for p in parts:
        if isinstance(p, _Product):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if any(isinstance(p, _Zero) for p in flat):
        return ZERO
    c, alpha, gamma, lbeta = 1.0, 0.0, 0.0, 0.0
    window: Interval | None = FULL
    rest: list[RealFun] = []
    merged = False
    for p in flat:
        if isinstance(p, _Power):
            c *= p.c
            alpha += p.alpha
            merged = True
        elif isinstance(p, _Exp):
            c *= p.c
            alpha += p.alpha
            gamma += p.gamma
            merged = True
        elif isinstance(p, _PowerLog):
            c *= p.c
            alpha += p.alpha
            lbeta += p.beta
            merged = True
        elif isinstance(p, _Indicator):
            window = window.intersect(p.interval) if window else None
        elif isinstance(p, _Restricted):
            window = window.intersect(p.interval) if window else None
            rest.append(p.base)
        else:
            rest.append(p)
    if window is None:
        return ZERO
    core: list[RealFun] = []
    if merged or not rest:
        if lbeta != 0.0 and gamma != 0.0:
            core.append(_Product([_PowerLog(c, alpha, lbeta), _Exp(1.0, 0.0, gamma)]))
        elif lbeta != 0.0:
            core.append(_PowerLog(c, alpha, lbeta))
        else:
            core.append(expfam(c, alpha, gamma))
    core.extend(rest)
    if _common_support(core) is None:
        return ZERO
    base = core[0] if len(core) == 1 else _Product(core)
    if window.lo == 0.0 and window.hi == INF:
        return base
    return _Restricted(base, window)


def funsum(*parts: RealFun) -> RealFun:
    parts = [p for p in parts if not isinstance(p, _Zero)]
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return _Sum(parts)


def powerof(base: RealFun, s: float) -> RealFun:
    s = float(s)
    if s == 1.0:
        return base
    if isinstance(base, _Power):
        return _Power(base.c ** s, base.alpha * s)
    if isinstance(base, _Exp):
        return _Exp(base.c ** s, base.alpha * s, base.gamma * s)
    if isinstance(base, _PowerLog):
        return _PowerLog(base.c ** s, base.alpha * s, base.beta * s)
    if isinstance(base, _Indicator) and s > 0:
        return base
    if isinstance(base, _Restricted) and s > 0:
        return _Restricted(powerof(base.base, s), base.interval)
    if isinstance(base, _Product):
        return product(*[powerof(p, s) for p in base.parts])
    if isinstance(base, _PowerOf):
        return powerof(base.base, base.s * s)
    if isinstance(base, _Zero) and s > 0:
        return base
    return _PowerOf(base, s)


def from_log_callable(logfn, support: Interval = FULL, label: str = "opaque") -> RealFun:
    return _LogCallable(logfn, support=support, label=label)


@dataclass(frozen=True)
class Weight:
    """A positive, a.e.-finite function on (0, inf).

    Positivity is checked on a coarse log grid at construction.
    """

    fun: RealFun
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.check:
            t = np.logspace(-6, 6, 25)
            lv = self.fun.logv(t)
            if np.any(np.isneginf(lv)) or np.any(np.isposinf(lv)) or np.any(np.isnan(lv)):
                raise ValueError("weight must be positive and finite on (0, inf)")

    def logv(self, t):
        return self.fun.logv(t)

    def __call__(self, t):
        return self.fun(t)

    def describe(self) -> str:
        return self.fun.describe()


def as_fun(w) -> RealFun:
    return w.fun if isinstance(w, Weight) else w


# ---------------------------------------------------------------------------
# integration

def _analytic_interval(g: RealFun, I: Interval):
    """Integral over I from analytic hints, or None if hints do not apply."""
    pl = g.primitive_log(np.asarray([I.hi if I.hi != INF else 1.0]))
    has_prim = pl is not None
    tl = g.tail_log(np.asarray([I.lo if I.lo > 0 else 1.0]))
    has_tail = tl is not None
    if I.lo == 0.0 and I.hi == INF:
        if has_tail:
            # tail in the limit x -> 0+ gives the full integral
            v0 = g.tail_log(np.asarray([1e-300]))
            if v0 is not None:
                return grids.from_log(v0[0])
        return None
    if I.hi == INF:
        if has_tail:
            v = g.tail_log(np.asarray([I.lo]))
            return grids.from_log(v[0])
        return None
    if I.lo == 0.0:
        if has_prim:
            v = g.primitive_log(np.asarray([I.hi]))
            return grids.from_log(v[0])
        return None
    # finite interior interval: try primitive difference, then tail difference
    if has_prim:
        v = g.primitive_log(np.asarray([I.lo, I.hi]))
        if not np.any(np.isposinf(v)):
            return grids.from_log(_log_diff(v[1], v[0]))
    if has_tail:
        v = g.tail_log(np.asarray([I.lo, I.hi]))
        if not np.any(np.isposinf(v)):
            return grids.from_log(_log_diff(v[0], v[1]))
    return None


def integrate(g: RealFun, I: Interval = FULL, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Integral of g over I as a nonnegative extended real.

    Uses analytic primitives/tails when the family algebra provides them,
    otherwise adaptive quadrature on the log-substituted window plus
    power-law estimates for the truncated head and tail.
    """
    g = as_fun(g)
    eff = I.intersect(g.support)
    if eff is None:
        return 0.0
    val = _analytic_interval(g, eff)
    if val is not None:
        return val
    return _quad_interval(g, eff, cfg)


def _quad_interval(g: RealFun, I: Interval, cfg: QuadratureConfig) -> float:
    slo = max(math.log(I.lo), -cfg.S) if I.lo > 0 else -cfg.S
    shi = min(math.log(I.hi), cfg.S) if I.hi != INF else cfg.S
    if slo >= shi:
        return 0.0
    s, t = grids.log_nodes(cfg, math.exp(slo), math.exp(shi))
    li = g.logv(t) + s  # integrand of the ds integral
    if np.any(np.isposinf(li)):
        return INF
    lh, lt = grids.log_edge_estimates(li, s, head=I.lo == 0.0, tail=I.hi == INF)
    if np.isposinf(lh) or np.isposinf(lt):
        return INF
    head, tail = grids.from_log(lh), grids.from_log(lt)

    def integrand(sv):
        with np.errstate(over="ignore"):
            return float(np.exp(g.logv(np.asarray([math.exp(sv)]))[0] + sv))

    with warnings.catch_warnings():
        warnings.simplefilter("error", _sciint.IntegrationWarning)
        try:
            core, err = _sciint.quad(integrand, slo, shi, limit=cfg.panels)
        except _sciint.IntegrationWarning as exc:
            # fall back to the grid estimate; reject if it disagrees badly
            core = grids.from_log(grids.log_trapz(li, s))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rough, rerr = _sciint.quad(integrand, slo, shi, limit=cfg.panels)
                if core > 0 and abs(rough - core) > 0.05 * core:
                    raise NonIntegrableOscillation(str(exc))
            except NonIntegrableOscillation:
                raise
            except Exception:
                raise NonIntegrableOscillation(str(exc)) from exc
    if math.isinf(core) and np.all(np.isfinite(li)):
        # the integrand overflowed inside quad; the grid estimate says
        # whether the integral itself is beyond the float range
        core = grids.from_log(grids.log_trapz(li, s))
    return head + core + tail


def primitive_at(g: RealFun, x: float, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Integral of g over (0, x)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return integrate(g, Interval(0.0, x), cfg)


def tail_at(g: RealFun, x: float, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Integral of g over (x, inf)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return integrate(g, Interval(x, INF), cfg)


# ---------------------------------------------------------------------------
# essential supremum and weighted norms

def log_esssup(f: RealFun, I: Interval = FULL, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Log of the essential supremum of f over I (grid max + refinement)."""
    f = as_fun(f)
    eff = I.intersect(f.support)
    if eff is None:
        return NEG_INF
    s, t = grids.log_nodes(cfg, eff.lo, eff.hi)
    lv = f.logv(t)
    best = grids.log_sup(lv, s, open_lo=eff.lo == 0.0, open_hi=eff.hi == INF)
    if math.isinf(best):
        return best
    i = int(np.nanargmax(lv))
    lo = s[max(i - 1, 0)]
    hi = s[min(i + 1, s.size - 1)]
    for _ in range(4):
        ss = np.linspace(lo, hi, 33)
        vv = f.logv(np.exp(ss))
        j = int(np.nanargmax(vv))
        best = max(best, vv[j])
        lo, hi = ss[max(j - 1, 0)], ss[min(j + 1, ss.size - 1)]
    return float(best)


def esssup(f: RealFun, I: Interval = FULL, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    return grids.from_log(log_esssup(f, I, cfg))


def lp_norm(f: RealFun, w, I: Interval = FULL, p=None, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Weighted Lebesgue quasi-norm ||f w||_{p, I}.

    p is an Exponent (or float/Fraction); p = inf takes the essential
    supremum of f*w over I.
    """
    from .exponents import Exponent

    p = Exponent(p)
    fw = product(as_fun(f), as_fun(w))
    if p.is_inf:
        return esssup(fw, I, cfg)
    pf = float(p)
    val = integrate(powerof(fw, pf), I, cfg)
    if val == 0.0:
        return 0.0
    if math.isinf(val):
        return INF
    return val ** (1.0 / pf)
