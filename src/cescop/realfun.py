"""Nonnegative functions on (0, inf) and the numerical kernel.

Functions are represented by a small algebra of families (the elementary
family c t^alpha (1 + |ln t|)^beta e^{gamma t}, which holds powers,
power-log perturbations and exponential tilts, restrictions to an
interval, an indicator being 1 restricted, tabulated data and their
products / sums / real powers).  A weight is such a function, passed
as is; ``weight`` checks that one is positive and finite.  Every family
evaluates in log-space, so compositions like t^2 e^t * t^-2 e^-t are
exact where a naive evaluation would overflow.  Each family that has a closed-form
integral over (lo, hi) gives its log through one hint, ``integral_log``;
everything else goes through adaptive quadrature after the substitution
t = e^s.
"""

from __future__ import annotations

import importlib
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import grids
from .conventions import INF
from .errors import NonIntegrableOscillation, NumericOverflow, SpecInvalid
from .exponents import Exponent

__all__ = [
    "Interval",
    "QuadratureConfig",
    "RealFun",
    "power",
    "powerlog",
    "expfam",
    "indicator",
    "table",
    "weight",
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
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class _LazyModule:
    """A module imported on its first attribute access and kept from then
    on, so that ``import cescop`` does not pay for scipy up front."""

    def __init__(self, name: str):
        self._name = name
        self._module = None

    def __getattr__(self, attr):
        if self._module is None:
            self._module = importlib.import_module(self._name)
        return getattr(self._module, attr)


# the incomplete-gamma closed forms and the fallback quadrature
_sps = _LazyModule("scipy.special")
_sciint = _LazyModule("scipy.integrate")


@dataclass(frozen=True)
class Interval:
    """An open subinterval (lo, hi) of (0, inf); hi may be inf."""

    lo: float = 0.0
    hi: float = INF

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise SpecInvalid(f"need 0 <= lo < hi, got ({self.lo}, {self.hi})")

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo < hi else None


FULL = Interval(0.0, INF)


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical policy: window size and grid density.

    The working window is [e^-S, e^S], so S is at most the log of the
    largest float; sup_grid is nodes per decade for grid-based suprema
    and nested norms.
    """

    S: float = 30.0
    sup_grid: int = 256

    def __post_init__(self):
        if not (0 < self.S <= _LOG_FLOAT_MAX and 8 <= self.sup_grid < INF):
            raise SpecInvalid("invalid quadrature configuration")

    @classmethod
    def quick(cls) -> "QuadratureConfig":
        """Coarser settings for randomized suites."""
        return cls(S=16.0, sup_grid=24)


DEFAULT_CFG = QuadratureConfig()

# subinterval budget of each adaptive quadrature call
_QUAD_LIMIT = 1024


class RealFun:
    """Base class: a nonnegative measurable function on (0, inf).

    Subclasses implement ``logv`` (vectorized log-values, -inf where the
    function vanishes) and may provide ``integral_log(lo, hi)``: the log of
    the integral over (lo, hi), elementwise, where lo may be 0 and hi may
    be inf; +inf where that integral diverges, None when there is no
    closed form.
    """

    support: Interval = FULL
    family: str = "opaque"

    def logv(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def integral_log(self, lo, hi):
        return None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(self.logv(t))

    def describe(self) -> str:
        return self.family


class _Elementary(RealFun):
    """c * t^alpha * (1 + |ln t|)^beta * e^{gamma t}: the power (beta =
    gamma = 0), power-log (beta != 0) and exponential (gamma != 0)
    families, closed under products and real powers."""

    def __init__(self, c: float, alpha: float, beta: float = 0.0, gamma: float = 0.0):
        self.family = "powerlog" if beta else "exp" if gamma else "power"
        if c <= 0:
            raise SpecInvalid(f"{self.family} family needs c > 0")
        self.c, self.alpha = float(c), float(alpha)
        self.beta, self.gamma = float(beta), float(gamma)
        self.logc = math.log(c)

    def logv(self, t):
        t = np.asarray(t, dtype=float)
        if not (self.alpha or self.beta):
            # no log t, so a constant reads c at t = 0, not 0 * -inf
            return self.logc + self.gamma * t if self.gamma else np.full_like(t, self.logc)
        lt = grids.log_t(t)
        out = self.logc + self.alpha * lt
        if self.beta:
            out = out + self.beta * np.log1p(np.abs(lt))
        if self.gamma:
            out = out + self.gamma * t
        return out

    def _gamma_log(self, x, inc):
        """log of c * int t^alpha e^{gamma t} through the regularized
        incomplete gamma function inc (gammainc: head, gammaincc: tail)."""
        a1 = self.alpha + 1.0
        with np.errstate(divide="ignore"):
            lg = np.log(inc(a1, -self.gamma * x))
        return self.logc - a1 * math.log(-self.gamma) + _sps.gammaln(a1) + lg

    def _log_head(self, x):
        """log of the integral over (0, x); NaN where there is no closed form."""
        if self.alpha <= -1.0:
            return np.full_like(x, INF)
        if self.gamma == 0:
            return self.logc - math.log(self.alpha + 1.0) + (self.alpha + 1.0) * np.log(x)
        if self.gamma < 0:
            return self._gamma_log(x, _sps.gammainc)
        return np.full_like(x, np.nan)  # growing exponential: no stable closed form here

    def _log_tail(self, x):
        """log of the integral over (x, inf); NaN where there is no closed form."""
        if self.gamma > 0 or (self.gamma == 0 and self.alpha >= -1.0):
            return np.full_like(x, INF)
        if self.gamma == 0:
            return self.logc - math.log(-self.alpha - 1.0) + (self.alpha + 1.0) * np.log(x)
        if self.alpha > -1.0:
            return self._gamma_log(x, _sps.gammaincc)
        return np.full_like(x, np.nan)

    def integral_log(self, lo, hi):
        """The tail at lo when hi = inf, else the head at hi when lo = 0;
        inside (0, inf) the difference of two heads where the head at hi
        is finite, else of two tails where the tail at lo is finite, else
        c log(hi/lo) for c/t; a constant c gives c (hi - lo)."""
        if self.beta:
            return None
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        if not (self.alpha or self.gamma):
            with np.errstate(divide="ignore"):
                return self.logc + np.log(hi - lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_hi, t_lo = self._log_head(hi), self._log_tail(lo)
            out = np.where(hi == INF, t_lo, h_hi)
            inner = (lo > 0.0) & (hi < INF)
            if inner.any():
                log_log = (self.logc + np.log(np.log(hi / lo))
                           if self.alpha == -1.0 and not self.gamma else np.nan)
                diff = np.where(np.isfinite(h_hi), _log_diff(h_hi, self._log_head(lo)),
                                np.where(np.isfinite(t_lo), _log_diff(t_lo, self._log_tail(hi)),
                                         log_log))
                out = np.where(inner, diff, out)
        return None if np.isnan(out).any() else out

    def describe(self):
        extra = "".join(f", {k}={v:g}" for k, v in (("beta", self.beta), ("gamma", self.gamma))
                        if v)
        return f"{self.family}(c={self.c:g}, alpha={self.alpha:g}{extra})"


def _is_unit(f: RealFun) -> bool:
    """Whether f is the elementary 1: c = 1 and every exponent 0."""
    return isinstance(f, _Elementary) and (f.c, f.alpha, f.beta, f.gamma) == (1.0, 0.0, 0.0, 0.0)


class _Table(RealFun):
    """Log-linear interpolation of log-values, which may be -inf or +inf,
    at the increasing nodes log_t, flat beyond them.  A run of one
    infinity, or a panel from it to a finite value, reads that infinity;
    a panel from -inf to +inf reads -inf, the 0 * inf = 0 rule."""

    family = "table"

    def __init__(self, log_t: np.ndarray, log_values: np.ndarray, label: str | None = None):
        self.log_t, self.log_values, self._label = log_t, log_values, label

    def logv(self, t):
        lv = np.interp(np.log(np.maximum(t, 1e-300)), self.log_t, self.log_values)
        return np.where(np.isnan(lv), NEG_INF, lv)

    def describe(self):
        return self._label or f"table({self.log_t.size} pts)"


class _Restricted(RealFun):
    """base * indicator(interval); integrates as the base over the clipped interval."""

    family = "restricted"

    def __init__(self, base: RealFun, interval: Interval):
        self.base = base
        self.interval = interval
        self.support = base.support.intersect(interval)

    def logv(self, t):
        t = np.asarray(t, dtype=float)
        # half-open on the right so adjacent pieces tile without gaps
        inside = (t >= self.interval.lo) & (t < self.interval.hi)
        return np.where(inside, self.base.logv(t), NEG_INF)

    def integral_log(self, lo, hi):
        a, b = self.interval.lo, self.interval.hi
        return self.base.integral_log(np.clip(lo, a, b), np.clip(hi, a, b))

    def describe(self):
        window = f"indicator(({self.interval.lo:g}, {self.interval.hi:g}))"
        return window if _is_unit(self.base) else f"{self.base.describe()} * {window}"


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

    def integral_log(self, lo, hi):
        acc = None
        for p in self.parts:
            v = p.integral_log(lo, hi)
            if v is None:
                return None
            acc = v if acc is None else np.logaddexp(acc, v)
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
    return _Elementary(c, alpha)


def powerlog(c: float, alpha: float, beta: float) -> RealFun:
    return _Elementary(c, alpha, beta=beta)


def expfam(c: float, alpha: float, gamma: float) -> RealFun:
    return _Elementary(c, alpha, gamma=gamma)


def indicator(lo: float, hi: float) -> RealFun:
    return _Restricted(ONE, Interval(lo, hi))


def table(log_t, values) -> RealFun:
    """Log-linear interpolation of positive samples at t = e^log_t; warns
    that it is flat beyond them."""
    log_t = np.asarray(log_t, dtype=float)
    values = np.asarray(values, dtype=float)
    if log_t.ndim != 1 or log_t.shape != values.shape or log_t.size < 2:
        raise SpecInvalid("table needs matching 1-D log_t and values, >= 2 points")
    if not np.all(np.isfinite(log_t)) or np.any(np.diff(log_t) <= 0):
        raise SpecInvalid("table log_t must be finite and strictly increasing")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise SpecInvalid("table values must be positive and finite")
    warnings.warn("table function extended flat beyond its sampled range", stacklevel=2)
    return _Table(log_t, np.log(values))


def constant(c: float) -> RealFun:
    if c == 0.0:
        return ZERO
    return _Elementary(c, 0.0)


ONE = constant(1.0)


class _Zero(RealFun):
    family = "zero"
    support = Interval(1.0, 2.0)

    def logv(self, t):
        return np.full_like(np.asarray(t, dtype=float), NEG_INF)

    def integral_log(self, lo, hi):
        return np.full(np.broadcast(lo, hi).shape, NEG_INF)

    def describe(self):
        return "0"


ZERO = _Zero()


def product(*parts: RealFun) -> RealFun:
    """Pointwise product in normal form.

    The elementary factors merge into one (c multiplies; alpha, beta and
    gamma add), left out when it is 1 and other factors remain; the
    windows of restrictions, indicators among them, collapse into one
    restriction of the rest so analytic primitives survive; a product
    that vanishes everywhere is ZERO.
    """
    c, alpha, beta, gamma = 1.0, 0.0, 0.0, 0.0
    window: Interval | None = FULL
    rest: list[RealFun] = []
    todo = list(parts)
    while todo:
        p = todo.pop(0)
        if isinstance(p, _Zero):
            return ZERO
        if isinstance(p, _Product):
            todo[:0] = p.parts
        elif isinstance(p, _Restricted):
            window = window.intersect(p.interval) if window else None
            todo.insert(0, p.base)
        elif isinstance(p, _Elementary):
            c *= p.c
            alpha += p.alpha
            beta += p.beta
            gamma += p.gamma
        else:
            rest.append(p)
    elementary = _Elementary(c, alpha, beta, gamma)
    core = rest if rest and _is_unit(elementary) else [elementary, *rest]
    sup = _common_support(core)
    if window is None or sup is None or sup.intersect(window) is None:
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
    if s == 0.0:
        return ONE
    if isinstance(base, _Elementary):
        return _Elementary(base.c ** s, base.alpha * s, base.beta * s, base.gamma * s)
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


def weight(fun: RealFun) -> RealFun:
    """fun, checked on a coarse log grid to be a weight: a positive,
    a.e.-finite function on (0, inf)."""
    if not np.all(np.isfinite(fun.logv(np.logspace(-6, 6, 25)))):
        raise SpecInvalid("weight must be positive and finite on (0, inf)")
    return fun


def as_fun(f: RealFun) -> RealFun:
    """f itself.  Only the benchmark's layer map (perfbench/layers.py)
    still binds this name; it goes when that map is rewritten (ROADMAP
    direction 2)."""
    return f


# ---------------------------------------------------------------------------
# integration

def integrate(g: RealFun, I: Interval = FULL, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Integral of g over I as a nonnegative extended real.

    Uses the family's closed form (``integral_log``) when it has one,
    otherwise adaptive quadrature on the log-substituted window plus
    power-law estimates for the truncated head and tail.
    """
    eff = I.intersect(g.support)
    if eff is None:
        return 0.0
    lv = g.integral_log(eff.lo, eff.hi)
    if lv is not None:
        return grids.from_log(float(lv))
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
    lh = grids.log_head_estimate(li, s) if I.lo == 0.0 else NEG_INF
    lt = grids.log_tail_estimate(li, s) if I.hi == INF else NEG_INF
    if np.isposinf(lh) or np.isposinf(lt):
        return INF
    head, tail = grids.from_log(lh), grids.from_log(lt)

    def integrand(sv):
        with np.errstate(over="ignore"):
            return float(np.exp(g.logv(np.asarray([math.exp(sv)]))[0] + sv))

    # epsabs=0: quad's default absolute floor (1.49e-8) would accept a
    # small integral at any relative error
    core, _, _, *msg = _sciint.quad(integrand, slo, shi, epsabs=0.0, limit=_QUAD_LIMIT,
                                    full_output=1)
    if msg:
        # quad did not converge: take the grid estimate, and reject it if
        # quad's own value disagrees badly
        rough, core = core, grids.from_log(grids.log_trapz(li, s))
        if core > 0 and abs(rough - core) > 0.05 * core:
            raise NonIntegrableOscillation(msg[0])
    if math.isinf(core) and np.all(np.isfinite(li)):
        # the integrand overflowed inside quad; the grid estimate says
        # whether the integral itself is beyond the float range
        core = grids.from_log(grids.log_trapz(li, s))
    return head + core + tail


def primitive_at(g: RealFun, x: float, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Integral of g over (0, x)."""
    if x <= 0:
        raise SpecInvalid("x must be positive")
    return integrate(g, Interval(0.0, x), cfg)


def tail_at(g: RealFun, x: float, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Integral of g over (x, inf)."""
    if x <= 0:
        raise SpecInvalid("x must be positive")
    return integrate(g, Interval(x, INF), cfg)


# ---------------------------------------------------------------------------
# essential supremum and weighted norms

def log_esssup(f: RealFun, I: Interval = FULL, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Log of the essential supremum of f over I (grid max + refinement)."""
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


def lp_norm(f: RealFun, w: RealFun, I: Interval = FULL, p=None, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Weighted Lebesgue quasi-norm ||f w||_{p, I}.

    p is an Exponent (or float/Fraction); p = inf takes the essential
    supremum of f*w over I.
    """
    p = Exponent(p)
    fw = product(f, w)
    if p.is_inf:
        return esssup(fw, I, cfg)
    pf = float(p)
    g = powerof(fw, pf)
    try:
        val = integrate(g, I, cfg)
    except NumericOverflow:
        # the p-th power is beyond the float range; where the closed
        # form gives its log, the root is taken in log space
        eff = I.intersect(g.support)
        lv = g.integral_log(eff.lo, eff.hi)
        if lv is None:
            raise
        return grids.from_log(float(lv) / pf)
    if val == 0.0:
        return 0.0
    if math.isinf(val):
        return INF
    return val ** (1.0 / pf)
