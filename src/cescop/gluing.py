"""Gluing functionals, dyadic covers and almost-geometric sequences.

Each continuous lemma asserts a two-sided equivalence between a global
kernel-weighted functional (the left side) and a sum of a head term and
a tail term (the right side).  Both sides are evaluated on a shared log
grid so failures are attributable to one term.  The discrete lemmas
bound weighted l^q norms of cumulative sums by the diagonal sequence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import grids
from .conventions import INF
from .errors import NoWitness, ZeroMass
from .realfun import (
    DEFAULT_CFG,
    QuadratureConfig,
    RealFun,
    as_fun,
)

__all__ = [
    "LEMMAS", "GlueInstance", "GlueResult", "glue_eval",
    "DyadicCover", "dyadic_cover",
    "AlmostGeometricWitness", "almost_geometric_check", "discrete_equiv",
    "random_instance",
]

NEG_INF = -math.inf

SUP_SUP = "SUP_SUP"
SUP_INT = "SUP_INT"
INT_SUP = "INT_SUP"
INT_INT_SUP = "INT_INT_SUP"
INTEGRAL = "INTEGRAL"
MIXED = "MIXED"
LEMMAS = (SUP_SUP, SUP_INT, INT_SUP, INT_INT_SUP, INTEGRAL, MIXED)

# the kernel matrices are quadratic in the grid size; default to a
# moderate window rather than the high-accuracy norm grid
GLUE_CFG = QuadratureConfig(S=16.0, sup_grid=32)

_ROW_CHUNK = 256


@dataclass(frozen=True)
class GlueInstance:
    lemma_id: str
    g: RealFun
    h: RealFun
    a: RealFun  # non-decreasing
    exps: dict = field(default_factory=dict)  # alpha/beta/gamma as needed

    def __post_init__(self):
        if self.lemma_id not in LEMMAS:
            raise ValueError(f"unknown lemma id {self.lemma_id!r}")
        need = {SUP_SUP: (), SUP_INT: ("beta",), INT_SUP: ("beta",),
                INT_INT_SUP: ("alpha", "beta"), INTEGRAL: ("alpha", "beta", "gamma"),
                MIXED: ("beta",)}[self.lemma_id]
        for k in need:
            if k not in self.exps or not (0 < float(self.exps[k]) < INF):
                raise ValueError(f"lemma {self.lemma_id} needs positive exponent {k!r}")


@dataclass(frozen=True)
class GlueResult:
    lhs: float
    rhs_terms: tuple
    rhs: float
    ratio: float  # nan when both sides are 0 or both infinite


def _ratio(lhs: float, rhs: float) -> float:
    if (lhs == 0.0 and rhs == 0.0) or (math.isinf(lhs) and math.isinf(rhs)):
        return math.nan
    if rhs == 0.0:
        return INF
    if math.isinf(rhs):
        return 0.0
    return lhs / rhs


def _scale(c: float, arr: np.ndarray) -> np.ndarray:
    """c * arr in log space, honoring x^0 = 1 even for x in {0, inf}."""
    if c == 0.0:
        return np.zeros_like(arr)
    with np.errstate(invalid="ignore"):
        return c * arr


def _combine(*parts: np.ndarray) -> np.ndarray:
    """Sum of log factors with the 0 * inf = 0 convention.

    A NaN can only arise from adding -inf (a zero factor) to +inf (an
    infinite one); the zero factor wins.
    """
    with np.errstate(invalid="ignore"):
        out = parts[0]
        for p in parts[1:]:
            out = out + p
    return grids.zero_wins(out)


def _row_kernel_ops(la: np.ndarray, s: np.ndarray, reduce_fns):
    """Evaluate per-x reductions of the kernel log A(x,t) over the grid.

    reduce_fns maps a (chunk, n) array of log kernel values at rows x_i,
    and the log of its complement 1 - A(x,t) = A(t,x), to one or more
    per-row log quantities; rows are processed in chunks to bound the
    quadratic memory footprint.
    """
    n = la.size
    outs = None
    for start in range(0, n, _ROW_CHUNK):
        lax = la[start:start + _ROW_CHUNK]
        with np.errstate(invalid="ignore"):
            lA = lax[:, None] - np.logaddexp(lax[:, None], la[None, :])
        lA = np.nan_to_num(lA, nan=math.log(0.5), posinf=0.0)
        lAc = np.log(np.maximum(1.0 - np.exp(lA), 1e-300))
        chunk_outs = reduce_fns(lA, lAc)
        if outs is None:
            outs = [[c] for c in chunk_outs]
        else:
            for acc, c in zip(outs, chunk_outs):
                acc.append(c)
    return [np.concatenate(parts) for parts in outs]


def glue_eval(inst: GlueInstance, cfg: QuadratureConfig = GLUE_CFG) -> GlueResult:
    """Evaluate both sides of the lemma functional on the shared grid."""
    s, t = grids.log_nodes(cfg)
    lg = as_fun(inst.g).logv(t)
    lh = as_fun(inst.h).logv(t)
    la = as_fun(inst.a).logv(t)
    e = {k: float(v) for k, v in inst.exps.items()}

    if inst.lemma_id == SUP_SUP:
        def reduce_fns(lA, lAc):
            # rows: esup_t A(x,t) g(t) and esup_t A(t,x) h(t), A(t,x) = 1 - A(x,t)
            left = np.max(lA + lg[None, :], axis=-1)
            right = np.max(lAc + lh[None, :], axis=-1)
            return left, right
        lsup_g, lsup_h = _row_kernel_ops(la, s, reduce_fns)
        lhs = float(np.max(_combine(lsup_g, lsup_h)))
        t1 = float(np.max(_combine(lg, grids.suffix_logmax(lh))))
        t2 = float(np.max(_combine(-la, lg, grids.running_logmax(la + lh))))

    elif inst.lemma_id == SUP_INT:
        b = e["beta"]

        def reduce_fns(lA, lAc):
            left = np.max(lA + lg[None, :], axis=-1)
            right = grids.log_integral(b * lAc + lh[None, :] + s[None, :], s) / b
            return left, right
        lsup_g, lint_h = _row_kernel_ops(la, s, reduce_fns)
        lhs = float(np.max(_combine(lsup_g, lint_h)))
        t1 = float(np.max(_combine(lg, grids.log_cumint(lh + s, s, head=False) / b)))
        t2 = float(np.max(_combine(
            -la, lg, grids.log_cumint(b * la + lh + s, s, head=True) / b)))

    elif inst.lemma_id == INT_SUP:
        b = e["beta"]

        def reduce_fns(lA, lAc):
            left = grids.log_integral(b * lA + lg[None, :] + s[None, :], s) / b
            right = np.max(lAc + lh[None, :], axis=-1)
            return left, right
        lint_g, lsup_h = _row_kernel_ops(la, s, reduce_fns)
        lhs = float(np.max(_combine(lint_g, lsup_h)))
        t1 = float(np.max(_combine(lh, grids.log_cumint(lg + s, s, head=True) / b)))
        t2 = float(np.max(_combine(
            la, lh, grids.log_cumint(-b * la + lg + s, s, head=False) / b)))

    elif inst.lemma_id == INT_INT_SUP:
        al, b = e["alpha"], e["beta"]

        def reduce_fns(lA, lAc):
            left = grids.log_integral(b * lA + lg[None, :] + s[None, :], s) / b
            right = grids.log_integral(al * lAc + lh[None, :] + s[None, :], s) / al
            return left, right
        lint_g, lint_h = _row_kernel_ops(la, s, reduce_fns)
        lhs = float(np.max(_combine(lint_g, lint_h)))
        t1 = float(np.max(_combine(grids.log_cumint(lg + s, s, head=True) / b,
                                   grids.log_cumint(lh + s, s, head=False) / al)))
        t2 = float(np.max(_combine(grids.log_cumint(-b * la + lg + s, s, head=False) / b,
                                   grids.log_cumint(al * la + lh + s, s, head=True) / al)))

    elif inst.lemma_id == INTEGRAL:
        al, b, ga = e["alpha"], e["beta"], e["gamma"]

        def reduce_fns(lA, lAc):
            left = grids.log_integral(al * lA + lg[None, :] + s[None, :], s)
            right = grids.log_integral(b * lAc + lh[None, :] + s[None, :], s)
            return left, right
        lint_g, lint_h = _row_kernel_ops(la, s, reduce_fns)
        li = _combine(_scale(ga / al - 1.0, lint_g), _scale(ga / b, lint_h), lg + s)
        lhs = grids.log_integral(li, s)
        lG = grids.log_cumint(lg + s, s, head=True)
        lH = grids.log_cumint(lh + s, s, head=False)
        t1 = grids.log_integral(
            _combine(_scale(ga / al - 1.0, lG), _scale(ga / b, lH), lg + s), s)
        lGt = grids.log_cumint(-al * la + lg + s, s, head=False)
        lHh = grids.log_cumint(b * la + lh + s, s, head=True)
        t2 = grids.log_integral(
            _combine(_scale(ga / al - 1.0, lGt), _scale(ga / b, lHh),
                     -al * la, lg + s), s)

    else:  # MIXED
        b = e["beta"]

        def reduce_fns(lA, lAc):
            left = grids.log_integral(lA + lg[None, :] + s[None, :], s)
            right = np.max(lAc + lh[None, :], axis=-1)
            return left, right
        lint_g, lsup_h = _row_kernel_ops(la, s, reduce_fns)
        lhs = grids.log_integral(
            _combine(_scale(b - 1.0, lint_g), _scale(b, lsup_h), lg + s), s)
        lG = grids.log_cumint(lg + s, s, head=True)
        t1 = grids.log_integral(
            _combine(_scale(b - 1.0, lG), _scale(b, grids.suffix_logmax(lh)),
                     lg + s), s)
        lGt = grids.log_cumint(-la + lg + s, s, head=False)
        t2 = grids.log_integral(
            _combine(_scale(b - 1.0, lGt), _scale(b, grids.running_logmax(la + lh)),
                     -la, lg + s), s)

    lhs_v = grids.from_log(lhs)
    terms = (grids.from_log(t1), grids.from_log(t2))
    rhs_v = terms[0] + terms[1]
    return GlueResult(lhs=lhs_v, rhs_terms=terms, rhs=rhs_v, ratio=_ratio(lhs_v, rhs_v))


@dataclass(frozen=True)
class DyadicCover:
    direction: str           # "head" | "tail"
    levels: tuple            # level indices m
    points: tuple            # x_m, increasing
    truncated: bool          # ran out of working window before the mass did


def dyadic_cover(g: RealFun, direction: str = "head",
                 cfg: QuadratureConfig = DEFAULT_CFG) -> DyadicCover:
    """Solve for the level sets of the cumulative mass of g.

    head: int_0^{x_m} g = 2^m with 2^M <= int_0^inf g < 2^(M+1);
    tail: int_{x_m}^inf g = 2^(-m) starting at the least m covering the
    total mass.  Levels are clipped to the working window.
    """
    if direction not in ("head", "tail"):
        raise ValueError("direction must be 'head' or 'tail'")
    from .operators import head_integral_fun, tail_integral_fun

    head = direction == "head"
    F = head_integral_fun(g, cfg) if head else tail_integral_fun(g, cfg)

    def logF(sx):
        return float(F.logv(np.array([math.exp(sx)]))[0])

    slo, shi = -cfg.S, cfg.S
    flo, fhi = logF(slo), logF(shi)
    total = fhi if head else flo
    if total == NEG_INF:
        raise ZeroMass("integral of g vanishes")
    truncated = np.isposinf(total)
    ln2 = math.log(2.0)
    if head:
        M = math.inf if truncated else math.floor(total / ln2)
        lo_level = math.ceil(max(flo, -cfg.S) / ln2) + 1
        hi_level = math.floor((shi if truncated else total) / ln2)
        if not truncated:
            hi_level = min(hi_level, int(M))
    else:
        # tail masses decrease in x; levels m with 2^-m below the total
        N = -math.inf if truncated else math.ceil(-total / ln2)
        lo_level = int(N) if not truncated else math.ceil(-min(fhi, cfg.S) / ln2) - 20
        hi_level = math.floor(-max(fhi, -cfg.S) / ln2)
    levels, points = [], []
    m = lo_level
    while m <= hi_level and len(levels) < 400:
        target = m * ln2 if head else -m * ln2
        fl, fh = logF(slo), logF(shi)
        lo_ok = (fl <= target <= fh) if head else (fh <= target <= fl)
        if lo_ok:
            try:
                sx = brentq(lambda sv: logF(sv) - target, slo, shi,
                            xtol=1e-12, rtol=1e-14)
            except ValueError:
                m += 1
                continue
            levels.append(m)
            points.append(math.exp(sx))
        m += 1
    if truncated:
        warnings.warn("dyadic cover truncated at the working window edge")
    if not levels:
        raise ZeroMass("no resolvable dyadic levels inside the window")
    return DyadicCover(direction=direction, levels=tuple(levels),
                       points=tuple(points), truncated=bool(truncated))


@dataclass(frozen=True)
class AlmostGeometricWitness:
    direction: str  # "dec" | "inc"
    alpha: float
    L: int
    K: float


_ALPHA_LATTICE = (1.1, 1.5, 2.0, 4.0)
_MAX_LAG = 8


def almost_geometric_check(seq, direction: str) -> AlmostGeometricWitness | None:
    """Search the (alpha, L) lattice for an almost-geometric witness."""
    tau = np.asarray(seq, dtype=float)
    if tau.size < 2 or np.any(tau <= 0):
        return None
    ratios = tau[1:] / tau[:-1]
    if direction == "dec":
        K = float(np.max(ratios))  # tau_{n+1} <= K tau_n
    elif direction == "inc":
        K = float(np.max(1.0 / ratios))  # tau_n <= K tau_{n+1}
    else:
        raise ValueError("direction must be 'dec' or 'inc'")
    if K < 1.0:
        K = 1.0
    for L in range(1, min(_MAX_LAG, tau.size - 1) + 1):
        lagged = tau[L:] / tau[:-L]  # tau_k / tau_{k-L} at k = L..
        for alpha in _ALPHA_LATTICE:
            if direction == "dec" and np.all(alpha * tau[L:] <= tau[:-L] * (1 + 1e-12)):
                return AlmostGeometricWitness("dec", alpha, L, K)
            if direction == "inc" and np.all(lagged >= alpha * (1 - 1e-12)):
                return AlmostGeometricWitness("inc", alpha, L, K)
    return None


def _lq_norm(vals: np.ndarray, q) -> float:
    from .exponents import Exponent

    q = q if isinstance(q, Exponent) else Exponent(q)
    vals = np.asarray(vals, dtype=float)
    if q.is_inf:
        return float(np.max(vals)) if vals.size else 0.0
    qf = float(q)
    return float(np.sum(vals ** qf) ** (1.0 / qf))


def discrete_equiv(lemma: str, tau, a, q) -> tuple:
    """Both l^q norms of the discrete lemmas.

    AGD: ||{tau_k sum_{m<=k} a_m}||_q vs ||{tau_k a_k}||_q for almost
    geometrically decreasing tau; AGI uses suffix sums for increasing
    sequences.  Returns (lhs, rhs); the witness is verified first.
    """
    tau = np.asarray(tau, dtype=float)
    a = np.asarray(a, dtype=float)
    if tau.shape != a.shape:
        raise ValueError("sequence lengths differ")
    if np.any(a < 0):
        raise ValueError("a must be nonnegative")
    if lemma == "AGD":
        if almost_geometric_check(tau, "dec") is None:
            raise NoWitness("no almost-geometric-decrease witness found")
        sums = np.cumsum(a)
    elif lemma == "AGI":
        if almost_geometric_check(tau, "inc") is None:
            raise NoWitness("no almost-geometric-increase witness found")
        sums = np.cumsum(a[::-1])[::-1]
    else:
        raise ValueError("lemma must be 'AGD' or 'AGI'")
    return _lq_norm(tau * sums, q), _lq_norm(tau * a, q)


def random_instance(lemma_id: str, rng: np.random.Generator) -> GlueInstance:
    """Seeded random instance: power/indicator mixtures for g and h, a
    non-decreasing power weight, exponents bounded by 4."""
    from .realfun import funsum, indicator, power, product

    def bump():
        lo = float(10.0 ** rng.uniform(-3, 2.5))
        hi = lo * float(10.0 ** rng.uniform(0.1, 1.5))
        gamma = float(rng.uniform(-0.9, 1.5))
        c = float(10.0 ** rng.uniform(-1, 1))
        return product(power(c, gamma), indicator(lo, hi))

    def mixture():
        return funsum(*(bump() for _ in range(int(rng.integers(1, 4)))))

    a = power(float(10.0 ** rng.uniform(-1, 1)), float(rng.uniform(0.0, 2.0)))
    # kernel collapse constants grow like 2^(2 gamma); exponents beyond 2
    # push the one-sided factor past the configured bound of 8
    lattice = (0.5, 1.0, 2.0)
    exps = {"alpha": float(rng.choice(lattice)),
            "beta": float(rng.choice(lattice)),
            "gamma": float(rng.choice(lattice))}
    need = {SUP_SUP: (), SUP_INT: ("beta",), INT_SUP: ("beta",),
            INT_INT_SUP: ("alpha", "beta"), INTEGRAL: ("alpha", "beta", "gamma"),
            MIXED: ("beta",)}[lemma_id]
    return GlueInstance(lemma_id=lemma_id, g=mixture(), h=mixture(), a=a,
                        exps={k: exps[k] for k in need})
