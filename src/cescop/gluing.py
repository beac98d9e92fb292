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

from . import grids
from .conventions import INF
from .errors import NoWitness, SpecInvalid, ZeroMass
from .exponents import Exponent
from .operators import head_integral_fun, tail_integral_fun
from .realfun import (
    DEFAULT_CFG,
    QuadratureConfig,
    RealFun,
    funsum,
    indicator,
    power,
    product,
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


# Each lemma is one row (g side, h side, outer).  A side is _SUP, the row
# supremum esup_t K(x,t) f(t), or an exponent e, the row integral
# int K(x,t)^e f(t) dt; g meets the kernel A(x,t) = a(x)/(a(x)+a(t)) and
# h its complement A(t,x).  The outer reduction over x is _SUP, the max of
# G^{1/e_g} H^{1/e_h}, or an exponent gamma, the integral of
# G^{gamma/e_g - 1} H^{gamma/e_h} g.  An exponent is a name looked up in
# GlueInstance.exps or a number; a sup side counts as exponent 1.
_SUP = None
_LEMMA_TABLE = {
    SUP_SUP: (_SUP, _SUP, _SUP),
    SUP_INT: (_SUP, "beta", _SUP),
    INT_SUP: ("beta", _SUP, _SUP),
    INT_INT_SUP: ("beta", "alpha", _SUP),
    INTEGRAL: ("alpha", "beta", "gamma"),
    MIXED: (1.0, _SUP, "beta"),
}


def _needs(lemma_id: str) -> list:
    """The exponent names a lemma reads from GlueInstance.exps."""
    return sorted({x for x in _LEMMA_TABLE[lemma_id] if isinstance(x, str)})


def _exponent(entry, exps: dict) -> float:
    if entry is _SUP:
        return 1.0
    return float(exps[entry] if isinstance(entry, str) else entry)


@dataclass(frozen=True)
class GlueInstance:
    lemma_id: str
    g: RealFun
    h: RealFun
    a: RealFun  # non-decreasing
    exps: dict = field(default_factory=dict)  # alpha/beta/gamma as needed

    def __post_init__(self):
        if self.lemma_id not in LEMMAS:
            raise SpecInvalid(f"unknown lemma id {self.lemma_id!r}")
        for k in _needs(self.lemma_id):
            try:
                ok = 0 < float(self.exps[k]) < INF
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                raise SpecInvalid(f"lemma {self.lemma_id} needs positive exponent {k!r}")


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


def _row_kernel_ops(la: np.ndarray, s: np.ndarray, g_side: tuple, h_side: tuple,
                    rows: np.ndarray | None = None):
    """Row reductions of g against the kernel A(x,t) and of h against its
    complement 1 - A(x,t) = A(t,x), one value per node x.

    Each side is (log f, e), e None for the row supremum.  A side's
    kernel is built only on the columns where f is not zero, the others
    adding nothing to a row.  Only the rows at the node indices rows are
    reduced (every node when None); the others read -inf.  Rows are
    processed in chunks to bound the memory footprint.
    """
    cols_g, cols_h = (np.flatnonzero(~np.isneginf(lf)) for lf, _ in (g_side, h_side))
    if rows is None:
        rows = np.arange(la.size)
    outs = (np.full(la.size, NEG_INF), np.full(la.size, NEG_INF))
    for start in range(0, rows.size, _ROW_CHUNK):
        chunk = rows[start:start + _ROW_CHUNK]
        lx = la[chunk, None]
        lA = grids.log_kernel(lx, la[cols_g])
        lAc = np.log(np.maximum(1.0 - np.exp(grids.log_kernel(lx, la[cols_h])), 1e-300))
        for out, lk, (lf, e), cols in zip(outs, (lA, lAc), (g_side, h_side),
                                          (cols_g, cols_h)):
            out[chunk] = grids.log_row_reduce(lk, lf, s, e, cols)
    return outs


def glue_eval(inst: GlueInstance, cfg: QuadratureConfig = GLUE_CFG) -> GlueResult:
    """Evaluate both sides of the lemma functional on the shared grid.

    The left side reduces the kernel rows.  The first right-hand term
    pairs the near parts (g cumulated from the head, h from the tail),
    the second the far parts (g a^{-e_g} from the tail, h a^{e_h} from
    the head, with one more factor a^{-e_g} under an outer integral).
    A sup side cumulates by running maxima, an integral side by running
    integrals (q = 1).
    """
    s, t = grids.log_nodes(cfg)
    lg = inst.g.logv(t)
    lh = inst.h.logv(t)
    la = inst.a.logv(t)
    g_entry, h_entry, outer = _LEMMA_TABLE[inst.lemma_id]
    eg, eh = _exponent(g_entry, inst.exps), _exponent(h_entry, inst.exps)
    gsup, hsup = g_entry is _SUP, h_entry is _SUP
    qg, qh = (INF if sup else 1.0 for sup in (gsup, hsup))

    # under an outer integral each row x carries the factor g(x), so only
    # the rows on g's support can add to it
    rows = None if outer is _SUP else np.flatnonzero(~np.isneginf(lg))
    kern = _row_kernel_ops(la, s, (lg, None if gsup else eg), (lh, None if hsup else eh),
                           rows)
    near = (grids.log_cumnorm(lg, s, qg, head=True),
            grids.log_cumnorm(lh, s, qh, head=False))
    far = (grids.log_cumnorm(grids.log_mul(-eg * la, lg), s, qg, head=False),
           grids.log_cumnorm(grids.log_mul(eh * la, lh), s, qh, head=True))
    if outer is _SUP:
        lhs, t1, t2 = (float(np.max(grids.log_mul(G / eg, H / eh)))
                       for G, H in (kern, near, far))
    else:
        ga = _exponent(outer, inst.exps)
        cg, ch = ga / eg - 1.0, ga / eh

        def outer_integral(G, H, *factors):
            return grids.log_integral(
                grids.log_mul(_scale(cg, G), _scale(ch, H), *factors, lg + s), s)
        lhs, t1 = outer_integral(*kern), outer_integral(*near)
        t2 = outer_integral(*far, -eg * la)

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
        raise SpecInvalid("direction must be 'head' or 'tail'")
    from scipy.optimize import brentq

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
        lo_ok = (flo <= target <= fhi) if head else (fhi <= target <= flo)
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
        raise SpecInvalid("direction must be 'dec' or 'inc'")
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
    q = Exponent(q)
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
        raise SpecInvalid("sequence lengths differ")
    if np.any(a < 0):
        raise SpecInvalid("a must be nonnegative")
    if lemma == "AGD":
        if almost_geometric_check(tau, "dec") is None:
            raise NoWitness("no almost-geometric-decrease witness found")
        sums = np.cumsum(a)
    elif lemma == "AGI":
        if almost_geometric_check(tau, "inc") is None:
            raise NoWitness("no almost-geometric-increase witness found")
        sums = np.cumsum(a[::-1])[::-1]
    else:
        raise SpecInvalid("lemma must be 'AGD' or 'AGI'")
    return _lq_norm(tau * sums, q), _lq_norm(tau * a, q)


def random_instance(lemma_id: str, rng: np.random.Generator) -> GlueInstance:
    """Seeded random instance: power/indicator mixtures for g and h, a
    non-decreasing power weight, exponents bounded by 4."""
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
    return GlueInstance(lemma_id=lemma_id, g=mixture(), h=mixture(), a=a,
                        exps={k: exps[k] for k in _needs(lemma_id)})
