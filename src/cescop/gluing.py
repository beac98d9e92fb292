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
from .errors import NoWitness, SpecInvalid, ZeroMass
from .exponents import Exponent
from .grids import INF, NEG_INF
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

# An outer-sup lemma reduces the kernel rows at the multiples of each
# stride in turn: the first stride on every node, each later one only
# inside the blocks between reduced rows whose bound, with _MARGIN added
# to each side's log-value, reaches the best row so far.
_STRIDES = (16, 4, 1)
_MARGIN = 1e-6


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


def _row_kernel_ops(la: np.ndarray, grid: grids.Grid, g_side: tuple, h_side: tuple,
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
            out[chunk] = grids.log_row_reduce(lk, lf, grid, e, cols)
    return outs


def _log_max(G: np.ndarray, H: np.ndarray, eg: float, eh: float) -> float:
    """The log of max_x G(x)^{1/eg} H(x)^{1/eh} from log rows G and H."""
    return float(np.max(grids.log_mul(G / eg, H / eh)))


def _outer_sup_lhs(la: np.ndarray, grid: grids.Grid, g_side: tuple, h_side: tuple,
                   eg: float, eh: float) -> float:
    """_log_max of the kernel rows of _row_kernel_ops, bit for bit, from
    the rows that can hold the max.

    Where a is nondecreasing, A(x,t) is nondecreasing in x and its
    complement nonincreasing, so G(x) is at most G(x_hi) and H(x) at most
    H(x_lo) on the rows between two reduced rows x_lo < x_hi, each up to
    a slack tau for the rounding of one kernel entry carried through the
    side's reduction.  With eps = 64 spacing(1 + M), M the largest finite
    |log-value| of a, g and h, a sup side takes tau = eps max f, an
    integral side to the exponent e <= 1 takes eps^e int f and one with
    e > 1 takes 2 e eps int f: for a kernel entry 0 <= K <= 1,
    (K + eps)^e - K^e is at most eps^e when e <= 1 and at most
    min(1, 2 e eps) when e > 1.  This covers the clipped complement,
    whose 1 - e^{lA} can step an ulp the wrong way.  The rows at the
    multiples of _STRIDES[0] are reduced first; a block is then refined
    at the next stride while its bound
    (log(G(x_hi) + tau_g) + _MARGIN) / eg + (log(H(x_lo) + tau_h) + _MARGIN) / eh
    is NaN or reaches the best row so far, and dropped once it is below it
    or -inf (one side is zero, so every row is).  The last stride is 1.

    Every row is reduced when log a has a NaN or +inf or decreases
    anywhere, or when an integral side is nonzero at an edge-fit node
    (grids._edge_nodes), where its rows take an edge estimate that need
    not be monotone.
    """
    (lg, e_g), (lh, e_h) = g_side, h_side
    edges = [i for pair in grids._edge_nodes(grid) for i in pair]
    if not (la[-1] < INF and np.all(la[1:] >= la[:-1])  # false at any NaN
            and all(e is None or np.all(np.isneginf(lf[edges]))
                    for lf, e in (g_side, h_side))):
        return _log_max(*_row_kernel_ops(la, grid, g_side, h_side), eg, eh)

    mag = max(float(np.max(np.abs(v[np.isfinite(v)]), initial=0.0)) for v in (la, lg, lh))
    log_eps = math.log(64.0 * np.spacing(1.0 + mag))

    def log_slack(lf, e):
        if e is None:
            return log_eps + float(np.max(lf))
        return grids.log_integral(lf + grid.s, grid) + (
            e * log_eps if e <= 1.0 else math.log(2.0 * e) + log_eps)
    tau_g, tau_h = log_slack(lg, e_g), log_slack(lh, e_h)

    n = la.size
    node = np.arange(n)
    G, H, done = np.full(n, NEG_INF), np.full(n, NEG_INF), np.zeros(n, dtype=bool)

    def reduce_rows(rows):
        g_rows, h_rows = _row_kernel_ops(la, grid, g_side, h_side, rows)
        G[rows], H[rows], done[rows] = g_rows[rows], h_rows[rows], True
        return _log_max(G[rows], H[rows], eg, eh)

    best = reduce_rows(np.flatnonzero((node % _STRIDES[0] == 0) | (node == n - 1)))
    for stride in _STRIDES[1:]:
        ends = np.flatnonzero(done)  # block k holds the rows between ends k and k + 1
        with np.errstate(invalid="ignore"):
            bound = ((np.logaddexp(G[ends[1:]], tau_g) + _MARGIN) / eg
                     + (np.logaddexp(H[ends[:-1]], tau_h) + _MARGIN) / eh)
        live = ~((bound < best) | np.isneginf(bound))  # a NaN bound stays live
        inside = ~done & live[np.searchsorted(ends, node) - 1]
        rows = np.flatnonzero(inside & (node % stride == 0))
        if not rows.size:
            break
        best = max(best, reduce_rows(rows))
    return best


def glue_eval(inst: GlueInstance, cfg: QuadratureConfig = GLUE_CFG) -> GlueResult:
    """Evaluate both sides of the lemma functional on the shared grid.

    The left side reduces the kernel rows.  Under an outer integral only
    the rows on g's support are reduced.  Under an outer sup only the rows
    that can hold the max are (_outer_sup_lhs), with the same value bit
    for bit: a nondecreasing a makes the g-side row G(x) nondecreasing and
    the h-side row H(x) nonincreasing, so between two reduced rows
    x_lo < x_hi the left side is at most
    log(G(x_hi) + tau_g) / e_g + log(H(x_lo) + tau_h) / e_h, tau the
    slack for one kernel entry's rounding.  Every row is reduced when
    log a has a NaN or +inf or decreases, or when an integral side is
    nonzero at an edge-fit node.  The first right-hand term
    pairs the near parts (g cumulated from the head, h from the tail),
    the second the far parts (g a^{-e_g} from the tail, h a^{e_h} from
    the head, with one more factor a^{-e_g} under an outer integral).
    A sup side cumulates by running maxima, an integral side by running
    integrals (q = 1).
    """
    grid = grids.log_nodes(cfg)
    lg = inst.g.logv(grid.t)
    lh = inst.h.logv(grid.t)
    la = inst.a.logv(grid.t)
    g_entry, h_entry, outer = _LEMMA_TABLE[inst.lemma_id]
    eg, eh = _exponent(g_entry, inst.exps), _exponent(h_entry, inst.exps)
    gsup, hsup = g_entry is _SUP, h_entry is _SUP
    qg, qh = (INF if sup else 1.0 for sup in (gsup, hsup))

    g_side, h_side = (lg, None if gsup else eg), (lh, None if hsup else eh)
    near = (grids.log_cumnorm(lg, grid, qg, head=True),
            grids.log_cumnorm(lh, grid, qh, head=False))
    far = (grids.log_cumnorm(grids.log_mul(-eg * la, lg), grid, qg, head=False),
           grids.log_cumnorm(grids.log_mul(eh * la, lh), grid, qh, head=True))
    if outer is _SUP:
        lhs = _outer_sup_lhs(la, grid, g_side, h_side, eg, eh)
        t1, t2 = (_log_max(G, H, eg, eh) for G, H in (near, far))
    else:
        # each row x carries the factor g(x), so only the rows on g's
        # support can add to the outer integral
        kern = _row_kernel_ops(la, grid, g_side, h_side, np.flatnonzero(~np.isneginf(lg)))
        ga = _exponent(outer, inst.exps)
        cg, ch = ga / eg - 1.0, ga / eh

        def outer_integral(G, H, *factors):
            return grids.log_integral(
                grids.log_mul(_scale(cg, G), _scale(ch, H), *factors, lg + grid.s), grid)
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
