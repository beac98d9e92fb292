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
from typing import NamedTuple

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
    _check_funs,
    _check_is,
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
_LOG2 = math.log(2.0)


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
        _check_funs(g=self.g, h=self.h, a=self.a)
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


class _Side(NamedTuple):
    """One side of a lemma on the glue grid, prepared once per instance."""

    lf: np.ndarray                   # log f at the nodes
    e: float | None                  # the row integral's exponent, None for the row sup
    near: np.ndarray                 # the near term: f cumulated from its near end
    total: float                     # log of max f or of int f, read off near
    support: grids.SupportColumns    # the row reduction on f's support columns
    la: np.ndarray                   # log a on those columns


def _sides(inst: GlueInstance, grid: grids.Grid):
    """(log a, g side, h side) of inst on grid.

    g is cumulated from the head and h from the tail, by running maxima
    for a sup side and running integrals (q = 1) for an integral side,
    so a side's total over the window is the last entry of g's near term
    and the first of h's.
    """
    la = inst.a.logv(grid.t)
    g_entry, h_entry, _ = _LEMMA_TABLE[inst.lemma_id]

    def side(f, entry, head):
        lf = f.logv(grid.t)
        e = None if entry is _SUP else _exponent(entry, inst.exps)
        near = grids.log_cumnorm(lf, grid, INF if e is None else 1.0, head)
        support = grids.SupportColumns(lf, grid, e)
        return _Side(lf, e, near, float(near[-1 if head else 0]), support, la[support.cols])
    return la, side(inst.g, g_entry, True), side(inst.h, h_entry, False)


def _row_kernel_ops(la: np.ndarray, g_side: _Side, h_side: _Side, rows: np.ndarray,
                    G: np.ndarray, H: np.ndarray) -> None:
    """Row reductions of g against the kernel A(x,t) and of h against its
    complement 1 - A(x,t) = A(t,x), written to G and H at the node
    indices rows.

    A side's kernel is built only on its support columns, the others
    adding nothing to a row.  Rows are processed in chunks to bound the
    memory footprint, and the complement is taken in place, so no chunk
    keeps its unreduced log kernel.
    """
    for start in range(0, rows.size, _ROW_CHUNK):
        chunk = rows[start:start + _ROW_CHUNK]
        lx = la[chunk, None]
        G[chunk] = g_side.support.reduce(grids.log_kernel(lx, g_side.la))
        lk = grids.log_kernel(lx, h_side.la)
        np.exp(lk, out=lk)
        np.subtract(1.0, lk, out=lk)
        np.maximum(lk, 1e-300, out=lk)
        H[chunk] = h_side.support.reduce(np.log(lk, out=lk))


def _no_rows(n: int):
    """G and H with no row reduced: every entry -inf."""
    return np.full(n, NEG_INF), np.full(n, NEG_INF)


def _log_max(G: np.ndarray, H: np.ndarray, eg: float, eh: float) -> float:
    """The log of max_x G(x)^{1/eg} H(x)^{1/eh} from log rows G and H.

    A NaN sum is 0 * inf, which reads 0 (log_mul's rule), and fmax skips
    it; rows that are all NaN read -inf.
    """
    with np.errstate(invalid="ignore"):
        return float(np.fmax.reduce(G / eg + H / eh, initial=NEG_INF))


def _log_slack(side: _Side, log_eps: float) -> float:
    """log tau, the slack of one kernel entry's rounding carried through
    the side's reduction (see _outer_sup_lhs)."""
    if side.e is None:
        return log_eps + side.total
    e = side.e
    return side.total + _LOG2 + (e * log_eps if e <= 1.0 else math.log(2.0 * e) + log_eps)


def _outer_sup_lhs(la: np.ndarray, grid: grids.Grid, g_side: _Side, h_side: _Side,
                   eg: float, eh: float) -> float:
    """_log_max of the kernel rows of _row_kernel_ops, bit for bit, from
    the rows that can hold the max.

    Where a is nondecreasing, A(x,t) is nondecreasing in x and its
    complement nonincreasing, so G(x) is at most G(x_hi) and H(x) at most
    H(x_lo) on the rows between two reduced rows x_lo < x_hi, each up to
    a slack tau for the rounding of one kernel entry carried through the
    side's reduction.  With eps = 64 spacing(1 + M), M the largest finite
    |log-value| of a, g and h, a sup side takes tau = eps max f, an
    integral side to the exponent e <= 1 takes eps^e I and one with
    e > 1 takes 2 e eps I, I >= int f: for a kernel entry 0 <= K <= 1,
    (K + eps)^e - K^e is at most eps^e when e <= 1 and at most
    min(1, 2 e eps) when e > 1.  This covers the clipped complement,
    whose 1 - e^{lA} can step an ulp the wrong way.  max f and I are read
    off the sides' near terms (_Side.total, _log_slack): the end of the
    running max is max f bit for bit, and I is twice the end of the
    running integral, which sums the same panels as int f in another
    order (on this path an integral side is -inf at the edge-fit nodes,
    so neither sum takes an edge estimate).  A looser slack only reduces
    more rows and never changes the max.  The rows at the multiples of
    _STRIDES[0] are reduced first; a block is then refined at the next
    stride while its bound
    (log(G(x_hi) + tau_g) + _MARGIN) / eg + (log(H(x_lo) + tau_h) + _MARGIN) / eh
    is NaN or reaches the best row so far, and dropped once it is below it
    or -inf (one side is zero, so every row is).  The last stride is 1.

    Every row is reduced, in one round at stride 1, when log a has a NaN
    or +inf or decreases anywhere, or when an integral side is nonzero at
    an edge-fit node (grid.edges), where its rows take an edge
    estimate that need not be monotone.
    """
    n = la.size
    node = np.arange(n)
    G, H = _no_rows(n)
    edges = [i for pair in grid.edges for i in pair]
    monotone = (la[-1] < INF and np.all(la[1:] >= la[:-1])  # false at any NaN
                and all(side.e is None or np.all(np.isneginf(side.lf[edges]))
                        for side in (g_side, h_side)))
    strides = _STRIDES if monotone else (1,)  # else every row in the first round

    mag = max(float(np.max(np.abs(v[np.isfinite(v)]), initial=0.0))
              for v in (la, g_side.lf, h_side.lf))
    log_eps = math.log(64.0 * np.spacing(1.0 + mag))
    tau_g, tau_h = _log_slack(g_side, log_eps), _log_slack(h_side, log_eps)

    done = np.zeros(n, dtype=bool)

    def reduce_rows(rows):
        """Reduce the rows, and return the best of every row reduced so far."""
        _row_kernel_ops(la, g_side, h_side, rows, G, H)
        done[rows] = True
        return _log_max(G, H, eg, eh)  # a row not reduced reads -inf

    best = reduce_rows(np.flatnonzero((node % strides[0] == 0) | (node == n - 1)))
    for stride in strides[1:]:
        ends = np.flatnonzero(done)  # block k holds the rows between ends k and k + 1
        with np.errstate(invalid="ignore"):
            bound = ((np.logaddexp(G[ends[1:]], tau_g) + _MARGIN) / eg
                     + (np.logaddexp(H[ends[:-1]], tau_h) + _MARGIN) / eh)
        live = ~((bound < best) | np.isneginf(bound))  # a NaN bound stays live
        inside = ~done & live[np.searchsorted(ends, node) - 1]
        rows = np.flatnonzero(inside & (node % stride == 0))
        if not rows.size:
            break
        best = reduce_rows(rows)
    return best


def glue_eval(inst: GlueInstance, cfg: QuadratureConfig = GLUE_CFG) -> GlueResult:
    """Evaluate both sides of the lemma functional on the shared grid.

    Each side is prepared once (_sides): its support columns, with f, s
    and log a gathered on them (grids.SupportColumns), and its near term.
    The left side reduces the kernel rows through them.  Under an outer
    integral only the rows on g's support are reduced.  Under an outer
    sup only the rows that can hold the max are (_outer_sup_lhs), with
    the same value bit for bit: a nondecreasing a makes the g-side row
    G(x) nondecreasing and the h-side row H(x) nonincreasing, so between
    two reduced rows x_lo < x_hi the left side is at most
    log(G(x_hi) + tau_g) / e_g + log(H(x_lo) + tau_h) / e_h, tau the
    slack for one kernel entry's rounding, read off the near terms (the
    max of f, or 2 int f).  A looser slack only reduces more rows, so no
    bit moves.  Every row is reduced when log a has a NaN or +inf or
    decreases, or when an integral side is nonzero at an edge-fit node.
    The first right-hand term pairs the near parts (g cumulated from the
    head, h from the tail), the second the far parts (g a^{-e_g} from
    the tail, h a^{e_h} from the head, with one more factor a^{-e_g}
    under an outer integral).  A sup side cumulates by running maxima,
    an integral side by running integrals (q = 1).
    """
    _check_is(GlueInstance, inst=inst)
    _check_funs(cfg=cfg)
    grid = grids.log_nodes(cfg)
    la, g_side, h_side = _sides(inst, grid)
    lg, lh = g_side.lf, h_side.lf
    outer = _LEMMA_TABLE[inst.lemma_id][2]
    eg, eh = (1.0 if side.e is None else side.e for side in (g_side, h_side))
    qg, qh = (INF if side.e is None else 1.0 for side in (g_side, h_side))

    near = (g_side.near, h_side.near)
    far = (grids.log_cumnorm(grids.log_mul(-eg * la, lg), grid, qg, head=False),
           grids.log_cumnorm(grids.log_mul(eh * la, lh), grid, qh, head=True))
    if outer is _SUP:
        lhs = _outer_sup_lhs(la, grid, g_side, h_side, eg, eh)
        t1, t2 = (_log_max(G, H, eg, eh) for G, H in (near, far))
    else:
        # each row x carries the factor g(x), so only the rows on g's
        # support can add to the outer integral
        kern = _no_rows(la.size)
        _row_kernel_ops(la, g_side, h_side, g_side.support.cols, *kern)
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
    _check_funs(cfg=cfg, g=g)
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


def _sequence(seq, name: str) -> np.ndarray:
    """seq as a float array; SpecInvalid unless it is a 1-D sequence of
    real numbers."""
    try:
        arr = np.asarray(seq)
        if arr.ndim == 1 and arr.dtype.kind in "iufO":
            return arr.astype(float)
    except (TypeError, ValueError):
        pass
    raise SpecInvalid(f"{name} must be a 1-D sequence of real numbers, got {seq!r}")


def almost_geometric_check(seq, direction: str) -> AlmostGeometricWitness | None:
    """Search the (alpha, L) lattice for an almost-geometric witness."""
    tau = _sequence(seq, "seq")
    if tau.size < 2 or not np.all((tau > 0) & (tau < INF)):  # false at NaN
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
    tau, a = _sequence(tau, "tau"), _sequence(a, "a")
    if tau.shape != a.shape:
        raise SpecInvalid("sequence lengths differ")
    if not np.all((a >= 0) & (a < INF)):  # false at NaN
        raise SpecInvalid("a must be finite and nonnegative")
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
    if lemma_id not in LEMMAS:
        raise SpecInvalid(f"unknown lemma id {lemma_id!r}")
    _check_is(np.random.Generator, rng=rng)

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
