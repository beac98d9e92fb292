"""Brute-force lower bounds for multiplier and embedding norms.

The multiplier quasi-norm is a supremum of ||f*g||_Y / ||g||_X over
nontrivial test functions g.  Sampling the ratio over a structured
candidate family gives a certified-up-to-quadrature lower bound for any
closed form to be checked against.  Candidates mimic the extremal
shapes the characterizations are built from: head, tail and band
indicators, power bumps, and piecewise-constant profiles on dyadic
breakpoints.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptyFamily, SpecInvalid
from .grids import _U
from .realfun import (
    DEFAULT_CFG,
    QuadratureConfig,
    RealFun,
    constant,
    expfam,
    funsum,
    indicator,
    power,
    product,
)
from .spaces import SpaceSpec, _plan, space_norm

__all__ = ["Candidate", "CandidateFamily", "OracleResult",
           "default_family", "brute_force_multiplier", "enrich"]


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _jit(x, rng) -> float:
    return float(x * 2.0 ** rng.uniform(-1.0, 1.0))


def _draw_span(rng) -> tuple:
    lo = float(10.0 ** rng.uniform(-4, 3))
    return lo, lo * float(10.0 ** rng.uniform(0.1, 2.0))


def _jit_span(lo, hi, rng) -> tuple:
    lo2 = _jit(lo, rng)
    return lo2, max(_jit(hi, rng), lo2 * 1.05)


def _build_step(edges, levels) -> RealFun:
    if len(edges) != len(levels) + 1:
        raise SpecInvalid(f"a step candidate takes one edge more than levels, "
                          f"got edges {edges!r} and levels {levels!r}")
    parts = [product(constant(c), indicator(a, b))
             for a, b, c in zip(edges[:-1], edges[1:], levels) if c > 0.0]
    return funsum(*parts)


def _draw_step(rng) -> tuple:
    k0 = int(rng.integers(-12, 4))
    nlev = int(rng.integers(2, 7))
    edges = tuple(2.0 ** (k0 + 2 * np.arange(nlev + 1, dtype=float)))
    return edges, tuple(float(10.0 ** rng.uniform(-2, 2)) for _ in range(nlev))


def _perturb_step(params, rng) -> tuple:
    edges, levels = params
    levels = tuple(_jit(c, rng) for c in levels)
    # sorted, so that edges jittered past each other still bound intervals
    return (tuple(sorted(_jit(e, rng) for e in edges)) if rng.random() < 0.5
            else edges), levels


class _Kind(NamedTuple):
    """A candidate kind: its number of params (reals, or with ``seqs`` sequences of
    reals), the RealFun they build, and how default_family and _perturb draw them."""

    arity: int
    seqs: bool
    build: Callable
    draw: Callable
    perturb: Callable


def _head_or_tail(build) -> _Kind:
    return _Kind(1, False, build, lambda rng: (float(10.0 ** rng.uniform(-4, 4)),),
                 lambda p, rng: (_jit(p[0], rng),))


# in the order default_family draws a kind from
_KINDS = {
    "head": _head_or_tail(lambda t: indicator(0.0, t)),
    "tail": _head_or_tail(lambda t: indicator(t, math.inf)),
    "band": _Kind(2, False, indicator, _draw_span, lambda p, rng: _jit_span(*p, rng)),
    "bump": _Kind(3, False,
                  lambda lo, hi, gamma: product(power(1.0, gamma), indicator(lo, hi)),
                  lambda rng: (*_draw_span(rng), float(rng.uniform(-2.0, 2.0))),
                  lambda p, rng: (*_jit_span(p[0], p[1], rng),
                                  float(p[2] + rng.uniform(-0.5, 0.5)))),
    "step": _Kind(2, True, _build_step, _draw_step, _perturb_step),
    "decay": _Kind(2, False, lambda gamma, rate: expfam(1.0, gamma, rate),
                   lambda rng: (float(rng.uniform(-1.0, 4.0)),
                                -float(10.0 ** rng.uniform(-1.5, 0.5))),
                   lambda p, rng: (float(p[0] + rng.uniform(-0.5, 0.5)), _jit(p[1], rng))),
}


@dataclass(frozen=True)
class Candidate:
    """One test function, rebuildable from (kind, params).

    kinds: head (0,t); tail (t,inf); band (s,t); bump t^gamma on (s,t);
    step = piecewise-constant levels on dyadic breakpoints (0 with no
    positive level); decay t^gamma e^{rate t}.  ``build`` raises
    SpecInvalid for an unknown kind, the wrong number of params or params
    that are not real numbers (for a step, two sequences of them: edges,
    and one level fewer).
    """

    kind: str
    params: tuple

    def build(self) -> RealFun:
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise SpecInvalid(f"unknown candidate kind {self.kind!r}")
        if not isinstance(self.params, (tuple, list)) or len(self.params) != kind.arity:
            raise SpecInvalid(f"a {self.kind} candidate takes {kind.arity} params, "
                              f"got {self.params!r}")
        seqs = self.params if kind.seqs else (self.params,)
        if not all(isinstance(seq, (tuple, list)) and all(map(_is_real, seq))
                   for seq in seqs):
            raise SpecInvalid(f"{self.kind} candidate params must be real numbers, "
                              f"got {self.params!r}")
        return kind.build(*self.params)

    def describe(self) -> str:
        return f"{self.kind}{self.params}"


@dataclass(frozen=True)
class CandidateFamily:
    """The candidates, and the seed of enrich's perturbations.

    ``_scores`` maps each scoring context (f, X, Y, cfg) to the pair
    (None for a skipped candidate) of every candidate scored in it, so
    one family can be scored against any problem without mixing scores;
    the family ``enrich`` returns shares its input's dict.
    """

    candidates: tuple
    seed: int
    _scores: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class OracleResult:
    lower_bound: float
    argmax: Candidate | None
    evaluated: int
    skipped: int


def default_family(seed: int = 0, size: int = 60) -> CandidateFamily:
    """Seeded mix of indicator, bump, step and decay candidates.

    The family always starts with the 14-point head/tail lattice, so a
    ``size`` below 14 gives those 14 candidates.
    """
    rng = np.random.default_rng(seed)
    cands = []
    # deterministic log lattice first so small families stay spread out
    for t in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
        cands.append(Candidate("head", (t,)))
        cands.append(Candidate("tail", (t,)))
    while len(cands) < size:
        kind = str(rng.choice(list(_KINDS)))
        cands.append(Candidate(kind, _KINDS[kind].draw(rng)))
    return CandidateFamily(candidates=tuple(cands), seed=seed)


def _ratio(f: RealFun, X: SpaceSpec, Y: SpaceSpec, g: RealFun, cfg: QuadratureConfig):
    """||f*g||_Y / ||g||_X as the exact point (r, r); None if ||g||_X is 0 or inf."""
    den = space_norm(X, g, cfg)
    if not (0.0 < den < math.inf):
        return None
    ratio = space_norm(Y, product(f, g), cfg) / den
    return ratio, ratio


# A screened norm whose log lies outside (-_LOG_RANGE, _LOG_RANGE), or a
# ratio whose log does, is scored exactly: from_log and the division then
# stay among normal floats.  A numerator whose log lies below _LOG_ZERO
# rounds to 0.0 in from_log.
_LOG_RANGE = 700.0
_LOG_ZERO = -746.0


def _score(f: RealFun, X: SpaceSpec, Y: SpaceSpec, g: RealFun, cfg: QuadratureConfig):
    """None where _ratio is None, else a pair (lo, hi) holding _ratio's value.

    The pair is a point lo == hi where that value is exact: taken by
    _ratio, or 0.0.  A screened pair always has width, since its bound
    includes 4U(|lr| + 4); over one crossval pass the narrowest of the
    1,277 screened pairs is 2.8e-9 relative.  The norms are screened in
    _ratio's order: X first, and Y only when ||g||_X is finite.  Where a
    screen is missing or out of range g takes _ratio, so every error
    _ratio raises is raised here too.
    """
    den = _plan(X, cfg).screen(g)
    if den is not None and math.isinf(den[0]):
        return None  # ||g||_X is exactly 0 or inf
    in_range = lambda x: -_LOG_RANGE < x < _LOG_RANGE
    num = _plan(Y, cfg).screen(product(f, g)) if den and in_range(den[0]) else None
    if num is not None and num[0] + num[1] < _LOG_ZERO:
        return 0.0, 0.0
    if num is None or not (in_range(num[0]) and in_range(num[0] - den[0])):
        return _ratio(f, X, Y, g, cfg)
    # the rounding of num - den and of lr -+ bound, and of the two
    # from_log calls, the division and the two exps, in log terms
    lr = num[0] - den[0]
    bound = num[1] + den[1] + 4.0 * _U * (abs(lr) + 4.0)
    return math.exp(lr - bound), math.exp(lr + bound)


def brute_force_multiplier(f: RealFun, X: SpaceSpec, Y: SpaceSpec,
                           fam: CandidateFamily,
                           cfg: QuadratureConfig = DEFAULT_CFG) -> OracleResult:
    """Max of ||f*g||_Y / ||g||_X over the family.

    Candidates whose source norm is zero or infinite are skipped: they
    carry no information about the supremum.  The result is a lower
    bound of the true multiplier norm up to quadrature error.

    Each candidate is first screened with cheap linear-space norms that
    come with an error bound (``_score``); only the candidates whose
    pair (lo, hi) has width and reaches the largest lo in the family are
    then scored exactly, so every candidate that may be the argmax or tie
    it has an exact ratio, a point.  The argmax is taken among points in
    family order, and the result is the one that scoring every candidate
    exactly gives.  X and Y are planned first (``spaces._plan``), so a
    space with its gate on (validate) that fails it raises SpecInvalid
    before any candidate is scored; one with the gate off, as the CLI
    builds them, is scored as it stands.  Each keeps its plan for cfg:
    gate, outer weights and tables, for all calls.
    The pairs are kept in the family for this f, X, Y and cfg, so a
    candidate is scored once however often the family is scored.
    """
    for S in (X, Y):  # gate both spaces before any candidate is scored
        _plan(S, cfg)
    scores = fam._scores.setdefault((f, X, Y, cfg), {})
    floor = -1.0
    for cand in fam.candidates:
        if cand not in scores:
            scores[cand] = _score(f, X, Y, cand.build(), cfg)
        if scores[cand] is not None and scores[cand][0] > floor:
            floor = scores[cand][0]
    # exact scores only raise the largest lo, so no pair below it now can
    # reach it later
    best, best_cand = -1.0, None
    for cand in fam.candidates:
        pair = scores[cand]
        if pair is not None and pair[0] < pair[1] and pair[1] >= floor:
            pair = scores[cand] = _ratio(f, X, Y, cand.build(), cfg)
        if pair is not None and pair[0] == pair[1] and pair[0] > best:
            best, best_cand = pair[0], cand
    evaluated = sum(scores[cand] is not None for cand in fam.candidates)
    if evaluated == 0:
        raise EmptyFamily("no candidate has a nontrivial source norm")
    return OracleResult(lower_bound=best, argmax=best_cand, evaluated=evaluated,
                        skipped=len(fam.candidates) - evaluated)


# the variants of the argmax that each enrich round appends
_PER_ROUND = 10


def _perturb(cand: Candidate, rng) -> Candidate:
    return Candidate(cand.kind, _KINDS[cand.kind].perturb(cand.params, rng))


def enrich(fam: CandidateFamily, f: RealFun, X: SpaceSpec, Y: SpaceSpec,
           rounds: int = 1, cfg: QuadratureConfig = DEFAULT_CFG) -> CandidateFamily:
    """Local search around the current argmax.

    Each round evaluates the family, perturbs the best candidate and
    appends _PER_ROUND variants.  The output family is a superset of the
    input, so the brute-force value never decreases.  Each output family
    shares its input's scores, so no round, and no later scoring of the
    result, scores a candidate twice.
    """
    for k in range(rounds):
        rng = np.random.default_rng((fam.seed, k))
        res = brute_force_multiplier(f, X, Y, fam, cfg)
        extra = tuple(_perturb(res.argmax, rng) for _ in range(_PER_ROUND))
        fam = replace(fam, candidates=fam.candidates + extra)
    return fam