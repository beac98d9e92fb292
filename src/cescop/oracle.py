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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

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
from .spaces import SpaceSpec, _Screen, space_norm

__all__ = ["Candidate", "CandidateFamily", "OracleResult",
           "default_family", "brute_force_multiplier", "enrich"]


# the number of params of each candidate kind
_ARITY = {"head": 1, "tail": 1, "band": 2, "bump": 3, "step": 2, "decay": 2}


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class Candidate:
    """One test function, rebuildable from (kind, params).

    kinds: head (0,t); tail (t,inf); band (s,t); bump t^gamma on (s,t);
    step = piecewise-constant levels on dyadic breakpoints; decay
    t^gamma e^{rate t}.  ``build`` raises SpecInvalid for an unknown kind,
    the wrong number of params or params that are not real numbers (for
    a step, two sequences of them: edges and levels).
    """

    kind: str
    params: tuple

    def build(self) -> RealFun:
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise SpecInvalid(f"unknown candidate kind {self.kind!r}")
        if not isinstance(self.params, (tuple, list)) or len(self.params) != arity:
            raise SpecInvalid(f"a {self.kind} candidate takes {arity} params, "
                              f"got {self.params!r}")
        seqs = self.params if self.kind == "step" else (self.params,)
        if not all(isinstance(seq, (tuple, list)) and all(map(_is_real, seq))
                   for seq in seqs):
            raise SpecInvalid(f"{self.kind} candidate params must be real numbers, "
                              f"got {self.params!r}")
        if self.kind == "head":
            (t,) = self.params
            return indicator(0.0, t)
        if self.kind == "tail":
            (t,) = self.params
            return indicator(t, math.inf)
        if self.kind == "band":
            lo, hi = self.params
            return indicator(lo, hi)
        if self.kind == "bump":
            lo, hi, gamma = self.params
            return product(power(1.0, gamma), indicator(lo, hi))
        if self.kind == "step":
            edges, levels = self.params
            parts = [product(constant(c), indicator(a, b))
                     for a, b, c in zip(edges[:-1], edges[1:], levels) if c > 0.0]
            if not parts:
                return constant(1.0)
            return funsum(*parts)
        gamma, rate = self.params  # decay
        return expfam(1.0, gamma, rate)

    def describe(self) -> str:
        return f"{self.kind}{self.params}"


@dataclass(frozen=True)
class CandidateFamily:
    candidates: tuple
    seed: int

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
        kind = rng.choice(["head", "tail", "band", "bump", "step", "decay"])
        if kind == "head" or kind == "tail":
            cands.append(Candidate(kind, (float(10.0 ** rng.uniform(-4, 4)),)))
        elif kind == "band":
            lo = float(10.0 ** rng.uniform(-4, 3))
            cands.append(Candidate(kind, (lo, lo * float(10.0 ** rng.uniform(0.1, 2.0)))))
        elif kind == "bump":
            lo = float(10.0 ** rng.uniform(-4, 3))
            hi = lo * float(10.0 ** rng.uniform(0.1, 2.0))
            cands.append(Candidate(kind, (lo, hi, float(rng.uniform(-2.0, 2.0)))))
        elif kind == "decay":
            cands.append(Candidate(kind, (float(rng.uniform(-1.0, 4.0)),
                                          -float(10.0 ** rng.uniform(-1.5, 0.5)))))
        else:
            k0 = int(rng.integers(-12, 4))
            nlev = int(rng.integers(2, 7))
            edges = tuple(2.0 ** (k0 + 2 * np.arange(nlev + 1, dtype=float)))
            levels = tuple(float(10.0 ** rng.uniform(-2, 2)) for _ in range(nlev))
            cands.append(Candidate("step", (edges, levels)))
    return CandidateFamily(candidates=tuple(cands), seed=seed)


class _Spaces:
    """X and Y of one scoring call, each prepared (spaces._Screen) at its
    first use, so that a gate fails where an unprepared norm's would."""

    def __init__(self, X: SpaceSpec, Y: SpaceSpec, cfg: QuadratureConfig):
        self._X, self._Y, self._cfg = X, Y, cfg

    @cached_property
    def X(self) -> _Screen:
        return _Screen(self._X, self._cfg)

    @cached_property
    def Y(self) -> _Screen:
        return _Screen(self._Y, self._cfg)


def _ratio(f: RealFun, X: SpaceSpec, Y: SpaceSpec, cand: Candidate,
           cfg: QuadratureConfig, prepared: _Spaces | None = None) -> float | None:
    """||f*g||_Y / ||g||_X for g built from cand; None if ||g||_X is 0 or inf.

    ``prepared`` holds X and Y prepared for cfg; without it they are
    prepared here.
    """
    if prepared is None:
        prepared = _Spaces(X, Y, cfg)
    g = cand.build()
    den = space_norm(prepared.X.spec, g, cfg)
    if not (0.0 < den < math.inf):
        return None
    return space_norm(prepared.Y.spec, product(f, g), cfg) / den


class _Screened(NamedTuple):
    """A candidate's ratio known only to lie in [lo, hi], from screened
    norms; brute_force_multiplier scores it exactly if it may win."""

    lo: float
    hi: float


# A screened norm whose log lies outside (-_LOG_RANGE, _LOG_RANGE), or a
# ratio whose log does, is scored exactly: from_log and the division then
# stay among normal floats.  A numerator whose log lies below _LOG_ZERO
# rounds to 0.0 in from_log.
_LOG_RANGE = 700.0
_LOG_ZERO = -746.0


def _score(f: RealFun, X: SpaceSpec, Y: SpaceSpec, cand: Candidate,
           cfg: QuadratureConfig, prepared: _Spaces | None = None):
    """What _ratio returns for cand, or a _Screened interval around it.

    The norms are screened (spaces._Screen) in _ratio's order: X first,
    and Y only when ||g||_X is finite.  Where a screen is missing or out
    of range the candidate takes _ratio, so every error _ratio raises is
    raised here too.  ``prepared`` is as for _ratio.
    """
    if prepared is None:
        prepared = _Spaces(X, Y, cfg)
    g = cand.build()
    den = prepared.X(g)
    if den is not None and math.isinf(den[0]):
        return None  # ||g||_X is exactly 0 or inf
    if den is None or not -_LOG_RANGE < den[0] < _LOG_RANGE:
        return _ratio(f, X, Y, cand, cfg, prepared)
    num = prepared.Y(product(f, g))
    if num is not None and num[0] + num[1] < _LOG_ZERO:
        return 0.0
    if num is None or not -_LOG_RANGE < num[0] < _LOG_RANGE:
        return _ratio(f, X, Y, cand, cfg, prepared)
    # the rounding of num - den and of lr -+ bound, and of the two
    # from_log calls, the division and the two exps, in log terms
    lr = num[0] - den[0]
    bound = num[1] + den[1] + 4.0 * _U * (abs(lr) + 4.0)
    if not -_LOG_RANGE < lr < _LOG_RANGE:
        return _ratio(f, X, Y, cand, cfg, prepared)
    return _Screened(math.exp(lr - bound), math.exp(lr + bound))


def brute_force_multiplier(f: RealFun, X: SpaceSpec, Y: SpaceSpec,
                           fam: CandidateFamily,
                           cfg: QuadratureConfig = DEFAULT_CFG, *,
                           scores: dict | None = None) -> OracleResult:
    """Max of ||f*g||_Y / ||g||_X over the family.

    Candidates whose source norm is zero or infinite are skipped: they
    carry no information about the supremum.  The result is a lower
    bound of the true multiplier norm up to quadrature error.

    Each candidate is first screened with cheap linear-space norms that
    come with an error bound (``_score``); only the candidates whose
    interval reaches the largest lower end in the family are then scored
    exactly, so every candidate that may be the argmax or tie it has an
    exact ratio.  The argmax is taken among exact ratios in family order,
    and the result is the one that scoring every candidate exactly gives.
    Each call prepares X and Y once, at their first use (``_Spaces``):
    the gate, the exponents and the outer weight on the window.

    ``scores`` maps each candidate already scored against this same f,
    X, Y and cfg to its ratio (None for a skipped one) or to a screened
    interval; candidates not in it are scored and added.  Sharing one
    dict across calls with other arguments gives wrong results.
    """
    scores = {} if scores is None else scores
    prepared = _Spaces(X, Y, cfg)
    floor = -1.0
    for cand in fam.candidates:
        if cand not in scores:
            scores[cand] = _score(f, X, Y, cand, cfg, prepared)
        ratio = scores[cand]
        lo = ratio.lo if isinstance(ratio, _Screened) else ratio
        if lo is not None and lo > floor:
            floor = lo
    # exact scores only raise the largest lower end, so no interval below
    # it now can reach it later
    best, best_cand = -1.0, None
    evaluated = skipped = 0
    for cand in fam.candidates:
        ratio = scores[cand]
        if isinstance(ratio, _Screened) and ratio.hi >= floor:
            ratio = scores[cand] = _ratio(f, X, Y, cand, cfg, prepared)
        if ratio is None:
            skipped += 1
            continue
        evaluated += 1
        if not isinstance(ratio, _Screened) and ratio > best:
            best, best_cand = ratio, cand
    if evaluated == 0:
        raise EmptyFamily("no candidate has a nontrivial source norm")
    return OracleResult(lower_bound=best, argmax=best_cand,
                        evaluated=evaluated, skipped=skipped)


# the variants of the argmax that each enrich round appends
_PER_ROUND = 10


def _perturb(cand: Candidate, rng) -> Candidate:
    jit = lambda x: float(x * 2.0 ** rng.uniform(-1.0, 1.0))
    if cand.kind in ("head", "tail"):
        return Candidate(cand.kind, (jit(cand.params[0]),))
    if cand.kind == "band":
        lo, hi = cand.params
        lo2 = jit(lo)
        return Candidate("band", (lo2, max(jit(hi), lo2 * 1.05)))
    if cand.kind == "bump":
        lo, hi, gamma = cand.params
        lo2 = jit(lo)
        return Candidate("bump", (lo2, max(jit(hi), lo2 * 1.05),
                                  float(gamma + rng.uniform(-0.5, 0.5))))
    if cand.kind == "decay":
        gamma, rate = cand.params
        return Candidate("decay", (float(gamma + rng.uniform(-0.5, 0.5)), jit(rate)))
    edges, levels = cand.params
    new_levels = tuple(jit(c) for c in levels)
    # sorted, so that edges jittered past each other still bound intervals
    return Candidate("step", (tuple(sorted(jit(e) for e in edges)) if rng.random() < 0.5
                              else edges, new_levels))


def enrich(fam: CandidateFamily, f: RealFun, X: SpaceSpec, Y: SpaceSpec,
           rounds: int = 1, cfg: QuadratureConfig = DEFAULT_CFG, *,
           scores: dict | None = None) -> CandidateFamily:
    """Local search around the current argmax.

    Each round evaluates the family, perturbs the best candidate and
    appends _PER_ROUND variants.  The output family is a superset of the
    input, so the brute-force value never decreases.  ``scores`` is
    passed to every round's ``brute_force_multiplier``; a caller that
    scores the result against the same f, X, Y and cfg can pass it on.
    """
    for k in range(rounds):
        rng = np.random.default_rng((fam.seed, k))
        res = brute_force_multiplier(f, X, Y, fam, cfg, scores=scores)
        extra = tuple(_perturb(res.argmax, rng) for _ in range(_PER_ROUND))
        fam = replace(fam, candidates=fam.candidates + extra)
    return fam
