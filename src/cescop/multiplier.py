"""Closed-form characterizations of pointwise-multiplier quasi-norms.

The multiplier norm from a weighted Copson space cop_r(u) into a
weighted Cesaro space ces_{p,q}(w,v) admits a closed form in seven
exponent regimes.  Each regime is one row of the recipe table
``_REGIMES``: it names derived weights built from the A / A* transforms
and the 1-, 2- or 3-level norms of the multiplier candidate f taken
against them; the value is the sum of the term values.  A four-weight
Copson-to-Cesaro problem first reduces to this three-weight form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import grids
from .errors import SpecInvalid, UnsupportedRegime
from .exponents import Exponent, arrow, dual_exponent
from .operators import (
    big_V,
    is_admissible,
    is_nondegenerate,
    op_A,
    op_A_star,
    stieltjes_density,
    suffix_sup_fun,
)
from .realfun import (
    DEFAULT_CFG,
    FULL,
    ONE,
    QuadratureConfig,
    RealFun,
    _check_funs,
    _check_is,
    _log_norms_at,
    from_log_callable,
    lp_norm,
    powerof,
    product,
)
from .spaces import SpaceSpec, check_omega, space_norm

__all__ = [
    "ThreeWeightProblem", "CharacterizationResult",
    "classify_regime", "characterize", "hypothesis_check", "reduce_problem",
    "REGIME_TAGS",
]


@dataclass(frozen=True)
class ThreeWeightProblem:
    """Multiplier problem from cop_r(u) into ces_{p,q}(w,v); the weights
    u, w and v are RealFuns."""

    r: Exponent
    u: RealFun
    p: Exponent
    q: Exponent
    w: RealFun
    v: RealFun
    f: RealFun
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        for name in ("r", "p", "q"):
            object.__setattr__(self, name, Exponent(getattr(self, name)))
        _check_funs(u=self.u, w=self.w, v=self.v, f=self.f)

    def describe(self) -> str:
        return (f"M(cop_{self.r.value}({self.u.describe()}) -> "
                f"ces_{{{self.p.value},{self.q.value}}}"
                f"({self.w.describe()}, {self.v.describe()}))")


@dataclass(frozen=True)
class CharacterizationResult:
    value: float
    regime: str
    terms: tuple      # (name, value) pairs; value == sum of these
    omegas: tuple     # (name, recipe string) pairs
    warnings: tuple


def classify_regime(p, q, r) -> str:
    """Map an exponent triple to its closed-form regime tag.

    Tags are mutually exclusive; combinations no closed form covers
    return "UNSUPPORTED".  Exact rational comparisons avoid misdispatch
    at the many boundary cases (p = q, r = 1, q = 1).
    """
    p, q, r = Exponent(p), Exponent(q), Exponent(r)
    if p.is_inf or q.is_inf or r.is_inf:
        return "UNSUPPORTED"
    one = Exponent(1)
    if q == p and p <= r and r == one:
        return "T1"
    if p <= one and r == one and q != p:
        return "T2i" if q >= one else "T2ii"
    if r != one and p == q and p <= one:
        return "T3i" if r <= p else "T3ii"
    if p < one and r <= p and p < q:
        return "T4i" if q >= one else "T4ii"
    if p < one and p < r and p < q:
        if max(one, r) <= q:
            return "T5i"
        if one <= q:
            return "T5ii"
        if r <= q:
            return "T5iii"
        return "T5iv"
    if p == one and r < one and q > one:
        return "T6"
    if p == one and r > one and q > one:
        return "T7i" if r <= q else "T7ii"
    return "UNSUPPORTED"


def _phi(tag: str, prob: ThreeWeightProblem, V: RealFun, cfg: QuadratureConfig) -> RealFun:
    """phi_1 (T4) or phi_2 (T5) as a RealFun: each x reduces one row of the
    kernel K(x,t) = V(x)/(V(x)+V(t)) against V(t) over the grid nodes t.

    phi_1(x) = esup_t K V(t) ||u||_{r,(0,t)}^{-1}; phi_2(x) is the
    (r->p)-mean of K V against the density of d(-||u||_{r,(0,t)}^{-(r->p)}).
    """
    g = grids.log_nodes(cfg)
    lV = V.logv(g.t)
    if tag.startswith("T4"):
        e, scale = None, 1.0
        lnu = grids.log_cumnorm(prob.u.logv(g.t), g, float(prob.r), head=True)
        with np.errstate(invalid="ignore"):  # 0/0 is a NaN the sup skips
            lf = lV - lnu
    else:
        e = scale = float(arrow(prob.r, prob.p))
        lf = e * lV + stieltjes_density(prob.u, prob.r, prob.p, cfg).logv(g.t)

    side = grids.SupportColumns(lf, g, e)
    lVc = lV[side.cols]

    def logphi(x):
        # one kernel row per x: a (len(x), n) block is slower, not faster
        return np.array([side.reduce(grids.log_kernel(lx, lVc))
                         for lx in V.logv(x)]) / scale

    return from_log_callable(logphi, label="phi1" if e is None else "phi2")


def hypothesis_check(prob: ThreeWeightProblem, cfg: QuadratureConfig = DEFAULT_CFG) -> list:
    """The hypothesis checks of prob's regime, surfaced as warnings."""
    _check_is(ThreeWeightProblem, prob=prob)
    _check_funs(cfg=cfg)
    tag = classify_regime(prob.p, prob.q, prob.r)
    notes = []
    if tag in ("T4i", "T4ii", "T5i", "T5ii", "T5iii", "T5iv"):
        V = big_V(prob.v, prob.p, cfg)
        rep = is_admissible(V)
        if not rep.ok:
            notes.append(f"V is not admissible (checks: {rep.statuses})")
        U = powerof(V, float(dual_exponent(prob.p).reciprocal()))
        phi = _phi(tag, prob, V, cfg)
        lrep = is_nondegenerate(phi, U)
        if not lrep.ok:
            notes.append(f"{phi.describe()} degenerate or inconclusive: {lrep.statuses}")
    if tag in ("T7i", "T7ii"):
        vfam = prob.v.describe()
        if "indicator" in vfam:
            notes.append("v may be discontinuous; the regime assumes continuous v")
        # a finite q'-norm of 1/w near infinity cannot coexist with the
        # Omega_q gate on w, so the local-integrability reading (0, x)
        # is the only satisfiable one; only whether the norm lies in
        # (0, inf) matters, so its log is enough and cannot overflow
        xs = (1e-2, 1.0, 1e2)
        for x, lval in zip(xs, _log_norms_at(powerof(prob.w, -1.0), dual_exponent(prob.q),
                                             True, xs, cfg)):
            if not np.isfinite(lval):
                notes.append(f"||w^-1||_{{q',(0,{x:g})}} = {grids.from_log(lval):g} "
                             "out of (0,inf)")
                break
    return notes


_INTERPRETIVE = {
    "T3ii": "extra term uses ||u||_r^-1 (statement shows ||u||_r; "
            "the derivation and the space equality force the inverse)",
    "T5iii": "finiteness switch read on ||u||_{r,(0,inf)} "
             "(statement names it in the four-weight notation)",
    "T7i": "omega3 inner transform read as A*_{r',r'}(A_{r,1}(u)) "
           "(statement has a malformed subscript)",
}


# Regime recipes: tag -> (omegas, terms).  An omega row is (name, recipe,
# parts); its weight is the product of the named transforms.  A term row
# is (name, exponents, weights), innermost exponent and outermost weight
# (an omega or v) first: one exponent is an L^p norm of f, two a ces_{p,q}
# norm, three a ces_{p,q,r} norm.  Terms named extra* carry the
# coefficient ||u||_{r,(0,inf)}^{-1}.
_A_SUP = "A*_{r->p,r->p}(A_{r,p}(u))"
_MIX_P = f"{_A_SUP}^{{(r->p)/(q->p)}} * A_{{r,p}}(u)^{{(r->p)/(r->q)}}"
_REGIMES = {
    "T1": ([("omega", "A_{1,1}(u) * A*_{p,p}(w) * v", ("A11", "A*pp", "v"))],
           [("lp", ("p'",), ("omega",))]),
    "T2i": ([("omega2", "A_{1,1}(u) * v", ("A11", "v")),
             ("omega1", "A*_{p,p}(w)", ("A*pp",))],
            [("ces", ("p'", "inf"), ("omega1", "omega2"))]),
    "T2ii": ([("omega2", "A_{1,1}(u) * v", ("A11", "v")),
              ("omega1", "A*_{q,1}(w)", ("A*q1",))],
             [("ces", ("p'", "q'"), ("omega1", "omega2"))]),
    "T3i": ([("omega2", "A*_{p,p}(w) * v", ("A*pp", "v")),
             ("omega1", "A_{r,r}(u)", ("Arr",))],
            [("ces", ("p'", "inf"), ("omega1", "omega2"))]),
    "T3ii": ([("omega2", "A*_{p,p}(w) * v", ("A*pp", "v")),
              ("omega1", "A_{r,p}(u)", ("Arp",))],
             [("ces", ("p'", "r->p"), ("omega1", "omega2")),
              ("extra_lp", ("p'",), ("omega2",))]),
    "T4i": ([("omega1", "A_{r,r}(u) * A*_{q,q}(w)", ("Arr", "A*qq"))],
            [("ces_sup", ("p'", "inf"), ("omega1", "v"))]),
    "T4ii": ([("omega1", "A_{r,r}(u) * A*_{q,q}(w)", ("Arr", "A*qq")),
              ("omega2", "A_{r,r}(u)", ("Arr",)),
              ("omega3", "A*_{q,1}(w)", ("A*q1",))],
             [("ces_sup", ("p'", "inf"), ("omega1", "v")),
              ("ces3", ("p'", "q'", "inf"), ("omega2", "omega3", "v"))]),
    "T5i": ([("omega1", "A*_{q,q}(w)", ("A*qq",)),
             ("omega2", "A_{r,p}(u)", ("Arp",)),
             ("omega3", f"{_A_SUP} * A*_{{q,q}}(w)", ("A*(Arp)", "A*qq"))],
            [("ces3", ("p'", "r->p", "inf"), ("omega1", "omega2", "v")),
             ("ces_sup", ("p'", "inf"), ("omega3", "v")),
             ("extra_ces", ("p'", "inf"), ("omega1", "v"))]),
    "T5ii": ([("omega1", "A*_{q,r}(w)", ("A*qr",)),
              ("omega2", "A_{r,p}(u)", ("Arp",)),
              ("omega3", "A*_{q,q}(w)", ("A*qq",)),
              ("omega4", _MIX_P, ("mix(Arp)",))],
             [("ces3_a", ("p'", "r->p", "r->q"), ("omega1", "omega2", "v")),
              ("ces3_b", ("p'", "inf", "r->q"), ("omega3", "omega4", "v")),
              ("extra_ces", ("p'", "inf"), ("omega4", "v"))]),
    "T5iii": ([("omega1", "A*_{q,q}(w)", ("A*qq",)),
               ("omega2", "A_{r,p}(u)", ("Arp",)),
               ("omega3", _A_SUP, ("A*(Arp)",)),
               ("omega4", "A*_{q,1}(w)", ("A*q1",))],
              [("ces3_a", ("p'", "r->p", "inf"), ("omega1", "omega2", "v")),
               ("ces3_b", ("p'", "q'", "inf"), ("omega3", "omega4", "v")),
               ("extra_ces", ("p'", "q'"), ("omega4", "v"))]),
    "T5iv": ([("omega1", "A*_{q,r}(w)", ("A*qr",)),
              ("omega2", "A_{r,p}(u)", ("Arp",)),
              ("omega3", _MIX_P, ("mix(Arp)",)),
              ("omega4", "A*_{q,1}(w)", ("A*q1",))],
             [("ces3_a", ("p'", "r->p", "r->q"), ("omega1", "omega2", "v")),
              ("ces3_b", ("p'", "q'", "r->q"), ("omega3", "omega4", "v")),
              ("extra_ces", ("p'", "q'"), ("omega4", "v"))]),
    "T6": ([("omega", "A_{r,r}(u) * A*_{q,q}(w) * v", ("Arr", "A*qq", "v"))],
           [("sup", ("inf",), ("omega",))]),
    "T7i": ([("omega1", "A*_{q,q}(w)", ("A*qq",)),
             ("omega2", "A_{r,1}(u)", ("Ar1",)),
             ("omega3", "v * sup_{(x,inf)} A*_{r',r'}(A_{r,1}(u)) * omega1",
              ("v", "sup(A*(Ar1)*A*qq)")),
             ("omega4", "A*_{q,q}(w) * v", ("A*qq", "v"))],
            [("ces3", ("inf", "r'", "inf"), ("omega1", "omega2", "v")),
             ("sup", ("inf",), ("omega3",)),
             ("extra_sup", ("inf",), ("omega4",))]),
    "T7ii": ([("omega1", "A*_{q,r}(w)", ("A*qr",)),
              ("omega2", "A_{r,1}(u)", ("Ar1",)),
              ("omega3", "A*_{r',r'}(A_{r,1}(u))^{r'/q'} * A_{r,1}(u)^{r'/(r->q)}",
               ("mix(Ar1)",)),
              ("omega4", "A*_{q,q}(w)", ("A*qq",)),
              ("omega5", "A*_{q,q}(w) * v", ("A*qq", "v"))],
             [("ces3_a", ("inf", "r'", "r->q"), ("omega1", "omega2", "v")),
              ("ces3_b", ("inf", "inf", "r->q"), ("omega3", "omega4", "v")),
              ("extra_sup", ("inf",), ("omega5",))]),
}

REGIME_TAGS = tuple(_REGIMES) + ("UNSUPPORTED",)


def _mix(m, x: str, e: Exponent, b: Exponent) -> RealFun:
    """A*_{e,e}(X)^{e/b} * X^{e/(r->q)} for the transform X named x."""
    return product(powerof(m[f"A*({x})"], float(e) / float(b)),
                   powerof(m[x], float(e) / float(m.ex["r->q"])))


# How each transform a recipe names is built from the memo m.  The
# operators are looked up by module-global name when a maker runs, so a
# rebound module attribute (as the benchmark's tracer installs) is used.
_TRANSFORMS = {
    "A11": lambda m: op_A(m.u, 1, 1, m.cfg),
    "Arr": lambda m: op_A(m.u, m.r, m.r, m.cfg),
    "Arp": lambda m: op_A(m.u, m.r, m.p, m.cfg),
    "Ar1": lambda m: op_A(m.u, m.r, 1, m.cfg),
    "A*pp": lambda m: op_A_star(m.w, m.p, m.p, m.cfg),
    "A*qq": lambda m: op_A_star(m.w, m.q, m.q, m.cfg),
    "A*q1": lambda m: op_A_star(m.w, m.q, 1, m.cfg),
    "A*qr": lambda m: op_A_star(m.w, m.q, m.r, m.cfg),
    "A*(Arp)": lambda m: op_A_star(m["Arp"], m.ex["r->p"], m.ex["r->p"], m.cfg),
    "A*(Ar1)": lambda m: op_A_star(m["Ar1"], m.ex["r'"], m.ex["r'"], m.cfg),
    "mix(Arp)": lambda m: _mix(m, "Arp", m.ex["r->p"], arrow(m.q, m.p)),
    "mix(Ar1)": lambda m: _mix(m, "Ar1", m.ex["r'"], m.ex["q'"]),
    "sup(A*(Ar1)*A*qq)": lambda m: suffix_sup_fun(product(m["A*(Ar1)"], m["A*qq"]),
                                                  m.cfg),
}


class _Memo(dict):
    """The named weights of one problem: v, the omegas, and the
    transforms, each transform built on first use."""

    def __init__(self, prob: ThreeWeightProblem, cfg: QuadratureConfig):
        super().__init__(v=prob.v)
        self.u, self.w, self.cfg = prob.u, prob.w, cfg
        self.p, self.q, self.r = p, q, r = prob.p, prob.q, prob.r
        self.ex = {"p'": dual_exponent(p), "q'": dual_exponent(q),
                   "r'": dual_exponent(r), "r->p": arrow(r, p),
                   "r->q": arrow(r, q), "inf": Exponent("inf")}

    def __missing__(self, key):
        self[key] = made = _TRANSFORMS[key](self)
        return made


def characterize(prob: ThreeWeightProblem,
                 cfg: QuadratureConfig = DEFAULT_CFG) -> CharacterizationResult:
    """Evaluate the closed-form multiplier norm of prob.f.

    Builds the regime's derived weights, evaluates each term, and sums
    them; the extra term carries the coefficient ||u||_{r,(0,inf)}^{-1}
    and drops out, unevaluated, when that norm is infinite.
    """
    _check_is(ThreeWeightProblem, prob=prob)
    _check_funs(cfg=cfg)
    p, q, r = prob.p, prob.q, prob.r
    tag = classify_regime(p, q, r)
    if tag == "UNSUPPORTED":
        raise UnsupportedRegime(
            f"no closed form for (p, q, r) = ({p.value}, {q.value}, {r.value})")
    if prob.validate:
        if not check_omega(prob.u, r, dual=True, cfg=cfg).ok:
            raise SpecInvalid("u fails the dual-Omega_r gate")
        if not check_omega(prob.w, q, dual=False, cfg=cfg).ok:
            raise SpecInvalid("w fails the Omega_q gate")
    notes = list(hypothesis_check(prob, cfg))
    if tag in _INTERPRETIVE:
        notes.append(_INTERPRETIVE[tag])

    omega_rows, term_rows = _REGIMES[tag]
    m = _Memo(prob, cfg)
    for name, _, parts in omega_rows:
        m[name] = product(*(m[k] for k in parts)) if len(parts) > 1 else m[parts[0]]
    value, terms = 0.0, []
    for name, exps, wnames in term_rows:
        norm = lp_norm(prob.u, ONE, FULL, r, cfg) if name.startswith("extra") else 1.0
        c = 1.0 / norm if norm else grids.INF  # 1/0 = inf, and 1/inf is 0.0
        es, ws = tuple(m.ex[e] for e in exps), tuple(m[n] for n in wnames)
        if not c:
            tv = 0.0
        elif len(es) == 1:
            tv = c * lp_norm(prob.f, ws[0], FULL, es[0], cfg)
        else:
            spec = SpaceSpec("ces", es, ws, validate=False)
            tv = c * space_norm(spec, prob.f, cfg)
        terms.append((name, tv))
        value += tv
    return CharacterizationResult(value=value, regime=tag, terms=tuple(terms),
                                  omegas=tuple((n, s) for n, s, _ in omega_rows),
                                  warnings=tuple(notes))


def _ediv(a: Exponent, b: Exponent) -> Exponent:
    if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
        return Exponent(a.value / b.value)
    return Exponent(float(a) / float(b))


def reduce_problem(p1, q1, p2, q2, u1: RealFun, v1: RealFun, u2: RealFun, v2: RealFun,
                   f: RealFun, validate: bool = True) -> tuple:
    """Reduce the four-weight Copson-to-Cesaro problem to three weights.

    Returns (ThreeWeightProblem, outer_power): the multiplier norm of f
    equals the characterized value of the reduced problem for f^p1,
    raised to 1/p1.  The reduced data are r = q1/p1, p = p2/p1,
    q = q2/p1, u = u1^p1, w = u2^p1, v = v1^-p1 * v2^p1.
    """
    p1, q1, p2, q2 = (Exponent(e) for e in (p1, q1, p2, q2))
    for e in (p1, q1, p2, q2):
        if e.is_inf:
            raise SpecInvalid("reduction needs finite exponents")
    p1f = float(p1)
    prob = ThreeWeightProblem(
        r=_ediv(q1, p1),
        u=powerof(u1, p1f),
        p=_ediv(p2, p1),
        q=_ediv(q2, p1),
        w=powerof(u2, p1f),
        v=product(powerof(v1, -p1f), powerof(v2, p1f)),
        f=powerof(f, p1f),
        validate=validate,
    )
    return prob, float(p1.reciprocal())
