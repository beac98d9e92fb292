"""Closed-form characterizations of pointwise-multiplier quasi-norms.

The multiplier norm from a weighted Copson space cop_r(u) into a
weighted Cesaro space ces_{p,q}(w,v) admits a closed form in seven
exponent regimes.  Each regime builds one to three derived weights out
of the A / A* transforms and evaluates the multiplier candidate f in
1-, 2- or 3-level norms against them; the value is the sum of the term
values.  A four-weight Copson-to-Cesaro problem first reduces to this
three-weight form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import grids
from .conventions import INF, xrecip
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
    Interval,
    ONE,
    QuadratureConfig,
    RealFun,
    Weight,
    as_fun,
    lp_norm,
    powerof,
    product,
)
from .spaces import SpaceSpec, check_omega, space_norm, space_norm3

__all__ = [
    "ThreeWeightProblem", "CharacterizationResult",
    "classify_regime", "characterize", "hypothesis_check", "reduce_problem",
    "REGIME_TAGS",
]

REGIME_TAGS = ("T1", "T2i", "T2ii", "T3i", "T3ii", "T4i", "T4ii",
               "T5i", "T5ii", "T5iii", "T5iv", "T6", "T7i", "T7ii",
               "UNSUPPORTED")


@dataclass(frozen=True)
class ThreeWeightProblem:
    """Multiplier problem from cop_r(u) into ces_{p,q}(w,v)."""

    r: Exponent
    u: Weight
    p: Exponent
    q: Exponent
    w: Weight
    v: Weight
    f: RealFun
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        for name in ("r", "p", "q"):
            e = getattr(self, name)
            if not isinstance(e, Exponent):
                object.__setattr__(self, name, Exponent(e))

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
    p = p if isinstance(p, Exponent) else Exponent(p)
    q = q if isinstance(q, Exponent) else Exponent(q)
    r = r if isinstance(r, Exponent) else Exponent(r)
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


def _W(fun: RealFun) -> Weight:
    return Weight(fun, check=False)


def _wspec(kind, exps, weights):
    return SpaceSpec(kind, exps, tuple(_W(as_fun(x)) for x in weights), validate=False)


def _phi1(prob: ThreeWeightProblem, V: RealFun, cfg: QuadratureConfig):
    """phi_1(x) = esup_t V(x,t)-kernel * V(t) * ||u||_{r,(0,t)}^{-1}."""
    s, t = grids.log_nodes(cfg)
    lV = V.logv(t)
    rf = float(prob.r)
    lnu = grids.log_cumint(rf * as_fun(prob.u).logv(t) + s, s, head=True) / rf

    def phi(x):
        lx = V.logv(np.asarray([float(x)]))[0]
        lker = lx - np.logaddexp(lx, lV)
        with np.errstate(invalid="ignore"):
            vals = lker + lV - lnu
        return float(np.exp(np.nanmax(vals))) if vals.size else 0.0

    return phi


def _phi2(prob: ThreeWeightProblem, V: RealFun, cfg: QuadratureConfig):
    """phi_2(x): the (r->p)-mean of kernel * V against the u-differential."""
    e = float(arrow(prob.r, prob.p))
    dens = stieltjes_density(prob.u, prob.r, prob.p, cfg)
    s, t = grids.log_nodes(cfg)
    lV = V.logv(t)
    ld = dens.logv(t)

    def phi(x):
        lx = V.logv(np.asarray([float(x)]))[0]
        lker = lx - np.logaddexp(lx, lV)
        tot = grids.log_integral(e * (lker + lV) + ld + s, s)
        return float(np.exp(tot / e))

    return phi


def hypothesis_check(tag: str, prob: ThreeWeightProblem,
                     cfg: QuadratureConfig = DEFAULT_CFG) -> list:
    """Regime-specific hypothesis checks, surfaced as warnings."""
    notes = []
    if tag in ("T4i", "T4ii", "T5i", "T5ii", "T5iii", "T5iv"):
        V = big_V(prob.v, prob.p, cfg)
        rep = is_admissible(V, cfg)
        if not rep.ok:
            notes.append(f"V is not admissible (checks: {rep.statuses})")
        U = powerof(V, float(dual_exponent(prob.p).reciprocal()))
        phi = _phi1(prob, V, cfg) if tag.startswith("T4") else _phi2(prob, V, cfg)
        which = "phi1" if tag.startswith("T4") else "phi2"
        lrep = is_nondegenerate(phi, U, cfg)
        if not lrep.ok:
            notes.append(f"{which} degenerate or inconclusive: {lrep.statuses}")
    if tag in ("T7i", "T7ii"):
        vfam = as_fun(prob.v).describe()
        if "indicator" in vfam or "table" in vfam:
            notes.append("v may be discontinuous; the regime assumes continuous v")
        # a finite q'-norm of 1/w near infinity cannot coexist with the
        # Omega_q gate on w, so the local-integrability reading (0, x)
        # is the only satisfiable one
        winv = powerof(as_fun(prob.w), -1.0)
        qd = dual_exponent(prob.q)
        for x in (1e-2, 1.0, 1e2):
            val = lp_norm(winv, ONE, Interval(0.0, x), qd, cfg)
            if not (0.0 < val < INF):
                notes.append(f"||w^-1||_{{q',(0,{x:g})}} = {val:g} out of (0,inf)")
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


def characterize(prob: ThreeWeightProblem,
                 cfg: QuadratureConfig = DEFAULT_CFG) -> CharacterizationResult:
    """Evaluate the closed-form multiplier norm of prob.f.

    Builds the regime's derived weights, evaluates each term, and sums
    them; the extra term carries the coefficient ||u||_{r,(0,inf)}^{-1}
    and drops out when that norm is infinite.
    """
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
    notes = list(hypothesis_check(tag, prob, cfg))
    if tag in _INTERPRETIVE:
        notes.append(_INTERPRETIVE[tag])

    u, w, v, f = prob.u, prob.w, as_fun(prob.v), prob.f
    pd, qd, rd = dual_exponent(p), dual_exponent(q), dual_exponent(r)
    terms, omegas = [], []

    def coef_u():
        return xrecip(lp_norm(as_fun(u), ONE, FULL, r, cfg))

    if tag == "T1":
        om = product(op_A(u, 1, 1, cfg), op_A_star(w, p, p, cfg), v)
        omegas.append(("omega", "A_{1,1}(u) * A*_{p,p}(w) * v"))
        terms.append(("lp", lp_norm(f, _W(om), FULL, pd, cfg)))

    elif tag in ("T2i", "T2ii"):
        om2 = product(op_A(u, 1, 1, cfg), v)
        omegas.append(("omega2", "A_{1,1}(u) * v"))
        if tag == "T2i":
            om1 = op_A_star(w, p, p, cfg)
            omegas.append(("omega1", "A*_{p,p}(w)"))
            spec = _wspec("ces", (pd, Exponent("inf")), (om1, om2))
        else:
            om1 = op_A_star(w, q, 1, cfg)
            omegas.append(("omega1", "A*_{q,1}(w)"))
            spec = _wspec("ces", (pd, qd), (om1, om2))
        terms.append(("ces", space_norm(spec, f, cfg)))

    elif tag in ("T3i", "T3ii"):
        om2 = product(op_A_star(w, p, p, cfg), v)
        omegas.append(("omega2", "A*_{p,p}(w) * v"))
        if tag == "T3i":
            om1 = op_A(u, r, r, cfg)
            omegas.append(("omega1", "A_{r,r}(u)"))
            spec = _wspec("ces", (pd, Exponent("inf")), (om1, om2))
            terms.append(("ces", space_norm(spec, f, cfg)))
        else:
            om1 = op_A(u, r, p, cfg)
            omegas.append(("omega1", "A_{r,p}(u)"))
            spec = _wspec("ces", (pd, arrow(r, p)), (om1, om2))
            terms.append(("ces", space_norm(spec, f, cfg)))
            c = coef_u()
            terms.append(("extra_lp", c * lp_norm(f, _W(om2), FULL, pd, cfg)
                          if c else 0.0))

    elif tag in ("T4i", "T4ii"):
        om1 = product(op_A(u, r, r, cfg), op_A_star(w, q, q, cfg))
        omegas.append(("omega1", "A_{r,r}(u) * A*_{q,q}(w)"))
        terms.append(("ces_sup", space_norm(
            _wspec("ces", (pd, Exponent("inf")), (om1, v)), f, cfg)))
        if tag == "T4ii":
            om2 = op_A(u, r, r, cfg)
            om3 = op_A_star(w, q, 1, cfg)
            omegas.append(("omega2", "A_{r,r}(u)"))
            omegas.append(("omega3", "A*_{q,1}(w)"))
            terms.append(("ces3", space_norm3(
                _wspec("ces", (pd, qd, Exponent("inf")), (om2, om3, v)), f, cfg)))

    elif tag.startswith("T5"):
        rp, rq, qp = arrow(r, p), arrow(r, q), arrow(q, p)
        Arp = op_A(u, r, p, cfg)
        Astar_rp = op_A_star(Arp, rp, rp, cfg)
        if tag == "T5i":
            om1 = op_A_star(w, q, q, cfg)
            om2 = Arp
            om3 = product(Astar_rp, op_A_star(w, q, q, cfg))
            omegas += [("omega1", "A*_{q,q}(w)"), ("omega2", "A_{r,p}(u)"),
                       ("omega3", "A*_{r->p,r->p}(A_{r,p}(u)) * A*_{q,q}(w)")]
            terms.append(("ces3", space_norm3(
                _wspec("ces", (pd, rp, Exponent("inf")), (om1, om2, v)), f, cfg)))
            terms.append(("ces_sup", space_norm(
                _wspec("ces", (pd, Exponent("inf")), (om3, v)), f, cfg)))
            c = coef_u()
            terms.append(("extra_ces", c * space_norm(
                _wspec("ces", (pd, Exponent("inf")), (om1, v)), f, cfg) if c else 0.0))
        elif tag == "T5ii":
            om1 = op_A_star(w, q, r, cfg)
            om2 = Arp
            om3 = op_A_star(w, q, q, cfg)
            om4 = product(powerof(Astar_rp, float(rp) / float(qp)),
                          powerof(Arp, float(rp) / float(rq)))
            omegas += [("omega1", "A*_{q,r}(w)"), ("omega2", "A_{r,p}(u)"),
                       ("omega3", "A*_{q,q}(w)"),
                       ("omega4", "A*_{r->p,r->p}(A_{r,p}(u))^{(r->p)/(q->p)}"
                                  " * A_{r,p}(u)^{(r->p)/(r->q)}")]
            terms.append(("ces3_a", space_norm3(
                _wspec("ces", (pd, rp, rq), (om1, om2, v)), f, cfg)))
            terms.append(("ces3_b", space_norm3(
                _wspec("ces", (pd, Exponent("inf"), rq), (om3, om4, v)), f, cfg)))
            c = coef_u()
            terms.append(("extra_ces", c * space_norm(
                _wspec("ces", (pd, Exponent("inf")), (om4, v)), f, cfg) if c else 0.0))
        elif tag == "T5iii":
            om1 = op_A_star(w, q, q, cfg)
            om2 = Arp
            om3 = Astar_rp
            om4 = op_A_star(w, q, 1, cfg)
            omegas += [("omega1", "A*_{q,q}(w)"), ("omega2", "A_{r,p}(u)"),
                       ("omega3", "A*_{r->p,r->p}(A_{r,p}(u))"),
                       ("omega4", "A*_{q,1}(w)")]
            terms.append(("ces3_a", space_norm3(
                _wspec("ces", (pd, rp, Exponent("inf")), (om1, om2, v)), f, cfg)))
            terms.append(("ces3_b", space_norm3(
                _wspec("ces", (pd, qd, Exponent("inf")), (om3, om4, v)), f, cfg)))
            c = coef_u()
            terms.append(("extra_ces", c * space_norm(
                _wspec("ces", (pd, qd), (om4, v)), f, cfg) if c else 0.0))
        else:  # T5iv
            om1 = op_A_star(w, q, r, cfg)
            om2 = Arp
            om3 = product(powerof(Astar_rp, float(rp) / float(qp)),
                          powerof(Arp, float(rp) / float(rq)))
            om4 = op_A_star(w, q, 1, cfg)
            omegas += [("omega1", "A*_{q,r}(w)"), ("omega2", "A_{r,p}(u)"),
                       ("omega3", "A*_{r->p,r->p}(A_{r,p}(u))^{(r->p)/(q->p)}"
                                  " * A_{r,p}(u)^{(r->p)/(r->q)}"),
                       ("omega4", "A*_{q,1}(w)")]
            terms.append(("ces3_a", space_norm3(
                _wspec("ces", (pd, rp, rq), (om1, om2, v)), f, cfg)))
            terms.append(("ces3_b", space_norm3(
                _wspec("ces", (pd, qd, rq), (om3, om4, v)), f, cfg)))
            c = coef_u()
            terms.append(("extra_ces", c * space_norm(
                _wspec("ces", (pd, qd), (om4, v)), f, cfg) if c else 0.0))

    elif tag == "T6":
        om = product(op_A(u, r, r, cfg), op_A_star(w, q, q, cfg), v)
        omegas.append(("omega", "A_{r,r}(u) * A*_{q,q}(w) * v"))
        terms.append(("sup", lp_norm(f, _W(om), FULL, Exponent("inf"), cfg)))

    else:  # T7i / T7ii
        rq = arrow(r, q)
        Ar1 = op_A(u, r, 1, cfg)
        Astar_rd = op_A_star(Ar1, rd, rd, cfg)
        if tag == "T7i":
            om1 = op_A_star(w, q, q, cfg)
            om2 = Ar1
            om3 = product(v, suffix_sup_fun(product(Astar_rd, om1), cfg))
            om4 = product(op_A_star(w, q, q, cfg), v)
            omegas += [("omega1", "A*_{q,q}(w)"), ("omega2", "A_{r,1}(u)"),
                       ("omega3", "v * sup_{(x,inf)} A*_{r',r'}(A_{r,1}(u)) * omega1"),
                       ("omega4", "A*_{q,q}(w) * v")]
            terms.append(("ces3", space_norm3(
                _wspec("ces", (Exponent("inf"), rd, Exponent("inf")),
                       (om1, om2, v)), f, cfg)))
            terms.append(("sup", lp_norm(f, _W(om3), FULL, Exponent("inf"), cfg)))
            c = coef_u()
            terms.append(("extra_sup", c * lp_norm(f, _W(om4), FULL,
                                                   Exponent("inf"), cfg) if c else 0.0))
        else:
            om1 = op_A_star(w, q, r, cfg)
            om2 = Ar1
            om3 = product(powerof(Astar_rd, float(rd) / float(qd)),
                          powerof(Ar1, float(rd) / float(rq)))
            om4 = op_A_star(w, q, q, cfg)
            om5 = product(op_A_star(w, q, q, cfg), v)
            omegas += [("omega1", "A*_{q,r}(w)"), ("omega2", "A_{r,1}(u)"),
                       ("omega3", "A*_{r',r'}(A_{r,1}(u))^{r'/q'}"
                                  " * A_{r,1}(u)^{r'/(r->q)}"),
                       ("omega4", "A*_{q,q}(w)"), ("omega5", "A*_{q,q}(w) * v")]
            terms.append(("ces3_a", space_norm3(
                _wspec("ces", (Exponent("inf"), rd, rq), (om1, om2, v)), f, cfg)))
            terms.append(("ces3_b", space_norm3(
                _wspec("ces", (Exponent("inf"), Exponent("inf"), rq),
                       (om3, om4, v)), f, cfg)))
            c = coef_u()
            terms.append(("extra_sup", c * lp_norm(f, _W(om5), FULL,
                                                   Exponent("inf"), cfg) if c else 0.0))

    value = 0.0
    for _, tv in terms:
        value += tv
    return CharacterizationResult(value=value, regime=tag, terms=tuple(terms),
                                  omegas=tuple(omegas), warnings=tuple(notes))


def _ediv(a: Exponent, b: Exponent) -> Exponent:
    if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
        return Exponent(a.value / b.value)
    return Exponent(float(a) / float(b))


def reduce_problem(p1, q1, p2, q2, u1: Weight, v1: Weight, u2: Weight, v2: Weight,
                   f: RealFun, validate: bool = True) -> tuple:
    """Reduce the four-weight Copson-to-Cesaro problem to three weights.

    Returns (ThreeWeightProblem, outer_power): the multiplier norm of f
    equals the characterized value of the reduced problem for f^p1,
    raised to 1/p1.  The reduced data are r = q1/p1, p = p2/p1,
    q = q2/p1, u = u1^p1, w = u2^p1, v = v1^-p1 * v2^p1.
    """
    p1 = p1 if isinstance(p1, Exponent) else Exponent(p1)
    q1 = q1 if isinstance(q1, Exponent) else Exponent(q1)
    p2 = p2 if isinstance(p2, Exponent) else Exponent(p2)
    q2 = q2 if isinstance(q2, Exponent) else Exponent(q2)
    for e in (p1, q1, p2, q2):
        if e.is_inf:
            raise ValueError("reduction needs finite exponents")
    p1f = float(p1)
    prob = ThreeWeightProblem(
        r=_ediv(q1, p1),
        u=_W(powerof(as_fun(u1), p1f)),
        p=_ediv(p2, p1),
        q=_ediv(q2, p1),
        w=_W(powerof(as_fun(u2), p1f)),
        v=_W(product(powerof(as_fun(v1), -p1f), powerof(as_fun(v2), p1f))),
        f=powerof(f, p1f),
        validate=validate,
    )
    return prob, float(p1.reciprocal()) if not p1.is_inf else 0.0
