"""Dilation covariance of the closed forms.

Write D_l g(t) = g(l t).  Replacing u, w, v and f by their dilates
multiplies the multiplier norm by l^kappa, kappa = 1 + 1/r - 1/p - 1/q:
substitute g = D_l h in the supremum over g.  Every closed form must
therefore scale the same way, with no oracle and no equivalence constant
involved.  The 14 regime configs of the benchmark (read only) are
dilated and characterized, and so is each config's weights and f under a
fixed list of other exponent triples of its regime.
"""

import functools
import json
import math
import os
from fractions import Fraction as F

import pytest

from cescop.cli import parse_exponent, parse_fun
from cescop.multiplier import ThreeWeightProblem, characterize, hypothesis_check

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "configs")
TAGS = ("T1", "T2i", "T2ii", "T3i", "T3ii", "T4i", "T4ii", "T5i", "T5ii",
        "T5iii", "T5iv", "T6", "T7i", "T7ii")
LAMBDAS = (1e-3, 0.1, 10.0, 1e3)
# about 7x the largest deviation the grid leaves on these instances (1.4e-6)
TOL = 1e-5

# T2i's omega1 = A*_{p,p}(w) scales as l^(-1/p) where covariance needs
# l^(-1/q): the ROADMAP Known defect "T2i's closed form scales wrongly
# under dilation".  Its fix moves the recorded T2i reference value.
T2I_DEFECT = pytest.mark.xfail(strict=True,
                               reason="T2i closed form is not dilation covariant")


# (r, p, q) triples drawn from {1/3, 1/2, 2/3, 3/4, 1, 3/2, 2, 3}, at most
# three per regime and none the config's own, each classifying into the
# regime of the config whose weights and f it takes.  T6 at r = 1/3 is
# left out: it reads inf at every lambda, where the ratio says nothing.
TRIPLES = {
    "T1": ((1, F(1, 3), F(1, 3)), (1, F(3, 4), F(3, 4)), (1, 1, 1)),
    "T2i": ((1, F(1, 3), 1), (1, F(3, 4), F(3, 2)), (1, 1, 3)),
    "T2ii": ((1, F(1, 3), F(3, 4)), (1, F(2, 3), F(1, 3)), (1, 1, F(1, 2))),
    "T3i": ((F(1, 3), F(1, 3), F(1, 3)), (F(1, 2), F(2, 3), F(2, 3)), (F(3, 4), 1, 1)),
    "T3ii": ((F(1, 2), F(1, 3), F(1, 3)), (F(3, 2), 1, 1), (2, F(3, 4), F(3, 4))),
    "T4i": ((F(1, 3), F(1, 3), 2), (F(1, 2), F(2, 3), 1), (F(3, 4), F(3, 4), 2)),
    "T4ii": ((F(1, 3), F(1, 3), F(1, 2)), (F(1, 2), F(2, 3), F(3, 4)),
             (F(2, 3), F(2, 3), F(3, 4))),
    "T5i": ((F(1, 2), F(1, 3), 1), (F(3, 2), F(2, 3), F(3, 2)), (3, F(3, 4), 3)),
    "T5ii": ((F(3, 2), F(1, 3), 1), (2, F(2, 3), 1), (3, F(3, 4), 2)),
    "T5iii": ((F(1, 2), F(1, 3), F(1, 2)), (F(2, 3), F(1, 2), F(3, 4)),
              (F(3, 4), F(2, 3), F(3, 4))),
    "T5iv": ((F(2, 3), F(1, 3), F(1, 2)), (F(3, 2), F(1, 2), F(2, 3)),
             (3, F(2, 3), F(3, 4))),
    "T6": ((F(1, 2), 1, 3), (F(2, 3), 1, F(3, 2)), (F(3, 4), 1, 2)),
    "T7i": ((F(3, 2), 1, F(3, 2)), (2, 1, 3), (3, 1, 3)),
    "T7ii": ((3, 1, F(3, 2)), (3, 1, 2)),
}
TRIPLE_LAMBDA = math.sqrt(10.0)


def dilate(rec: dict, lam: float) -> dict:
    """The function record of t -> g(lam t), for the record of g."""
    fam = rec["family"]
    if fam in ("power", "exp"):
        out = dict(rec, c=rec["c"] * lam ** rec["alpha"])
        if fam == "exp":
            out["gamma"] = rec["gamma"] * lam
        return out
    if fam == "indicator":
        hi = rec["hi"] if rec["hi"] == "inf" else rec["hi"] / lam
        return dict(rec, lo=rec["lo"] / lam, hi=hi)
    if fam == "constant":
        return rec
    if fam in ("product", "sum"):
        return dict(rec, parts=[dilate(p, lam) for p in rec["parts"]])
    raise ValueError(f"no dilation rule for family {fam!r}")


def _problem(tag: str, lam: float) -> ThreeWeightProblem:
    with open(os.path.join(CONFIGS, f"{tag}.json")) as fh:
        rec = json.load(fh)
    return ThreeWeightProblem(**{k: parse_exponent(rec[k], k) for k in "rpq"},
                              **{k: parse_fun(dilate(rec[k], lam), k) for k in "uwvf"})


@functools.lru_cache(maxsize=None)
def _value(tag: str, lam: float) -> float:
    return characterize(_problem(tag, lam)).value


def test_dilate_rules():
    lam = 4.0
    rec = {"family": "product", "parts": [
        {"family": "power", "c": 2.0, "alpha": 0.5},
        {"family": "sum", "parts": [
            {"family": "exp", "c": 1.0, "alpha": -1.0, "gamma": -2.0},
            {"family": "constant", "c": 3.0}]},
        {"family": "indicator", "lo": 1.0, "hi": 8.0}]}
    g, dg = parse_fun(rec), parse_fun(dilate(rec, lam))
    t = [0.1, 0.3, 1.0, 1.9]
    assert dg.logv(t) == pytest.approx(g.logv([lam * x for x in t]), rel=1e-14)
    assert dilate({"family": "indicator", "lo": 2.0, "hi": "inf"}, lam)["hi"] == "inf"


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("tag", [pytest.param(t, marks=T2I_DEFECT) if t == "T2i" else t
                                 for t in TAGS])
def test_value_scales_as_lambda_to_kappa(tag, lam):
    prob = _problem(tag, 1.0)
    kappa = float(1 + prob.r.reciprocal() - prob.p.reciprocal() - prob.q.reciprocal())
    ratio = _value(tag, lam) / (lam ** kappa * _value(tag, 1.0))
    assert abs(ratio - 1.0) <= TOL


@pytest.mark.parametrize("tag, triple", [
    pytest.param(tag, triple, marks=[T2I_DEFECT] if tag == "T2i" else [],
                 id=f"{tag}-" + ",".join(str(e) for e in triple))
    for tag in TAGS for triple in TRIPLES[tag]])
def test_other_triples_of_each_regime_scale_as_lambda_to_kappa(tag, triple):
    r, p, q = triple
    with open(os.path.join(CONFIGS, f"{tag}.json")) as fh:
        rec = json.load(fh)

    def value(lam):
        prob = ThreeWeightProblem(r=r, p=p, q=q, validate=False,
                                  **{k: parse_fun(dilate(rec[k], lam), k) for k in "uwvf"})
        res = characterize(prob)
        assert res.regime == tag
        return res.value

    lam = TRIPLE_LAMBDA
    kappa = float(1 + 1 / F(r) - 1 / F(p) - 1 / F(q))
    ratio = value(lam) / (lam ** kappa * value(1.0))
    assert abs(ratio - 1.0) <= TOL


@pytest.mark.parametrize("lam", (10.0, 1e3))
@pytest.mark.parametrize("tag", ("T7i", "T7ii"))
def test_t7_hypothesis_check_does_not_overflow_when_dilated(tag, lam):
    # ||1/w||_{q',(0,100)} is about e^1999 at lam = 10: beyond the float
    # range, yet in (0, inf), which is all the check asks
    assert hypothesis_check(_problem(tag, lam)) == hypothesis_check(_problem(tag, 1.0))
