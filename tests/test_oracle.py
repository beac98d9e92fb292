"""Brute-force multiplier lower bounds."""

import functools
import hashlib
import inspect
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from cescop import grids, oracle, spaces
from cescop.cli import _problem_from_config, run
from cescop.errors import EmptyFamily, SpecInvalid
from cescop.exponents import Exponent
from cescop.grids import from_log
from cescop.oracle import (
    Candidate,
    CandidateFamily,
    OracleResult,
    _perturb,
    brute_force_multiplier,
    default_family,
    enrich,
)
from cescop.realfun import (DEFAULT_CFG, ONE, ZERO, RealFun, expfam, from_log_callable, power,
                             product)
from cescop.spaces import SpaceSpec, _Plan

# the screen's grids kernels and their source lines, read once on import
# so that an edit to grids.py during a run cannot shift the lines traced
_KERNEL_SOURCE = {k.__code__: inspect.getsourcelines(k)
                  for k in (grids._scaled_cumint, grids._scaled_integral)}

TAGS = ("T1", "T2i", "T2ii", "T3i", "T3ii", "T4i", "T4ii", "T5i", "T5ii",
        "T5iii", "T5iv", "T6", "T7i", "T7ii")

EDEC = expfam(1.0, 0.0, -1.0)

Y = SpaceSpec("ces", (1, 2), (EDEC, ONE), validate=False)
XCOP = SpaceSpec("cop", (1, F(1, 2)), (ONE, ONE), validate=False)


def test_identity_multiplier():
    fam = default_family(seed=1, size=30)
    res = brute_force_multiplier(ONE, Y, Y, fam)
    assert res.lower_bound == pytest.approx(1.0, rel=1e-9)


def test_zero_multiplier():
    fam = default_family(seed=1, size=20)
    res = brute_force_multiplier(ZERO, Y, Y, fam)
    assert res.lower_bound == 0.0


def test_determinism():
    fam1 = default_family(seed=9, size=40)
    fam2 = default_family(seed=9, size=40)
    assert fam1.candidates == fam2.candidates
    r1 = brute_force_multiplier(EDEC, Y, Y, fam1)
    r2 = brute_force_multiplier(EDEC, Y, Y, fam2)
    assert r1.lower_bound == r2.lower_bound and r1.argmax == r2.argmax


def test_enrich_monotone_superset():
    X = SpaceSpec("cop", (1, F(1, 2)), (ONE, ONE), validate=False)
    f = expfam(1, 2, 1)
    fam = default_family(seed=3, size=30)
    base = brute_force_multiplier(f, X, Y, fam).lower_bound
    fam2 = enrich(fam, f, X, Y, rounds=2)
    assert set(fam.candidates) <= set(fam2.candidates)
    assert brute_force_multiplier(f, X, Y, fam2).lower_bound >= base
    # zero rounds is the identity
    assert enrich(fam, f, X, Y, rounds=0) is fam


def test_empty_family_raises():
    # outer weight 1/t makes every candidate's source norm infinite
    X = SpaceSpec("ces", (1, 1), (power(1, -1), ONE), validate=False)
    fam = default_family(seed=2, size=10)
    with pytest.raises(EmptyFamily):
        brute_force_multiplier(ONE, X, Y, fam)
    # both spaces are prepared, and gated, before any candidate is scored
    with pytest.raises(SpecInvalid):
        brute_force_multiplier(ONE, X, SpaceSpec("ces", (1, 1), X.weights), fam)


def test_candidate_rebuild():
    c = Candidate("bump", (0.5, 2.0, 1.0))
    g = c.build()
    import numpy as np
    t = np.array([1.0, 3.0])
    vals = np.exp(g.logv(t))
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == 0.0
    assert "bump" in c.describe()


def test_a_step_with_no_positive_level_builds_zero_and_is_skipped():
    step = Candidate("step", ((1.0, 2.0), (0.0,)))
    assert step.build() is ZERO
    res = brute_force_multiplier(ONE, Y, Y, CandidateFamily((step, Candidate("head", (1.0,))), 0))
    assert (res.evaluated, res.skipped, res.argmax) == (1, 1, Candidate("head", (1.0,)))


def test_skips_degenerate_candidates():
    fam = default_family(seed=4, size=40)
    res = brute_force_multiplier(ONE, Y, Y, fam)
    assert res.evaluated + res.skipped == len(fam.candidates)
    assert res.evaluated > 0


def test_perturbed_step_edges_stay_ordered():
    # enrich perturbs an already perturbed argmax, so jitters compound
    for seed in range(200):
        rng = np.random.default_rng(seed)
        cand = Candidate("step", (tuple(2.0 ** (-2.0 + 2.0 * np.arange(5))),
                                  (1.0, 2.0, 3.0, 4.0)))
        for _ in range(5):
            cand = _perturb(cand, rng)
        edges = cand.params[0]
        assert all(a < b for a, b in zip(edges[:-1], edges[1:]))
        cand.build()


def _enriched_result(f, seed, size, rounds):
    fam = enrich(default_family(seed=seed, size=size), f, XCOP, Y, rounds=rounds)
    return brute_force_multiplier(f, XCOP, Y, fam)


def _fresh(fam):
    """A family equal to fam that has scored nothing."""
    return CandidateFamily(candidates=fam.candidates, seed=fam.seed)


def test_shared_scores_give_the_unshared_result():
    for f in (expfam(1, 2, 1), EDEC, ONE):
        fam = enrich(default_family(seed=3, size=30), f, XCOP, Y, rounds=3)
        shared = brute_force_multiplier(f, XCOP, Y, fam)
        assert _fresh(fam) == fam and not _fresh(fam)._scores
        assert shared == brute_force_multiplier(f, XCOP, Y, _fresh(fam))
        assert shared == _enriched_result(f, seed=3, size=30, rounds=3)


def test_shared_scores_score_each_candidate_once(monkeypatch):
    # every candidate's first scoring, screened or exact, goes through
    # _score; a contender is then scored exactly through _ratio
    calls, score = [], oracle._score
    exact, ratio = [], oracle._ratio

    def counted(f, X, Y, g, cfg):
        calls.append(g.describe())
        return score(f, X, Y, g, cfg)

    def counted_exact(f, X, Y, g, cfg):
        exact.append(g.describe())
        return ratio(f, X, Y, g, cfg)

    monkeypatch.setattr(oracle, "_score", counted)
    monkeypatch.setattr(oracle, "_ratio", counted_exact)
    f = expfam(1, 2, 1)
    fam = enrich(default_family(seed=3, size=30), f, XCOP, Y, rounds=3)
    res = brute_force_multiplier(f, XCOP, Y, fam)
    distinct = len(set(fam.candidates))
    assert res.evaluated + res.skipped == len(fam.candidates)
    assert list(fam._scores) == [(f, XCOP, Y, DEFAULT_CFG)]
    assert set(fam._scores[f, XCOP, Y, DEFAULT_CFG]) == set(fam.candidates)
    assert len(calls) <= distinct
    assert len(exact) == len(set(exact))  # no candidate is scored exactly twice
    # scoring the family again scores nothing; a fresh, equal family
    # scores every candidate again
    calls.clear()
    assert brute_force_multiplier(f, XCOP, Y, fam) == res
    assert calls == []
    assert brute_force_multiplier(f, XCOP, Y, _fresh(fam)) == res
    assert len(calls) == distinct


def test_one_family_keeps_each_contexts_scores_apart(monkeypatch):
    # two multipliers against XCOP and Y, scored on one family in both
    # orders and between enrich rounds: each context reads exactly what a
    # fresh, equal family gives, and scores each candidate once
    contexts = {"edec": EDEC, "grow": expfam(1, 2, 1)}
    names = {f: name for name, f in contexts.items()}
    calls = _counted_calls(monkeypatch, oracle, "_score",
                           lambda f, X, Y, g, cfg: (names[f], g.describe()))

    def check(f, fam):
        res = brute_force_multiplier(f, XCOP, Y, fam)
        n = len(calls)
        assert res == brute_force_multiplier(f, XCOP, Y, _fresh(fam))
        del calls[n:]  # the fresh family's own scoring

    for order in (("edec", "grow"), ("grow", "edec")):
        calls.clear()
        fam = default_family(seed=3, size=30)
        for name in order:
            check(contexts[name], fam)
        assert sorted(calls) == sorted((name, c.build().describe())
                                       for name in order for c in set(fam.candidates))
    calls.clear()
    fam = default_family(seed=3, size=30)
    seen = {name: set() for name in contexts}
    for name, other in (("edec", "grow"), ("grow", "edec"), ("edec", "grow")):
        check(contexts[other], fam)
        seen[other] |= set(fam.candidates)
        fam = enrich(fam, contexts[name], XCOP, Y, rounds=2)
        check(contexts[name], fam)
        seen[name] |= set(fam.candidates)
    assert len(fam.candidates) == 30 + 6 * oracle._PER_ROUND
    assert sorted(calls) == sorted((name, c.build().describe())
                                   for name, cands in seen.items() for c in cands)
    assert {key[0] for key in fam._scores} == set(contexts.values())


def test_oracle_runs_in_one_process_share_no_scores(tmp_path, capsys):
    # XCOP and Y as oracle config entries
    one = {"family": "constant", "c": 1.0}
    edec = {"family": "exp", "c": 1.0, "alpha": 0.0, "gamma": -1.0}
    spaces = {"X": {"kind": "cop", "exponents": [1, "1/2"], "weights": [one, one]},
              "Y": {"kind": "ces", "exponents": [1, 2], "weights": [edec, one]}}
    funs = {"grow": ({"family": "exp", "c": 1.0, "alpha": 2.0, "gamma": 1.0},
                     expfam(1, 2, 1)),
            "decay": (edec, EDEC)}
    expected = {}
    for name, (rec, f) in funs.items():
        res = _enriched_result(f, seed=4, size=20, rounds=2)
        expected[name] = (res.lower_bound, res.argmax.describe(),
                          res.evaluated, res.skipped)
    assert expected["grow"] != expected["decay"]
    for name in ("grow", "decay", "grow"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"f": funs[name][0], **spaces,
                                   "seed": 4, "size": 20, "rounds": 2}))
        assert run(["oracle", "--config", str(cfg)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["lower_bound"], rep["argmax"],
                rep["evaluated"], rep["skipped"]) == expected[name]


PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def _crossval_spaces(tag):
    """f, X and Y of the criterion-6 oracle run on one perfbench config."""
    rec = json.loads((PERFBENCH_CONFIGS / f"{tag}.json").read_text())
    prob, cfg, _ = _problem_from_config(rec)
    X = SpaceSpec("cop", (Exponent(1), prob.r), (prob.u, ONE), validate=False)
    Y = SpaceSpec("ces", (prob.p, prob.q), (prob.w, prob.v), validate=False)
    return prob.f, X, Y, cfg


def _check_screen(plan, g):
    """(screened, distance) for g's screened log-norm and the exact one,
    or None where the screen falls back.  A log-norm the oracle ranks on,
    inside ±_LOG_RANGE, lies within _TAU / 4 of the exact one, and any
    other within 1e-12 relative; an infinite one, and a numerator more
    than _TAU below _LOG_ZERO, read as the exact path does."""
    screened = plan.screen(g)
    if screened is None:
        return None
    exact = plan.log_norm(g)
    if math.isinf(screened):
        assert exact == screened
        return screened, 0.0
    dev = abs(screened - exact)
    bound = oracle._TAU / 4 if abs(screened) < oracle._LOG_RANGE else 1e-12 * abs(exact)
    assert dev <= bound, (plan.inner, plan.q, g.describe(), screened, exact)
    if screened + oracle._TAU < oracle._LOG_ZERO:
        assert from_log(exact) == 0.0
    return screened, dev


# the nodes of the crossval window (DEFAULT_CFG)
_NODES = grids.log_nodes(DEFAULT_CFG).t

# candidates beyond the crossval family: supports outside the window
# [e^-30, e^30], near-empty bands, steep and slow decays, growing tilts
# and extreme step levels
ADVERSARIAL = (
    Candidate("head", (1e-20,)), Candidate("head", (1e20,)), Candidate("tail", (1e20,)),
    Candidate("tail", (1e-20,)), Candidate("band", (1e14, 1e16)),
    Candidate("band", (1e-25, 1e-15)), Candidate("band", (1.0, 1.0000001)),
    Candidate("band", (1e-13, 2e-13)), Candidate("band", (5e12, 1e13)),
    Candidate("decay", (0.0, -1e-3)), Candidate("decay", (-5.0, -50.0)),
    Candidate("decay", (10.0, -1.0)), Candidate("decay", (2.0, 0.5)),
    Candidate("decay", (-0.999, -1e-4)), Candidate("bump", (1e-12, 1e12, -1.9)),
    Candidate("step", ((1e-12, 1.0, 1e12), (1e-200, 1e200))),
    # support ends on window nodes, inside a panel, and both inside one
    # panel (no node); across each window edge; a step with a gap
    Candidate("band", (float(_NODES[2000]), float(_NODES[4000]))),
    Candidate("head", (float(_NODES[3000]),)), Candidate("tail", (float(_NODES[3000]),)),
    Candidate("bump", (float(_NODES[1000]), float(_NODES[1001]), 1.5)),
    Candidate("band", (float(_NODES[2000]) * 1.001, float(_NODES[4000]) * 1.001)),
    Candidate("band", (float(_NODES[3000]) * 1.001, float(_NODES[3000]) * 1.002)),
    Candidate("band", (1e-14, 1e-12)), Candidate("band", (5e12, 1e14)),
    Candidate("step", ((1e-3, 1e-1, 1e1, 1e3), (1.0, 0.0, 2.0))),
)


def _enriched_crossval(tag, rounds=3):
    """f, X, Y and cfg of one criterion-6 run, and its family enriched by
    rounds of enrich, scored as an oracle run scores it."""
    f, X, Y, cfg = _crossval_spaces(tag)
    return f, X, Y, cfg, enrich(default_family(seed=101, size=60), f, X, Y,
                                rounds=rounds, cfg=cfg)


def test_screened_norms_lie_within_a_quarter_tau_of_the_log_path():
    """The screen agrees with the log path within oracle._TAU / 4 on the
    criterion-6 runs, so the oracle's result there is exact scoring's.

    For the 14 perfbench configs, the criterion-6 X and Y (each keeping
    its plan, so planned once per config, as in one oracle run), and
    the family default_family(101, 60) with 3 rounds of enrich
    perturbations, plus the ADVERSARIAL candidates (decays against
    u = e^-t in T3ii and T7, T6's growing f = t^2 e^t, supports outside
    the window), wherever a spaces._Plan screen returns a log-norm, the
    exact log-norm (the plan's log_norm, the log of space_norm) lies
    within _TAU / 4 of it where the oracle reads it as a number (inside
    ±_LOG_RANGE), and the infinite and 0.0 readings are the exact
    path's.  Both paths compute the same trapezoid rule with the same edge
    estimates and differ only in rounding: of the 2,686 finite screened
    norms, the 2,621 inside ±_LOG_RANGE lie within 1.2e-12, about 1/200
    of the margin, and all of them within 2.8e-15 relative.
    """
    worst = 0.0
    screened = 0
    for tag in TAGS:
        f, X, Y, cfg, fam = _enriched_crossval(tag)
        plans = spaces._plan(X, cfg), spaces._plan(Y, cfg)
        for cand in fam.candidates + ADVERSARIAL:
            g = cand.build()
            for plan, fun in zip(plans, (g, product(f, g))):
                checked = _check_screen(plan, fun)
                if checked is not None:
                    screened += 1
                    if abs(checked[0]) < oracle._LOG_RANGE:
                        worst = max(worst, checked[1])
    # the screen covers nearly every norm
    assert screened > 0.9 * 2 * 14 * (90 + len(ADVERSARIAL))
    assert worst < 1e-11


def test_each_row_is_read_on_the_span_of_its_support():
    # the premise of reading product(f, v) on its span only: on the
    # crossval spaces, for every candidate kind, its log-values on the
    # span are the full row's there bit for bit, and the full row is -inf
    # off the span
    kinds = set()
    for tag in TAGS:
        f, X, Y, cfg = _crossval_spaces(tag)
        for plan, fun in ((_Plan(X, cfg), ONE), (_Plan(Y, cfg), f)):
            t = plan.grid.t
            for cand in default_family(seed=101, size=60).candidates + ADVERSARIAL:
                fv = product(fun, cand.build(), plan.v)
                a, b = plan._span(fv)
                full = fv.logv(t)
                assert fv.logv(t[a:b]).tobytes() == full[a:b].tobytes(), (tag, cand)
                assert np.all(np.isneginf(full[:a])) and np.all(np.isneginf(full[b:]))
                kinds.add(cand.kind)
    assert kinds == set(oracle._KINDS)
    # an indicator reads its base at t = lo, as its logv is half-open
    # [lo, hi) while Interval says open: the span is the closed hull
    plan = _Plan(XCOP)
    band = Candidate("band", (float(_NODES[100]), float(_NODES[200]))).build()
    assert plan._span(band) == (100, 201)
    assert np.isfinite(band.logv(_NODES)[100]) and np.isneginf(band.logv(_NODES)[200])


def test_one_oracle_run_builds_the_tables_of_each_space_once(monkeypatch, tmp_path):
    # X and Y keep their plans through one oracle run: the enrich rounds
    # and the final scoring share them
    built, tables = [], spaces._Plan.__dict__["_outer"]

    def counted(plan):
        built.append("ces" if plan.head else "cop")
        return tables.func(plan)

    prop = functools.cached_property(counted)
    prop.__set_name__(spaces._Plan, "_outer")
    monkeypatch.setattr(spaces._Plan, "_outer", prop)
    rec = json.loads((PERFBENCH_CONFIGS / "T3ii.json").read_text())
    path = tmp_path / "T3ii.json"
    path.write_text(json.dumps({**rec, "oracle": {"seed": 101, "size": 30, "rounds": 3}}))
    assert run(["mult", "--config", str(path)]) == 0
    assert sorted(built) == ["ces", "cop"]


def test_scores_read_as_the_exact_ratios():
    # _score reads None where _ratio does, _ratio's point (r, r) where it
    # reads 0.0 or falls back, and otherwise a log ratio within _TAU / 2
    # of log r
    for tag in ("T3ii", "T6", "T7i"):
        f, X, Y, cfg = _crossval_spaces(tag)
        for cand in default_family(seed=101, size=60).candidates + ADVERSARIAL:
            g = cand.build()
            got, exact = oracle._score(f, X, Y, g, cfg), oracle._ratio(f, X, Y, g, cfg)
            if got is None or isinstance(got, tuple):
                assert got == exact
            else:
                assert abs(got - math.log(exact[0])) <= oracle._TAU / 2


def test_edge_slopes_near_the_divergence_threshold_are_not_screened():
    # the outer integrand of ces_{1,1}(t^-1 t^-d, 1) at head(1) has s-slope
    # -d at the right edge: d = 2e-9 lies within 1e-6 of _SLOPE_TOL, and
    # at d = 1e-5 the estimate's 1/rate sensitivity is 1e5
    g = Candidate("head", (1.0,)).build()
    near = SpaceSpec("ces", (1, 1), (power(1.0, -1.0 - 2e-9), ONE), validate=False)
    assert _Plan(near).screen(g) is None
    steep = SpaceSpec("ces", (1, 1), (power(1.0, -1.0 - 1e-5), ONE), validate=False)
    assert _check_screen(_Plan(steep), g) is not None


def _refusals(call):
    """call()'s value, and for each ``return None`` of the screen's grids
    kernels that ran, the kernel and the if or elif line above it, read
    from the source as it was when the kernels were compiled."""
    returned = []

    def lines(frame, event, arg):
        if event == "return" and arg is None:
            returned.append((frame.f_code, frame.f_lineno))
        return lines

    sys.settrace(lambda frame, event, arg: lines if frame.f_code in _KERNEL_SOURCE else None)
    try:
        value = call()
    finally:
        sys.settrace(None)
    found = []
    for code, line in returned:
        src, first = _KERNEL_SOURCE[code]
        cond = next(s for s in reversed(src[:line - first])
                    if s.lstrip().startswith(("if ", "elif ")))
        found.append((code.co_name, cond.strip()))
    return value, found


def _shifted_space(c, peak):
    """ces_{1,1}(u, v) with v = e^-c and u = e^c t^-2 e^(-5 |log t - peak|).

    The outer integrand of a function that is 1 on the window is
    e^(-5 |s - peak|) in s = log t, so its norm is about 2/5 and the
    ratios stay in range, while the rounding of the screen's scaled rule,
    which cancels c against c, grows with c."""
    v = from_log_callable(lambda t: np.full(np.shape(t), -c), "e^-c")
    u = from_log_callable(lambda t: c - 2.0 * np.log(t) - 5.0 * np.abs(np.log(t) - peak), "u")
    return SpaceSpec("ces", (1, 1), (u, v), validate=False)


# +inf on (1/2, 2): a row with +inf inside the window, whose edges converge
POLE = from_log_callable(lambda t: np.where((t > 0.5) & (t < 2.0), math.inf, 0.0), "pole")


@pytest.mark.parametrize("f, Yc, refusal", [
    # the screen hands _scaled_cumint a row holding +inf
    (POLE, Y, ("_scaled_cumint", "if not m < math.inf:")),
], ids=["inf-row"])
def test_a_refused_screen_scores_the_exact_point(f, Yc, refusal):
    # the screen of ||f g||_Yc refuses on the refusal's line, once, and
    # _score takes _ratio's point
    g = Candidate("head", (1e20,)).build()  # 1 on the window
    got, found = _refusals(lambda: oracle._score(f, Y, Yc, g, DEFAULT_CFG))
    assert found == [refusal]
    exact = oracle._ratio(f, Y, Yc, g, DEFAULT_CFG)
    assert got == exact and exact[0] == exact[1] > 0.0
    assert math.isinf(exact[0]) == (f is POLE)


def _reference_result(f, X, Y, fam, cfg=DEFAULT_CFG):
    """brute_force_multiplier scoring every candidate exactly, in order."""
    best, best_cand, evaluated, skipped = -1.0, None, 0, 0
    for cand in fam.candidates:
        point = oracle._ratio(f, X, Y, cand.build(), cfg)
        if point is None:
            skipped += 1
            continue
        evaluated += 1
        if point[0] > best:
            best, best_cand = point[0], cand
    return OracleResult(lower_bound=best, argmax=best_cand,
                        evaluated=evaluated, skipped=skipped)


def test_ties_and_duplicates_resolve_as_exact_scoring_does():
    # heads beyond e^S are 1 on the whole window: identical rows, so
    # their ratios tie exactly, here at the max; duplicates share a score
    beyond = [Candidate("head", (t,)) for t in (1e20, 1e30, 1e20, 1e25)]
    cands = (Candidate("tail", (10.0,)), Candidate("band", (100.0, 1000.0)), beyond[0],
             Candidate("tail", (1e3,)), beyond[1], Candidate("bump", (1.0, 5.0, 1.0)),
             beyond[2], Candidate("tail", (1e20,)), beyond[3], Candidate("tail", (10.0,)),
             Candidate("decay", (1.0, -0.5)))
    fam = CandidateFamily(candidates=cands, seed=0)
    for f in (EDEC, ZERO):
        ref = _reference_result(f, Y, Y, fam)
        assert brute_force_multiplier(f, Y, Y, fam) == ref
        prefix = CandidateFamily(cands[:5], seed=0)
        brute_force_multiplier(f, Y, Y, prefix)
        full = replace(prefix, candidates=cands)
        assert full._scores is prefix._scores
        assert brute_force_multiplier(f, Y, Y, full) == ref
    ref = _reference_result(EDEC, Y, Y, fam)
    assert ref.argmax == beyond[0] and ref.skipped == 2
    assert oracle._ratio(EDEC, Y, Y, beyond[3].build(), DEFAULT_CFG) == (ref.lower_bound,) * 2


def test_the_oracle_gives_exact_scorings_result_on_the_criterion_6_runs():
    # the enriched criterion-6 families, scored as an oracle run scores
    # them, and with the ADVERSARIAL candidates appended
    for tag in TAGS:
        f, X, Y, cfg, fam = _enriched_crossval(tag)
        for cands in (fam.candidates, fam.candidates + ADVERSARIAL):
            full = replace(fam, candidates=cands)
            assert brute_force_multiplier(f, X, Y, full, cfg) == _reference_result(
                f, X, Y, full, cfg), tag


def test_exactly_the_near_ties_are_scored_again(monkeypatch):
    # besides the fallbacks inside _score, _ratio scores exactly the
    # candidates whose scaled log ratio lies within _TAU of the best log
    # ratio, each once, in family order
    scored, exact, inside = {}, [], []
    score, ratio = oracle._score, oracle._ratio

    def counted_score(f, X, Y, g, cfg):
        inside.append(True)
        try:
            scored[g.describe()] = score(f, X, Y, g, cfg)
        finally:
            inside.pop()
        return scored[g.describe()]

    def counted_ratio(f, X, Y, g, cfg):
        if not inside:
            exact.append(g.describe())
        return ratio(f, X, Y, g, cfg)

    monkeypatch.setattr(oracle, "_score", counted_score)
    monkeypatch.setattr(oracle, "_ratio", counted_ratio)
    beyond = tuple(Candidate("head", (t,)) for t in (1e20, 1e30, 1e20))  # exact ties
    rescored = 0
    for tag in TAGS:
        f, X, Y, cfg = _crossval_spaces(tag)
        fam = default_family(seed=101, size=60)
        fam = replace(fam, candidates=fam.candidates + ADVERSARIAL + beyond)
        scored.clear(), exact.clear()
        brute_force_multiplier(f, X, Y, fam, cfg)
        top = max(map(oracle._log_ratio, scored.values()))
        near = [c.build().describe() for c in dict.fromkeys(fam.candidates)]
        near = [d for d in near
                if isinstance(scored[d], float) and scored[d] >= top - oracle._TAU]
        assert exact == near, tag
        rescored += len(exact)
    assert rescored > len(TAGS) // 2


def test_where_the_scaled_rule_drifts_the_result_is_an_exact_ratio():
    # the screen of _shifted_space cancels 1e14 against 1e14 and drifts
    # far past _TAU from the log path; the oracle still reports the exact
    # ratio of the best candidate it finds, a lower bound of exact
    # scoring's with the same candidates skipped
    Yc = _shifted_space(1e14, 0.0)
    fam = default_family(seed=101, size=60)
    plan = _Plan(Yc)
    drift = [abs(plan.screen(g) - plan.log_norm(g))
             for g in (c.build() for c in fam.candidates) if plan.screen(g) is not None]
    assert max(drift) > 1e3 * oracle._TAU
    res = brute_force_multiplier(ONE, Y, Yc, fam)
    ref = _reference_result(ONE, Y, Yc, fam)
    assert oracle._ratio(ONE, Y, Yc, res.argmax.build(), DEFAULT_CFG) == (res.lower_bound,) * 2
    assert res.lower_bound <= ref.lower_bound
    assert (res.evaluated, res.skipped) == (ref.evaluated, ref.skipped)


@pytest.mark.parametrize("cand", [
    Candidate("bump", (1.0, 2.0, "x")), Candidate("head", ("a",)),
    Candidate("decay", ("a", -1.0)), Candidate("tail", (True,)),
    Candidate("step", ((1.0, 2.0), "ab")), Candidate("step", ((1.0, 2.0), (1.0, None))),
    Candidate("step", ((1.0, 2.0, 4.0), (1.0,))),  # one edge more than levels
])
def test_candidate_params_must_be_real_numbers(cand):
    with pytest.raises(SpecInvalid):
        cand.build()


def test_candidate_stream_is_pinned():
    # every draw of default_family and _perturb, in every kind, feeds the
    # oracle bounds; a reordered draw in a kind that never wins a run
    # would leave those bounds as they are, but not this digest
    lines = []
    for seed in (0, 1, 101):
        fam = default_family(seed, 60)
        rng = np.random.default_rng(seed)
        lines += [c.describe() for c in fam.candidates]
        lines += [_perturb(c, rng).describe() for c in fam.candidates]
    assert {line.split("(")[0] for line in lines} == set(oracle._KINDS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "d2888ec1adc4cfaebc092ec70d240e81cfa2b6255518935936cf13ad01613aec")


def _counted_calls(monkeypatch, module, name, key):
    """The keys of every call to module.name, which keeps working."""
    seen, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        seen.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_enrich_scores_each_candidate_once_across_its_rounds(monkeypatch):
    # the family's scores serve every round: 3 rounds over
    # 60 candidates screen the 80 candidates they see, not 60 + 70 + 80
    calls = _counted_calls(monkeypatch, oracle, "_score",
                           lambda f, X, Y, g, cfg: g.describe())
    fam = enrich(default_family(seed=3, size=60), expfam(1, 2, 1), XCOP, Y, rounds=3)
    assert len(fam.candidates) == 90
    assert len(calls) == len(set(calls)) <= len(set(fam.candidates[:80]))


def test_one_call_gates_each_space_once(monkeypatch):
    # XCOP's outer weight passes the dual-Omega gate and Y's the Omega gate
    X = SpaceSpec("cop", XCOP.exponents, XCOP.weights)
    Yv = SpaceSpec("ces", Y.exponents, Y.weights)
    fam = default_family(seed=3, size=40)
    f = expfam(1, 2, 1)
    expected = brute_force_multiplier(f, XCOP, Y, fam)
    gates = _counted_calls(monkeypatch, spaces, "check_omega",
                           lambda u, q, dual=False, cfg=None: "X" if dual else "Y")
    assert brute_force_multiplier(f, X, Yv, fam) == expected
    assert sorted(gates) == ["X", "Y"]


WINDOW_NODES = grids.log_nodes(DEFAULT_CFG)[0].size


class _CountedWeight(RealFun):
    """A weight that counts its evaluations on the window."""

    def __init__(self, base):
        self.base, self.calls = base, 0
        self.support, self.family = base.support, base.family

    def logv(self, t):
        self.calls += np.size(t) == WINDOW_NODES
        return self.base.logv(t)

    def describe(self):
        return self.base.describe()


def test_one_call_reads_each_outer_weight_once_per_space(monkeypatch):
    # each space reads its outer weight once, when its plan is built: its
    # exact norms use the same plan as its screens
    ux, uy = _CountedWeight(ONE), _CountedWeight(EDEC)
    X = SpaceSpec("cop", XCOP.exponents, (ux, ONE), validate=False)
    Yc = SpaceSpec("ces", Y.exponents, (uy, ONE), validate=False)
    exact = _counted_calls(monkeypatch, oracle, "space_norm",
                           lambda spec, g, cfg: spec.weights[0])
    fam = default_family(seed=3, size=60)
    res = brute_force_multiplier(expfam(1, 2, 1), X, Yc, fam)
    assert res.evaluated > 40
    assert ux.calls == uy.calls == 1
    assert 0 < exact.count(uy) <= exact.count(ux)
    assert exact.count(uy) < 10


@pytest.mark.parametrize("call", [
    lambda: default_family(seed=-1),
    lambda: default_family(seed=1.5),
    lambda: default_family(seed=True),
    lambda: default_family(size=-1),
    lambda: default_family(size=2.5),
    lambda: enrich(default_family(seed=3, size=14), EDEC, Y, Y, rounds=2.5),
    lambda: enrich(default_family(seed=3, size=14), EDEC, Y, Y, rounds=-1),
], ids=["seed-negative", "seed-float", "seed-bool", "size-negative", "size-float",
        "rounds-float", "rounds-negative"])
def test_seeds_sizes_and_rounds_are_counts(call):
    # a negative seed leaked numpy's ValueError, a float size built a
    # family and a float rounds leaked TypeError
    with pytest.raises(SpecInvalid, match="non-negative integer"):
        call()


def test_a_numpy_integer_is_a_count():
    assert default_family(seed=np.int64(3), size=np.int64(20)) == default_family(seed=3, size=20)
