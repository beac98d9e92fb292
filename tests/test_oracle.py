"""Brute-force multiplier lower bounds."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from cescop import oracle
from cescop.cli import run
from cescop.errors import EmptyFamily
from cescop.oracle import (
    Candidate,
    _perturb,
    brute_force_multiplier,
    default_family,
    enrich,
)
from cescop.realfun import ONE, ZERO, expfam, power
from cescop.spaces import SpaceSpec

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


def test_candidate_rebuild():
    c = Candidate("bump", (0.5, 2.0, 1.0))
    g = c.build()
    import numpy as np
    t = np.array([1.0, 3.0])
    vals = np.exp(g.logv(t))
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == 0.0
    assert "bump" in c.describe()


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


def _enriched_result(f, seed, size, rounds, scores=None):
    fam = enrich(default_family(seed=seed, size=size), f, XCOP, Y,
                 rounds=rounds, scores=scores)
    return brute_force_multiplier(f, XCOP, Y, fam, scores=scores)


def test_shared_scores_give_the_unshared_result():
    for f in (expfam(1, 2, 1), EDEC, ONE):
        shared = _enriched_result(f, seed=3, size=30, rounds=3, scores={})
        assert shared == _enriched_result(f, seed=3, size=30, rounds=3)


def test_shared_scores_score_each_candidate_once(monkeypatch):
    calls, norm = [], oracle.space_norm

    def counted(spec, g, cfg):
        calls.append(spec)
        return norm(spec, g, cfg)

    monkeypatch.setattr(oracle, "space_norm", counted)
    f = expfam(1, 2, 1)
    scores = {}
    fam = enrich(default_family(seed=3, size=30), f, XCOP, Y, rounds=3, scores=scores)
    res = brute_force_multiplier(f, XCOP, Y, fam, scores=scores)
    distinct = len(set(fam.candidates))
    assert res.evaluated + res.skipped == len(fam.candidates)
    assert set(scores) == set(fam.candidates)
    assert len(calls) <= 2 * distinct
    # without the shared dict every round scores the whole family again
    calls.clear()
    _enriched_result(f, seed=3, size=30, rounds=3)
    assert len(calls) > 2 * distinct


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
