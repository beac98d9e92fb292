"""Tests of the benchmark itself: configs, tracer and metric names.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH, os.path.join(ROOT, "tests")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_configs_match_the_criterion_6_instances():
    from cescop import ThreeWeightProblem, characterize
    from test_acceptance import REGIME_INSTANCES

    wl = workloads.Regimes(0, workloads.load_reference())
    ops = {op[0]: op for op in wl.pass_ops(0)}
    assert [tag for tag, _, _ in REGIME_INSTANCES] == list(workloads.TAGS)
    for tag, kw, f in REGIME_INSTANCES:
        res = characterize(ThreeWeightProblem(f=f, **kw))
        code, text, _ = wl.run(ops[tag])
        assert code == 0
        rep = json.loads(text)
        assert rep["regime"] == tag
        assert rep["value"] == res.value
        assert [(t["name"], t["value"]) for t in rep["terms"]] == list(res.terms)


def test_reference_is_the_current_output_of_each_config():
    wl = workloads.Regimes(0, workloads.load_reference())
    for op in wl.pass_ops(0):
        out = wl.run(op)
        assert wl.problems(op, out) == []
        assert all(workloads.rel_dev(got, want) == 0.0 for got, want in wl.values(op, out))


def test_crossval_seed_changes_only_the_call_order(tmp_path):
    ref = workloads.load_reference()
    passes = [workloads.Crossval(seed, ref, str(tmp_path)).pass_ops(k)
              for seed in (1, 2) for k in (0, 1)]
    for ops in passes:
        assert sorted(op[0] for op in ops) == sorted(workloads.TAGS)
        for tag, _, path in ops:
            with open(path) as fh:
                assert json.load(fh)["oracle"] == {"seed": 101, "size": 60, "rounds": 5}
    assert len({tuple(op[0] for op in ops) for ops in passes}) > 1


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def leaf(x):
        return x + 1

    def inner(x):
        return mod.leaf(x) * 2

    def outer(x):
        return mod.inner(x) + mod.inner(x + 1)

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    pkg.outer = outer  # a second binding, as ``from .mod import outer`` makes
    return pkg, mod


def test_self_times_of_nested_spans_sum_to_the_parent_duration(monkeypatch):
    pkg, mod = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    for name in ("leaf", "inner", "outer"):
        original = getattr(mod, name)
        tracer.replace(original, tracer.wrap(f"mod.{name}", original), "fakepkg")
    assert pkg.outer is mod.outer and pkg.outer.__wrapped__ is not None
    try:
        assert pkg.outer(1) == 10
    finally:
        tracer.uninstall()
    tab = tracer.table()
    assert {n: v["calls"] for n, v in tab.items()} == {
        "mod.outer": 1, "mod.inner": 2, "mod.leaf": 2}
    assert sum(v["self_s"] for v in tab.values()) == tab["mod.outer"]["total_s"]
    assert all(v["self_s"] > 0 for v in tab.values())


def _snapshot():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "cescop" or name.startswith("cescop.")}


def test_uninstall_restores_every_binding():
    import cescop.cli  # noqa: F401  (load every layer before the snapshot)
    from cescop import multiplier, oracle, spaces

    before = _snapshot()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert multiplier.space_norm is spaces.space_norm is not before["cescop.spaces"]["space_norm"]
        assert oracle.space_norm is spaces.space_norm
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        changed = [a for a, v in attrs.items() if after[name][a] is not v]
        assert changed == [], f"{name}: {changed}"


def _outputs(wl, ops, tracer=None):
    if tracer is not None:
        layers.install(tracer)
    try:
        return [workloads.output_key(wl, op, wl.run(op)) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.mark.parametrize("name,count", [("regimes", 14), ("glue", 12), ("crossval", 1)])
def test_traced_outputs_are_bit_identical(name, count, tmp_path):
    seed = workloads.DEFAULT_SEED[name]
    wl = workloads.make(name, seed, str(tmp_path))
    ops = wl.pass_ops(0)[:count]
    tracer = Tracer()
    assert _outputs(wl, ops, tracer) == _outputs(wl, ops)
    got = layers.metrics(tracer, passes=1)
    if name == "glue":
        assert got["gluing.instances"] == count
        assert got["gluing.rows"] > 0 and got["cli.runs"] == 0
    else:
        assert got["cli.runs"] == got["multiplier.calls"] == count
        assert got["cli.nonzero_exits"] == 0
    if name == "crossval":
        per_op = 60 + 70 + 80 + 90 + 100 + 110  # enrich rounds, then the final scoring
        assert got["oracle.scored"] == per_op
        assert got["oracle.unique"] == 110


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.DEFAULT_SEED)


def test_rel_dev_reads_equal_values_as_zero():
    assert workloads.rel_dev(0.5, 0.5) == 0.0
    assert workloads.rel_dev(math.inf, math.inf) == 0.0
    assert workloads.rel_dev(math.nan, math.nan) == 0.0
    assert workloads.rel_dev(1.5, 1.0) == 0.5
    assert workloads.rel_dev(1e-300, 0.0) == math.inf
