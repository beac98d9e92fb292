"""Which cescop functions the traced run wraps, and the per-layer metrics.

Each layer is one module of the package.  Every public function listed
in ``TARGETS`` records a span named ``<module>.<function>``.  Three
boundaries need more than a wrapper:

* ``realfun`` calls ``scipy.integrate.quad`` through its module alias
  ``_sciint``; a proxy in its place records each call as a
  ``realfun.quad`` span.
* The ``operators`` transforms are lazy: ``op_A`` returns at once and the
  cost lands wherever ``.logv`` is evaluated later.  The log-callables
  that ``operators`` hands to ``from_log_callable`` are therefore wrapped
  as ``operators.eval`` spans.
* Counts that depend on arguments (grid nodes, candidates scored,
  repeated transform builds) are taken by hooks that run inside the span.

``exponents``, ``conventions`` and ``errors`` are pure-Python helpers
with no measurable cost and are not traced.
"""

from __future__ import annotations

import importlib

import numpy as np

PACKAGE = "cescop"

TARGETS = {
    "grids": ("log_nodes", "log_trapz", "log_cumtrapz", "log_suffix_cumtrapz",
              "log_head_estimate", "log_tail_estimate", "running_logmax",
              "suffix_logmax"),
    "realfun": ("integrate", "lp_norm", "esssup", "log_esssup", "primitive_at",
                "tail_at"),
    "spaces": ("space_norm", "space_norm3", "check_omega"),
    "operators": ("op_A", "op_A_star", "big_V", "stieltjes_density",
                  "stieltjes_tail_density", "head_integral_fun", "tail_integral_fun",
                  "running_sup_fun", "suffix_sup_fun", "cal_V", "kernel_A",
                  "fundamental_function", "is_quasiconcave", "is_admissible",
                  "is_nondegenerate"),
    "multiplier": ("characterize", "hypothesis_check", "classify_regime",
                   "reduce_problem"),
    "oracle": ("default_family", "brute_force_multiplier", "enrich"),
    "gluing": ("glue_eval", "random_instance", "dyadic_cover",
               "almost_geometric_check", "discrete_equiv"),
    "cli": ("run",),
}

LAYERS = tuple(TARGETS)

BUILDS = ("op_A", "op_A_star", "big_V", "stieltjes_density")

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("grids.calls", "count"), ("grids.self_s", "s"), ("grids.nodes", "count"),
    ("grids.edge_estimate_calls", "count"),
    ("realfun.integrate_calls", "count"), ("realfun.quad_calls", "count"),
    ("realfun.quad_retries", "count"), ("realfun.self_s", "s"),
    ("spaces.norm_calls", "count"), ("spaces.gate_calls", "count"),
    ("spaces.self_s", "s"),
    ("operators.builds", "count"), ("operators.dup_builds", "count"),
    ("operators.eval_s", "s"), ("operators.limit_check_s", "s"),
    ("multiplier.calls", "count"), ("multiplier.self_s", "s"),
    ("multiplier.hypothesis_s", "s"), ("multiplier.hypothesis_share", "frac"),
    ("oracle.scored", "count"), ("oracle.unique", "count"),
    ("oracle.unique_ratio", "frac"), ("oracle.skipped", "count"),
    ("oracle.enrich_s", "s"), ("oracle.self_s", "s"),
    ("gluing.instances", "count"), ("gluing.rows", "count"), ("gluing.self_s", "s"),
    ("cli.runs", "count"), ("cli.nonzero_exits", "count"), ("cli.self_s", "s"),
)


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _exponent_key(x):
    try:
        return float(x)
    except (TypeError, ValueError):
        return repr(x)


def install(tracer) -> None:
    """Wrap every target function of the package; undo with tracer.uninstall()."""
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    as_fun = mods["realfun"].as_fun
    counts = tracer.counts
    seen_builds, seen_candidates = set(), set()

    def grid_nodes(fname):
        def hook(args, kwargs, result):
            size = result[0].size if fname == "log_nodes" else np.size(args[0])
            parent = tracer.parent_name()
            if parent is None or not parent.startswith("grids."):
                counts["grids.nodes"] += size
            if fname == "log_nodes" and parent == "gluing.glue_eval":
                counts["gluing.rows"] += size
        return hook

    def build(fname):
        def hook(args, kwargs, result):
            scope = tracer.enclosing("multiplier.characterize")
            key = (scope, fname, as_fun(args[0]),
                   tuple(_exponent_key(a) for a in args[1:3]))
            if key in seen_builds:
                counts["operators.dup_builds"] += 1
            seen_builds.add(key)
        return hook

    def scored(args, kwargs, result):
        fam = args[3] if len(args) > 3 else kwargs["fam"]
        counts["oracle.scored"] += len(fam.candidates)
        counts["oracle.skipped"] += result.skipped
        scope = tracer.enclosing("cli.run")
        before = len(seen_candidates)
        seen_candidates.update((scope, c) for c in fam.candidates)
        counts["oracle.unique"] += len(seen_candidates) - before

    def exit_code(args, kwargs, result):
        if result != 0:
            counts["cli.nonzero_exits"] += 1

    hooks = {("grids", f): grid_nodes(f) for f in TARGETS["grids"]}
    hooks.update({("operators", f): build(f) for f in BUILDS})
    hooks[("oracle", "brute_force_multiplier")] = scored
    hooks[("cli", "run")] = exit_code

    for layer, fnames in TARGETS.items():
        for fname in fnames:
            original = getattr(mods[layer], fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original, hooks.get((layer, fname)))
            tracer.replace(original, wrapped, PACKAGE)

    realfun = mods["realfun"]
    tracer.patch(realfun, "_sciint", _ModuleProxy(
        realfun._sciint, quad=tracer.wrap("realfun.quad", realfun._sciint.quad)))

    operators = mods["operators"]
    make_fun = operators.from_log_callable

    def traced_from_log_callable(logfn, *args, **kwargs):
        return make_fun(tracer.wrap("operators.eval", logfn), *args, **kwargs)

    tracer.patch(operators, "from_log_callable", traced_from_log_callable)


def metrics(tracer, passes: int) -> dict:
    """Per-layer metrics per pass over the workload's op list."""
    tab = tracer.table()
    counts = tracer.counts

    def calls(*names):
        return sum(tab.get(n, {}).get("calls", 0) for n in names)

    def total(*names):
        return sum(tab.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(layer):
        return sum(v["self_s"] for n, v in tab.items() if n.split(".")[0] == layer)

    raw = {
        "grids.calls": calls(*(f"grids.{f}" for f in TARGETS["grids"])),
        "grids.self_s": self_s("grids"),
        "grids.nodes": counts["grids.nodes"],
        "grids.edge_estimate_calls": calls("grids.log_head_estimate",
                                           "grids.log_tail_estimate"),
        "realfun.integrate_calls": calls("realfun.integrate"),
        "realfun.quad_calls": calls("realfun.quad"),
        "realfun.quad_retries": tracer.parents_with_children("realfun.quad", 2),
        "realfun.self_s": self_s("realfun"),
        "spaces.norm_calls": calls("spaces.space_norm", "spaces.space_norm3"),
        "spaces.gate_calls": calls("spaces.check_omega"),
        "spaces.self_s": self_s("spaces"),
        "operators.builds": calls(*(f"operators.{f}" for f in BUILDS)),
        "operators.dup_builds": counts["operators.dup_builds"],
        "operators.eval_s": tab.get("operators.eval", {}).get("self_s", 0.0),
        "operators.limit_check_s": total("operators.is_admissible",
                                         "operators.is_nondegenerate"),
        "multiplier.calls": calls("multiplier.characterize"),
        "multiplier.self_s": self_s("multiplier"),
        "multiplier.hypothesis_s": total("multiplier.hypothesis_check"),
        "oracle.scored": counts["oracle.scored"],
        "oracle.unique": counts["oracle.unique"],
        "oracle.skipped": counts["oracle.skipped"],
        "oracle.enrich_s": total("oracle.enrich"),
        "oracle.self_s": self_s("oracle"),
        "gluing.instances": calls("gluing.glue_eval"),
        "gluing.rows": counts["gluing.rows"],
        "gluing.self_s": self_s("gluing"),
        "cli.runs": calls("cli.run"),
        "cli.nonzero_exits": counts["cli.nonzero_exits"] + counts["cli.run.raised"],
        "cli.self_s": self_s("cli"),
    }
    out = {k: v / passes for k, v in raw.items()}
    char_s = total("multiplier.characterize")
    out["multiplier.hypothesis_share"] = (raw["multiplier.hypothesis_s"] / char_s
                                          if char_s else 0.0)
    out["oracle.unique_ratio"] = (raw["oracle.unique"] / raw["oracle.scored"]
                                  if raw["oracle.scored"] else 0.0)
    return {name: out[name] for name, _ in METRICS}
