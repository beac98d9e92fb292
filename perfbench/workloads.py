"""The three benchmark workloads: inputs, one op, and its output checks.

``regimes``   one op is ``cescop mult --config <tag>.json`` on one of the 14
              criterion-6 instances, driven in-process through
              ``cescop.cli.run``; the seed shuffles the call order of each
              pass over the 14.
``crossval``  the same op with ``"oracle": {"seed": 101, "size": 60,
              "rounds": 5}``, which is criterion 6; the seed shuffles the
              call order of each pass, as for ``regimes``.
``glue``      one op is ``glue_eval`` on one of the 6 lemmas x 100 instances
              drawn by ``random_instance(lemma, default_rng((seed, i, k)))``;
              seed 12345 is acceptance criterion 4.

Each workload exposes ``pass_ops(k)`` (the ops of pass k), ``run(op)``
(calls the program and returns its output), ``problems(op, out)`` (the
failed checks, empty when the output is right), ``values(op, out)``
(outputs paired with their recorded reference; empty where no reference
exists at this seed) and ``block``: pass_ops(k) splits into blocks of
that many ops, each covering the workload's mix once.  Throughput is a
median over blocks, and a traced run alternates untraced and traced
execution block by block.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE = os.path.join(HERE, "reference.json")

TAGS = ("T1", "T2i", "T2ii", "T3i", "T3ii", "T4i", "T4ii", "T5i", "T5ii",
        "T5iii", "T5iv", "T6", "T7i", "T7ii")
# the oracle block of acceptance criterion 6
ORACLE = {"seed": 101, "size": 60, "rounds": 5}
ENVELOPE = 100.0
GLUE_COUNT = 100
DEFAULT_SEED = {"regimes": 0, "crossval": 0, "glue": 12345}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def rel_dev(got: float, ref: float) -> float:
    if got == ref or (math.isnan(got) and math.isnan(ref)):
        return 0.0
    if ref == 0.0 or not (math.isfinite(got) and math.isfinite(ref)):
        return math.inf
    return abs(got - ref) / abs(ref)


class _Mult:
    """``cescop mult`` on the 14 regime configs, through ``cli.run``.

    An op is (tag, pass index, config path).
    """

    block = len(TAGS)

    def __init__(self, seed: int, reference: dict):
        from cescop import cli

        self.cli = cli
        self.seed = seed
        self.reference = reference

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run(["mult", "--config", op[2]])
        return code, out.getvalue(), err.getvalue()

    def problems(self, op, out) -> list:
        tag = op[0]
        code, text, err = out
        if code != 0:
            return [f"exit code {code}: {err.strip()[-200:]}"]
        rep = json.loads(text)
        found = []
        if rep["regime"] != tag:
            found.append(f"regime {rep['regime']}, expected {tag}")
        value = rep["value"]
        if not 0.0 < value < math.inf:
            found.append(f"value {value!r} outside (0, inf)")
        if tag == "T6" and not abs(value - 1.0 / math.sqrt(2.0)) < 1e-4 * (1.0 / math.sqrt(2.0)):
            found.append(f"T6 value {value!r} not within 1e-4 of 1/sqrt(2)")
        return found

    def pass_ops(self, k: int) -> list:
        order = np.random.default_rng((self.seed, k)).permutation(len(TAGS))
        return [(TAGS[i], k, self.paths[TAGS[i]]) for i in order]

    def values(self, op, out) -> list:
        rep = json.loads(out[1])
        got = [rep["value"]] + [t["value"] for t in rep["terms"]]
        ref = self.reference["mult"][op[0]]
        if len(got) != len(ref):  # a term added or lost: a changed output
            return [(math.inf, 1.0)]
        return list(zip(got, ref))


class Regimes(_Mult):
    name = "regimes"

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.paths = {tag: os.path.join(CONFIG_DIR, f"{tag}.json") for tag in TAGS}


class Crossval(_Mult):
    """Every op scores the criterion-6 candidate family (oracle seed 101),
    so every pass does the same work and every output has a reference."""

    name = "crossval"

    def __init__(self, seed: int, reference: dict, workdir: str):
        super().__init__(seed, reference)
        self.paths = {}
        for tag in TAGS:
            with open(os.path.join(CONFIG_DIR, f"{tag}.json")) as fh:
                rec = json.load(fh)
            self.paths[tag] = os.path.join(workdir, f"{tag}.json")
            with open(self.paths[tag], "w") as fh:
                json.dump({**rec, "oracle": ORACLE}, fh)

    def problems(self, op, out) -> list:
        found = super().problems(op, out)
        if found:
            return found
        rep = json.loads(out[1])
        value, lb = rep["value"], rep["oracle"]["lower_bound"]
        if not (0.0 < lb < math.inf and lb <= ENVELOPE * value
                and value <= ENVELOPE * lb):
            found.append(f"value {value!r} and oracle bound {lb!r} outside the "
                         f"x{ENVELOPE:g} two-sided envelope")
        return found

    def values(self, op, out) -> list:
        lb = json.loads(out[1])["oracle"]["lower_bound"]
        return super().values(op, out) + [
            (lb, self.reference["crossval_lower_bound"][op[0]])]


class Glue:
    name = "glue"
    block = 6

    def __init__(self, seed: int, reference: dict):
        from cescop import gluing

        self.gluing = gluing
        self.seed = seed
        self.reference = reference
        # lemma index varies fastest, so any prefix of a pass is a balanced mix
        self.ops = [(i, k, gluing.random_instance(
                        lem, np.random.default_rng((seed, i, k))))
                    for k in range(GLUE_COUNT)
                    for i, lem in enumerate(gluing.LEMMAS)]

    def pass_ops(self, k: int) -> list:
        return self.ops

    def run(self, op):
        return self.gluing.glue_eval(op[2])

    def problems(self, op, res) -> list:
        if math.isnan(res.ratio):
            return []
        found = []
        if not 1e-2 <= res.ratio <= 1e2:
            found.append(f"ratio {res.ratio!r} outside [1e-2, 1e2]")
        for term in res.rhs_terms:
            if math.isfinite(term) and math.isfinite(res.lhs) and term > 8.0 * res.lhs:
                found.append(f"term {term!r} above 8 x lhs {res.lhs!r}")
        return found

    def values(self, op, res) -> list:
        if self.seed != DEFAULT_SEED["glue"]:
            return []
        i, k, _ = op
        ref = self.reference["glue"][self.gluing.LEMMAS[i]][k]
        return list(zip((res.lhs,) + tuple(res.rhs_terms), ref))


def output_key(workload, op, out) -> str:
    """The outputs of one op as text, to compare traced and untraced runs
    bit for bit (repr keeps every digit and reads nan as equal)."""
    if isinstance(workload, Glue):
        return repr((out.lhs, tuple(out.rhs_terms), out.ratio))
    return repr(out[:2])


def make(name: str, seed: int, workdir: str):
    reference = load_reference()
    if name == "regimes":
        return Regimes(seed, reference)
    if name == "crossval":
        return Crossval(seed, reference, workdir)
    if name == "glue":
        return Glue(seed, reference)
    raise ValueError(f"unknown workload {name!r}")
