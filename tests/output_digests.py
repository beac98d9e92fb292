"""Print digests of the CLI outputs that every change must keep byte-identical.

Run from the repository root:

    PYTHONPATH=src python tests/output_digests.py

Each line is the first 16 hex digits of the sha256 of the concatenation,
in order, of f"{exit code}\\n{stdout}{stderr}" over the ``cescop.cli.run``
calls of one suite:

    mult      ``mult`` on the 14 regime configs of perfbench/configs, in tag order
    crossval  the same 14 with the oracle block of acceptance criterion 6
    glue      ``glue --lemma all --count 100 --seed 12345``
    verify    ``verify --seed 0``
    quick     ``verify --seed 0 --quick``

A sixth line, ``screen``, digests the oracle's screened norms during the
crossval suite: one line per ``spaces._Plan.screen`` call, ``None`` or
the scaled log-norm's ``float.hex()``, joined by newlines.

Three more suites run the other config commands on the same 14 configs,
each config's X = cop_{1,r}(u, 1) and Y = ces_{p,q}(w, v):

    oracle    ``oracle`` on f, X and Y with the oracle block of crossval
    norm      ``norm`` of f in Y
    reduce    ``reduce`` on the four-weight form with p1 = 1 and v1 = 1

Compare the lines printed on two commits to show that a change moved no
output.  tests/test_output_digests.py pins the nine lines in tier-1, so a
change that moves an output on purpose updates those pins with it.
pytest does not collect this file (its name has no test_ prefix).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from cescop import cli, spaces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "perfbench", "configs")
TAGS = ("T1", "T2i", "T2ii", "T3i", "T3ii", "T4i", "T4ii", "T5i", "T5ii",
        "T5iii", "T5iv", "T6", "T7i", "T7ii")
ORACLE = {"seed": 101, "size": 60, "rounds": 5}
ONE = {"family": "constant", "c": 1.0}


def _derived(rec) -> dict:
    """The oracle, norm and reduce configs of one mult config rec."""
    X = {"kind": "cop", "exponents": [1, rec["r"]], "weights": [rec["u"], ONE]}
    Y = {"kind": "ces", "exponents": [rec["p"], rec["q"]], "weights": [rec["w"], rec["v"]]}
    return {
        "oracle": {"f": rec["f"], "X": X, "Y": Y, **ORACLE},
        "norm": {"space": Y, "f": rec["f"]},
        "reduce": {"p1": 1, "q1": rec["r"], "p2": rec["p"], "q2": rec["q"],
                   "u1": rec["u"], "v1": ONE, "u2": rec["w"], "v2": rec["v"],
                   "f": rec["f"]},
    }


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return f"{code}\n{out.getvalue()}{err.getvalue()}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digest(argvs) -> str:
    return _sha("".join(_run(argv) for argv in argvs))


def _screen_digest(argvs) -> str:
    """The digest of every screened log-norm while argvs run."""
    lines, call = [], spaces._Plan.screen

    def recorded(self, f):
        res = call(self, f)
        lines.append("None" if res is None else float(res).hex())
        return res

    spaces._Plan.screen = recorded
    try:
        for argv in argvs:
            _run(argv)
    finally:
        spaces._Plan.screen = call
    return _sha("\n".join(lines))


def _command(name, paths) -> list:
    return [[name, "--config", path] for path in paths]


def digests() -> dict:
    """The digest of each suite, by name, in print order."""
    paths = [os.path.join(CONFIG_DIR, f"{tag}.json") for tag in TAGS]
    with tempfile.TemporaryDirectory() as tmp:
        oracle_paths = []
        derived = {"oracle": [], "norm": [], "reduce": []}
        for tag, path in zip(TAGS, paths):
            with open(path) as fh:
                rec = json.load(fh)
            oracle_paths.append(os.path.join(tmp, f"{tag}.json"))
            with open(oracle_paths[-1], "w") as fh:
                json.dump({**rec, "oracle": ORACLE}, fh)
            for name, config in _derived(rec).items():
                derived[name].append(os.path.join(tmp, f"{tag}-{name}.json"))
                with open(derived[name][-1], "w") as fh:
                    json.dump(config, fh)
        suites = (
            ("mult", _command("mult", paths)),
            ("crossval", _command("mult", oracle_paths)),
            ("glue", [["glue", "--lemma", "all", "--count", "100", "--seed", "12345"]]),
            ("verify", [["verify", "--seed", "0"]]),
            ("quick", [["verify", "--seed", "0", "--quick"]]),
        )
        out = {name: _digest(argvs) for name, argvs in suites}
        out["screen"] = _screen_digest(_command("mult", oracle_paths))
        out.update((name, _digest(_command(name, cmd_paths)))
                   for name, cmd_paths in derived.items())
    return out


def main() -> None:
    for name, digest in digests().items():
        print(f"{name:<9} {digest}")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
