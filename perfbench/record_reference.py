"""Write reference.json: the outputs the benchmark compares every run with.

    python3 perfbench/record_reference.py

Records, from the cescop sources under ``src/``:
  mult                  value and term values of ``cescop mult`` on each of
                        the 14 regime configs (every seed of regimes and
                        crossval is checked against these);
  crossval_lower_bound  the oracle lower bound of each config with the
                        criterion-6 oracle block (family seed 101);
  glue                  lhs and both rhs terms of every glue instance at the
                        default glue seed 12345.
Re-record only when a change to the program is meant to change values,
and say so with the change.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402


def main() -> None:
    seeds = workloads.DEFAULT_SEED
    ref = {"mult": {}, "crossval_lower_bound": {}, "glue": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        cv = workloads.Crossval(seeds["crossval"], ref, workdir)
        for tag in workloads.TAGS:
            code, text, err = cv.run((tag, 0, cv.paths[tag]))
            if code != 0:
                raise SystemExit(f"{tag}: exit code {code}: {err}")
            rep = json.loads(text)
            ref["mult"][tag] = [rep["value"]] + [t["value"] for t in rep["terms"]]
            ref["crossval_lower_bound"][tag] = rep["oracle"]["lower_bound"]
    glue = workloads.Glue(seeds["glue"], ref)
    for i, k, inst in glue.ops:
        res = glue.run((i, k, inst))
        ref["glue"].setdefault(glue.gluing.LEMMAS[i], []).append(
            [res.lhs, *res.rhs_terms])
    # one tag or one glue instance per line, every digit kept
    sections = []
    for key, table in ref.items():
        rows = []
        for name, val in table.items():
            if key == "glue":
                inner = ",\n".join("  " + json.dumps(row) for row in val)
                rows.append(f" {json.dumps(name)}: [\n{inner}]")
            else:
                rows.append(f" {json.dumps(name)}: {json.dumps(val)}")
        sections.append(f"{json.dumps(key)}: {{\n" + ",\n".join(rows) + "}")
    with open(workloads.REFERENCE, "w") as fh:
        fh.write("{" + ",\n".join(sections) + "}\n")


if __name__ == "__main__":
    main()
