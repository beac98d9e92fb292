"""The CLI outputs and screened log-norms stay byte-identical.

The pins are the lines ``tests/output_digests.py`` prints.  A change
that moves an output on purpose updates them together with its table of
moved values, as it re-records perfbench/reference.json.
"""

from output_digests import digests

PINNED = {
    "mult": "fb4447c9a14f67e8",
    "crossval": "d80d9be69fca9de8",
    "glue": "cf60db1e1e78645b",
    "verify": "e11a5a5c8185fb8c",
    "quick": "45986c1b4b5bb4bd",
    "screen": "bd1fb718d0bfe7ba",
    "oracle": "1484fe9c3d3d6a16",
    "norm": "fa51a95011487a78",
    "reduce": "4f6ede2bf368227a",
}


def test_output_digests_are_pinned():
    assert digests() == PINNED
