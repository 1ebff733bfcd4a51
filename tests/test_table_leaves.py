"""Every leaf of two table documents replaced by junk, through ``cli.main``.

A rational table on symmetric supports and a Q(sqrt(2)) table on
positive ones each have every leaf (or key) swapped for each junk value
below, then read by ``enumerate --box 4x4`` and ``classify``.  Each run
must exit 0, 1 or 2, print nothing on stdout when it exits 2, take under
2 s, and print exactly what the committed outcome list records.

The list, ``data/table_leaf_outcomes.json``, fixes the messages of every
bad document, so a change to how tables are read or checked cannot
change a message unnoticed.  To write it again from the package on the
path, run ``PYTHONPATH=src python tests/test_table_leaves.py``.
"""

import copy
import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

from uncorrsets.cli import main
from uncorrsets.model import OffsetVector, Support3, rescale, table_from_offsets
from uncorrsets.numeric import QuadExt

OUTCOMES = Path(__file__).parent / "data" / "table_leaf_outcomes.json"

COMMANDS = {
    "enumerate": ["enumerate", "--witness", "-", "--box", "4x4"],
    "classify": ["classify", "--table", "-"],
}

DROP = object()
JUNK = {
    "text": "junk",
    "minus-3": -3,
    "huge": 10**400,
    "float": 1.5,
    "true": True,
    "null": None,
    "list": [],
    "object": {},
    "sqrt3": {"a": "0", "b": "1/18", "d": 3},
    "d4": {"a": "0", "b": "1", "d": 4},
    "zero-denominator": "1/0",
    "dropped": DROP,
}


def _documents():
    sym = Support3.symmetric(1)
    pos = Support3.from_values(1, 2, 3)
    rational = table_from_offsets(rescale(OffsetVector.of(0, 1, 1, 0)), sym, sym)
    x = OffsetVector.of(QuadExt(1, 1, 2), -1, QuadExt(0, -1, 2), 0)
    irrational = table_from_offsets(rescale(x), pos, pos)
    return {"rational": rational.to_json(), "sqrt2": irrational.to_json()}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


def cases():
    """(case id, document text, argv) for every document, leaf, junk and command."""
    for name, doc in _documents().items():
        for path in _leaf_paths(doc):
            for junk_name, junk in JUNK.items():
                bad = copy.deepcopy(doc)
                node = bad
                for key in path[:-1]:
                    node = node[key]
                if junk is DROP:
                    del node[path[-1]]
                else:
                    node[path[-1]] = junk
                text = json.dumps(bad)
                for command, argv in COMMANDS.items():
                    where = "/".join(str(key) for key in path)
                    yield f"{name}:{where}:{junk_name}:{command}", text, argv


def run(text, argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return [code, out.getvalue(), err.getvalue()]


@functools.cache
def expected():
    data = json.loads(OUTCOMES.read_text(encoding="utf-8"))
    return {case: data["outcomes"][i] for case, i in data["cases"].items()}


CASES = list(cases())


def test_every_case_has_a_committed_outcome():
    assert sorted(case for case, _, _ in CASES) == sorted(expected())


@pytest.mark.parametrize("document", ["rational", "sqrt2"])
def test_junk_leaves_exit_cleanly_with_the_committed_output(document):
    for case, text, argv in CASES:
        if not case.startswith(document + ":"):
            continue
        start = perf_counter()
        code, out, err = outcome = run(text, argv)
        assert perf_counter() - start < 2, case
        assert code in (0, 1, 2), (case, err)
        if code == 2:
            assert out == "", case
        assert outcome == expected()[case], case


if __name__ == "__main__":
    outcomes, index, table = [], {}, {}
    for case, text, argv in cases():
        key = json.dumps(run(text, argv))
        if key not in index:
            index[key] = len(outcomes)
            outcomes.append(json.loads(key))
        table[case] = index[key]
    OUTCOMES.parent.mkdir(exist_ok=True)
    OUTCOMES.write_text(
        json.dumps({"cases": table, "outcomes": outcomes}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{len(table)} cases, {len(outcomes)} distinct outcomes")
