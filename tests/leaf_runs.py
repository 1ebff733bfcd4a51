"""Every leaf of a JSON document swapped for junk and run through
``cli.main`` in-process, for the tests that pin how documents are read.

A test module names its documents and the commands that read each one;
``cases`` yields one case per document, leaf (or dropped key), junk value
and command, and the module's committed outcome list holds, per case,
the exit code, stdout and stderr that ``run`` gives.
"""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from uncorrsets.cli import main

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


def cases(documents, junk, commands):
    """(case id, document text, argv) for every document, leaf, junk value
    and command; ``commands(name)`` maps command names to argv."""
    for name, doc in documents.items():
        for path in _leaf_paths(doc):
            for junk_name, value in junk.items():
                bad = copy.deepcopy(doc)
                node = bad
                for key in path[:-1]:
                    node = node[key]
                if value is DROP:
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
                text = json.dumps(bad)
                where = "/".join(str(key) for key in path)
                for command, argv in commands(name).items():
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


def check_document(all_cases, expected, document):
    """Every case of one document exits 0, 1 or 2 within 2 s, prints
    nothing on stdout when it exits 2, and gives its committed outcome."""
    for case, text, argv in all_cases:
        if not case.startswith(document + ":"):
            continue
        start = perf_counter()
        code, out, err = outcome = run(text, argv)
        assert perf_counter() - start < 2, case
        assert code in (0, 1, 2), (case, err)
        if code == 2:
            assert out == "", case
        assert outcome == expected[case], case


def read_outcomes(path):
    """The committed outcome of each case."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return {case: data["outcomes"][i] for case, i in data["cases"].items()}


def write_outcomes(path, all_cases):
    """Run every case and write the list, each distinct outcome once."""
    outcomes, index, table = [], {}, {}
    for case, text, argv in all_cases:
        key = json.dumps(run(text, argv))
        if key not in index:
            index[key] = len(outcomes)
            outcomes.append(json.loads(key))
        table[case] = index[key]
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps({"cases": table, "outcomes": outcomes}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{len(table)} cases, {len(outcomes)} distinct outcomes")
