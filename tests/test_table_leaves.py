"""Every leaf of two table documents replaced by junk, through ``cli.main``.

A rational table on symmetric supports and a Q(sqrt(2)) table on
positive ones each have every leaf (or key) swapped for each junk value
of ``leaf_runs.JUNK``, then read by ``enumerate --box 4x4`` and
``classify``.  Each run must exit 0, 1 or 2, print nothing on stdout
when it exits 2, take under 2 s, and print exactly what the committed
outcome list records.

The list, ``data/table_leaf_outcomes.json``, fixes the messages of every
bad document, so a change to how tables are read or checked cannot
change a message unnoticed.  To write it again from the package on the
path, run ``PYTHONPATH=src python tests/test_table_leaves.py``.
"""

import functools
from pathlib import Path

import pytest

from leaf_runs import JUNK, cases, check_document, read_outcomes, write_outcomes
from uncorrsets.model import OffsetVector, Support3, rescale, table_from_offsets
from uncorrsets.numeric import QuadExt

OUTCOMES = Path(__file__).parent / "data" / "table_leaf_outcomes.json"

COMMANDS = {
    "enumerate": ["enumerate", "--witness", "-", "--box", "4x4"],
    "classify": ["classify", "--table", "-"],
}


def _documents():
    sym = Support3.symmetric(1)
    pos = Support3.from_values(1, 2, 3)
    rational = table_from_offsets(rescale(OffsetVector.of(0, 1, 1, 0)), sym, sym)
    x = OffsetVector.of(QuadExt(1, 1, 2), -1, QuadExt(0, -1, 2), 0)
    irrational = table_from_offsets(rescale(x), pos, pos)
    return {"rational": rational.to_json(), "sqrt2": irrational.to_json()}


@functools.cache
def expected():
    return read_outcomes(OUTCOMES)


CASES = list(cases(_documents(), JUNK, lambda name: COMMANDS))


def test_every_case_has_a_committed_outcome():
    assert sorted(case for case, _, _ in CASES) == sorted(expected())


@pytest.mark.parametrize("document", ["rational", "sqrt2"])
def test_junk_leaves_exit_cleanly_with_the_committed_output(document):
    check_document(CASES, expected(), document)


if __name__ == "__main__":
    write_outcomes(OUTCOMES, CASES)
