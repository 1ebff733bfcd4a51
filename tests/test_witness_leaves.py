"""Every leaf of eleven witness documents replaced by junk, through ``cli.main``.

A Q(sqrt(2)) two-point witness, a singleton, a cross on (1/2, 2, 7),
an antidiagonal that carries its power sums ``y``, a lattice union, the
algebraic slope line at m = 2, k = 9, an empty set on (-3, 1, 2), the
full set on (0, 1, 2), a diagonal on (1, 2, 3), a column on the
geometric support beta = 3/2 and the rational slope line at m = 2,
beta = 2 each have every leaf (or key)
swapped for each junk value of ``leaf_runs.JUNK`` and for a huge
radicand that is not a square, then read by ``verify`` and
``enumerate`` (and the lattice union by ``classify`` too).  Each run
must exit 0, 1 or 2, print nothing on stdout when it exits 2, take
under 2 s, and print exactly what the committed outcome list records.

The list, ``data/witness_leaf_outcomes.json``, fixes the verdict and
message of every bad document, so a change to how witnesses are read or
certified cannot change one unnoticed.  To write it again from the
package on the path, run
``PYTHONPATH=src python tests/test_witness_leaves.py``.
"""

import functools
from fractions import Fraction
from pathlib import Path

import pytest

from leaf_runs import JUNK, cases, check_document, read_outcomes, write_outcomes
from uncorrsets.constructions import (
    MODE_AT_OR_ABOVE,
    MODE_BETA_STAR,
    SlopeLineParams,
    make_antidiagonal,
    make_cross,
    make_diagonal,
    make_empty,
    make_full,
    make_lattice_union,
    make_singleton,
    make_slopeline,
    make_two_point,
    make_vline,
)
from uncorrsets.model import BetaSupport, Support3

OUTCOMES = Path(__file__).parent / "data" / "witness_leaf_outcomes.json"

# 10^20 + 39 is prime, far above the radicand bound
WITNESS_JUNK = {**JUNK, "huge-radicand": {"a": "0", "b": "1", "d": 10**20 + 39}}

COMMANDS = {
    "verify": ["verify", "--witness", "-", "--box", "4x9"],
    "enumerate": ["enumerate", "--witness", "-", "--box", "4x9"],
}
CLASSIFY = {"classify": ["classify", "--table", "-"]}


def _documents():
    s123 = Support3.from_values(1, 2, 3)
    built = {
        "two-point": make_two_point(s123, (1, 2), (2, 3)),
        "singleton": make_singleton(s123, 2, 3),
        "cross": make_cross(Support3.from_values(Fraction(1, 2), 2, 7), 2, 3),
        "antidiagonal": make_antidiagonal(BetaSupport(1, Fraction(3, 2)), 5),
        "lattice-union": make_lattice_union(1, ["ee", "oo"]),
        "slopeline": make_slopeline(SlopeLineParams(2, MODE_BETA_STAR, k=9)),
        "empty": make_empty(Support3.from_values(-3, 1, 2)),
        "all": make_full(Support3.from_values(0, 1, 2)),
        "diagonal": make_diagonal(s123),
        "vline": make_vline(BetaSupport(1, Fraction(3, 2)), 2),
        "rational-slopeline": make_slopeline(
            SlopeLineParams(2, MODE_AT_OR_ABOVE, beta=Fraction(2))
        ),
    }
    return {name: c.to_json() for name, c in built.items()}


def _commands(name):
    return {**COMMANDS, **CLASSIFY} if name == "lattice-union" else COMMANDS


@functools.cache
def expected():
    return read_outcomes(OUTCOMES)


CASES = list(cases(_documents(), WITNESS_JUNK, _commands))


def test_every_case_has_a_committed_outcome():
    assert sorted(case for case, _, _ in CASES) == sorted(expected())


@pytest.mark.parametrize("document", list(_documents()))
def test_junk_leaves_exit_cleanly_with_the_committed_output(document):
    check_document(CASES, expected(), document)


if __name__ == "__main__":
    write_outcomes(OUTCOMES, CASES)
