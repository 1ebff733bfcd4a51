"""Golden outputs of about 460 in-process CLI runs, through ``cli.main``.

The runs are ``construct`` of all eleven families on seven supports
(positive, one with a denominator, geometric, symmetric, general
(-3, 1, 2), b = -c and a point at 0), lattice unions and slope lines of
their own, refused inputs (among them each family with each flag it does
not read), ``beta0`` and ``betastar`` at three widths, ``verify``
of one document against claims given as text, and ``verify`` (of the
document's claim and of ``empty``), ``enumerate``
(as JSON and as CSV) and ``classify`` of every document that
``construct`` printed, at one box.  Each run must exit 0, 1 or 2, print
nothing on stdout when it exits 2, take under 2 s, and give exactly the
exit code, stdout and stderr that the committed list records.

The list, ``data/cli_outputs.json``, fixes every verdict, document and
message of these runs, so a refactor cannot change one unnoticed.  To
write it again from the package on the path, run
``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

import functools
from pathlib import Path

import pytest

from leaf_runs import check_document, read_outcomes, run, write_outcomes

OUTCOMES = Path(__file__).parent / "data" / "cli_outputs.json"

BOX = "5x14"

SUPPORTS = {
    "positive": ["--support", "1,2,3"],
    "denominator": ["--support", "1/2,2,7"],
    "geometric": ["--beta", "3/2"],
    "symmetric": ["--support=-1,0,1"],
    "general": ["--support=-3,1,2"],
    "b=-c": ["--support=-2,-1,1"],
    "zero": ["--support", "0,1,2"],
}

FAMILIES = {
    "empty": [],
    "all": [],
    "diagonal": [],
    "singleton": ["--point", "2,3"],
    "two-point": ["--points", "1,2;2,3"],
    "vline": ["--j", "2"],
    "hline": ["--k", "3"],
    "cross": ["--j", "2", "--k", "3"],
    "antidiagonal": ["--m", "5"],
    "slopeline": ["--m", "2"],
    "lattice-union": ["--lattices", "ee,oo"],
}

# further documents, each a construct argv after the family
EXTRA = {
    "lattice-union:alpha-3/2-eo": ["lattice-union", "--alpha", "3/2", "--lattices", "eo"],
    "lattice-union:none": ["lattice-union", "--alpha", "2"],
    "lattice-union:every": ["lattice-union", "--lattices", "ee,eo,oe,oo"],
    "lattice-union:alpha-1-ee-oo": ["lattice-union", "--alpha", "1", "--lattices", "ee,oo"],
    "slopeline:beta-2": ["slopeline", "--m", "2", "--beta", "2"],
    "slopeline:m3-beta-2": ["slopeline", "--m", "3", "--beta", "2"],
    "slopeline:k9": ["slopeline", "--m", "2", "--k", "9"],
    "slopeline:k13": ["slopeline", "--m", "3", "--k", "13"],
    "slopeline:k17": ["slopeline", "--m", "4", "--k", "17"],
    "slopeline:k9-width-1/50": ["slopeline", "--m", "2", "--k", "9", "--width", "1/50"],
    "antidiagonal:beta-2": ["antidiagonal", "--m", "4", "--beta", "2"],
    "cross:far": ["cross", "--j", "4", "--k", "1", "--support", "1,3,4"],
    "two-point:far": ["two-point", "--points", "3,1;1,4", "--support", "1/3,1,2"],
    "two-point:empty-chunk": ["two-point", "--points", "1,2;;2,3"],
}

# construct argvs that must be refused
REFUSED = {
    "singleton:no-point": ["singleton"],
    "two-point:one-point": ["two-point", "--points", "1,2"],
    "two-point:shared-row": ["two-point", "--points", "1,2;3,2"],
    "vline:no-j": ["vline"],
    "vline:j-0": ["vline", "--j", "0"],
    "cross:no-k": ["cross", "--j", "2"],
    "hline:above-cap": ["hline", "--k", "65"],
    "antidiagonal:no-beta": ["antidiagonal", "--m", "3"],
    "antidiagonal:k-no-beta": ["antidiagonal", "--m", "3", "--k", "5"],
    "antidiagonal:no-m": ["antidiagonal", "--beta", "2"],
    "slopeline:no-m": ["slopeline", "--beta", "2"],
    "slopeline:m1-beta": ["slopeline", "--m", "1", "--beta", "2"],
    "slopeline:beta-too-small": ["slopeline", "--m", "2", "--beta", "9/5"],
    "slopeline:k8": ["slopeline", "--m", "2", "--k", "8"],
    "slopeline:k-above-cap": ["slopeline", "--m", "2", "--k", "100"],
    "slopeline:m1-k9": ["slopeline", "--m", "1", "--k", "9"],
    "slopeline:width-0": ["slopeline", "--m", "2", "--k", "9", "--width", "0"],
    "slopeline:width-minus-1": ["slopeline", "--m", "2", "--k", "9", "--width", "-1"],
    "slopeline:m1-width-0": ["slopeline", "--m", "1", "--k", "9", "--width", "0"],
    "slopeline:k8-width-0": ["slopeline", "--m", "2", "--k", "8", "--width", "0"],
    "lattice-union:alpha-0": ["lattice-union", "--alpha", "0"],
    "lattice-union:bad-name": ["lattice-union", "--lattices", "xx"],
    "support:decreasing": ["empty", "--support", "3,2,1"],
    "support:repeated": ["empty", "--support", "1,1,2"],
    "support:two-points": ["empty", "--support", "1,2"],
    "support:zero-denominator": ["empty", "--support", "1,2,1/0"],
    "support:exponent": ["empty", "--support", "1,2,1e3"],
    "support:beta-1": ["empty", "--beta", "1"],
    "support:alpha-0": ["empty", "--alpha", "0", "--beta", "2"],
    "support:and-beta": ["empty", "--support", "5,6,7", "--beta", "2"],
    "support:alpha-without-beta": ["empty", "--alpha", "2"],
    "support:points-and-alpha": ["empty", "--support", "1,2,3", "--alpha", "5"],
    "singleton:point-one-value": ["singleton", "--point", "2"],
    "singleton:point-three-values": ["singleton", "--point", "2,3,4"],
    "two-point:point-one-value": ["two-point", "--points", "1,2;3"],
    "slopeline:beta-and-k": ["slopeline", "--m", "2", "--k", "9", "--beta", "5"],
    "slopeline:beta-width": ["slopeline", "--m", "2", "--beta", "2", "--width", "0"],
    "empty:three-unread": ["empty", "--point", "9,9", "--j", "4", "--lattices", "zz"],
}

# a value for every construct flag, and the flags each family reads; each
# family is refused with each flag it does not read, added to a valid argv
FLAG_VALUES = {
    "--support": "1,2,3", "--alpha": "2", "--beta": "2", "--point": "2,3",
    "--points": "1,2;2,3", "--j": "2", "--k": "9", "--m": "2",
    "--lattices": "ee", "--width": "1/50",
}
SUPPORT_FLAGS = {"--support", "--alpha", "--beta"}
READS = {
    "empty": SUPPORT_FLAGS,
    "all": SUPPORT_FLAGS,
    "diagonal": SUPPORT_FLAGS,
    "singleton": SUPPORT_FLAGS | {"--point"},
    "two-point": SUPPORT_FLAGS | {"--points"},
    "vline": SUPPORT_FLAGS | {"--j"},
    "hline": SUPPORT_FLAGS | {"--k"},
    "cross": SUPPORT_FLAGS | {"--j", "--k"},
    "antidiagonal": {"--alpha", "--beta", "--m"},
    "slopeline": {"--beta", "--k", "--m", "--width"},
    "lattice-union": {"--alpha", "--lattices"},
}
VALID = {**FAMILIES, "antidiagonal": ["--m", "5", "--beta", "2"],
         "slopeline": ["--m", "2", "--beta", "2"]}
REFUSED.update(
    (f"unread:{family}:{flag}", [family, *VALID[family], flag, value])
    for family, reads in READS.items()
    for flag, value in FLAG_VALUES.items()
    if flag not in reads
)

WIDTHS = {"default": [], "1/50": ["--width", "1/50"], "3/7": ["--width", "3/7"]}

ROOTS = {
    "beta0": [["--m", "2"], ["--m", "3"], ["--m", "4"]],
    "betastar": [
        ["--m", "2", "--k", "9"],
        ["--m", "3", "--k", "13"],
        ["--m", "4", "--k", "17"],
        ["--m", "4", "--k", "28"],
    ],
}

REFUSED_ROOTS = {
    "beta0:m1": ["beta0", "--m", "1"],
    "beta0:above-cap": ["beta0", "--m", "65"],
    "beta0:width-0": ["beta0", "--m", "2", "--width", "0"],
    "beta0:width-minus-1": ["beta0", "--m", "2", "--width", "-1"],
    "beta0:zero-denominator": ["beta0", "--m", "2", "--width", "1/0"],
    "betastar:m1": ["betastar", "--m", "1", "--k", "9"],
    "betastar:k8": ["betastar", "--m", "2", "--k", "8"],
    "betastar:k-above-cap": ["betastar", "--m", "2", "--k", "100"],
    "betastar:width-0": ["betastar", "--m", "2", "--k", "9", "--width", "0"],
    "betastar:m1-width-0": ["betastar", "--m", "1", "--k", "9", "--width", "0"],
    "betastar:k8-width-0": ["betastar", "--m", "2", "--k", "8", "--width", "0"],
    "betastar:k-above-cap-width-0": ["betastar", "--m", "2", "--k", "100", "--width", "0"],
    "betastar:m1-width-minus-1": ["betastar", "--m", "1", "--k", "5", "--width", "-1"],
}

READERS = {
    "verify": ["verify", "--witness", "-", "--box", BOX],
    "verify-empty": ["verify", "--witness", "-", "--box", BOX, "--descriptor", "empty"],
    "enumerate": ["enumerate", "--witness", "-", "--box", BOX],
    "enumerate-csv": ["enumerate", "--witness", "-", "--box", BOX, "--format", "csv"],
    "classify": ["classify", "--table", "-"],
}

# claims that verify reads from --descriptor, on the document of vline:positive
DESCRIPTORS = {
    "vline-j-x": "vline:x",
    "vline-no-j": "vline:",
    "finite-empty-chunk": "finite:1,2;;2,3",
}

GROUPS = ("construct", "refused", "roots", "descriptor", *READERS)


def _constructs():
    """(name, argv) of every construct run that is expected to build."""
    for family, flags in FAMILIES.items():
        for support, support_flags in SUPPORTS.items():
            yield f"{family}:{support}", ["construct", family, *flags, *support_flags]
    for name, argv in EXTRA.items():
        yield name, ["construct", *argv]


def cases():
    """(case id, stdin text, argv) of every run.  The readers take the
    stdout of each construct that exited 0 as their document."""
    for name, argv in _constructs():
        yield f"construct:{name}", "", argv
        code, doc, _ = run("", argv)
        if code == 0:
            for reader, reader_argv in READERS.items():
                yield f"{reader}:{name}", doc, reader_argv
    for name, argv in REFUSED.items():
        yield f"refused:{name}", "", ["construct", *argv]
    for command, orders in ROOTS.items():
        for flags in orders:
            for width, width_flags in WIDTHS.items():
                name = ",".join(flags[1::2])
                yield f"roots:{command}:{name}:{width}", "", [command, *flags, *width_flags]
    for name, argv in REFUSED_ROOTS.items():
        yield f"roots:refused:{name}", "", argv
    _, doc, _ = run("", ["construct", "vline", *FAMILIES["vline"], *SUPPORTS["positive"]])
    for name, text in DESCRIPTORS.items():
        yield f"descriptor:{name}", doc, [*READERS["verify"], "--descriptor", text]


@functools.cache
def all_cases():
    return list(cases())


@functools.cache
def expected():
    return read_outcomes(OUTCOMES)


def test_every_case_has_a_committed_outcome():
    assert sorted(case for case, _, _ in all_cases()) == sorted(expected())


@pytest.mark.parametrize("group", GROUPS)
def test_runs_give_the_committed_output(group):
    check_document(all_cases(), expected(), group)


if __name__ == "__main__":
    write_outcomes(OUTCOMES, cases())
