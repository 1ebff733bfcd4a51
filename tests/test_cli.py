import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_model
import uncorrsets
from uncorrsets import engine, numeric, selftest
from uncorrsets.cli import main
from uncorrsets.constructions import (
    MODE_BETA_STAR,
    Construction,
    SlopeLineParams,
    make_lattice_union,
    make_slopeline,
    make_vline,
)
from uncorrsets.model import (
    JointTable,
    OffsetVector,
    Support3,
    rescale,
    table_from_offsets,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert err == "", err
    return code, json.loads(out)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_construct_then_verify_round_trip(capsys, tmp_path):
    code, doc = _run_json(capsys, "construct", "diagonal")
    assert code == 0
    assert doc["schema"] == "uncorrsets/witness"
    assert doc["descriptor"]["kind"] == "diagonal"
    path = _write(tmp_path, "diag.json", doc)
    code, report = _run_json(capsys, "verify", "--witness", path, "--box", "9x9")
    assert code == 0
    assert report["verdict"] == "match"
    assert report["analytic"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("empty",),
        ("all",),
        ("diagonal",),
        ("singleton", "--point", "2,3"),
        ("two-point", "--points", "1,2;2,1"),
        ("vline", "--j", "2"),
        ("hline", "--k", "3"),
        ("cross", "--j", "2", "--k", "3"),
        ("antidiagonal", "--m", "5", "--beta", "2"),
        ("slopeline", "--m", "2", "--beta", "2"),
        ("slopeline", "--m", "2", "--k", "9"),
        ("lattice-union", "--lattices", "ee,oo"),
    ],
)
def test_reading_a_construct_document_writes_it_back(capsys, argv):
    _, doc = _run_json(capsys, "construct", *argv)
    assert Construction.from_json(doc).to_json() == doc


def test_verify_mismatch_sets_exit_code(capsys, tmp_path):
    _, doc = _run_json(capsys, "construct", "diagonal")
    path = _write(tmp_path, "diag.json", doc)
    code, report = _run_json(
        capsys, "verify", "--witness", path, "--box", "5x5", "--descriptor", "vline:1"
    )
    assert code == 1
    assert report["verdict"] == "mismatch"
    assert report["missing"] and report["extra"]


def test_construct_singleton_and_two_point(capsys, tmp_path):
    code, doc = _run_json(
        capsys, "construct", "singleton", "--point", "2,3", "--support", "1,2,3"
    )
    assert code == 0
    path = _write(tmp_path, "single.json", doc)
    code, report = _run_json(capsys, "verify", "--witness", path, "--box", "10x10")
    assert code == 0 and report["found"] == [[2, 3]]

    code, doc = _run_json(capsys, "construct", "two-point", "--points", "2,5;4,3")
    assert code == 0
    path = _write(tmp_path, "pair.json", doc)
    code, report = _run_json(capsys, "verify", "--witness", path, "--box", "10x10")
    assert code == 0 and report["found"] == [[2, 5], [4, 3]]


def _quad(a, b):
    return {"a": a, "b": b, "d": 2}


@pytest.mark.parametrize(
    "support, x",
    [
        (
            ("--support", "1,2,3"),
            [_quad("-43/15", "-26/15"), _quad("19/30", "-11/15"), "1", _quad("0", "1")],
        ),
        (
            ("--alpha", "1", "--beta", "3/2"),
            [_quad("-22/9", "-35/27"), _quad("3/5", "-2/3"), "1", _quad("0", "1")],
        ),
    ],
)
def test_two_point_witness_offsets(capsys, support, x):
    # the reduced nullspace basis v1, v2 of the two membership rows, as
    # v1 + sqrt(2) v2
    code, doc = _run_json(
        capsys, "construct", "two-point", "--points", "1,2;3,1", *support
    )
    assert code == 0 and doc["x"] == x


def test_enumerate_csv_output(capsys, tmp_path):
    _, doc = _run_json(capsys, "construct", "cross", "--j", "2", "--k", "3")
    path = _write(tmp_path, "cross.json", doc)
    code, out, err = _run(
        capsys, "enumerate", "--witness", path, "--box", "4x4", "--format", "csv"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "j,k",
        "1,3",
        "2,1",
        "2,2",
        "2,3",
        "2,4",
        "3,3",
        "4,3",
    ]


def test_enumerate_reads_stdin(capsys, monkeypatch):
    code, doc = _run_json(capsys, "construct", "empty")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, listing = _run_json(capsys, "enumerate", "--witness", "-", "--box", "6x6")
    assert code == 0
    assert listing == {"box": [6, 6], "points": []}


def test_enumerate_accepts_table_documents(capsys, tmp_path):
    s = Support3.from_values(1, 2, 3)
    table = table_from_offsets(rescale(OffsetVector.of(0, 1, -1, 0)), s, s)
    path = _write(tmp_path, "table.json", table.to_json())
    code, listing = _run_json(capsys, "enumerate", "--witness", path, "--box", "5x5")
    assert code == 0
    assert listing["points"] == [[i, i] for i in range(1, 6)]


def test_slopeline_near_line_variant(capsys, tmp_path):
    code, doc = _run_json(capsys, "construct", "slopeline", "--m", "2", "--k", "9")
    assert code == 0
    assert "algebraic" in doc
    path = _write(tmp_path, "near.json", doc)
    code, listing = _run_json(capsys, "enumerate", "--witness", path, "--box", "12x12")
    assert code == 0
    assert listing["points"] == [[1, 2], [2, 4], [3, 6], [4, 9]]
    code, report = _run_json(capsys, "verify", "--witness", path, "--box", "12x12")
    assert code == 0
    assert report["verdict"] == "match"
    assert report["analytic"] is None


def test_slopeline_rational_ratio(capsys, tmp_path):
    code, doc = _run_json(capsys, "construct", "slopeline", "--m", "2", "--beta", "2")
    assert code == 0
    path = _write(tmp_path, "slope.json", doc)
    code, report = _run_json(capsys, "verify", "--witness", path, "--box", "12x12")
    assert code == 0
    assert report["found"] == [[1, 2], [2, 4], [3, 6]]


def test_classify_lattice_union(capsys, tmp_path):
    code, doc = _run_json(
        capsys, "construct", "lattice-union", "--lattices", "ee,oo", "--alpha", "1"
    )
    assert code == 0
    path = _write(tmp_path, "union.json", doc)
    code, result = _run_json(capsys, "classify", "--table", path)
    assert code == 0
    assert result["descriptor"]["lattices"] == ["ee", "oo"]


def test_classify_accepts_table_documents(capsys, tmp_path):
    sym = Support3.symmetric(1)
    table = table_from_offsets(
        rescale(OffsetVector.of(0, 1, 1, 0)), sym, sym
    )
    path = _write(tmp_path, "sym.json", table.to_json())
    code, result = _run_json(capsys, "classify", "--table", path)
    assert code == 0
    assert result["descriptor"]["lattices"] == ["ee"]


def test_root_isolation_commands(capsys):
    code, doc = _run_json(capsys, "beta0", "--m", "2")
    assert code == 0
    assert abs(doc["approx"] - 1.8392867552141612) < 1e-11
    assert Fraction(doc["width"]) <= Fraction(1, 10**12)
    code, doc = _run_json(capsys, "betastar", "--m", "2", "--k", "9")
    assert code == 0
    assert abs(doc["approx"] - 1.5823471836) < 1e-9


def test_det_command(capsys):
    code, doc = _run_json(capsys, "det", "f", "2", "3", "--summary")
    assert code == 0
    assert doc["equal"] is True
    assert doc["term_counts"]["direct"] == doc["term_counts"]["closed"]
    code, doc = _run_json(capsys, "det", "det2", "1", "3")
    assert code == 0
    assert "direct" in doc


def test_indep_cert_command(capsys):
    code, doc = _run_json(
        capsys, "indep-cert", "--points", "1,2;2,4;3,6;4,8", "--beta", "2"
    )
    assert code == 0
    assert doc["det"] == "64512"
    assert doc["cross_checked"] is True


def test_usage_errors_exit_two(capsys, tmp_path):
    code, out, err = _run(capsys, "construct", "singleton")
    assert code == 2 and "error:" in err
    code, out, err = _run(capsys, "verify", "--witness", str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in err
    _, doc = _run_json(capsys, "construct", "empty")
    path = _write(tmp_path, "e.json", doc)
    code, out, err = _run(capsys, "enumerate", "--witness", path, "--box", "wide")
    assert code == 2 and "box must look like" in err
    code, out, err = _run(
        capsys, "indep-cert", "--points", "1,2;2,4;3,6;4,9", "--beta", "2"
    )
    assert code == 2 and "not on k" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        ([], "command"),
        (["bogus"], "'bogus'"),
        (["construct"], "family"),
        (["construct", "bogus"], "'bogus'"),
        (["construct", "vline", "--j", "x"], "--j"),
        (["enumerate", "--witness", "-", "--format", "xml"], "--format"),
        (["verify", "--box", "3x3"], "--witness"),
        (["classify", "--table", "-", "--box", "3x3"], "--box"),
        (["beta0", "--m", "x"], "--m"),
        (["betastar", "--m", "2"], "--k"),
        (["det", "q", "1", "2"], "'q'"),
        (["det", "f", "1"], "n"),
        (["indep-cert", "--points", "1,2;2,4;3,6;4,8", "--beta", "2",
          "--support", "1,2,3"], "--support"),
        (["selftest", "--seed", "x"], "--seed"),
    ],
)
def test_usage_errors_return_two_from_main(capsys, argv, names):
    # argparse's own refusals come back from main, not as SystemExit
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err


@pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"],
                                  ["construct", "slopeline", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: uncorrsets")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lattice-union", "--support", "1,2,3"], "--support"),
        (["empty", "--support", "5,6,7", "--beta", "2"], "--beta"),
        (["empty", "--alpha", "2"], "--alpha"),
        (["empty", "--support", "1,2,3", "--alpha", "5"], "--alpha"),
        (["slopeline", "--m", "2", "--beta", "2", "--alpha", "3"], "--alpha"),
        (["slopeline", "--m", "2", "--beta", "2", "--width", "0"], "--width"),
        (["antidiagonal", "--m", "3", "--beta", "2", "--k", "5"], "--k"),
        (["empty", "--point", "9,9", "--j", "4", "--lattices", "zz"],
         "--point 9,9 --j 4 --lattices zz"),
        (["two-point", "--points", "1,2;2,3", "--point", "2,3"], "--point 2,3"),
        (["empty", "--support", "1,2"], "--support"),
    ],
)
def test_a_flag_the_family_does_not_read_is_refused(capsys, argv, flag):
    code, out, err = _run(capsys, "construct", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["construct", "singleton", "--point", "2"], "2"),
        (["construct", "singleton", "--point", "2,3,4"], "2,3,4"),
        (["construct", "two-point", "--points", "1,2;x,3"], "x,3"),
        (["indep-cert", "--points", "1,2;2,4;3,6;4", "--beta", "2"], "4"),
        (["verify", "--witness", "-", "--descriptor", "finite:1,2;3"], "3"),
    ],
)
def test_point_text_names_its_form(capsys, monkeypatch, argv, text):
    doc = make_vline(Support3.from_values(1, 2, 3), 2).to_json()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: point must look like j,k, got {text!r}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["beta0", "--m", "2", "--width", "0"], "width must be positive"),
        (["betastar", "--m", "2", "--k", "9", "--width", "-1"], "width must be"),
        (["construct", "slopeline", "--m", "2", "--k", "9", "--width", "0"], "width"),
        (["indep-cert", "--points", "1,2;2,4;3,6;4,8", "--beta", "0/0"], "zero"),
        (["construct", "empty", "--support", "1,2,0/0"], "zero denominator"),
        (["construct", "lattice-union", "--alpha", "0/0"], "zero denominator"),
        (["construct", "slopeline", "--m", "2", "--k", "9", "--width", "0/0"], "zero"),
        # the empty pattern vanishes at every even order when b = -c
        (["construct", "empty", "--support=-2,-1,1"], "needs b != -c"),
        # exponent notation is refused before it can expand into a huge integer
        (
            ["construct", "antidiagonal", "--m", "5", "--beta", "1e1000000"],
            "not a rational",
        ),
        (["construct", "lattice-union", "--alpha", "1e1000000"], "not a rational"),
        (["construct", "empty", "--support", "1,2,3e1000000"], "not a rational"),
        (["beta0", "--m", "2", "--width", "1e-1000000"], "not a rational"),
        (["betastar", "--m", "2", "--k", "9", "--width", "1E-5"], "not a rational"),
    ],
)
def test_bad_rational_flags_exit_two(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_negative_support_joined_to_its_flag(capsys):
    code, doc = _run_json(capsys, "construct", "empty", "--support=-1,0,1")
    assert code == 0
    assert doc["support"]["kind"] == "symmetric-zero"


@pytest.mark.parametrize("support", ["--support=-1,0,1", "--support=-1,1,2"])
def test_diagonal_claim_needs_a_positive_support(capsys, support):
    # on these supports (0, 1, -1, 0) vanishes on more than the diagonal
    code, out, err = _run(capsys, "construct", "diagonal", support)
    assert code == 2 and out == ""
    assert "needs a positive ordered support" in err


def test_finite_builders_refuse_a_non_positive_support(capsys):
    # the support is refused before any membership row is built
    for argv in (("singleton", "--point", "1,1"), ("two-point", "--points", "1,2;2,1")):
        code, out, err = _run(capsys, "construct", *argv, "--support=-1,0,1")
        assert code == 2 and out == ""
        assert err == "error: a global finite claim needs a positive ordered support\n"


@pytest.mark.parametrize("text", ["[1,2]", '"x"', "null"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--witness", "-", "--box", "3x3"),
        ("enumerate", "--witness", "-", "--box", "3x3"),
        ("classify", "--table", "-"),
    ],
)
def test_non_object_documents_exit_two(capsys, monkeypatch, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be a JSON object" in err


def _near_line_doc(capsys):
    code, doc = _run_json(capsys, "construct", "slopeline", "--m", "2", "--k", "9")
    assert code == 0
    return doc


def test_verify_algebraic_claim_shares_the_verdict_rule(capsys, tmp_path):
    path = _write(tmp_path, "near.json", _near_line_doc(capsys))
    # the document's own claim is box-verified and holds in the box
    code, report = _run_json(capsys, "verify", "--witness", path, "--box", "6x9")
    assert code == 0
    assert report["verdict"] == "match" and report["analytic"] is None
    # the same points claimed globally: nothing proves that at beta*
    code, report = _run_json(
        capsys, "verify", "--witness", path, "--box", "6x9",
        "--descriptor", "slopeline:2;4,9",
    )
    assert code == 1
    assert report["verdict"] == "mismatch" and report["analytic"] is False
    assert report["missing"] == [] and report["extra"] == []


def _three_point_claim(doc):
    doc["descriptor"] = {
        "kind": "slopeline", "certificate": "box-verified", "slope": 2,
        "points": [[1, 2], [2, 4], [3, 6]],
    }
    return doc


@pytest.mark.parametrize(
    "forge",
    [
        # an interval that holds no root of P: (4, 9) drops out of the set
        lambda d: _three_point_claim(d)["algebraic"].update(interval=["11/10", "6/5"]),
        lambda d: d["algebraic"].update(poly=[1, -1]),
        # reaches above beta0(2) = 1.839...
        lambda d: d["algebraic"].update(interval=[d["algebraic"]["interval"][0], "2"]),
        lambda d: d["algebraic"].update(interval=["1", "2"]),
        lambda d: d["algebraic"].update(m=3),
        lambda d: d["algebraic"].update(k=10),
        # below 1, where the enumeration's interval enclosures do not hold
        lambda d: d["algebraic"].update(interval=["1/2", "2"]),
        # numbers that are not exact: truncated, they would give P again
        lambda d: d["algebraic"].update(
            poly=[c + (0.9 if c >= 0 else -0.9) for c in d["algebraic"]["poly"]]
        ),
        lambda d: d["algebraic"].update(poly=[str(c) for c in d["algebraic"]["poly"]]),
        lambda d: d["algebraic"].update(interval=[1.5823, 1.5824]),
        lambda d: d["algebraic"].update(m=2.0),
        # power sums that are not slopeline_y_polys(2)
        lambda d: d["algebraic"].update(y_polys=[[7], [7], [7], [7]]),
    ],
)
@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_forged_algebraic_documents_exit_two(capsys, tmp_path, forge, command):
    doc = _near_line_doc(capsys)
    forge(doc)
    path = _write(tmp_path, "forged.json", doc)
    code, out, err = _run(capsys, command, "--witness", path, "--box", "6x9")
    assert code == 2
    assert out == "" and "error:" in err


_EMPTY_WITNESS = {
    "schema": "uncorrsets/witness",
    "x": ["1", "0", "0", "0"],
    "support": {"points": ["1", "2", "3"], "kind": "positive-ordered"},
    "descriptor": {"kind": "empty"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--witness", "-", "--descriptor", "vline:5000000"],
        ["verify", "--witness", "-", "--descriptor", "cross:2,5000000"],
        ["construct", "vline", "--j", "3000000"],
        ["construct", "singleton", "--point", "2,3000000"],
        ["construct", "slopeline", "--m", "2", "--k", "5000000"],
        ["beta0", "--m", "2000000"],
        ["betastar", "--m", "2", "--k", "5000000"],
        ["indep-cert", "--points", "1,2000000;2,4000000;3,6000000;4,8000000",
         "--beta", "2"],
        ["det", "f", "3", "70"],
        ["det", "g", "2", "5000"],
        ["det", "det2", "1", "5000"],
    ],
)
def test_orders_above_the_cap_exit_two(argv):
    # a child process with a timeout, so an uncapped order fails the test
    # instead of hanging it; the column witness (0, 0, -A_2, 1) makes a
    # line check compute A_j at the claimed order
    src = os.path.dirname(os.path.dirname(uncorrsets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(numeric.ENV_MAX_EXP, None)
    done = subprocess.run(
        [sys.executable, "-m", "uncorrsets.cli", *argv],
        input=json.dumps(dict(_EMPTY_WITNESS, x=["0", "0", "-8/5", "1"])),
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "exceeds the exponent cap" in done.stderr


@pytest.mark.parametrize(
    "field, value",
    [
        ("x", 5),
        ("descriptor", 7),
        ("descriptor", {"kind": "vline"}),
        ("descriptor", {"kind": "antidiagonal"}),
        ("descriptor", {"kind": "cross", "j": "2", "k": 3}),
        ("descriptor", {"kind": "hline", "k": 0}),
        ("descriptor", {"kind": "slopeline", "slope": None}),
        ("support", [1]),
        # JSON floats, bools and exponent notation are not exact rationals
        ("support", {"points": [1.0, 2.0, 4.0], "kind": "positive-ordered"}),
        ("support", {"points": ["1e400", "2e400", "3e400"], "kind": "positive-ordered"}),
        ("support", {"alpha": "1", "beta": 2.0}),
        ("x", [True, "0", "0", "0"]),
        ("x", [{"a": 0.5, "b": "1", "d": 2}, "0", "0", "0"]),
        ("descriptor", {"kind": "vline", "j": True}),
        ("descriptor", {"kind": "finite", "points": [[1.0, 2]]}),
        # below the least sum and slope that SetDescriptor.antidiagonal and
        # SetDescriptor.slopeline accept
        ("descriptor", {"kind": "antidiagonal", "sum": 1}),
        ("descriptor", {"kind": "slopeline", "slope": 1}),
        # a schema that is not a string is no known form
        ("schema", ["uncorrsets/witness"]),
        ("schema", {"uncorrsets/witness": 1}),
        # power sums that are not to_y(x)
        ("y", ["1", "1", "1", "1"]),
    ],
)
@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_malformed_documents_exit_two(capsys, monkeypatch, field, value, command):
    doc = dict(_EMPTY_WITNESS, **{field: value})
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _run(capsys, command, "--witness", "-", "--box", "3x3")
    assert code == 2
    assert out == "" and "error:" in err


def _lattice_doc(capsys):
    code, doc = _run_json(capsys, "construct", "lattice-union", "--lattices", "ee")
    assert code == 0
    return doc


def _symmetric_table_doc(capsys):
    return JointTable.independent(Support3.symmetric(1), Support3.symmetric(1)).to_json()


@pytest.mark.parametrize(
    "argv, make",
    [
        # a line at an algebraic ratio has no rational table to classify
        (["classify", "--table", "-"], _near_line_doc),
        # a table carries no claim to verify
        (["verify", "--witness", "-", "--box", "3x3"], _symmetric_table_doc),
        # a schema that is not a string names no form
        (
            ["classify", "--table", "-"],
            lambda capsys: dict(_lattice_doc(capsys), schema=["uncorrsets/witness"]),
        ),
        (
            ["classify", "--table", "-"],
            lambda capsys: dict(_lattice_doc(capsys), schema={"uncorrsets/witness": 1}),
        ),
    ],
)
def test_documents_of_the_wrong_form_exit_two(capsys, monkeypatch, argv, make):
    # each document is usable by another command, or with its schema restored
    doc = make(capsys)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")



def _relabelled(construct_argv, kind):
    def make(capsys):
        code, doc = _run_json(capsys, "construct", *construct_argv)
        assert code == 0 and doc["support"]["kind"] == kind
        doc["support"]["kind"] = "general-ordered"
        return doc

    return make


@pytest.mark.parametrize(
    "make",
    [
        _relabelled(["vline", "--j", "2"], "positive-ordered"),
        _relabelled(["lattice-union", "--lattices", "ee,oo"], "symmetric-zero"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--witness", "-", "--box", "3x3"],
        ["enumerate", "--witness", "-", "--box", "3x3"],
        ["classify", "--table", "-"],
    ],
)
def test_a_support_kind_that_contradicts_its_points_exits_two(
    capsys, monkeypatch, argv, make
):
    # a positive or symmetric support relabelled general-ordered
    doc = make(capsys)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and "general-ordered support must start" in err


@pytest.mark.parametrize("points, label, message", test_model.CONTRADICTED)
@pytest.mark.parametrize("document", ["witness", "table"])
def test_each_contradicted_label_exits_two_with_its_message(
    capsys, monkeypatch, document, points, label, message
):
    s3 = Support3.from_values(*points)
    if document == "witness":
        doc = Construction("all", engine.SetDescriptor.all_points(), s3,
                           OffsetVector.of(0, 0, 0, 0)).to_json()
        doc["support"]["kind"] = label.value
        argv = ["verify", "--witness", "-", "--box", "3x3"]
    else:
        doc = JointTable.independent(s3, s3).to_json()
        doc["support_y"]["kind"] = label.value
        argv = ["enumerate", "--witness", "-", "--box", "3x3"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_antidiagonal_without_beta_names_beta_even_with_k(capsys):
    # --k is the slope line's near-line flag; it makes no antidiagonal
    for extra in ((), ("--k", "5")):
        code, out, err = _run(capsys, "construct", "antidiagonal", "--m", "3", *extra)
        assert (code, out, err) == (2, "", "error: the following arguments are required: --beta\n")
    code, out, err = _run(capsys, "construct", "slopeline", "--m", "3")
    assert (code, out, err) == (2, "", "error: one of the arguments --beta --k is required\n")


@pytest.mark.parametrize(
    "argv", [["enumerate", "--witness", "-", "--box", "3x3"], ["classify", "--table", "-"]]
)
def test_table_documents_with_float_points_exit_two(capsys, monkeypatch, argv):
    doc = JointTable.independent(Support3.symmetric(1), Support3.symmetric(1)).to_json()
    doc["support_x"]["points"] = [-1.0, 0.0, 1.0]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("d", [1, 4, 8, 12, "2", True, 10**20 + 39])
def test_table_entries_with_a_bad_radicand_exit_two(capsys, monkeypatch, d):
    # arithmetic results skip the radicand checks; a document never does
    doc = JointTable.independent(Support3.symmetric(1), Support3.symmetric(1)).to_json()
    doc["entries"][0][0] = {"a": "1/9", "b": "0", "d": d}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _run(capsys, "classify", "--table", "-")
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert "radicand" in err or "not an integer" in err


def _documents():
    sym = Support3.symmetric(1)
    table = table_from_offsets(rescale(OffsetVector.of(0, 1, 1, 0)), sym, sym)
    constructs = [
        ("singleton", "--point", "2,3"),
        ("cross", "--j", "2", "--k", "3"),
        ("antidiagonal", "--m", "5", "--beta", "2"),
        ("slopeline", "--m", "2", "--beta", "2"),
        ("slopeline", "--m", "2", "--k", "9"),
        ("lattice-union", "--lattices", "ee,oo"),
    ]
    docs = [table.to_json()]
    for argv in constructs:
        with redirect_stdout(io.StringIO()) as out:
            assert main(["construct", *argv]) == 0
        docs.append(json.loads(out.getvalue()))
    return docs


_DOCS = _documents()


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


_LEAVES = [(i, path) for i, doc in enumerate(_DOCS) for path in _leaf_paths(doc)]

_JUNK = st.one_of(
    st.integers(-3, 70),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@settings(max_examples=150, deadline=None, database=None)
@given(
    leaf=st.sampled_from(_LEAVES),
    junk=_JUNK,
    argv=st.sampled_from(
        [
            ["verify", "--witness", "-", "--box", "4x9"],
            ["enumerate", "--witness", "-", "--box", "4x9"],
            ["classify", "--table", "-"],
        ]
    ),
)
def test_one_bad_leaf_never_escapes_main(leaf, junk, argv):
    index, path = leaf
    doc = copy.deepcopy(_DOCS[index])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = junk
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    assert code in (0, 1, 2)


def test_selftest_fast(capsys):
    code, out, err = _run(capsys, "selftest", "--fast")
    assert code == 0
    assert "all self-test sections passed" in out


def test_selftest_reports_a_planted_fault(monkeypatch):
    real = engine.condition_lhs
    monkeypatch.setattr(
        engine, "condition_lhs", lambda x, seq, j, k: real(x, seq, j, k) + 1
    )
    lines = []
    assert selftest.run(fast=True, out=lines.append) > 0
    assert any(line.startswith("FAIL moment route") for line in lines)


def test_internal_errors_exit_three(capsys, monkeypatch, tmp_path):
    _, doc = _run_json(capsys, "construct", "lattice-union", "--lattices", "ee")
    path = _write(tmp_path, "union.json", doc)
    # a planted fault: the moment route answers yes at (2, 2) only, so the
    # parity samples disagree and classification raises LatticeInconsistent
    monkeypatch.setattr(engine, "is_uncorrelated", lambda table, j, k: (j, k) == (2, 2))
    code, out, err = _run(capsys, "classify", "--table", path)
    assert code == 3 and out == ""
    assert err.startswith("internal error: LatticeInconsistent")
    assert "Traceback (most recent call last)" in err


def test_det_above_its_order_sum_exits_two(capsys):
    # the cap's exception is numeric's and still a ValueError, so unusable input
    assert issubclass(numeric.ExponentCapExceeded, ValueError)
    code, out, err = _run(capsys, "det", "g", "20", "20")
    assert code == 2 and out == ""
    assert err.startswith("error: order sum 20 + 20 exceeds the exponent cap")


# ---------------------------------------------------------------------------
# the modules each subcommand loads

_LOADED = (
    "import io, sys\n"
    "from contextlib import redirect_stdout\n"
    "from uncorrsets import cli\n"
    "with redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, *sys.modules)\n"
)


def _loaded_modules(*argv) -> tuple[int, set[str], set[str]]:
    """Exit status, the package modules and the standard-library modules
    of one CLI run, in a fresh interpreter that compiles every module it
    imports."""
    src = os.path.dirname(os.path.dirname(uncorrsets.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, *names = done.stdout.split()
    package = {name.split(".")[1] for name in names if name.startswith("uncorrsets.")}
    stdlib = {name for name in names if name.split(".")[0] in sys.stdlib_module_names}
    return int(code), package, stdlib


_SET_MACHINERY = {"engine", "witnesses", "constructions", "algebraic", "slopeline"}
_POLYNOMIAL_CODE = {"constructions", "algebraic", "polynomials", "slopeline"}
# what dataclasses costs at start-up: its own import, and inspect's
_GENERATED_CODE = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["det", "f", "2", "3"], _SET_MACHINERY | {"model", "polynomials"},
         {"determinants", "multipoly"}),
        (["det", "g", "3", "5"], _SET_MACHINERY | {"model", "polynomials"},
         {"determinants", "multipoly"}),
        (
            ["indep-cert", "--points", "1,2;2,4;3,6;4,8", "--beta", "2"],
            _SET_MACHINERY,
            {"determinants", "model"},
        ),
        (["enumerate", "--witness", "{table}", "--box", "5x5"],
         _POLYNOMIAL_CODE | {"witnesses", "engine", "linalg"}, {"moments"}),
        (["classify", "--table", "{table}"], _POLYNOMIAL_CODE | {"witnesses"}, {"engine"}),
        (["construct", "vline", "--j", "2"], _POLYNOMIAL_CODE, {"witnesses"}),
        (["verify", "--witness", "{witness}"], _POLYNOMIAL_CODE, {"witnesses"}),
        (["enumerate", "--witness", "{witness}", "--box", "5x5"],
         _POLYNOMIAL_CODE, {"witnesses"}),
        (["classify", "--table", "{lattices}"], _POLYNOMIAL_CODE, {"witnesses"}),
        (["construct", "slopeline", "--m", "2", "--k", "9"], set(), _POLYNOMIAL_CODE),
        (["verify", "--witness", "{line}"], {"constructions"},
         {"witnesses", "algebraic", "polynomials", "slopeline"}),
    ],
    ids=["det-f", "det-g", "indep-cert", "enumerate-table", "classify-table",
         "construct", "verify", "enumerate-witness", "classify-witness",
         "construct-slopeline", "verify-slopeline"],
)
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, absent, present):
    sym = Support3.symmetric(1)
    table = table_from_offsets(rescale(OffsetVector.of(0, 1, 1, 0)), sym, sym)
    witness = make_vline(Support3.from_values(1, 2, 3), 2)
    files = {
        "table": _write(tmp_path, "table.json", table.to_json()),
        "witness": _write(tmp_path, "vline.json", witness.to_json()),
        "lattices": _write(tmp_path, "lattices.json",
                           make_lattice_union(1, ["ee", "oo"]).to_json()),
        "line": _write(tmp_path, "line.json", make_slopeline(
            SlopeLineParams(2, MODE_BETA_STAR, k=9)).to_json()),
    }
    code, loaded, stdlib = _loaded_modules(*(arg.format(**files) for arg in argv))
    assert code == 0
    assert not loaded & absent, sorted(loaded & absent)
    assert present <= loaded, sorted(present - loaded)
    assert not stdlib & _GENERATED_CODE, sorted(stdlib & _GENERATED_CODE)
