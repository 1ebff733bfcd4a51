"""The contract every immutable value class of the package keeps.

Each class is built positionally and by keyword, with its defaults; equal
fields give equal values with equal hashes, and a change to any compared
field breaks equality; assigning or deleting a field raises
AttributeError; a value survives copying and pickling; and a derived
attribute takes no constructor argument.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from uncorrsets.constructions import (
    DEFAULT_WIDTH,
    MODE_AT_OR_ABOVE,
    MODE_BETA_STAR,
    AlgebraicSlopeLine,
    Construction,
    SlopeLineParams,
    slopeline_beta_star,
)
from uncorrsets.determinants import DetResult, IndependenceCertificate
from uncorrsets.engine import (
    BOX_VERIFIED,
    GLOBAL_ANALYTIC,
    SetDescriptor,
    SetForm,
    UncorrReport,
)
from uncorrsets.model import (
    BetaSupport,
    JointTable,
    OffsetVector,
    Support3,
    SupportKind,
    YVector,
    rescale,
    table_from_offsets,
)
from uncorrsets.polynomials import IntPoly, MultiPoly
from uncorrsets.selftest import Section

S123 = Support3((1, 2, 3))
S124 = Support3((1, 2, 4))
NINTHS = ((Fraction(1, 9),) * 3,) * 3
OTHER_TABLE = table_from_offsets(rescale(OffsetVector.of(1, 0, 0, 0)), S123, S123)
VLINE = SetDescriptor("vline", GLOBAL_ANALYTIC, (2,))
LINE = slopeline_beta_star(2, 9)
P = MultiPoly.variable(2, 0)


class Spec:
    """One class: a full argument list in constructor order, argument sets
    that leave the other fields at their defaults, the default of each
    field that has one, and for each compared field a value that changes
    it and nothing else."""

    def __init__(self, cls, fields, changes, defaults=None, minimal=(), derived=()):
        self.cls = cls
        self.fields = fields
        self.changes = changes
        self.defaults = defaults or {}
        self.minimal = minimal
        self.derived = derived

    def __repr__(self):
        return self.cls.__name__

    def build(self, **changed):
        return self.cls(**{**dict(self.fields), **changed})


SPECS = [
    Spec(Support3, [("points", (1, 2, 3))], {"points": (1, 2, 4)},
         derived=("kind", "beta")),
    Spec(BetaSupport, [("alpha", 1), ("beta", 2)], {"alpha": 3, "beta": 3},
         derived=("points", "kind")),
    Spec(OffsetVector, [("x", (1, 0, 0, 0))], {"x": (0, 1, 0, 0)}),
    Spec(YVector, [("y", (1, 0, 0, 0))], {"y": (0, 0, 0, 1)}),
    Spec(
        JointTable,
        [("entries", NINTHS), ("support_x", S123), ("support_y", S123)],
        {"entries": OTHER_TABLE.entries, "support_x": S124, "support_y": S124},
    ),
    Spec(
        SetForm,
        [("cols", frozenset({1})), ("rows", frozenset({2})),
         ("lines", frozenset({(1, 1, 0)})), ("classes", frozenset({"ee"})),
         ("points", frozenset({(1, 1)}))],
        {"cols": frozenset({3}), "rows": frozenset(), "lines": frozenset({(1, 2, 0)}),
         "classes": frozenset({"oo"}), "points": frozenset({(2, 1)})},
        defaults={name: frozenset() for name in ("cols", "rows", "lines", "classes", "points")},
        minimal=[{}],
    ),
    Spec(
        SetDescriptor,
        [("kind", "vline"), ("certificate", GLOBAL_ANALYTIC), ("params", (2,)),
         ("points", ((1, 1),)), ("lattices", ("ee",))],
        {"kind": "hline", "certificate": BOX_VERIFIED, "params": (3,),
         "points": ((1, 2),), "lattices": ("oo",)},
        defaults={"certificate": BOX_VERIFIED, "params": (), "points": (), "lattices": ()},
        minimal=[{"kind": "empty"}],
        derived=("form",),
    ),
    Spec(
        UncorrReport,
        [("verdict", "match"), ("claimed", VLINE), ("box", (2, 2)), ("found", ((1, 1),)),
         ("missing", ()), ("extra", ()), ("analytic_ok", True)],
        {"verdict": "mismatch", "claimed": SetDescriptor("empty"), "box": (3, 3),
         "found": ((1, 2),), "missing": ((2, 2),), "extra": ((2, 1),), "analytic_ok": None},
    ),
    Spec(
        Construction,
        [("name", "vline"), ("descriptor", VLINE), ("support", S123),
         ("x", OffsetVector.of(0, 0, 1, 1)), ("y", YVector.of(1, 2, 1, 2)),
         ("algebraic", None)],
        {"name": "other", "descriptor": SetDescriptor("empty"), "support": S124,
         "x": OffsetVector.of(1, 0, 0, 0), "y": None, "algebraic": LINE},
        defaults={"support": None, "x": None, "y": None, "algebraic": None},
        minimal=[{"name": "vline", "descriptor": VLINE}],
    ),
    Spec(
        SlopeLineParams,
        [("m", 2), ("mode", MODE_AT_OR_ABOVE), ("beta", Fraction(2)), ("k", 9),
         ("width", Fraction(1, 50))],
        {"m": 3, "mode": MODE_BETA_STAR, "beta": Fraction(3), "k": 10,
         "width": Fraction(1, 7)},
        defaults={"beta": None, "k": None, "width": DEFAULT_WIDTH},
        minimal=[{"m": 2, "mode": MODE_BETA_STAR, "k": 9},
                 {"m": 2, "mode": MODE_AT_OR_ABOVE, "beta": 2}],
    ),
    Spec(
        AlgebraicSlopeLine,
        [("m", LINE.m), ("k", LINE.k), ("poly", LINE.poly), ("interval", LINE.interval)],
        {"m": 3, "k": 10, "poly": IntPoly([1, 1]), "interval": (Fraction(1), Fraction(2))},
    ),
    Spec(
        DetResult,
        [("kind", "f"), ("m", 2), ("n", 3), ("direct", P), ("closed", P), ("equal", True)],
        {"kind": "g", "m": 3, "n": 4, "direct": P + P, "closed": P * P, "equal": False},
    ),
    Spec(
        IndependenceCertificate,
        [("points", ((1, 2), (2, 4), (3, 6), (4, 8))), ("slope", Fraction(2)),
         ("det_value", Fraction(5)), ("nullspace_dim", 0), ("closed_value", Fraction(5)),
         ("sign", 1), ("cross_checked", True), ("independent", True)],
        {"points": ((1, 3), (2, 6), (3, 9), (4, 12)), "slope": Fraction(3),
         "det_value": Fraction(-5), "nullspace_dim": 1, "closed_value": Fraction(6),
         "sign": -1, "cross_checked": False, "independent": False},
    ),
    Spec(
        Section,
        [("label", "routes"), ("checked", 3), ("problems", ("one",))],
        {"label": "shapes", "checked": 4, "problems": ()},
        defaults={"problems": ()},
        minimal=[{"label": "routes", "checked": 3}],
    ),
]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_value_class_contract(spec):
    names = [name for name, _ in spec.fields]
    assert set(spec.changes) == set(names)
    value = spec.build()
    # positional and keyword construction agree, and so do two builds
    assert spec.cls(*(v for _, v in spec.fields)) == value
    assert spec.build() == value and hash(spec.build()) == hash(value)
    assert not value != spec.build()
    for kwargs in spec.minimal:
        least = spec.cls(**kwargs)
        for name, default in spec.defaults.items():
            if name not in kwargs:
                assert getattr(least, name) == default, name
    # every compared field takes part in ==
    for name, changed in spec.changes.items():
        other = spec.build(**{name: changed})
        assert other != value and not other == value, name
    assert value != object() and value != tuple(getattr(value, n) for n in names)
    for name in (*names, *spec.derived):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    for name in spec.derived:
        with pytest.raises(TypeError):
            spec.build(**{name: getattr(value, name)})


def test_derived_attributes_follow_the_compared_fields():
    assert Support3((-1, 0, 1)).kind is SupportKind.SYMMETRIC_ZERO
    assert Support3((1, 2, 3)).kind is Support3((1, 2, 3)).kind
    a, b = SetDescriptor("vline", GLOBAL_ANALYTIC, (2,)), SetDescriptor.vline(2)
    assert a.form == b.form
    # the form is not compared: a forced other form leaves the value equal
    object.__setattr__(b, "form", SetForm())
    assert a == b and hash(a) == hash(b)
