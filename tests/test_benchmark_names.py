"""The names that the benchmark's tracer patches still resolve.

``perfbench/tracer.py`` finds each span and counter by module and
attribute, and patches every binding of the function it finds there.  A
name moved out of its module would not fail the benchmark: its metric
would just read zero.  So every ``SPANNED`` and ``COUNTERS`` entry must
name a function bound in ``vars()`` of its module, or a method in
``vars()`` of a class bound there, and ``constructions.make_*`` must find
the builder of every ``construct`` family.  This module only reads
``perfbench/``.
"""

import sys
from importlib import import_module
from pathlib import Path

import pytest

from uncorrsets import cli, constructions

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

ENTRIES = tracer.SPANNED + tracer.COUNTERS


@pytest.mark.parametrize("metric, module, attr", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_each_traced_name_is_bound_where_the_tracer_looks(metric, module, attr):
    names = vars(import_module(f"uncorrsets.{module}"))
    if attr == "make_*":
        builders = {n for n, v in names.items() if n.startswith("make_") and callable(v)}
        assert builders == {builder for (_, builder), *_ in cli.FAMILIES.values()}
        assert len(builders) == 11
    elif "." in attr:
        cls_name, method = attr.split(".")
        assert isinstance(names.get(cls_name), type), cls_name
        assert method in vars(names[cls_name]), attr
    else:
        assert callable(names.get(attr)), attr


def test_the_smoke_test_finds_the_sturm_count_in_constructions():
    assert "sturm_root_count" in vars(constructions)
