"""Exact uncorrelatedness sets of three-point uniform random pairs.

The package constructs, enumerates and verifies the sets

    U(X, Y) = {(j, k) : E[X^j Y^k] = E[X^j] E[Y^k]}

for X, Y uniform on three-point supports, entirely in exact arithmetic:
rationals, quadratic irrationals, and isolated algebraic roots.

The names below are resolved on first access (PEP 562), so importing
the package, or ``uncorrsets.cli``, loads no submodule until one is used.
"""

from importlib import import_module as _import_module

# each public name and the module that defines it
_EXPORTS = {
    "ASequence": "engine",
    "BetaSupport": "model",
    "JointTable": "model",
    "OffsetVector": "model",
    "QuadExt": "numeric",
    "SetDescriptor": "engine",
    "Support3": "model",
    "SupportKind": "model",
    "UncorrReport": "engine",
    "YVector": "model",
    "classify_symmetric": "engine",
    "condition_lhs": "engine",
    "enumerate_box_offsets": "engine",
    "enumerate_box_table": "moments",
    "from_y": "model",
    "is_uncorrelated": "moments",
    "make_antidiagonal": "witnesses",
    "make_cross": "witnesses",
    "make_diagonal": "witnesses",
    "make_empty": "witnesses",
    "make_full": "witnesses",
    "make_hline": "witnesses",
    "make_lattice_union": "witnesses",
    "make_singleton": "witnesses",
    "make_two_point": "witnesses",
    "make_vline": "witnesses",
    "moment": "moments",
    "rescale": "model",
    "table_from_offsets": "model",
    "to_y": "model",
    "verify_claim": "engine",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
