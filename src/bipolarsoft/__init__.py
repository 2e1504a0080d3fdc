"""Bipolar soft sets: a finite algebra of paired approve/reject object sets.

Each value assigns, to every positive parameter, a set of approving objects
and a disjoint set of rejecting objects, leaving the rest neutral.  The
package provides the order and lattice operations, an indicator-pair table
encoding with a canonical JSON document format, and/or-products over the
squared parameter space, score-based decision making, and a brute-force
checker for the algebra's laws.

Importing the package loads only ``errors``.  Every other public name is
imported with its home module on first access (PEP 562) and looked up there
at each access, so a name patched on its module is the one returned here.
"""

import sys

from . import errors

_NAMES = {
    "codec": "dump from_document load parse serialize to_document",
    "core": "BipolarSoftSet ensure_same_space",
    "decision": "DecisionResult ScoreRow decide render_scores_csv render_scores_text scores"
                " scores_document",
    "laws": "Law LawReport catalogue check_law enumerate_bss exhaustive_tuples gen_bss get_law"
            " random_tuples recheck run_catalogue standard_space",
    "products": "and_product or_product product_space",
    "space": "ParameterSpace",
    "table": "CellValue TabularForm from_table render_table_csv render_table_text table_document"
             " to_table",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, "errors"])


def __getattr__(name: str):
    home = _HOME.get(name, name)  # a submodule is its own home, as in ``bipolarsoft.laws``
    if home not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # as an import statement does, so ``-X importtime`` sees it
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
