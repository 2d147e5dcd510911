"""Product formulas for exponentials of commutators and other Lie polynomials.

The package is organised around six pieces:

- :mod:`commexp.liealg` — truncated word-series engine, nested-commutator
  basis and the Lie projection;
- :mod:`commexp.conditions` — order conditions, effective error, the
  counter-palindromic machinery, Newton refinement and the 1-D optimizer;
- :mod:`commexp.schemes` — the scheme catalog, parametric families,
  the composition operator, the letter substitutions and file I/O;
- :mod:`commexp.matform` — dense-matrix harness (expm, spectral norm,
  operator pairs, scheme evaluation);
- :mod:`commexp.bench` — error-vs-cost protocols and CSV exporters;
- :mod:`commexp.cli` — the ``commexp`` command-line entry point.

The dense layer (``matform`` and ``bench``) loads on first use: importing
the package, or running a series command (``verify``, ``schemes``,
``optimize``), does not import it.  Its names are served from their modules
on each access, so ``commexp.make_pair`` is always ``matform.make_pair``.
"""

import importlib

# set before the submodules load: bench stamps it into CSV provenance
__version__ = "0.1.0"

from .conditions import (
    TargetPolynomial,
    commutator_target,
    cp_expand,
    effective_error,
    optimize_free_parameter,
    order_residuals,
    refine,
    sum_plus_commutator_target,
    sum_target,
    target_from_name,
)
from .liealg import (
    Generator,
    LieBasis,
    LieMembershipError,
    basis_build,
    lie_project,
    scheme_log,
    series_log,
    series_mul,
)
from .schemes import (
    ExponentSlot,
    Scheme,
    catalog_get,
    catalog_names,
    compose,
    load_scheme,
    save_scheme,
    transform,
)


__all__ = [
    "ExponentSlot",
    "Generator",
    "LieBasis",
    "LieMembershipError",
    "OperatorPair",
    "Scheme",
    "TargetPolynomial",
    "basis_build",
    "catalog_get",
    "catalog_names",
    "commutator_target",
    "compose",
    "cp_expand",
    "effective_error",
    "empirical_order",
    "error_curve",
    "evaluate_scheme",
    "expm",
    "export_figure",
    "gates_for_tolerance",
    "lie_project",
    "load_scheme",
    "make_pair",
    "optimize_free_parameter",
    "order_residuals",
    "refine",
    "save_scheme",
    "scheme_log",
    "series_log",
    "series_mul",
    "slope_fit",
    "sum_plus_commutator_target",
    "sum_target",
    "target_from_name",
    "target_matrix",
    "transform",
    "two_norm",
    "__version__",
]

# name -> submodule of the dense layer that defines it
_LAZY = {
    **dict.fromkeys(("OperatorPair", "evaluate_scheme", "expm", "make_pair",
                     "target_matrix", "two_norm"), "matform"),
    **dict.fromkeys(("empirical_order", "error_curve", "export_figure",
                     "gates_for_tolerance", "slope_fit"), "bench"),
}


def __getattr__(name):
    # not cached in the package namespace: a copy taken while a caller has
    # the module attribute patched would keep the patch after it is undone
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
