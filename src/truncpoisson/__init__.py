"""Exact Poisson (co)homology of truncated polynomial algebras in two variables.

The algebra is C[X,Y]/(X^a, Y^b) with bracket {X, Y} = X*Y.  All arithmetic
is exact rational; dimensions, ranks and ring tables are true values, not
numerical estimates.

The names below are loaded from their modules on first access, so
``import truncpoisson`` loads no module of the package and a command loads
only the modules it runs.  ``truncpoisson.linalg`` is importable but not
exported, and no module of the package imports it: its dense matrices serve
the tests' reference, whose operator builders are in ``tests/dense.py``, and
perfbench.  ``checks`` is loaded by verify alone.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": "AlgebraElement EulerDims TruncParams bracket euler_dims multiply render_element",
    "chain": "ChainElement DualityReport HomologyReport TwistParams duality_report homology omega_dims",
    "checks": "run_verify",
    "cochain": "Biderivation CohomologyReport Derivation NormalizedCocycle RingTable cohomology cup "
    "fibre_product_table hamiltonian is_poisson_derivation normalize_one_cocycle ring_table",
    "reporting": "CheckResult",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module  # not on the command path, which imports modules directly

    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
