"""Exact Poisson (co)homology of truncated polynomial algebras in two variables.

The algebra is C[X,Y]/(X^a, Y^b) with bracket {X, Y} = X*Y.  All arithmetic
is exact rational; dimensions, ranks and ring tables are true values, not
numerical estimates.
"""

from .algebra import (
    AlgebraElement,
    EulerDims,
    TruncParams,
    bracket,
    euler_dims,
    multiply,
    parse_element,
    render_element,
)
from .chain import (
    ChainElement,
    DualityReport,
    HomologyReport,
    TwistParams,
    duality_report,
    homology,
    module_bracket,
    omega_dims,
    partial1_matrix,
    partial2_matrix,
)
from .checks import CheckResult, run_verify
from .cochain import (
    Biderivation,
    CohomologyReport,
    Derivation,
    NormalizedCocycle,
    RingTable,
    chi1_basis,
    cohomology,
    cup,
    delta0_matrix,
    delta1_matrix,
    fibre_product_table,
    hamiltonian,
    is_poisson_derivation,
    normalize_one_cocycle,
    ring_table,
)
from .linalg import (
    Matrix,
    RrefResult,
    SubspaceBasis,
    column_space,
    nullspace,
    rref,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "Biderivation",
    "ChainElement",
    "CheckResult",
    "CohomologyReport",
    "Derivation",
    "DualityReport",
    "EulerDims",
    "HomologyReport",
    "Matrix",
    "NormalizedCocycle",
    "RingTable",
    "RrefResult",
    "SubspaceBasis",
    "TruncParams",
    "TwistParams",
    "bracket",
    "chi1_basis",
    "cohomology",
    "column_space",
    "cup",
    "delta0_matrix",
    "delta1_matrix",
    "duality_report",
    "euler_dims",
    "fibre_product_table",
    "hamiltonian",
    "homology",
    "is_poisson_derivation",
    "module_bracket",
    "multiply",
    "normalize_one_cocycle",
    "nullspace",
    "omega_dims",
    "parse_element",
    "partial1_matrix",
    "partial2_matrix",
    "render_element",
    "ring_table",
    "rref",
    "run_verify",
    "solve",
]
