"""Noncommutative AGM inequality toolkit.

Compiles the distinct-index product-sum inequalities for PSD matrix tuples
into Gram-matrix semidefinite programs, solves them with an embedded
interior-point method, and verifies sum-of-squares and Farkas certificates
(the former in exact rational arithmetic).
"""

# sdp comes first: it imports nothing from the package and is its largest
# module, so when no bytecode is cached it is compiled before numpy's import,
# which then reuses the compiler's freed memory instead of growing the heap
from .sdp import (
    FarkasCertificate,
    SdpProblem,
    Solution,
    SolverOptions,
    extract_farkas,
    solve,
    solve_many,
)
from .ncpoly import (
    MonomialBasis,
    NCPolynomial,
    Permutation,
    apply_permutation,
    distinct_product_sum,
    monomial_basis,
    poly_mul,
    poly_transpose,
)
from .compiler import (
    InvarianceError,
    SymmetryOrbits,
    assemble_sdp,
    localizing_entry,
    retargeting,
    symmetry_reduce,
)
from .sdpa import SdpaParseError, import_sdpa
from .certify import (
    CertificateError,
    InstanceReport,
    RationalMatrix,
    SosCertificate,
    build_m2_certificate,
    eval_instance,
    farkas_check,
    psd_check_exact,
    verify_sos,
)

__all__ = [
    "NCPolynomial",
    "Permutation",
    "apply_permutation",
    "distinct_product_sum",
    "poly_mul",
    "poly_transpose",
    "InvarianceError",
    "MonomialBasis",
    "SymmetryOrbits",
    "assemble_sdp",
    "localizing_entry",
    "monomial_basis",
    "retargeting",
    "symmetry_reduce",
    "FarkasCertificate",
    "SdpProblem",
    "Solution",
    "SolverOptions",
    "extract_farkas",
    "solve",
    "solve_many",
    "SdpaParseError",
    "import_sdpa",
    "CertificateError",
    "InstanceReport",
    "RationalMatrix",
    "SosCertificate",
    "build_m2_certificate",
    "eval_instance",
    "farkas_check",
    "psd_check_exact",
    "verify_sos",
]

__version__ = "0.1.0"
