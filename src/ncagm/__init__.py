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
    NCPolynomial,
    Permutation,
    apply_permutation,
    distinct_product_sum,
    poly_mul,
    poly_transpose,
)
from .compiler import (
    InvarianceError,
    MonomialBasis,
    SymmetryOrbits,
    assemble_sdp,
    localizing_entry,
    monomial_basis,
    retarget,
    retargeting,
    symmetry_reduce,
)
from .sdpa import SdpaParseError, export_sdpa, import_sdpa, read_sdpa, write_sdpa
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
    "retarget",
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
    "export_sdpa",
    "import_sdpa",
    "read_sdpa",
    "write_sdpa",
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
