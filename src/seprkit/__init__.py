"""Exact principal-minor sign analysis for sparse parametric matrices.

The toolkit computes every principal minor of a square matrix whose entries
are integer-coefficient polynomials, classifies each minor's sign over the
open positive orthant, and certifies per-order sign-set claims with
machine-checkable proof objects.  All arithmetic is exact; nothing is
floating point.
"""

from .polyring import (
    CoeffSignSummary,
    Polynomial,
    RationalPoint,
    VariableTable,
    reduce_by,
)
from .exprparse import ParseError, parse_entry
from .symmatrix import (
    IndexSet,
    MatrixFormatError,
    SymMatrix,
    load_matrix,
    matrix_from_document,
    matrix_to_document,
    paper_matrix,
)
from .minors import MinorTable, all_principal_minors, minor_values_at, principal_minor
from .orthant import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    Lcg64,
    SeprSequence,
    SignClass,
    SignKind,
    classify_polynomial,
    format_sign_set,
    sepr_at_point,
)
from .certify import (
    CaseDecomposition,
    Certificate,
    ClaimResult,
    LevelCertification,
    LevelSummary,
    SeprReport,
    VerificationReport,
    analyze,
    certify_level,
    check_expected,
    discover_pivots,
    verify_paper_claims,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffSignSummary",
    "Polynomial",
    "RationalPoint",
    "VariableTable",
    "reduce_by",
    "ParseError",
    "parse_entry",
    "IndexSet",
    "MatrixFormatError",
    "SymMatrix",
    "load_matrix",
    "matrix_from_document",
    "matrix_to_document",
    "paper_matrix",
    "MinorTable",
    "all_principal_minors",
    "principal_minor",
    "minor_values_at",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
    "Lcg64",
    "SeprSequence",
    "SignClass",
    "SignKind",
    "classify_polynomial",
    "format_sign_set",
    "sepr_at_point",
    "CaseDecomposition",
    "Certificate",
    "ClaimResult",
    "LevelCertification",
    "LevelSummary",
    "SeprReport",
    "VerificationReport",
    "analyze",
    "certify_level",
    "check_expected",
    "discover_pivots",
    "verify_paper_claims",
    "__version__",
]
