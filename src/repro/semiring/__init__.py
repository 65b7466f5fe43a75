"""Semirings, semiring-annotated relations (factors) and their backends."""

from .backend import (
    BACKEND_COLUMNAR,
    BACKEND_DICT,
    BACKENDS,
    VECTOR_PROFILES,
    VectorProfile,
    backend_of,
    profile_for,
    supports_columnar,
    to_backend,
    validate_backend,
)
from .columnar import ColumnarFactor
from .factor import Factor
from .semirings import (
    BOOLEAN,
    BUILTIN_SEMIRINGS,
    COUNTING,
    GF2,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    REAL,
    Semiring,
    check_semiring_axioms,
    get_semiring,
)

__all__ = [
    "Factor",
    "ColumnarFactor",
    "Semiring",
    "BOOLEAN",
    "COUNTING",
    "REAL",
    "MIN_PLUS",
    "MAX_PLUS",
    "MAX_TIMES",
    "GF2",
    "BUILTIN_SEMIRINGS",
    "get_semiring",
    "check_semiring_axioms",
    "BACKEND_DICT",
    "BACKEND_COLUMNAR",
    "BACKENDS",
    "VectorProfile",
    "VECTOR_PROFILES",
    "backend_of",
    "profile_for",
    "supports_columnar",
    "to_backend",
    "validate_backend",
]
