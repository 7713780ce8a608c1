"""BCNF normalization analysis (paper §4.3)."""

from .analysis import (
    MAX_COLS,
    MAX_ROWS,
    MIN_COLS,
    MIN_ROWS,
    NormalizationStats,
    passes_size_filter,
)
from .bcnf import MAX_FRAGMENTS, DecompositionResult, bcnf_decompose
from .closure import attribute_closure, is_superkey

__all__ = [
    "DecompositionResult",
    "MAX_COLS",
    "MAX_FRAGMENTS",
    "MAX_ROWS",
    "MIN_COLS",
    "MIN_ROWS",
    "NormalizationStats",
    "attribute_closure",
    "bcnf_decompose",
    "is_superkey",
    "passes_size_filter",
]
