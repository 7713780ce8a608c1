"""Functional-dependency discovery (paper §4.2)."""

from .fun import DEFAULT_MAX_LHS, discover_fds
from .model import FD, FDSet
from .naive import discover_fds_naive
from .tane import discover_fds_tane
from .quality import (
    ClassifierEvaluation,
    FDScore,
    evaluate_classifier,
    planted_fd_keys,
    score_all,
    score_fd,
)
from .partitions import (
    cardinality,
    determines,
    encode_columns,
    refine,
    strip,
)

__all__ = [
    "ClassifierEvaluation",
    "DEFAULT_MAX_LHS",
    "FD",
    "FDScore",
    "FDSet",
    "cardinality",
    "determines",
    "discover_fds",
    "discover_fds_naive",
    "discover_fds_tane",
    "encode_columns",
    "evaluate_classifier",
    "planted_fd_keys",
    "score_all",
    "score_fd",
    "refine",
    "strip",
]
