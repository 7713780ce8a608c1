"""Dataset search and integration suggestions over the corpus.

The Auctus/Governor-shaped facade the paper's introduction motivates:
keyword search over the catalogs, join suggestions filtered by the §5.3
usefulness signals, and union suggestions ranked by relatedness.
"""

from .lake import (
    DataLake,
    DatasetHit,
    ExternalJoinHit,
    JoinSuggestion,
    UnionSuggestion,
)
from .textindex import STOPWORDS, SearchHit, TextIndex, tokenize

__all__ = [
    "DataLake",
    "DatasetHit",
    "ExternalJoinHit",
    "JoinSuggestion",
    "STOPWORDS",
    "SearchHit",
    "TextIndex",
    "UnionSuggestion",
    "tokenize",
]
