"""Keyword search over dataset metadata.

The systems the paper studies (Auctus, Governor, Toronto Open Dataset
Search) all start from keyword search over the catalog; join/union
suggestion comes second.  This is a small TF-weighted inverted index
over dataset titles, descriptions, topics, organizations and table
names — enough to find "fisheries" or "covid testing" in the corpus.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections import Counter, defaultdict

from ..resilience.budget import UNMETERED, BudgetExceeded, WorkMeter

_TOKEN = re.compile(r"[a-z0-9]+")

#: Words too common in catalog prose to carry signal.
STOPWORDS = frozenset(
    "a an and by for from in of on official statistics the to with".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase word/number tokens with stopwords removed."""
    return [
        token
        for token in _TOKEN.findall(text.lower())
        if token not in STOPWORDS
    ]


@dataclasses.dataclass(frozen=True)
class SearchHit:
    """One matching document with its relevance score."""

    doc_id: str
    score: float
    matched_terms: tuple[str, ...]


class TextIndex:
    """An inverted index with TF x IDF scoring."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[str, int]] = defaultdict(dict)
        self._doc_lengths: dict[str, int] = {}

    def add(self, doc_id: str, text: str) -> None:
        """Index one document (re-adding replaces nothing: ids are
        expected to be unique)."""
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id!r} already indexed")
        counts = Counter(tokenize(text))
        for token, count in counts.items():
            self._postings[token][doc_id] = count
        self._doc_lengths[doc_id] = max(1, sum(counts.values()))

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def search(
        self,
        query: str,
        limit: int = 10,
        meter: WorkMeter = UNMETERED,
    ) -> list[SearchHit]:
        """Rank documents for *query*, best first.

        Every posting visited charges *meter* one tick
        (``ops.search.score``); an exhausted budget stops scanning and
        ranks whatever was scored so far — a deterministic partial
        answer rather than a hang (callers read ``meter.exhausted``).
        """
        if limit <= 0:
            return []
        terms = tokenize(query)
        if not terms or not self._doc_lengths:
            return []
        n_docs = len(self._doc_lengths)
        scores: dict[str, float] = defaultdict(float)
        matched: dict[str, set[str]] = defaultdict(set)
        try:
            for term in terms:
                posting = self._postings.get(term)
                if not posting:
                    continue
                idf = math.log(1.0 + n_docs / len(posting))
                for doc_id, count in posting.items():
                    meter.tick(1, op="search.score")
                    tf = count / self._doc_lengths[doc_id]
                    scores[doc_id] += tf * idf
                    matched[doc_id].add(term)
        except BudgetExceeded:
            pass  # rank the documents scored before the deadline hit
        hits = [
            SearchHit(
                doc_id=doc_id,
                # Favour documents matching more distinct query terms.
                score=score * (len(matched[doc_id]) / len(set(terms))),
                matched_terms=tuple(sorted(matched[doc_id])),
            )
            for doc_id, score in scores.items()
        ]
        hits.sort(key=lambda h: (-h.score, h.doc_id))
        return hits[:limit]
