"""Stratified sampling of joinable pairs for labeling (paper §5.3.1).

The paper's procedure, reproduced exactly:

1. pick a joinable table ``T1`` uniformly at random (so high-degree
   tables are not over-represented);
2. pick one of ``T1``'s joinable columns uniformly;
3. pick ``T2`` uniformly among the tables joinable with that column,
   taking ``T2``'s column of highest Jaccard similarity when several
   qualify (the first in ``column_neighbors`` order on ties);
4. discard pairs of same-schema tables (they belong to the
   unionability analysis);
5. balance the sample across three ``T1``-size buckets — (10,100),
   [100,1000), >=1000 rows — and three key/non-key combinations,
   ~17 pairs per sub-bucket (~150 per portal).
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter, defaultdict

from ..unionability.schemas import Fingerprint, schema_fingerprint
from .labeling import (
    KEY_KEY,
    KEY_NONKEY,
    NONKEY_NONKEY,
    LabeledPair,
    LineageOracle,
    key_combination,
    pair_semantic_type,
)
from .expansion import pair_expansion_ratio
from .pairs import JoinablePair, JoinabilityAnalysis

SIZE_BUCKETS = ("10-100", "100-1000", ">=1000")
KEY_COMBOS = (KEY_KEY, KEY_NONKEY, NONKEY_NONKEY)

#: The paper's target per (size bucket, key combo) sub-bucket.
PER_SUBBUCKET = 17


def size_bucket(num_rows: int) -> str | None:
    """The paper's T1-size bucket, or None for tables under 10 rows."""
    if num_rows < 10:
        return None
    if num_rows < 100:
        return SIZE_BUCKETS[0]
    if num_rows < 1000:
        return SIZE_BUCKETS[1]
    return SIZE_BUCKETS[2]


@dataclasses.dataclass
class SamplePlan:
    """Bookkeeping of the stratified sampling run."""

    requested_per_subbucket: int
    filled: Counter
    #: Draws made until the sample could no longer grow or the budget
    #: of ``per_subbucket * 9 * 60`` draws ran out.
    attempts: int


def stratified_sample(
    analysis: JoinabilityAnalysis,
    oracle: LineageOracle,
    seed: int = 0,
    per_subbucket: int = PER_SUBBUCKET,
) -> tuple[list[LabeledPair], SamplePlan]:
    """Draw and label a stratified sample of joinable pairs.

    Sub-buckets that the portal cannot fill (small corpora may simply
    lack, say, key-key pairs among tiny tables) are left short, and the
    plan records what was achieved.

    A draw is a (``T1`` column, ``T2``) choice, and its outcome is
    fixed before the first one: the pair it proposes and that pair's
    sub-bucket, or a rejection that holds whatever was drawn before
    (``T1`` under 10 rows, or the same schema).  Each is resolved once,
    and the loop stops when no draw could still be accepted.  That stop
    is exact: a seen pair stays seen and a full sub-bucket stays full,
    so every later draw would be rejected.  The draws up to the stop
    and the sample are those of a loop that spends its whole budget.
    """
    rng = random.Random(f"{seed}:{analysis.portal_code}:sample")
    profiles = analysis.profiles
    by_table = _joinable_columns_by_table(analysis)
    joinable_tables = sorted(by_table)
    neighbor_tables, draws = _resolve_draws(analysis)
    # The draws that would be accepted now, and what retires them.
    live = set(draws)
    by_pair: dict[JoinablePair, list[tuple[int, int]]] = defaultdict(list)
    by_subbucket: dict[tuple[str, str], list[tuple[int, int]]] = (
        defaultdict(list)
    )
    for draw, (pair, subbucket) in draws.items():
        by_pair[pair].append(draw)
        by_subbucket[subbucket].append(draw)
    filled: Counter = Counter()
    labeled: list[LabeledPair] = []

    attempts_budget = per_subbucket * len(SIZE_BUCKETS) * len(KEY_COMBOS) * 60
    attempts = 0
    while live and attempts < attempts_budget:
        attempts += 1
        t1 = rng.choice(joinable_tables)
        column_id = rng.choice(by_table[t1])
        t2 = rng.choice(neighbor_tables[column_id])
        if (column_id, t2) not in live:
            continue
        pair, subbucket = draws[(column_id, t2)]
        live.difference_update(by_pair[pair])
        filled[subbucket] += 1
        if filled[subbucket] >= per_subbucket:
            live.difference_update(by_subbucket[subbucket])
        judgment = oracle.judge(analysis, pair)
        labeled.append(
            LabeledPair(
                pair=pair,
                label=judgment.label,
                pattern=judgment.pattern,
                same_dataset=(
                    analysis.tables[t1].dataset_id
                    == analysis.tables[t2].dataset_id
                ),
                key_combo=subbucket[1],
                semantic_type=pair_semantic_type(
                    profiles[pair.left], profiles[pair.right]
                ),
                size_bucket=subbucket[0],
                expansion_ratio=pair_expansion_ratio(analysis, pair),
            )
        )
    plan = SamplePlan(
        requested_per_subbucket=per_subbucket,
        filled=filled,
        attempts=attempts,
    )
    return labeled, plan


def _joinable_columns_by_table(
    analysis: JoinabilityAnalysis,
) -> dict[int, list[int]]:
    by_table: dict[int, list[int]] = defaultdict(list)
    for column_id in analysis.column_neighbors:
        by_table[analysis.profiles[column_id].table_index].append(column_id)
    return {table: sorted(columns) for table, columns in by_table.items()}


def _resolve_draws(
    analysis: JoinabilityAnalysis,
) -> tuple[
    dict[int, list[int]],
    dict[tuple[int, int], tuple[JoinablePair, tuple[str, str]]],
]:
    """Each joinable column's ``T2`` choices and every draw's outcome.

    Returns, per column, the sorted tables it joins with (the list
    ``T2`` is drawn from) and, per draw ``(column, T2)`` that is not
    rejected outright, the pair with ``T2``'s best column (highest
    Jaccard, the first in neighbour order on ties) and its
    ``(size bucket, key combo)`` sub-bucket, bucketed by ``T1``'s rows.
    """
    profiles = analysis.profiles
    pairs = {(pair.left, pair.right): pair for pair in analysis.pairs}
    fingerprints: dict[int, Fingerprint] = {}

    def fingerprint(table_index: int) -> Fingerprint:
        if table_index not in fingerprints:
            fingerprints[table_index] = schema_fingerprint(
                analysis.tables[table_index].clean
            )
        return fingerprints[table_index]

    def jaccard(left: int, right: int) -> float:
        pair = pairs.get((min(left, right), max(left, right)))
        return pair.jaccard if pair else 0.0

    neighbor_tables: dict[int, list[int]] = {}
    draws: dict[tuple[int, int], tuple[JoinablePair, tuple[str, str]]] = {}
    for column_id, neighbors in analysis.column_neighbors.items():
        best: dict[int, int] = {}
        for other in neighbors:
            t2 = profiles[other].table_index
            if t2 not in best or (
                jaccard(column_id, other) > jaccard(column_id, best[t2])
            ):
                best[t2] = other
        neighbor_tables[column_id] = sorted(best)
        t1 = profiles[column_id].table_index
        bucket = size_bucket(profiles[column_id].num_rows)
        if bucket is None:
            continue
        for t2, other in best.items():
            left, right = sorted((column_id, other))
            pair = pairs.get((left, right))
            if pair is None or fingerprint(t1) == fingerprint(t2):
                continue
            combo = key_combination(profiles[left], profiles[right])
            draws[(column_id, t2)] = (pair, (bucket, combo))
    return neighbor_tables, draws
