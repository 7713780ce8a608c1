"""Sub-quadratic joinable-pair search: two exact filters, then verify.

The exact all-pairs walk in :mod:`repro.joinability.pairs` charges one
tick per posting comparison, which is quadratic in the size of popular
posting lists.  This module finds the same pairs from far fewer
candidates while keeping the **exact-verify fidelity contract**: every
candidate that survives filtering is verified with the same exact
Jaccard arithmetic the all-pairs path uses, so the emitted
:class:`~repro.joinability.pairs.JoinablePair` set is byte-identical —
same ints, same floats, same order — and only the *candidate count*
changes.

Candidate generation is a conjunction of two filters, both exact:

* **prefix filter** (PPJoin, Xiao et al. 2008) — order all tokens by
  ascending document frequency; a column keeps only the
  ``|A| - ceil(t*|A|) + 1`` rarest tokens as its *prefix*.  Two columns
  with Jaccard >= t must share a prefix token (for J >= t the overlap
  is at least ``t * max(|A|, |B|)``, and the first common token in the
  global order falls inside both prefixes), so enumerating pairs from
  prefix posting lists is a **provable superset** of the answer;
* **size filter** — J >= t implies ``min(|A|,|B|) >= t * max(|A|,|B|)``.

Neither filter can drop a joinable pair, so the whole path has recall
1.0 by construction, not probabilistically.  Both float comparisons are
slack in the safe direction: ``ceil(t*n - 1e-9)`` can only
under-estimate the overlap requirement (lengthening the prefix), and
``min + 1e-9 >= t * max`` can only admit extra candidates.

Only the prefix *length* reads the threshold.  The profiles, the
document frequencies and so each profile's token order depend only on
the tables and the unique-value floor, so a portal's searches at 0.9
and 0.7 share one :class:`JoinSearchState`: the first builds it, later
ones take their prefixes from its order and charge the profile ticks
a fresh build would (:func:`~repro.joinability.index.replay_profile_ticks`).

The MinHash signature code below (:func:`compute_table_signatures` and
its types) is not part of the pair search.  It stays only because the
wall-clock benchmark calls
:meth:`~repro.core.study.PortalStudy.join_signatures` and wraps
:func:`compute_table_signatures` by name; delete it with the next
benchmark change.  The module name and :func:`analyze_joinability_lsh`
stay for the same reason.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter, defaultdict

from ..ingest.pipeline import IngestedTable
from ..obs.profile import prof_scope
from ..resilience.budget import UNMETERED, BudgetExceeded, WorkMeter
from .index import (
    MIN_UNIQUE_VALUES,
    ColumnProfile,
    build_profiles,
    normalize_value,
    replay_profile_ticks,
)
from .minhash import MinHasher, _stable_hash
from .pairs import (
    JACCARD_THRESHOLD,
    JoinabilityAnalysis,
    JoinablePair,
    assemble_joinability,
)

#: Permutations per column signature.
NUM_PERM = 64


@dataclasses.dataclass(frozen=True)
class ColumnSignature:
    """One qualifying column's MinHash signature."""

    column_name: str
    num_unique: int
    signature: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class TableJoinSignatures:
    """Signatures of one table's qualifying columns, in table order."""

    table_id: str
    columns: tuple[ColumnSignature, ...]


@dataclasses.dataclass(frozen=True)
class SignatureMemo:
    """A hasher plus the permuted hash vector of every value it has hashed.

    One portal's tables share one memo: the hasher is built once rather
    than once per table, and a value repeated across tables (the
    paper's §4 finding: OGDP columns repeat heavily) is hashed once.
    The vectors are a pure function of the hasher, so a memo never
    changes a result.
    """

    hasher: MinHasher
    vectors: dict[str, tuple[int, ...]] = dataclasses.field(
        default_factory=dict
    )

    @classmethod
    def create(cls, seed: int = 1) -> "SignatureMemo":
        """An empty memo over the :data:`NUM_PERM` hasher of *seed*."""
        return cls(MinHasher.create(num_perm=NUM_PERM, seed=seed))


def signature_of_values(
    values: frozenset[str] | set[str],
    hasher: MinHasher,
    cache: dict[str, tuple[int, ...]] | None = None,
) -> tuple[int, ...]:
    """MinHash signature of a normalized value set.

    Identical to :meth:`MinHasher.signature`, but with an optional
    per-corpus *cache* of each value's permuted hash vector (a
    :attr:`SignatureMemo.vectors`), so a repeated value costs one dict
    lookup.
    """
    if cache is None:
        return hasher.signature(values)
    vectors = []
    for value in values:
        vector = cache.get(value)
        if vector is None:
            vector = cache[value] = hasher.vector(_stable_hash(value))
        vectors.append(vector)
    return hasher.fold(vectors)


def compute_table_signatures(
    table,
    table_id: str,
    *,
    min_unique: int = MIN_UNIQUE_VALUES,
    seed: int = 1,
    meter: WorkMeter = UNMETERED,
    memo: SignatureMemo | None = None,
) -> TableJoinSignatures:
    """MinHash signatures of one cleaned table's qualifying columns.

    Qualifies columns by :func:`build_profiles`' rule (raw
    ``distinct_count`` against the unique-value floor) and charges one
    ``join.signature`` tick per normalized distinct value.  A shared
    *memo* must have been created with the same *seed*; without one,
    the table gets its own.
    """
    if memo is None:
        memo = SignatureMemo.create(seed)
    columns: list[ColumnSignature] = []
    with prof_scope(meter, "minhash", "signature"):
        for column in table.columns:
            if column.distinct_count < min_unique:
                continue
            values = frozenset(
                normalize_value(v) for v in column.distinct_values()
            )
            meter.tick(len(values), op="join.signature")
            columns.append(
                ColumnSignature(
                    column_name=column.name,
                    num_unique=len(values),
                    signature=signature_of_values(
                        values, memo.hasher, memo.vectors
                    ),
                )
            )
    return TableJoinSignatures(table_id=table_id, columns=tuple(columns))


def prefix_length(num_unique: int, threshold: float) -> int:
    """How many rarest tokens a column's prefix must keep.

    A pair with Jaccard >= t overlaps in at least ``ceil(t * n)``
    tokens (n the larger set), so the ``n - ceil(t*n) + 1`` rarest
    tokens of each side must share one.  The epsilon guards against
    float round-up at exact multiples (e.g. ``0.7 * 10``); rounding
    the requirement *down* only lengthens the prefix, preserving the
    superset guarantee.
    """
    alpha = max(1, math.ceil(threshold * num_unique - 1e-9))
    return num_unique - alpha + 1


def token_ranks(profiles: list[ColumnProfile]) -> list[list[int]]:
    """Every profile's tokens as global ranks, ascending.

    Rank order is ascending document frequency (the number of profiles
    holding the token), ties broken by value: the order the prefix
    filter reads.  One sort ranks every token of the portal; each
    profile then sorts only its ints.
    """
    frequency: Counter = Counter()
    for profile in profiles:
        frequency.update(profile.values)
    ranked = sorted(zip(frequency.values(), frequency))
    rank = {value: index for index, (_, value) in enumerate(ranked)}
    return [sorted(map(rank.__getitem__, p.values)) for p in profiles]


def generate_candidates(
    profiles: list[ColumnProfile],
    threshold: float = JACCARD_THRESHOLD,
    meter: WorkMeter = UNMETERED,
    order: list[list[int]] | None = None,
) -> list[tuple[int, int]]:
    """Prefix-filtered cross-table candidate pairs, sorted.

    A provable superset of every pair with Jaccard >= *threshold* (see
    module docstring).  *order* is :func:`token_ranks` of *profiles*,
    computed here when not given.  Prefix construction charges *meter*
    one tick per kept prefix token and enumeration one tick per
    posting comparison — the directly comparable analogue of the
    all-pairs walk's per-posting-comparison tick, just over far shorter
    postings.  A budget blowup propagates, exactly like the all-pairs
    overlap accumulation: a partial candidate set would silently *lose*
    pairs.
    """
    if not profiles:
        return []
    if order is None:
        order = token_ranks(profiles)
    postings: dict[int, list[int]] = defaultdict(list)
    with prof_scope(meter, "lsh", "prefix"):
        for profile, ranks in zip(profiles, order):
            length = prefix_length(profile.num_unique, threshold)
            meter.tick(length, op="join.prefix")
            for token in ranks[:length]:
                postings[token].append(profile.column_id)
    candidates: set[tuple[int, int]] = set()
    with prof_scope(meter, "lsh", "candidates"):
        for posting in postings.values():
            if len(posting) < 2:
                continue
            for i, left in enumerate(posting):
                left_table = profiles[left].table_index
                for right in posting[i + 1 :]:
                    meter.tick(op="join.candidate")
                    if profiles[right].table_index == left_table:
                        continue
                    candidates.add((left, right))
    return sorted(candidates)


def lsh_joinable_pairs_flagged(
    profiles: list[ColumnProfile],
    threshold: float = JACCARD_THRESHOLD,
    meter: WorkMeter = UNMETERED,
    order: list[list[int]] | None = None,
) -> tuple[list[JoinablePair], bool]:
    """The indexed sibling of ``joinable_pairs_flagged``: same answers.

    Prefix candidates that pass the size filter are counted in the same
    ``join.candidate_pairs`` event the all-pairs path emits — the
    number the tier-1 join pin asserts — and verified with identical
    exact-Jaccard arithmetic, charging the same one-tick-per-candidate
    ``join.jaccard`` op.  The verify loop truncates cleanly over the
    sorted candidate list, matching the all-pairs truncation contract.
    *order* is passed to :func:`generate_candidates`.
    """
    candidates = generate_candidates(profiles, threshold, meter, order)
    meter.event("join.prefix_candidates", len(candidates))
    survivors: list[tuple[int, int]] = []
    with prof_scope(meter, "lsh", "size_filter"):
        for left, right in candidates:
            meter.tick(op="join.filter")
            small = min(
                profiles[left].num_unique, profiles[right].num_unique
            )
            large = max(
                profiles[left].num_unique, profiles[right].num_unique
            )
            if small + 1e-9 >= threshold * large:
                survivors.append((left, right))
    meter.event("join.candidate_pairs", len(survivors))
    pairs: list[JoinablePair] = []
    truncated = False
    try:
        with prof_scope(meter, "verify", "jaccard"):
            for left, right in survivors:
                meter.tick(op="join.jaccard")
                overlap = len(
                    profiles[left].values & profiles[right].values
                )
                union = (
                    profiles[left].num_unique
                    + profiles[right].num_unique
                    - overlap
                )
                jaccard = overlap / union if union else 0.0
                if jaccard >= threshold:
                    pairs.append(
                        JoinablePair(
                            left=left,
                            right=right,
                            jaccard=jaccard,
                            overlap=overlap,
                        )
                    )
    except BudgetExceeded:
        truncated = True
    meter.event("join.pairs_verified", len(pairs))
    if not truncated:
        meter.event("join.pairs_pruned", len(survivors) - len(pairs))
    pairs.sort(key=lambda p: (p.left, p.right))
    return pairs, truncated


@dataclasses.dataclass
class JoinSearchState:
    """What one portal's pair searches share, whatever their threshold.

    Holds the :func:`build_profiles` result for the tables it was built
    for, every profile's :func:`token_ranks`, and a memo of normalized
    value counts by column id that expansion ratios fill lazily (every
    analysis searched from the state holds the same dict).  It is
    complete before its first search charges a ``join.prefix`` tick, so
    a budget that runs out while building leaves it empty and one that
    runs out later leaves it whole.
    """

    #: The tables and floor it was built for; None until built.
    tables: list[IngestedTable] | None = None
    min_unique: int = MIN_UNIQUE_VALUES
    profiles: list[ColumnProfile] = dataclasses.field(default_factory=list)
    total_columns: int = 0
    order: list[list[int]] = dataclasses.field(default_factory=list)
    value_counts: dict[int, Counter] = dataclasses.field(default_factory=dict)

    def prepare(
        self,
        tables: list[IngestedTable],
        min_unique: int,
        meter: WorkMeter,
    ) -> None:
        """Build the state, or charge what building it would charge."""
        if self.tables is None:
            profiles, total_columns = build_profiles(
                tables, min_unique=min_unique, meter=meter
            )
            self.order = token_ranks(profiles)
            self.profiles, self.total_columns = profiles, total_columns
            self.tables, self.min_unique = tables, min_unique
        elif tables is not self.tables or min_unique != self.min_unique:
            raise ValueError(
                "a join search state serves only the tables and "
                "unique-value floor it was built for"
            )
        else:
            replay_profile_ticks(tables, meter)


def analyze_joinability_lsh(
    portal_code: str,
    tables: list[IngestedTable],
    threshold: float = JACCARD_THRESHOLD,
    min_unique: int = MIN_UNIQUE_VALUES,
    meter: WorkMeter = UNMETERED,
    state: JoinSearchState | None = None,
) -> JoinabilityAnalysis:
    """Index-backed drop-in for ``analyze_joinability``: same analysis.

    The emitted pair set, stats, and neighbor maps are byte-identical
    to the all-pairs analysis, which the fidelity and diff gates
    enforce.  A portal passes its one *state* to every threshold's
    search; without one the search builds a throwaway state, so ticks,
    events and results are the same either way.
    """
    if state is None:
        state = JoinSearchState()
    state.prepare(tables, min_unique, meter)
    pairs, truncated = lsh_joinable_pairs_flagged(
        state.profiles, threshold, meter, state.order
    )
    return assemble_joinability(
        portal_code,
        tables,
        state.profiles,
        state.total_columns,
        pairs,
        truncated,
        value_counts=state.value_counts,
    )
