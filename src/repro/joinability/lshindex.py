"""Sub-quadratic joinable-pair search: prefix filter + MinHash-LSH.

ROADMAP item 3.  The exact all-pairs walk in
:mod:`repro.joinability.pairs` charges one tick per posting comparison,
which is quadratic in the size of popular posting lists and dominates
every study run.  This module promotes the ablation-only MinHash code
(:mod:`repro.joinability.minhash`) into the production candidate path
while keeping the **exact-verify fidelity contract**: every candidate
that survives filtering is verified with the same exact Jaccard
arithmetic the all-pairs path uses, so the emitted
:class:`~repro.joinability.pairs.JoinablePair` set is byte-identical —
same ints, same floats, same order — and only the *candidate count*
changes.

Candidate generation is a conjunction of three filters:

* **prefix filter** (PPJoin, Xiao et al. 2008) — order all tokens by
  ascending document frequency; a column keeps only the
  ``|A| - ceil(t*|A|) + 1`` rarest tokens as its *prefix*.  Two columns
  with Jaccard >= t must share a prefix token (for J >= t the overlap
  is at least ``t * max(|A|, |B|)``, and the first common token in the
  global order falls inside both prefixes), so enumerating pairs from
  prefix posting lists is a **provable superset** of the answer —
  recall 1.0 by construction, not probabilistically;
* **size filter** — J >= t implies ``min(|A|,|B|) >= t * max(|A|,|B|)``
  (also exact);
* **LSH band filter** — banded MinHash signatures (64 permutations in
  32 bands of 2 rows): a pair survives only if some band's signature
  slices agree.  P(no band agrees | J) = (1 - J^2)^32, about 1e-23 at
  J = 0.9 and 4e-10 at J = 0.7 — negligible, and the equal-seed
  equality gates (`build-index --verify`, CI's index-gate, the
  `exact vs lsh` ablation bench) verify it empirically on every corpus
  we ship.  A column whose signature is unavailable (its index-build
  unit was truncated) simply skips this filter, degrading speed, never
  recall.

Both float comparisons are slack in the safe direction:
``ceil(t*n - 1e-9)`` can only under-estimate the overlap requirement
(lengthening the prefix), and ``min + 1e-9 >= t * max`` can only admit
extra candidates.

Signatures themselves are per-table work, so
:mod:`repro.resilience.units` plans one ``joinsig`` unit per screened
table and ``--workers N`` builds them in parallel under the existing
crash supervision; :mod:`repro.search.indexstore` persists the verified
pair set as the on-disk join index the data lake serves from.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict

from ..ingest.pipeline import IngestedTable
from ..obs.profile import prof_scope
from ..resilience.budget import BudgetExceeded, WorkMeter
from .index import (
    MIN_UNIQUE_VALUES,
    ColumnProfile,
    build_profiles,
    normalize_value,
)
from .minhash import MinHasher, _stable_hash
from .pairs import (
    JACCARD_THRESHOLD,
    JoinabilityAnalysis,
    JoinablePair,
    assemble_joinability,
)


@dataclasses.dataclass(frozen=True)
class LshParams:
    """Banding geometry of the production join index.

    The defaults (64 permutations, 32 bands of 2 rows) are chosen so
    the per-band agreement probability ``J^2`` makes a miss at either
    paper threshold (0.9 primary, 0.7 supplementary) astronomically
    unlikely — see the module docstring — while keeping signatures
    small enough to journal per unit.
    """

    num_perm: int = 64
    bands: int = 32

    def __post_init__(self) -> None:
        if self.bands < 1 or self.num_perm < self.bands:
            raise ValueError("need at least one row per band")
        if self.num_perm % self.bands:
            raise ValueError("num_perm must divide evenly into bands")

    @property
    def rows_per_band(self) -> int:
        """Signature positions hashed into each band."""
        return self.num_perm // self.bands


DEFAULT_LSH_PARAMS = LshParams()


@dataclasses.dataclass(frozen=True)
class ColumnSignature:
    """One qualifying column's MinHash signature, unit-transportable."""

    column_name: str
    num_unique: int
    signature: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class TableJoinSignatures:
    """The ``joinsig`` unit result: signatures of one table's columns.

    ``columns`` lists qualifying columns in table order — the same
    order :func:`~repro.joinability.index.build_profiles` assigns
    profile ids — so the supervisor aligns signatures to profiles
    positionally, double-checked by name and distinct count.
    """

    table_id: str
    columns: tuple[ColumnSignature, ...]

    def to_payload(self) -> dict:
        """JSON-serializable form for shard/journal transport."""
        return {
            "table_id": self.table_id,
            "columns": [
                {
                    "name": c.column_name,
                    "n": c.num_unique,
                    "sig": list(c.signature),
                }
                for c in self.columns
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TableJoinSignatures":
        """Rebuild from :meth:`to_payload` output."""
        return cls(
            table_id=payload["table_id"],
            columns=tuple(
                ColumnSignature(
                    column_name=c["name"],
                    num_unique=c["n"],
                    signature=tuple(c["sig"]),
                )
                for c in payload["columns"]
            ),
        )


def empty_table_signatures(table_id: str) -> TableJoinSignatures:
    """The budget fallback: no signatures, so no band filtering.

    Pairs touching this table's columns fall back to prefix + size
    filtering only — slower candidate generation, identical answers.
    """
    return TableJoinSignatures(table_id=table_id, columns=())


@dataclasses.dataclass(frozen=True)
class SignatureMemo:
    """A hasher plus the permuted hash vector of every value it has hashed.

    One portal's in-process ``joinsig`` units share one memo: the hasher
    is built once rather than once per table, and a value repeated
    across tables (the paper's §4 finding: OGDP columns repeat heavily)
    is hashed once.  The vectors are a pure function of the hasher, so a
    memo never changes a result.
    """

    hasher: MinHasher
    vectors: dict[str, tuple[int, ...]] = dataclasses.field(
        default_factory=dict
    )

    @classmethod
    def create(
        cls, params: LshParams = DEFAULT_LSH_PARAMS, seed: int = 1
    ) -> "SignatureMemo":
        """An empty memo over the hasher of *params* and *seed*."""
        return cls(MinHasher.create(num_perm=params.num_perm, seed=seed))


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
    params: LshParams = DEFAULT_LSH_PARAMS,
    seed: int = 1,
    meter: WorkMeter | None = None,
    memo: SignatureMemo | None = None,
) -> TableJoinSignatures:
    """The ``joinsig`` unit computation over one cleaned table.

    Mirrors :func:`build_profiles`' qualifying rule exactly (raw
    ``distinct_count`` against the unique-value floor) so the produced
    signatures align one-to-one with the profiles the supervisor
    builds.  Charges one tick per normalized distinct value, so a
    data-volume poison table budgets out here like it would in any
    other per-table stage.  A shared *memo* must have been created
    with the same *params* and *seed*; without one, the table gets
    its own.
    """
    if memo is None:
        memo = SignatureMemo.create(params, seed)
    columns: list[ColumnSignature] = []
    with prof_scope(meter, "minhash", "signature"):
        for column in table.columns:
            if column.distinct_count < min_unique:
                continue
            values = frozenset(
                normalize_value(v) for v in column.distinct_values()
            )
            if meter is not None:
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


def align_signatures(
    profiles: list[ColumnProfile],
    table_signatures: dict[int, TableJoinSignatures],
) -> dict[int, tuple[int, ...] | None]:
    """Map profile column ids to their unit-computed signatures.

    Alignment is positional within each table (both sides enumerate
    qualifying columns in table order) and verified by column name and
    distinct count; any mismatch — or a table whose unit was truncated
    to the empty fallback — yields ``None``, meaning "no band filter
    for this column" rather than a wrong filter.
    """
    aligned: dict[int, tuple[int, ...] | None] = {}
    positions: dict[int, int] = defaultdict(int)
    for profile in profiles:
        signatures = table_signatures.get(profile.table_index)
        signature: tuple[int, ...] | None = None
        if signatures is not None:
            position = positions[profile.table_index]
            positions[profile.table_index] += 1
            if position < len(signatures.columns):
                entry = signatures.columns[position]
                if (
                    entry.column_name == profile.column_name
                    and entry.num_unique == profile.num_unique
                ):
                    signature = tuple(entry.signature)
        aligned[profile.column_id] = signature
    return aligned


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


def generate_candidates(
    profiles: list[ColumnProfile],
    threshold: float = JACCARD_THRESHOLD,
    meter: WorkMeter | None = None,
) -> list[tuple[int, int]]:
    """Prefix-filtered cross-table candidate pairs, sorted.

    A provable superset of every pair with Jaccard >= *threshold* (see
    module docstring).  With a *meter*, prefix construction charges one
    tick per kept prefix token and enumeration one tick per posting
    comparison — the directly comparable analogue of the all-pairs
    walk's per-posting-comparison tick, just over far shorter postings.
    A budget blowup propagates, exactly like the all-pairs overlap
    accumulation: a partial candidate set would silently *lose* pairs.
    """
    if not profiles:
        return []
    frequency: dict[str, int] = {}
    for profile in profiles:
        for value in profile.values:
            frequency[value] = frequency.get(value, 0) + 1
    postings: dict[str, list[int]] = defaultdict(list)
    with prof_scope(meter, "lsh", "prefix"):
        for profile in profiles:
            length = prefix_length(profile.num_unique, threshold)
            if meter is not None:
                meter.tick(length, op="join.prefix")
            prefix = sorted(
                profile.values, key=lambda v: (frequency[v], v)
            )[:length]
            for value in prefix:
                postings[value].append(profile.column_id)
    candidates: set[tuple[int, int]] = set()
    with prof_scope(meter, "lsh", "candidates"):
        for posting in postings.values():
            if len(posting) < 2:
                continue
            for i, left in enumerate(posting):
                left_table = profiles[left].table_index
                for right in posting[i + 1 :]:
                    if meter is not None:
                        meter.tick(op="join.candidate")
                    if profiles[right].table_index == left_table:
                        continue
                    candidates.add((left, right))
    return sorted(candidates)


def _bands_agree(
    left: tuple[int, ...], right: tuple[int, ...], params: LshParams
) -> bool:
    """Whether any LSH band's signature slices are equal."""
    rows = params.rows_per_band
    for band in range(params.bands):
        low = band * rows
        if left[low : low + rows] == right[low : low + rows]:
            return True
    return False


def lsh_joinable_pairs_flagged(
    profiles: list[ColumnProfile],
    threshold: float = JACCARD_THRESHOLD,
    meter: WorkMeter | None = None,
    *,
    signatures: dict[int, tuple[int, ...] | None] | None = None,
    params: LshParams = DEFAULT_LSH_PARAMS,
    seed: int = 1,
) -> tuple[list[JoinablePair], bool]:
    """The indexed sibling of ``joinable_pairs_flagged``: same answers.

    *signatures* maps profile column ids to MinHash signatures (or
    ``None`` for "unavailable"); omitted entirely, signatures are
    computed inline from the profiles.  Filter survivors are counted in
    the same ``join.candidate_pairs`` event the all-pairs path emits —
    the number the bench gate tracks — and verified with identical
    exact-Jaccard arithmetic, charging the same one-tick-per-candidate
    ``join.jaccard`` op.  The verify loop truncates cleanly over the
    sorted candidate list, matching the all-pairs truncation contract.
    """
    if signatures is None:
        memo = SignatureMemo.create(params, seed)
        signatures = {}
        with prof_scope(meter, "minhash", "signature"):
            for profile in profiles:
                if meter is not None:
                    meter.tick(profile.num_unique, op="join.signature")
                signatures[profile.column_id] = signature_of_values(
                    profile.values, memo.hasher, memo.vectors
                )
    candidates = generate_candidates(profiles, threshold, meter)
    if meter is not None:
        meter.event("join.prefix_candidates", len(candidates))
    survivors: list[tuple[int, int]] = []
    with prof_scope(meter, "lsh", "band_filter"):
        for left, right in candidates:
            if meter is not None:
                meter.tick(op="join.filter")
            small = min(
                profiles[left].num_unique, profiles[right].num_unique
            )
            large = max(
                profiles[left].num_unique, profiles[right].num_unique
            )
            if small + 1e-9 < threshold * large:
                continue
            left_sig = signatures.get(left)
            right_sig = signatures.get(right)
            if (
                left_sig is not None
                and right_sig is not None
                and not _bands_agree(left_sig, right_sig, params)
            ):
                continue
            survivors.append((left, right))
    if meter is not None:
        meter.event("join.candidate_pairs", len(survivors))
    pairs: list[JoinablePair] = []
    truncated = False
    try:
        with prof_scope(meter, "verify", "jaccard"):
            for left, right in survivors:
                if meter is not None:
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
    if meter is not None:
        meter.event("join.pairs_verified", len(pairs))
        if not truncated:
            meter.event("join.pairs_pruned", len(survivors) - len(pairs))
    pairs.sort(key=lambda p: (p.left, p.right))
    return pairs, truncated


def analyze_joinability_lsh(
    portal_code: str,
    tables: list[IngestedTable],
    threshold: float = JACCARD_THRESHOLD,
    min_unique: int = MIN_UNIQUE_VALUES,
    meter: WorkMeter | None = None,
    *,
    table_signatures: dict[int, TableJoinSignatures] | None = None,
    params: LshParams = DEFAULT_LSH_PARAMS,
    seed: int = 1,
) -> JoinabilityAnalysis:
    """Index-backed drop-in for ``analyze_joinability``: same analysis.

    *table_signatures* maps table indexes (positions in *tables*) to
    unit-computed signatures; without it, signatures are derived inline
    from the profiles — the serial unpooled path.  Either way the
    emitted pair set, stats, and neighbor maps are byte-identical to
    the all-pairs analysis, which the fidelity and diff gates enforce.
    """
    profiles, total_columns = build_profiles(
        tables, min_unique=min_unique, meter=meter
    )
    signatures = None
    if table_signatures is not None:
        signatures = align_signatures(profiles, table_signatures)
    pairs, truncated = lsh_joinable_pairs_flagged(
        profiles,
        threshold,
        meter,
        signatures=signatures,
        params=params,
        seed=seed,
    )
    return assemble_joinability(
        portal_code, tables, profiles, total_columns, pairs, truncated
    )
