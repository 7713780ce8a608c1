"""Instantiation of topic blueprints into concrete base tables.

A :class:`TopicInstance` is one logical database: resolved dimension
value sets, deterministic attribute maps (the planted FDs), and a fact
row list.  Publication styles consume instances and emit CSV tables.
"""

from __future__ import annotations

import dataclasses
import random
import zlib

from . import vocab
from .domains import Domain, DomainKind, DomainRegistry, code_domain
from .schemas import DimSpec, MeasureSpec, TopicBlueprint

#: Portal-specific name of the shared "{region}" dimension column.
REGION_COLUMN = {"SG": "town", "CA": "province", "UK": "council", "US": "state"}


def stable_index(value, modulus: int) -> int:
    """Deterministic hash of a cell value into ``range(modulus)``.

    Uses CRC32 so attribute maps (e.g. species -> species group) are the
    same across families and across process runs — real-world taxonomies
    do not change between datasets.
    """
    return zlib.crc32(str(value).encode("utf-8")) % modulus


@dataclasses.dataclass
class DimInstance:
    """A resolved dimension: concrete values plus FD attribute maps."""

    spec: DimSpec
    column: str
    domain: Domain
    values: list
    #: attribute column -> {dim value -> attribute value}
    attribute_maps: dict[str, dict]
    #: attribute column -> domain name of the attribute values
    attribute_domains: dict[str, str]

    @property
    def is_entity(self) -> bool:
        """Whether this dimension is published as an entity table."""
        return self.spec.is_entity


@dataclasses.dataclass
class TopicInstance:
    """One instantiated logical database for a topic."""

    blueprint: TopicBlueprint
    portal: str
    family_id: str
    dims: list[DimInstance]
    measures: tuple[MeasureSpec, ...]
    #: Fact rows: one tuple per row, dims first (blueprint order) then
    #: measures.
    fact_rows: list[tuple]

    @property
    def fact_columns(self) -> list[str]:
        """Fact column names: dimensions then measures, in order."""
        return [d.column for d in self.dims] + [m.column for m in self.measures]

    def dim(self, column: str) -> DimInstance:
        """The dimension instance whose column name is *column*."""
        for instance in self.dims:
            if instance.column == column:
                return instance
        raise KeyError(column)

    @property
    def temporal_column(self) -> str | None:
        """Resolved name of the periodic axis column, if any."""
        return self._resolve_axis(self.blueprint.temporal_dim)

    @property
    def partition_column(self) -> str | None:
        """Resolved name of the partition axis column, if any."""
        return self._resolve_axis(self.blueprint.partition_dim)

    def _resolve_axis(self, raw: str | None) -> str | None:
        if raw is None:
            return None
        if raw == "{region}":
            return REGION_COLUMN[self.portal]
        return raw


#: Default measure-resolution mix: (grid size, weight).  Small grids
#: make measure values repeat (killing accidental float "keys"); huge
#: grids leave small tables with effectively unique measures.
DEFAULT_MEASURE_RESOLUTIONS: tuple[tuple[int, float], ...] = (
    (200, 1.0),
    (1000, 1.0),
    (5000, 1.0),
    (100_000, 1.0),
)


def build_instance(
    blueprint: TopicBlueprint,
    registry: DomainRegistry,
    rng: random.Random,
    family_id: str,
    target_rows: int,
    duplicate_rate: float = 0.0,
    coverage_full_probability: float = 0.45,
    measure_resolutions: tuple[tuple[int, float], ...] = DEFAULT_MEASURE_RESOLUTIONS,
    entity_cardinality_scale: float = 1.0,
) -> TopicInstance:
    """Instantiate *blueprint* with roughly *target_rows* fact rows.

    *duplicate_rate* is the probability that a fact combination appears
    twice with different measures (revision rows) — this is what breaks
    composite keys in a fraction of published tables.
    *coverage_full_probability* makes closed-domain coverage bimodal:
    either the whole vocabulary (producing the near-perfect cross-table
    value overlaps behind the paper's high joinability degrees) or a
    clearly partial subset (which never clears the 0.9 Jaccard bar).
    *measure_resolutions* weights the value-grid size each measure
    samples from — the knob behind per-portal key-column frequencies.
    """
    portal = registry.portal
    dims = [
        _build_dim(
            spec, registry, rng, family_id, portal, target_rows,
            coverage_full_probability, entity_cardinality_scale,
        )
        for spec in blueprint.dims
    ]
    steps = [
        _pick_resolution(measure_resolutions, rng)
        for _ in blueprint.measures
    ]
    # Jitter each measure's range per instance so that two families of
    # the same blueprint do not share a value lattice (which would make
    # their measure columns spuriously joinable at Jaccard ~1).
    jittered = tuple(
        dataclasses.replace(
            m, high=m.low + (m.high - m.low) * rng.uniform(0.55, 1.45)
        )
        for m in blueprint.measures
    )
    # Duplicate observations are a property of the *publisher*, not of
    # every table: a minority of families carry revision rows (at a
    # correspondingly higher rate), the rest have clean grains.  This is
    # what lets most entity-grained tables keep real key columns while
    # some become the paper's Anecdote-3 "near-key" cases.
    if rng.random() < 0.3:
        effective_duplicate_rate = duplicate_rate * 3.0
    else:
        effective_duplicate_rate = 0.0
    fact_rows = _build_fact_rows(
        dims, jittered, steps, rng, target_rows, effective_duplicate_rate
    )
    return TopicInstance(
        blueprint=blueprint,
        portal=portal,
        family_id=family_id,
        dims=dims,
        measures=blueprint.measures,
        fact_rows=fact_rows,
    )


def _pick_resolution(
    resolutions: tuple[tuple[int, float], ...], rng: random.Random
) -> int:
    grids = [grid for grid, _ in resolutions]
    weights = [weight for _, weight in resolutions]
    return rng.choices(grids, weights=weights, k=1)[0]


# ----------------------------------------------------------------------
# dimension resolution
# ----------------------------------------------------------------------
def _build_dim(
    spec: DimSpec,
    registry: DomainRegistry,
    rng: random.Random,
    family_id: str,
    portal: str,
    target_rows: int,
    coverage_full_probability: float = 0.45,
    entity_cardinality_scale: float = 1.0,
) -> DimInstance:
    column = REGION_COLUMN[portal] if spec.column == "{region}" else spec.column
    domain = _resolve_domain(spec.source, registry, family_id)
    if domain.is_closed:
        if spec.coverage[0] >= 0.99 or rng.random() < coverage_full_probability:
            # Full vocabulary: this column will overlap near-perfectly
            # with every other full-coverage column of the same domain.
            coverage = 1.0
        else:
            coverage = rng.uniform(0.35, max(0.36, spec.coverage[1] * 0.8))
        count = max(2, round(len(domain.values) * coverage))
    else:
        low, high = spec.open_cardinality
        count = rng.randint(low, min(high, max(low, target_rows)))
        count = max(low, min(int(count * entity_cardinality_scale), high * 4))
    values = domain.draw(rng, count)
    attribute_maps: dict[str, dict] = {}
    attribute_domains: dict[str, str] = {}
    for attribute in spec.attributes:
        if attribute.probability < 1.0 and rng.random() >= attribute.probability:
            continue
        attr_domain_name, mapping = _build_attribute_map(
            attribute.source, values, registry, rng
        )
        attribute_maps[attribute.column] = mapping
        attribute_domains[attribute.column] = attr_domain_name
    return DimInstance(
        spec=spec,
        column=column,
        domain=domain,
        values=values,
        attribute_maps=attribute_maps,
        attribute_domains=attribute_domains,
    )


def _resolve_domain(source: str, registry: DomainRegistry, family_id: str) -> Domain:
    """Resolve a DimSpec source string into a concrete domain."""
    if source.startswith("code:"):
        prefix = source.split(":", 1)[1]
        return code_domain(f"{family_id}.{prefix}", prefix)
    if source.startswith("derived:"):
        kind = source.split(":", 1)[1]
        return _derived_name_domain(kind, registry.portal)
    if source in ("geo.region", "geo.city", "geo.point"):
        return registry.get(f"{source}.{registry.portal}")
    return registry.get(source)


def _build_attribute_map(
    source: str, keys: list, registry: DomainRegistry, rng: random.Random
) -> tuple[str, dict]:
    """Build the deterministic key -> attribute mapping (a planted FD)."""
    if source.startswith("derived:"):
        kind = source.split(":", 1)[1]
        factory = _DERIVED_ATTRIBUTES[kind]
        return f"derived.{kind}", {key: factory(key, rng) for key in keys}
    if source in ("geo.region", "geo.city", "geo.point"):
        domain = registry.get(f"{source}.{registry.portal}")
    elif source.startswith("str."):
        domain = registry.get(source)
        # open string attribute: one generated value per key
        generated = domain.draw(rng, len(keys))
        return domain.name, dict(zip(keys, generated))
    else:
        domain = registry.get(source)
    values = domain.values
    assert values is not None, f"attribute source {source} must be closed"
    return domain.name, {
        key: values[stable_index(key, len(values))] for key in keys
    }


# ----------------------------------------------------------------------
# derived (open, name-like) domains
# ----------------------------------------------------------------------
def _make_names(pool: list[str], suffixes: tuple[str, ...]):
    def make(rng: random.Random, count: int) -> list[str]:
        """Draw *count* distinct generated names."""
        names: set[str] = set()
        while len(names) < count:
            base = rng.choice(pool)
            suffix = rng.choice(suffixes)
            candidate = f"{base} {suffix}"
            if candidate in names:
                candidate = f"{candidate} {rng.randint(2, 99)}"
            names.add(candidate)
        return sorted(names)[:count]

    return make


_DERIVED_NAME_FACTORIES = {
    "school": _make_names(
        vocab.STREET_NAMES + vocab.PARK_NAMES,
        ("Primary School", "Secondary School", "Academy", "College"),
    ),
    "park": _make_names(vocab.PARK_NAMES, ("Park", "Gardens", "Common", "Reserve")),
    "library": _make_names(
        vocab.LIBRARY_BRANCH_PREFIXES, ("Branch", "Library", "Community Library")
    ),
    "facility": _make_names(
        vocab.PARK_NAMES + vocab.STREET_NAMES,
        ("General Hospital", "Medical Centre", "Health Centre", "Clinic"),
    ),
}


def _derived_name_domain(kind: str, portal: str) -> Domain:
    """Open per-portal name domain for schools/parks/libraries/etc."""
    return Domain(
        name=f"name.{kind}.{portal}",
        kind=DomainKind.STRING,
        make_values=_DERIVED_NAME_FACTORIES[kind],
    )


_SEVERITIES = ("Minor", "Moderate", "Major", "Severe")


def _derived_fund_desc(key, rng: random.Random) -> str:
    department = vocab.DEPARTMENTS[stable_index(key, len(vocab.DEPARTMENTS))]
    fund_type = vocab.FUND_TYPES[stable_index(str(key) + "t", len(vocab.FUND_TYPES))]
    return f"{department} {fund_type} Fund"


def _derived_severity(key, rng: random.Random) -> str:
    return _SEVERITIES[stable_index(key, len(_SEVERITIES))]


def _derived_region_code(key, rng: random.Random) -> str:
    """Deterministic standard code for a geographic unit (like an ISO
    3166-2 code): stable across families, so the same region maps to the
    same code portal-wide."""
    head = "".join(ch for ch in str(key).upper() if ch.isalpha())[:2] or "XX"
    return f"{head}-{100 + stable_index(key, 900)}"


_DERIVED_ATTRIBUTES = {
    "fund_desc": _derived_fund_desc,
    "severity": _derived_severity,
    "region_code": _derived_region_code,
}


# ----------------------------------------------------------------------
# fact rows
# ----------------------------------------------------------------------
def _build_fact_rows(
    dims: list[DimInstance],
    measures: tuple[MeasureSpec, ...],
    measure_steps: list[int],
    rng: random.Random,
    target_rows: int,
    duplicate_rate: float,
) -> list[tuple]:
    """Sample the fact grid to roughly *target_rows* rows.

    When the full dimension cross-product is small enough we emit it all
    (yielding a clean composite key); otherwise we sample distinct
    combinations.  Duplicate observations are then injected at
    *duplicate_rate*.
    """
    grid = 1
    for dim in dims:
        grid *= len(dim.values)
    combos: list[tuple]
    if grid <= target_rows * 2:
        combos = [()]
        for dim in dims:
            combos = [prefix + (value,) for prefix in combos for value in dim.values]
    else:
        seen: set[tuple] = set()
        attempts = 0
        while len(seen) < target_rows and attempts < target_rows * 20:
            attempts += 1
            seen.add(tuple(rng.choice(dim.values) for dim in dims))
        combos = sorted(seen, key=str)
        rng.shuffle(combos)

    rows: list[tuple] = []
    for combo in combos:
        repetitions = 2 if rng.random() < duplicate_rate else 1
        for _ in range(repetitions):
            rows.append(
                combo
                + tuple(
                    _sample_measure(m, grid, rng)
                    for m, grid in zip(measures, measure_steps)
                )
            )
    return rows


def _sample_measure(measure: MeasureSpec, grid: int, rng: random.Random):
    """Sample a measure value from a *grid*-point lattice of its range.

    Real published statistics are rounded (percentages to one decimal,
    amounts to the dollar), so their values repeat; the grid size
    controls how often, which in turn decides whether the column
    accidentally becomes a key.
    """
    position = rng.randint(0, grid)
    span = measure.high - measure.low
    if measure.integral:
        step = max(1, int(span / grid))
        return min(int(measure.high), int(measure.low) + position * step)
    return round(measure.low + position * (span / grid), 2)
