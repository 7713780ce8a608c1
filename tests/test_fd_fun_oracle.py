"""FUN on stripped first-row partitions against the dense-label FUN it replaced.

The oracle below is FUN's lattice walk with its earlier partition
kernel, kept verbatim: dense class labels over every row, a refinement
that re-numbers all rows, and a per-row early-exit check.  The
production walk (:func:`repro.fd.discover_fds`) must build the same
partitions in the same order, so on every table and budget both
produce the same FD list, ``lhs_cards`` and truncation, charge the same
ticks, record the same ``ops.fd.*`` and ``fd.level*`` counters and
attribute the ticks to the same profiler frames.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, Table
from repro.fd import FD, FDSet, discover_fds, fun
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler, prof_scope
from repro.resilience.budget import UNMETERED, BudgetExceeded, WorkMeter

Labels = list[int]

DEFAULT_MAX_LHS = 4


# ----------------------------------------------------------------------
# The dense-label kernel and lattice walk (the oracle), verbatim
# ----------------------------------------------------------------------
def encode_columns(table: Table) -> list[Labels]:
    """Value-id vectors for every column of *table*.

    Each column's cells are mapped to dense integers (nulls get their own
    id), so all later work handles small ints instead of raw values.
    """
    encoded: list[Labels] = []
    for column in table.columns:
        ids: dict = {}
        vector: Labels = []
        for value in column.values:
            # bool is an int subclass; keep True distinct from 1.
            key = (type(value).__name__, value)
            identifier = ids.get(key)
            if identifier is None:
                identifier = len(ids)
                ids[key] = identifier
            vector.append(identifier)
        encoded.append(vector)
    return encoded


def refine(labels: Labels, column: Labels) -> tuple[Labels, int]:
    """Refine the partition *labels* by *column*.

    Returns the new labels and their number of classes, counted by the
    same pass that numbers them.
    """
    mapping: dict[tuple[int, int], int] = {}
    setdefault = mapping.setdefault
    refined = [setdefault(key, len(mapping)) for key in zip(labels, column)]
    return refined, len(mapping)


def cardinality(labels: Labels) -> int:
    """Number of equivalence classes in a label vector."""
    return len(set(labels)) if labels else 0


def determines(labels: Labels, column: Labels) -> bool:
    """Whether *column* is constant within every class of *labels*.

    The same answer as ``refine(labels, column)[1] ==
    cardinality(labels)``, i.e. whether ``X -> A`` holds for the
    partition ``pi_X`` and column ``A``, but it stops at the first row
    whose value differs from its class's first value.  Most candidate
    FDs fail, usually long before the last row.
    """
    first: dict[int, int] = {}
    for label, value in zip(labels, column):
        seen = first.get(label)
        if seen is None:
            first[label] = value
        elif seen != value:
            return False
    return True



def dense_discover_fds(
    table: Table,
    max_lhs: int = DEFAULT_MAX_LHS,
    meter: WorkMeter = UNMETERED,
) -> FDSet:
    """Minimal non-trivial FDs of *table* with ``|LHS| <= max_lhs``.

    Duplicate column names make FD semantics ambiguous, so the second
    occurrence onward is ignored.

    With a *meter*, every partition refinement charges ``n_rows`` ticks.
    When the budget runs out, the search stops cleanly at the last
    *completed* lattice level: the returned set is flagged
    ``truncated`` and contains exactly the minimal FDs of the levels it
    finished — FDs discovered mid-level are discarded so that equal
    budgets always yield identical results.

    FDs are listed by LHS size, then by the sorted positions of the LHS
    columns among the distinct column names, then by the RHS position.
    The set's ``lhs_cards`` records ``|pi_X|`` on *table* for every FD's
    left-hand side X (``|pi_∅| = 1``): the free-set cardinalities the
    walk computes anyway.  From both,
    :func:`repro.normalize.bcnf.fragment_fds` derives the FDs of any
    distinct projection, in this order, without walking its lattice
    again.
    """
    names: list[str] = []
    positions: list[int] = []
    seen: set[str] = set()
    for position, name in enumerate(table.column_names):
        if name not in seen:
            seen.add(name)
            names.append(name)
            positions.append(position)

    fds = FDSet(table.name)
    n_rows = table.num_rows
    if n_rows == 0 or len(names) < 2:
        return fds

    all_encoded = encode_columns(table)
    encoded = [all_encoded[p] for p in positions]

    try:
        with prof_scope(meter, "fun"):
            _discover_fun(fds, names, encoded, n_rows, max_lhs, meter)
    except BudgetExceeded:
        fds.truncated = True

    return fds


def _discover_fun(
    fds: FDSet,
    names: list[str],
    encoded: list[Labels],
    n_rows: int,
    max_lhs: int,
    meter: WorkMeter | None,
) -> None:
    """The lattice walk of :func:`discover_fds` (inside the ``fun`` frame).

    Profiler frames follow the lattice structure — one ``levelN`` frame
    per level, the partition-kernel work nested under ``dataframe``
    frames naming the partition primitive that does it
    (``cardinality``, ``refine`` or ``determines``), e.g.
    ``fun;level2;dataframe;determines``.
    """
    # (FD, |pi_LHS|) pairs found at the level in progress; committed to
    # ``fds`` only when the whole level completes, so a budget blowup
    # mid-level truncates at the last completed level instead of an
    # arbitrary lattice node.
    pending: list[tuple[FD, int]] = []
    n_attrs = len(names)
    # Level 1 ----------------------------------------------------
    # labels/cards per free set; closures accumulate every RHS known
    # to be determined by the set or any subset (minimality checks).
    labels: dict[frozenset[int], Labels] = {}
    cards: dict[frozenset[int], int] = {}
    closures: dict[frozenset[int], set[int]] = {}
    free_level: list[frozenset[int]] = []

    with prof_scope(meter, "level1"):
        constant_attrs: set[int] = set()
        with prof_scope(meter, "dataframe", "cardinality"):
            for attr in range(n_attrs):
                if meter is not None:
                    meter.tick(n_rows, op="fd.cardinality")
                card = cardinality(encoded[attr])
                single = frozenset((attr,))
                cards[single] = card
                if card == n_rows:
                    # Single-column candidate key: all FDs from it are
                    # trivial.
                    continue
                if card <= 1:
                    # Constant column: determined by the empty set; emit
                    # the empty-LHS FD and keep it out of larger LHS
                    # exploration.
                    constant_attrs.add(attr)
                    continue
                labels[single] = encoded[attr]
                closures[single] = {attr}
                free_level.append(single)

        for attr in sorted(constant_attrs):
            pending.append((FD(frozenset(), names[attr]), 1))

        if meter is not None:
            meter.event("fd.level1.nodes", len(free_level))

        # Check level-1 FDs: X={a} -> b.
        with prof_scope(meter, "dataframe", "determines"):
            for single in free_level:
                (attr,) = tuple(single)
                closure = closures[single]
                for rhs in range(n_attrs):
                    if rhs == attr or rhs in constant_attrs:
                        continue
                    if meter is not None:
                        meter.tick(n_rows, op="fd.refine")
                    if determines(labels[single], encoded[rhs]):
                        closure.add(rhs)
                        pending.append(
                            (FD(frozenset((names[attr],)), names[rhs]), cards[single])
                        )
    _commit(fds, pending)

    # Levels 2..max_lhs ------------------------------------------
    current_free = free_level
    for level in range(2, max_lhs + 1):
        if not current_free:
            break
        candidates = _generate_candidates(current_free, level)
        if meter is not None:
            meter.event(f"fd.level{level}.nodes", len(candidates))
        next_free: list[frozenset[int]] = []
        next_labels: dict[frozenset[int], Labels] = {}
        with prof_scope(meter, f"level{level}"):
            for candidate in candidates:
                subsets = [candidate - {attr} for attr in candidate]
                if any(s not in labels for s in subsets):
                    continue  # some subset was non-free or a key: prune
                subset_cards = [cards[s] for s in subsets]
                # Closure union of subsets: attributes already determined.
                inherited: set[int] = set()
                for subset in subsets:
                    inherited |= closures[subset]
                base_subset = subsets[0]
                extra_attr = next(iter(candidate - base_subset))
                with prof_scope(meter, "dataframe", "refine"):
                    if meter is not None:
                        meter.tick(n_rows, op="fd.refine")
                    candidate_labels, card = refine(
                        labels[base_subset], encoded[extra_attr]
                    )
                cards[candidate] = card
                if card in subset_cards:
                    continue  # not free: a subset already induces this partition
                if card == n_rows:
                    continue  # candidate key: trivial FDs only, prune supersets
                closure = set(candidate) | inherited
                closures[candidate] = closure
                with prof_scope(meter, "dataframe", "determines"):
                    for rhs in range(n_attrs):
                        if rhs in closure or rhs in constant_attrs:
                            continue
                        if meter is not None:
                            meter.tick(n_rows, op="fd.refine")
                        if determines(candidate_labels, encoded[rhs]):
                            closure.add(rhs)
                            lhs = frozenset(names[a] for a in candidate)
                            pending.append((FD(lhs, names[rhs]), card))
                next_labels[candidate] = candidate_labels
                next_free.append(candidate)
        # Free-set labels of the previous level are no longer needed
        # for refinement but *are* needed for subset checks: keep
        # cards and closures, roll labels forward.
        labels.update(next_labels)
        current_free = next_free
        _commit(fds, pending)


def _commit(fds: FDSet, pending: list[tuple[FD, int]]) -> None:
    """Move a completed level's FDs and LHS cardinalities into *fds*."""
    for fd, lhs_card in pending:
        fds.add(fd)
        fds.lhs_cards[fd.lhs] = lhs_card
    pending.clear()


def _generate_candidates(
    free_sets: list[frozenset[int]], level: int
) -> list[frozenset[int]]:
    """Apriori candidate generation: unions of free (level-1)-sets.

    A candidate is kept only if produced as a union of two free sets
    sharing level-2 attributes; the caller then verifies that *all*
    maximal subsets are free.
    """
    candidates: set[frozenset[int]] = set()
    by_prefix: dict[frozenset[int], list[int]] = {}
    for free in free_sets:
        ordered = sorted(free)
        prefix = frozenset(ordered[:-1])
        by_prefix.setdefault(prefix, []).append(ordered[-1])
    for prefix, tails in by_prefix.items():
        if len(tails) < 2:
            continue
        for left, right in combinations(sorted(tails), 2):
            candidates.add(prefix | {left, right})
    return sorted(candidates, key=sorted)


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def _run(engine, table, max_lhs, budget):
    """Everything one discovery shows: result, ticks, counters, frames."""
    metrics = MetricsRegistry()
    profiler = Profiler()
    meter = WorkMeter(budget, metrics=metrics, profiler=profiler)
    fds = engine(table, max_lhs=max_lhs, meter=meter)
    return {
        "fds": list(fds),
        "lhs_cards": fds.lhs_cards,
        "truncated": fds.truncated,
        "spent": meter.spent,
        "counters": metrics.snapshot(),
        "frames": profiler.snapshot(),
    }


def assert_same_as_dense(table, max_lhs, budget):
    """FUN and the dense-label oracle agree on *table*; returns FUN's run."""
    got = _run(discover_fds, table, max_lhs, budget)
    assert got == _run(dense_discover_fds, table, max_lhs, budget)
    return got


#: Cells that compare equal across types stay distinct values.
ODD_CELLS = st.sampled_from([True, False, 1.0, "1"])


@st.composite
def fd_tables(draw):
    """0–60 rows; repeated names, nulls, constant, all-null and derived
    columns (planted FDs), odd-typed cells and duplicated rows."""
    n_rows = draw(st.integers(0, 60))
    names = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=7))
    domain = draw(st.integers(1, 6))
    cell = st.one_of(st.integers(0, domain), st.none(), ODD_CELLS)
    columns: list[list] = []
    for _ in names:
        kind = draw(
            st.sampled_from(["free", "free", "derived", "constant", "null"])
        )
        if kind == "constant":
            values = [draw(cell)] * n_rows
        elif kind == "null":
            values = [None] * n_rows
        elif kind == "derived" and columns:
            source = columns[draw(st.integers(0, len(columns) - 1))]
            image = draw(st.lists(cell, min_size=1, max_size=domain + 1))
            ids: dict = {}
            values = [
                image[ids.setdefault((type(v), v), len(ids)) % len(image)]
                for v in source
            ]
        else:
            values = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        columns.append(values)
    if n_rows:
        rows = st.integers(0, n_rows - 1)
        for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=8)):
            for values in columns:
                values[dst] = values[src]
    return Table(
        "t", [Column(name, values) for name, values in zip(names, columns)]
    )


class TestFunEqualsDenseOracle:
    @given(
        fd_tables(),
        st.integers(1, 4),
        st.one_of(st.none(), st.integers(1, 4000)),
    )
    @settings(max_examples=300, deadline=None)
    @example(Table.empty("t", ["a", "b"]), 4, None)
    @example(Table("t", [Column("a", [1, 1]), Column("a", [1, 2])]), 4, None)
    def test_same_fds_ticks_and_counters(self, table, max_lhs, budget):
        assert_same_as_dense(table, max_lhs, budget)
        # Without a meter: no ticks, no frames, the same list.
        assert list(discover_fds(table, max_lhs=max_lhs)) == list(
            dense_discover_fds(table, max_lhs=max_lhs)
        )

    def test_every_study_table(self, study):
        """Every FD-filtered table of the test study, unbudgeted and with
        half the ticks it needs, so real tables truncate too."""
        max_lhs = study.config.max_lhs
        tables = [t for portal in study for t in portal.filtered_tables()]
        truncated = 0
        for table in tables:
            full = assert_same_as_dense(table, max_lhs, None)
            half = assert_same_as_dense(table, max_lhs, full["spent"] // 2)
            truncated += half["truncated"]
        assert len(tables) > 50 and truncated > len(tables) // 2


class TestStripRule:
    def test_strips_only_partitions_it_refines_again(self, monkeypatch, study):
        """On the test study some level-k partitions a later level
        refines from stay unstripped, others are stripped, and no
        partition of the last level is stripped."""
        level = [1]
        events: list[tuple[str, int]] = []
        generate = fun._generate_candidates

        def generating(free_sets, k):
            level[0] = k
            return generate(free_sets, k)

        def recording(name):
            call = getattr(fun, name)

            def recorded(*args):
                events.append((name, level[0]))
                return call(*args)

            return recorded

        monkeypatch.setattr(fun, "_generate_candidates", generating)
        for name in ("refine", "strip", "determines"):
            monkeypatch.setattr(fun, name, recording(name))
        max_lhs = study.config.max_lhs
        for portal in study:
            for table in portal.filtered_tables():
                level[0] = 1
                discover_fds(table, max_lhs=max_lhs)
        # A refine that passed the free-set and key checks is followed by
        # a strip, or straight by its FD checks when it is kept whole.
        stripped: Counter = Counter()
        whole: Counter = Counter()
        for (name, k), (after, _) in zip(events, events[1:]):
            if name == "refine" and after == "strip":
                stripped[k] += 1
            elif name == "refine" and after == "determines":
                whole[k] += 1
        inner = range(2, max_lhs)
        assert sum(stripped[k] for k in inner) > 0
        assert sum(whole[k] for k in inner) > 0
        assert whole[max_lhs] > 0
        assert [k for name, k in events if name == "strip"].count(max_lhs) == 0


# ----------------------------------------------------------------------
# Candidate generation and budget cuts
# ----------------------------------------------------------------------
@st.composite
def free_levels(draw):
    """Free k-sets as the walk hands them to candidate generation:
    ascending tuples in lexicographic order, any of them missing."""
    n_attrs = draw(st.integers(1, 9))
    size = draw(st.integers(1, 4))
    every = list(combinations(range(n_attrs), size))
    kept = draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    return [free for free, keep in zip(every, kept) if keep], size + 1


class TestCandidateGeneration:
    @given(free_levels())
    @settings(max_examples=300, deadline=None)
    def test_same_candidates_in_the_same_order(self, case):
        """Tuples in, tuples out: the frozenset generator's candidates
        in its sorted order, with no set and no sort."""
        free, level = case
        expected = _generate_candidates([frozenset(f) for f in free], level)
        assert fun._generate_candidates(free, level) == [
            tuple(sorted(candidate)) for candidate in expected
        ]


def _under(prefix: str, frames: dict[str, int]) -> dict[str, int]:
    return {path: t for path, t in frames.items() if path.startswith(prefix)}


class TestBudgetCutRestoresFrames:
    def test_cut_in_a_refine_and_in_a_check(self, study):
        """A budget cut inside a ``refine`` tick or a level-k
        ``determines`` check leaves the profiler at the caller's frames,
        and the next unit's ticks land on their own paths."""
        max_lhs = study.config.max_lhs
        tables = [t for portal in study for t in portal.filtered_tables()]
        # A two-column LHS means the walk checked FDs at level 2.
        table = next(
            t
            for t in tables
            if any(len(fd.lhs) == 2 for fd in discover_fds(t, max_lhs=max_lhs))
        )
        other = tables[tables.index(table) + 1]
        unit = Profiler()
        with unit.frame("study", "CA", "fd"):
            discover_fds(other, max_lhs=max_lhs, meter=WorkMeter(profiler=unit))
        alone = unit.snapshot()
        n_rows = table.num_rows
        cuts: set[str] = set()
        previous: dict[str, int] = {}
        ticks = 1
        while "determines" not in cuts:
            profiler = Profiler()
            meter = WorkMeter(ticks * n_rows - 1, profiler=profiler)
            with profiler.frame("study", "SG", "fd"):
                assert discover_fds(table, max_lhs=max_lhs, meter=meter).truncated
                profiler.add(1, "probe")
            with profiler.frame("study", "CA", "fd"):
                next_meter = WorkMeter(profiler=profiler)
                discover_fds(other, max_lhs=max_lhs, meter=next_meter)
            frames = profiler.snapshot()
            assert frames.pop("study;SG;fd;probe") == 1
            assert _under("study;CA;", frames) == alone
            cut_table = _under("study;SG;", frames)
            # The cut tick is the one this budget charged past the last.
            (cut,) = [p for p, t in cut_table.items() if previous.get(p) != t]
            frame = cut.split(";")
            if frame[4] != "level1" and frame[5] == "dataframe":
                cuts.add(frame[6])
            previous = cut_table
            ticks += 1
        assert cuts == {"refine", "determines"}
