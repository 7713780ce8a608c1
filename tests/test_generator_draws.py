"""The generator's draw contract: fewer frames, the same values.

``draws_below`` and the draw loops inlined from it must return what the
``random.Random`` methods they replace return, from the same state, and
leave the generator in the same end state.  The column formatter must
write what the per-cell ``_format`` wrote, and the serializer what
``csv.writer`` writes.  The replaced code is kept here verbatim as the
reference; ``TestCorpusPin`` in ``test_generator_portal_gen.py`` pins
the corpus they produce together.
"""

from __future__ import annotations

import csv
import io
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.generator import corruption, denormalize
from repro.generator.base_tables import _build_fact_rows, draws_below
from repro.generator.lineage import ColumnLineage, ColumnRole
from repro.generator.schemas import MeasureSpec


# ----------------------------------------------------------------------
# the replaced code, verbatim
# ----------------------------------------------------------------------
def reference_build_fact_rows(
    dims, measures, measure_steps, rng, target_rows, duplicate_rate
):
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


def _sample_measure(measure, grid, rng):
    position = rng.randint(0, grid)
    span = measure.high - measure.low
    if measure.integral:
        step = max(1, int(span / grid))
        return min(int(measure.high), int(measure.low) + position * step)
    return round(measure.low + position * (span / grid), 2)


def reference_to_string_rows(header, columns, rng):
    null_spelling = rng.choice(corruption.NULL_SPELLINGS)
    rows: list[list[str]] = [header]
    n_rows = len(columns[0]) if columns else 0
    for index in range(n_rows):
        rows.append(
            [reference_format(values[index], null_spelling) for values in columns]
        )
    return rows


def reference_format(value, null_spelling):
    if value is None:
        return null_spelling
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def reference_serialize(rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def reference_extra_status(columns, lineage, instance, rng, n_rows):
    columns.append(
        ("status", [rng.choice(denormalize._STATUS_VALUES) for _ in range(n_rows)])
    )
    lineage.append(
        ColumnLineage("status", "cat.record_status", ColumnRole.ATTRIBUTE)
    )


def reference_extra_last_updated(columns, lineage, instance, rng, n_rows):
    from repro.generator.base_tables import stable_index

    anchor = 1 + stable_index(instance.family_id, 10)
    dates = [
        f"2021-{rng.randint(anchor, min(12, anchor + 2)):02d}-"
        f"{rng.randint(1, 28):02d}"
        for _ in range(n_rows)
    ]
    columns.append(("last_updated", dates))
    lineage.append(
        ColumnLineage("last_updated", "time.date.2021", ColumnRole.TEMPORAL)
    )


def reference_extra_notes(columns, lineage, instance, rng, n_rows):
    values = [
        rng.choice(denormalize._NOTE_VALUES) if rng.random() < 0.45 else None
        for _ in range(n_rows)
    ]
    columns.append(("notes", values))
    lineage.append(
        ColumnLineage("notes", "str.notes", ColumnRole.ATTRIBUTE)
    )


def reference_extra_quality(columns, lineage, instance, rng, n_rows):
    from repro.generator.base_tables import stable_index

    step = 0.5 * (0.3 + stable_index(instance.family_id + "q", 700) / 1000)
    values = [round(rng.randint(0, 200) * step, 2) for _ in range(n_rows)]
    columns.append(("data_quality", values))
    lineage.append(
        ColumnLineage(
            "data_quality",
            f"measure.{instance.family_id}.data_quality",
            ColumnRole.MEASURE,
        )
    )


def reference_extra_pct(columns, lineage, instance, rng, n_rows):
    from repro.generator.base_tables import stable_index

    step = 0.1 * (0.3 + stable_index(instance.family_id + "p", 700) / 1000)
    values = [round(rng.randint(0, 1000) * step, 2) for _ in range(n_rows)]
    columns.append(("pct_of_total", values))
    lineage.append(
        ColumnLineage(
            "pct_of_total",
            f"measure.{instance.family_id}.pct_of_total",
            ColumnRole.MEASURE,
        )
    )


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
class TestDrawsBelow:
    def test_randbelow_is_the_getrandbits_loop(self):
        # The kernel copies this method; a CPython that swaps it out
        # breaks the contract before any corpus digest moves.
        assert random.Random._randbelow is random.Random._randbelow_with_getrandbits

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        n=st.integers(1, 2**40),
        count=st.integers(0, 300),
    )
    @example(seed=0, n=1, count=300)
    @example(seed=1, n=2, count=300)
    @example(seed=2, n=3, count=300)
    @example(seed=3, n=2**31, count=50)
    @example(seed=4, n=2**31 + 1, count=300)
    @example(seed=5, n=2**32, count=50)
    @example(seed=6, n=2**32 + 1, count=300)
    @example(seed=7, n=2**40, count=50)
    def test_equals_randrange_loop(self, seed, n, count):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert draws_below(ours, n, count) == [
            theirs.randrange(n) for _ in range(count)
        ]
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(-(2**40), 0), count=st.integers(0, 5))
    def test_empty_range_raises_without_drawing(self, n, count):
        rng = random.Random(1)
        before = rng.getstate()
        with pytest.raises(ValueError):
            draws_below(rng, n, count)
        assert rng.getstate() == before
        with pytest.raises(ValueError):
            random.Random(1).randrange(n)


# ----------------------------------------------------------------------
# fact rows
# ----------------------------------------------------------------------
_dim_values = st.lists(
    st.one_of(st.integers(-5, 60), st.text(max_size=3)),
    min_size=1,
    max_size=12,
    unique_by=str,
)
_measures = st.lists(
    st.tuples(
        st.floats(-1e6, 1e6),
        st.floats(0.0, 1e6),
        st.booleans(),
        st.one_of(
            st.sampled_from((200, 1000, 5000, 100_000)), st.integers(1, 300)
        ),
    ),
    max_size=3,
)
_duplicate_rates = st.one_of(st.sampled_from((0.0, 0.3, 1.0)), st.floats(0.0, 1.0))


def _assert_fact_rows_match(dims, measures, seed, target_rows, duplicate_rate):
    dims = [SimpleNamespace(values=values) for values in dims]
    specs = tuple(
        MeasureSpec(f"m{index}", low, low + span, integral)
        for index, (low, span, integral, _) in enumerate(measures)
    )
    steps = [grid for *_, grid in measures]
    ours, theirs = random.Random(seed), random.Random(seed)
    got = _build_fact_rows(dims, specs, steps, ours, target_rows, duplicate_rate)
    want = reference_build_fact_rows(
        dims, specs, steps, theirs, target_rows, duplicate_rate
    )
    # repr tells 1 from 1.0 and 0.0 from -0.0, as the published CSV does.
    assert repr(got) == repr(want)
    assert ours.getstate() == theirs.getstate()


class TestFactRows:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        dims=st.lists(_dim_values, min_size=1, max_size=4),
        measures=_measures,
        seed=st.integers(0, 2**32),
        duplicate_rate=_duplicate_rates,
        data=st.data(),
    )
    def test_cross_product_branch(self, dims, measures, seed, duplicate_rate, data):
        grid = math.prod(len(values) for values in dims)
        target_rows = data.draw(st.integers((grid + 1) // 2, grid + 5))
        assert grid <= target_rows * 2
        _assert_fact_rows_match(dims, measures, seed, target_rows, duplicate_rate)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        dims=st.lists(_dim_values, min_size=1, max_size=4).filter(
            lambda dims: math.prod(len(values) for values in dims) >= 3
        ),
        measures=_measures,
        seed=st.integers(0, 2**32),
        duplicate_rate=_duplicate_rates,
        data=st.data(),
    )
    def test_sampled_branch(self, dims, measures, seed, duplicate_rate, data):
        grid = math.prod(len(values) for values in dims)
        target_rows = data.draw(st.integers(1, min(150, (grid - 1) // 2)))
        assert grid > target_rows * 2
        _assert_fact_rows_match(dims, measures, seed, target_rows, duplicate_rate)

    @pytest.mark.parametrize("duplicate_rate", [0.0, 0.9])
    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("target_rows", [40, 5000])
    def test_generator_sized_tables(self, duplicate_rate, integral, target_rows):
        # The generator's own shapes: 2-3 dimensions of tens of values,
        # one or two measures on its grid sizes, both branches.
        dims = [list(range(12)), [f"v{i}" for i in range(30)], list(range(9))]
        measures = [
            (0.0, 5e5, integral, 100_000),
            (-20.5, 130.25, not integral, 200),
        ]
        _assert_fact_rows_match(dims, measures, 11, target_rows, duplicate_rate)


# ----------------------------------------------------------------------
# extra columns
# ----------------------------------------------------------------------
_EXTRAS = [
    (denormalize._extra_status, reference_extra_status),
    (denormalize._extra_last_updated, reference_extra_last_updated),
    (denormalize._extra_notes, reference_extra_notes),
    (denormalize._extra_quality, reference_extra_quality),
    (denormalize._extra_pct, reference_extra_pct),
]


class TestExtraColumns:
    @pytest.mark.parametrize(
        "maker, reference", _EXTRAS, ids=[m.__name__ for m, _ in _EXTRAS]
    )
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 600])
    @pytest.mark.parametrize("family_id", ["ca-fam-0001", "us-fam-0042", "x"])
    def test_matches_reference(self, maker, reference, n_rows, family_id):
        instance = SimpleNamespace(family_id=family_id)
        ours, theirs = random.Random(n_rows), random.Random(n_rows)
        got_columns, got_lineage = [], []
        want_columns, want_lineage = [], []
        maker(got_columns, got_lineage, instance, ours, n_rows)
        reference(want_columns, want_lineage, instance, theirs, n_rows)
        assert repr(got_columns) == repr(want_columns)
        assert got_lineage == want_lineage
        assert ours.getstate() == theirs.getstate()


# ----------------------------------------------------------------------
# cell formatting
# ----------------------------------------------------------------------
_cells = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(10**15), 10**15),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "str": st.text(max_size=5),
}


def _assert_formats_match(columns, seed=0):
    header = [f"c{index}" for index in range(len(columns))]
    ours, theirs = random.Random(seed), random.Random(seed)
    assert corruption._to_string_rows(
        header, columns, ours
    ) == reference_to_string_rows(header, columns, theirs)
    assert ours.getstate() == theirs.getstate()


class TestColumnFormatting:
    def test_each_type_and_a_mixed_column(self):
        columns = [
            [None, None, None, None, None, None, None],
            [True, False, None, True, False, False, True],
            [0, -1, 10**12, None, 7, 42, -(10**15)],
            [-0.0, math.nan, math.inf, -math.inf, 1e12, None, 2.675],
            ["a", "", None, "x,y", 'q"uote', "ü", " "],
            [None, True, 3, 2.5, "s", -0.0, 1e12],
        ]
        for seed in range(len(corruption.NULL_SPELLINGS) * 3):
            _assert_formats_match(columns, seed)

    @pytest.mark.parametrize("kind", sorted(_cells))
    def test_column_formatter_matches_format(self, kind):
        @settings(max_examples=80, deadline=None)
        @given(
            values=st.lists(st.one_of(st.none(), _cells[kind]), max_size=30),
            spelling=st.sampled_from(corruption.NULL_SPELLINGS),
        )
        def check(values, spelling):
            assert corruption._format_column(values, spelling) == [
                reference_format(value, spelling) for value in values
            ]

        check()

    @settings(max_examples=120, deadline=None)
    @given(
        columns=st.integers(0, 6).flatmap(
            lambda n_rows: st.lists(
                st.lists(
                    st.one_of(*_cells.values()), min_size=n_rows, max_size=n_rows
                ),
                max_size=5,
            )
        ),
        seed=st.integers(0, 100),
    )
    def test_rows_match_reference(self, columns, seed):
        _assert_formats_match(columns, seed)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def _serialized(serialize, rows):
    """The bytes, or the csv error (a NUL on Python 3.10)."""
    try:
        return serialize(rows)
    except csv.Error as exc:
        return type(exc)


_fields = st.one_of(
    st.sampled_from(("", " ", "a", "1.50", "N/A", ",", '"', "\n", "\r", "\0")),
    st.text(alphabet='ab ,"\r\n\0-.', max_size=4),
    st.text(max_size=4),
)


class TestSerialization:
    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(st.lists(_fields, max_size=4), max_size=6))
    def test_matches_csv_writer(self, rows):
        assert _serialized(corruption._serialize, rows) == _serialized(
            reference_serialize, rows
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[]],
            [[""]],
            [["a"], [""]],
            [["a", "b"], []],
            [["", ""], ["x", ""]],
            [["a,b", "c"]],
            [['say "hi"']],
            [["two\nlines"]],
            [["cr\r"]],
            [["Table: Fish Landings"], ["Extracted:", "2021-03-15"], ["id", "n"]],
        ],
    )
    def test_edge_tables(self, rows):
        assert _serialized(corruption._serialize, rows) == _serialized(
            reference_serialize, rows
        )
