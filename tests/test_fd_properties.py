"""Property-based tests cross-validating the FD engines (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, Table
from repro.fd import discover_fds, discover_fds_naive
from repro.fd.naive import distinct_count
from repro.fd.partitions import encode_columns


@st.composite
def small_tables(draw):
    n_cols = draw(st.integers(2, 5))
    n_rows = draw(st.integers(0, 30))
    domain = draw(st.integers(1, 5))
    columns = [
        Column(
            f"c{i}",
            draw(
                st.lists(
                    st.one_of(st.integers(0, domain), st.none()),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
        )
        for i in range(n_cols)
    ]
    return Table("t", columns)


@given(small_tables())
@settings(max_examples=80, deadline=None)
def test_fun_equals_naive(table):
    assert (
        discover_fds(table).as_frozenset()
        == discover_fds_naive(table).as_frozenset()
    )


@given(small_tables())
@settings(max_examples=80, deadline=None)
def test_discovered_fds_hold_and_are_minimal(table):
    encoded = encode_columns(table)
    names = list(table.column_names)
    position = {name: i for i, name in enumerate(names)}
    fds = list(discover_fds(table))
    for fd in fds:
        lhs_positions = [position[a] for a in sorted(fd.lhs)]
        rhs_position = position[fd.rhs]
        lhs_card = distinct_count(encoded, lhs_positions)
        joint_card = distinct_count(encoded, lhs_positions + [rhs_position])
        # Validity: adding the RHS does not refine the partition.
        assert joint_card == lhs_card
        # Non-key LHS: the FD would otherwise be trivial.
        assert lhs_card < table.num_rows or not fd.lhs
        # Minimality: every maximal proper subset fails to determine RHS.
        for dropped in fd.lhs:
            subset = [position[a] for a in sorted(fd.lhs - {dropped})]
            sub_card = distinct_count(encoded, subset)
            sub_joint = distinct_count(encoded, subset + [rhs_position])
            assert sub_joint > sub_card


@given(small_tables())
@settings(max_examples=50, deadline=None)
def test_fd_set_closed_under_row_deletion_is_superset(table):
    """FDs are preserved when rows are removed: the FD set of a subset
    of rows must imply every FD of the full table (possibly with smaller
    minimal LHS)."""
    if table.num_rows < 2:
        return
    subset = table.take(range(table.num_rows - 1))
    full_fds = discover_fds_naive(table, max_lhs=3)
    subset_fds = discover_fds_naive(subset, max_lhs=3)
    subset_index: dict[str, list[frozenset]] = {}
    n_subset = subset.num_rows
    encoded = encode_columns(subset)
    position = {name: i for i, name in enumerate(subset.column_names)}
    for fd in full_fds:
        # The same dependency must still hold on the subset's data
        # (check directly; its minimal form may differ).
        lhs_positions = [position[a] for a in sorted(fd.lhs)]
        lhs_card = distinct_count(encoded, lhs_positions)
        joint = distinct_count(encoded, lhs_positions + [position[fd.rhs]])
        assert joint == lhs_card
