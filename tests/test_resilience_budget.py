"""WorkMeter unit tests plus determinism properties for guarded FDs."""

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dataframe import Column, Table
from repro.fd import discover_fds, discover_fds_naive, discover_fds_tane
from repro.joinability.index import build_profiles
from repro.joinability.lshindex import analyze_joinability_lsh
from repro.joinability.pairs import analyze_joinability
from repro.profiling.screen import screen_table
from repro.resilience import UNMETERED, BudgetExceeded, WorkMeter
from repro.search.lake import DataLake
from repro.unionability.schemas import analyze_unionability


class TestWorkMeter:
    def test_counts_without_budget(self):
        meter = WorkMeter()
        for _ in range(5):
            meter.tick(3)
        assert meter.spent == 15
        assert meter.unlimited
        assert not meter.exhausted
        assert meter.remaining is None

    def test_raises_over_budget(self):
        meter = WorkMeter(budget=10)
        meter.tick(10, op="setup")
        assert meter.remaining == 0
        assert not meter.exhausted  # spent == budget is still in budget
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.tick(op="overflow")
        assert excinfo.value.op == "overflow"
        assert excinfo.value.spent == 11
        assert excinfo.value.budget == 10
        assert meter.exhausted

    def test_exhausted_meter_keeps_raising(self):
        meter = WorkMeter(budget=1)
        with pytest.raises(BudgetExceeded):
            meter.tick(2)
        # Even a zero-cost tick raises once the meter is exhausted:
        # callers unwinding with partial results must not restart work.
        with pytest.raises(BudgetExceeded):
            meter.tick(0)

    def test_charge_precedes_check(self):
        meter = WorkMeter(budget=5)
        with pytest.raises(BudgetExceeded):
            meter.tick(100)
        assert meter.spent == 100  # the attempted work is on the books

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            WorkMeter(budget=0)
        with pytest.raises(ValueError):
            WorkMeter().tick(-1)


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


def _snapshot(fds):
    return (fds.as_frozenset(), fds.truncated)


@given(small_tables(), st.integers(1, 500))
@settings(max_examples=80, deadline=None)
def test_guarded_fds_deterministic(table, budget):
    """Equal table + equal budget => identical (possibly truncated) FDs."""
    first = discover_fds(table, meter=WorkMeter(budget))
    second = discover_fds(table, meter=WorkMeter(budget))
    assert _snapshot(first) == _snapshot(second)


@given(small_tables())
@settings(max_examples=80, deadline=None)
def test_unlimited_meter_reproduces_unguarded(table):
    unguarded = discover_fds(table)
    metered = discover_fds(table, meter=WorkMeter())
    assert not metered.truncated
    assert unguarded.as_frozenset() == metered.as_frozenset()


def test_engines_without_a_meter_charge_unmetered(study):
    """Every other engine entry point called without a meter returns
    what it returns under an unlimited meter, and the shared default
    stays untouched."""
    portal = study.portal("US")
    tables = portal.screened_tables()
    lake = DataLake(study)
    joins = portal.joinability()
    join_table = joins.tables[next(iter(joins.table_neighbors))]
    unions = portal.unionability()
    group = unions.unionable_groups()[0]
    union_table = unions.tables[group.table_indexes[0]]
    calls = [
        (screen_table, (tables[0].clean,)),
        (analyze_unionability, ("US", tables)),
        (build_profiles, (tables,)),
        (analyze_joinability, ("US", tables)),
        (analyze_joinability_lsh, ("US", tables)),
        (lake.search, ("waste collection",)),
        (lake.suggest_joins, ("US", join_table.resource_id)),
        (lake.suggest_unions, ("US", union_table.resource_id)),
    ]
    for engine, args in calls:
        meter = WorkMeter()
        assert engine(*args) == engine(*args, meter=meter), engine
        assert meter.spent > 0, engine
    assert UNMETERED.spent == 0
    assert not UNMETERED.exhausted
    assert UNMETERED.profiler is None


def _meter_or_none(node: ast.AST) -> str | None:
    """``"meter"`` for a name or attribute called ``meter``, ``"None"``
    for the None constant, else None."""
    if isinstance(node, ast.Name) and node.id == "meter":
        return "meter"
    if isinstance(node, ast.Attribute) and node.attr == "meter":
        return "meter"
    if isinstance(node, ast.Constant) and node.value is None:
        return "None"
    return None


def test_no_engine_asks_whether_it_has_a_meter():
    """No module compares a meter with None or types one
    ``WorkMeter | None``: engines charge the meter they are given,
    ``UNMETERED`` by default."""
    found = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                kinds = {_meter_or_none(operand) for operand in operands}
                if {"meter", "None"} <= kinds:
                    found.append(f"{path.name}:{node.lineno} compare")
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.BitOr
            ):
                sides = {ast.unparse(node.left), ast.unparse(node.right)}
                if sides == {"WorkMeter", "None"}:
                    found.append(f"{path.name}:{node.lineno} annotation")
    assert found == []


@given(small_tables(), st.integers(1, 500))
@settings(max_examples=60, deadline=None)
def test_truncated_fds_are_a_subset(table, budget):
    """A budget never invents FDs: it only cuts whole lattice levels."""
    full = discover_fds(table).as_frozenset()
    cut = discover_fds(table, meter=WorkMeter(budget))
    assert cut.as_frozenset() <= full
    if not cut.truncated:
        assert cut.as_frozenset() == full


@given(small_tables(), st.integers(1, 500))
@settings(max_examples=40, deadline=None)
def test_all_engines_accept_meters(table, budget):
    """Every FD engine honors a meter: deterministic when budgeted,
    unchanged when the meter is unlimited."""
    for engine in (discover_fds, discover_fds_naive, discover_fds_tane):
        once = engine(table, meter=WorkMeter(budget))
        again = engine(table, meter=WorkMeter(budget))
        assert _snapshot(once) == _snapshot(again)
        unlimited = engine(table, meter=WorkMeter())
        assert not unlimited.truncated
        assert unlimited.as_frozenset() == engine(table).as_frozenset()
