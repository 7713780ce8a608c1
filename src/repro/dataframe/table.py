"""The :class:`Table` type: an ordered collection of equal-length columns.

Tables are immutable in spirit: every operation returns a new table.  The
engine implements exactly the relational surface the study needs — row and
column access, projection, selection, distinct, sorting, joining and
unioning — with hash-based algorithms throughout.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .column import Column
from .errors import ColumnNotFoundError, SchemaError
from .types import Cell, DataType


class Table:
    """A named relation made of :class:`Column` objects.

    Invariants enforced at construction time:

    * all columns have the same length;
    * column names are non-empty strings (duplicates are allowed, because
      real OGDP CSVs contain them, but name-based lookup then resolves to
      the first match).
    """

    __slots__ = ("name", "_columns", "_index_by_name")

    def __init__(self, name: str, columns: Sequence[Column]):
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {name!r} has ragged columns with lengths {sorted(lengths)}"
            )
        self.name = name
        self._columns: tuple[Column, ...] = tuple(columns)
        index: dict[str, int] = {}
        for position, column in enumerate(self._columns):
            index.setdefault(column.name, position)
        self._index_by_name = index

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        header: Sequence[str],
        rows: Iterable[Sequence[Cell]],
    ) -> "Table":
        """Build a table from a header and an iterable of row sequences.

        Short rows are padded with nulls and long rows truncated, the same
        forgiving behaviour a CSV reader needs for ragged files.
        """
        width = len(header)
        cells: list[list[Cell]] = [[] for _ in range(width)]
        for row in rows:
            for position in range(width):
                cells[position].append(
                    row[position] if position < len(row) else None
                )
        columns = [
            Column(column_name, cells[position])
            for position, column_name in enumerate(header)
        ]
        return cls(name, columns)

    @classmethod
    def empty(cls, name: str, header: Sequence[str] = ()) -> "Table":
        """Build a zero-row table with the given column names."""
        return cls(name, [Column(h, []) for h in header])

    # ------------------------------------------------------------------
    # shape and access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows (0 for a table with no columns)."""
        return len(self._columns[0]) if self._columns else 0

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def columns(self) -> tuple[Column, ...]:
        """The column tuple, in schema order."""
        return self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names, in schema order."""
        return tuple(c.name for c in self._columns)

    def schema(self) -> tuple[tuple[str, DataType], ...]:
        """``(name, dtype)`` pairs in order — the unionability fingerprint."""
        return tuple((c.name, c.dtype) for c in self._columns)

    def column(self, ref: str | int) -> Column:
        """Look a column up by name or by position."""
        if isinstance(ref, int):
            try:
                return self._columns[ref]
            except IndexError:
                raise ColumnNotFoundError(str(ref), self.column_names) from None
        position = self._index_by_name.get(ref)
        if position is None:
            raise ColumnNotFoundError(ref, self.column_names)
        return self._columns[position]

    def has_column(self, name: str) -> bool:
        """Whether a column with this name exists."""
        return name in self._index_by_name

    def row(self, index: int) -> tuple[Cell, ...]:
        """Materialize one row as a tuple."""
        return tuple(c[index] for c in self._columns)

    def iter_rows(self) -> Iterator[tuple[Cell, ...]]:
        """Iterate rows as tuples (the rows :meth:`row` returns)."""
        return zip(*(c.values for c in self._columns))

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={list(self.column_names)!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.column_names == other.column_names
            and all(
                a.values == b.values
                for a, b in zip(self._columns, other._columns)
            )
        )

    def __hash__(self):
        raise TypeError("Table objects are not hashable")

    # ------------------------------------------------------------------
    # relational operations (each returns a new table)
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str], name: str | None = None) -> "Table":
        """Keep only the columns in *names*, in the order given."""
        columns = [self.column(n) for n in names]
        return Table(name or self.name, columns)

    def drop(self, names: Sequence[str], name: str | None = None) -> "Table":
        """Remove the columns in *names* (first occurrence per name)."""
        positions = {self._position(n) for n in names}
        columns = [
            c for i, c in enumerate(self._columns) if i not in positions
        ]
        return Table(name or self.name, columns)

    def _position(self, column_name: str) -> int:
        position = self._index_by_name.get(column_name)
        if position is None:
            raise ColumnNotFoundError(column_name, self.column_names)
        return position

    def select(
        self, predicate: Callable[[tuple[Cell, ...]], bool], name: str | None = None
    ) -> "Table":
        """Keep the rows for which *predicate(row_tuple)* is truthy."""
        keep = [i for i, row in enumerate(self.iter_rows()) if predicate(row)]
        return self.take(keep, name)

    def take(self, indices: Sequence[int], name: str | None = None) -> "Table":
        """Return a table with rows at *indices*, in that order."""
        columns = [c.take(indices) for c in self._columns]
        return Table(name or self.name, columns)

    def head(self, count: int) -> "Table":
        """The first *count* rows."""
        return self.take(range(min(count, self.num_rows)))

    def distinct(self, name: str | None = None) -> "Table":
        """Remove duplicate rows, keeping first occurrences in order."""
        seen: set[tuple[Cell, ...]] = set()
        keep: list[int] = []
        for index, row in enumerate(self.iter_rows()):
            if row not in seen:
                seen.add(row)
                keep.append(index)
        return self.take(keep, name)

    def sort_by(
        self, names: Sequence[str], name: str | None = None
    ) -> "Table":
        """Sort rows by the given columns, nulls last, ascending.

        Mixed-type columns sort by ``(type rank, value)`` so that the
        ordering is total even over dirty data.
        """
        key_columns = [self.column(n) for n in names]

        def sort_key(index: int):
            """Total-order key tuple for one row index."""
            return tuple(_order_key(c[index]) for c in key_columns)

        order = sorted(range(self.num_rows), key=sort_key)
        return self.take(order, name)

    def rename_columns(self, mapping: dict[str, str]) -> "Table":
        """Rename columns per *mapping*; names not present are kept."""
        columns = [
            c.renamed(mapping.get(c.name, c.name)) for c in self._columns
        ]
        return Table(self.name, columns)

    def with_name(self, name: str) -> "Table":
        """Return the same table under a new name."""
        return Table(name, self._columns)

    # join/union/groupby live in ops.py; thin delegating wrappers here
    def join(
        self,
        other: "Table",
        left_on: str,
        right_on: str,
        name: str | None = None,
    ) -> "Table":
        """Inner equi-join on one column from each side (hash join)."""
        from .ops import inner_join

        return inner_join(self, other, left_on, right_on, name=name)

    def union_all(self, other: "Table", name: str | None = None) -> "Table":
        """Concatenate rows of two tables with identical column names."""
        from .ops import union_all

        return union_all(self, other, name=name)

    def group_by(
        self,
        keys: Sequence[str],
        aggregations: dict[str, tuple[str, str]],
        name: str | None = None,
    ) -> "Table":
        """Group rows by *keys* and aggregate; see :func:`ops.group_by`."""
        from .ops import group_by

        return group_by(self, keys, aggregations, name=name)

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def to_text(self, max_rows: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        header = list(self.column_names)
        body_rows = [
            ["" if v is None else str(v) for v in row]
            for row in self.head(max_rows).iter_rows()
        ]
        widths = [len(h) for h in header]
        for row in body_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: list[str]) -> str:
            """Pad one row's cells to the column widths."""
            return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

        lines = [fmt(header), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in body_rows)
        if self.num_rows > max_rows:
            lines.append(f"... ({self.num_rows - max_rows} more rows)")
        return "\n".join(lines)


_TYPE_RANK = {bool: 0, int: 1, float: 1, str: 2}


def _order_key(value: Cell) -> tuple:
    """A total-order key over mixed-type cells; nulls sort last."""
    if value is None:
        return (3, "")
    rank = _TYPE_RANK[type(value)]
    if rank == 1:
        return (1, float(value))
    return (rank, value)
