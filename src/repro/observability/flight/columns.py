"""A minimal columnar table for offline artifact analytics.

The offline query engine wants columnar access -- scan one field of a
hundred-thousand-event trace without materializing per-row dicts -- but
the repo takes no external dependencies, so this is the smallest
columnar store that serves :mod:`repro.observability.flight.analytics`:
named, equal-length columns with select/filter/group primitives.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

MISSING = None


class ColumnTable:
    """Named, equal-length columns; rows exist only as views."""

    def __init__(self, columns: Optional[Dict[str, List[Any]]] = None):
        self._columns: Dict[str, List[Any]] = {}
        self._length = 0
        for name, values in (columns or {}).items():
            self.add_column(name, list(values))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[Dict[str, Any]],
        columns: Optional[Sequence[str]] = None,
    ) -> "ColumnTable":
        """Pivot row dicts into columns; *columns* fixes the schema,
        otherwise it is the union of keys in first-seen order."""
        records = list(records)
        if columns is None:
            seen: Dict[str, None] = {}
            for record in records:
                for key in record:
                    seen.setdefault(key)
            columns = list(seen)
        data: Dict[str, List[Any]] = {name: [] for name in columns}
        for record in records:
            for name in columns:
                data[name].append(record.get(name, MISSING))
        table = cls()
        table._length = len(records)
        table._columns = data
        return table

    def add_column(self, name: str, values: List[Any]) -> "ColumnTable":
        if self._columns and len(values) != self._length:
            raise ValueError(
                "column %r has %d values, table has %d rows"
                % (name, len(values), self._length)
            )
        self._columns[name] = values
        self._length = len(values)
        return self

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> List[Any]:
        return self._columns[name]

    def row(self, index: int) -> Dict[str, Any]:
        return {name: values[index] for name, values in self._columns.items()}

    def records(self) -> List[Dict[str, Any]]:
        return [self.row(i) for i in range(self._length)]

    # -- relational primitives -------------------------------------------

    def select(self, *names: str) -> "ColumnTable":
        out = ColumnTable()
        for name in names:
            out.add_column(name, list(self._columns[name]))
        return out

    def _take(self, indexes: List[int]) -> "ColumnTable":
        out = ColumnTable()
        for name, values in self._columns.items():
            out.add_column(name, [values[i] for i in indexes])
        return out

    def where(self, **equals: Any) -> "ColumnTable":
        """Rows where every named column equals the given value."""
        cols = [(self._columns[name], value) for name, value in equals.items()]
        indexes = [
            i
            for i in range(self._length)
            if all(values[i] == value for values, value in cols)
        ]
        return self._take(indexes)

    def filter(self, predicate: Callable[[Dict[str, Any]], bool]) -> "ColumnTable":
        indexes = [
            i for i in range(self._length) if predicate(self.row(i))
        ]
        return self._take(indexes)

    def sort_by(self, name: str, reverse: bool = False) -> "ColumnTable":
        values = self._columns[name]
        indexes = sorted(
            range(self._length), key=lambda i: values[i], reverse=reverse
        )
        return self._take(indexes)

    # -- aggregation -----------------------------------------------------

    def sum(self, name: str) -> float:
        return sum(v for v in self._columns[name] if v is not MISSING)

    def group_sum(self, key: str, value: str) -> Dict[Any, float]:
        out: Dict[Any, float] = {}
        keys = self._columns[key]
        values = self._columns[value]
        for i in range(self._length):
            if values[i] is MISSING:
                continue
            out[keys[i]] = out.get(keys[i], 0) + values[i]
        return out
