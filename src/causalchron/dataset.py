"""Ternary event matrices: loading, validation and summary statistics.

An event matrix records, for each observation (row), which binary events
were seen (1), not seen (0), or not covered at all (missing).  Columns are
labeled events; the column order of the source file is preserved and used
for deterministic tie-breaking throughout the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

MISSING = -1

__all__ = [
    "MISSING",
    "TokenSchema",
    "EventMatrix",
    "ContingencyTable",
    "MissingnessProfile",
    "RowPatterns",
    "UnknownTokenError",
    "distinct_rows",
    "load_reads",
    "save_reads",
    "assignment_index",
    "stacked_counts",
    "contingency",
    "cooccurrence_counts",
    "missingness_profile",
    "exclude_events",
]


class UnknownTokenError(ValueError):
    """A cell token is outside the configured schema (reports row/column)."""


@dataclass(frozen=True)
class TokenSchema:
    """Mapping from file tokens to cell states.

    The three token sets must be disjoint.  The defaults mirror the raw
    table vocabulary: sequencing errors count as "event not observed" and
    are collapsed to 0 at load time, before any statistic is computed.
    """

    ones: frozenset[str] = frozenset({"True"})
    zeros: frozenset[str] = frozenset({"False", "Err"})
    missing: frozenset[str] = frozenset({"NaN", ""})

    def __post_init__(self) -> None:
        sets = [frozenset(self.ones), frozenset(self.zeros), frozenset(self.missing)]
        if sum(len(s) for s in sets) != len(sets[0] | sets[1] | sets[2]):
            raise ValueError("token sets must be disjoint")
        object.__setattr__(self, "ones", sets[0])
        object.__setattr__(self, "zeros", sets[1])
        object.__setattr__(self, "missing", sets[2])

    def decode(self, token: str) -> int:
        if token in self.ones:
            return 1
        if token in self.zeros:
            return 0
        if token in self.missing:
            return MISSING
        raise UnknownTokenError(token)


#: canonical tokens used on re-serialization (Err is an input-only alias of 0)
_CANONICAL = {1: "True", 0: "False", MISSING: "NaN"}


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index, inverse index and count of each distinct row of a 2-D array.

    The distinct rows come in lexicographic order of their values, first
    column first.  A block with no columns has one distinct row (the empty
    one) when it has rows.
    """
    if a.shape[1] == 0:
        a = np.zeros((a.shape[0], 1), dtype=np.int8)
    # a stable sort keeps the rows of one pattern in their original order, so the
    # first row of each run is the pattern's first occurrence
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    starts = np.ones(len(a), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    starts = np.flatnonzero(starts)
    return order[starts], inverse, np.diff(np.append(starts, len(a)))


class RowPatterns(NamedTuple):
    """The distinct rows of a matrix and the pattern id of each of its rows."""

    rows: np.ndarray  # (n_patterns, n_cols), in the order of ``distinct_rows``
    ids: np.ndarray  # (n_rows,): rows[ids] is the matrix
    counts: np.ndarray  # (n_patterns,): the number of rows of each pattern


@dataclass(frozen=True)
class EventMatrix:
    """Immutable n_rows x n_cols matrix with cells in {0, 1, missing}.

    ``values`` is an int8 array using -1 for missing cells.
    """

    columns: tuple[str, ...]
    values: np.ndarray
    delimiter: str = ","

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int8)
        if values.ndim != 2:
            raise ValueError("values must be 2-dimensional")
        n_rows, n_cols = values.shape
        if n_rows < 1 or n_cols < 1:
            raise ValueError("empty matrix: need at least one row and one column")
        if len(self.columns) != n_cols:
            raise ValueError("column count does not match values width")
        if any(not c for c in self.columns):
            raise ValueError("column labels must be non-empty")
        if len(set(self.columns)) != n_cols:
            raise ValueError("duplicate column label")
        if not ((values >= MISSING) & (values <= 1)).all():
            raise ValueError("cells must be 0, 1 or missing")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def is_complete(self) -> bool:
        return bool((self.values != MISSING).all())

    def column_index(self, label: str) -> int:
        try:
            return self.columns.index(label)
        except ValueError:
            raise KeyError(f"unknown column label: {label!r}") from None

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.column_index(label)]

    @cached_property
    def _memo(self) -> dict:
        """Results of pure functions of this immutable matrix, kept with the instance."""
        return {}

    @cached_property
    def row_patterns(self) -> RowPatterns:
        """The distinct rows and each row's pattern id, computed once per matrix."""
        first, ids, counts = distinct_rows(self.values)
        patterns = RowPatterns(self.values[first], ids, counts)
        for a in patterns:
            a.flags.writeable = False
        return patterns

    def replace_values(self, values: np.ndarray) -> "EventMatrix":
        return EventMatrix(self.columns, values, self.delimiter)


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 joint counts over rows where both variables are observed."""

    a: str
    b: str
    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self) -> None:
        if min(self.n00, self.n01, self.n10, self.n11) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


@dataclass(frozen=True)
class MissingnessProfile:
    """Per-column and per-row missing-data summary."""

    columns: tuple[str, ...]
    missing_fraction: tuple[float, ...]
    row_run_counts: tuple[int, ...]
    row_single_block: tuple[bool, ...]
    fully_observed_rows: int

    @property
    def rows_single_block_fraction(self) -> float:
        return sum(self.row_single_block) / len(self.row_single_block)

    def to_json(self) -> str:
        doc = {
            "columns": [
                {"label": label, "missing_fraction": frac}
                for label, frac in zip(self.columns, self.missing_fraction)
            ],
            "rows_fully_observed": self.fully_observed_rows,
            "rows_single_block_fraction": self.rows_single_block_fraction,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _detect_delimiter(header: str) -> str:
    return "\t" if "\t" in header else ","


def load_reads(path: str | Path, schema: TokenSchema | None = None) -> EventMatrix:
    """Parse a delimited text table of event observations.

    The first line holds the column labels; the delimiter (comma or tab) is
    auto-detected from it.  Blank lines are skipped.  Cell tokens are
    decoded through ``schema``; anything outside the schema raises
    :class:`UnknownTokenError` with the offending row and column.  Each
    distinct data line is decoded once, in the order of its first
    occurrence, so an error names the first bad row of the file.
    """
    schema = schema or TokenSchema()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"unreadable file: {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    delimiter = _detect_delimiter(lines[0])
    columns = [c.strip() for c in lines[0].split(delimiter)]
    data_lines = [ln for ln in lines[1:] if ln.strip() != ""]
    if not data_lines:
        raise ValueError(f"{path}: no rows")
    pattern_of = {line: i for i, line in enumerate(dict.fromkeys(data_lines))}
    decoded = np.empty((len(pattern_of), len(columns)), dtype=np.int8)
    for i, line in enumerate(pattern_of):
        cells = line.split(delimiter)
        if len(cells) != len(columns):
            raise ValueError(
                f"{path}: row {data_lines.index(line) + 1} has {len(cells)} cells, expected {len(columns)}"
            )
        for j, cell in enumerate(cells):
            try:
                decoded[i, j] = schema.decode(cell.strip())
            except UnknownTokenError:
                raise UnknownTokenError(
                    f"{path}: unknown token {cell.strip()!r} at row {data_lines.index(line) + 1}, "
                    f"column {columns[j]!r}"
                ) from None
    ids = np.fromiter(map(pattern_of.__getitem__, data_lines), dtype=np.intp, count=len(data_lines))
    return EventMatrix(tuple(columns), decoded[ids], delimiter=delimiter)


def save_reads(m: EventMatrix, path: str | Path) -> None:
    """Write ``m`` using canonical tokens; inverse of :func:`load_reads`.

    A file containing only canonical tokens round-trips bit-exactly.  Each
    distinct row (``m.row_patterns``) is formatted once.
    """
    patterns = m.row_patterns
    formatted = [m.delimiter.join(_CANONICAL[v] for v in row) for row in patterns.rows.tolist()]
    lines = [m.delimiter.join(m.columns), *map(formatted.__getitem__, patterns.ids.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def assignment_index(values: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Bit-pack binary columns into one index per row (first column = high bit)."""
    idx = np.zeros(values.shape[0], dtype=np.int64)
    for j in cols:
        idx = (idx << 1) | values[:, j].astype(np.int64)
    return idx


# Size budget of one chunk's (rows x statements) packed index; its integer
# copy and the broadcast weights take as much again each.  Statements are
# independent, so chunking never changes a count, only peak memory; a
# chunk holds at least one statement.
_COUNT_BUDGET_BYTES = 64 * 2**10


def stacked_counts(
    rows: np.ndarray, weights: np.ndarray, cols: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Weighted row counts of every assignment of many column tuples, one chunk of tuples at a time.

    ``rows`` holds cells (0, 1 or MISSING), usually one row per distinct
    record pattern (``EventMatrix.row_patterns``), and ``weights`` each
    row's number of records.  Row s of the integer array ``cols`` names
    tuple s's column indices; all tuples have the same width k.  Yields
    ``(lo, counts)``: row i of ``counts``, shape ``(n_block, 2**k)``,
    counts tuple ``lo + i`` in binary counting order, first column high
    bit.  The cell index of every tuple of a chunk comes from one matmul
    of the rows against bit weights plus a per-tuple offset, and the chunk
    is counted in one weighted bincount.  A missing cell packs past every
    in-range index, so a row missing any of a tuple's cells lands in that
    tuple's discard bin and is not counted.  Counts are integers, exact in
    float64.  A chunk's packed index takes about ``_COUNT_BUDGET_BYTES``.
    """
    n_tuples, width = cols.shape
    n_cells = 1 << width
    packed = rows.astype(np.float64)
    packed[rows == MISSING] = n_cells
    bits = np.ldexp(1.0, np.arange(width - 1, -1, -1))
    chunk = max(1, _COUNT_BUDGET_BYTES // (8 * len(rows)))
    for lo in range(0, n_tuples, chunk):
        block = cols[lo : lo + chunk]
        n_block = len(block)
        w = np.zeros((rows.shape[1], n_block))
        w[block, np.arange(n_block)[:, None]] = bits
        # indices are small integers, exact in float64; bin n_cells of each tuple discards
        idx = packed @ w
        np.minimum(idx, n_cells, out=idx)
        idx += np.arange(n_block) * (n_cells + 1)
        idx = idx.astype(np.intp)  # the float copy is freed before the weights are broadcast
        counts = np.bincount(
            idx.ravel(), np.broadcast_to(weights[:, None], idx.shape).ravel(), n_block * (n_cells + 1)
        )
        yield lo, counts.reshape(n_block, n_cells + 1)[:, :n_cells]


def contingency(m: EventMatrix, a: str, b: str) -> ContingencyTable:
    """Joint 2x2 counts of (a, b) over rows where both are observed.

    Rows with a missing cell in either column are omitted: the one tuple
    of a ``stacked_counts`` pass over ``m.row_patterns``.  A pair with no
    jointly observed rows yields an empty table (total 0) rather than an
    error so that batch pairwise scans can skip it.
    """
    if a == b:
        raise ValueError("contingency requires two distinct columns")
    rows, _, weights = m.row_patterns
    _, counts = next(stacked_counts(rows, weights, np.array([[m.column_index(a), m.column_index(b)]])))
    return ContingencyTable(a, b, *(int(c) for c in counts[0]))


def cooccurrence_counts(m: EventMatrix, target: str) -> dict[frozenset[str], int]:
    """Count fully observed rows with target=1, keyed by which other events are 1.

    The empty frozenset keys rows where the target occurred alone.
    """
    t_idx = m.column_index(target)
    complete = (m.values != MISSING).all(axis=1)
    rows = m.values[complete & (m.values[:, t_idx] == 1)]
    others = [(j, label) for j, label in enumerate(m.columns) if j != t_idx]
    out: dict[frozenset[str], int] = {}
    for row in rows:
        key = frozenset(label for j, label in others if row[j] == 1)
        out[key] = out.get(key, 0) + 1
    return out


def missingness_profile(m: EventMatrix) -> MissingnessProfile:
    miss = m.values == MISSING
    fractions = tuple(float(f) for f in miss.mean(axis=0))
    # a run of missing cells starts where a cell is missing and its left neighbour is not
    run_starts = miss.copy()
    run_starts[:, 1:] &= ~miss[:, :-1]
    runs = tuple(run_starts.sum(axis=1).tolist())
    return MissingnessProfile(
        columns=m.columns,
        missing_fraction=fractions,
        row_run_counts=runs,
        row_single_block=tuple(r <= 1 for r in runs),
        fully_observed_rows=int((~miss.any(axis=1)).sum()),
    )


def exclude_events(m: EventMatrix, names: Iterable[str]) -> EventMatrix:
    """Drop the named columns (for instance an event known to distort the others)."""
    names = set(names)
    unknown = names - set(m.columns)
    if unknown:
        raise KeyError(f"unknown column label(s): {sorted(unknown)}")
    keep = [j for j, c in enumerate(m.columns) if c not in names]
    if not keep:
        raise ValueError("cannot drop all columns: empty matrix")
    if len(keep) == m.n_cols:
        return m
    return EventMatrix(tuple(m.columns[j] for j in keep), m.values[:, keep], m.delimiter)
