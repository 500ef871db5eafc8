"""Pearson and Spearman correlation over per-utterance score tables.

Pure Python, with correctly rounded sums (math.fsum): score tables are
a few hundred rows, and correlate runs without importing numpy.
"""

from __future__ import annotations

import csv
import math


def _floats(values) -> list[float]:
    try:
        return [float(v) for v in values]
    except TypeError:
        raise ValueError("correlation inputs must be 1-D sequences of numbers") from None


def _validated_pair(x, y) -> tuple[list[float], list[float]]:
    x, y = _floats(x), _floats(y)
    if len(x) != len(y):
        raise ValueError(f"sequences must be equal-length 1-D, got {len(x)} vs {len(y)} values")
    if len(x) < 2:
        raise ValueError("correlation needs at least 2 points")
    if not all(map(math.isfinite, x + y)):
        raise ValueError("correlation inputs must be finite")
    if min(x) == max(x) or min(y) == max(y):
        raise ValueError("correlation undefined for a constant sequence")
    return x, y


def _unit_scaled(seq: list[float]) -> list[float]:
    """seq times the power of two that brings its largest magnitude into [0.5, 1)."""
    exp = math.frexp(max(map(abs, seq)))[1]
    return [math.ldexp(v, -exp) for v in seq]


def pcc(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    # a positive scale leaves the PCC as it is and a power of two scales
    # exactly; this one keeps the squared deviations of values near 1e-200
    # from underflowing to 0 and of values near 1e200 from overflowing
    x, y = map(_unit_scaled, _validated_pair(x, y))
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    num = math.fsum(a * b for a, b in zip(dx, dy))
    den = math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    return min(1.0, max(-1.0, num / den))


def average_ranks(values) -> list[float]:
    """1-based ranks; ties get the mean of their rank span."""
    v = _floats(values)
    order = sorted(range(len(v)), key=v.__getitem__)
    ranks = [0.0] * len(v)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def srcc(x, y) -> float:
    """Spearman rank correlation: Pearson over average ranks."""
    x, y = _validated_pair(x, y)
    return pcc(average_ranks(x), average_ranks(y))


class CorrelationResult:
    def __init__(self, pcc: float, srcc: float, n: int):
        self.pcc = pcc
        self.srcc = srcc
        self.n = n


def _number(text: str, path, lineno: int, col: str) -> float | None:
    """The float of a stripped cell, None for an empty one; a cell that is no finite number is refused."""
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: cell {text!r} in column {col!r} is not numeric") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: cell {text!r} in column {col!r} is not finite")
    return value


class ScoreTable:
    """Per-utterance table, one list per column; the first column holds the utterance ids.

    A column whose non-empty cells are all finite numbers holds floats and
    any other column keeps its text; an empty cell is None.  `refused` maps
    each text column to the error of its first cell that is no finite
    number, which correlate_table raises for a metric or score column.
    """

    def __init__(self, columns: dict[str, list], refused: dict[str, str] | None = None):
        self.columns = columns
        self.id_column = next(iter(columns))
        self.refused = refused or {}

    def column(self, name: str) -> list:
        if name not in self.columns:
            available = ", ".join(self.columns)
            raise ValueError(f"column {name!r} not found (available: {available})")
        return self.columns[name]

    @classmethod
    def from_csv(cls, path) -> "ScoreTable":
        """The table of a CSV file whose first column holds the utterance ids;
        blank lines and a leading byte-order mark are skipped."""
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                records = [(reader.line_num, raw) for raw in reader if raw]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not records:
            raise ValueError(f"{path}: empty CSV")
        (_, header), *body = records
        for lineno, raw in body:
            if len(raw) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(raw)}")
        cells = [[raw[i].strip() for _, raw in body] for i in range(len(header))]
        repeated = [col for i, col in enumerate(header) if col in header[:i]]
        if repeated:
            raise ValueError(f"{path}: duplicate column {repeated[0]!r}")
        seen = set()
        for rid in cells[0]:
            if rid in seen:
                raise ValueError(f"{path}: duplicate utterance id {rid!r}")
            seen.add(rid)
        columns, refused = {header[0]: cells[0]}, {}
        for col, texts in zip(header[1:], cells[1:]):
            try:
                columns[col] = [_number(text, path, lineno, col) for (lineno, _), text in zip(body, texts)]
            except ValueError as exc:
                columns[col], refused[col] = [text or None for text in texts], str(exc)
        return cls(columns, refused)


def correlate_table(table: ScoreTable, metric_col: str, score_col: str,
                    group_by: str | None = None) -> list[tuple[float | str | None, CorrelationResult]]:
    """Pearson and Spearman between two numeric columns, dropping incomplete rows:
    [(None, result)], or one (value, result) per value of group_by, ascending,
    where a text column groups by its text."""
    keys = table.column(group_by) if group_by else [None] * len(table.columns[table.id_column])
    groups = sorted({v for v in keys if v is not None}) if group_by else [None]
    if not groups:
        raise ValueError(f"column {group_by!r} has no values to group by")
    for col in (metric_col, score_col):
        if col == table.id_column:
            raise ValueError(f"column {col!r} is the id column, not a numeric column")
        if col in table.refused:
            raise ValueError(table.refused[col])
    metric, score = table.column(metric_col), table.column(score_col)
    results = []
    for group in groups:
        pairs = [(mv, sv) for key, mv, sv in zip(keys, metric, score)
                 if key == group and mv is not None and sv is not None]
        # a failing group is named as the correlate command prints it
        prefix = f"{group_by}={group}: " if group_by else ""
        if len(pairs) < 2:
            raise ValueError(f"{prefix}fewer than 2 usable rows between {metric_col!r} and {score_col!r}")
        xs, ys = zip(*pairs)
        try:
            results.append((group, CorrelationResult(pcc=pcc(xs, ys), srcc=srcc(xs, ys), n=len(xs))))
        except ValueError as exc:
            raise ValueError(f"{prefix}{exc}") from None
    return results
