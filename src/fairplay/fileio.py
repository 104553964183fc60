"""CSV formats for availability and assignment matrices.

Layout: header ``player,<day1>,...,<dayM>``, one row per player with 0/1
cells.  UTF-8; a leading BOM, LF or CRLF, and empty or whitespace-only
lines anywhere are accepted on input; output is always LF with no trailing
separators and no BOM.  Derived totals are never stored, only recomputed,
so inconsistent totals cannot enter data files.
"""

from __future__ import annotations

import csv
import io
import os

from fairplay.model import Assignment, Problem, ValidationError, _validate_labels


_CELLS = {"0": 0, "1": 1}


def _parse_cells(cells: list[str], lineno: int, days: list[str]) -> list[int]:
    """One row's cells, each stripped, or a ValidationError naming the
    first that is not 0 or 1."""
    row = []
    for label, cell in zip(days, cells):
        cell = cell.strip()
        if cell not in _CELLS:
            raise ValidationError(
                f"line {lineno}, column {label!r}: cell {cell!r} is not 0 or 1"
            )
        row.append(_CELLS[cell])
    return row


def parse_matrix_csv(text: str) -> tuple[list[str], list[str], list[list[int]]]:
    """Parse the common matrix layout into (players, days, rows).

    A row of bare ``0``/``1`` cells converts in one pass over a two-entry
    table; any other row takes the per-cell path, which strips each cell,
    so padded cells parse, and names the first bad one.  Raises
    ValidationError naming the offending cell on any malformed input.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    # an empty line or a line of spaces is skipped wherever it stands
    lines = (
        (lineno, record)
        for lineno, record in enumerate(reader, start=1)
        if len(record) > 1 or (record and record[0].strip())
    )
    try:
        _, header = next(lines)
    except StopIteration:
        raise ValidationError("empty file: expected a header row") from None
    if len(header) < 2:
        raise ValidationError("header must name at least one day column")
    if header[0].strip() != "player":
        raise ValidationError(
            f"header must start with 'player', got {header[0]!r}"
        )
    days = [label.strip() for label in header[1:]]

    players: list[str] = []
    rows: list[list[int]] = []
    for lineno, record in lines:
        if len(record) != len(days) + 1:
            raise ValidationError(
                f"line {lineno}: expected {len(days) + 1} fields, got {len(record)}"
            )
        players.append(record[0].strip())
        try:
            rows.append([_CELLS[cell] for cell in record[1:]])
        except KeyError:  # a padded cell, or a bad one to name
            rows.append(_parse_cells(record[1:], lineno, days))
    if not players:
        raise ValidationError("no player rows found")
    return players, days, rows


def parse_problem(text: str, group_size: int) -> Problem:
    """Parse an availability file.  The reader builds every row as ints 0/1,
    one per day, so only :func:`validate_problem`'s label checks remain."""
    players, days, rows = parse_matrix_csv(text)
    _validate_labels(players, days, group_size)
    return Problem(tuple(players), tuple(days), tuple(map(tuple, rows)), group_size)


def _read_text(path: str | os.PathLike[str]) -> str:
    """A file's text; bytes that are not UTF-8 are an input error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"{os.fspath(path)}: not UTF-8 text") from None


def parse_problem_file(path: str | os.PathLike[str], group_size: int) -> Problem:
    return parse_problem(_read_text(path), group_size)


def parse_assignment(text: str, p: Problem) -> Assignment:
    """Parse an assignment file and check it lines up with the problem's
    player and day labels."""
    players, days, rows = parse_matrix_csv(text)
    if tuple(players) != p.players:
        raise ValidationError(
            "assignment player names do not match the availability file"
        )
    if tuple(days) != p.days:
        raise ValidationError(
            "assignment day labels do not match the availability file"
        )
    return Assignment(tuple(tuple(row) for row in rows))


def parse_assignment_file(path: str | os.PathLike[str], p: Problem) -> Assignment:
    return parse_assignment(_read_text(path), p)


def _serialize(players, days, matrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["player", *days])
    for name, row in zip(players, matrix):
        writer.writerow([name, *row])
    return out.getvalue()


def serialize_problem(p: Problem) -> str:
    return _serialize(p.players, p.days, p.avail)


def serialize_assignment(x: Assignment, p: Problem) -> str:
    return _serialize(p.players, p.days, x.matrix)
