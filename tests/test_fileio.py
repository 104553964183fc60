"""CSV formats: parsing, serialization, and the round-trip identity."""

import csv
import io

import pytest

from conftest import random_problem
from fairplay import fixtures
from fairplay.fileio import (
    parse_assignment,
    parse_assignment_file,
    parse_matrix_csv,
    parse_problem,
    parse_problem_file,
    serialize_assignment,
    serialize_problem,
)
from fairplay.model import ValidationError, validate_problem


def test_parse_table1():
    p = fixtures.table1()
    assert p.players[0] == "Barry T"
    assert p.players[-1] == "Ken L"
    assert p.days == ("Mon", "Tues", "Wed", "Thurs", "Fri")
    assert p.avail[0] == (0, 0, 1, 1, 0)


def test_crlf_input_is_accepted():
    text = "player,d1,d2\r\na,1,0\r\nb,1,1\r\n"
    players, days, rows = parse_matrix_csv(text)
    assert players == ["a", "b"]
    assert rows == [[1, 0], [1, 1]]


def test_utf8_bom_input_parses_like_plain_input(tmp_path):
    def with_bom(name):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + fixtures.fixture_path(name).read_bytes())
        return path

    p = parse_problem_file(with_bom("table1.csv"), 4)
    assert p == fixtures.table1()
    name = "table1_assignment_corrected.csv"
    x = parse_assignment_file(with_bom(name), p)
    assert x == fixtures.table1_assignment_corrected()
    assert serialize_assignment(x, p) == fixtures.fixture_text(name)
    # the text entry points strip the BOM too
    assert parse_problem("\ufeff" + fixtures.fixture_text("table1.csv"), 4) == p
    assert parse_assignment("\ufeff" + fixtures.fixture_text(name), p) == x
    assert parse_problem("\ufeffplayer,d1\na,1\nb,1\n", 2).players == ("a", "b")


def test_quoted_names_with_commas_round_trip():
    text = 'player,d1\n"Smith, Jr",1\nplain,0\n'
    p = parse_problem(text, 2)
    assert p.players == ("Smith, Jr", "plain")
    assert parse_problem(serialize_problem(p), 2) == p


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file"),
        ("player\n", "at least one day"),
        ("names,d1\na,1\n", "must start with 'player'"),
        ("player,d1\na,1,1\n", "expected 2 fields"),
        ("player,d1\na,x\n", "not 0 or 1"),
        ("player,d1\n", "no player rows"),
        ("player,d1\na,2\n", "not 0 or 1"),
    ],
)
def test_parse_errors_name_the_defect(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_problem(text, 2)


def test_malformed_cell_error_names_the_cell():
    with pytest.raises(ValidationError, match=r"line 3.*'d2'"):
        parse_problem("player,d1,d2\na,1,1\nb,1,x\n", 2)


def test_cells_read_only_0_or_1_after_stripping():
    """A cell is 0 or 1 once its spaces are stripped; no other spelling that
    ``int`` would read passes, and the error names the first such cell."""
    assert parse_matrix_csv("player,d1,d2\na, 1,0 \nb,1,0\n")[2] == [[1, 0], [1, 0]]
    for cell in ("01", "+1", "1.0", "true", " ", "1_0"):
        with pytest.raises(ValidationError) as exc:
            parse_matrix_csv(f"player,d1,d2\na,1,{cell}\nb,x,1\n")
        assert str(exc.value) == f"line 2, column 'd2': cell {cell.strip()!r} is not 0 or 1"


def test_header_and_blank_lines_tolerate_whitespace():
    """Whitespace around the header's first cell is stripped as it is around
    every other label, and a line of spaces is skipped like an empty one."""
    plain = parse_matrix_csv("player,Mon\na,1\nb,1\n")
    assert parse_matrix_csv("player ,Mon\na,1\nb,1\n") == plain
    assert parse_matrix_csv(" player,Mon \na,1\n   \nb,1\n \t\n") == plain
    assert serialize_problem(parse_problem("player ,Mon\na,1\n  \nb,1\n", 2)) == (
        "player,Mon\na,1\nb,1\n"
    )


def test_blank_lines_before_the_header_are_skipped():
    """An empty or whitespace-only line before the header is skipped as it is
    after it, and later errors still cite the file's own line numbers."""
    plain = parse_matrix_csv("player,Mon\na,1\n")
    assert parse_matrix_csv("\nplayer,Mon\na,1\n") == plain
    assert parse_matrix_csv("  \nplayer,Mon\na,1\n") == plain
    with pytest.raises(ValidationError, match=r"line 5.*'d2'"):
        parse_matrix_csv("\n \t\nplayer,d1,d2\na,1,1\nb,1,x\n")
    with pytest.raises(ValidationError, match="line 4: expected 2 fields"):
        parse_matrix_csv(" \nplayer,d1\n\na,1,1\n")
    with pytest.raises(ValidationError, match="empty file"):
        parse_matrix_csv("\n  \n")


def test_duplicate_names_rejected_via_validate():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_problem("player,d1\na,1\na,1\n", 2)


def test_assignment_labels_must_match():
    p = fixtures.table1()
    with pytest.raises(ValidationError, match="player names"):
        parse_assignment("player,Mon\nwho,1\n", p)
    wrong_days = serialize_problem(p).replace("Tues", "Tuesday")
    with pytest.raises(ValidationError, match="day labels"):
        parse_assignment(wrong_days, p)


def test_serialization_is_lf_only_without_trailing_separators():
    text = serialize_problem(fixtures.table2())
    assert "\r" not in text
    assert not text.startswith("﻿")
    assert all(not line.endswith(",") for line in text.splitlines())
    assert text.endswith("\n")


def test_fixture_files_round_trip_byte_identically():
    for name in (
        "table1.csv",
        "table2.csv",
        "table1_assignment_printed.csv",
        "table1_assignment_corrected.csv",
    ):
        raw = fixtures.fixture_text(name)
        if name.startswith("table1_assignment"):
            p = fixtures.table1()
            x = parse_assignment(raw, p)
            assert serialize_assignment(x, p) == raw
        else:
            p = parse_problem(raw, 4)
            assert serialize_problem(p) == raw


def test_random_problems_round_trip(rng):
    for _ in range(100):
        p = random_problem(rng)
        assert parse_problem(serialize_problem(p), p.group_size) == p


def test_names_round_trip_and_padded_names_are_rejected(rng):
    """Names with inner spaces, commas, quotes and newlines survive a
    serialize-parse round trip.  A name with outer whitespace could not,
    since the reader strips every cell, so it is rejected up front, naming
    its row or column."""
    alphabet = "ab ,\"'\n"
    for _ in range(100):
        names = set()
        while len(names) < 6:
            name = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            names.add(f"x{name}y")
        players = sorted(names)
        days = [players.pop(), players.pop()]
        rows = [[rng.randint(0, 1) for _ in days] for _ in players]
        p = validate_problem(players, days, rows, 2)
        assert parse_problem(serialize_problem(p), 2) == p
    for players, days, fragment in (
        (["Ann ", "Bob"], ["Mon", "Tue"], r"row 0: player name 'Ann '"),
        (["Ann", "\nBob"], ["Mon", "Tue"], r"row 1: player name '\\nBob'"),
        (["Ann", "Bob"], ["Mon", " Tue"], r"column 1: day label ' Tue'"),
        (["Ann", "Bob"], ["\tMon", "Tue"], r"column 0: day label '\\tMon'"),
    ):
        with pytest.raises(ValidationError, match=fragment):
            validate_problem(players, days, [[1, 1], [1, 1]], 2)


def _blank(rng):
    return "".join(rng.choice(" \t") for _ in range(rng.randint(0, 2)))


def _mutant(text, rng):
    """``text``, a CSV of one record per line, with layout the grammar
    allows: a BOM, LF or CRLF per line, spaces or tabs around each unquoted
    cell, and empty or whitespace-only lines anywhere, trailing ones too.
    A quoted cell stays unpadded: ``csv`` reads a quote after a space
    literally."""
    lines = []
    for line in text.splitlines():
        lines += [_blank(rng) for _ in range(rng.choice((0, 0, 0, 1, 2)))]
        cells = []
        for cell in next(csv.reader([line])):
            out = io.StringIO()
            csv.writer(out, lineterminator="").writerow([cell])
            quoted = out.getvalue()
            cells.append(quoted if quoted[0] == '"' else _blank(rng) + quoted + _blank(rng))
        lines.append(",".join(cells))
    lines += [_blank(rng) for _ in range(rng.randint(0, 2))]
    body = "".join(line + rng.choice(("\n", "\r\n")) for line in lines)
    if rng.random() < 0.3:
        body = body.rstrip("\r\n")
    return ("\ufeff" if rng.random() < 0.5 else "") + body


def test_layout_mutants_parse_like_the_original(rng):
    """Seeded mutants of the four bundled fixtures and of random matrices,
    some with quoted names, each parse to the original's players, days and
    rows."""
    texts = [
        fixtures.fixture_path(name).read_text(encoding="utf-8")
        for name in (
            "table1.csv",
            "table2.csv",
            "table1_assignment_printed.csv",
            "table1_assignment_corrected.csv",
        )
    ]
    texts += [serialize_problem(random_problem(rng)) for _ in range(20)]
    for _ in range(20):
        names = set()
        while len(names) < 6:
            names.add("x" + "".join(rng.choice("ab ,\"'") for _ in range(rng.randint(1, 4))) + "y")
        players = sorted(names)
        days = [players.pop(), players.pop()]
        rows = [[rng.randint(0, 1) for _ in days] for _ in players]
        texts.append(serialize_problem(validate_problem(players, days, rows, 2)))
    for text in texts:
        parsed = parse_matrix_csv(text)
        for _ in range(30):
            mutant = _mutant(text, rng)
            assert parse_matrix_csv(mutant) == parsed, repr(mutant)
