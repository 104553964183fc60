"""Command-line behavior: output contracts and exit codes."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cli_golden
from fairplay import cli, impossibility, solver
from fairplay.cli import main
from fairplay.fileio import parse_problem
from fairplay.fixtures import fixture_path
from fairplay.model import (
    Assignment,
    envy_report,
    g_vector,
    games_per_player,
    reduce_problem,
    validate_problem,
    zero_extend,
)
from fairplay.oracle import WitnessReport

T1 = str(fixture_path("table1.csv"))
T2 = str(fixture_path("table2.csv"))
PRINTED = str(fixture_path("table1_assignment_printed.csv"))
CORRECTED = str(fixture_path("table1_assignment_corrected.csv"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------- #
# reduce
# --------------------------------------------------------------------------- #

def test_reduce_table1(capsys):
    code, out, err = run(capsys, "reduce", "--input", T1, "--group-size", "4")
    assert code == 0
    assert "removed day Fri" in err
    assert "removed player Gordon B" in err
    assert err.index("Fri") < err.index("Gordon B")
    p = parse_problem(out, 4)
    assert p.n == 16 and p.m == 4


def test_reduce_table2_is_unchanged(capsys):
    code, out, err = run(capsys, "reduce", "--input", T2, "--group-size", "4")
    assert code == 0
    assert "no reductions" in err
    assert out == fixture_path("table2.csv").read_text(encoding="utf-8")


def test_reduce_to_file(capsys, tmp_path):
    target = tmp_path / "reduced.csv"
    code, out, _ = run(
        capsys, "reduce", "--input", T1, "--group-size", "4",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert parse_problem(target.read_text(encoding="utf-8"), 4).n == 16


def test_reduce_malformed_cell_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("player,d1\na,x\n", encoding="utf-8")
    code, _, err = run(capsys, "reduce", "--input", str(bad), "--group-size", "4")
    assert code == 2
    assert "'x'" in err


@pytest.mark.parametrize(
    "bad", ["2", "", " ", "01", "1.0", "true", "\u0661", "\uff11", "0x1"], ids=ascii
)
def test_solve_names_a_bad_cell_on_any_line_and_column(capsys, tmp_path, bad):
    """A cell that is not 0 or 1 once stripped exits 2 naming its line,
    column and stripped text, after rows of bare and of padded cells: an
    Arabic-Indic or fullwidth digit, which ``int()`` would take, is no
    cell."""
    days = ["Mon", "Tue", "Wed"]
    sheet = tmp_path / "sheet.csv"
    for row in range(4):
        for col in range(3):
            cells = [[f"p{i}", " 1 " if i % 2 else "1", "1", "0"] for i in range(4)]
            cells[row][col + 1] = bad
            lines = ["player," + ",".join(days), *map(",".join, cells)]
            sheet.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code, out, err = run(
                capsys, "solve", "--input", str(sheet), "--group-size", "2"
            )
            assert (code, out) == (2, "")
            assert err == (
                f"error: line {row + 2}, column {days[col]!r}: "
                f"cell {bad.strip()!r} is not 0 or 1\n"
            )


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "reduce", "--input", "no/such.csv", "--group-size", "4")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--input", "BAD", "--group-size", "2"],
        ["solve", "--input", "BAD", "--group-size", "2"],
        ["check", "--input", "BAD", "--group-size", "2", "--assignment", CORRECTED],
        ["check", "--input", T1, "--group-size", "4", "--assignment", "BAD"],
        ["enumerate", "--input", "BAD", "--group-size", "2"],
    ],
    ids=["reduce", "solve", "check-input", "check-assignment", "enumerate"],
)
def test_non_utf8_file_exits_2(capsys, tmp_path, argv):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"player,Mon\na\xff,1\n")
    code, out, err = run(capsys, *[str(bad) if arg == "BAD" else arg for arg in argv])
    assert (code, out, err) == (2, "", f"error: {bad}: not UTF-8 text\n")


def test_group_size_below_two_exits_2(capsys):
    code, _, err = run(capsys, "reduce", "--input", T1, "--group-size", "1")
    assert code == 2
    assert "group-size" in err


# --------------------------------------------------------------------------- #
# solve
# --------------------------------------------------------------------------- #

def test_solve_table2_json(capsys):
    code, out, _ = run(
        capsys, "solve", "--input", T2, "--group-size", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["g_vector"] == [11, 9, 0, 0, 0]
    assert payload["total_games"] == 5
    assert list(payload) == sorted(payload)  # stable alphabetical key order


def test_solve_table1_json_reports_reduced_core(capsys):
    code, out, _ = run(
        capsys, "solve", "--input", T1, "--group-size", "4", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["g_vector"] == [16, 8, 0, 0]
    gordon = payload["players"].index("Gordon B")
    assert payload["games_per_player"][gordon] == 0
    assert len(payload["matrix"]) == 17 and len(payload["matrix"][0]) == 5


def test_solve_json_fields_are_mutually_consistent(capsys):
    code, out, _ = run(
        capsys, "solve", "--input", T1, "--group-size", "4", "--format", "json"
    )
    payload = json.loads(out)
    x = Assignment(tuple(tuple(row) for row in payload["matrix"]))
    assert [sum(row) for row in payload["matrix"]] == payload["games_per_player"]
    assert x.total_slots() == payload["total_games"] * 4
    p = parse_problem(fixture_path("table1.csv").read_text("utf-8"), 4)
    reduced, _ = reduce_problem(p)
    pmap = [p.player_index(name) for name in reduced.players]
    dmap = [p.days.index(d) for d in reduced.days]
    core = Assignment(
        tuple(tuple(x.matrix[i][k] for k in dmap) for i in pmap)
    )
    assert list(g_vector(core).counts) == payload["g_vector"]


def test_solve_table_format_groups_players_into_games(capsys):
    code, out, _ = run(capsys, "solve", "--input", T2, "--group-size", "4")
    assert code == 0
    assert "fairness profile (reduced core): 11 9 0 0 0" in out
    assert "game 1: a, b, c, d" in out


def test_solve_same_seed_is_byte_identical(capsys):
    args = ("solve", "--input", T2, "--group-size", "4",
            "--tie-break", "random", "--seed", "31", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_solve_lex_repeat_is_byte_identical(capsys):
    args = ("solve", "--input", T1, "--group-size", "4", "--format", "table")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_solve_random_without_seed_exits_3(capsys):
    code, _, err = run(
        capsys, "solve", "--input", T2, "--group-size", "4", "--tie-break", "random"
    )
    assert code == 3
    assert "--seed" in err


def _reducing_sheet(seed):
    """Seeded g = 4 sheet of 12-18 players x 4-6 days, half of them
    available, where two players offer no day at all; on odd seeds one day
    has only two players.  Sheet 2 names its players with non-ASCII
    letters, quotes, backslashes and a comma."""
    rng = random.Random(seed)
    n, m = rng.randint(12, 18), rng.randint(4, 6)
    rows = [[int(rng.random() < 0.5) for _ in range(m)] for _ in range(n)]
    for i in rng.sample(range(n), 2):
        rows[i] = [0] * m
    if seed % 2:
        k = rng.randrange(m)
        for i, row in enumerate(rows):
            row[k] = int(i < 2)
    names = [f"p{i + 1}" for i in range(n)]
    if seed == 2:
        names[:5] = ["Zoë", '"JJ" Smith', "back\\slash", "日本", "Lee, Ann"]
    header = "player," + ",".join(f"d{k + 1}" for k in range(m))
    body = [
        '"' + name.replace('"', '""') + '",' + ",".join(map(str, row))
        for name, row in zip(names, rows)
    ]
    return "\n".join([header, *body]) + "\n"


_SOLVE_FLAGS = {
    "json-lex": ("--format", "json"),
    "json-random7": ("--format", "json", "--tie-break", "random", "--seed", "7"),
    "table-lex": ("--format", "table"),
    "table-random7": ("--format", "table", "--tie-break", "random", "--seed", "7"),
}

# SHA-256 of the UTF-8 stdout of ``solve --group-size 4`` with each of
# _SOLVE_FLAGS on _reducing_sheet(seed), as printed by the CLI that solved
# the whole sheet, zero-extended the result and restricted it back to the
# reduced core for the profile and the envy pairs.
_PINNED_SOLVE = {
    1: {
        "json-lex": "599a40f12801c39b1c1360f7c9bcaef8a55c19c4782f4adb87f8cff9b6d0e116",
        "json-random7": "22b44922a9218967f019df6a1cf3c0f1b871dc279c8357f3517fd97cff1f65c4",
        "table-lex": "cc1ae6742ed400d917ad48eb06e5f14d9209efbf6301427763dd94f815cb8663",
        "table-random7": "9b43ec03d3c3b876aa7245d89ada61eaf134979448a97e3062b102344874ce5c",
    },
    2: {
        "json-lex": "3a6d557faa045c3d550370878ed0650c80984b8468d05d77d893a509f4c12bbc",
        "json-random7": "5a08fedeb4b83b2ca62f0e53a0d18ec32f434a32c3286b9197ad0292e97b7d63",
        "table-lex": "fedf8c023b0ccd8947baa6976fdbf7198792f0ee02af7e99b7981dccce611d06",
        "table-random7": "a229d7923e0230bef3ba792dbf8da033f3a068213a389005eedc0c9f4b4ce4b8",
    },
    3: {
        "json-lex": "6e5b7a6f7cd29ae409e4806124d6e191f70aedf6501880e54aef2f1e6b8d6159",
        "json-random7": "fe98bd30b54720b7f7b4fa2c100b6b1fa1b939532e356cc2b880211893974079",
        "table-lex": "b06051d415c687a63c15d0b1bf83d053e3266c4b790b9bd0d7d024038edb2f04",
        "table-random7": "8b5c835b33771ad22826b2869205847ea6abb660500f3870e0e63381c59132c4",
    },
    6: {
        "json-lex": "8e0fb0ac1723447e868847cefb79a27b60163c292b542efec8bc61191ee980c6",
        "json-random7": "047a3b1e8ac4bd07d382a82c48dd0d56d60eaa5c9c874a8e47448501ee216820",
        "table-lex": "a8c15187e6f45bde7f4f698c223feb7665b8e1a10932362e88890bf2ba76c6dc",
        "table-random7": "f8e5a57d5d0fcf21ec50d8da94df2a86b4ee9764d7a084ffbb14d4ac8ed56174",
    },
    7: {
        "json-lex": "f09db5243b14ef27bf13f9983a9cfafcdf7df62e61bfb45ef864546e6833a7fc",
        "json-random7": "4b94d48c57df759a7a5d43e242753c7f29eadf02baa8a63445ae66901be109a6",
        "table-lex": "c7a32c74f9c23424d74e2c28d1b789abfcd4915909b65bd47d81c95fe7a44bab",
        "table-random7": "bf922f72c1962a784df828389134d09410a460672511454e1f4a443fecdf0440",
    },
}


@pytest.mark.parametrize("seed", sorted(_PINNED_SOLVE))
def test_solve_output_is_pinned_on_sheets_that_reduce(capsys, tmp_path, seed):
    text = _reducing_sheet(seed)
    _, log = reduce_problem(parse_problem(text, 4))
    assert len(log.removed_players) >= 2
    assert bool(log.removed_days) == bool(seed % 2)
    sheet = tmp_path / "sheet.csv"
    sheet.write_text(text, encoding="utf-8")
    digests = {}
    for name, flags in _SOLVE_FLAGS.items():
        code, out, err = run(
            capsys, "solve", "--input", str(sheet), "--group-size", "4", *flags
        )
        assert (code, err) == (0, "")
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == _PINNED_SOLVE[seed]


@pytest.mark.parametrize("sheet", ["table1", "table2", "reducing"])
def test_solve_reduces_its_sheet_once(capsys, monkeypatch, tmp_path, sheet):
    """``fairplay solve`` reduces the sheet in the CLI and solves that core
    without the solver reducing it again."""
    path = {"table1": T1, "table2": T2}.get(sheet)
    if path is None:
        path = tmp_path / "sheet.csv"
        path.write_text(_reducing_sheet(1), encoding="utf-8")
    calls = []

    def counted(p):
        calls.append(p)
        return reduce_problem(p)

    monkeypatch.setattr(cli, "reduce_problem", counted)
    monkeypatch.setattr(solver, "reduce_problem", counted)
    for flags in _SOLVE_FLAGS.values():
        calls.clear()
        code, _, _ = run(capsys, "solve", "--input", str(path), "--group-size", "4", *flags)
        assert code == 0
        assert len(calls) == 1, flags


def _named_sheet(rng, m):
    """A seeded sheet of m days and 1..9 players, group size 2 or 3, at a
    random density, so that reduction may drop players and days.  Names and
    day labels mix ASCII, non-ASCII letters, quotes, backslashes, control
    characters and commas; a leading index keeps them distinct."""
    alphabet = 'ab Z09"\\/\t\n\x01\x7féü日本\U0001F3BE,'

    def label(idx):
        middle = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
        return f"{idx}:{middle}."

    n, density = rng.randint(1, 9), rng.choice((0.3, 0.6, 0.9))
    rows = [[int(rng.random() < density) for _ in range(m)] for _ in range(n)]
    return validate_problem(
        [label(i) for i in range(n)], [label(k) for k in range(m)], rows,
        rng.choice((2, 3)),
    )


def test_solve_json_matches_json_dumps():
    """``_solve_json`` writes what ``json.dumps(payload, sort_keys=True,
    indent=2)`` writes for the solve's payload: on seeded sheets of 1..7
    days, of one player or several, with names that need escaping, with and
    without envy pairs, and with reductions that drop players and days."""
    rng = random.Random(20261020)
    seen = set()
    for trial in range(350):
        p = _named_sheet(rng, trial % 7 + 1)
        reduced, log = reduce_problem(p)
        report = solver._solve_irreducible(reduced, solver.TieBreakPolicy.lex())
        envy = envy_report(report.assignment, reduced)
        full = zero_extend(report.assignment, p, reduced)
        payload = {
            "days": p.days,
            "envy_pairs": [list(pair) for pair in envy.pairs],
            "g_vector": report.g_vector.counts,
            "games_per_player": games_per_player(full),
            "matrix": full.matrix,
            "players": p.players,
            "total_games": report.total_games,
        }
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert cli._solve_json(p, reduced, report) == expected, p
        seen |= {("m", p.m), ("one row", p.n == 1), ("envy", bool(envy.pairs)),
                 ("drops players", bool(log.removed_players)),
                 ("drops days", bool(log.removed_days)),
                 ("empty core", reduced.is_empty)}
    assert seen == {("m", m) for m in range(1, 8)} | {
        (case, flag) for case in ("one row", "envy", "drops players", "drops days",
                                  "empty core") for flag in (False, True)
    }


def test_solve_json_reads_back_to_the_same_bytes(capsys, tmp_path):
    """Every JSON the CLI prints, on the pinned sheets and on a sheet that
    reduces to nothing (listed last), is what ``json.dumps`` writes for its
    own parse."""
    sheets = [_reducing_sheet(seed) for seed in _PINNED_SOLVE]
    sheets.append("player,d1,d2\na,1,0\nb,0,1\n")
    sheet = tmp_path / "sheet.csv"
    for text in sheets:
        sheet.write_text(text, encoding="utf-8")
        code, out, _ = run(
            capsys, "solve", "--input", str(sheet), "--group-size", "4", "--format", "json"
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert json.loads(out)["g_vector"] == [] and json.loads(out)["envy_pairs"] == []


# --------------------------------------------------------------------------- #
# check
# --------------------------------------------------------------------------- #

def test_check_printed_brackets_exit_4_citing_tuesday(capsys):
    code, out, _ = run(
        capsys, "check", "--input", T1, "--assignment", PRINTED, "--group-size", "4"
    )
    assert code == 4
    assert "day-total constraint violated" in out
    assert "Tues" in out and "9" in out


def test_check_corrected_brackets(capsys):
    code, out, _ = run(
        capsys, "check", "--input", T1, "--assignment", CORRECTED, "--group-size", "4"
    )
    assert code == 0
    assert "feasible: yes" in out
    assert "efficient: yes" in out
    assert "fairness profile (reduced core): 16 8 0 0" in out
    assert "George StC" in out and "Barry T" in out
    assert "George StC (avail 4, games 1) envies Barry T (avail 2, games 2)" in out


def test_check_all_zero_assignment(capsys, tmp_path):
    p = parse_problem(fixture_path("table2.csv").read_text("utf-8"), 4)
    zero = "player," + ",".join(p.days) + "\n" + "".join(
        name + ",0,0,0,0,0\n" for name in p.players
    )
    zpath = tmp_path / "zero.csv"
    zpath.write_text(zero, encoding="utf-8")
    code, out, _ = run(
        capsys, "check", "--input", T2, "--assignment", str(zpath), "--group-size", "4"
    )
    assert code == 0
    assert "feasible: yes" in out
    assert "efficient: no" in out


def test_check_shape_mismatch_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("player,Mon\nBarry T,1\n", encoding="utf-8")
    code, _, err = run(
        capsys, "check", "--input", T1, "--assignment", str(bad), "--group-size", "4"
    )
    assert code == 2


# --------------------------------------------------------------------------- #
# verify
# --------------------------------------------------------------------------- #

def test_verify_g4(capsys):
    code, out, _ = run(capsys, "verify", "--group-size", "4")
    assert code == 0
    assert "efficient assignments: 42875" in out
    assert "impossibility demonstrated" in out


def test_verify_g3(capsys):
    code, out, _ = run(capsys, "verify", "--group-size", "3")
    assert code == 0
    assert "efficient assignments: 1000" in out


def test_verify_g2_bounds_2_2_exits_5(capsys):
    code, out, _ = run(capsys, "verify", "--group-size", "2", "--bounds", "2,2")
    assert code == 5
    assert "search exhausted" in out


def test_verify_g2_prints_the_first_witness(capsys, monkeypatch):
    """No witness lies within reach, so the search's decision is made to
    read the first (2,2) candidate, the all-ones matrix, as one, and the
    verifier to report it."""
    decide = impossibility._decide

    def fake_decide(columns, budget):
        if len(columns) < 2:
            return decide(columns, budget)
        return True, None

    def fake(p, budget):
        return WitnessReport(
            problem=p,
            efficient_count=1,
            first_ef_witness=None,
            min_envy_pairs=3,
            scanned=1,
            conclusive=True,
        )

    monkeypatch.setattr(impossibility, "_decide", fake_decide)
    monkeypatch.setattr(impossibility, "verify_no_fair_ef", fake)
    code, out, err = run(capsys, "verify", "--group-size", "2", "--bounds", "2,2")
    assert (code, err) == (0, "")
    assert out == (
        "searched 2 irreducible instance(s) across 2 size(s)\n"
        "witness found: no efficient assignment is strongly envy-free\n"
        "player,d1,d2\n"
        "p1,1,1\n"
        "p2,1,1\n"
        "efficient assignments: 1\n"
        "minimum envy pairs: 3\n"
    )


def test_verify_g2_with_skipped_sizes_exits_6(capsys):
    code, out, _ = run(
        capsys, "verify", "--group-size", "2", "--bounds", "5,5",
        "--per-size-cap", "1000",
    )
    assert code == 6
    assert "skipped sizes" in out


_VERIFY_6 = (
    "instance: 17 players x 5 days, group size 6\n"
    "efficient assignments: 98611128\n"
)


@pytest.mark.parametrize(
    "budget, code, tail",
    [
        (None, 6, "examined: 10000000\ninconclusive: enumeration budget exhausted\n"),
        (
            "98611128",
            0,
            "examined: 98611128\nimpossibility demonstrated: no efficient assignment "
            "is strongly envy-free (minimum envy pairs: 12)\n",
        ),
    ],
    ids=["default-budget", "full-budget"],
)
def test_verify_g6_output_is_pinned(capsys, budget, code, tail):
    """The witness of g = 6 under the default budget of 10^7 and under a
    budget of all its leaves: the whole stdout and the exit code are
    pinned, so a change in what either envy fold finds shows here."""
    argv = ["verify", "--group-size", "6"] + (["--budget", budget] if budget else [])
    assert run(capsys, *argv) == (code, _VERIFY_6 + tail, "")


def test_verify_budget_inconclusive_exits_6(capsys):
    code, out, _ = run(
        capsys, "verify", "--group-size", "4", "--budget", "100"
    )
    assert code == 6
    assert "inconclusive" in out


def test_verify_flags_do_not_carry_over_to_the_next_call(capsys):
    """``main`` reuses one parser, so each call must start from the defaults."""
    code, out, _ = run(capsys, "verify", "--group-size", "4", "--budget", "100")
    assert (code, "examined: 100" in out) == (6, True)
    code, out, _ = run(capsys, "verify", "--group-size", "4")
    assert (code, "examined: 42875" in out) == (0, True)


def test_verify_bad_bounds_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group-size", "2", "--bounds", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group-size", "4", "--budget", "-1"],
        ["verify", "--group-size", "4", "--budget", "0"],
        ["verify", "--group-size", "4", "--budget", "many"],
        ["verify", "--group-size", "2", "--per-size-cap", "0"],
        ["enumerate", "--input", T2, "--group-size", "4", "--budget", "-3"],
        ["enumerate", "--input", T2, "--group-size", "4",
         "--format", "stream", "--limit", "-1"],
    ],
    ids=[
        "verify-budget-negative",
        "verify-budget-zero",
        "verify-budget-not-int",
        "verify-per-size-cap-zero",
        "enumerate-budget-negative",
        "enumerate-limit-negative",
    ],
)
def test_count_flags_below_one_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# --------------------------------------------------------------------------- #
# enumerate
# --------------------------------------------------------------------------- #

def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", T2, "--group-size", "4")
    assert (code, out.strip()) == (0, "42875")
    code, out, _ = run(capsys, "enumerate", "--input", T1, "--group-size", "4")
    assert (code, out.strip()) == (0, "23625")


def test_enumerate_count_over_budget_exits_6(capsys):
    code, out, err = run(
        capsys, "enumerate", "--input", T2, "--group-size", "4", "--budget", "1000"
    )
    assert code == 6
    assert "exceeds" in err


def test_enumerate_stream_one_block(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--input", T2, "--group-size", "4",
        "--format", "stream", "--limit", "1",
    )
    assert code == 0
    p = parse_problem(fixture_path("table2.csv").read_text("utf-8"), 4)
    from fairplay.fileio import parse_assignment
    from fairplay.model import is_efficient, is_feasible

    x = parse_assignment(out, p)
    assert is_feasible(x, p).ok
    assert is_efficient(x, p)


def test_enumerate_stream_blocks_are_blank_line_separated(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--input", T2, "--group-size", "4",
        "--format", "stream", "--limit", "3",
    )
    blocks = out.split("\n\n")
    assert len(blocks) == 3
    assert all(b.startswith("player,") for b in blocks)


def test_enumerate_stream_reports_truncation_by_budget(capsys):
    """table2 has 42,875 assignments: a budget below the limit cuts the
    stream and says so on stderr; a limit within the budget does not."""
    def stream(limit, budget):
        return run(
            capsys, "enumerate", "--input", T2, "--group-size", "4",
            "--format", "stream", "--limit", limit, "--budget", budget,
        )

    code, cut, err = stream("5", "3")
    assert code == 0
    assert len(cut.split("\n\n")) == 3
    assert err == "stream truncated by enumeration budget\n"
    code, out, err = stream("3", "3")
    assert (code, out, err) == (0, cut, "")
    code, out, err = stream("4", "42875")
    assert (code, err) == (0, "")
    assert len(out.split("\n\n")) == 4
    assert out.startswith(cut)


@pytest.mark.parametrize("columns", ["60", "80", "200", "0", "-3", "wide", None])
def test_help_is_wrapped_as_argparse_wraps_it(monkeypatch, columns):
    """The CLI's formatter finds the width ``shutil.get_terminal_size``
    gives, so every parser's help and usage equal what argparse's own
    formatter prints, with ``COLUMNS`` set, unusable or unset."""
    import shutil

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._terminal_columns() == shutil.get_terminal_size().columns
    parser = cli.build_parser()
    for p in [parser, *parser._subparsers._group_actions[0].choices.values()]:
        ours = p.format_help(), p.format_usage()
        monkeypatch.setattr(p, "formatter_class", argparse.HelpFormatter)
        assert (p.format_help(), p.format_usage()) == ours


# --------------------------------------------------------------------------- #
# cold runs
# --------------------------------------------------------------------------- #

_COLD_ARGVS = [
    ["reduce", "--input", T1, "--group-size", "4"],
    ["solve", "--input", T1, "--group-size", "4", "--format", "json"],
    ["solve", "--input", T1, "--group-size", "4", "--tie-break", "random", "--seed", "7"],
    ["check", "--input", T1, "--assignment", CORRECTED, "--group-size", "4"],
    ["verify", "--group-size", "3"],
    ["verify", "--group-size", "2", "--bounds", "3,3"],
    ["enumerate", "--input", T2, "--group-size", "4"],
    ["enumerate", "--input", T2, "--group-size", "4", "--format", "stream", "--limit", "2"],
    ["--help"],
    *([command, "--help"] for command in ("reduce", "solve", "check", "verify", "enumerate")),
]


@pytest.mark.parametrize(
    "argv", _COLD_ARGVS, ids=lambda argv: " ".join(map(os.path.basename, argv))
)
def test_a_fresh_process_prints_what_main_prints(capsys, monkeypatch, argv):
    """Each command and each ``--help`` gives the same stdout, stderr and
    exit code in a fresh ``python -m fairplay.cli`` as through ``main`` in
    this process, where every layer is loaded already: an import that a
    command makes when it runs cannot be missing."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(src)}
    cold = subprocess.run(
        [sys.executable, "-m", "fairplay.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    assert (cold.returncode, cold.stdout, cold.stderr) == (
        code, captured.out, captured.err
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(argv, expected, id=" ".join(map(os.path.basename, argv)))
        for argv, expected in cli_golden.read_table()
    ],
)
def test_cli_output_matches_the_golden_table(monkeypatch, argv, expected):
    """Each line of ``tests/data/cli_golden.txt`` (see ``cli_golden``) exits
    with its code and prints its stdout and stderr, byte for byte, or for
    ``--help`` up to whitespace."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert cli_golden.run(argv) == expected


def test_ci_checks_every_line_of_the_long_golden_table():
    """The long table is too slow for tier-1.  It holds exactly
    ``cli_golden.LONG_COMMANDS``, and CI runs ``cli_golden.py --check`` on
    each of its lines."""
    table = [argv for argv, _ in cli_golden.read_table(cli_golden.LONG_TABLE)]
    assert table == cli_golden.LONG_COMMANDS
    workflow = (cli_golden.ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8")
    prefix = "run: PYTHONPATH=src python tests/cli_golden.py --check "
    checked = [line.strip()[len(prefix):] for line in workflow.splitlines()
               if line.strip().startswith(prefix)]
    assert sorted(checked) == sorted(map(" ".join, table))


def test_golden_check_mode_fails_on_any_mismatch(capsys, monkeypatch, tmp_path):
    """``cli_golden.py --check`` passes a command whose exit code and
    digests match its line and prints its stdout; it fails when the exit
    code or a digest differs, or when no line holds the command."""
    argv = ["verify", "--group-size", "3"]
    code, out, err = cli_golden.run(argv)
    table = tmp_path / "long.txt"
    monkeypatch.setattr(cli_golden, "LONG_TABLE", table)
    for fields, verdict in (
        ((code, out, err), 0),
        ((code + 1, out, err), 1),
        ((code, err, err), 1),
        ((code, out, out), 1),
    ):
        table.write_text(f"# header\n{' '.join(map(str, fields))} {' '.join(argv)}\n")
        assert cli_golden.main(["--check", *argv]) == verdict
        printed = capsys.readouterr().out
        assert printed.startswith("instance: 8 players x 5 days, group size 3\n")
    assert cli_golden.main(["--check", "verify", "--group-size", "4"]) == 1
    assert "no line for verify --group-size 4" in capsys.readouterr().err
