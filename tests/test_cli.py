"""Command-line behavior: output contracts and exit codes."""

import json

import pytest

from fairplay import impossibility
from fairplay.cli import main
from fairplay.fileio import parse_problem
from fairplay.fixtures import fixture_path
from fairplay.model import g_vector, reduce_problem, Assignment
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


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "reduce", "--input", "no/such.csv", "--group-size", "4")
    assert code == 2


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
    """No witness lies within reach, so the search's verifier is made to
    read the first (2,2) candidate, the all-ones matrix, as one."""
    verify = impossibility.verify_no_fair_ef

    def fake(p, budget):
        if p.m < 2:
            return verify(p, budget)
        return WitnessReport(
            problem=p,
            efficient_count=1,
            first_ef_witness=None,
            min_envy_pairs=3,
            scanned=1,
            conclusive=True,
        )

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
