"""Acceptance gate: every release criterion, each printing one PASS/FAIL
line (see the summary block at the end of the pytest run) and enforcing its
stated time bound.

The time bounds hold on the package's pure-Python scan kernel; each summary
line reports the elapsed time next to its bound.
"""

import random
import time
from contextlib import contextmanager

import conftest
import corpus
from fairplay.cli import main as cli_main
from fairplay.fileio import parse_problem, serialize_problem
from fairplay.fixtures import fixture_path, table1, table2
from fairplay.impossibility import (
    SearchBounds,
    build_table2,
    build_witness,
    search_witness_g2,
    verify_no_fair_ef,
)
from fairplay.model import (
    envy_report,
    is_efficient,
    is_feasible,
    is_irreducible,
    max_total_games,
    reduce_problem,
    validate_problem,
)
from fairplay.oracle import (
    brute_force_fair,
    count_efficient,
    enumerate_efficient,
    exists_efficient_strongly_ef,
)
from fairplay.solver import solve_fair

T1 = str(fixture_path("table1.csv"))
PRINTED = str(fixture_path("table1_assignment_printed.csv"))
CORRECTED = str(fixture_path("table1_assignment_corrected.csv"))


@contextmanager
def criterion(num, limit_s, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append(
            f"criterion {num:>2} FAIL  {description}"
        )
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    conftest.ACCEPTANCE_RESULTS.append(
        f"criterion {num:>2} {verdict}  {description} "
        f"[{elapsed:.2f}s < {limit_s:g}s]"
    )
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.2f}s)"


def reduced_table1():
    p, _ = reduce_problem(table1())
    return p


def test_criterion_1_reduction():
    with criterion(1, 1.0, "reduction removes Fri then Gordon B, 16x4 irreducible"):
        reduced, log = reduce_problem(table1())
        assert log.removed_days == ((1, "Fri"),)
        assert log.removed_players == ((1, "Gordon B"),)
        assert (reduced.n, reduced.m) == (16, 4)
        assert is_irreducible(reduced)


def test_criterion_2_efficiency_bound():
    with criterion(2, 1.0, "max total games: 6 on reduced table1, 5 on table2"):
        assert max_total_games(reduced_table1()) == 6
        assert max_total_games(table2()) == 5


def test_criterion_3_enumeration_counts():
    red = reduced_table1()
    with criterion(3, 10.0, "23,625 efficient assignments on reduced table1"):
        assert count_efficient(red) == 23_625
        assert sum(1 for _ in enumerate_efficient(red)) == 23_625
    t2 = table2()
    with criterion(3, 10.0, "42,875 efficient assignments on table2"):
        assert count_efficient(t2) == 42_875
        assert sum(1 for _ in enumerate_efficient(t2)) == 42_875


def test_criterion_4_impossibility_at_g4():
    with criterion(4, 10.0, "no efficient strongly-EF assignment among all 42,875"):
        report = verify_no_fair_ef(build_table2())
        assert report.scanned == 42_875
        assert report.conclusive
        assert not report.ef_found
        assert report.min_envy_pairs >= 1


def test_criterion_5_generalized_witnesses():
    with criterion(5, 60.0, "witness g=3 (1,000) and g=5 (2,000,376): no EF"):
        r3 = verify_no_fair_ef(build_witness(3))
        assert r3.efficient_count == 1_000
        assert r3.conclusive and not r3.ef_found
        r5 = verify_no_fair_ef(build_witness(5), 3_000_000)
        assert r5.efficient_count == 2_000_376
        assert r5.scanned == 2_000_376
        assert r5.conclusive and not r5.ef_found
        assert r3.min_envy_pairs >= 3 and r5.min_envy_pairs >= 5


_SOLVER_RUNS: list = []


def test_criterion_6_solver_exactness():
    with criterion(6, 300.0, "solve_fair == brute force on fixtures + 200 randoms"):
        assert solve_fair(reduced_table1()).g_vector.counts == (16, 8, 0, 0)
        assert brute_force_fair(reduced_table1())[0].counts == (16, 8, 0, 0)
        assert solve_fair(table2()).g_vector.counts == (11, 9, 0, 0, 0)
        assert brute_force_fair(table2())[0].counts == (11, 9, 0, 0, 0)
        for red in corpus.criterion_6():
            oracle_g, _ = brute_force_fair(red, 6_000_000)
            report = solve_fair(red)
            assert report.g_vector.counts == oracle_g.counts, red
            _SOLVER_RUNS.append((red, report))
        assert len(_SOLVER_RUNS) == 200


def test_criterion_7_fair_implies_efficient():
    with criterion(7, 60.0, "every solved instance attains the game maximum"):
        assert _SOLVER_RUNS, "criterion 6 must run first"
        for red, report in _SOLVER_RUNS:
            assert report.total_games == max_total_games(red)
            assert is_efficient(report.assignment, red)
        for p in (reduced_table1(), table2()):
            report = solve_fair(p)
            assert report.total_games == max_total_games(p)


def test_criterion_8_table1_admits_efficiency_plus_strong_ef():
    with criterion(8, 10.0, "reduced table1 has an efficient strongly-EF witness"):
        red = reduced_table1()
        found = exists_efficient_strongly_ef(red)
        assert found is not None
        assert is_feasible(found, red).ok
        assert is_efficient(found, red)
        assert envy_report(found, red).is_strongly_envy_free
        # the hand-constructed frozen fixture passes the same three checks
        from pathlib import Path
        from fairplay.fileio import parse_assignment

        frozen = (Path(__file__).parent / "data" / "table1_ef_witness.csv")
        x = parse_assignment(frozen.read_text(encoding="utf-8"), red)
        assert is_feasible(x, red).ok
        assert is_efficient(x, red)
        assert envy_report(x, red).is_strongly_envy_free


def test_criterion_9_check_command(capsys):
    with criterion(9, 10.0, "check: printed exits 4 on Tues sum 9; corrected exits 0"):
        code = cli_main(
            ["check", "--input", T1, "--assignment", PRINTED, "--group-size", "4"]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert "Tues" in out and "9" in out
        assert "day-total constraint violated" in out

        code = cli_main(
            ["check", "--input", T1, "--assignment", CORRECTED, "--group-size", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fairness profile (reduced core): 16 8 0 0" in out
        assert "George StC (avail 4, games 1) envies Barry T" in out


def test_criterion_10_g2_search(capsys):
    with criterion(10, 300.0, "g2: (2,2) exhausts; 3/3 block no witness; (7,6) covered"):
        code = cli_main(["verify", "--group-size", "2", "--bounds", "2,2"])
        capsys.readouterr()
        assert code == 5
        result = search_witness_g2(SearchBounds(2, 2))
        assert result.witness is None and result.search_complete

        block = validate_problem(
            list("abefg"),
            [f"d{k}" for k in range(1, 6)],
            [
                [1, 1, 0, 0, 0],
                [1, 1, 0, 0, 0],
                [0, 0, 1, 1, 1],
                [0, 0, 1, 1, 1],
                [0, 0, 1, 1, 1],
            ],
            2,
        )
        report = verify_no_fair_ef(block)
        assert report.ef_found
        games = tuple(sum(report.first_ef_witness.matrix[i]) for i in (2, 3, 4))
        assert games == (2, 2, 2)

        # bounded coverage at (7,6): four size classes exceed the default
        # candidate cap and are skipped; everything else is exhausted.
        big = search_witness_g2(SearchBounds(7, 6))
        assert big.witness is None
        assert not big.search_complete
        assert big.instances_inconclusive == 0
        assert big.sizes_skipped == ((5, 6), (6, 6), (7, 5), (7, 6))
        assert len(big.sizes_searched) == 32
        assert big.instances_examined == 22_148


def test_criterion_11_determinism(capsys):
    with criterion(11, 60.0, "repeated solve runs are byte-identical"):
        for args in (
            ["solve", "--input", T1, "--group-size", "4", "--format", "json"],
            ["solve", "--input", T1, "--group-size", "4", "--format", "table"],
            ["solve", "--input", T1, "--group-size", "4", "--tie-break", "random",
             "--seed", "99", "--format", "json"],
        ):
            cli_main(args)
            first = capsys.readouterr().out
            cli_main(args)
            second = capsys.readouterr().out
            assert first == second and first


def test_criterion_12_round_trip():
    with criterion(12, 60.0, "CSV parse/serialize identity on fixtures + 100 randoms"):
        for name, g in (
            ("table1.csv", 4),
            ("table2.csv", 4),
        ):
            raw = fixture_path(name).read_text(encoding="utf-8")
            p = parse_problem(raw, g)
            assert serialize_problem(p) == raw
            assert parse_problem(serialize_problem(p), g) == p
        rng = random.Random(12_2026)
        for _ in range(100):
            n, m = rng.randint(1, 10), rng.randint(1, 6)
            rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            p = validate_problem(
                [f"player {i}" for i in range(n)],
                [f"day{k}" for k in range(m)],
                rows,
                rng.randint(2, 5),
            )
            assert parse_problem(serialize_problem(p), p.group_size) == p
