"""Enumeration oracle: counts, stream order, budgets, the exhaustive
fairness optimum and envy-free existence."""

import math
from itertools import islice

import pytest

from conftest import all_feasible_assignments
from corpus import make_problem, randoms
from fairplay import fixtures
from fairplay.impossibility import SearchBounds, verify_no_fair_ef
from fairplay.model import (
    envy_report,
    g_vector,
    compare_fairness,
    FairnessOrder,
    is_efficient,
    is_feasible,
    reduce_problem,
)
from fairplay.oracle import (
    BudgetExceededError,
    brute_force_fair,
    count_efficient,
    enumerate_efficient,
    exists_efficient_strongly_ef,
)


def reduced_table1():
    p, _ = reduce_problem(fixtures.table1())
    return p


# --------------------------------------------------------------------------- #
# count_efficient
# --------------------------------------------------------------------------- #

def test_count_efficient_on_fixtures():
    assert count_efficient(fixtures.table2()) == 42_875
    assert count_efficient(fixtures.table2()) == math.comb(7, 4) ** 3
    assert count_efficient(reduced_table1()) == 23_625
    assert count_efficient(reduced_table1()) == 35 * 45 * 15 * 1


def test_count_efficient_single_forced_day():
    assert count_efficient(make_problem([[1]] * 4, g=4)) == 1


def test_count_efficient_requires_irreducible_input():
    with pytest.raises(ValueError, match="irreducible"):
        count_efficient(fixtures.table1())


# --------------------------------------------------------------------------- #
# enumerate_efficient
# --------------------------------------------------------------------------- #

def test_enumeration_matches_count_and_predicates_on_table2():
    p = fixtures.table2()
    stream = enumerate_efficient(p, 50_000)
    seen = list(stream)
    for x in seen[::4000]:  # predicate spot checks across the stream
        assert is_feasible(x, p).ok
        assert is_efficient(x, p)
    assert len(seen) == 42_875
    assert seen == list(all_feasible_assignments(p, full_games_only=True))


def test_enumeration_matches_count_on_reduced_table1():
    p = reduced_table1()
    assert sum(1 for _ in enumerate_efficient(p)) == 23_625


# table2 has 42,875 assignments: a budget one short yields that many and
# then raises, an exact budget yields every assignment with no error
@pytest.mark.parametrize("budget", [10, 42_874, 42_875])
def test_enumeration_errors_when_budget_hit(budget):
    p = fixtures.table2()
    stream = enumerate_efficient(p, budget)
    got = []
    if budget < 42_875:
        with pytest.raises(BudgetExceededError):
            got.extend(stream)
    else:
        got.extend(stream)
    assert len(got) == budget
    assert got[:10] == list(islice(enumerate_efficient(p), 10))


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: brute_force_fair(fixtures.table2(), 0), "budget cap"),
        (lambda: exists_efficient_strongly_ef(fixtures.table2(), 0), "budget cap"),
        (lambda: enumerate_efficient(fixtures.table2(), 0), "budget cap"),
        (lambda: verify_no_fair_ef(fixtures.table2(), 0), "budget cap"),
        (lambda: SearchBounds(2, 2, per_instance_budget=0), "budget cap"),
        (lambda: enumerate_efficient(fixtures.table1()), "irreducible"),
    ],
    ids=[
        "brute_force_fair",
        "exists_efficient_strongly_ef",
        "enumerate_efficient",
        "verify_no_fair_ef",
        "SearchBounds",
        "enumerate_efficient-reducible",
    ],
)
def test_entry_points_check_budget_and_input_on_the_call(call, fragment):
    """A budget below 1 or a reducible problem is rejected by the call
    itself; the enumeration stream is never iterated here."""
    with pytest.raises(ValueError, match=fragment):
        call()


def test_enumeration_of_empty_problem_is_empty():
    p = make_problem([[0, 0]] * 4, g=4)
    red, _ = reduce_problem(p)
    assert list(enumerate_efficient(red)) == []


def test_enumeration_order_is_the_day_subset_odometer():
    p = make_problem([[1, 1], [1, 1], [1, 0]], g=2)
    stream = list(enumerate_efficient(p))
    # day 1: pairs of {p1,p2,p3} lexicographic; day 2: {p1,p2} forced
    first_days = [
        tuple(i for i in range(3) if x.matrix[i][0]) for x in stream
    ]
    assert first_days == [(0, 1), (0, 2), (1, 2)]
    assert all(x.matrix[0][1] and x.matrix[1][1] for x in stream)


def test_enumeration_counts_agree_on_random_instances():
    for red in randoms(6, 3):
        stream = list(enumerate_efficient(red))
        assert count_efficient(red) == len(stream)
        assert stream == list(all_feasible_assignments(red, full_games_only=True))


# --------------------------------------------------------------------------- #
# brute_force_fair
# --------------------------------------------------------------------------- #

def test_brute_force_fair_on_fixtures():
    gv, x = brute_force_fair(fixtures.table2())
    assert gv.counts == (11, 9, 0, 0, 0)
    assert g_vector(x).counts == gv.counts
    assert is_efficient(x, fixtures.table2())
    gv1, x1 = brute_force_fair(reduced_table1())
    assert gv1.counts == (16, 8, 0, 0)
    assert g_vector(x1).counts == gv1.counts


def test_brute_force_fair_returns_first_attaining_assignment():
    p = fixtures.table2()
    gv, x = brute_force_fair(p)
    for a in enumerate_efficient(p):
        if g_vector(a).counts == gv.counts:
            assert a == x
            break
        assert compare_fairness(g_vector(a), gv) is FairnessOrder.SECOND_FAIRER


def test_brute_force_fair_dominates_every_enumerated_assignment():
    p = reduced_table1()
    gv, _ = brute_force_fair(p)
    for i, a in enumerate(enumerate_efficient(p)):
        assert compare_fairness(gv, g_vector(a)) is not FairnessOrder.SECOND_FAIRER
        if i >= 5000:
            break


def test_brute_force_fair_raises_on_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_fair(fixtures.table2(), 100)


# --------------------------------------------------------------------------- #
# exists_efficient_strongly_ef
# --------------------------------------------------------------------------- #

def test_table2_admits_no_efficient_strongly_ef_assignment():
    assert exists_efficient_strongly_ef(fixtures.table2()) is None


def test_reduced_table1_admits_an_efficient_strongly_ef_assignment():
    p = reduced_table1()
    x = exists_efficient_strongly_ef(p)
    assert x is not None
    assert is_feasible(x, p).ok
    assert is_efficient(x, p)
    assert envy_report(x, p).is_strongly_envy_free


def test_hand_constructed_witness_validates(tmp_path):
    """A concrete schedule on the reduced 16-player instance: every predicate
    is confirmed by the oracle itself, then the file fixture must match."""
    p = reduced_table1()
    by_day = {
        "Mon": {"Peter W", "Keith B", "Brian F", "George StC"},
        "Tues": {"John S", "Phil M", "Ken L", "Tom B",
                 "Peter W", "Keith I", "Brian F", "Peter K"},
        "Wed": {"Michael L", "Keith I", "Mike M", "Barry T"},
        "Thurs": {"Barry T", "Tom B", "Colin C", "Mike M",
                  "Alan C", "George StC", "Peter K", "Willie McM"},
    }
    matrix = tuple(
        tuple(1 if p.players[i] in by_day[day] else 0 for day in p.days)
        for i in range(p.n)
    )
    from fairplay.model import Assignment

    x = Assignment(matrix)
    assert is_feasible(x, p).ok
    assert is_efficient(x, p)
    assert envy_report(x, p).is_strongly_envy_free
    from pathlib import Path

    frozen = Path(__file__).parent / "data" / "table1_ef_witness.csv"
    from fairplay.fileio import parse_assignment, serialize_assignment

    assert parse_assignment(frozen.read_text(encoding="utf-8"), p) == x
    assert serialize_assignment(x, p) == frozen.read_text(encoding="utf-8")


def test_equal_availability_instance_always_has_ef_witness():
    p = make_problem([[1, 1]] * 5, g=2)
    x = exists_efficient_strongly_ef(p)
    assert x is not None


def test_exists_ef_raises_when_budget_cannot_certify_absence():
    with pytest.raises(BudgetExceededError):
        exists_efficient_strongly_ef(fixtures.table2(), 50)
