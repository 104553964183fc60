"""Core model: validation, reduction, and the four predicates."""

from itertools import islice

import pytest

from conftest import all_feasible_assignments
from corpus import make_problem, random_problem
from fairplay import fixtures
from fairplay.model import (
    Assignment,
    FairnessOrder,
    GVector,
    InfeasibleAssignmentError,
    ValidationError,
    _envy_pairs,
    compare_fairness,
    envy_report,
    g_vector,
    games_per_player,
    is_efficient,
    is_feasible,
    is_irreducible,
    max_total_games,
    reduce_problem,
    validate_problem,
    zero_extend,
)


def reduced_table1():
    p, _ = reduce_problem(fixtures.table1())
    return p


def restrict(x, original, reduced):
    pmap = [original.player_index(name) for name in reduced.players]
    dmap = [original.days.index(label) for label in reduced.days]
    return Assignment(tuple(tuple(x.matrix[i][k] for k in dmap) for i in pmap))


# --------------------------------------------------------------------------- #
# validate_problem
# --------------------------------------------------------------------------- #

def test_table1_is_a_valid_problem():
    p = fixtures.table1()
    assert p.n == 17 and p.m == 5
    assert p.group_size == 4
    assert p.day_counts() == (7, 10, 6, 8, 2)


def test_minimal_problem_is_valid():
    p = validate_problem(["solo"], ["d1"], [[1]], 2)
    assert p.n == 1 and p.m == 1


@pytest.mark.parametrize(
    "players,days,matrix,g,fragment",
    [
        (["a"], ["d"], [[2]], 2, "non-binary"),
        (["a", "a"], ["d"], [[1], [1]], 2, "duplicate player"),
        (["a", "b"], ["d", "d"], [[1, 1], [1, 1]], 2, "duplicate day"),
        (["a"], ["d"], [[1, 0]], 2, "dimension mismatch"),
        (["a", "b"], ["d"], [[1]], 2, "dimension mismatch"),
        (["a"], ["d"], [[1]], 1, "group size"),
        ([], ["d"], [], 2, "need at least one player"),
        (["a"], [], [[]], 2, "need at least one day"),
        ([""], ["d"], [[1]], 2, "empty player"),
        (["a"], [""], [[1]], 2, "empty day"),
        # every empty or padded label is named before any duplicate
        (["a", "a"], ["d", ""], [[1, 1], [1, 1]], 2, "^column 1: empty day label$"),
    ],
)
def test_validation_errors(players, days, matrix, g, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_problem(players, days, matrix, g)


@pytest.mark.parametrize("cell,stored", [(True, 1), (1.0, 1), (False, 0), (0.0, 0), (1, 1)])
def test_validate_problem_stores_cells_equal_to_0_or_1_as_ints(cell, stored):
    p = validate_problem(["a", "b"], ["x", "y"], [[1, 0], [1, cell]], 2)
    assert p.avail == ((1, 0), (1, stored))
    assert type(p.avail[1][1]) is int


@pytest.mark.parametrize("cell", [2, 0.5, "1", -1, None])
def test_validate_problem_names_the_first_non_binary_cell(cell):
    with pytest.raises(ValidationError) as exc:
        validate_problem(["a", "b"], ["x", "y"], [[1, True], [1.0, cell]], 2)
    assert str(exc.value) == f"non-binary entry at row 1 ('b'), column 1 ('y'): {cell!r}"


def test_player_index_names_known_players_and_raises_on_unknown():
    p = fixtures.table2()
    assert p.player_index("e") == p.players.index("e")
    with pytest.raises(KeyError, match="nobody"):
        p.player_index("nobody")


def test_validation_error_carries_coordinates():
    with pytest.raises(ValidationError, match=r"row 1.*column 2"):
        validate_problem(["a", "b"], ["x", "y", "z"],
                         [[0, 0, 0], [0, 0, 2]], 2)


# --------------------------------------------------------------------------- #
# reduce / is_irreducible
# --------------------------------------------------------------------------- #

def test_reduce_table1_removes_fri_then_gordon():
    p = fixtures.table1()
    reduced, log = reduce_problem(p)
    assert log.removed_days == ((1, "Fri"),)
    assert log.removed_players == ((1, "Gordon B"),)
    assert log.rounds == 1
    assert reduced.n == 16 and reduced.m == 4
    assert reduced.day_counts() == (7, 10, 6, 8)
    assert is_irreducible(reduced)
    assert not is_irreducible(p)


def test_reduce_table2_is_noop():
    p = fixtures.table2()
    reduced, log = reduce_problem(p)
    assert reduced == p
    assert not log.removed_anything
    assert log.rounds == 0


def test_reduce_all_zero_empties_the_problem():
    p = make_problem([[0, 0, 0]] * 4, g=4)
    reduced, log = reduce_problem(p)
    assert reduced.is_empty
    assert len(log.removed_days) == 3
    assert len(log.removed_players) == 4
    assert all(rnd == 1 for rnd, _ in log.removed_days + log.removed_players)


def test_reduce_days_then_players_converges_in_one_round(rng):
    """A removed player has no surviving days, so their removal cannot drop
    any surviving day below quota: one productive round always suffices."""
    p2 = make_problem(
        [[1, 0], [1, 0], [1, 1], [0, 1]],
        g=3,
    )
    reduced2, log2 = reduce_problem(p2)
    # d2 (2 < 3) goes, then p4 loses its only day
    assert [d for _, d in log2.removed_days] == ["d2"]
    assert [n for _, n in log2.removed_players] == ["p4"]
    assert log2.rounds == 1
    assert is_irreducible(reduced2)
    for _ in range(200):
        _, log = reduce_problem(random_problem(rng))
        assert log.rounds <= 1


def test_reduce_returns_its_input_exactly_when_nothing_is_removed(rng):
    for _ in range(200):
        p = random_problem(rng)
        reduced, log = reduce_problem(p)
        assert (reduced is p) == (not log.removed_anything), p
        if reduced is p:
            x = Assignment(tuple((0,) * p.m for _ in range(p.n)))
            assert zero_extend(x, p, reduced) is x


def test_reduce_is_idempotent_on_random_instances(rng):
    for _ in range(100):
        p = random_problem(rng)
        reduced, _ = reduce_problem(p)
        again, log = reduce_problem(reduced)
        assert again == reduced
        assert not log.removed_anything


def test_reduce_preserves_solutions(rng):
    from fairplay.oracle import enumerate_efficient

    checked = 0
    for _ in range(60):
        p = random_problem(rng, max_n=6, max_m=3)
        reduced, _ = reduce_problem(p)
        if reduced.is_empty:
            continue
        for x in islice(enumerate_efficient(reduced), 50):
            lifted = zero_extend(x, p, reduced)
            assert is_feasible(lifted, p)
            inner_counts = g_vector(x).counts
            lifted_counts = g_vector(lifted).counts
            assert lifted_counts[: len(inner_counts)] == inner_counts
            assert all(c == 0 for c in lifted_counts[len(inner_counts):])
            checked += 1
    assert checked > 50


def test_empty_problem_is_vacuously_irreducible():
    p = make_problem([[0, 0]] * 2, g=2)
    reduced, _ = reduce_problem(p)
    assert reduced.is_empty and is_irreducible(reduced)


# --------------------------------------------------------------------------- #
# is_feasible
# --------------------------------------------------------------------------- #

def test_all_zero_assignment_is_feasible():
    p = fixtures.table2()
    x = Assignment(tuple((0,) * p.m for _ in range(p.n)))
    assert is_feasible(x, p).ok


def test_printed_table1_assignment_violates_day_total():
    p = fixtures.table1()
    x = fixtures.table1_assignment_printed()
    verdict = is_feasible(x, p)
    assert not verdict.ok
    assert verdict.violation.constraint == "day-total"
    assert verdict.violation.day == "Tues"
    assert "9" in verdict.violation.detail


def test_corrected_table1_assignment_is_feasible():
    p = fixtures.table1()
    x = fixtures.table1_assignment_corrected()
    assert is_feasible(x, p).ok


def test_availability_violation_is_detected():
    p = make_problem([[1, 0], [1, 1]], g=2)
    x = Assignment(((1, 1), (1, 1)))
    verdict = is_feasible(x, p)
    assert not verdict.ok
    assert verdict.violation.constraint == "availability"
    assert verdict.violation.player == "p1"


@pytest.mark.parametrize(
    "matrix,detail",
    [
        (((True, 0), (1.0, 0)), None),
        (((1.0, 0), (True, 1.0)), "day-total constraint violated: day 'd2' has 1.0 "
         "assigned players, not a multiple of 2"),
        (((1, 1.0), (1, 1)), "availability constraint violated: player 'p1' "
         "assigned on day 'd2' but is not available"),
        (((1, True), (1, 1)), "availability constraint violated: player 'p1' "
         "assigned on day 'd2' but is not available"),
        (((1.0, 0), (0, 0)), "day-total constraint violated: day 'd1' has 1.0 "
         "assigned players, not a multiple of 2"),
    ],
)
def test_feasibility_of_cells_equal_to_0_or_1(matrix, detail):
    """Cells equal to 0 or 1 are judged by their value, ``True`` and ``1.0``
    as 1, and an unavailable day rejects them as it rejects a 1."""
    p = make_problem([[1, 0], [1, 1]], g=2)
    verdict = is_feasible(Assignment(matrix), p)
    assert verdict.ok == (detail is None)
    assert (verdict.violation and verdict.violation.detail) == detail


@pytest.mark.parametrize("cell", [2, 0.5, "1"])
def test_feasibility_names_the_first_non_binary_cell(cell):
    p = make_problem([[1, 0], [1, 1]], g=2)
    with pytest.raises(ValidationError) as exc:
        is_feasible(Assignment(((1, 0), (1.0, cell))), p)
    assert str(exc.value) == f"non-binary entry at row 1 ('p2'), column 1 ('d2'): {cell!r}"


def test_shape_mismatch_raises():
    p = make_problem([[1, 1]], g=2)
    with pytest.raises(ValidationError, match="shape"):
        is_feasible(Assignment(((1,),)), p)


# --------------------------------------------------------------------------- #
# max_total_games / is_efficient
# --------------------------------------------------------------------------- #

def test_max_total_games_on_fixtures():
    assert max_total_games(fixtures.table2()) == 5
    assert max_total_games(reduced_table1()) == 6
    assert max_total_games(make_problem([[0, 0]] * 4, g=4)) == 0


def test_max_total_games_matches_brute_force(rng):
    for _ in range(40):
        p = random_problem(rng, max_n=6, max_m=3)
        best = max(x.total_slots() for x in all_feasible_assignments(p))
        assert best == p.group_size * max_total_games(p)


def test_corrected_assignment_is_efficient():
    p = fixtures.table1()
    x = fixtures.table1_assignment_corrected()
    assert x.total_slots() == 24
    assert is_efficient(x, p)


def test_all_zero_assignment_is_not_efficient_on_table2():
    p = fixtures.table2()
    x = Assignment(tuple((0,) * p.m for _ in range(p.n)))
    assert not is_efficient(x, p)


def test_is_efficient_rejects_infeasible_input():
    p = fixtures.table1()
    with pytest.raises(InfeasibleAssignmentError):
        is_efficient(fixtures.table1_assignment_printed(), p)


def test_efficient_assignments_fill_every_day_exactly(rng):
    """Day totals of any slot-maximal assignment are forced per day."""
    for _ in range(25):
        p = random_problem(rng, max_n=6, max_m=3)
        quotas = tuple(
            p.group_size * (c // p.group_size) for c in p.day_counts()
        )
        bound = sum(quotas)
        for x in all_feasible_assignments(p):
            if x.total_slots() == bound:
                assert x.day_totals() == quotas


# --------------------------------------------------------------------------- #
# games_per_player / g_vector
# --------------------------------------------------------------------------- #

def test_games_per_player_on_corrected_brackets():
    x = fixtures.table1_assignment_corrected()
    games = games_per_player(x)
    p = fixtures.table1()
    assert games[p.player_index("George StC")] == 1
    assert games[p.player_index("Keith I")] == 1
    assert sum(games) == 24


def test_g_vector_of_corrected_brackets():
    p = fixtures.table1()
    reduced, _ = reduce_problem(p)
    core = restrict(fixtures.table1_assignment_corrected(), p, reduced)
    assert g_vector(core).counts == (16, 8, 0, 0)


def test_g_vector_of_a_lopsided_table2_assignment():
    p = fixtures.table2()
    rows = {name: [0] * 5 for name in p.players}
    for name in "abcd":
        rows[name][0] = rows[name][1] = 1
    for name in "efgh":
        rows[name][2] = rows[name][3] = rows[name][4] = 1
    x = Assignment(tuple(tuple(rows[name]) for name in p.players))
    assert is_feasible(x, p).ok
    assert games_per_player(x) == (2, 2, 2, 2, 3, 3, 3, 3, 0, 0, 0)
    assert g_vector(x).counts == (8, 8, 4, 0, 0)
    report = envy_report(x, p)
    assert len(report.pairs) == 12
    assert {(e.envious, e.envied) for e in report.pairs} == {
        (i, j) for i in "ijk" for j in "abcd"
    }
    assert report.pairs[0].envious == "i"  # sorted by (envious, envied) index


def test_g_vector_of_zero_assignment_is_zero():
    x = Assignment(((0, 0, 0),) * 4)
    assert g_vector(x).counts == (0, 0, 0)


def test_g_vector_invariants_on_random_assignments(rng):
    for _ in range(200):
        n = rng.randint(1, 9)
        m = rng.randint(1, 5)
        x = Assignment(
            tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n))
        )
        counts = g_vector(x).counts
        assert len(counts) == m
        assert all(counts[t] >= counts[t + 1] for t in range(m - 1))
        assert all(0 <= c <= n for c in counts)
        assert sum(counts) == x.total_slots()


def test_adding_a_slot_never_decreases_the_g_vector(rng):
    for _ in range(100):
        p = random_problem(rng, max_n=6, max_m=3)
        n, m = p.n, p.m
        matrix = [
            [p.avail[i][k] if rng.random() < 0.5 else 0 for k in range(m)]
            for i in range(n)
        ]
        before = g_vector(Assignment(tuple(tuple(r) for r in matrix))).counts
        free = [(i, k) for i in range(n) for k in range(m)
                if p.avail[i][k] and not matrix[i][k]]
        if not free:
            continue
        i, k = rng.choice(free)
        matrix[i][k] = 1
        after = g_vector(Assignment(tuple(tuple(r) for r in matrix))).counts
        assert all(a >= b for a, b in zip(after, before))


# --------------------------------------------------------------------------- #
# compare_fairness
# --------------------------------------------------------------------------- #

def test_compare_fairness_basic_cases():
    assert compare_fairness(GVector((16, 8, 0)), GVector((16, 7, 1))) \
        is FairnessOrder.FIRST_FAIRER
    assert compare_fairness(GVector((11, 9, 0)), GVector((11, 9, 0))) \
        is FairnessOrder.EQUAL
    assert compare_fairness(GVector((8, 8, 4)), GVector((11, 9, 0))) \
        is FairnessOrder.SECOND_FAIRER


def test_compare_fairness_pads_shorter_vectors():
    assert compare_fairness(GVector((3, 1)), GVector((3, 1, 0, 0))) \
        is FairnessOrder.EQUAL
    assert compare_fairness(GVector((3, 1, 1)), GVector((3, 1))) \
        is FairnessOrder.FIRST_FAIRER


def test_compare_fairness_is_a_total_preorder(rng):
    vectors = [
        GVector(tuple(sorted((rng.randint(0, 5) for _ in range(rng.randint(0, 4))),
                             reverse=True)))
        for _ in range(30)
    ]
    for u in vectors:
        for v in vectors:
            order = compare_fairness(u, v)
            mirrored = compare_fairness(v, u)
            if order is FairnessOrder.EQUAL:
                assert mirrored is FairnessOrder.EQUAL
                length = max(len(u.counts), len(v.counts))
                assert u.padded(length) == v.padded(length)
            elif order is FairnessOrder.FIRST_FAIRER:
                assert mirrored is FairnessOrder.SECOND_FAIRER
    # transitivity spot check on sorted-by-fairness list
    import functools

    def cmp(a, b):
        res = compare_fairness(a, b)
        return -1 if res is FairnessOrder.FIRST_FAIRER else (
            1 if res is FairnessOrder.SECOND_FAIRER else 0)

    ordered = sorted(vectors, key=functools.cmp_to_key(cmp))
    for a, b in zip(ordered, ordered[1:]):
        assert compare_fairness(b, a) is not FairnessOrder.FIRST_FAIRER


# --------------------------------------------------------------------------- #
# envy_report
# --------------------------------------------------------------------------- #

def test_corrected_brackets_leave_george_envious():
    p = fixtures.table1()
    reduced, _ = reduce_problem(p)
    core = restrict(fixtures.table1_assignment_corrected(), p, reduced)
    report = envy_report(core, reduced)
    assert not report.is_strongly_envy_free
    found = [
        e for e in report.pairs
        if (e.envious, e.envied) == ("George StC", "Barry T")
    ]
    assert len(found) == 1
    e = found[0]
    assert (e.avail_envious, e.avail_envied) == (4, 2)
    assert (e.games_envious, e.games_envied) == (1, 2)


def test_zero_assignment_has_no_envy():
    p = fixtures.table2()
    x = Assignment(tuple((0,) * p.m for _ in range(p.n)))
    assert envy_report(x, p).is_strongly_envy_free


def test_equal_availability_never_produces_envy(rng):
    for _ in range(50):
        n = rng.randint(2, 6)
        m = rng.randint(1, 3)
        row = tuple(1 for _ in range(m))
        p = make_problem([list(row)] * n, g=2)
        for x in all_feasible_assignments(p):
            assert envy_report(x, p).is_strongly_envy_free
            break  # one per instance is plenty; vacuity is structural
        full = [list(row)] * n
        x = Assignment(tuple(tuple(r) for r in full))
        if is_feasible(x, p).ok:
            assert envy_report(x, p).is_strongly_envy_free


def test_envy_report_rejects_infeasible_assignment():
    p = fixtures.table1()
    with pytest.raises(InfeasibleAssignmentError):
        envy_report(fixtures.table1_assignment_printed(), p)


def test_unchecked_envy_pairs_match_the_report(rng):
    """``_envy_pairs``, the report without the feasibility check that
    ``fairplay solve`` uses on the solver's own output, lists the same
    pairs as ``envy_report`` on every feasible assignment."""
    audited = 0
    for _ in range(40):
        p = random_problem(rng, max_n=6, max_m=3)
        for x in islice(all_feasible_assignments(p), 60):
            assert _envy_pairs(x, p) == envy_report(x, p)
            audited += not envy_report(x, p).is_strongly_envy_free
    assert audited > 50
