"""Witness construction, exhaustive verification, canonical forms, and the
bounded g=2 search."""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from conftest import all_feasible_assignments, make_problem, random_problem
from fairplay import _scan, fixtures, impossibility, oracle
from fairplay._scan import scan_verify
from fairplay.impossibility import (
    SearchBounds,
    _canonical_children,
    _column_masks,
    _decide,
    _least_order,
    _matrix,
    _orderly_levels,
    _rows,
    _tie_accepts,
    build_table2,
    build_witness,
    canonical_form,
    search_witness_g2,
)
from fairplay.model import (
    Problem,
    envy_report,
    is_efficient,
    is_feasible,
    is_irreducible,
    reduce_problem,
)
from fairplay.oracle import (
    DEFAULT_MAX_ASSIGNMENTS,
    _assignment_from_choice,
    brute_force_fair,
    enumerate_efficient,
    exists_efficient_strongly_ef,
    verify_no_fair_ef,
)

# an instance that reduces to nothing, one with no days, one with no players
EMPTY_PROBLEMS = [
    reduce_problem(make_problem([[1, 0], [0, 1]], g=2))[0],
    Problem(("a",), (), ((),), 2),
    Problem((), ("d",), (), 2),
]


# --------------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------------- #

def test_build_table2_matches_the_bundled_fixture():
    built = build_table2()
    assert built == fixtures.table2()
    assert built.day_counts() == (4, 4, 7, 7, 7)
    assert built.availability_counts() == (2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3)
    assert is_irreducible(built)


def test_build_witness_shapes():
    w3 = build_witness(3)
    assert w3.n == 8 and w3.m == 5
    assert w3.day_counts() == (3, 3, 5, 5, 5)
    w5 = build_witness(5)
    assert w5.n == 14
    assert w5.day_counts() == (5, 5, 9, 9, 9)
    assert build_witness(4) == build_table2()
    for g in (3, 4, 5, 6, 9):
        assert is_irreducible(build_witness(g))


def test_build_witness_rejects_small_group_sizes():
    for g in (0, 1, 2):
        with pytest.raises(ValueError):
            build_witness(g)


# --------------------------------------------------------------------------- #
# verify_no_fair_ef
# --------------------------------------------------------------------------- #

def test_verify_table2_demonstrates_impossibility():
    report = verify_no_fair_ef(build_table2())
    assert report.efficient_count == 42_875
    assert report.scanned == 42_875
    assert report.conclusive
    assert not report.ef_found
    assert report.first_ef_witness is None
    assert report.min_envy_pairs >= 1


def test_verify_witness6_demonstrates_impossibility():
    """98,611,128 leaves: the orbit memo walks one 462 x 462 subtree and
    skips the 461 that mirror it."""
    report = verify_no_fair_ef(build_witness(6), 98_611_128)
    assert report.efficient_count == report.scanned == 98_611_128
    assert report.conclusive
    assert not report.ef_found
    assert report.min_envy_pairs == 12


def test_verify_witness3_demonstrates_impossibility():
    report = verify_no_fair_ef(build_witness(3))
    assert report.efficient_count == 1_000
    assert not report.ef_found
    assert report.min_envy_pairs >= 3


def test_min_envy_pairs_at_least_group_size():
    """Some flexible player ends with <= 1 game and envies every forced
    player, so the minimum violation count is at least g (checked g=3,4)."""
    for g in (3, 4):
        report = verify_no_fair_ef(build_witness(g))
        assert report.min_envy_pairs >= g


def test_min_envy_floor_holds_per_assignment_for_g3():
    p = build_witness(3)
    for x in enumerate_efficient(p):
        assert len(envy_report(x, p).pairs) >= 3


def test_verify_and_existence_match_the_independent_enumerator(rng):
    """Both strong-envy answers against conftest's enumerator and the model's
    envy audit: the first envy-free assignment in odometer order (None when
    there is none) and the minimum envy count over all assignments."""
    randoms = []
    while len(randoms) < 20:  # the empty reductions are EMPTY_PROBLEMS' kind
        r, _ = reduce_problem(random_problem(rng, max_n=6, max_m=3))
        if not r.is_empty:
            randoms.append(r)
    red, _ = reduce_problem(fixtures.table1())
    for p in [build_table2(), build_witness(3), red, *EMPTY_PROBLEMS, *randoms]:
        leaves = list(all_feasible_assignments(p, full_games_only=True))
        envy = [len(envy_report(x, p).pairs) for x in leaves]
        first = leaves[envy.index(0)] if 0 in envy else None
        report = verify_no_fair_ef(p)
        assert report.conclusive
        assert report.first_ef_witness == exists_efficient_strongly_ef(p) == first
        assert report.min_envy_pairs == min(envy)


def test_empty_problems_have_the_empty_witness_on_every_route():
    """An empty problem's one assignment seats nobody and is envy-free; the
    strong-envy report finds it without a scan, as brute force does, and
    still counts 0 assignments, as ``count_efficient`` does."""
    for p in EMPTY_PROBLEMS:
        report = verify_no_fair_ef(p)
        empty = brute_force_fair(p)[1]
        assert report.first_ef_witness == exists_efficient_strongly_ef(p) == empty
        assert (report.ef_found, report.conclusive) == (True, True)
        assert (report.min_envy_pairs, report.scanned, report.efficient_count) == (0, 0, 0)


def test_verify_reduced_table1_finds_ef():
    red, _ = reduce_problem(fixtures.table1())
    report = verify_no_fair_ef(red)
    assert report.ef_found
    assert envy_report(report.first_ef_witness, red).is_strongly_envy_free


def test_verify_rejects_reducible_input():
    with pytest.raises(ValueError, match="irreducible"):
        verify_no_fair_ef(fixtures.table1())


def test_verify_budget_exhaustion_is_marked_inconclusive():
    report = verify_no_fair_ef(build_table2(), 500)
    assert not report.conclusive
    assert not report.ef_found
    assert report.scanned == 500


# --------------------------------------------------------------------------- #
# canonical_form
# --------------------------------------------------------------------------- #

def _all_symmetries(matrix):
    n, m = len(matrix), len(matrix[0])
    for rp in permutations(range(n)):
        for cp in permutations(range(m)):
            yield tuple(tuple(matrix[i][k] for k in cp) for i in rp)


def test_canonical_form_is_invariant_under_symmetries(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        matrix = tuple(
            tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)
        )
        canon = canonical_form(matrix)
        variants = set(_all_symmetries(matrix))
        assert canon in variants
        for v in list(variants)[:12]:
            assert canonical_form(v) == canon


def test_canonical_form_is_the_least_symmetric_variant(rng):
    """Against brute force: minimal column-major reading over all row and
    column permutations."""

    def reading(mat):
        return tuple(
            mat[i][k] for k in range(len(mat[0])) for i in range(len(mat))
        )

    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        matrix = tuple(
            tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)
        )
        canon = canonical_form(matrix)
        assert reading(canon) == min(reading(v) for v in _all_symmetries(matrix))


def test_canonical_form_distinguishes_nonisomorphic_matrices():
    a = ((1, 0), (0, 1))
    b = ((1, 1), (0, 0))
    assert canonical_form(a) != canonical_form(b)
    assert canonical_form(a) == canonical_form(((0, 1), (1, 0)))


def _is_canonical(columns, n):
    """Whether the n-row matrix whose columns are ``columns`` (bit masks over
    its rows) equals its canonical form."""
    matrix = tuple(tuple(col >> i & 1 for col in columns) for i in range(n))
    return canonical_form(matrix) == matrix


def test_is_canonical_agrees_with_canonical_form(rng):
    """The bit-level tie test against canonical_form, on every child of
    300 canonical forms of matrices built with repeated rows and repeated
    columns, and of every orderly level entry up to (5,3): each new
    column, sorted within blocks of equal rows so the rows ascend.  A
    child on which some frontier entry of its parent reads below its least
    key is not canonical; on every other child the tie test, handed the
    entries whose key equals the least, decides as canonical_form does.
    Where the child has a nonzero first row and a new column of weight
    >= 2, the packed test of _canonical_children must yield that column
    exactly when the child is canonical."""
    parents = []
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        distinct = [
            tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(1, n))
        ]
        picks = [rng.randrange(m) for _ in range(m)]
        rows = [rng.choice(distinct) for _ in range(n)]
        parents.append(canonical_form(tuple(tuple(row[c] for c in picks) for row in rows)))
    parents += [
        _matrix(_rows(columns, n), k) for n, k, level, _ in _levels(5, 3) for columns in level
    ]
    outcomes, packed, ties = set(), set(), set()
    for parent in parents:
        n = len(parent)
        columns = _column_masks(parent)
        frontiers, keys = _least_order(columns, n)
        blocks = tuple(sorted(next(iter(frontiers[-1]))[1]))
        others = [[blocks.index(cell) for cell in cells]
                  for _, cells in frontiers[-1] if cells != blocks]
        yielded = set(_canonical_children(not any(parent[0]), columns, n))
        children = {
            tuple(sorted(row + (b,) for row, b in zip(parent, bits)))
            for bits in product((0, 1), repeat=n)
        }
        for child in children:
            assert tuple(row[:-1] for row in child) == parent
            expected = canonical_form(child) == child
            col = _column_masks(child)[-1]
            tied = [[] for _ in frontiers]  # none at depth k
            below = False
            for d, least in enumerate(keys):
                for used, cells in frontiers[d]:
                    key = tuple((cell & col).bit_count() for cell in cells)
                    below |= key < least
                    if key == least:
                        tied[d].append((used, cells))
            if below:
                assert not expected, child
            else:
                assert _tie_accepts(col, columns, keys, tied, others, blocks) == expected, child
                ties.add(expected)
            outcomes.add(expected)
            if col.bit_count() >= 2 and any(child[0]):
                assert (col in yielded) == expected, child
                packed.add(expected)
    assert outcomes == packed == ties == {True, False}


def test_prefix_of_a_canonical_matrix_is_canonical():
    """The hereditary property orderly generation rests on, over every
    canonical matrix up to 4 x 4 (canonical forms have ascending rows)."""
    canonical = 0
    for n in range(1, 5):
        for m in range(1, 5):
            all_rows = tuple(product((0, 1), repeat=m))
            for rows in combinations_with_replacement(all_rows, n):
                if canonical_form(rows) != rows:
                    continue
                canonical += 1
                prefix = tuple(row[:-1] for row in rows)
                assert canonical_form(prefix) == prefix, rows
    assert canonical == 630


# --------------------------------------------------------------------------- #
# search_witness_g2
# --------------------------------------------------------------------------- #

def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(0, 3)
    with pytest.raises(ValueError):
        SearchBounds(3, 3, per_size_cap=0)


def test_g2_search_at_2_2_completes_without_witness():
    result = search_witness_g2(SearchBounds(2, 2))
    assert result.witness is None
    assert result.search_complete
    assert result.instances_inconclusive == 0
    assert not result.sizes_skipped
    assert result.instances_examined >= 1


def test_g2_right_block_over_three_days_is_not_a_witness():
    """The g>=3 construction scaled down to pairs: two forced players on two
    days, three flexible players on three days.  An envy-free assignment
    giving the flexible block (2, 2, 2) games exists, so this is no witness;
    pair witnesses need more days, if they exist at all."""
    p = make_problem(
        [
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1],
            [0, 0, 1, 1, 1],
            [0, 0, 1, 1, 1],
        ],
        g=2,
    )
    assert is_irreducible(p)
    report = verify_no_fair_ef(p)
    assert report.ef_found
    witness = report.first_ef_witness
    right_games = tuple(sum(witness.matrix[i]) for i in (2, 3, 4))
    assert right_games == (2, 2, 2)


def test_g2_search_at_4_4_completes_without_witness():
    result = search_witness_g2(SearchBounds(4, 4))
    assert result.witness is None
    assert result.search_complete
    assert result.instances_examined == 126


def _no_scan(*args):
    raise AssertionError("the g = 2 search reached a scan")


def _forbid_scans(monkeypatch):
    """Make every route to ``scan_verify`` fail: the kernel's own name and
    the oracle's, through which :func:`verify_no_fair_ef` reaches it."""
    monkeypatch.setattr(_scan, "scan_verify", _no_scan)
    monkeypatch.setattr(oracle, "scan_verify", _no_scan)


def test_g2_search_reports_match_the_independent_enumerator(monkeypatch):
    """Every decision the search makes up to (5,4), its 550 candidates,
    against conftest's enumerator and the model's envy audit, through the
    search's own route: the row ints and column masks it decided on and
    the answer it read.  A decision the leaf walk made is the first
    envy-free leaf in odometer order; one the greedy leaf made is an
    efficient strongly envy-free leaf, and the walk was not called.  No
    candidate is scanned."""
    decisions = []
    walks = _greedy_misses(monkeypatch)
    decide = impossibility._decide

    def recording(columns, budget):
        before = len(walks)
        answer = decide(columns, budget)
        walked = walks[before:]
        assert len(walked) <= 1
        decisions.append((columns, answer, bool(walked)))
        return answer

    _forbid_scans(monkeypatch)
    monkeypatch.setattr(impossibility, "_decide", recording)
    result = search_witness_g2(SearchBounds(5, 4))
    assert result.search_complete
    assert len(decisions) == result.instances_examined == 550
    greedy = 0
    for columns, (conclusive, choice), walked in decisions:
        matrix = _candidate_matrix(columns)
        # the masks are the candidate's columns over its rows (row i, bit i)
        assert columns == _column_masks(matrix)
        combos = [subsets for _, subsets in _day_lists(matrix)]
        p = _problem_from_matrix(matrix)
        assert list(p.avail) == sorted(p.avail)
        leaves = list(all_feasible_assignments(p, full_games_only=True))
        first = next(
            pos for pos, x in enumerate(leaves) if envy_report(x, p).is_strongly_envy_free
        )
        assert math.prod(map(len, combos)) == len(leaves)
        assert conclusive
        x = _assignment_from_choice(p, combos, choice)
        if not walked:
            greedy += 1
            assert x in leaves and envy_report(x, p).is_strongly_envy_free
        else:
            assert x == leaves[first]
    assert greedy == 533  # and 17 walks


def _reference_search(bounds, planted=None):
    """The search by the reference route: candidates in ascending order
    within each size, a labelled Problem and a :func:`verify_no_fair_ef`
    report for every one, the first conclusive report with no EF
    assignment its witness.  ``planted`` maps a candidate's days and rows,
    ``(m, rows)``, to the ``(conclusive, ef_found)`` that replaces its
    report's."""
    examined = inconclusive = 0
    searched, skipped = [], []
    levels = [[]] * bounds.max_days
    for n in range(2, bounds.max_players + 1):
        days = sum(
            math.comb((1 << m) - 1 + n - 1, n) <= bounds.per_size_cap
            for m in range(1, bounds.max_days + 1)
        )
        below, levels = levels[:days], []
        for m, (level, start) in enumerate(_orderly_levels(n, below), 1):
            levels.append(level)
            searched.append((n, m))
            for rows, _ in _candidates(n, level, start):
                examined += 1
                matrix = _matrix(rows, m)
                report = verify_no_fair_ef(_problem_from_matrix(matrix), bounds.per_instance_budget)
                answer = (report.conclusive, report.ef_found)
                conclusive, ef_found = (planted or {}).get((m, rows), answer)
                if not conclusive:
                    inconclusive += 1
                elif not ef_found:
                    return impossibility.G2SearchResult(
                        report, examined, inconclusive, tuple(searched), tuple(skipped))
        skipped.extend((n, m) for m in range(days + 1, bounds.max_days + 1))
    return impossibility.G2SearchResult(
        None, examined, inconclusive, tuple(searched), tuple(skipped))


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 50, None])
def test_g2_search_matches_a_report_per_candidate(budget):
    """The search against a full report per candidate, field for field, at
    (6,4), (5,5) and (4,6), under budgets that leave many candidates
    inconclusive and under the default."""
    inconclusive = 0
    for players, days in ((6, 4), (5, 5), (4, 6)):
        bounds = SearchBounds(players, days)
        if budget is not None:
            bounds = bounds._replace(per_instance_budget=budget)
        result = search_witness_g2(bounds)
        assert result == _reference_search(bounds), (players, days)
        inconclusive += result.instances_inconclusive
    assert (inconclusive > 0) == (budget is not None)


@pytest.mark.parametrize("k", [1, 2, 91, 550])
def test_g2_search_returns_the_full_report_of_its_witness(monkeypatch, k):
    """A decision stubbed to read the k-th candidate up to (5,4), in the
    search's reporting order (sizes in turn, ascending within a size), as
    conclusive with no EF assignment: the search finishes that size and
    no other, examines exactly the k candidates up to it and returns that
    candidate's full report, labelled p1.. and d1.."""
    candidates = [
        (n, m, rows)
        for n, m, level, start in _levels(5, 4)
        for rows, _ in _candidates(n, level, start)
    ]
    assert len(candidates) == 550
    planted = candidates[k - 1]
    calls = []
    decide = impossibility._decide

    def stub(columns, budget):
        rows = _candidate_rows(columns)
        calls.append((len(rows), len(columns), rows))
        if calls[-1] == planted:
            return True, None
        return decide(columns, budget)

    monkeypatch.setattr(impossibility, "_decide", stub)
    result = search_witness_g2(SearchBounds(5, 4))
    n, m, rows = planted
    assert result.witness == verify_no_fair_ef(_problem_from_matrix(_matrix(rows, m)))
    assert len(set(calls)) == len(calls)
    assert result.instances_examined == sum(call <= planted for call in calls) == k
    assert {call[:2] for call in calls if call > planted} <= {(n, m)}
    assert result.instances_inconclusive == 0


def test_g2_search_reports_the_least_witness_of_a_size_decided_in_generation_order(
    monkeypatch,
):
    """Witnesses and inconclusive answers planted by candidate rows in
    (6,4), where the level's order and the ascending order differ: the
    least witness is made after a greater one, and inconclusive
    candidates lie below it made after it and above it made before it.
    The search, deciding in the level's order, reports what the reference
    route, in ascending order, reports: examined, inconclusive and the
    witness's report."""
    level = next(level for n, k, level, _ in _levels(6, 4) if (n, k) == (6, 4))
    made = [rows for rows in (_rows(columns, 6) for columns in level) if rows[0]]
    rank = {rows: i for i, rows in enumerate(made)}  # the generation order
    ascending = sorted(made)
    assert made != ascending
    least = next(
        rows for rows in ascending[len(made) // 3:]
        if sum(other > rows for other in made[:rank[rows]]) >= 4
        and sum(other < rows for other in made[rank[rows]:]) >= 3
    )
    before, after = made[:rank[least]], made[rank[least] + 1:]
    witnesses = [least, *[r for r in before if r > least][:2], *[r for r in after if r > least][:1]]
    unsure = [
        *[r for r in after if r < least][:3],
        *[r for r in before if r < least][:1],
        *[r for r in before if r > least and r not in witnesses][:2],
        *[r for r in after if r > least and r not in witnesses][:1],
    ]
    assert len(witnesses) == 4 and len(unsure) == 7
    planted = {(4, rows): (True, False) for rows in witnesses}
    planted.update({(4, rows): (False, False) for rows in unsure})
    decide = impossibility._decide
    decided = []

    def stub(columns, budget):
        rows = _candidate_rows(columns)
        decided.append(rows)
        if (len(columns), rows) in planted:
            return planted[len(columns), rows][0], None
        return decide(columns, budget)

    monkeypatch.setattr(impossibility, "_decide", stub)
    bounds = SearchBounds(6, 4)
    result = search_witness_g2(bounds)
    assert decided[-len(made):] == made  # the whole size, in the level's order
    reference = _reference_search(bounds, planted)
    assert result == reference
    assert result.witness.problem.avail == _matrix(least, 4)
    assert result.instances_inconclusive == sum(rows < least for rows in unsure) == 4


def _day_lists(matrix):
    """Each day's players and its subsets of the day's g = 2 quota, in
    lexicographic order, as ``scan_verify`` walks them."""
    days = []
    for col in zip(*matrix):
        players = tuple(i for i, cell in enumerate(col) if cell)
        days.append((players, list(combinations(players, len(players) & ~1))))
    return days


def _greedy_misses(monkeypatch):
    """Patch the leaf walk to record each call; the list it returns grows
    by one entry, the walk's answer, per decision the greedy leaf did not
    settle."""
    walks = []
    walk = impossibility._first_ef_leaf

    def recording(levels, columns, budget):
        walks.append(walk(levels, columns, budget))
        return walks[-1]

    monkeypatch.setattr(impossibility, "_first_ef_leaf", recording)
    return walks


def test_greedy_leaf_is_an_efficient_strongly_envy_free_assignment(monkeypatch):
    """Soundness, for every candidate up to (6,5): whenever the greedy leaf
    settles a candidate, the assignment built from its sit-outs is
    feasible, efficient and strongly envy-free, and sits out on each odd
    day one of the day's least available players."""
    walks = _greedy_misses(monkeypatch)
    settled = tried = 0
    for n, m, level, start in _levels(6, 5):
        for rows, columns in _candidates(n, level, start):
            before = len(walks)
            conclusive, choice = _decide(columns, DEFAULT_MAX_ASSIGNMENTS)
            tried += 1
            if len(walks) > before:
                continue
            settled += 1
            matrix = _matrix(rows, m)
            days = _day_lists(matrix)
            p = _problem_from_matrix(matrix)
            x = _assignment_from_choice(p, [subsets for _, subsets in days], choice)
            assert conclusive and is_feasible(x, p) and is_efficient(x, p), matrix
            assert envy_report(x, p).is_strongly_envy_free, matrix
            avail = p.availability_counts()
            for k, (players, _) in enumerate(days):
                out = [i for i in players if not x.matrix[i][k]]
                assert len(out) == len(players) % 2
                assert all(avail[i] == min(avail[j] for j in players) for i in out)
    assert tried == 16_893 and 0 < tried - settled < tried // 10


def test_mask_decision_settles_exactly_when_the_scan_finds_an_ef_leaf(monkeypatch):
    """The mask decision against ``scan_verify`` on every candidate up to
    (6,5): both are conclusive, the decision finds an envy-free leaf
    exactly when the scan does, and on each greedy miss the leaf walk's
    choice is the scan's first envy-free choice, tuple for tuple."""
    walks = _greedy_misses(monkeypatch)
    tried = 0
    for n, m, level, start in _levels(6, 5):
        for rows, columns in _candidates(n, level, start):
            matrix = _matrix(rows, m)
            combos = [subsets for _, subsets in _day_lists(matrix)]
            _, scanned, first, _ = scan_verify(combos, matrix, DEFAULT_MAX_ASSIGNMENTS)
            before = len(walks)
            conclusive, choice = _decide(columns, DEFAULT_MAX_ASSIGNMENTS)
            assert conclusive and scanned, matrix
            assert (choice is None) == (first is None), matrix
            if len(walks) > before:
                assert choice == first, matrix
            tried += 1
    assert tried == 16_893
    assert len(walks) == 849 and None not in walks


def _budget_candidates():
    """``(matrix, columns)`` for every candidate up to (6,4) and (5,5),
    each once."""
    for bounds in ((6, 4), (5, 5)):
        for n, m, level, start in _levels(*bounds):
            if bounds == (5, 5) and m < 5:
                continue  # made up to (6,4) already
            for rows, columns in _candidates(n, level, start):
                yield _matrix(rows, m), columns


def test_greedy_leaf_settles_no_candidate_over_the_budget(monkeypatch):
    """The decision under a budget is ``scan_verify``'s under the same
    budget, for every candidate up to (6,4) and (5,5), at budgets 1, 2, 3,
    7, 50 and one leaf short of and exactly the candidate's leaves.  Over
    the budget the greedy leaf settles nothing and the walk answers, tuple
    for tuple with the scan.  Within it the answers agree tuple for tuple
    whenever the walk ran; a greedy leaf is envy-free but need not be the
    scan's first, so there both find one."""
    _forbid_scans(monkeypatch)
    walks = _greedy_misses(monkeypatch)
    tried = found_over = 0  # found_over: over the budget, an EF leaf within it
    for matrix, columns in _budget_candidates():
        combos = [subsets for _, subsets in _day_lists(matrix)]
        leaves = math.prod(map(len, combos))
        for budget in sorted({1, 2, 3, 7, 50, leaves - 1, leaves} - {0}):
            _, conclusive, first, _ = scan_verify(combos, matrix, budget)
            before = len(walks)
            answer = _decide(columns, budget)
            walked = len(walks) > before
            assert walked or budget >= leaves, (matrix, budget)
            if walked:
                assert answer == (conclusive, first), (matrix, budget)
            else:
                assert conclusive and answer[0] and None not in (answer[1], first)
            tried += 1
            found_over += budget < leaves and first is not None
    assert (tried, found_over) == (25_873, 12_204)


@pytest.mark.parametrize("budget", [1, 3, 50])
def test_g2_search_walks_every_candidate_over_its_budget(monkeypatch, budget):
    """Through the search: every decision on a candidate with more leaves
    than the budget goes to the leaf walk under that budget, no scan runs,
    and (5,5) at a budget of 1 leaves 1,107 candidates inconclusive."""
    decide = impossibility._decide
    walks = _greedy_misses(monkeypatch)
    over = 0

    def recording(columns, cap):
        nonlocal over
        before = len(walks)
        answer = decide(columns, cap)
        leaves = math.prod(len(subsets) for _, subsets in _day_lists(_candidate_matrix(columns)))
        if leaves > cap:
            over += 1
            assert len(walks) == before + 1 and answer[1] == walks[-1]
        return answer

    _forbid_scans(monkeypatch)
    monkeypatch.setattr(impossibility, "_decide", recording)
    result = search_witness_g2(SearchBounds(5, 5, per_instance_budget=budget))
    assert over >= result.instances_inconclusive > 0
    if budget == 1:
        assert result.instances_inconclusive == 1_107


def test_greedy_leaf_settles_6652_of_the_7_4_candidates(monkeypatch):
    """The greedy leaf settles 6,652 of the 6,834 candidates up to (7,4)
    and the leaf walk the other 182; the search calls neither
    ``scan_verify`` nor :func:`verify_no_fair_ef`."""
    decisions = []
    decide = impossibility._decide

    def recording(columns, budget):
        decisions.append(1)
        return decide(columns, budget)

    monkeypatch.setattr(impossibility, "_decide", recording)
    walks = _greedy_misses(monkeypatch)
    _forbid_scans(monkeypatch)
    monkeypatch.setattr(impossibility, "verify_no_fair_ef", _no_scan)
    assert search_witness_g2(SearchBounds(7, 4)).instances_examined == 6_834
    assert len(decisions) == 6_834
    assert (len(decisions) - len(walks), len(walks)) == (6_652, 182)
    assert None not in walks


def test_g2_search_dedup_skips_oversized_pools():
    result = search_witness_g2(SearchBounds(5, 5, per_size_cap=1000))
    assert not result.search_complete
    assert result.sizes_skipped  # larger sizes exceed the candidate cap
    assert result.witness is None
    over_cap = [
        (n, m)
        for n in range(2, 6)
        for m in range(1, 6)
        if math.comb(2**m - 1 + n - 1, n) > 1000
    ]
    assert list(result.sizes_skipped) == over_cap


def _levels(max_players, max_days):
    """``(n, k, level, start)`` for n = 2..max_players and k = 1..max_days,
    each n taking its zero-row entries from the n - 1 row levels, as the
    search does."""
    levels = [[]] * max_days
    for n in range(2, max_players + 1):
        below, levels = levels, []
        for k, (level, start) in enumerate(_orderly_levels(n, below), 1):
            levels.append(level)
            yield n, k, level, start


def _candidates(n, level, start):
    """The candidates of an orderly level of n rows, its entries from
    ``start`` on, as ``(rows, columns)`` in ascending order of their
    matrices, the order in which the search reports: rows ascend, so the
    first row is the least, and row ints read a matrix's rows in order."""
    return sorted((_rows(columns, n), columns) for columns in level[start:])


def _candidate_rows(columns):
    """The row ints of a candidate, given by its column masks: it has no
    zero row, so its rows are the bits up to the masks' highest."""
    return _rows(columns, max(columns).bit_length())


def _candidate_matrix(columns):
    """The 0/1 matrix of a candidate, given by its column masks."""
    return _matrix(_candidate_rows(columns), len(columns))


def _dedup_candidates(max_players, max_days):
    """``(n, m, candidates)`` per size, each candidate as its 0/1 matrix."""
    for n, m, level, start in _levels(max_players, max_days):
        yield n, m, [_matrix(rows, m) for rows, _ in _candidates(n, level, start)]


def _int_to_matrix(value: int, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(value >> (n * m - 1 - (i * m + k)) & 1 for k in range(m))
        for i in range(n)
    )


def _problem_from_matrix(matrix) -> Problem:
    """A g = 2 instance labelled as the search labels its candidates."""
    n, m = len(matrix), len(matrix[0])
    return Problem(
        tuple(f"p{i + 1}" for i in range(n)), tuple(f"d{k + 1}" for k in range(m)), matrix, 2
    )


def _candidates_raw(n: int, m: int):
    """Every irreducible g = 2 matrix of n players and m days, in ascending
    order of its row-major reading: the reference the search's canonical
    candidates are tested against."""
    for value in range(1 << (n * m)):
        matrix = _int_to_matrix(value, n, m)
        if is_irreducible(_problem_from_matrix(matrix)):
            yield matrix


def _reference_levels(n, max_days):
    """Plain orderly generation with no shortcut: every child with ascending
    rows and a new column of weight >= 2, kept if it is canonical."""
    level = {((0,) * n, ())}
    for _ in range(max_days):
        level = {
            (child, columns + (col,))
            for rows, columns in level
            for col in range(1 << n)
            for child in [tuple(2 * r + (col >> i & 1) for i, r in enumerate(rows))]
            if col.bit_count() >= 2 and list(child) == sorted(child)
            and _is_canonical(columns + (col,), n)
        }
        yield level


def test_orderly_levels_match_plain_orderly_generation():
    """The zero-row lift and the parent-frontier test change no level, up
    to (7,4); no entry is made twice."""
    reference = None
    for n, k, level, _ in _levels(7, 4):
        if k == 1:
            reference = _reference_levels(n, 4)
        assert len(set(level)) == len(level), (n, k)
        assert set(level) == {columns for _, columns in next(reference)}, (n, k)


def test_level_entries_are_their_column_masks_alone(monkeypatch):
    """Every level entry up to (6,5) and (3,9) is its tuple of column
    masks and nothing else: the row ints ``_rows`` builds ascend and give
    the columns back through ``_column_masks(_matrix(...))``; the entries
    from the level's ``start`` on are exactly those with a nonzero first
    row; and the availability levels the decision's bit-sliced counter
    reads off the columns group the rows by their bit counts, counts of 8
    and 9 included, where it needs its fourth plane."""
    seen = []

    def recording(levels, out):  # the greedy leaf's envy test reads the levels
        seen.append(levels)
        return True

    monkeypatch.setattr(impossibility, "_envy_free", recording)
    entries = most = 0
    for bounds in ((6, 5), (3, 9)):
        for n, k, level, start in _levels(*bounds):
            for i, columns in enumerate(level):
                rows = _rows(columns, n)
                assert list(rows) == sorted(rows), columns
                assert _column_masks(_matrix(rows, k)) == columns
                assert (i >= start) == (rows[0] != 0), (n, k, i)
                by_count = {}
                for j, r in enumerate(rows):
                    if r:
                        by_count[r.bit_count()] = by_count.get(r.bit_count(), 0) | 1 << j
                _decide(columns, DEFAULT_MAX_ASSIGNMENTS)
                assert seen.pop() == sorted(by_count.items()), columns
                most = max(most, *by_count)
                entries += 1
    assert (entries, most) == (20_010, 9)


def test_canonical_children_are_exactly_the_canonical_children():
    """From every level entry, the children up to (6,4) and (5,5), and the
    children of every (7,3) entry (n = 3 and n = 7 are the sizes where a
    packed field is exactly full): the columns yielded, each once, are
    every column that keeps the rows ascending, has weight >= 2, leaves the
    first row nonzero (the zero-block rule) and makes a canonical child."""
    accepted = rejected = 0
    for n, k, level, _ in _levels(7, 4):
        if (n, k) == (6, 4) or n == 7 and k != 3:
            continue
        for columns in level:
            rows = _rows(columns, n)
            yielded = list(_canonical_children(not rows[0], columns, n))
            assert len(set(yielded)) == len(yielded), rows
            canonical = set()
            for col in range(1 << n):
                child = [2 * r + (col >> i & 1) for i, r in enumerate(rows)]
                if col.bit_count() < 2 or child != sorted(child) or not child[0]:
                    continue
                if _is_canonical(columns + (col,), n):
                    canonical.add(col)
                else:
                    rejected += 1
            assert set(yielded) == canonical, rows
            accepted += len(canonical)
    assert (accepted, rejected) == (8_531, 25_448)


def test_canonical_children_send_1833_children_to_the_tie_test(monkeypatch):
    """Up to (7,4), 1,833 of the children reach the bit-level tie test and
    1,673 of those are canonical; every other child is decided from its
    packed keys.  A packing that sent every child there would fail this."""
    decided = []

    def recording(*args):
        decided.append(_tie_accepts(*args))
        return decided[-1]

    monkeypatch.setattr(impossibility, "_tie_accepts", recording)
    entries = sum(len(level) for n, k, level, _ in _levels(7, 4) if n == 7 and k == 4)
    assert entries == 6_279
    assert (len(decided), sum(decided)) == (1_833, 1_673)


def test_bounded_sums_send_7644_columns_to_the_packed_test(monkeypatch):
    """Up to (7,4), the branch and bound hands the packed test 7,644 child
    columns of weight >= 2, of the 26,034 that the parents' blocks allow;
    its bound drops the rest before they are built.  A column it drops
    reads below some least key, so a weaker bound changes no level; this
    count catches it."""
    allowed, reached = [], []
    bounded = impossibility._bounded_sums

    def recording(blocks, units, below, guards, zero):
        sums = bounded(blocks, units, below, guards, zero)
        full = (1 << blocks[-1].bit_length()) - 1  # the last block holds the last row
        reached.append(sum((key & full).bit_count() >= 2 for key in sums))
        sizes = [block.bit_count() for block in blocks]
        choices = [range(size + 1) for size in sizes]
        if zero:
            choices[0] = [sizes[0]]  # a zero first block takes all ones
        allowed.append(sum(sum(ts) >= 2 for ts in product(*choices)))
        return sums

    monkeypatch.setattr(impossibility, "_bounded_sums", recording)
    for _ in _levels(7, 4):
        pass
    assert (sum(allowed), sum(reached)) == (26_034, 7_644)


def _partitions(n, largest=None):
    """The partitions of n, parts in descending order, none above
    ``largest``."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _class_share(parts) -> Fraction:
    """The share of the permutations with cycle type ``parts`` among all
    permutations of their sum: 1 / prod(i^m_i * m_i!) over the m_i parts
    equal to i."""
    z = 1
    for i in set(parts):
        z *= i ** parts.count(i) * math.factorial(parts.count(i))
    return Fraction(1, z)


def _burnside_entries(n: int, k: int) -> int:
    """E(n, k), the classes under row and column permutations of the n x k
    0/1 matrices whose columns all have weight >= 2: an orderly level's
    entries, counted by Burnside's lemma with exact fractions and no
    matrix built.

    A matrix fixed by a row permutation of cycle type rho and a column
    permutation of cycle type kappa is free on the orbits of the cells.
    Below a column cycle of length b, a column reads gcd(a, b) free bits
    on a row cycle of length a, each bit standing for a / gcd(a, b) rows,
    and the cycle's other columns are its images, of the same weight.  The
    column reads weight 0 once, and weight 1 on each free bit that stands
    for one row, a of them on each row cycle whose length a divides b.
    """
    total = Fraction(0)
    for rho in _partitions(n):
        for kappa in _partitions(k):
            fixed = 1
            for b in kappa:
                bits = sum(math.gcd(a, b) for a in rho)
                fixed *= 2**bits - 1 - sum(a for a in rho if b % a == 0)
            total += _class_share(rho) * _class_share(kappa) * fixed
    assert total.denominator == 1
    return int(total)


def test_burnside_count_of_small_classes():
    """The count itself, on sizes small enough to list every matrix: the
    classes of n x k matrices with columns of weight >= 2, by canonical
    form."""
    for n in range(1, 5):
        for k in range(1, 4):
            matrices = {
                canonical_form(_int_to_matrix(value, n, k))
                for value in range(1 << (n * k))
                if all(sum(col) >= 2 for col in zip(*_int_to_matrix(value, n, k)))
            }
            assert _burnside_entries(n, k) == len(matrices), (n, k)


def test_orderly_levels_are_pinned_up_to_the_default_search(monkeypatch):
    """Entries and candidates (entries with no zero row) per (n, k) of every
    level the default search makes, 22,148 candidates over 32 sizes, and
    of (5,6) under a cap of 10^7: the counts of plain orderly generation,
    and Burnside's count of each level's classes."""
    sizes = {}

    def recording(n, below):
        for k, (level, start) in enumerate(_orderly_levels(n, below), 1):
            # a candidate's first row, bit 0 of its columns, is nonzero
            sizes[n, k] = len(level), sum(1 for columns in level if any(c & 1 for c in columns))
            yield level, start

    def decide_stub(columns, budget):  # an envy-free first leaf
        return True, (0,) * len(columns)

    monkeypatch.setattr(impossibility, "_orderly_levels", recording)
    monkeypatch.setattr(impossibility, "_decide", decide_stub)
    assert search_witness_g2(SearchBounds(7, 6)).instances_examined == 22_148
    entries = {
        2: [1, 1, 1, 1, 1, 1],
        3: [2, 4, 7, 11, 16, 23],
        4: [3, 10, 30, 83, 208, 495],
        5: [4, 19, 91, 436, 1991],
        6: [5, 32, 229, 1808, 14819],
        7: [6, 49, 500, 6279],
    }
    candidates = {
        2: [1, 1, 1, 1, 1, 1],
        3: [1, 3, 6, 10, 15, 22],
        4: [1, 6, 23, 72, 192, 472],
        5: [1, 9, 61, 353, 1783],
        6: [1, 13, 138, 1372, 12828],
        7: [1, 17, 271, 4471],
    }
    assert sizes == {
        (n, k): (entries[n][k - 1], candidates[n][k - 1])
        for n in entries
        for k in range(1, len(entries[n]) + 1)
    }
    searched = dict(sizes)
    sizes.clear()
    search_witness_g2(SearchBounds(5, 6, per_size_cap=10**7))
    assert sizes[5, 6] == (8651, 8156)
    # an independent count of every level made: E(n, k) entries, and
    # E(n, k) - E(n - 1, k) candidates, the entries with no zero row
    searched.update(sizes)
    assert len(searched) == 33
    for (n, k), (made, kept) in searched.items():
        entries = _burnside_entries(n, k)
        assert (made, kept) == (entries, entries - _burnside_entries(n - 1, k)), (n, k)


def test_dedup_candidates_are_the_canonical_forms_of_raw_candidates():
    """Two routes to the size classes: orderly generation, and
    canonical_form over every irreducible matrix of the size; past 4 x 4,
    over every multiset of nonzero rows with columns of weight >= 2."""
    for n, m, candidates in _dedup_candidates(4, 4):
        raw = {canonical_form(matrix) for matrix in _candidates_raw(n, m)}
        assert set(candidates) == raw, (n, m)
    sizes = {(n, m): c for bounds in ((6, 4), (4, 5)) for n, m, c in _dedup_candidates(*bounds)}
    for n, m in ((5, 4), (6, 4), (4, 5)):
        rows = [row for row in product((0, 1), repeat=m) if any(row)]
        raw = {
            canonical_form(matrix)
            for matrix in combinations_with_replacement(rows, n)
            if all(sum(col) >= 2 for col in zip(*matrix))
        }
        assert set(sizes[n, m]) == raw, (n, m)


def test_dedup_candidate_counts_up_to_7_4():
    """The classes per size that ``SearchBounds(7, 4)`` searches: 6,834."""
    counts = [[0] * 4 for _ in range(6)]
    for n, m, candidates in _dedup_candidates(7, 4):
        counts[n - 2][m - 1] = len(candidates)
    assert counts == [
        [1, 1, 1, 1],
        [1, 3, 6, 10],
        [1, 6, 23, 72],
        [1, 9, 61, 353],
        [1, 13, 138, 1372],
        [1, 17, 271, 4471],
    ]
    assert sum(map(sum, counts)) == 6_834


def test_dedup_candidates_ascend_within_a_size():
    """No two candidates of a size share their rows, so the search's count
    of the candidates at or below its least witness is exact."""
    sizes = 0
    for n, m, candidates in _dedup_candidates(6, 4):
        assert all(a < b for a, b in zip(candidates, candidates[1:])), (n, m)
        sizes += len(candidates) > 1
    assert sizes > 10


def test_g2_search_without_dedup_matches_on_tiny_bounds():
    """The search finds no witness up to (3,2), and neither does a check of
    every irreducible matrix of those sizes, one class member at a time."""
    with_dedup = search_witness_g2(SearchBounds(3, 2))
    assert with_dedup.witness is None and with_dedup.search_complete
    raw = 0
    for n in range(2, 4):
        for m in range(1, 3):
            for matrix in _candidates_raw(n, m):
                report = verify_no_fair_ef(_problem_from_matrix(matrix))
                assert report.conclusive and report.ef_found, matrix
                raw += 1
    assert raw >= with_dedup.instances_examined


def test_g2_search_candidate_pool_sizes_are_predictable():
    # the dedup pool bound per size is C(2^m - 1 + n - 1, n)
    assert math.comb(2**2 - 1 + 2 - 1, 2) == 6
    result = search_witness_g2(SearchBounds(2, 2))
    assert result.instances_examined <= 6 + 2  # sizes (2,1) and (2,2)
