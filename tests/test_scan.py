"""The scan kernel against the independent enumerator in conftest: best and
first envy-free leaves in odometer order, minimum envy, budget truncation,
the orbit memo under a budget and the empty-input returns.

Instances whose players share a few rows, or only the rows' late days, make
the orbit memo skip subtrees, so every check below also holds the memo to
the plain walk."""

import random
from itertools import combinations

import pytest

from conftest import all_feasible_assignments, count_folded, make_problem, random_problem
from fairplay import _scan, fixtures
from fairplay._scan import scan_fair, scan_verify
from fairplay.impossibility import build_witness
from fairplay.model import day_quotas, envy_report, g_vector, reduce_problem
from fairplay.oracle import _assignment_from_choice, _efficient_lists, verify_no_fair_ef

FULL = 10**7


def _instances(rng):
    red, _ = reduce_problem(fixtures.table1())
    # one day: the walk starts at the last day; two days: no memo depth
    one_day = make_problem([(1,)] * 7, 3)
    two_days = make_problem([(1, 1), (1, 1), (1, 0), (0, 1), (0, 1), (1, 1), (1, 0)], 2)
    # witness 3 with a forced player split across the two days, or with a
    # fourth half-forced player: no envy-free leaf, so the envy scan covers
    # every leaf
    left, right = [(1, 1, 0, 0, 0)] * 2, [(0, 0, 1, 1, 1)] * 5
    split = make_problem(left + [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)] + right, 3)
    extra = make_problem(left + [(1, 1, 0, 0, 0), (0, 1, 0, 0, 0)] + right, 3)
    fixed = [red, fixtures.table2(), build_witness(3), one_day, two_days, split, extra]
    randoms = []
    while len(randoms) < 12:
        p = random_problem(rng, max_n=6, max_m=3)
        r, _ = reduce_problem(p)
        if not r.is_empty:
            randoms.append(r)
    return fixed + randoms + _symmetric_instances(rng) + _tail_instances(rng)


def _symmetric_instances(rng):
    """Instances of 4-5 days whose players repeat two or three rows.  Every
    other one stays unreduced: a day with too few players for a game then
    seats nobody, so players with equal rows as the scan sees them can
    differ in availability count.  The first is made by hand that way:
    p1-p3 share days 2 and 4, but p3 is also free on day 3, alone."""

    def draw(m):
        rows = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(2, 3))]
        return [rng.choice(rows) for _ in range(rng.randint(5, 9))]

    return _drawn(rng, [(0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1)], draw)


def _tail_instances(rng):
    """Instances of 4-5 days whose players share one or two rows on the
    days from a split point on but differ before it, so the classes of
    interchangeable players change with the depth, and class-mates differ
    in availability count.  The first is made by hand that way: p1 and p5,
    and also p3 and p4, share days 2-5 but differ on day 1, while p2 and p4
    share days 1-2 and 4-5 only."""

    def draw(m):
        split = rng.randint(1, m - 2)
        tails = [tuple(rng.randint(0, 1) for _ in range(m - split)) for _ in range(rng.randint(1, 2))]
        return [
            tuple(rng.randint(0, 1) for _ in range(split)) + rng.choice(tails)
            for _ in range(rng.randint(5, 9))
        ]

    first = [(1, 0, 1, 1, 1), (1, 1, 1, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 1, 1)]
    return _drawn(rng, first, draw)


def _drawn(rng, first, draw):
    """``first`` with g = 2, then seven instances from ``draw(m)``'s rows for
    m of 4-5 days, with g of 2-3, every other one reduced, kept when 4-5 days
    and 2-20,000 leaves remain."""
    out = [make_problem(first, 2)]
    while len(out) < 8:
        p = make_problem(draw(rng.randint(4, 5)), rng.choice((2, 3)))
        if len(out) % 2 == 0:
            p, _ = reduce_problem(p)
        if p.m < 4:
            continue
        leaves = _efficient_lists(p, FULL)[1]
        if 1 < leaves <= 20_000:
            out.append(p)
    return out


class Reference:
    """One instance with its efficient assignments in odometer order, each
    scored by the model's own g-vector and envy audit."""

    def __init__(self, p):
        self.p = p
        self.avail = p.availability_counts()
        self.leaves = list(all_feasible_assignments(p, full_games_only=True))
        self.profiles = [g_vector(x).counts for x in self.leaves]
        self.envy = [len(envy_report(x, p).pairs) for x in self.leaves]
        self.first_ef = self.envy.index(0) if 0 in self.envy else None


@pytest.fixture(scope="module")
def references():
    return [Reference(p) for p in _instances(random.Random(20260808))]


def test_scan_fair_finds_first_best_leaf(references):
    for ref in references:
        combos = _efficient_lists(ref.p, FULL)[0]
        scanned, complete, best_g, choice = scan_fair(combos, ref.p.avail, FULL)
        best = max(ref.profiles)
        assert (scanned, complete, best_g) == (len(ref.leaves), True, best)
        first_best = ref.leaves[ref.profiles.index(best)]
        assert _assignment_from_choice(ref.p, combos, choice) == first_best


def test_profile_bound_is_sound_and_tight_on_the_last_day(references):
    """U, the bound rule's profile, read at every node of the full walk over
    full lists and over lists cut for a third and two thirds of the leaves:
    with the best listed leaf below the node minus 1 on its last entry as
    the target, U is above it; at depth m-1 of full lists, U is that leaf.
    The bound reads one target list, changed between calls."""
    checked = tight = 0
    for ref in references:
        n, m, total = ref.p.n, ref.p.m, len(ref.leaves)
        for cap in (total, max(1, total // 3), max(1, total * 2 // 3)):
            combos = _efficient_lists(ref.p, cap + 1)[0]
            target = [0] * m
            bound = _scan.profile_bound(combos, ref.p.avail, target)
            games = [0] * n

            def visit(day):
                """The best listed leaf below the node, which it checks."""
                nonlocal checked, tight
                if day == m:
                    return tuple(sum(g >= s for g in games) for s in range(1, m + 1))
                best = None
                for combo in combos[day]:
                    for i in combo:
                        games[i] += 1
                    below = visit(day + 1)
                    for i in combo:
                        games[i] -= 1
                    best = below if best is None else max(best, below)
                target[:] = best
                target[-1] -= 1
                assert not bound(games, day), (ref.p, cap, games, day)
                checked += 1
                if day == m - 1 and cap == total:
                    target[-1] += 1
                    assert bound(games, day), (ref.p, games, day)
                    tight += 1
                return best

            best = visit(0)  # over every leaf when the lists are full
            assert cap < total or best == max(ref.profiles)
    assert checked > 50_000 and tight > 20_000


def test_scan_first_ef_finds_first_envy_free_leaf(references):
    """The scan stops at the first envy-free leaf, counts it and returns its
    choice with a minimum envy of 0."""
    for ref in references:
        if ref.first_ef is None:
            continue
        combos = _efficient_lists(ref.p, FULL)[0]
        scanned, conclusive, choice, min_envy = scan_verify(
            combos, ref.p.avail, FULL
        )
        assert (scanned, conclusive, min_envy) == (ref.first_ef + 1, True, 0)
        leaf = _assignment_from_choice(ref.p, combos, choice)
        assert leaf == ref.leaves[ref.first_ef]


def test_scan_verify_minimum_envy(references):
    """With no envy-free leaf the scan covers every leaf and reports the
    minimum envy over them."""
    for ref in references:
        if ref.first_ef is not None:
            continue
        combos = _efficient_lists(ref.p, FULL)[0]
        assert scan_verify(combos, ref.p.avail, FULL) == (
            len(ref.leaves), True, None, min(ref.envy)
        )


@pytest.mark.parametrize("budget", [1, 7, 35, 36, 1000, "1/3", "2/3"])
def test_budget_truncation(references, budget):
    """table2 under fixed budgets, and every instance under a third and two
    thirds of its leaves, where the budget may cut a subtree that the
    fairness scan's bound skips: the scans return the plain walk's prefix."""
    if isinstance(budget, int):
        assert references[1].p == fixtures.table2()
        cases = [(references[1], budget)]
    else:
        thirds = int(budget[0])
        cases = [(ref, max(1, len(ref.leaves) * thirds // 3)) for ref in references]
    for ref, cap in cases:
        rows = ref.p.avail
        combos = _efficient_lists(ref.p, cap + 1)[0]
        seen = ref.profiles[:cap]
        cut = cap < len(ref.leaves)

        scanned, complete, best_g, choice = scan_fair(combos, rows, cap)
        assert (scanned, complete, best_g) == (len(seen), not cut, max(seen))
        first_best = ref.leaves[seen.index(max(seen))]
        assert _assignment_from_choice(ref.p, combos, choice) == first_best
        if ref.first_ef is None or ref.first_ef >= cap:
            assert scan_verify(combos, rows, cap) == (
                len(seen), not cut, None, min(ref.envy[:cap])
            )


@pytest.mark.parametrize("budget, complete", [(42_875, True), (42_874, False)])
def test_memo_under_a_budget(references, monkeypatch, budget, complete):
    """table2's 42,875 leaves: a budget of all of them or of one less both
    memoize the depth whose subtrees fit in it, fold far fewer leaves than
    the budget and still return the plain walk's prefix."""
    ref = references[1]
    assert ref.p == fixtures.table2()
    rows = ref.p.avail
    combos = _efficient_lists(ref.p, budget + 1)[0]
    folded = count_folded(monkeypatch)
    seen = ref.profiles[:budget]

    scanned, complete_fair, best_g, choice = scan_fair(combos, rows, budget)
    assert (scanned, complete_fair, best_g) == (budget, complete, max(seen))
    first_best = ref.leaves[seen.index(max(seen))]
    assert _assignment_from_choice(ref.p, combos, choice) == first_best
    assert sum(folded) < budget // 10
    folded.clear()
    assert scan_verify(combos, rows, budget) == (
        budget, complete, None, min(ref.envy[:budget])
    )
    assert sum(folded) < budget // 10


def test_default_budget_keeps_the_memo_on_witness_6(monkeypatch):
    """98.6M leaves against the default budget of 10^7: the envy fold sees
    at most one subtree of the last two days (462 x 462 leaves), the memo
    covers the rest, and the scan stops at exactly the budget,
    inconclusive."""
    leaves = _record_leaf_envy(monkeypatch)
    report = verify_no_fair_ef(build_witness(6))
    assert (report.scanned, report.conclusive, report.ef_found) == (10**7, False, False)
    assert 0 < len(leaves) <= 462 * 462


def test_empty_inputs():
    assert scan_fair([], [], 10) == (0, True, None, None)
    assert scan_fair([[]], [(1,)] * 3, 10) == (0, True, None, None)
    assert scan_verify([], [], 10) == (0, True, None, -1)
    assert scan_verify([[]], [(1,)] * 3, 10) == (0, True, None, -1)


# --------------------------------------------------------------------------- #
# the representative fold: instances whose last day offers more subsets
# than players
# --------------------------------------------------------------------------- #

def _representative_instances(rng):
    """Instances on which ``scan_verify`` folds each last-day node over its
    class representatives, each with its rows shuffled.  First five
    perturbed witnesses of g = 3: the witness itself, grown by a player on
    one of its two forced days (three availability blocks) or on both, and
    with a forced player split in two halves.  None has an envy-free leaf,
    so the scan covers every leaf while ``min_envy`` falls.  Then six random
    instances of three or more availability blocks, drawn with a dense last
    day."""
    left, right = [(1, 1, 0, 0, 0)] * 2, [(0, 0, 1, 1, 1)] * 5
    grown = [
        left + extra + right
        for extra in (
            [(1, 1, 0, 0, 0)],
            [(1, 1, 0, 0, 0), (0, 1, 0, 0, 0)],
            [(1, 1, 0, 0, 0), (1, 0, 0, 0, 0)],
            [(1, 1, 0, 0, 0), (1, 1, 0, 0, 0)],
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
        )
    ]
    out = []
    for rows in grown:
        rows = list(rows)
        rng.shuffle(rows)
        out.append(make_problem(rows, 3))
    while len(out) < len(grown) + 6:
        n, m = rng.randint(5, 8), rng.randint(3, 5)
        rows = [
            tuple(int(rng.random() < 0.6) for _ in range(m - 1)) + (int(rng.random() < 0.9),)
            for _ in range(n)
        ]
        p, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
        if p.is_empty or len(set(p.availability_counts())) < 3:
            continue
        combos, leaves = _efficient_lists(p, FULL)
        if len(combos[-1]) > p.n and len(combos[-1]) < leaves <= 20_000:
            out.append(p)
    return out


@pytest.fixture(scope="module")
def representative_references():
    refs = [Reference(p) for p in _representative_instances(random.Random(20261019))]
    for ref in refs:
        assert len(_efficient_lists(ref.p, FULL)[0][-1]) > ref.p.n
    return refs


def _expected_verify(ref, cap):
    """``scan_verify``'s answer under a budget of ``cap`` leaves, read off
    the brute-force envy counts: scanned, conclusive, first EF leaf and the
    minimum envy."""
    seen = ref.envy[:cap]
    if 0 in seen:
        first = seen.index(0)
        return first + 1, True, ref.leaves[first], 0
    return len(seen), cap >= len(ref.leaves), None, min(seen)


def _verify_leaf(ref, cap):
    combos = _efficient_lists(ref.p, cap + 1)[0]
    scanned, conclusive, choice, min_envy = scan_verify(combos, ref.p.avail, cap)
    leaf = None if choice is None else _assignment_from_choice(ref.p, combos, choice)
    return scanned, conclusive, leaf, min_envy


def test_representative_envy_fold_matches_brute_force(representative_references):
    """The full budget and budgets that cut inside a last-day node: a
    third and two thirds of the leaves, moved half a node off the node
    boundary, and one leaf short of the end."""
    blocks = [len(set(ref.avail)) for ref in representative_references]
    assert max(blocks) >= 3 and sum(b >= 3 for b in blocks) >= 8
    for ref in representative_references:
        width = len(_efficient_lists(ref.p, FULL)[0][-1])
        total = len(ref.leaves)
        caps = {FULL, total - 1}
        caps.update(max(1, total * k // 3 // width * width + width // 2) for k in (1, 2))
        for cap in sorted(caps):
            assert cap >= total or cap % width, (ref.p, cap)
            assert _verify_leaf(ref, cap) == _expected_verify(ref, cap), (ref.p, cap)


def _record_leaf_envy(monkeypatch):
    """Patch the representative fold's per-leaf count so that each counted
    leaf is logged as ``(leaf games, node part, cross pairs, count)``."""
    leaves = []
    leaf_envy = _scan._leaf_envy

    def recording(games, count, cross):
        leaves.append((list(games), count, len(cross), leaf_envy(games, count, cross)))
        return leaves[-1][-1]

    monkeypatch.setattr(_scan, "_leaf_envy", recording)
    return leaves


def _assert_exact(p, leaves):
    """Each logged count equals the full, uncapped envy count."""
    order, starts = _scan._prep_envy_order(p.n, p.availability_counts())
    for games, _, _, count in leaves:
        assert count == _scan._count_envy_pairs(games, order, starts, p.n * p.n + 1), (p, games)


def test_representative_envy_fold_reuses_exact_counts(representative_references, monkeypatch):
    """On the perturbed witnesses, which have no envy-free leaf, the fold
    counts envy once per leaf class, not once per leaf, each count is the
    leaf's full envy count, and the scan ends on the brute-force minimum."""
    leaves = _record_leaf_envy(monkeypatch)
    folded = count_folded(monkeypatch)
    for ref in representative_references[:5]:
        assert ref.first_ef is None
        leaves.clear()
        folded.clear()
        assert _verify_leaf(ref, FULL) == _expected_verify(ref, FULL)
        assert 0 < len(leaves) < sum(folded) // 2
        _assert_exact(ref.p, leaves)


def _dense_last_days(rng):
    """Random reduced instances of 2-4 days whose last day offers more
    subsets than there are players, three for each of 1-4 availability
    blocks."""
    by_blocks = {b: [] for b in range(1, 5)}
    while any(len(ps) < 3 for ps in by_blocks.values()):
        n, m = rng.randint(4, 9), rng.randint(2, 4)
        rows = [
            tuple(int(rng.random() < 0.5) for _ in range(m - 1)) + (int(rng.random() < 0.9),)
            for _ in range(n)
        ]
        p, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
        if p.is_empty or len(set(p.availability_counts())) > 4:
            continue
        combos, leaves = _efficient_lists(p, FULL)
        if len(combos[-1]) > p.n and leaves <= 20_000:
            by_blocks[len(set(p.availability_counts()))].append(p)
    return [p for ps in by_blocks.values() for p in ps]


def _cross_block_days(rng):
    """Endless random reduced instances of 3-5 days whose last day offers
    more subsets than there are players and seats players of two or more
    availability counts, so that pairs between the day's players can add
    to a leaf's envy count."""
    while True:
        n, m = rng.randint(6, 10), rng.randint(3, 5)
        density = rng.choice((0.3, 0.5, 0.7))
        rows = [
            tuple(int(rng.random() < density) for _ in range(m - 1)) + (int(rng.random() < 0.9),)
            for _ in range(n)
        ]
        p, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
        if p.is_empty:
            continue
        avail = p.availability_counts()
        combos, leaves = _efficient_lists(p, FULL)
        day = {avail[i] for i in range(p.n) if p.avail[i][-1]}
        if len(day) >= 2 and len(combos[-1]) > p.n and leaves <= 20_000:
            yield p


def test_representative_leaf_envy_is_exact(representative_references, monkeypatch):
    """At every representative leaf, the node part plus the leaf's cross
    pairs equals the full, uncapped envy count: on the representative
    references, on dense last days of 1-4 availability blocks, and on last
    days that seat two or more blocks until twelve of those have counted
    20 leaves or more, where the cross pairs add to most counts."""
    leaves = _record_leaf_envy(monkeypatch)

    def check(p):
        leaves.clear()
        scan_verify(_efficient_lists(p, FULL)[0], p.avail, FULL)
        _assert_exact(p, leaves)
        return len(leaves), sum(count > base for _, base, _, count in leaves)

    for family in ([ref.p for ref in representative_references],
                   _dense_last_days(random.Random(20261021))):
        assert sum(check(p)[0] for p in family) > 100
    long_scans = counted = crossed = 0
    for p in _cross_block_days(random.Random(20261022)):
        found, added = check(p)
        assert all(pairs for _, _, pairs, _ in leaves), p
        counted, crossed = counted + found, crossed + added
        long_scans += found >= 20
        if long_scans == 12:
            break
    assert crossed > counted // 2 > 200, (counted, crossed)


def _record_folds(monkeypatch):
    """Patch the walk and the per-leaf envy count so that each last-day
    node is logged as ``(node games, limit, stop, counted leaves' games)``."""
    nodes = []
    walk, leaf_envy = _scan._walk, _scan._leaf_envy

    def recording_walk(combos, rows, budget, fold, bound=None):
        def logged(games, choice, limit):
            nodes.append([list(games), limit, None, []])
            nodes[-1][2] = fold(games, choice, limit)
            return nodes[-1][2]

        return walk(combos, rows, budget, logged, bound)

    def recording_leaf(games, count, cross):
        nodes[-1][3].append(list(games))
        return leaf_envy(games, count, cross)

    monkeypatch.setattr(_scan, "_walk", recording_walk)
    monkeypatch.setattr(_scan, "_leaf_envy", recording_leaf)
    return nodes


def test_envy_fold_counts_one_representative_per_class(representative_references, monkeypatch):
    """Each last-day node counts envy at the least leaf of each class vector
    (how many players the leaf takes of each (availability, games) class),
    in increasing rank, and at every class vector whose least leaf ranks
    below where the node stops, against brute force over the day's
    ``combinations``.  The full budget, and budgets that cut inside the
    first node and half way through the scan."""
    nodes = _record_folds(monkeypatch)
    problems = [ref.p for ref in representative_references]
    problems += _dense_last_days(random.Random(20261021))
    assert {len(set(p.availability_counts())) for p in problems} >= {1, 2, 3, 4}
    folds = cuts = stops = 0
    for p in problems:
        avail = p.availability_counts()
        day = [i for i in range(p.n) if p.avail[i][-1]]
        subsets = list(combinations(day, day_quotas(p)[-1]))
        combos, leaves = _efficient_lists(p, FULL)
        middle = leaves // 2 // len(subsets) * len(subsets)
        for cap in (FULL, len(subsets) // 2 + 1, middle + len(subsets) // 2 + 1):
            nodes.clear()
            scan_verify(combos, p.avail, cap)
            for games, limit, stop, counted in nodes:
                def vector(leaf):
                    return tuple(sorted((avail[i], games[i]) for i in leaf))

                least = {}  # class vector -> the rank of its least leaf
                for rank, leaf in enumerate(subsets):
                    least.setdefault(vector(leaf), rank)
                ranks = []
                for leaf_games in counted:
                    leaf = tuple(i for i in range(p.n) if leaf_games[i] > games[i])
                    ranks.append(subsets.index(leaf))
                    assert least[vector(leaf)] == ranks[-1], (p, cap)
                assert all(r < s for r, s in zip(ranks, ranks[1:])), (p, cap)
                end = limit if stop < 0 else stop + 1
                assert ranks == sorted(r for r in least.values() if r < end), (p, cap)
                folds += 1
                cuts += limit < len(subsets)
                stops += stop >= 0
    assert folds > 100 and cuts > 20 and stops > 20


# --------------------------------------------------------------------------- #
# the first-leaf exit: an envy-free first leaf ends the scan before the walk
# --------------------------------------------------------------------------- #

def _first_leaf_instances(rng):
    """Three random reduced instances of g = 2 or 3 per bucket: whether the
    scan takes the representative fold (the last day offers more subsets
    than there are players) and whether the first leaf is envy-free."""
    buckets = {(rep, ef): [] for rep in (False, True) for ef in (False, True)}
    while any(len(refs) < 3 for refs in buckets.values()):
        n, m = rng.randint(4, 8), rng.randint(1, 4)
        rows = [tuple(int(rng.random() < 0.6) for _ in range(m)) for _ in range(n)]
        p, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
        if p.is_empty:
            continue
        combos, leaves = _efficient_lists(p, FULL)
        if leaves <= 5000:
            ref = Reference(p)
            buckets[len(combos[-1]) > p.n, ref.envy[0] == 0].append(ref)
    return buckets


def test_first_leaf_exit_matches_brute_force():
    """Plain and representative folds, with and without an envy-free first leaf,
    under a budget of one leaf and the full budget, on every day's full
    list: the scan answers as brute force does."""
    for refs in _first_leaf_instances(random.Random(20261020)).values():
        for ref in refs:
            combos = _efficient_lists(ref.p, FULL)[0]
            for cap in (1, FULL):
                scanned, conclusive, choice, min_envy = scan_verify(
                    combos, ref.p.avail, cap)
                leaf = None if choice is None else _assignment_from_choice(ref.p, combos, choice)
                assert (scanned, conclusive, leaf, min_envy) == _expected_verify(ref, cap), (
                    ref.p, cap)
