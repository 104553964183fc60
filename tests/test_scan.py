"""The scan kernel against the independent enumerator in conftest: best and
first envy-free leaves in odometer order, minimum envy, budget truncation,
the orbit memo's budget switch and the empty-input returns.

Instances whose players share a few rows make the orbit memo skip subtrees,
so every check below also holds the memo to the plain walk."""

import math
import random

import pytest

from conftest import all_feasible_assignments, make_problem, random_problem
from fairplay import _scan, fixtures
from fairplay._scan import scan_fair, scan_first_ef, scan_verify
from fairplay.impossibility import build_witness
from fairplay.model import envy_report, g_vector, reduce_problem
from fairplay.oracle import _assignment_from_choice, _efficient_lists

FULL = 10**7


def _instances(rng):
    red, _ = reduce_problem(fixtures.table1())
    # one day: the walk starts at the last day; two days: no memo depth
    one_day = make_problem([(1,)] * 7, 3)
    two_days = make_problem([(1, 1), (1, 1), (1, 0), (0, 1), (0, 1), (1, 1), (1, 0)], 2)
    fixed = [red, fixtures.table2(), build_witness(3), one_day, two_days]
    randoms = []
    while len(randoms) < 12:
        p = random_problem(rng, max_n=6, max_m=3)
        r, _ = reduce_problem(p)
        if not r.is_empty:
            randoms.append(r)
    return fixed + randoms + _symmetric_instances(rng)


def _symmetric_instances(rng):
    """Instances of 4-5 days whose players repeat two or three rows.  Every
    other one stays unreduced: a day with too few players for a game then
    seats nobody, so players with equal rows as the scan sees them can
    differ in availability count.  The first is made by hand that way:
    p1-p3 share days 2 and 4, but p3 is also free on day 3, alone."""
    out = [make_problem([(0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1)], 2)]
    while len(out) < 8:
        m = rng.randint(4, 5)
        rows = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(2, 3))]
        p = make_problem([rng.choice(rows) for _ in range(rng.randint(5, 9))], rng.choice((2, 3)))
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
        scanned, complete, best_g, choice, index = scan_fair(combos, ref.p.n, FULL)
        best = max(ref.profiles)
        assert (scanned, complete, best_g) == (len(ref.leaves), True, best)
        assert index == ref.profiles.index(best)
        assert _assignment_from_choice(ref.p, combos, choice) == ref.leaves[index]


def test_scan_first_ef_finds_first_envy_free_leaf(references):
    for ref in references:
        combos = _efficient_lists(ref.p, FULL)[0]
        scanned, conclusive, choice, index = scan_first_ef(
            combos, ref.p.n, ref.avail, FULL
        )
        assert conclusive
        if ref.first_ef is None:
            assert (scanned, choice, index) == (len(ref.leaves), None, -1)
        else:
            assert (scanned, index) == (ref.first_ef + 1, ref.first_ef)
            assert _assignment_from_choice(ref.p, combos, choice) == ref.leaves[index]


def test_scan_verify_minimum_envy(references):
    for ref in references:
        combos = _efficient_lists(ref.p, FULL)[0]
        scanned, conclusive, ef_found, choice, min_envy = scan_verify(
            combos, ref.p.n, ref.avail, FULL, stop_on_ef=False
        )
        assert (scanned, conclusive) == (len(ref.leaves), True)
        assert (ef_found, min_envy) == (ref.first_ef is not None, min(ref.envy))
        if ef_found:
            leaf = _assignment_from_choice(ref.p, combos, choice)
            assert leaf == ref.leaves[ref.first_ef]
        stopped_at = len(ref.leaves) if ref.first_ef is None else ref.first_ef + 1
        assert scan_verify(combos, ref.p.n, ref.avail, FULL) == (
            stopped_at, conclusive, ef_found, choice, min_envy
        )


@pytest.mark.parametrize("budget", [1, 7, 35, 36, 1000])
def test_budget_truncation(references, budget):
    ref = references[1]
    assert ref.p == fixtures.table2()
    n, avail = ref.p.n, ref.avail
    combos = _efficient_lists(ref.p, budget + 1)[0]
    seen = ref.profiles[:budget]

    scanned, complete, best_g, _, index = scan_fair(combos, n, budget)
    assert (scanned, complete, best_g) == (budget, False, max(seen))
    assert index == seen.index(max(seen))
    assert scan_first_ef(combos, n, avail, budget) == (budget, False, None, -1)
    assert scan_verify(combos, n, avail, budget) == (
        budget, False, False, None, min(ref.envy[:budget])
    )


@pytest.mark.parametrize("budget, complete", [(42_875, True), (42_874, False)])
def test_memo_needs_a_budget_covering_every_leaf(references, monkeypatch, budget, complete):
    """The memo skips subtrees only when the budget covers all 42,875 leaves
    of table2; one leaf less walks and stops leaf by leaf."""
    ref = references[1]
    assert ref.p == fixtures.table2()
    n, avail = ref.p.n, ref.avail
    combos = _efficient_lists(ref.p, budget + 1)[0]
    walked = []
    count_envy_pairs = _scan._count_envy_pairs
    monkeypatch.setattr(
        _scan, "_count_envy_pairs", lambda *a: walked.append(1) or count_envy_pairs(*a)
    )

    scanned, conclusive, ef_found, _, min_envy = scan_verify(combos, n, avail, budget)
    assert (scanned, conclusive, ef_found) == (budget, complete, False)
    assert min_envy == min(ref.envy[:budget])
    assert (len(walked) < budget) == complete
    assert scan_fair(combos, n, budget)[:2] == (budget, complete)
    assert scan_first_ef(combos, n, avail, budget)[:2] == (budget, complete)


def test_empty_inputs():
    assert scan_fair([], 0, 10) == (0, True, None, None, -1)
    assert scan_fair([[]], 3, 10) == (0, True, None, None, -1)
    assert scan_first_ef([], 0, (), 10) == (0, True, None, -1)
    assert scan_first_ef([[]], 3, (1, 1, 1), 10) == (0, True, None, -1)
    assert scan_verify([], 0, (), 10) == (0, True, False, None, -1)
    assert scan_verify([[]], 3, (1, 1, 1), 10) == (0, True, False, None, -1)
