"""Shared test helpers: a tiny independent enumerator over ALL feasible
assignments (not just full-game ones), used to cross-check the package's
efficient-only scans, and a tally of the leaves those scans fold.

The tests' random matrix instances come from ``tests/corpus.py``, as named
families or from its drawers.  To add a family, append it there and pin
its digest in ``test_corpus``; never re-seed or reorder an existing
family."""

import random
from itertools import combinations, product

import pytest

from fairplay import _scan
from fairplay.model import Assignment, Problem


def all_feasible_assignments(p: Problem, full_games_only=False):
    """Every assignment satisfying availability and the day-total rule,
    including partial and empty ones.  Exponential; tiny instances only.

    With ``full_games_only`` each day seats the most players it can, which
    leaves exactly the efficient assignments, in odometer order (day 0
    slowest, each day's subsets in lexicographic order)."""
    g = p.group_size
    per_day = []
    for k in range(p.m):
        players = [i for i in range(p.n) if p.avail[i][k]]
        sizes = range(0, len(players) + 1, g)
        if full_games_only:
            sizes = [len(players) // g * g]
        options = []
        for size in sizes:
            options.extend(combinations(players, size))
        per_day.append(options)
    for chosen in product(*per_day):
        matrix = [[0] * p.m for _ in range(p.n)]
        for k, combo in enumerate(chosen):
            for i in combo:
                matrix[i][k] = 1
        yield Assignment(tuple(tuple(row) for row in matrix))


def count_folded(monkeypatch):
    """Patch the walk so that the leaves it hands to folds are tallied in the
    returned list, one entry per last-day node."""
    folded = []
    walk = _scan._walk

    def counting_walk(combos, rows, budget, fold, bound=None):
        def counted(games, choice, limit):
            folded.append(limit)
            return fold(games, choice, limit)

        return walk(combos, rows, budget, counted, bound)

    monkeypatch.setattr(_scan, "_walk", counting_walk)
    return folded


@pytest.fixture
def rng():
    return random.Random(20260808)


# One line per acceptance criterion, printed after the run (uncaptured).
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
