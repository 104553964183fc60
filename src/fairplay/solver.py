"""Exact fair solver: lexicographically maximal fairness profiles.

The optimum profile comes from one exact integer min-cost flow whose
weights encode the whole lexicographic order (see ``_flow``); no
enumeration is involved, which keeps this module an independent route from
the brute-force oracle.  Tie-breaking then picks one assignment among the
profile-optimal ones:

* ``lex``: the matrix that is smallest in row-major binary order, found by
  deciding cells one at a time in the optimal flow's residual network: a
  used cell is dropped exactly when the flow can be rerouted off it round a
  zero-reduced-cost cycle, so no cell needs a fresh solve;
* ``random``: uniform over all profile-optimal assignments, drawn by
  reservoir sampling over a pruned exhaustive walk (deterministic for a
  fixed seed).

Inputs need not be irreducible: the solver reduces internally and
zero-extends the result, so removed players provably get no games.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from fairplay import _flow
from fairplay.model import (
    Assignment,
    GVector,
    Problem,
    g_vector,
    reduce_problem,
    zero_extend,
)


@dataclass(frozen=True)
class TieBreakPolicy:
    """How to choose among assignments with the optimal fairness profile.

    ``lex`` is deterministic and ignores the seed; ``random`` requires one.
    The same (problem, policy) pair always yields the same assignment.
    """

    mode: str = "lex"
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("lex", "random"):
            raise ValueError(f"unknown tie-break mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ValueError("random tie-break requires a seed")

    @classmethod
    def lex(cls) -> "TieBreakPolicy":
        return cls("lex")

    @classmethod
    def seeded(cls, seed: int) -> "TieBreakPolicy":
        return cls("random", seed)


@dataclass(frozen=True)
class StageInfo:
    """One threshold t of the optimal profile: ``optimal_count`` is G_t.

    The whole profile is settled by a single flow solve, so every entry
    carries that solve's ``augmentations`` and ``relaxations``.
    """

    threshold: int
    optimal_count: int
    augmentations: int
    relaxations: int


@dataclass(frozen=True)
class SolveReport:
    assignment: Assignment
    g_vector: GVector
    total_games: int
    stages: tuple[StageInfo, ...]


def _quotas(p: Problem) -> list[int]:
    g = p.group_size
    return [g * (c // g) for c in p.day_counts()]


def solve_efficient(p: Problem) -> Assignment:
    """Deterministic full-game baseline with no fairness: each surviving day
    takes its first available players, in player order."""
    reduced, _ = reduce_problem(p)
    quotas = _quotas(reduced)
    matrix = [[0] * reduced.m for _ in range(reduced.n)]
    for k in range(reduced.m):
        picked = 0
        for i in range(reduced.n):
            if picked == quotas[k]:
                break
            if reduced.avail[i][k]:
                matrix[i][k] = 1
                picked += 1
    inner = Assignment(tuple(tuple(row) for row in matrix))
    return zero_extend(inner, p, reduced)


def solve_fair(p: Problem, tie_break: TieBreakPolicy | None = None) -> SolveReport:
    """Compute an assignment whose fairness profile is the exact
    lexicographic maximum over all feasible assignments."""
    tie_break = tie_break or TieBreakPolicy.lex()
    reduced, _ = reduce_problem(p)

    if reduced.is_empty:
        empty = Assignment(tuple((0,) * p.m for _ in range(p.n)))
        return SolveReport(empty, g_vector(empty) if p.n else GVector(()), 0, ())

    quotas = _quotas(reduced)
    best = _flow.solve_stage(reduced.avail, quotas)
    target = best.gvector
    stages = tuple(
        StageInfo(t, target[t - 1], best.augmentations, best.relaxations)
        for t in range(1, reduced.m + 1)
    )

    if tie_break.mode == "lex":
        inner = _realize_lex_min(reduced, quotas, target, best)
    else:
        inner = _realize_random(reduced, quotas, target, tie_break.seed)

    assignment = zero_extend(inner, p, reduced)
    return SolveReport(
        assignment=assignment,
        g_vector=g_vector(assignment),
        total_games=assignment.total_slots() // p.group_size,
        stages=stages,
    )


def _realize_lex_min(
    reduced: Problem,
    quotas: list[int],
    target: tuple[int, ...],
    current: _flow.FlowResult,
) -> Assignment:
    """Row-major smallest matrix among those attaining the target profile.

    Walk the available cells in row-major order, preferring 0, in the
    residual network of ``current`` (an optimal flow, edited in place).  A
    used cell is dropped exactly when the flow can be rerouted off it at
    unchanged cost; each decided cell is then fixed or forbidden in the
    network, so later reroutes keep it.  Cheap day counters settle
    forced/impossible cells without a search.
    """
    n, m = reduced.n, reduced.m
    flow = current.residual
    forced_per_day = [0] * m
    undecided_per_day = list(reduced.day_counts())
    matrix = [[0] * m for _ in range(n)]

    for i in range(n):
        for k in range(m):
            if not reduced.avail[i][k]:
                continue
            undecided_per_day[k] -= 1
            if forced_per_day[k] == quotas[k]:
                use = False  # quota already met, cell cannot be used
            elif forced_per_day[k] + undecided_per_day[k] < quotas[k]:
                use = True  # every remaining cell of this day is needed
            else:
                use = flow.uses((i, k)) and not flow.reroute((i, k))
            if use:
                flow.fix((i, k))
                matrix[i][k] = 1
                forced_per_day[k] += 1
            else:
                flow.forbid((i, k))

    out = Assignment(tuple(tuple(row) for row in matrix))
    assert out.day_totals() == tuple(quotas)
    assert g_vector(out).counts == target
    return out


def _realize_random(
    reduced: Problem,
    quotas: list[int],
    target: tuple[int, ...],
    seed: int,
) -> Assignment:
    """Uniform draw over every assignment attaining the target profile.

    Walks all full-game assignments day by day, pruning branches whose
    optimistic profile already falls short, and reservoir-samples the
    surviving leaves, so the draw is uniform and reproducible per seed.
    """
    n, m = reduced.n, reduced.m
    rng = random.Random(seed)
    day_players = [
        tuple(i for i in range(n) if reduced.avail[i][k]) for k in range(m)
    ]
    day_combos = [
        list(combinations(day_players[k], quotas[k])) for k in range(m)
    ]
    # suffix availability: games player i could still gain from day k onward
    suffix = [[0] * (m + 1) for _ in range(n)]
    for i in range(n):
        for k in range(m - 1, -1, -1):
            suffix[i][k] = suffix[i][k + 1] + reduced.avail[i][k]

    games = [0] * n
    chosen: list[tuple[int, ...]] = [()] * m
    kept: Optional[list[tuple[int, ...]]] = None
    seen = 0

    def optimistic_ok(day: int) -> bool:
        ub = sorted((games[i] + suffix[i][day] for i in range(n)), reverse=True)
        for t in range(1, m + 1):
            gt = sum(1 for d in ub if d >= t)
            want = target[t - 1]
            if gt < want:
                return False
            if gt > want:
                return True
        return True

    def dfs(day: int):
        nonlocal kept, seen
        if day == m:
            gvec = tuple(sum(1 for d in games if d >= t) for t in range(1, m + 1))
            if gvec == target:
                seen += 1
                if rng.randrange(seen) == 0:
                    kept = list(chosen)
            return
        for combo in day_combos[day]:
            for i in combo:
                games[i] += 1
            chosen[day] = combo
            if optimistic_ok(day + 1):
                dfs(day + 1)
            for i in combo:
                games[i] -= 1

    dfs(0)
    assert kept is not None
    matrix = [[0] * m for _ in range(n)]
    for k in range(m):
        for i in kept[k]:
            matrix[i][k] = 1
    return Assignment(tuple(tuple(row) for row in matrix))
