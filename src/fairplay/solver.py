"""Exact fair solver: lexicographically maximal fairness profiles.

The optimum profile comes from one exact integer min-cost flow whose
weights encode the whole lexicographic order (see ``_flow``).  That solve
enumerates nothing, which keeps it an independent route from the
brute-force oracle.  Tie-breaking then picks one assignment among the
profile-optimal ones:

* ``lex``: the matrix that is smallest in row-major binary order, found by
  deciding cells one at a time in the residual network of the optimal flow
  of sit-outs: a played cell is dropped exactly when a sit-out can be
  rerouted onto it round a zero-reduced-cost cycle, so no cell needs a
  fresh solve;
* ``random``: uniform over all profile-optimal assignments and
  deterministic for a fixed seed.  The DP of ``_optima`` counts the
  optima, replaying a seeded reservoir sampler's calls on that count gives
  the rank of the optimum it would keep, and unranking walks the days
  straight to it, so the draw is the reservoir's without its full walk.
  ``_optima``, the ``_scan`` helpers it uses and ``random`` load when the
  first random tie-break runs, so the lex path imports none of them.

Inputs need not be irreducible: :func:`solve_fair` reduces and
zero-extends the result, so removed players provably get no games.  An
irreducible input costs one column-sum pass, since ``reduce_problem`` then
returns it as is.  ``_solve_irreducible`` solves a core without that pass;
``fairplay solve``, which has reduced its sheet already, calls it directly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from fairplay import _flow
from fairplay.model import (
    Assignment,
    GVector,
    Problem,
    day_quotas,
    g_vector,
    reduce_problem,
    zero_extend,
)


class _TieBreakFields(NamedTuple):
    mode: str = "lex"
    seed: Optional[int] = None


class TieBreakPolicy(_TieBreakFields):
    """How to choose among assignments with the optimal fairness profile.

    ``lex`` is deterministic and ignores the seed; ``random`` requires one.
    The same (problem, policy) pair always yields the same assignment.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in ("lex", "random"):
            raise ValueError(f"unknown tie-break mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ValueError("random tie-break requires a seed")
        return self

    @classmethod
    def _make(cls, iterable) -> "TieBreakPolicy":  # so _replace validates too
        return cls(*iterable)

    @classmethod
    def lex(cls) -> "TieBreakPolicy":
        return cls("lex")

    @classmethod
    def seeded(cls, seed: int) -> "TieBreakPolicy":
        return cls("random", seed)


class SolveReport(NamedTuple):
    assignment: Assignment
    g_vector: GVector
    total_games: int


def solve_fair(p: Problem, tie_break: TieBreakPolicy | None = None) -> SolveReport:
    """Compute an assignment whose fairness profile is the exact
    lexicographic maximum over all feasible assignments."""
    reduced, _ = reduce_problem(p)
    report = _solve_irreducible(reduced, tie_break or TieBreakPolicy.lex())
    assignment = zero_extend(report.assignment, p, reduced)
    return SolveReport(assignment, g_vector(assignment), report.total_games)


def _solve_irreducible(core: Problem, tie_break: TieBreakPolicy) -> SolveReport:
    """:func:`solve_fair` on an irreducible problem, which it skips reducing:
    the core that ``reduce_problem`` returns, empty or not."""
    if core.is_empty:
        empty = Assignment(tuple((0,) * core.m for _ in range(core.n)))
        return SolveReport(empty, GVector(()), 0)

    quotas = day_quotas(core)
    best = _flow.solve_stage(core.avail, quotas)
    target = best.gvector

    if tie_break.mode == "lex":
        inner = _realize_lex_min(core, quotas, target, best)
    else:
        inner = _realize_random(core, quotas, target, tie_break.seed)

    return SolveReport(
        assignment=inner,
        g_vector=g_vector(inner),
        total_games=inner.total_slots() // core.group_size,
    )


def _realize_lex_min(
    reduced: Problem,
    quotas: list[int],
    target: tuple[int, ...],
    current: _flow.FlowResult,
) -> Assignment:
    """Row-major smallest matrix among those attaining the target profile.

    Walk the available cells in row-major order, preferring 0, in the
    residual network of ``current`` (an optimal flow of sit-outs, edited in
    place): ``cell_arc`` holds exactly those cells, in that order, each
    with its arc.  A played cell is dropped exactly when a sit-out can be
    rerouted onto it at unchanged cost; each decided cell is then fixed or
    forbidden in the network, so later reroutes keep it.  Cheap day
    counters settle forced/impossible cells without a search.
    """
    flow = current.residual
    # without these counters, dense sheets solve up to 2x slower (400x7, density 0.98)
    forced_per_day = [0] * reduced.m
    undecided_per_day = list(reduced.day_counts())
    matrix = [[0] * reduced.m for _ in range(reduced.n)]

    for (i, k), arc in flow.cell_arc.items():
        undecided_per_day[k] -= 1
        if forced_per_day[k] == quotas[k]:
            use = False  # quota already met, cell cannot be used
        elif forced_per_day[k] + undecided_per_day[k] < quotas[k]:
            use = True  # every remaining cell of this day is needed
        else:
            use = flow.uses(arc) and not flow.reroute(arc)
        if use:
            flow.fix(arc)
            matrix[i][k] = 1
            forced_per_day[k] += 1
        else:
            flow.forbid(arc)

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

    The full-game assignments are taken in odometer order (day 0 slowest,
    each day's subsets in lexicographic order).  A reservoir sampler over
    the optimal ones in this order calls ``randrange(j)`` on
    ``random.Random(seed)`` for the j-th of them and keeps it on 0, without
    reading the assignment.  So with N optima it keeps number J, the last j
    in 1..N whose call returns 0.  This draws the same J in three steps:
    count N (``_Optima``), replay the N calls' draws
    (``_optima._reservoir_rank``), and unrank J.  The draw is uniform over
    the optima and identical to the reservoir's for every seed, without
    walking the assignments one by one.
    """
    import random

    from fairplay._optima import _Optima, _reservoir_rank

    optima = _Optima(reduced, quotas, target)
    rank = _reservoir_rank(random.Random(seed), optima.count(0))
    assert rank > 0
    return optima.unrank(rank)
