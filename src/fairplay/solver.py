"""Exact fair solver: lexicographically maximal fairness profiles.

The optimum profile comes from one exact integer min-cost flow whose
weights encode the whole lexicographic order (see ``_flow``).  That solve
enumerates nothing, which keeps it an independent route from the
brute-force oracle.  Tie-breaking then picks one assignment among the
profile-optimal ones:

* ``lex``: the matrix that is smallest in row-major binary order, found by
  deciding cells one at a time in the optimal flow's residual network: a
  used cell is dropped exactly when the flow can be rerouted off it round a
  zero-reduced-cost cycle, so no cell needs a fresh solve;
* ``random``: uniform over all profile-optimal assignments and
  deterministic for a fixed seed.  A memoized day-by-day DP counts the
  optima, replaying a seeded reservoir sampler's calls on that count gives
  the rank of the optimum it would keep, and unranking walks the days
  straight to it, so the draw is the reservoir's without its full walk.
  The DP merges nodes with ``_scan``'s orbit key, the one the oracle's
  scans use, skips every node that the fairness scan's bound shows cannot
  reach the target, and counts each class of last-day nodes once, keyed by
  which (last-day availability, games) classes the day before raises.

Inputs need not be irreducible: :func:`solve_fair` reduces and
zero-extends the result, so removed players provably get no games.  An
irreducible input costs one column-sum pass, since ``reduce_problem`` then
returns it as is.  ``_solve_irreducible`` solves a core without that pass;
``fairplay solve``, which has reduced its sheet already, calls it directly.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

from fairplay import _flow
from fairplay._scan import class_offsets, orbit_key, profile_bound
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
    residual network of ``current`` (an optimal flow, edited in place).  A
    used cell is dropped exactly when the flow can be rerouted off it at
    unchanged cost; each decided cell is then fixed or forbidden in the
    network, so later reroutes keep it.  Cheap day counters settle
    forced/impossible cells without a search.
    """
    n, m = reduced.n, reduced.m
    flow = current.residual
    # without these counters, dense sheets solve up to 2x slower (400x7, density 0.98)
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

    The full-game assignments are taken in odometer order (day 0 slowest,
    each day's subsets in lexicographic order).  A reservoir sampler over
    the optimal ones in this order calls ``randrange(j)`` on
    ``random.Random(seed)`` for the j-th of them and keeps it on 0, without
    reading the assignment.  So with N optima it keeps number J, the last j
    in 1..N whose call returns 0.  This draws the same J in three steps:
    count N (``_Optima``), replay the N calls, and unrank J.  The draw is
    uniform over the optima and identical to the reservoir's for every seed,
    without walking the assignments one by one.
    """
    optima = _Optima(reduced, quotas, target)
    rng = random.Random(seed)
    rank = 0
    for j in range(1, optima.count(0) + 1):
        if rng.randrange(j) == 0:
            rank = j
    assert rank > 0
    return optima.unrank(rank)


def _leaf_codes(tags, m, size):
    """One code per player and games count g < m, ``1 << (shift * (tag * m
    + g))`` with ``shift`` the bit length of ``size``: summed over a subset
    of ``size`` players, the codes count its players per (tag, games) in
    fields that never carry, so two subsets' sums are equal exactly when
    they agree as a multiset of (tag, games)."""
    shift = size.bit_length()
    return [[1 << shift * (tag * m + g) for g in range(m)] for tag in tags]


class _Optima:
    """Counts and unranks the profile-optimal full-game assignments.

    ``count(day)`` is the number of optimal completions below the node at
    depth ``day`` whose games so far are ``games``.  It is a memoized DP over
    the days.  A node above the last day counts 0 when the fairness scan's
    bound, ``_scan.profile_bound``, puts its U below the target: no leaf
    below it reaches the target.  Players with the same remaining row
    ``avail[i][day:]`` are interchangeable below a node, because each day
    offers every subset of its quota size and the profile ignores
    availability, so nodes of one depth in one orbit have equal counts.  The memo key is
    ``_scan.orbit_key`` over ``_scan.class_offsets(avail, day)``, the key the
    scans' orbit memo uses, whose docstring gives the argument.

    The last day is counted in closed form.  A leaf attains the target
    exactly when T_v players end with v games, T being the target's
    multiset.  Of the a_v last-day players and b_v others with v games, the
    number c_v the day raises to v + 1 is then forced: with c_{-1} = 0,
    c_v = b_v + a_v + c_{v-1} - T_v.  The node counts the product of
    C(a_v, c_v), or 0 unless every 0 <= c_v <= a_v; since no player has m
    games before the last day, a_m = 0 makes the last c 0, and the c_v sum
    to the day's quota.

    That count reads only the multiset of (last-day availability, games)
    over the players, so below a node at depth m-2 two subsets of day m-2
    whose players agree as a multiset of (last-day availability, games)
    lead to equal counts.  ``_count_second_last_day`` counts each such
    class once, keyed by :func:`_leaf_codes`; the argument is the one for
    the envy scan's class representatives in the ``_scan`` docstring.  The
    cache lives inside one memoized node and leaves the memo as it is.
    """

    def __init__(self, reduced: Problem, quotas: list[int], target: tuple[int, ...]):
        n, m = reduced.n, reduced.m
        self.n, self.m = n, m
        self.day_combos = [
            list(combinations([i for i in range(n) if reduced.avail[i][k]], quotas[k]))
            for k in range(m)
        ]
        short = [*target[:-1], target[-1] - 1]  # U < target iff U <= short
        self.hopeless = profile_bound(self.day_combos, n, short)
        self.offsets = [class_offsets(reduced.avail, k) for k in range(m - 1)]
        self.memo: list[dict[tuple[int, ...], int]] = [{} for _ in range(m - 1)]
        self.games = [0] * n
        # wanted[v]: players the target leaves with exactly v games
        at_least = (n, *target, 0)
        self.wanted = [at_least[v] - at_least[v + 1] for v in range(m + 1)]
        self.leaf = [v for v, count in enumerate(self.wanted) for _ in range(count)]
        self.last_avail = [row[m - 1] for row in reduced.avail]
        if m > 1:
            self.codes = _leaf_codes(self.last_avail, m, quotas[m - 2])

    def _count_last_day(self) -> int:
        on = [0] * (self.m + 1)  # a_v
        total = [0] * (self.m + 1)  # a_v + b_v
        for g, available in zip(self.games, self.last_avail):
            total[g] += 1
            on[g] += available
        found = 1
        raised = 0
        for a, count, want in zip(on, total, self.wanted):
            raised = count + raised - want
            if not 0 <= raised <= a:
                return 0
            found *= comb(a, raised)
        return found

    def count(self, day: int) -> int:
        if day == self.m:
            return int(sorted(self.games) == self.leaf)
        if day == self.m - 1:
            return self._count_last_day()
        games = self.games
        key = orbit_key(games, self.offsets[day])
        found = self.memo[day].get(key)
        if found is None:
            found = 0
            if not self.hopeless(games, day):
                if day == self.m - 2:
                    found = self._count_second_last_day()
                else:
                    for combo in self.day_combos[day]:
                        for i in combo:
                            games[i] += 1
                        found += self.count(day + 1)
                        for i in combo:
                            games[i] -= 1
            self.memo[day][key] = found
        return found

    def _count_second_last_day(self) -> int:
        """``count(m - 2)`` with a leaf cache: children whose chosen players
        agree as a multiset of (last-day availability, games) have equal
        closed-form counts, so each such class is counted once."""
        games, codes = self.games, self.codes
        below = {}  # leaf key -> the closed-form count of its last-day node
        found = 0
        for combo in self.day_combos[self.m - 2]:
            leaf_key = sum([codes[i][games[i]] for i in combo])
            count = below.get(leaf_key)
            if count is None:
                for i in combo:
                    games[i] += 1
                count = below[leaf_key] = self._count_last_day()
                for i in combo:
                    games[i] -= 1
            found += count
        return found

    def unrank(self, rank: int) -> Assignment:
        """The ``rank``-th optimal assignment, counting from 1: walk the days
        from the root, skipping each child whose count lies before it."""
        games = self.games
        matrix = [[0] * self.m for _ in range(self.n)]
        for day, combos in enumerate(self.day_combos):
            for combo in combos:
                for i in combo:
                    games[i] += 1
                below = self.count(day + 1)
                if rank <= below:
                    break
                rank -= below
                for i in combo:
                    games[i] -= 1
            for i in combo:
                matrix[i][day] = 1
        return Assignment(tuple(tuple(row) for row in matrix))
