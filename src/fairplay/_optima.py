"""The random tie-break's DP: count and unrank the profile-optimal
full-game assignments.

``_Optima`` counts the assignments that attain a target fairness profile
with a memoized day-by-day DP, and unranks one of them by walking the days
straight to it; ``solver._realize_random`` draws its rank with
:func:`_reservoir_rank`.  The DP merges
nodes with ``_scan``'s orbit key, the one the oracle's scans use, skips
every node that the fairness scan's bound shows cannot reach the target,
and counts each class of last-day nodes once, keyed by which (last-day
availability, games) classes the day before raises.

Only the random tie-break imports this module, so the lex tie-break,
``fairplay solve``'s default, loads neither it nor ``_scan``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from fairplay._scan import class_offsets, orbit_key, profile_bound
from fairplay.model import Assignment, Problem


def _reservoir_rank(rng, count):
    """The last j in 1..``count`` for which ``rng.randrange(j)`` returns 0,
    the optimum a reservoir sampler keeps, with ``rng`` left as those
    ``count`` calls leave it.  On CPython 3.10-3.13 ``randrange(j)`` draws
    ``getrandbits(j.bit_length())`` until the value is below j, so each
    run of j of one bit length replays with one draw width and no call
    overhead.  A test holds it to ``randrange`` itself."""
    getrandbits = rng.getrandbits
    rank, low = 0, 1
    while low <= count:
        bits = low.bit_length()
        high = min(2 * low, count + 1)  # the j of this bit length
        for j in range(low, high):
            r = getrandbits(bits)
            while r >= j:
                r = getrandbits(bits)
            if not r:
                rank = j
        low = high
    return rank


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
