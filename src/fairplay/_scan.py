"""Exhaustive scans over the product of per-day player subsets.

Each scan walks the full-game assignments of an irreducible problem in
odometer order: day 0 varies slowest and the last day fastest, and each
day's subsets come in lexicographic order by player index.  Each scan
folds one statistic over the leaves and stops early once the leaf budget
runs out.

One walk, :func:`_walk`, serves every scan.  It steps through days
0..m-2, keeping a games-per-player vector, the subset chosen on each day
and the number of leaves covered so far.  Each node at the last day is
handed to the scan's fold, ``fold(games, choice, limit)``: ``games`` and
``choice`` hold days 0..m-2, and the fold scans that day's first ``limit``
subsets (fewer than all of them only when the budget runs out inside the
node).  No leaf index is passed; a fold that needs a leaf records its
choice.  It returns the position where it stopped, or -1 to go on.

Every scan takes the problem's 0/1 availability ``rows`` next to its day
lists, and reads each day's players and each player's availability count
(the row's sum) from them alone.

Orbit memo.  Below a node at depth d, players i and j are interchangeable
when they share the remaining row ``rows[i][d:]``, so that each of days
d..m-1 offers both of them or neither, and the availability count.  Every
walk splits its classes by that count: the envy statistics read it, and
for the fairness profile, which ignores it, the split only makes the
classes finer.  When each of those days' lists is the complete family of
same-size subsets of the day's players, a transposition of two
class-mates maps every such family onto itself, so it maps the subtree
below a node, leaf for leaf, onto the subtree below the node whose games
vector has their counts swapped.  Every statistic a scan folds (the
fairness profile, strong envy-freeness, the number of envy pairs) reads
only the games vector and the availability counts, so it is invariant
under the transposition.  Two nodes of one depth whose games vectors
agree after sorting within classes therefore hold the same values below
them; :func:`orbit_key` is that sorted vector and :func:`class_offsets`
marks the classes, for any number of days.  The random tie-break's DP
(``_optima._Optima``) keys its memo the same way, without the count,
since the profile it counts ignores availability.

Class representatives.  The same argument inside one last-day node: tag
each of the day's a players, those whose row offers the last day, with
its class, (availability count, games so far).  Two leaves that take as
many players of each class, the same class vector, are mapped onto each
other by a permutation within the classes, which keeps every availability
count, so they have equal envy counts, whether or not the day's list is a
complete family.  A class vector's least leaf in ``combinations`` order
takes each class's first members, so the envy scan counts only these
representatives.  It walks the day's players in index order, trying
"take" before "skip", takes a player only while no earlier member of its
class was skipped, and prunes when fewer players are still takeable than
the quota q has left: so it meets each class vector once, in increasing
rank.  Skipping position v after taking j players passes over the
C(a-1-v, q-1-j) leaves that take v (the combinatorial number system;
Knuth, TAOCP 7.2.1.3), which keeps the rank.  The first envy-free leaf
represents its class, so the first envy-free representative is the plain
fold's stop, and the minimum over representatives is its ``min_envy``.  A
budget cut inside a node ends the walk at the first rank that reaches the
limit: a leaf below the limit has its representative below it too.  The
scan folds representatives only when the last day offers more subsets
than there are players, and otherwise keeps the plain fold: with few
subsets per node few leaves share a class, and the walk costs more than
the counts it saves.  Folding representatives on every scan made the
envy scans of the benchmark's oracle-crosscheck workload, 200 mid-size
instances of which 110 have a last day offering at most n subsets, about
45% slower: 0.027 s against 0.037 s at best of 30 (2 vCPUs, Python
3.11).  ``_optima._Optima`` caches the closed-form counts below every
depth m-2 node by the same argument.

A representative's envy count is built along the walk, not recounted.  A
leaf differs from its node only in its q chosen day players, one game up
each, and every pair of players with unequal availability falls in one of
three parts.  The node's ``base``: the pairs among the players off the
day, plus each day player's pairs with them when it is skipped.  The day
player's ``delta``: how many more of those pairs it has when it is taken.
The ``cross`` pairs: two day players of unequal availability, read at the
leaf's games.  Base and delta depend only on the node's games and a day
player's class, so each class's part is counted once per node.  The walk
carries base plus the deltas of the players it takes, and each leaf adds
its cross pairs (:func:`_leaf_envy`).  Day players of equal availability
never form a pair, so the count is exact, with no cap, and a leaf costs
O(1 + |cross|) where the full count costs O(n^2).  ``cross`` is empty on
the witnesses, whose day players all have availability 3.

Budget rule.  ``oracle._efficient_lists`` truncates only a prefix of days,
so days d..m-1 are complete exactly when the leaves below a depth-d node
fit in the budget, and the walk memoizes depth d (for 0 < d < m-1, when
the depth has more than one node) just then.  It records the key of each
node whose subtree it has scanned in full and skips a later node of the
same depth with a recorded key.  The skip covers
``min(subtree, budget - scanned)`` leaves and ends the walk when the
budget cuts it.  This is exact: every fold changes only on a leaf
strictly better than all before it (a larger profile, fewer envy pairs,
the first envy-free leaf), and a skipped subtree, or any prefix of it,
holds only values of a subtree scanned in full earlier, so it holds no
such leaf.  Leaf counts, first-EF and first-best choices, and
``min_envy`` are those of the plain walk; only the time differs.

Bound rule.  The fairness scan also hands the walk a predicate that skips
every node below which no leaf can beat the best profile so far (branch
and bound, Land & Doig 1960).  At a depth-d node with games vector h, let
r_i be the number of days d..m-1 that offer player i, read from its row,
and Q the players those days seat.  Player i's candidate units are its
games h_i + 1, ..., h_i + r_i, and unit s adds 1 to G_s, the number of
players with at least s games.  A leaf below the node adds Q of these
units to the node's profile, so no leaf beats U, the node's profile plus
the Q units of lowest number: taking them maximizes G_1, then G_2, and so
on.  At depth m-1, U is the node's best leaf whenever that day's list is
the complete family of same-size subsets.  A list cut by the budget holds
fewer leaves but the same r_i, so U stays above every leaf it holds.
:func:`profile_bound` alone computes U, in O(n m), and tests U <= T for a
target T that its caller may change.  The walk skips a node when U is at
most the best profile so far; a tie may be skipped, since the fold
changes only on a strictly better leaf.  A skip counts ``min(subtree,
budget - scanned)`` leaves and ends the walk when the budget cuts it, as
a memo skip does, so leaf counts and the first best choice stay those of
the plain walk.  For the memo, a subtree whose parts the bound skipped
still counts as scanned in full: those parts hold no leaf better than the
best before them.  ``_optima._Optima`` drops a node with U < T, for
integer vectors U <= T with 1 off its last entry.  The bound only counts
players and units, so it shares no code with the flow.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from operator import add

_NO_LEAVES = -1


def class_offsets(rows, depth, tags=None):
    """One offset per player at ``depth``: equal for players that share
    ``rows[i][depth:]`` (and ``tags[i]``, when given), and at least m + 1
    apart between classes, so that adding it to a games count at that
    depth (at most m) keeps the classes apart."""
    spacing = len(rows[0]) + 1 if rows else 1
    classes = {}
    return [
        classes.setdefault((row[depth:], tag), len(classes)) * spacing
        for row, tag in zip(rows, tags or repeat(None))
    ]


def orbit_key(games, offsets):
    """The games vector sorted within the classes of one depth's
    ``offsets``, as a tuple: equal exactly for nodes in one orbit."""
    return tuple(sorted(map(add, games, offsets)))


def _walk(combos, rows, budget, fold, bound=None):
    """Walk the odometer over ``combos``, the day lists of the problem
    whose availability rows are ``rows``, and hand each last-day node to
    ``fold``; returns ``(scanned, stopped)``.

    ``stopped`` is True when the fold stopped the walk, which counts the leaf
    it stopped at, or when the budget ran out with a leaf left unscanned.
    ``bound(games, day)``, when given, is True for a node whose subtree
    cannot change the fold, which the walk then skips.
    """
    m = len(combos)
    if m == 0 or not all(combos):
        return 0, False
    last = m - 1
    width = len(combos[last])
    below = [1] * (m + 1)  # below[d]: leaves under a node at depth d
    for d in range(last, -1, -1):
        below[d] = below[d + 1] * len(combos[d])
    # depths with more than one node, whose subtrees fit in the budget
    depths = {d for d in range(1, last) if below[d] < below[0] and below[d] <= budget}
    # depth -> (its class offsets, keys of the subtrees scanned in full),
    # from the first such subtree on: a scan that stops inside it, as most
    # tiny ones do, never pays for the classes
    seen = {}
    games = [0] * len(rows)
    choice = [0] * m
    scanned = 0

    def skip(day):
        """Count a skipped subtree's leaves, up to the budget; True when the
        budget cuts it."""
        nonlocal scanned
        covered = min(below[day], budget - scanned)
        scanned += covered
        return covered < below[day]

    def node(day):
        nonlocal scanned
        if bound is not None and bound(games, day):
            return skip(day)
        memo = seen.get(day)
        if memo is not None:
            key = orbit_key(games, memo[0])
            if key in memo[1]:
                return skip(day)
        if day == last:
            limit = min(width, budget - scanned)
            stop = fold(games, choice, limit)
            if stop >= 0:
                scanned += stop + 1
                return True
            scanned += limit
            if limit < width:
                return True
        else:
            for ci, combo in enumerate(combos[day]):
                choice[day] = ci
                for i in combo:
                    games[i] += 1
                stop = node(day + 1)
                for i in combo:
                    games[i] -= 1
                if stop:
                    return True
        if memo is not None:
            memo[1].add(key)
        elif day in depths:  # classes split by availability count, the row sums
            offsets = class_offsets(rows, day, list(map(sum, rows)))
            seen[day] = offsets, {orbit_key(games, offsets)}
        return False

    stopped = node(0)  # before reading scanned, which node() advances
    return scanned, stopped


def _prep_envy_order(n, avail):
    """Player indices sorted by availability descending, ties by index (the
    sort is stable under ``reverse``), plus the start offset of each
    equal-availability block."""
    order = sorted(range(n), key=avail.__getitem__, reverse=True)
    starts = []
    for pos in range(n):
        if pos == 0 or avail[order[pos]] != avail[order[pos - 1]]:
            starts.append(pos)
    starts.append(n)
    return order, starts


def _count_envy_pairs(games, order, starts, cap):
    """Number of (higher-availability, fewer-games) violations, counting no
    further than ``cap`` (enough to know the leaf cannot beat the minimum)."""
    count = 0
    nblocks = len(starts) - 1
    for b_hi in range(nblocks - 1):
        for p in range(starts[b_hi], starts[b_hi + 1]):
            gp = games[order[p]]
            for q in range(starts[b_hi + 1], starts[-1]):
                if gp < games[order[q]]:
                    count += 1
                    if count >= cap:
                        return count
    return count


def _leaf_envy(games, count, cross):
    """Envy pairs at a representative leaf: ``count``, those with a player
    off the last day, plus the ``cross`` pairs ``(higher, lower)`` of the
    day's players of unequal availability that the leaf's ``games`` make
    envy pairs."""
    for h, l in cross:
        if games[h] < games[l]:
            count += 1
    return count


def profile_bound(combos, rows, target):
    """``bound(games, day)`` for the odometer over ``combos``, the day lists
    of the problem whose availability rows are ``rows``: True when U, the
    bound rule's profile at a depth-``day`` node, is at most ``target``, a
    list the caller owns and may change between calls."""
    n = len(rows)
    # reach[d][i]: days d..m-1 that offer player i
    reach = [[sum(row[d:]) for row in rows] for d in range(len(combos) + 1)]
    left = [0]  # left[d]: the players days d..m-1 seat
    for subsets in reversed(combos):
        left.append(left[-1] + (len(subsets[0]) if subsets else 0))
    left.reverse()

    def bound(games, day):
        # U of the bound rule, compared with target one entry at a time;
        # the units t + 1 raise players from t games, so they add to entry t
        most = list(map(add, games, reach[day]))  # the games each can reach
        units = left[day]
        low = capped = 0
        for t, want in enumerate(target):
            low += games.count(t)  # players with t games or fewer
            capped += most.count(t)  # those of them that cannot reach t + 1
            take = low - capped  # the units t + 1 taken, as far as they go
            if take > units:
                take = units
            units -= take
            u = n - low + take
            if u != want:
                return u < want
        return True

    return bound


def scan_fair(combos, rows, budget):
    """Lexicographically maximal fairness profile over all enumerated
    assignments, ``combos`` over the availability ``rows``, plus the first
    leaf attaining it.

    Returns ``(scanned, complete, best_g, best_choice)`` where
    ``best_choice`` holds one subset index per day and ``complete`` is False
    iff the leaf budget ran out first.
    """
    n, m = len(rows), len(combos)
    last = combos[-1] if combos else ()
    best = [-1] * m
    best_choice = None

    def fold(games, choice, limit):
        nonlocal best_choice
        # cnt[t] players have t games, so G_t comes out in O(1) per threshold
        cnt = [0] * (m + 2)
        for g in games:
            cnt[g] += 1
        for pos in range(limit):
            combo = last[pos]
            for i in combo:
                cnt[games[i]] -= 1
                cnt[games[i] + 1] += 1
            cur = n - cnt[0]
            t = 0
            while t < m and cur == best[t]:
                t += 1
                if t < m:
                    cur -= cnt[t]
            if t < m and cur > best[t]:
                g = n - cnt[0]
                for u in range(m):
                    best[u] = g
                    g -= cnt[u + 1]
                choice[-1] = pos
                best_choice = tuple(choice)
            for i in combo:
                cnt[games[i] + 1] -= 1
                cnt[games[i]] += 1
        return -1

    bound = profile_bound(combos, rows, best)
    scanned, stopped = _walk(combos, rows, budget, fold, bound)
    best_g = tuple(best) if best_choice is not None else None
    return scanned, not stopped, best_g, best_choice


def scan_verify(combos, rows, budget):
    """Scan the enumerated assignments, ``combos`` over the availability
    ``rows``, for the first one with no strong-envy violation, tracking the
    minimum violation-pair count seen.

    Returns ``(scanned, conclusive, first_ef_choice, min_envy)``.
    The scan ends at the first envy-free leaf, which it counts, so that
    leaf is number ``scanned`` in odometer order and ``min_envy`` is 0;
    ``conclusive`` is True when one was found or every leaf was covered.
    A skipped subtree holds no envy-free leaf and counts against the budget
    like scanned leaves, so the scan finds one exactly when the first in
    odometer order lies within ``budget`` leaves.
    """
    if not combos or not all(combos):
        return 0, True, None, _NO_LEAVES
    n, last = len(rows), combos[-1]
    avail = list(map(sum, rows))
    order, starts = _prep_envy_order(n, avail)
    ef_choice = None
    min_envy = n * n + 1

    def fold(games, choice, limit):
        nonlocal ef_choice, min_envy
        for pos in range(limit):
            combo = last[pos]
            for i in combo:
                games[i] += 1
            count = _count_envy_pairs(games, order, starts, min_envy)
            for i in combo:
                games[i] -= 1
            if count < min_envy:
                min_envy = count
                if count == 0:
                    choice[-1] = pos
                    ef_choice = tuple(choice)
                    return pos
        return -1

    def representative_fold(games, choice, limit):
        tags = [games[p] + t for p, t in zip(players, tier)]  # the classes
        rest = [tags[v:].count(tags[v]) for v in range(a)]  # class-mates from v on
        # the envy count's node part (see the module docstring): the players
        # off the day, whose games it leaves alone, by (availability, games)
        off = {}
        for key in zip(off_avail, map(games.__getitem__, others)):
            off[key] = off.get(key, 0) + 1
        off = off.items()

        def pairs(av, g):
            # an (av, g) day player's pairs with the players off the day when
            # skipped, and how many more it has when taken, at g + 1
            skip = step = 0
            for (oa, og), c in off:
                if oa > av:
                    if og < g:
                        skip += c
                    elif og == g:
                        step += c
                elif oa < av and og > g:
                    skip += c
                    if og == g + 1:
                        step -= c
            return skip, step

        base = sum(c * d for (oa, og), c in off for (pa, pg), d in off if oa > pa and og < pg)
        by_class = {}  # tag -> pairs(its availability, its games)
        for p, tag in zip(players, tags):
            if tag not in by_class:
                by_class[tag] = pairs(avail[p], games[p])
            base += by_class[tag][0]
        delta = [by_class[tag][1] for tag in tags]
        skipped = set()

        def visit(v, taken, rank, takeable, envy):
            # takeable, the players from v on whose class has no skipped
            # member, is at least q - taken; envy is base plus the deltas
            # of the players taken; returns a stop rank, -1 once the ranks
            # reach the limit, or None to go on
            nonlocal ef_choice, min_envy
            if rank >= limit:
                return -1
            if taken == q:
                count = _leaf_envy(games, envy, cross)
                if count < min_envy:
                    min_envy = count
                    if count == 0:
                        choice[-1] = rank
                        ef_choice = tuple(choice)
                        return rank
                return None
            tag = tags[v]
            if tag in skipped:
                return visit(v + 1, taken, rank + jump[v][taken], takeable, envy)
            games[players[v]] += 1
            stop = visit(v + 1, taken + 1, rank, takeable - 1, envy + delta[v])
            games[players[v]] -= 1
            if stop is not None or takeable - rest[v] < q - taken:
                return stop
            skipped.add(tag)
            stop = visit(v + 1, taken, rank + jump[v][taken], takeable - rest[v], envy)
            skipped.discard(tag)
            return stop

        stop = visit(0, 0, 0, a, base)
        return -1 if stop is None else stop

    if len(last) > n:  # the representatives' speed rule, see the module docstring
        players = [i for i, row in enumerate(rows) if row[-1]]
        a, q = len(players), len(last[0])
        tier = [avail[p] * len(combos) for p in players]  # games < m here
        # jump[v][j]: the leaves that take position v after j others
        jump = [[comb(a - 1 - v, q - 1 - j) for j in range(q)] for v in range(a)]
        others = [i for i, row in enumerate(rows) if not row[-1]]
        off_avail = [avail[i] for i in others]
        # the day's pairs of players of unequal availability, higher first
        cross = [
            (h, l) if avail[h] > avail[l] else (l, h)
            for v, h in enumerate(players)
            for l in players[v + 1:]
            if avail[h] != avail[l]
        ]
        fold = representative_fold
    scanned, stopped = _walk(combos, rows, budget, fold)
    return scanned, ef_choice is not None or not stopped, ef_choice, min_envy
