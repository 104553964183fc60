"""Exhaustive scans over the product of per-day player subsets.

Each scan walks the full-game assignments of an irreducible problem in
odometer order: day 0 varies slowest and the last day fastest, and each
day's subsets come in lexicographic order by player index.  A leaf's index
is its position in that order, counting from 0.  Each scan folds one
statistic over the leaves and stops early once the leaf budget runs out.

One walk, :func:`_walk`, serves every scan.  It steps through days
0..m-2, keeping a games-per-player vector, the subset chosen on each day
and the number of leaves covered so far.  Each node at the last day is
handed to the scan's fold, ``fold(games, choice, index, limit)``: ``games``
and ``choice`` hold days 0..m-2, ``index`` is the index of the node's first
leaf, and the fold scans that day's first ``limit`` subsets (fewer than
all of them only when the budget runs out inside the node).  It returns
the position where it stopped, or -1 to go on.

Orbit memo.  Every statistic a scan folds (the fairness profile, strong
envy-freeness, the number of envy pairs) depends only on the games vector,
and players with the same availability row and the same availability count
are interchangeable.  When the budget covers every leaf, each day's list is
the complete family of same-size subsets of that day's players (as
``oracle._efficient_lists`` builds it), so a permutation of such players
maps the subtree below one node onto the subtree below another node of the
same depth.  At depths 1..m-2 the walk therefore records the games vector
of each node whose subtree it has scanned in full, sorted within classes of
interchangeable players, and skips a later node with the same record,
adding the skipped subtree's leaf count to the leaves covered.  This is
exact: every fold changes only on a leaf strictly better than all before
it (a larger profile, the first envy-free leaf, fewer envy pairs), and a
skipped subtree holds exactly the values of one scanned in full earlier, so
it holds no such leaf.  Leaf indices, first-EF and first-best choices and
``min_envy`` are those of the plain walk; only the time differs.  A budget
below the leaf count turns the memo off: the scan must stop after exactly
``budget`` leaves, and its lists may be truncated, which breaks the
symmetry.
"""

from __future__ import annotations

import math
from operator import add, sub

_NO_LEAVES = -1

# A memo key packs games counts as bytes, and games at depth d are at most d.
_KEY_DEPTH_LIMIT = 256


def _walk(combos, n, budget, avail, fold):
    """Walk the odometer over ``combos`` and hand each last-day node to
    ``fold``; returns ``(scanned, stopped)``.

    ``stopped`` is True when the fold stopped the walk, which counts the leaf
    it stopped at, or when the budget ran out with a leaf left unscanned.
    ``avail`` splits the memo's classes of interchangeable players
    by availability count, or is None where the statistic ignores it.
    """
    m = len(combos)
    if m == 0 or not all(combos):
        return 0, False
    last = m - 1
    width = len(combos[last])
    games = [0] * n
    choice = [0] * m
    covers_all = math.prod(map(len, combos)) <= budget
    depths = range(1, min(last, _KEY_DEPTH_LIMIT)) if covers_all else range(0)
    seen = {}  # depth -> keys of the fully scanned subtrees there
    offset = sorted_offset = None
    scanned = 0

    def key():
        # The class map is built at the first key, after the first subtree
        # finishes, so a scan that stops inside it never pays for it.
        nonlocal offset, sorted_offset
        if offset is None:
            rows = [[] for _ in range(n)]
            for k, day in enumerate(combos):
                for i in set().union(*day):
                    rows[i].append(k)
            classes = {}
            offset = [
                classes.setdefault((tuple(row), a), len(classes)) * _KEY_DEPTH_LIMIT
                for row, a in zip(rows, avail or (None,) * n)
            ]
            sorted_offset = sorted(offset)
        # sorting games + class offset sorts within each class; subtracting
        # the sorted offsets leaves the games counts class by class
        return bytes(map(sub, sorted(map(add, games, offset)), sorted_offset))

    def node(day):
        nonlocal scanned
        k = None
        if day in seen:
            k = key()
            if k in seen[day]:
                scanned += math.prod(map(len, combos[day:]))
                return False
        if day == last:
            limit = min(width, budget - scanned)
            stop = fold(games, choice, scanned, limit)
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
        if day in depths:
            seen.setdefault(day, set()).add(key() if k is None else k)
        return False

    stopped = node(0)  # before reading scanned, which node() advances
    return scanned, stopped


def _prep_envy_order(n, avail):
    """Player indices sorted by availability descending (stable), plus the
    start offset of each equal-availability block."""
    order = sorted(range(n), key=lambda i: (-avail[i], i))
    starts = []
    for pos in range(n):
        if pos == 0 or avail[order[pos]] != avail[order[pos - 1]]:
            starts.append(pos)
    starts.append(n)
    return order, starts


def _is_envy_free(games, order, starts):
    min_higher = None
    for b in range(len(starts) - 1):
        lo, hi = starts[b], starts[b + 1]
        if min_higher is not None:
            for q in range(lo, hi):
                if games[order[q]] > min_higher:
                    return False
        for q in range(lo, hi):
            g = games[order[q]]
            if min_higher is None or g < min_higher:
                min_higher = g
    return True


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


def scan_fair(combos, n, budget):
    """Lexicographically maximal fairness profile over all enumerated
    assignments, plus the first leaf attaining it.

    Returns ``(scanned, complete, best_g, best_choice, best_index)`` where
    ``best_choice`` holds one subset index per day and ``complete`` is False
    iff the leaf budget ran out first.
    """
    m = len(combos)
    last = combos[-1] if combos else ()
    best = [-1] * m
    best_choice = None
    best_index = _NO_LEAVES

    def fold(games, choice, index, limit):
        nonlocal best_choice, best_index
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
                best_index = index + pos
            for i in combo:
                cnt[games[i] + 1] -= 1
                cnt[games[i]] += 1
        return -1

    scanned, stopped = _walk(combos, n, budget, None, fold)
    best_g = tuple(best) if best_choice is not None else None
    return scanned, not stopped, best_g, best_choice, best_index


def scan_first_ef(combos, n, avail, budget):
    """First enumerated assignment with zero strong-envy violations.

    Returns ``(scanned, conclusive, choice, index)``; ``conclusive`` is True
    when a witness was found or the whole space was covered.
    """
    last = combos[-1] if combos else ()
    order, starts = _prep_envy_order(n, avail)
    found = None
    found_index = _NO_LEAVES

    def fold(games, choice, index, limit):
        nonlocal found, found_index
        for pos in range(limit):
            combo = last[pos]
            for i in combo:
                games[i] += 1
            envy_free = _is_envy_free(games, order, starts)
            for i in combo:
                games[i] -= 1
            if envy_free:
                choice[-1] = pos
                found, found_index = tuple(choice), index + pos
                return pos
        return -1

    scanned, stopped = _walk(combos, n, budget, avail, fold)
    return scanned, found is not None or not stopped, found, found_index


def scan_verify(combos, n, avail, budget, stop_on_ef=True):
    """Scan every enumerated assignment, tracking whether any is strong-envy
    free and the minimum violation-pair count seen.

    Returns ``(scanned, conclusive, ef_found, first_ef_choice, min_envy)``.
    With ``stop_on_ef`` the scan ends at the first envy-free leaf (the
    minimum is then exactly 0).
    """
    if not combos or not all(combos):
        return 0, True, False, None, _NO_LEAVES
    last = combos[-1]
    order, starts = _prep_envy_order(n, avail)
    ef_choice = None
    min_envy = n * n + 1

    def fold(games, choice, index, limit):
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
                    if stop_on_ef:
                        return pos
        return -1

    scanned, stopped = _walk(combos, n, budget, avail, fold)
    ef_found = ef_choice is not None
    return scanned, ef_found or not stopped, ef_found, ef_choice, min_envy
