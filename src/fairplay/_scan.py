"""Exhaustive scans over the product of per-day player subsets.

Each scan walks the full-game assignments of an irreducible problem in
odometer order: day 0 varies slowest and the last day fastest, and each
day's subsets come in lexicographic order by player index.  A leaf's index
is its position in that order, counting from 0.  Each scan folds one
statistic over the leaves and stops early once the leaf budget runs out.

Per-leaf state is maintained incrementally: a games-per-player vector and a
histogram of it, so fairness digits G_t come out of the histogram in O(1)
per threshold.

Orbit memo.  Every statistic a scan folds (the fairness profile, strong
envy-freeness, the number of envy pairs) depends only on the games vector,
and players with the same availability row and the same availability count
are interchangeable.  When the budget covers every leaf, each day's list is
the complete family of same-size subsets of that day's players (as
``oracle._combo_lists`` builds it), so a permutation of such players maps
the subtree below one node onto the subtree below another node of the same
depth.  At depths 1..m-2 the walk therefore records the games vector of
each node whose subtree it has scanned in full, sorted within classes of
interchangeable players, and skips a later node with the same record,
adding the skipped subtree's leaf count to ``scanned``.  This is exact:
every fold changes only on a leaf strictly better than all before it (a
larger profile, the first envy-free leaf, fewer envy pairs), and a skipped
subtree holds exactly the values of one scanned in full earlier, so it
holds no such leaf.  Leaf indices, first-EF and first-best choices and
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


class _OrbitMemo:
    """Fully scanned subtrees, one set per depth, keyed by the games vector
    sorted within classes of interchangeable players.

    A class is the players with the same row, read off as the days whose
    subsets mention them, and the same availability count (``avail``, or
    None where the statistic ignores it).  The class map is built at the
    first key, after the first subtree finishes, so a scan that stops inside
    its first subtree never pays for it.
    """

    def __init__(self, combos, n, budget, avail=None):
        m = len(combos)
        covers_all = math.prod(map(len, combos)) <= budget
        self.depths = range(1, min(m - 1, _KEY_DEPTH_LIMIT)) if covers_all else range(0)
        self.seen = {}  # depth -> keys of the fully scanned subtrees there
        self._combos, self._n, self._avail = combos, n, avail
        self._pending = {}
        self._offset = self._sorted_offset = None

    def _key(self, games):
        if self._offset is None:
            rows = [[] for _ in range(self._n)]
            for k, day in enumerate(self._combos):
                for i in set().union(*day):
                    rows[i].append(k)
            avail = self._avail or (None,) * self._n
            classes = {}
            self._offset = [
                classes.setdefault((tuple(row), a), len(classes)) * _KEY_DEPTH_LIMIT
                for row, a in zip(rows, avail)
            ]
            self._sorted_offset = sorted(self._offset)
        # sorting games + class offset sorts within each class; subtracting
        # the sorted offsets leaves the games counts class by class
        ranked = sorted(map(add, games, self._offset))
        return bytes(map(sub, ranked, self._sorted_offset))

    def covered(self, day, games):
        """True when this node's subtree mirrors one already scanned at its
        depth; call it only for a depth in ``seen``."""
        key = self._pending[day] = self._key(games)
        return key in self.seen[day]

    def finish(self, day, games):
        """Record this node's subtree as fully scanned."""
        key = self._pending.pop(day, None)
        self.seen.setdefault(day, set()).add(self._key(games) if key is None else key)

    def leaves(self, day):
        """Leaf count of the subtree below a node at depth ``day``."""
        return math.prod(map(len, self._combos[day:]))


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
    if m == 0 or any(not day for day in combos):
        return 0, True, None, None, _NO_LEAVES

    games = [0] * n
    cnt = [0] * (m + 2)
    cnt[0] = n
    best = [-1] * m
    best_choice = None
    best_index = _NO_LEAVES
    choice = [0] * m
    state = {"scanned": 0, "truncated": False}
    memo = _OrbitMemo(combos, n, budget)
    memo_depths, memo_seen = memo.depths, memo.seen

    def dfs(day):
        if day == m:
            if state["scanned"] >= budget:
                state["truncated"] = True
                return True
            state["scanned"] += 1
            cur = n - cnt[0]
            t = 0
            while t < m and cur == best[t]:
                t += 1
                if t < m:
                    cur -= cnt[t]
            if t < m and cur > best[t]:
                nonlocal best_choice, best_index
                g = n - cnt[0]
                for u in range(m):
                    best[u] = g
                    g -= cnt[u + 1]
                best_choice = tuple(choice)
                best_index = state["scanned"] - 1
            return False
        if day in memo_seen and memo.covered(day, games):
            state["scanned"] += memo.leaves(day)
            return False
        for ci, combo in enumerate(combos[day]):
            choice[day] = ci
            for i in combo:
                cnt[games[i]] -= 1
                games[i] += 1
                cnt[games[i]] += 1
            stop = dfs(day + 1)
            for i in combo:
                cnt[games[i]] -= 1
                games[i] -= 1
                cnt[games[i]] += 1
            if stop:
                return True
        if day in memo_depths:
            memo.finish(day, games)
        return False

    dfs(0)
    return (
        state["scanned"],
        not state["truncated"],
        tuple(best) if best_choice is not None else None,
        best_choice,
        best_index,
    )


def scan_first_ef(combos, n, avail, budget):
    """First enumerated assignment with zero strong-envy violations.

    Returns ``(scanned, conclusive, choice, index)``; ``conclusive`` is True
    when a witness was found or the whole space was covered.
    """
    m = len(combos)
    if m == 0 or any(not day for day in combos):
        return 0, True, None, _NO_LEAVES

    order, starts = _prep_envy_order(n, avail)
    games = [0] * n
    choice = [0] * m
    state = {"scanned": 0, "truncated": False, "found": None, "index": _NO_LEAVES}
    memo = _OrbitMemo(combos, n, budget, avail)
    memo_depths, memo_seen = memo.depths, memo.seen

    def dfs(day):
        if day == m:
            if state["scanned"] >= budget:
                state["truncated"] = True
                return True
            state["scanned"] += 1
            if _is_envy_free(games, order, starts):
                state["found"] = tuple(choice)
                state["index"] = state["scanned"] - 1
                return True
            return False
        if day in memo_seen and memo.covered(day, games):
            state["scanned"] += memo.leaves(day)
            return False
        for ci, combo in enumerate(combos[day]):
            choice[day] = ci
            for i in combo:
                games[i] += 1
            stop = dfs(day + 1)
            for i in combo:
                games[i] -= 1
            if stop:
                return True
        if day in memo_depths:
            memo.finish(day, games)
        return False

    dfs(0)
    conclusive = state["found"] is not None or not state["truncated"]
    return state["scanned"], conclusive, state["found"], state["index"]


def scan_verify(combos, n, avail, budget, stop_on_ef=True):
    """Scan every enumerated assignment, tracking whether any is strong-envy
    free and the minimum violation-pair count seen.

    Returns ``(scanned, conclusive, ef_found, first_ef_choice, min_envy)``.
    With ``stop_on_ef`` the scan ends at the first envy-free leaf (the
    minimum is then exactly 0).
    """
    m = len(combos)
    if m == 0 or any(not day for day in combos):
        return 0, True, False, None, _NO_LEAVES

    order, starts = _prep_envy_order(n, avail)
    games = [0] * n
    choice = [0] * m
    state = {
        "scanned": 0,
        "truncated": False,
        "ef_choice": None,
        "min_envy": n * n + 1,
    }
    memo = _OrbitMemo(combos, n, budget, avail)
    memo_depths, memo_seen = memo.depths, memo.seen

    def dfs(day):
        if day == m:
            if state["scanned"] >= budget:
                state["truncated"] = True
                return True
            state["scanned"] += 1
            cap = state["min_envy"]
            count = _count_envy_pairs(games, order, starts, cap)
            if count < cap:
                state["min_envy"] = count
                if count == 0:
                    state["ef_choice"] = tuple(choice)
                    if stop_on_ef:
                        return True
            return False
        if day in memo_seen and memo.covered(day, games):
            state["scanned"] += memo.leaves(day)
            return False
        for ci, combo in enumerate(combos[day]):
            choice[day] = ci
            for i in combo:
                games[i] += 1
            stop = dfs(day + 1)
            for i in combo:
                games[i] -= 1
            if stop:
                return True
        if day in memo_depths:
            memo.finish(day, games)
        return False

    dfs(0)
    ef_found = state["ef_choice"] is not None
    conclusive = ef_found or not state["truncated"]
    return state["scanned"], conclusive, ef_found, state["ef_choice"], state["min_envy"]
