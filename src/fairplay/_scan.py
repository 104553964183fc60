"""Exhaustive scans over the product of per-day player subsets.

Each scan walks the full-game assignments of an irreducible problem in
odometer order: day 0 varies slowest and the last day fastest, and each
day's subsets come in lexicographic order by player index.  A leaf's index
is its position in that order, counting from 0.  Each scan folds one
statistic over the leaves and stops early once the leaf budget runs out.

Per-leaf state is maintained incrementally: a games-per-player vector and a
histogram of it, so fairness digits G_t come out of the histogram in O(1)
per threshold.
"""

from __future__ import annotations

_NO_LEAVES = -1


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
        for ci, combo in enumerate(combos[day]):
            choice[day] = ci
            for i in combo:
                games[i] += 1
            stop = dfs(day + 1)
            for i in combo:
                games[i] -= 1
            if stop:
                return True
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
        for ci, combo in enumerate(combos[day]):
            choice[day] = ci
            for i in combo:
                games[i] += 1
            stop = dfs(day + 1)
            for i in combo:
                games[i] -= 1
            if stop:
                return True
        return False

    dfs(0)
    ef_found = state["ef_choice"] is not None
    conclusive = ef_found or not state["truncated"]
    return state["scanned"], conclusive, ef_found, state["ef_choice"], state["min_envy"]
