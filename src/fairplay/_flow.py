"""Exact min-cost-flow engine behind the fair solver.

A player's j-th game pays (n+1)^(m-j), so the profile (G_1, ..., G_m) of a
full-game assignment, read as a base-(n+1) number, is the total reward of
its games.  Every full-game assignment plays floor(c_k/g) games on a day
with c_k available players, so it is fixed by who sits out, c_k mod g
players a day.  A player who sits out s of a available days keeps games
1..a - s: the reward of all a less that of the s games the sit-outs lose.
A min-cost flow of the sit-outs, each costing the reward of the game it
takes away, therefore maximizes the whole profile lexicographically.  That
cost grows as a player's games fall, so it is convex, and one arc to the
sink priced at the marginal cost carries it (Ahuja, Magnanti & Orlin,
*Network Flows*, 1993, chapter 14): for a player with g games it costs
(n+1)^(m-g), the last game's reward, and its reverse costs -(n+1)^(m-g-1),
the reward of the game one sit-out fewer gives back.  The costs move one
game along whenever a unit crosses the arc.  This is exact: of a parallel
unit arcs, one per sit-out, with distinct costs, only the cheapest unused
one and the reverse of the last used one can have the least reduced cost,
so no other ever lies on a shortest path, a zero-reduced-cost path or a
cycle of :meth:`Residual.reroute`, and their reduced costs stay >= 0
whenever these two arcs' do.

Costs are Python integers, so the big lexicographic weights are exact.  The
solve is primal-dual (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
section 9.8): successive shortest paths with node potentials (Tomizawa 1971;
Edmonds & Karp 1972), taken a distance level at a time.  Each phase runs
one Dijkstra on reduced costs ``cost(u, v) + pi[u] - pi[v]`` and adds each
node's distance to its potential, which keeps every residual reduced cost
>= 0 and brings it to 0 on every shortest path.  A DFS then pushes one unit
along each source -> sink path of zero-reduced-cost arcs it finds.  Such a
path costs ``pi[sink] - pi[source]``, the least any path can, so each unit
is a shortest augmenting path and the flow stays min-cost for its value.
A push opens only the reverses of arcs of reduced cost 0, whose reduced
cost is 0 as well, and moves a sink arc's costs one game along, which
makes the direction just crossed dearer, so the potentials stay valid
through the phase and after it.  Phases repeat until every sit-out is
routed.  Before any push only the sink arcs cost anything, so potentials
of 0, the sink's at the cheapest first sit-out, are valid without a
Bellman-Ford pass, and the first phase needs no Dijkstra.

The solved network is handed back as a :class:`Residual` that the lex
tie-break edits cell by cell.  An optimal flow can use an arc exactly when
the residual graph has a zero-reduced-cost cycle through that arc (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993), and pushing one unit round such a
cycle keeps the flow optimal and the potentials valid.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import NamedTuple, Optional, Sequence


class Residual:
    """Residual network of a min-cost flow, with node potentials.

    Arc ``e`` and its reverse ``e ^ 1`` are stored side by side.  Each
    available cell ``(player, day)`` is one unit arc from its day node to its
    player node that carries the player's sit-out; closing an arc (capacity
    0) pins the cell's current state.  ``cell_arc`` maps each cell to its
    arc in row-major order, and :meth:`uses`, :meth:`fix`, :meth:`forbid`
    and :meth:`reroute` take that arc.  Arcs from ``gain0`` on are the
    players' marginal-cost arcs to the sink: for a player with a available
    days and g games the arc has capacity g and costs base^(m-g), the last
    game's reward, and its reverse has capacity a - g and costs
    -base^(m-g-1), the next game's.  With no game, or no sit-out, one
    direction has capacity 0 and no game to price; nothing reads its cost.
    """

    def __init__(self, nodes: int, base: int):
        self.head: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.pi = [0] * nodes
        self.cell_arc: dict[tuple[int, int], int] = {}
        self.base = base
        self.gain0 = sys.maxsize  # no sink arcs until the builder adds them

    def add(self, u: int, v: int, cap: int, cost: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return idx

    def _push(self, e: int) -> None:
        cap, cost = self.cap, self.cost
        cap[e] -= 1
        cap[e ^ 1] += 1
        if e >= self.gain0:  # a sink arc: move its costs one game along
            c = cost[e]
            cost[e ^ 1] = -c
            # a sit-out more loses a game base times dearer; one fewer, less
            cost[e] = c // self.base if c < 0 else c * self.base

    def uses(self, arc: int) -> bool:
        """Whether the cell of a cell arc not yet fixed or forbidden is
        played, not sat out."""
        return self.cap[arc] > 0

    def fix(self, arc: int) -> None:
        """Keep a played cell in every later flow: close its arc to sit-outs."""
        self.cap[arc] = 0

    def forbid(self, arc: int) -> None:
        """Keep a sat-out cell out of every later flow: close its reverse arc."""
        self.cap[arc ^ 1] = 0

    def reroute(self, arc: int) -> bool:
        """Move a sit-out onto the played cell of a cell arc at unchanged
        cost, if possible.

        Looks for a cycle through the arc (day -> player) whose arcs all
        have reduced cost 0; pushes one unit round it and returns True, or
        returns False and leaves the flow as it was.  The arc's own reduced
        cost is checked first, and not only to save the search: a
        zero-reduced-cost path player -> day costs pi[day] - pi[player],
        which is exactly the arc's reduced cost, so when that is positive
        the cycle the search would find costs as much and pushing it would
        lose profile.  Such paths occur (``test_solver`` pins a 5x4 sheet).
        """
        to, cap, cost, pi, head = self.to, self.cap, self.cost, self.pi, self.head
        day, player = to[arc ^ 1], to[arc]
        if cost[arc] + pi[day] - pi[player]:
            return False
        # Search player -> day over zero-reduced-cost residual arcs.  The
        # search stops on reaching the day, so it never takes ``arc``.
        via: dict[int, int] = {player: -1}
        stack = [player]
        while stack:
            u = stack.pop()
            pu = pi[u]
            for e in head[u]:
                v = to[e]
                if cap[e] <= 0 or v in via or cost[e] + pu - pi[v]:
                    continue
                via[v] = e
                if v == day:
                    self._push(arc)
                    while v != player:
                        e = via[v]
                        self._push(e)
                        v = to[e ^ 1]
                    return True
                stack.append(v)
        return False

    def raise_potentials(self, source: int) -> int:
        """Run Dijkstra from the source on reduced costs and add each node's
        distance to its potential; returns the number of arcs relaxed.

        An unreached node gains the largest distance found.  That keeps
        every residual reduced cost >= 0 and brings it to 0 on every arc of
        a shortest path.
        """
        to, cap, cost, pi, head = self.to, self.cap, self.cost, self.pi, self.head
        dist: list[Optional[int]] = [None] * len(head)
        done = [False] * len(head)
        dist[source] = 0
        heap = [(0, source)]
        relaxations = 0
        while heap:
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            du = d + pi[u]
            for e in head[u]:
                if cap[e] <= 0:
                    continue
                v = to[e]
                relaxations += 1
                nd = du + cost[e] - pi[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        far = max(d for d in dist if d is not None)
        for v, d in enumerate(dist):
            pi[v] += far if d is None else d
        return relaxations

    def push_zero_paths(self, source: int, sink: int) -> tuple[int, int]:
        """Push one unit along each source -> sink path of zero-reduced-cost
        residual arcs, until a DFS finds none; returns the number of units
        pushed and of arcs examined.

        Each node keeps a pointer to its next untried arc, so an arc that
        leads nowhere, or to a node on the current path, is tried once per
        call.  The DFS is complete for the first path, so a call after
        :meth:`raise_potentials` pushes at least one unit; a later path it
        misses is found after the next Dijkstra.
        """
        to, cap, cost, pi, head = self.to, self.cap, self.cost, self.pi, self.head
        nxt = [0] * len(head)
        on_path = [False] * len(head)
        on_path[source] = True
        path: list[int] = []
        pushed = examined = 0
        u = source
        while True:
            if u == sink:
                for e in path:
                    self._push(e)
                    on_path[to[e]] = False
                on_path[source] = True
                path.clear()
                pushed += 1
                u = source
            arcs, i, pu = head[u], nxt[u], pi[u]
            end = len(arcs)
            while i < end:
                e = arcs[i]
                if cap[e] > 0:
                    examined += 1
                    v = to[e]
                    if not on_path[v] and cost[e] + pu == pi[v]:
                        break
                i += 1
            nxt[u] = i
            if i < end:  # advance; the arc is tried again after a push
                path.append(e)
                on_path[v] = True
                u = v
            elif u == source:
                return pushed, examined
            else:  # retreat from a node that leads nowhere
                on_path[u] = False
                u = to[path.pop() ^ 1]
                nxt[u] += 1


class FlowResult(NamedTuple):
    """Outcome of the profile solve.

    ``residual`` is the optimal flow's residual network; the lex tie-break
    edits it in place.
    """

    gvector: tuple[int, ...]
    residual: Residual
    augmentations: int
    relaxations: int


def solve_stage(avail: Sequence[Sequence[int]], quotas: Sequence[int]) -> FlowResult:
    """Maximize the whole fairness profile (G_1, ..., G_m) lexicographically
    over full-game assignments: the stage-m problem, whose weights encode
    every earlier stage because G_t <= n < n+1.

    The network routes sit-outs: source -> day (capacity the day's count
    less its quota), day -> player (one unit arc per available cell) and
    player -> sink (one marginal-cost arc of capacity a per player with a
    available days, added last): m + cells + n arcs.  Every sit-out can be
    routed: a day with sit-outs left has a player who still plays it.
    """
    n = len(avail)
    m = len(quotas)
    base = n + 1
    days = [sum(row) for row in avail]
    counts = [sum(column) for column in zip(*avail)]

    # node ids: source, days, players, sink
    source = 0
    day0 = 1
    player0 = day0 + m
    sink = player0 + n
    net = Residual(sink + 1, base)

    for k in range(m):
        net.add(source, day0 + k, counts[k] - quotas[k], 0)
    for i in range(n):
        for k in range(m):
            if avail[i][k]:
                net.cell_arc[i, k] = net.add(day0 + k, player0 + i, 1, 0)
    net.gain0 = len(net.to)
    for i in range(n):  # a first sit-out loses the last available day's game
        net.add(player0 + i, sink, days[i], base ** (m - days[i]))
    net.pi[sink] = base ** (m - max(days))

    # Primal-dual phases until every sit-out is routed: every unit that fits
    # on the zero-reduced-cost paths, then one Dijkstra per distance level.
    # With no sit-out the source has no open arc, and nothing is relaxed.
    augmentations = sum(counts) - sum(quotas)
    pushed, relaxations = net.push_zero_paths(source, sink)
    while pushed < augmentations:
        relaxations += net.raise_potentials(source)
        units, examined = net.push_zero_paths(source, sink)
        pushed += units
        relaxations += examined

    games = net.cap[net.gain0::2]  # a player's sink arc holds its games
    gvec = tuple(sum(1 for d in games if d >= t) for t in range(1, m + 1))
    return FlowResult(gvec, net, augmentations, relaxations)
