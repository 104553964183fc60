"""Exact min-cost-flow engine behind the fair solver.

The fairness profile (G_1, ..., G_m) of a full-game assignment, read as a
base-(n+1) number, equals the total reward of the corresponding flow when a
player's j-th game pays (n+1)^(m-j).  Maximizing that reward over all
full-game assignments is therefore exactly the lexicographic maximization of
the whole profile, in one min-cost flow.  Rewards per player fall as j
grows, so each player's gain is concave, and one arc to the sink priced at
the marginal reward carries it (Ahuja, Magnanti & Orlin, *Network Flows*,
1993, chapter 14): for a player with g games it costs -(n+1)^(m-g-1), the
reward of the next game, and its reverse costs (n+1)^(m-g), the reward of
the last one.  The costs move one game along whenever a unit crosses the
arc.  This is exact: of m parallel unit arcs, one per game, with distinct
costs, only the cheapest unused one and the reverse of the last used one
can have the least reduced cost, so no other ever lies on a shortest path,
a zero-reduced-cost path or a cycle of :meth:`Residual.reroute`, and their
reduced costs stay >= 0 whenever these two arcs' do.

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
through the phase and after it.  Phases repeat until every quota is met;
the network is a DAG, so exact starting potentials are known without a
Bellman-Ford pass.  They give every arc reduced cost 0, so the first phase
needs no Dijkstra and pushes at once.

The solved network is handed back as a :class:`Residual` that the lex
tie-break edits cell by cell.  An optimal flow can avoid an arc exactly when
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
    player node; closing an arc (capacity 0) pins the cell's current state.
    Arcs from ``gain0`` on are the players' marginal-cost arcs to the sink:
    for a player with g games the arc has capacity m - g and costs
    -base^(m-g-1), the next game's reward, and its reverse has capacity g
    and costs base^(m-g), the last game's.  With no game yet, or all m, one
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
            # a game more pays base times less; a game fewer, base times more
            cost[e] = c // self.base if c < 0 else c * self.base

    def uses(self, cell: tuple[int, int]) -> bool:
        """Whether the flow runs through a cell not yet fixed or forbidden."""
        return self.cap[self.cell_arc[cell] ^ 1] > 0

    def fix(self, cell: tuple[int, int]) -> None:
        """Keep a used cell in every later flow: close its reverse arc."""
        self.cap[self.cell_arc[cell] ^ 1] = 0

    def forbid(self, cell: tuple[int, int]) -> None:
        """Keep an unused cell out of every later flow: close its arc."""
        self.cap[self.cell_arc[cell]] = 0

    def reroute(self, cell: tuple[int, int]) -> bool:
        """Move the flow off a used cell at unchanged cost, if it can be done.

        Looks for a cycle through the cell's reverse arc (player -> day)
        whose arcs all have reduced cost 0; pushes one unit round it and
        returns True, or returns False and leaves the flow as it was.
        """
        to, cap, cost, pi, head = self.to, self.cap, self.cost, self.pi, self.head
        back = self.cell_arc[cell] ^ 1
        player, day = to[back ^ 1], to[back]
        if cost[back] + pi[player] - pi[day]:
            return False
        # Search day -> player over zero-reduced-cost residual arcs.  The
        # search stops on reaching the player, so it never takes ``back``.
        via: dict[int, int] = {day: -1}
        stack = [day]
        while stack:
            u = stack.pop()
            pu = pi[u]
            for e in head[u]:
                v = to[e]
                if cap[e] <= 0 or v in via or cost[e] + pu - pi[v]:
                    continue
                via[v] = e
                if v == player:
                    self._push(back)
                    while v != day:
                        e = via[v]
                        self._push(e)
                        v = to[e ^ 1]
                    return True
                stack.append(v)
        return False

    def raise_potentials(self, source: int, sink: int) -> int:
        """Run Dijkstra from the source on reduced costs and add each node's
        distance to its potential; returns the number of arcs relaxed.

        An unreached node gains the largest distance found.  That keeps
        every residual reduced cost >= 0 and brings it to 0 on every arc of
        a shortest path.  Raises ValueError when the sink is unreached.
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
        if dist[sink] is None:
            raise ValueError("the day quotas cannot be met")
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

    The network runs source -> day (capacity the day's quota), day ->
    player (one unit arc per available cell) and player -> sink (one
    marginal-cost arc of capacity m per player, added last): m + cells + n
    arcs.  Raises ValueError when the day quotas cannot be met.
    """
    n = len(avail)
    m = len(quotas)
    base = n + 1

    # node ids: source, days, players, sink
    source = 0
    day0 = 1
    player0 = day0 + m
    sink = player0 + n
    net = Residual(sink + 1, base)

    for k in range(m):
        net.add(source, day0 + k, quotas[k], 0)
    for i in range(n):
        for k in range(m):
            if avail[i][k]:
                net.cell_arc[i, k] = net.add(day0 + k, player0 + i, 1, 0)
    first_game = base ** (m - 1)
    net.gain0 = len(net.to)
    for i in range(n):
        net.add(player0 + i, sink, m, -first_game)
    # Exact distances on the DAG: every path to a player costs 0, and the
    # way on to the sink costs the first game's reward.
    net.pi[sink] = -first_game

    # Primal-dual phases until every quota is met: every unit that fits on
    # the zero-reduced-cost paths, then one Dijkstra per distance level.
    # The DAG potentials give every arc reduced cost 0, so the first phase
    # pushes at once: its Dijkstra would add 0 everywhere.
    augmentations = sum(quotas)
    pushed, relaxations = net.push_zero_paths(source, sink)
    while pushed < augmentations:
        relaxations += net.raise_potentials(source, sink)
        units, examined = net.push_zero_paths(source, sink)
        pushed += units
        relaxations += examined

    games = [0] * n
    for (i, _), e in net.cell_arc.items():
        if net.cap[e] == 0:
            games[i] += 1
    gvec = tuple(sum(1 for d in games if d >= t) for t in range(1, m + 1))
    return FlowResult(gvec, net, augmentations, relaxations)
