"""Exact min-cost-flow engine behind the fair solver.

The fairness profile (G_1, ..., G_m) of a full-game assignment, read as a
base-(n+1) number, equals the total reward of the corresponding flow when a
player's j-th game pays (n+1)^(m-j).  Maximizing that reward over all
full-game assignments is therefore exactly the lexicographic maximization of
the whole profile, in one min-cost flow: rewards per player fall as j grows,
so the parallel unit arcs to the sink form a concave gain.

Costs are Python integers, so the big lexicographic weights are exact.  The
solve is successive shortest paths with node potentials (Tomizawa 1971;
Edmonds & Karp 1972): each augmenting path comes from Dijkstra on reduced
costs ``cost(u, v) + pi[u] - pi[v]``, which stay >= 0 on every residual arc.
The network is a DAG, so exact starting potentials are known without a
Bellman-Ford pass.

The solved network is handed back as a :class:`Residual` that the lex
tie-break edits cell by cell.  An optimal flow can avoid an arc exactly when
the residual graph has a zero-reduced-cost cycle through that arc (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993), and pushing one unit round such a
cycle keeps the flow optimal and the potentials valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional, Sequence


class Residual:
    """Residual network of a min-cost flow, with node potentials.

    Arc ``e`` and its reverse ``e ^ 1`` are stored side by side.  Each
    available cell ``(player, day)`` is one unit arc from its day node to its
    player node; closing an arc (capacity 0) pins the cell's current state.
    """

    def __init__(self, nodes: int):
        self.head: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.pi = [0] * nodes
        self.cell_arc: dict[tuple[int, int], int] = {}

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
        self.cap[e] -= 1
        self.cap[e ^ 1] += 1

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

    def augment(self, source: int, sink: int) -> int:
        """Push one unit along a shortest source -> sink path and return the
        number of arcs relaxed finding it.

        Dijkstra runs on reduced costs.  Each node's potential then grows by
        its distance (by the largest distance found, where the node is
        unreached), which keeps every residual reduced cost >= 0, also on
        the reverses of the path's arcs.
        """
        to, cap, cost, pi, head = self.to, self.cap, self.cost, self.pi, self.head
        dist: list[Optional[int]] = [None] * len(head)
        prev_arc = [-1] * len(head)
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
                    prev_arc[v] = e
                    heappush(heap, (nd, v))
        if dist[sink] is None:
            raise ValueError("the day quotas cannot be met")
        far = max(d for d in dist if d is not None)
        for v, d in enumerate(dist):
            pi[v] += far if d is None else d
        v = sink
        while v != source:  # one unit fits: every path has a unit cell arc
            e = prev_arc[v]
            self._push(e)
            v = to[e ^ 1]
        return relaxations


@dataclass
class FlowResult:
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

    Raises ValueError when the day quotas cannot be met.
    """
    n = len(avail)
    m = len(quotas)
    base = n + 1

    # node ids: source, days, players, sink
    source = 0
    day0 = 1
    player0 = day0 + m
    sink = player0 + n
    net = Residual(sink + 1)

    for k in range(m):
        net.add(source, day0 + k, quotas[k], 0)
    for i in range(n):
        for k in range(m):
            if avail[i][k]:
                net.cell_arc[i, k] = net.add(day0 + k, player0 + i, 1, 0)
    for i in range(n):
        for level in range(1, m + 1):
            net.add(player0 + i, sink, 1, -(base ** (m - level)))
    # Exact distances on the DAG: every path to a player costs 0, and the
    # cheapest way on to the sink is a first-game arc.
    net.pi[sink] = -(base ** (m - 1))

    # Successive shortest paths, one unit per path, until every quota is met.
    augmentations = sum(quotas)
    relaxations = sum(net.augment(source, sink) for _ in range(augmentations))

    games = [0] * n
    for (i, _), e in net.cell_arc.items():
        if net.cap[e] == 0:
            games[i] += 1
    gvec = tuple(sum(1 for d in games if d >= t) for t in range(1, m + 1))
    return FlowResult(gvec, net, augmentations, relaxations)
