"""Fair solver: exactness against the brute-force oracle, tie-break
semantics, determinism, and the single flow solve."""

import hashlib
import random

import pytest

import corpus
from conftest import all_feasible_assignments, count_folded
from corpus import CLUBS, club, make_problem, player_on_days_without_sit_outs, random_problem
from fairplay import _flow, fixtures
from fairplay.model import (
    Assignment,
    day_quotas,
    g_vector,
    is_efficient,
    is_feasible,
    max_total_games,
    reduce_problem,
    zero_extend,
)
from fairplay.oracle import (
    brute_force_fair,
    count_efficient,
    enumerate_efficient,
)
from fairplay._optima import _Optima, _reservoir_rank
from fairplay.solver import TieBreakPolicy, solve_fair


def test_tie_break_policy_validation():
    assert TieBreakPolicy.lex().mode == "lex"
    assert TieBreakPolicy.seeded(7).seed == 7
    with pytest.raises(ValueError, match="seed"):
        TieBreakPolicy("random")
    with pytest.raises(ValueError, match="mode"):
        TieBreakPolicy("coin-flip")


# --------------------------------------------------------------------------- #
# solve_fair: exactness
# --------------------------------------------------------------------------- #

# the club sheets and the flow's instances run to 120 players: the oracle
# reaches the clubs in test_brute_force_reaches_club_sized_instances
_CROSSCHECKED = [name for name in corpus.FAMILIES if name not in ("clubs", "flow-instances")]


@pytest.mark.parametrize("name", _CROSSCHECKED)
def test_fairness_routes_agree(name):
    """On every member of a corpus family: the exhaustive oracle and the
    profile flow on the reduced core, and ``solve_fair`` under the lex
    tie-break and seeded random ones give one profile, and every
    assignment is feasible and efficient.  In a family whose cores each
    have at most 5,000 full-game assignments, the oracle's enumeration of
    them fixes the rest: ``_Optima`` counts its optima, the lex assignment
    is their row-major least, and each of seeds 0-2 draws the optimum that
    a reservoir sampler over them keeps, each zero-extended from the core.
    In the other families one seed is drawn, the member's index mod 3."""
    family = [(p, reduce_problem(p)[0]) for p in corpus.FAMILIES[name]()]
    small = all(count_efficient(red) <= 5_000 for _, red in family)
    for index, (p, red) in enumerate(family):
        if red.is_empty:
            continue
        opt = brute_force_fair(red)[0].counts
        assert _flow.solve_stage(red.avail, day_quotas(red)).gvector == opt, p
        seeds = (0, 1, 2) if small else (index % 3,)
        reports = [solve_fair(p), *(solve_fair(p, TieBreakPolicy.seeded(s)) for s in seeds)]
        for report in reports:
            assert report.g_vector.counts == opt + (0,) * (p.m - red.m), p
            assert is_feasible(report.assignment, p).ok, p
            assert is_efficient(report.assignment, p), p
        if small:
            lex, *drawn = [report.assignment for report in reports]
            optima = [a for a in enumerate_efficient(red) if g_vector(a).counts == opt]
            assert _Optima(red, day_quotas(red), opt).count(0) == len(optima), p
            assert lex == zero_extend(min(optima, key=_row_major), p, red), p
            assert drawn == [zero_extend(_reservoir_pick(optima, s), p, red) for s in seeds], p


def test_fair_optimum_over_all_feasible_equals_over_efficient():
    """Scanning only slot-maximal assignments is enough: the optimum over
    every feasible assignment is no fairer."""
    for red in corpus.randoms(6, 3)[:25]:
        oracle_g, _ = brute_force_fair(red)
        best_any = max(
            (g_vector(x) for x in all_feasible_assignments(red)),
            key=lambda v: v.counts,
        )
        assert best_any.counts == oracle_g.counts


def test_fair_implies_efficient_on_fixtures_and_randoms(rng):
    for p in [fixtures.table1(), fixtures.table2()]:
        report = solve_fair(p)
        assert report.total_games == max_total_games(p)
        assert is_efficient(report.assignment, p)
    for _ in range(30):
        p = random_problem(rng)
        report = solve_fair(p)
        assert report.total_games == max_total_games(p)
        assert is_feasible(report.assignment, p).ok
        assert is_efficient(report.assignment, p)


def test_solve_fair_single_forced_day():
    p = make_problem([[1]] * 4, g=4)
    report = solve_fair(p)
    assert report.g_vector.counts == (4,)
    assert report.total_games == 1


def test_solve_fair_reduces_internally_and_zero_extends():
    p = fixtures.table1()
    report = solve_fair(p)
    assert report.g_vector.counts == (16, 8, 0, 0, 0)
    gordon = p.player_index("Gordon B")
    assert sum(report.assignment.matrix[gordon]) == 0
    fri = p.days.index("Fri")
    assert all(report.assignment.matrix[i][fri] == 0 for i in range(p.n))
    assert is_feasible(report.assignment, p).ok


def test_solve_fair_on_empty_problem():
    p = make_problem([[0, 0, 0]] * 4, g=4)
    report = solve_fair(p)
    assert report.total_games == 0
    assert report.assignment.total_slots() == 0


# --------------------------------------------------------------------------- #
# tie-breaking
# --------------------------------------------------------------------------- #

def _row_major(x):
    return tuple(c for row in x.matrix for c in row)


def _lex_min_over_optima(red):
    """The row-major smallest of the oracle's profile-optimal assignments of
    an irreducible problem."""
    opt = brute_force_fair(red)[0].counts
    return min(
        (a for a in enumerate_efficient(red) if g_vector(a).counts == opt),
        key=_row_major,
    )


def _reroute_meets_a_dearer_cycle():
    """The lex walk asks ``Residual.reroute`` to move a sit-out onto a
    played cell whose arc has a positive reduced cost, while a
    zero-reduced-cost path runs from its player back to its day: the cycle
    through the arc costs that reduced cost, so taking it loses profile."""
    return make_problem(
        [[1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 0], [0, 0, 0, 1]], g=2
    )


@pytest.mark.parametrize(
    "make",
    [fixtures.table2, lambda: reduce_problem(fixtures.table1())[0],
     player_on_days_without_sit_outs, _reroute_meets_a_dearer_cycle],
    ids=["table2", "table1-reduced", "player-on-days-without-sit-outs",
         "reroute-meets-a-dearer-cycle"],
)
def test_lex_tie_break_is_row_major_minimum_over_optima(make):
    p = make()
    assert solve_fair(p, TieBreakPolicy.lex()).assignment == _lex_min_over_optima(p)


def _zero_reduced_cost_path(net, start, goal):
    """Whether open residual arcs of reduced cost 0 lead from start to goal."""
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for e in net.head[u]:
            v = net.to[e]
            if net.cap[e] > 0 and v not in seen and net.cost[e] + net.pi[u] == net.pi[v]:
                seen.add(v)
                stack.append(v)
    return goal in seen


def test_reroute_declines_a_cell_arc_of_positive_reduced_cost(monkeypatch):
    """On ``_reroute_meets_a_dearer_cycle`` some reroute meets a cell arc of
    positive reduced cost with a zero-reduced-cost path player -> day open,
    which only the arc's own check turns down; the walk still ends on the
    row-major smallest optimum."""
    dearer = []
    reroute = _flow.Residual.reroute

    def spy(net, arc):
        day, player = net.to[arc ^ 1], net.to[arc]
        if net.pi[day] > net.pi[player] and _zero_reduced_cost_path(net, player, day):
            dearer.append(arc)
        return reroute(net, arc)

    monkeypatch.setattr(_flow.Residual, "reroute", spy)
    p = _reroute_meets_a_dearer_cycle()
    assert solve_fair(p, TieBreakPolicy.lex()).assignment == _lex_min_over_optima(p)
    assert dearer


def _digest(x):
    """SHA-256 of a matrix written as one row of 0/1 digits per line."""
    text = "\n".join("".join(map(str, row)) for row in x.matrix)
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of each club's lex matrix, one row of 0/1 digits per line, as
# computed by the per-threshold, re-solve-per-cell solver this one replaced.
_PINNED_LEX = [(*c, digest) for c, digest in zip(CLUBS, (
    "a90d6946de2d3b66686ebb48af713601502b3364c2e17b95516223059d226592",
    "dcce5e8fd7c5e419936c6d2ac8ac8232f195b7838c75f2c5a76df895a58b0734",
    "8eb8426f9f0b52fd3780fb3bc6159d9d59b3d9929897c22bea1364f35a40022e",
    "e7e144f331ff93ba2f0b795e9b005a14c3d1724be7cf9097d2b9110c6a580174",
    "5e9ab6683fb663c64d3ab57ae8cd83164e8742b09a7e780387deb5ba5a7083e6",
    "f2fc258f66ef6506ed7d529cee5cb3633d5179c72ac0e5d218264d23951302a4",
    "4e3bcd6a7cc17b588a37e4a1bf50d85483a9debcb1d0cf58b92653cce2dd9949",
    "303257d3a269cc0d9a83e207cbe81a522da266f19481ab3f3c7a8d8cd3eec8d4",
))]


@pytest.mark.parametrize(
    "seed,n,m,digest", _PINNED_LEX, ids=[f"{n}x{m}-seed{s}" for s, n, m, _ in _PINNED_LEX]
)
def test_lex_tie_break_is_pinned_on_club_sized_instances(seed, n, m, digest):
    x = solve_fair(club(seed, n, m), TieBreakPolicy.lex()).assignment
    assert _digest(x) == digest


@pytest.mark.parametrize(
    "seed,n,m",
    [pin[:3] for pin in _PINNED_LEX[:4]],
    ids=[f"{n}x{m}" for _, n, m, _ in _PINNED_LEX[:4]],
)
def test_brute_force_reaches_club_sized_instances(monkeypatch, seed, n, m):
    """A second route to the pinned sheets' profile: with a budget of every
    leaf (up to 1.8e19 on 60x7), the oracle's bounded scan folds fewer than
    10^6 of them and returns the flow solver's profile."""
    red, _ = reduce_problem(club(seed, n, m))
    folded = count_folded(monkeypatch)
    oracle_g, x = brute_force_fair(red, count_efficient(red))
    assert oracle_g.counts == solve_fair(red).g_vector.counts
    assert g_vector(x) == oracle_g and is_efficient(x, red)
    assert sum(folded) < 10**6


def test_random_tie_break_is_deterministic_per_seed():
    t2 = fixtures.table2()
    a = solve_fair(t2, TieBreakPolicy.seeded(123))
    b = solve_fair(t2, TieBreakPolicy.seeded(123))
    assert a.assignment == b.assignment
    assert a.g_vector.counts == (11, 9, 0, 0, 0)


def test_random_tie_break_covers_distinct_optima():
    red, _ = reduce_problem(fixtures.table1())
    seen = {
        solve_fair(red, TieBreakPolicy.seeded(seed)).assignment for seed in range(8)
    }
    assert len(seen) > 1  # 8 draws over thousands of optima should differ


_RANDOM_INSTANCES = {
    "table1-reduced": lambda: reduce_problem(fixtures.table1())[0],
    "table2": fixtures.table2,
    "club-1-30x5": lambda: club(1, 30, 5),
    "club-4-30x5": lambda: club(4, 30, 5),
}

# SHA-256 of each seeded random matrix (see _digest), as drawn by the
# reservoir sampler over the full walk of every full-game assignment that
# counting and unranking replaced: a script built each instance as in
# _RANDOM_INSTANCES, ran solve_fair(p, TieBreakPolicy.seeded(seed)) with that
# sampler and hashed the matrix.
_PINNED_RANDOM = [
    ("table1-reduced", 0, "15b70761be0bc63bcd0e2b6e4233ada70428dd0b7a5694b52edc766e5b21dd71"),
    ("table1-reduced", 7, "c3757dfb3d0c9f224176459172c7e27ca98e62bc7a9edf928712e6bbfcc65965"),
    ("table1-reduced", 99, "7f18397afe6000a7684b293f77b1eda81d5a3cf670384771ae828c4f70991d4a"),
    ("table2", 0, "ca084430d66dc13fdaef4a6a101d67dbedd243b64aea7f5a1ec8ac617d514632"),
    ("table2", 7, "bac1f57b1a67fd520202aca35061309f65823b4ecc13f46441f2720a6e78ee61"),
    ("table2", 99, "1a4638adbe186f8c1737d6c3efe19077768081e82dd55286d32dc25a78065f9c"),
    ("club-1-30x5", 0, "9f67656d6c4b9efdc997bde5c12da789a0d261f3222d74caad98f45bfce215c0"),
    ("club-1-30x5", 7, "a441564267cd227ec0f7c3f6eb30f745bd00cd795cb873d343f5d3d9ee799042"),
    ("club-1-30x5", 99, "70c367f94ba7a4f7083fbccb577bb435b0eb5f2335c2d3a634369dac7375988c"),
    ("club-4-30x5", 0, "cf9daa956c26ddf317a5457d96e47ed1013819e5e1cdd288403af18ce1fece1e"),
    ("club-4-30x5", 7, "457e8f5abea48ad3214990f7ee6f08e977d1aa1e39d05e35ef2637ed316c6da2"),
    ("club-4-30x5", 99, "cd7fe1f71914acb99b9d5e426e00221497a16b07033c22cd5313124fbe83ecf4"),
]


@pytest.mark.parametrize(
    "name,seed,digest", _PINNED_RANDOM, ids=[f"{name}-seed{s}" for name, s, _ in _PINNED_RANDOM]
)
def test_random_tie_break_is_pinned(name, seed, digest):
    x = solve_fair(_RANDOM_INSTANCES[name](), TieBreakPolicy.seeded(seed)).assignment
    assert _digest(x) == digest


def test_reservoir_rank_replays_randrange():
    """The replay keeps what ``randrange(j) == 0`` for j = 1..N keeps, for
    every N up to 3,000 and three seeds, and at the bit-length boundaries
    it leaves the generator where those calls leave it."""
    boundaries = {1, 2, 3, 4, 7, 8, 9, 255, 256, 257, 2047, 2048, 2049, 3000}
    for seed in (0, 1, 7):
        rng, rank = random.Random(seed), 0
        for count in range(1, 3001):
            if rng.randrange(count) == 0:
                rank = count
            replay = random.Random(seed)
            assert _reservoir_rank(replay, count) == rank, (seed, count)
            if count in boundaries:
                assert replay.getstate() == rng.getstate(), (seed, count)
    assert _reservoir_rank(random.Random(0), 0) == 0


def _reservoir_pick(optima, seed):
    """The assignment a reservoir sampler keeps over ``optima`` in order,
    calling ``randrange(j)`` on ``random.Random(seed)`` for the j-th."""
    rng, kept = random.Random(seed), None
    for seen, a in enumerate(optima, 1):
        if rng.randrange(seen) == 0:
            kept = a
    return kept


def _optima(p, cached=True):
    """``_Optima`` over the reduced ``p`` and its optimal profile, with its
    leaf cache at depth m - 2 switched off unless ``cached``: uncached, a
    depth m - 2 node sums the closed-form count of each child in turn."""
    red, _ = reduce_problem(p)
    quotas = day_quotas(red)
    optima = _Optima(red, quotas, _flow.solve_stage(red.avail, quotas).gvector)
    if not cached:

        def count_second_last_day():
            games, found = optima.games, 0
            for combo in optima.day_combos[optima.m - 2]:
                for i in combo:
                    games[i] += 1
                found += optima._count_last_day()
                for i in combo:
                    games[i] -= 1
            return found

        optima._count_second_last_day = count_second_last_day
    return optima


@pytest.mark.parametrize("name, states", [("club-1-30x5", 56), ("club-4-30x5", 48)])
def test_leaf_cache_keeps_the_optima_memo(name, states):
    """The leaf cache at depth m - 2 leaves the memo as the uncached DP
    builds it, state for state: a cache key that took the memo key's place
    would store each state under the wrong key."""
    cached, plain = _optima(_RANDOM_INSTANCES[name]()), _optima(_RANDOM_INSTANCES[name](), False)
    assert cached.count(0) == plain.count(0)
    assert cached.memo == plain.memo
    assert sum(map(len, cached.memo)) == states


# --------------------------------------------------------------------------- #
# the profile flow
# --------------------------------------------------------------------------- #

def test_profile_flow_leaves_valid_potentials():
    """After the solve, every residual arc has reduced cost >= 0, which is
    what makes ``Residual.reroute`` exact; the flow routes every day's
    sit-outs and its games meet every quota and attain the reported profile.
    The network has one arc per day, per available cell and per player, and
    a player with a available days and g games has a sink arc of capacity g
    costing (n+1)^(m-g), whose reverse has capacity a - g and costs
    -(n+1)^(m-g-1); a direction of capacity 0 has no game to price."""
    plays_every_day = 0
    for p in corpus.flow_instances():
        quotas = day_quotas(p)
        result = _flow.solve_stage(p.avail, quotas)
        net = result.residual
        for e, v in enumerate(net.to):
            if net.cap[e] > 0:
                u = net.to[e ^ 1]
                assert net.cost[e] + net.pi[u] - net.pi[v] >= 0, (p, e)
        source = 0
        sit_outs = sum(p.day_counts()) - sum(quotas)
        assert sum(net.cap[e ^ 1] for e in net.head[source]) == sit_outs
        matrix = [[0] * p.m for _ in range(p.n)]
        for (i, k), arc in net.cell_arc.items():
            matrix[i][k] = int(net.uses(arc))
        games = Assignment(tuple(map(tuple, matrix)))
        assert games.day_totals() == tuple(quotas)
        assert g_vector(games).counts == result.gvector

        assert len(net.to) == 2 * (p.m + len(net.cell_arc) + p.n)
        base, m, player0 = p.n + 1, p.m, 1 + p.m
        sink = player0 + p.n
        for i, (a, g) in enumerate(zip(map(sum, p.avail), map(sum, matrix))):
            e = net.gain0 + 2 * i
            assert (net.to[e ^ 1], net.to[e]) == (player0 + i, sink)
            assert (net.cap[e], net.cap[e ^ 1]) == (g, a - g), (p, i)
            if g > 0:
                assert net.cost[e] == base ** (m - g), (p, i)
            if g < a:
                assert net.cost[e ^ 1] == -(base ** (m - g - 1)), (p, i)
            plays_every_day += g == m
    assert plays_every_day


def test_cell_arcs_run_over_the_available_cells_in_row_major_order():
    """The lex walk visits ``cell_arc`` in its own order, so that order must
    be the available cells' row-major one."""
    for p in corpus.flow_instances():
        net = _flow.solve_stage(p.avail, day_quotas(p)).residual
        cells = [(i, k) for i, row in enumerate(p.avail) for k, a in enumerate(row) if a]
        assert list(net.cell_arc) == cells


@pytest.mark.parametrize(
    "seed,n,m", [pin[:3] for pin in _PINNED_LEX], ids=[f"{n}x{m}" for _, n, m, _ in _PINNED_LEX]
)
def test_profile_flow_runs_a_dijkstra_per_distance_level(seed, n, m):
    """One Dijkstra per unit of flow examines about half of the residual
    arcs per unit; the primal-dual phases examine a small fraction.  The
    flow routes only the sit-outs, so its units are the sit-outs; the bound
    stays on one Dijkstra per game, which is what a flow that routed every
    game would run."""
    red, _ = reduce_problem(club(seed, n, m))
    quotas = day_quotas(red)
    result = _flow.solve_stage(red.avail, quotas)
    assert result.augmentations == sum(red.day_counts()) - sum(quotas)
    assert result.relaxations < sum(quotas) * len(result.residual.to) / 8


def test_profile_flow_without_sit_outs():
    """When every day's count is a multiple of g, every available cell is
    played: the flow routes nothing and relaxes no arc."""
    for red in corpus.sheets_without_sit_outs():
        result = _flow.solve_stage(red.avail, day_quotas(red))
        assert result.augmentations == result.relaxations == 0


@pytest.mark.parametrize("g", [5, 6])
def test_sit_outs_up_to_one_short_of_a_game(g):
    """Sheets whose first day drops each number of players from 0 to g - 1
    in turn: the flow routes exactly the sit-outs."""
    for red in corpus.sheets_short_of_a_game(g):
        result = _flow.solve_stage(red.avail, day_quotas(red))
        assert result.augmentations == sum(c % g for c in red.day_counts())


@pytest.mark.parametrize(
    "policy", [TieBreakPolicy.lex(), TieBreakPolicy.seeded(5)], ids=["lex", "random"]
)
def test_solve_fair_runs_one_flow_solve(monkeypatch, policy):
    """The whole profile and either tie-break come from a single flow solve;
    an instance that reduces to nothing needs none."""
    calls = []
    solve_stage = _flow.solve_stage

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_stage(*args, **kwargs)

    monkeypatch.setattr(_flow, "solve_stage", counted)
    solve_fair(fixtures.table2(), policy)
    assert len(calls) == 1
    calls.clear()
    solve_fair(make_problem([[0, 0, 0]] * 4, g=4), policy)
    assert calls == []
