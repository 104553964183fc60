"""Fair solver: exactness against the brute-force oracle, tie-break
semantics, determinism, and the single flow solve."""

import hashlib
import random

import pytest

from conftest import all_feasible_assignments, count_folded, make_problem, random_problem
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
from fairplay.solver import (
    TieBreakPolicy,
    _Optima,
    solve_fair,
)


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

def test_solve_fair_matches_oracle_on_fixtures():
    red, _ = reduce_problem(fixtures.table1())
    assert solve_fair(red).g_vector.counts == (16, 8, 0, 0)
    assert brute_force_fair(red)[0].counts == (16, 8, 0, 0)
    t2 = fixtures.table2()
    assert solve_fair(t2).g_vector.counts == (11, 9, 0, 0, 0)
    assert brute_force_fair(t2)[0].counts == (11, 9, 0, 0, 0)


def test_solve_fair_matches_oracle_on_random_instances(rng):
    checked = 0
    while checked < 60:
        p = random_problem(rng, max_n=7, max_m=4)
        red, _ = reduce_problem(p)
        if red.is_empty:
            continue
        oracle_g, _ = brute_force_fair(red, 2_000_000)
        report = solve_fair(red)
        assert report.g_vector.counts == oracle_g.counts, red
        checked += 1


def test_fair_optimum_over_all_feasible_equals_over_efficient(rng):
    """Scanning only slot-maximal assignments is enough: the optimum over
    every feasible assignment is no fairer."""
    checked = 0
    while checked < 25:
        p = random_problem(rng, max_n=6, max_m=3)
        red, _ = reduce_problem(p)
        if red.is_empty:
            continue
        oracle_g, _ = brute_force_fair(red)
        best_any = max(
            (g_vector(x) for x in all_feasible_assignments(red)),
            key=lambda v: v.counts,
        )
        assert best_any.counts == oracle_g.counts
        checked += 1


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


@pytest.mark.parametrize(
    "make",
    [fixtures.table2, lambda: reduce_problem(fixtures.table1())[0]],
    ids=["table2", "table1-reduced"],
)
def test_lex_tie_break_is_row_major_minimum_over_optima(make):
    p = make()
    assert solve_fair(p, TieBreakPolicy.lex()).assignment == _lex_min_over_optima(p)


def test_lex_tie_break_is_row_major_minimum_on_randoms(rng):
    checked = 0
    while checked < 20:
        p = random_problem(rng, max_n=6, max_m=3)
        red, _ = reduce_problem(p)
        if red.is_empty:
            continue
        assert solve_fair(red, TieBreakPolicy.lex()).assignment == _lex_min_over_optima(red)
        checked += 1


def test_lex_tie_break_is_row_major_minimum_on_repeated_rows():
    """Instances with many optima: the lex result must not depend on which
    optimal flow the profile solve hands to the tie-break."""
    for p in _repeated_row_instances(random.Random(20261018), 30):
        red, _ = reduce_problem(p)
        got = solve_fair(p, TieBreakPolicy.lex()).assignment
        assert got == zero_extend(_lex_min_over_optima(red), p, red), p


def _club(seed, n, m):
    """Seeded g = 4 club sheet; the density rotates over 0.4, 0.55, 0.7."""
    rng = random.Random(seed)
    density = (0.4, 0.55, 0.7)[seed % 3]
    rows = [[1 if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
    return make_problem(rows, g=4)


def _digest(x):
    """SHA-256 of a matrix written as one row of 0/1 digits per line."""
    text = "\n".join("".join(map(str, row)) for row in x.matrix)
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of each lex matrix, one row of 0/1 digits per line, as computed by
# the per-threshold, re-solve-per-cell solver this one replaced.
_PINNED_LEX = [
    (1, 30, 5, "a90d6946de2d3b66686ebb48af713601502b3364c2e17b95516223059d226592"),
    (2, 45, 6, "dcce5e8fd7c5e419936c6d2ac8ac8232f195b7838c75f2c5a76df895a58b0734"),
    (3, 60, 7, "8eb8426f9f0b52fd3780fb3bc6159d9d59b3d9929897c22bea1364f35a40022e"),
    (4, 75, 5, "e7e144f331ff93ba2f0b795e9b005a14c3d1724be7cf9097d2b9110c6a580174"),
    (5, 90, 6, "5e9ab6683fb663c64d3ab57ae8cd83164e8742b09a7e780387deb5ba5a7083e6"),
    (6, 105, 7, "f2fc258f66ef6506ed7d529cee5cb3633d5179c72ac0e5d218264d23951302a4"),
    (7, 120, 6, "4e3bcd6a7cc17b588a37e4a1bf50d85483a9debcb1d0cf58b92653cce2dd9949"),
    (8, 120, 7, "303257d3a269cc0d9a83e207cbe81a522da266f19481ab3f3c7a8d8cd3eec8d4"),
]


@pytest.mark.parametrize(
    "seed,n,m,digest", _PINNED_LEX, ids=[f"{n}x{m}-seed{s}" for s, n, m, _ in _PINNED_LEX]
)
def test_lex_tie_break_is_pinned_on_club_sized_instances(seed, n, m, digest):
    x = solve_fair(_club(seed, n, m), TieBreakPolicy.lex()).assignment
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
    red, _ = reduce_problem(_club(seed, n, m))
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


def test_random_tie_break_output_is_profile_optimal(rng):
    for seed in (0, 1, 2):
        p = random_problem(rng, max_n=6, max_m=3)
        red, _ = reduce_problem(p)
        if red.is_empty:
            continue
        report = solve_fair(red, TieBreakPolicy.seeded(seed))
        assert report.g_vector.counts == brute_force_fair(red)[0].counts


def test_random_tie_break_covers_distinct_optima():
    red, _ = reduce_problem(fixtures.table1())
    seen = {
        solve_fair(red, TieBreakPolicy.seeded(seed)).assignment for seed in range(8)
    }
    assert len(seen) > 1  # 8 draws over thousands of optima should differ


_RANDOM_INSTANCES = {
    "table1-reduced": lambda: reduce_problem(fixtures.table1())[0],
    "table2": fixtures.table2,
    "club-1-30x5": lambda: _club(1, 30, 5),
    "club-4-30x5": lambda: _club(4, 30, 5),
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


def _repeated_row_instances(rng, count):
    """Small instances whose players repeat two or three rows, with at most
    a few thousand full-game assignments.  Every other one is left
    unreduced, so a player or day the reduction drops shows in the draw."""
    out = []
    while len(out) < count:
        m = rng.randint(3, 5)
        rows = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(2, 3))]
        p = make_problem([rng.choice(rows) for _ in range(rng.randint(4, 9))], rng.choice((2, 3)))
        red, _ = reduce_problem(p)
        if red.is_empty or not 1 < count_efficient(red) <= 5_000:
            continue
        out.append(red if len(out) % 2 else p)
    return out


def test_random_draw_is_a_reservoir_over_the_oracle_enumeration():
    """Independent route for the random tie-break: the count of optima is the
    number of the oracle's enumerated assignments with the optimal profile,
    and the draw is the one a reservoir sampler over that enumeration keeps
    with the same seeded generator."""
    for p in _repeated_row_instances(random.Random(20261018), 30):
        red, _ = reduce_problem(p)
        leaves = [(g_vector(a).counts, a) for a in enumerate_efficient(red)]
        opt = max(counts for counts, _ in leaves)
        optima = [a for counts, a in leaves if counts == opt]
        assert _Optima(red, day_quotas(red), opt).count(0) == len(optima), p
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            kept = None
            for seen, a in enumerate(optima, 1):
                if rng.randrange(seen) == 0:
                    kept = a
            drawn = solve_fair(p, TieBreakPolicy.seeded(seed)).assignment
            assert drawn == zero_extend(kept, p, red), (p, seed)


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


def _dense_second_last_day_instances(rng, count):
    """Reduced instances of 3-5 days whose day m - 2 offers more subsets
    than there are players, so many of ``_Optima``'s depth m - 2 children
    share a leaf class, with at most a few thousand full-game assignments."""
    out = []
    while len(out) < count:
        n, m = rng.randint(4, 9), rng.randint(3, 5)
        rows = [
            [int(rng.random() < (0.9 if k == m - 2 else 0.55)) for k in range(m)]
            for _ in range(n)
        ]
        red, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
        if red.is_empty or red.m < 2 or not 1 < count_efficient(red) <= 5_000:
            continue
        if len(_optima(red).day_combos[red.m - 2]) > red.n:
            out.append(red)
    return out


def test_cached_optima_count_matches_brute_force():
    """The count of optima with the leaf cache equals the number of the
    oracle's enumerated assignments with the optimal profile, and the draw
    is the reservoir's over that enumeration."""
    for red in _dense_second_last_day_instances(random.Random(20261020), 25):
        leaves = [(g_vector(a).counts, a) for a in enumerate_efficient(red)]
        opt = max(counts for counts, _ in leaves)
        optima = [a for counts, a in leaves if counts == opt]
        assert _optima(red).count(0) == len(optima), red
        for seed in (0, 1):
            rng = random.Random(seed)
            kept = None
            for seen, a in enumerate(optima, 1):
                if rng.randrange(seen) == 0:
                    kept = a
            assert solve_fair(red, TieBreakPolicy.seeded(seed)).assignment == kept, (red, seed)


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

def _flow_instances():
    """The fixtures, 50 seeded random instances, the pinned club sheets from
    60x7 to 120x7 and a sheet where one player plays every day.  Every other
    random instance is left unreduced, so that the solve meets nodes no
    residual path reaches: a player with no available day, a day too short
    for a game."""
    out = [reduce_problem(fixtures.table1())[0], fixtures.table2()]
    rng = random.Random(20261019)
    while len(out) < 52:
        p = random_problem(rng, max_n=12, max_m=5)
        red, _ = reduce_problem(p)
        if not red.is_empty:
            out.append(p if len(out) % 2 else red)
    for seed, n, m, _ in _PINNED_LEX:
        if n >= 60:
            out.append(reduce_problem(_club(seed, n, m))[0])
    out.append(make_problem([[1, 1, 1], [1, 1, 1], [1, 0, 0]], g=2))
    return out


def test_profile_flow_leaves_valid_potentials():
    """After the solve, every residual arc has reduced cost >= 0, which is
    what makes ``Residual.reroute`` exact; the flow meets every quota and its
    games attain the reported profile.  The network has one arc per day,
    per available cell and per player, and a player with g games has a sink
    arc of capacity m - g costing -(n+1)^(m-g-1), whose reverse costs
    (n+1)^(m-g); a direction of capacity 0 has no game to price."""
    plays_every_day = 0
    for p in _flow_instances():
        quotas = day_quotas(p)
        result = _flow.solve_stage(p.avail, quotas)
        net = result.residual
        for e, v in enumerate(net.to):
            if net.cap[e] > 0:
                u = net.to[e ^ 1]
                assert net.cost[e] + net.pi[u] - net.pi[v] >= 0, (p, e)
        source = 0
        assert sum(net.cap[e ^ 1] for e in net.head[source]) == sum(quotas)
        matrix = [[0] * p.m for _ in range(p.n)]
        for i, k in net.cell_arc:
            matrix[i][k] = int(net.uses((i, k)))
        games = Assignment(tuple(map(tuple, matrix)))
        assert games.day_totals() == tuple(quotas)
        assert g_vector(games).counts == result.gvector

        assert len(net.to) == 2 * (p.m + len(net.cell_arc) + p.n)
        base, m, player0 = p.n + 1, p.m, 1 + p.m
        sink = player0 + p.n
        for i, g in enumerate(map(sum, matrix)):
            e = net.gain0 + 2 * i
            assert (net.to[e ^ 1], net.to[e]) == (player0 + i, sink)
            assert (net.cap[e], net.cap[e ^ 1]) == (m - g, g), (p, i)
            if g > 0:
                assert net.cost[e ^ 1] == base ** (m - g), (p, i)
            if g < m:
                assert net.cost[e] == -(base ** (m - g - 1)), (p, i)
            plays_every_day += g == m
    assert plays_every_day


def test_profile_flow_matches_brute_force_on_random_instances():
    """The flow's profile is the exhaustive oracle's on seeded random reduced
    instances with g in {2, 3, 4}."""
    rng = random.Random(20261020)
    checked = 0
    while checked < 400:
        red, _ = reduce_problem(random_problem(rng, max_n=9, max_m=5))
        if red.is_empty:
            continue
        oracle_g, _ = brute_force_fair(red)
        result = _flow.solve_stage(red.avail, day_quotas(red))
        assert result.gvector == oracle_g.counts, red
        checked += 1


@pytest.mark.parametrize(
    "seed,n,m", [pin[:3] for pin in _PINNED_LEX], ids=[f"{n}x{m}" for _, n, m, _ in _PINNED_LEX]
)
def test_profile_flow_runs_a_dijkstra_per_distance_level(seed, n, m):
    """One Dijkstra per unit of flow examines about half of the residual
    arcs per unit; the primal-dual phases examine a small fraction."""
    red, _ = reduce_problem(_club(seed, n, m))
    result = _flow.solve_stage(red.avail, day_quotas(red))
    assert result.augmentations == sum(day_quotas(red))
    assert result.relaxations < result.augmentations * len(result.residual.to) / 8


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
