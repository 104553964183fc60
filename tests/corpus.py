"""The seeded instance corpus: the families of random matrix instances that
the tests draw, and the drawers they are made with.  Only a few tests of
one matrix at a time (canonical forms, g-vectors, CSV text) draw inline.

A family's seed is fixed here, so every call returns the same members in
the same order, and ``test_corpus`` pins a ``digest`` of each family in
``FAMILIES``.  To add a family, append it and pin its digest.  Never
re-seed or reorder an existing family: pinned tests rest on its members.
"""

import hashlib
import math
import random
from functools import partial
from itertools import chain, islice

from fairplay import fixtures
from fairplay.impossibility import build_witness
from fairplay.model import day_quotas, envy_report, reduce_problem, validate_problem
from fairplay.oracle import _assignment_from_choice, _efficient_lists, count_efficient

FULL = 10**7


def make_problem(rows, g=4, players=None, days=None):
    """Problem from a literal matrix with synthetic names."""
    n, m = len(rows), len(rows[0]) if rows else 0
    players = players or [f"p{i + 1}" for i in range(n)]
    days = days or [f"d{k + 1}" for k in range(m)]
    return validate_problem(players, days, rows, g)


def digest(problems):
    """SHA-256 over each member's group size and rows of 0/1 digits, in
    order; labels do not count."""
    text = "\n".join(
        f"{p.group_size}:" + ",".join("".join(map(str, row)) for row in p.avail)
        for p in problems
    )
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# drawers
# --------------------------------------------------------------------------- #

def random_problem(rng: random.Random, max_n=8, max_m=4, g_choices=(2, 3, 4)):
    """Seeded random instance; may be reducible or even hopeless."""
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    g = rng.choice(g_choices)
    density = rng.choice((0.4, 0.6, 0.8))
    rows = [[1 if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
    return make_problem(rows, g)


def reduced_randoms(rng, count, max_n=8, max_m=4, max_leaves=None):
    """The reduced cores of ``rng``'s next random problems, the first
    ``count`` that are not empty (and have at most ``max_leaves``
    full-game assignments)."""
    out = []
    while len(out) < count:
        red, _ = reduce_problem(random_problem(rng, max_n, max_m))
        if not red.is_empty and (max_leaves is None or count_efficient(red) <= max_leaves):
            out.append(red)
    return out


def club(seed, n, m):
    """Seeded g = 4 club sheet; the density rotates over 0.4, 0.55, 0.7."""
    rng = random.Random(seed)
    density = (0.4, 0.55, 0.7)[seed % 3]
    rows = [[1 if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
    return make_problem(rows, g=4)


def sheet(rng, n, g, sizes):
    """Reduced sheet of n players and group size g whose k-th day has
    ``sizes[k]`` available players, drawn at random."""
    columns = [rng.sample(range(n), size) for size in sizes]
    rows = [[int(i in column) for column in columns] for i in range(n)]
    return reduce_problem(make_problem(rows, g))[0]


def _repeated_rows(rng, m, fewest):
    """Two or three random rows of m days, each player taking one of them,
    for ``fewest`` to 9 players."""
    rows = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(2, 3))]
    return [rng.choice(rows) for _ in range(rng.randint(fewest, 9))]


def _dense_last_day(rng, n, m, density):
    """A random reduced instance of g = 2 or 3 whose last day offers each
    player with probability 0.9 and the days before it with ``density``;
    None unless it has at most 20,000 leaves and its last day offers more
    subsets than there are players."""
    rows = [
        tuple(int(rng.random() < density) for _ in range(m - 1)) + (int(rng.random() < 0.9),)
        for _ in range(n)
    ]
    p, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
    if not p.is_empty:
        combos, leaves = _efficient_lists(p, FULL)
        if len(combos[-1]) > p.n and leaves <= 20_000:
            return p
    return None


def _perturbed_witnesses():
    """Witness 3's rows grown by a player on one of its two forced days
    (three availability blocks) or on both, and with a forced player split
    in two halves: none has an envy-free leaf."""
    left, right = [(1, 1, 0, 0, 0)] * 2, [(0, 0, 1, 1, 1)] * 5
    return [
        left + extra + right
        for extra in (
            [(1, 1, 0, 0, 0)],
            [(1, 1, 0, 0, 0), (0, 1, 0, 0, 0)],
            [(1, 1, 0, 0, 0), (1, 0, 0, 0, 0)],
            [(1, 1, 0, 0, 0), (1, 1, 0, 0, 0)],
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
        )
    ]


# --------------------------------------------------------------------------- #
# families
# --------------------------------------------------------------------------- #

# (seed, players, days) of the pinned club sheets
CLUBS = ((1, 30, 5), (2, 45, 6), (3, 60, 7), (4, 75, 5),
         (5, 90, 6), (6, 105, 7), (7, 120, 6), (8, 120, 7))


def randoms(n, m):
    """Reduced non-empty random instances of up to n players and m days:
    30 at 6x3 and 60 at 7x4 (seed 20260808), 400 at 9x5 (seed 20261020)."""
    seed, count = {(6, 3): (20260808, 30), (7, 4): (20260808, 60),
                   (9, 5): (20261020, 400)}[n, m]
    return reduced_randoms(random.Random(seed), count, n, m)


def criterion_6():
    """Acceptance criterion 6's 200 reduced randoms of up to 8x4, each with
    at most 5M full-game assignments, so that the oracle stays exhaustive."""
    return reduced_randoms(random.Random(6_2026), 200, max_leaves=5_000_000)


def player_on_days_without_sit_outs():
    """Players 1 and 2 are available only on days 1 and 2, which seat
    everyone; day 3 drops one of three players.  They have the most days,
    so the cheapest first sit-out is theirs, and no sit-out can reach it."""
    return make_problem([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1], [0, 0, 1]], g=2)


def _drawn(rng, first, draw):
    """``first`` with g = 2, then seven instances from ``draw(m)``'s rows for
    m of 4-5 days, with g of 2-3, every other one reduced, kept when 4-5 days
    and 2-20,000 leaves remain."""
    out = [make_problem(first, 2)]
    while len(out) < 8:
        p = make_problem(draw(rng.randint(4, 5)), rng.choice((2, 3)))
        if len(out) % 2 == 0:
            p, _ = reduce_problem(p)
        if p.m < 4:
            continue
        leaves = _efficient_lists(p, FULL)[1]
        if 1 < leaves <= 20_000:
            out.append(p)
    return out


def scan_references():
    """Reduced table1, table2, witness 3, a one-day instance (the walk
    starts at the last day) and a two-day one (no memo depth), witness 3
    with a forced player split or a fourth half-forced player (no
    envy-free leaf), the first 12 of ``randoms(6, 3)``, then two runs of
    eight.  In the first, players repeat two or three rows; its unreduced
    members seat nobody on a short day, so players with equal rows as the
    scan sees them differ in availability count (in the first by hand: p3
    is also free on day 3, alone).  In the second, players share one or two
    rows from a split day on but differ before it, so the classes of
    interchangeable players change with the depth (in the first by hand).
    """
    rng = random.Random(20260808)
    perturbed = _perturbed_witnesses()
    fixed = [
        reduce_problem(fixtures.table1())[0], fixtures.table2(), build_witness(3),
        make_problem([(1,)] * 7, 3),
        make_problem([(1, 1), (1, 1), (1, 0), (0, 1), (0, 1), (1, 1), (1, 0)], 2),
        make_problem(perturbed[4], 3), make_problem(perturbed[1], 3),
    ]
    randoms_6x3 = reduced_randoms(rng, 12, 6, 3)
    symmetric = _drawn(rng, [(0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1)],
                       lambda m: _repeated_rows(rng, m, 5))

    def tail(m):
        split = rng.randint(1, m - 2)
        tails = [tuple(rng.randint(0, 1) for _ in range(m - split)) for _ in range(rng.randint(1, 2))]
        return [
            tuple(rng.randint(0, 1) for _ in range(split)) + rng.choice(tails)
            for _ in range(rng.randint(5, 9))
        ]

    first = [(1, 0, 1, 1, 1), (1, 1, 1, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 1, 1)]
    return fixed + randoms_6x3 + symmetric + _drawn(rng, first, tail)


def representatives():
    """Instances on which ``scan_verify`` folds each last-day node over its
    class representatives: the five perturbed witnesses of g = 3, each with
    its rows shuffled, then six reduced instances of three or more
    availability blocks and 3-5 days with a dense last day."""
    rng = random.Random(20261019)
    out = []
    for rows in _perturbed_witnesses():
        rng.shuffle(rows)
        out.append(make_problem(rows, 3))
    while len(out) < 11:
        p = _dense_last_day(rng, rng.randint(5, 8), rng.randint(3, 5), 0.6)
        if p and len(set(p.availability_counts())) >= 3:
            combos, leaves = _efficient_lists(p, FULL)
            if leaves > len(combos[-1]):  # more than one last-day node
                out.append(p)
    return out


def dense_last_days():
    """Reduced instances of 2-4 days whose last day offers more subsets than
    there are players, by count of availability blocks, drawn until each of
    1-4 blocks holds three."""
    rng = random.Random(20261021)
    by_blocks = {b: [] for b in range(1, 5)}
    while any(len(ps) < 3 for ps in by_blocks.values()):
        p = _dense_last_day(rng, rng.randint(4, 9), rng.randint(2, 4), 0.5)
        if p and len(set(p.availability_counts())) <= 4:
            by_blocks[len(set(p.availability_counts()))].append(p)
    return list(chain(*by_blocks.values()))


def cross_block_days():
    """Endless reduced instances of 3-5 days whose last day offers more
    subsets than there are players and seats players of two or more
    availability counts, so that pairs between the day's players can add
    to a leaf's envy count."""
    rng = random.Random(20261022)
    while True:
        n, m = rng.randint(6, 10), rng.randint(3, 5)
        p = _dense_last_day(rng, n, m, rng.choice((0.3, 0.5, 0.7)))
        if p and len({a for a, row in zip(p.availability_counts(), p.avail) if row[-1]}) >= 2:
            yield p


def first_leaf_instances():
    """Reduced instances of g = 2 or 3 and at most 5,000 leaves, bucket by
    bucket, drawn until each bucket holds three: whether the scan takes the
    representative fold (the last day offers more subsets than there are
    players), and whether the first leaf is envy-free."""
    rng = random.Random(20261020)
    buckets = {(rep, ef): [] for rep in (False, True) for ef in (False, True)}
    while any(len(ps) < 3 for ps in buckets.values()):
        n, m = rng.randint(4, 8), rng.randint(1, 4)
        rows = [tuple(int(rng.random() < 0.6) for _ in range(m)) for _ in range(n)]
        p, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
        if p.is_empty:
            continue
        combos, leaves = _efficient_lists(p, FULL)
        if leaves <= 5000:
            first = _assignment_from_choice(p, combos, (0,) * p.m)
            buckets[len(combos[-1]) > p.n, not envy_report(first, p).pairs].append(p)
    return list(chain(*buckets.values()))


def repeated_rows():
    """Small instances whose players repeat two or three rows, with at most
    a few thousand full-game assignments.  Every other one is left
    unreduced, so a player or day the reduction drops shows in the draw."""
    rng = random.Random(20261018)
    out = []
    while len(out) < 30:
        p = make_problem(_repeated_rows(rng, rng.randint(3, 5), 4), rng.choice((2, 3)))
        red, _ = reduce_problem(p)
        if red.is_empty or not 1 < count_efficient(red) <= 5_000:
            continue
        out.append(red if len(out) % 2 else p)
    return out


def dense_second_last_days():
    """Reduced instances of 3-5 days whose day m - 2 offers more subsets
    than there are players, so many of ``_Optima``'s depth m - 2 children
    share a leaf class, with at most a few thousand full-game assignments."""
    rng = random.Random(20261020)
    out = []
    while len(out) < 25:
        n, m = rng.randint(4, 9), rng.randint(3, 5)
        rows = [
            [int(rng.random() < (0.9 if k == m - 2 else 0.55)) for k in range(m)]
            for _ in range(n)
        ]
        red, _ = reduce_problem(make_problem(rows, rng.choice((2, 3))))
        if red.is_empty or red.m < 2 or not 1 < count_efficient(red) <= 5_000:
            continue
        if math.comb(red.day_counts()[-2], day_quotas(red)[-2]) > red.n:
            out.append(red)
    return out


def flow_instances():
    """The fixtures, 50 seeded random instances, the pinned club sheets from
    60x7 to 120x7, a sheet where one player plays every day and
    ``player_on_days_without_sit_outs``.  Every other random instance is
    left unreduced, so that the solve meets nodes no residual path reaches:
    a player with no available day, a day too short for a game."""
    out = [reduce_problem(fixtures.table1())[0], fixtures.table2()]
    rng = random.Random(20261019)
    while len(out) < 52:
        p = random_problem(rng, max_n=12, max_m=5)
        red, _ = reduce_problem(p)
        if not red.is_empty:
            out.append(p if len(out) % 2 else red)
    out += [reduce_problem(club(*c))[0] for c in CLUBS if c[1] >= 60]
    return out + [make_problem([[1, 1, 1], [1, 1, 1], [1, 0, 0]], g=2),
                  player_on_days_without_sit_outs()]


def sheets_without_sit_outs():
    """Twenty reduced sheets whose every day's count is a multiple of g."""
    rng = random.Random(20261021)
    out = []
    for _ in range(20):
        g, m = rng.choice((2, 3, 4)), rng.randint(1, 4)
        n = rng.randint(g, 3 * g)
        out.append(sheet(rng, n, g, [g * rng.randint(1, n // g) for _ in range(m)]))
    return out


def sheets_short_of_a_game(g):
    """2g reduced sheets of 2-5,000 full-game assignments whose first day
    drops each number of players from 0 to g - 1 in turn, twice over."""
    rng = random.Random(20261022 + g)
    out = []
    while len(out) < 2 * g:
        n = rng.randint(2 * g - 1, 2 * g + 1)
        sizes = [g + len(out) % g] + [rng.randint(g, n) for _ in range(rng.randint(1, 3))]
        red = sheet(rng, n, g, sizes)
        if 1 < count_efficient(red) <= 5_000:
            out.append(red)
    return out


# every family by name, each as a list of problems, for test_corpus's pins
FAMILIES = {
    **{f.__name__.replace("_", "-"): f for f in (
        criterion_6, scan_references, representatives, dense_last_days,
        first_leaf_instances, repeated_rows, dense_second_last_days, flow_instances,
        sheets_without_sit_outs)},
    **{f"randoms-{n}x{m}": partial(randoms, n, m) for n, m in ((6, 3), (7, 4), (9, 5))},
    **{f"sheets-short-of-a-game-{g}": partial(sheets_short_of_a_game, g) for g in (5, 6)},
    "cross-block-days": lambda: list(islice(cross_block_days(), 40)),
    "clubs": lambda: [club(*c) for c in CLUBS] + [club(4, 30, 5)],
}
