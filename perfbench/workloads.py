"""The benchmark's four workloads: seeded inputs, ops and output checks.

Each workload builds a :class:`Plan` from the seed: a fixed list of ops
plus the input properties that claims about the workload may depend on.
An op's ``call`` is what gets timed; its ``check`` runs after the pass and
verifies the output with the benchmark's own arithmetic, not with the
program's report of itself.  Ops reach the program only through
``fairplay.cli.main`` and the ``fairplay.*`` library calls, looked up at
call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

# club-solve: CLUB_OPS clubs whose numbers of available cells (players x
# days x density, placed at random) are evenly spaced over CLUB_CELLS; the
# clubs take turns over the (days, density) pairs that give them a player
# count in CLUB_PLAYERS.  Solve time grows as about the 2.5th power
# of the available cells, so fixing them, rather than drawing each cell,
# keeps every seed's spread of work the same.
CLUB_GROUP_SIZE = 4
CLUB_OPS = 150
CLUB_PLAYERS = (16, 44)
CLUB_DAYS = (4, 5, 6, 7)
CLUB_DENSITIES = (0.35, 0.5, 0.65)
CLUB_CELLS = (40, 72)

# witness-verify: the g = 4 witness is the workload's median op, and one
# sample of a 0.1 s op spreads by over 10% on a shared host, so each pass
# verifies it four times.
WITNESS_GROUP_SIZES = (3, 4, 5)
WITNESS_OPS = (3, 4, 4, 4, 4, 5)

# oracle-crosscheck: instances kept when their leaf count lies in
# ORACLE_LEAVES.  The ops are every ORACLE_THIN-th of ORACLE_OPS *
# ORACLE_THIN kept draws ordered by work score, so each seed covers the
# score distribution evenly.  The score adds the scans' work (leaves times
# players) to the flow solves' and the random walk's, which grow with the
# available cells; ORACLE_CELL_WEIGHT balances the two on this band.
ORACLE_OPS = 200
ORACLE_THIN = 8
ORACLE_LEAVES = (5 * 10**3, 2 * 10**4)
ORACLE_CELL_WEIGHT = 10_000

G2_BOUNDS = (7, 4)
G2_INSTANCES = 6834
G2_SIZES = 24


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]  # -> (output text, problems)


@dataclass
class Plan:
    ops: list[Op]
    properties: dict


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``fairplay`` command: exit code, stdout, stderr."""
    from fairplay import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------- #
# Arithmetic the checks share
# --------------------------------------------------------------------------- #

def quotas(rows, g: int) -> list[int]:
    m = len(rows[0])
    return [g * (sum(r[k] for r in rows) // g) for k in range(m)]


def leaf_count(rows, g: int) -> int:
    """Number of full-game assignments: the product over days of
    C(available, quota)."""
    m = len(rows[0])
    total = 1
    for k in range(m):
        c = sum(r[k] for r in rows)
        total *= math.comb(c, g * (c // g))
    return total


def profile(games, m: int) -> list[int]:
    return [sum(1 for d in games if d >= t) for t in range(1, m + 1)]


def matrix_problems(matrix, rows, g: int) -> list[str]:
    """Shape, availability and full-game day totals of an assignment."""
    n, m = len(rows), len(rows[0])
    if len(matrix) != n or any(len(r) != m for r in matrix):
        return ["assignment has the wrong shape"]
    problems = []
    for i in range(n):
        for k in range(m):
            if matrix[i][k] not in (0, 1):
                problems.append(f"cell ({i},{k}) is not 0 or 1")
            elif matrix[i][k] > rows[i][k]:
                problems.append(f"player {i} plays on unavailable day {k}")
    totals = [sum(r[k] for r in matrix) for k in range(m)]
    if totals != quotas(rows, g):
        problems.append(f"day totals {totals} are not the full-game quotas {quotas(rows, g)}")
    return problems


def distinct_row_share(instances) -> float:
    """Distinct availability rows over rows, pooled over instances."""
    rows = sum(len(r) for r in instances)
    return sum(len(set(map(tuple, r))) for r in instances) / rows if rows else 0.0


def _csv(rows) -> str:
    lines = ["player," + ",".join(DAY_NAMES[: len(rows[0])])]
    lines += [f"p{i + 1}," + ",".join(map(str, r)) for i, r in enumerate(rows)]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# club-solve
# --------------------------------------------------------------------------- #

def _check_club(rows, g: int, result) -> tuple[str, list[str]]:
    rc, out, _ = result
    if rc != 0:
        return out, [f"exit {rc}"]
    try:
        doc = json.loads(out)
        matrix = doc["matrix"]
    except (ValueError, KeyError) as exc:
        return out, [f"unreadable JSON: {exc}"]
    problems = matrix_problems(matrix, rows, g)
    if problems:
        return out, problems

    n, m = len(rows), len(rows[0])
    # The reduced core: days with a full game's worth of players, then the
    # players available on one of them.  One round reaches the fixed point,
    # because a dropped player is unavailable on every kept day.
    days = [k for k in range(m) if sum(r[k] for r in rows) >= g]
    players = [i for i in range(n) if any(rows[i][k] for k in days)]
    games = [sum(row) for row in matrix]
    avail = [sum(rows[i][k] for k in days) for i in range(n)]
    names = [f"p{i + 1}" for i in range(n)]
    envy = [
        [names[i], names[j], avail[i], avail[j], games[i], games[j]]
        for i in players
        for j in players
        if avail[i] > avail[j] and games[i] < games[j]
    ]
    expected = {
        "games_per_player": games,
        "total_games": sum(games) // g,
        "g_vector": profile([games[i] for i in players], len(days)),
        "envy_pairs": envy,
        "players": names,
        "days": list(DAY_NAMES[:m]),
    }
    for key, want in expected.items():
        if doc.get(key) != want:
            problems.append(f"{key} is {doc.get(key)!r}, recomputed {want!r}")
    return out, problems


def club_solve(seed: int, workdir: str) -> Plan:
    """Organiser path: ``fairplay solve --format json`` on weekly sheets."""
    rng = random.Random(f"club-solve:{seed}")
    lo, hi = CLUB_PLAYERS
    pairs = [(m, d) for m in CLUB_DAYS for d in CLUB_DENSITIES]
    shapes = []
    for j in range(CLUB_OPS):
        cells = CLUB_CELLS[0] + (CLUB_CELLS[1] - CLUB_CELLS[0]) * (
            j + rng.random()) / CLUB_OPS
        fits = [(m, d) for m, d in pairs if lo <= cells / (m * d) <= hi]
        m, d = fits[j % len(fits)]
        shapes.append((round(cells / (m * d)), m, d))
    rng.shuffle(shapes)
    ops, clubs = [], []
    for idx, (n, m, d) in enumerate(shapes):
        # exactly round(n * m * d) available cells, placed uniformly
        rows = [[0] * m for _ in range(n)]
        for cell in rng.sample(range(n * m), round(n * m * d)):
            rows[cell // m][cell % m] = 1
        path = os.path.join(workdir, f"club{idx:02d}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv(rows))
        argv = ["solve", "--input", path, "--group-size", str(CLUB_GROUP_SIZE),
                "--format", "json"]
        ops.append(Op(lambda argv=argv: run_cli(argv),
                      lambda res, rows=rows: _check_club(rows, CLUB_GROUP_SIZE, res)))
        clubs.append(rows)
    pairs_used = sorted({(m, d) for _, m, d in shapes})
    props = {
        "clubs": len(clubs),
        "players": [min(len(r) for r in clubs), max(len(r) for r in clubs)],
        "clubs_per_days_density": {
            f"{m}x{d}": sum(1 for _, m2, d2 in shapes if (m2, d2) == (m, d))
            for m, d in pairs_used
        },
        "group_size": CLUB_GROUP_SIZE,
        "available_cells": sum(sum(map(sum, r)) for r in clubs),
        "distinct_row_share": round(distinct_row_share(clubs), 4),
    }
    return Plan(ops, props)


# --------------------------------------------------------------------------- #
# witness-verify
# --------------------------------------------------------------------------- #

def _check_witness(g: int, result) -> tuple[str, list[str]]:
    rc, out, _ = result
    problems = []
    if rc != 0:
        problems.append(f"exit {rc}")
    if "impossibility demonstrated" not in out:
        problems.append("no 'impossibility demonstrated' line")
    leaves = math.comb(2 * g - 1, g) ** 3
    if f"examined: {leaves}\n" not in out:
        problems.append(f"'examined' is not {leaves}")
    return out, problems


def witness_verify(seed: int, workdir: str) -> Plan:
    """Certification path: ``fairplay verify --group-size g`` for g >= 3.
    The witness family is fixed, so the seed does not change the inputs."""
    ops = [
        Op(lambda g=g: run_cli(["verify", "--group-size", str(g)]),
           lambda res, g=g: _check_witness(g, res))
        for g in WITNESS_OPS
    ]
    # g players share two days, 2g-1 share three: two distinct rows each.
    rows = sum(3 * g - 1 for g in WITNESS_GROUP_SIZES)
    props = {
        "group_sizes": list(WITNESS_GROUP_SIZES),
        "leaves_per_instance": [math.comb(2 * g - 1, g) ** 3 for g in WITNESS_GROUP_SIZES],
        "distinct_row_share": round(2 * len(WITNESS_GROUP_SIZES) / rows, 4),
    }
    return Plan(ops, props)


# --------------------------------------------------------------------------- #
# oracle-crosscheck
# --------------------------------------------------------------------------- #

def _oracle_draw(rng: random.Random):
    """One random irreducible instance, or None when its leaf count is out of
    range.  Rows are redrawn until non-empty; a day short of g players
    rejects the draw."""
    n, m = rng.randint(8, 18), rng.randint(3, 5)
    g, density = rng.choice((2, 3, 4)), rng.uniform(0.4, 0.6)
    rows = []
    while len(rows) < n:
        row = [int(rng.random() < density) for _ in range(m)]
        if any(row):
            rows.append(row)
    if any(sum(r[k] for r in rows) < g for k in range(m)):
        return None
    leaves = leaf_count(rows, g)
    if not ORACLE_LEAVES[0] <= leaves <= ORACLE_LEAVES[1]:
        return None
    score = leaves * n + ORACLE_CELL_WEIGHT * sum(map(sum, rows))
    return score, leaves, rows, g


def _oracle_call(p, seed: int):
    from fairplay import oracle, solver

    fair_g, fair_x = oracle.brute_force_fair(p)
    ef = oracle.exists_efficient_strongly_ef(p)
    lex = solver.solve_fair(p, solver.TieBreakPolicy.lex())
    rnd = solver.solve_fair(p, solver.TieBreakPolicy.seeded(seed))
    return fair_g, fair_x, ef, lex, rnd


def _check_oracle(p, rows, g: int, result) -> tuple[str, list[str]]:
    from fairplay import model

    fair_g, fair_x, ef, lex, rnd = result
    m = len(rows[0])
    problems = []
    routes = {"brute_force": fair_x, "lex": lex.assignment, "random": rnd.assignment}
    for route, x in routes.items():
        bad = matrix_problems(x.matrix, rows, g)
        problems += [f"{route}: {b}" for b in bad]
        if not bad and profile([sum(r) for r in x.matrix], m) != list(fair_g.counts):
            problems.append(f"{route} profile differs from the brute-force optimum")
    reported = {"lex": lex.g_vector.counts, "random": rnd.g_vector.counts}
    for route, counts in reported.items():
        if tuple(counts) != tuple(fair_g.counts):
            problems.append(f"{route} reports profile {counts}, brute force {fair_g.counts}")
    if ef is not None:
        problems += [f"EF witness: {b}" for b in matrix_problems(ef.matrix, rows, g)]
        if not model.envy_report(ef, p).is_strongly_envy_free:
            problems.append("EF witness fails model.envy_report")
    text = json.dumps([
        list(fair_g.counts),
        [list(r) for r in fair_x.matrix],
        None if ef is None else [list(r) for r in ef.matrix],
        [list(r) for r in lex.assignment.matrix],
        [list(r) for r in rnd.assignment.matrix],
    ]) + "\n"
    return text, problems


def oracle_crosscheck(seed: int, workdir: str) -> Plan:
    """Two independent routes to the optimum, plus the EF oracle, on
    mid-size instances with mostly distinct rows."""
    from fairplay import model

    rng = random.Random(f"oracle-crosscheck:{seed}")
    draws = []
    while len(draws) < ORACLE_OPS * ORACLE_THIN:
        draw = _oracle_draw(rng)
        if draw is not None:
            draws.append(draw)
    draws.sort()
    offset = rng.randrange(ORACLE_THIN)
    chosen = draws[offset::ORACLE_THIN]
    rng.shuffle(chosen)

    ops = []
    for _, _, rows, g in chosen:
        p = model.validate_problem(
            [f"p{i + 1}" for i in range(len(rows))], list(DAY_NAMES[: len(rows[0])]),
            rows, g,
        )
        tie_seed = rng.randrange(1 << 30)
        ops.append(Op(lambda p=p, s=tie_seed: _oracle_call(p, s),
                      lambda res, p=p, rows=rows, g=g: _check_oracle(p, rows, g, res)))
    leaf_counts = sorted(leaves for _, leaves, _, _ in chosen)
    props = {
        "instances": len(chosen),
        "leaves_per_instance": {
            "min": leaf_counts[0],
            "median": leaf_counts[len(leaf_counts) // 2],
            "max": leaf_counts[-1],
            "total": sum(leaf_counts),
        },
        "group_sizes": {g: sum(1 for *_, h in chosen if h == g) for g in (2, 3, 4)},
        "distinct_row_share": round(distinct_row_share([r for _, _, r, _ in chosen]), 4),
    }
    return Plan(ops, props)


# --------------------------------------------------------------------------- #
# g2-search
# --------------------------------------------------------------------------- #

def _check_g2(result) -> tuple[str, list[str]]:
    rc, out, _ = result
    problems = []
    if rc != 5:
        problems.append(f"exit {rc}, expected 5")
    expect = f"searched {G2_INSTANCES} irreducible instance(s) across {G2_SIZES} size(s)\n"
    if not out.startswith(expect):
        problems.append(f"first line is not {expect.strip()!r}")
    if "skipped" in out:
        problems.append("a size was skipped")
    return out, problems


def g2_search(seed: int, workdir: str) -> Plan:
    """The bounded g = 2 search; its input is the bounds, so the seed does
    not change it."""
    argv = ["verify", "--group-size", "2", "--bounds", ",".join(map(str, G2_BOUNDS))]
    props = {"bounds": list(G2_BOUNDS), "instances": G2_INSTANCES, "sizes": G2_SIZES}
    return Plan([Op(lambda: run_cli(argv), _check_g2)], props)


WORKLOADS = {
    "club-solve": club_solve,
    "witness-verify": witness_verify,
    "oracle-crosscheck": oracle_crosscheck,
    "g2-search": g2_search,
}
