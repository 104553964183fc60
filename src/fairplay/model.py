"""Core domain model: availability problems, assignments, and the predicates
that define feasibility, efficiency, leximin fairness, and strong envy.

Everything here is an immutable value plus pure functions over values, so all
operations are safe to call concurrently on shared data.  The values are
``typing.NamedTuple`` records: they compare and hash as the tuples of their
fields and are copied with ``_replace``.  They are named tuples rather
than dataclasses because ``dataclasses`` imports ``inspect``, slow to import
and needed by nothing else on the way to ``fairplay.cli``.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import compress
from operator import le
from typing import NamedTuple, Optional, Sequence


class ValidationError(ValueError):
    """Raised when raw input data violates a structural invariant."""


class InfeasibleAssignmentError(ValueError):
    """Raised when an operation requires a feasible assignment and got none."""


# --------------------------------------------------------------------------- #
# Value types
# --------------------------------------------------------------------------- #

class Problem(NamedTuple):
    """A scheduling instance: who can play on which day, and how many players
    one game needs.

    ``avail[i][k] == 1`` means player ``i`` can play on day ``k``.  A raw
    instance may contain hopeless days or players; :func:`reduce_problem`
    strips them.  Reduction may legitimately empty the instance, so zero
    players/days are representable here even though :func:`validate_problem`
    rejects empty input.
    """

    players: tuple[str, ...]
    days: tuple[str, ...]
    avail: tuple[tuple[int, ...], ...]
    group_size: int

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return len(self.days)

    @property
    def is_empty(self) -> bool:
        return self.n == 0 or self.m == 0

    def availability_counts(self) -> tuple[int, ...]:
        """Per-player number of available days (row sums)."""
        return tuple(map(sum, self.avail))

    def day_counts(self) -> tuple[int, ...]:
        """Per-day number of available players (column sums)."""
        return tuple(map(sum, zip(*self.avail))) if self.avail else (0,) * self.m

    def player_index(self, name: str) -> int:
        try:
            return self.players.index(name)
        except ValueError:
            raise KeyError(f"unknown player {name!r}") from None


class ReductionLog(NamedTuple):
    """Record of what :func:`reduce_problem` removed, in removal order.

    ``rounds`` counts the alternating day/player passes that removed
    anything; a pass that finds nothing to remove ends the process and is
    not counted.  One pass reaches the fixed point, so it is 0 or 1.
    """

    removed_days: tuple[tuple[int, str], ...]
    removed_players: tuple[tuple[int, str], ...]
    rounds: int

    @property
    def removed_anything(self) -> bool:
        return bool(self.removed_days or self.removed_players)


class Assignment(NamedTuple):
    """A binary play matrix aligned index-for-index with a Problem."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def m(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def total_slots(self) -> int:
        return sum(sum(row) for row in self.matrix)

    def day_totals(self) -> tuple[int, ...]:
        return tuple(sum(row[k] for row in self.matrix) for k in range(self.m))


class GVector(NamedTuple):
    """Fairness profile: ``counts[t-1]`` is the number of players with at
    least ``t`` games.  Always non-increasing."""

    counts: tuple[int, ...]

    def padded(self, length: int) -> tuple[int, ...]:
        return self.counts + (0,) * (length - len(self.counts))


class FairnessOrder(enum.Enum):
    FIRST_FAIRER = "first-fairer"
    SECOND_FAIRER = "second-fairer"
    EQUAL = "equal"


class EnvyPair(NamedTuple):
    """One strong-envy violation: ``envious`` has strictly more available
    days than ``envied`` yet strictly fewer games."""

    envious: str
    envied: str
    avail_envious: int
    avail_envied: int
    games_envious: int
    games_envied: int


class EnvyReport(NamedTuple):
    pairs: tuple[EnvyPair, ...]

    @property
    def is_strongly_envy_free(self) -> bool:
        return not self.pairs


class Violation(NamedTuple):
    """First feasibility violation found, with coordinates.

    ``constraint`` is ``"availability"`` (someone assigned on a day they did
    not offer) or ``"day-total"`` (a day's assigned count is not a multiple
    of the group size).
    """

    constraint: str
    player: Optional[str]
    day: str
    detail: str


class Feasibility(NamedTuple):
    ok: bool
    violation: Optional[Violation]

    def __bool__(self) -> bool:  # truthiness == verdict
        return self.ok


# --------------------------------------------------------------------------- #
# Construction and reduction
# --------------------------------------------------------------------------- #

def validate_problem(
    players: Sequence[str],
    days: Sequence[str],
    matrix: Sequence[Sequence[int]],
    group_size: int,
) -> Problem:
    """Check raw input and build a Problem.

    Raises ValidationError naming the offending row/column for every
    structural defect: non-binary entries, duplicate or empty names, names
    with leading or trailing whitespace, dimension mismatches, or a group
    size below 2.
    """
    if not isinstance(group_size, int) or group_size < 2:
        raise ValidationError(f"group size must be an integer >= 2, got {group_size!r}")
    if len(players) == 0:
        raise ValidationError("dimension mismatch: need at least one player")
    if len(days) == 0:
        raise ValidationError("dimension mismatch: need at least one day")

    # the CSV reader strips every cell, so a padded name could not round-trip
    kinds = (("row", "player name", players), ("column", "day label", days))
    for where, what, names in kinds:
        for idx, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise ValidationError(f"{where} {idx}: empty {what}")
            if name != name.strip():
                raise ValidationError(
                    f"{where} {idx}: {what} {name!r} has leading or trailing whitespace"
                )
    for where, what, names in kinds:
        seen: dict[str, int] = {}
        for idx, name in enumerate(names):
            if name in seen:
                raise ValidationError(
                    f"{where} {idx}: duplicate {what} {name!r} (first at {where} {seen[name]})"
                )
            seen[name] = idx

    if len(matrix) != len(players):
        raise ValidationError(
            f"dimension mismatch: {len(players)} players but {len(matrix)} matrix rows"
        )
    rows = []
    for i, row in enumerate(matrix):
        row = tuple(row)
        if len(row) != len(days):
            raise ValidationError(
                f"dimension mismatch: row {i} ({players[i]!r}) has {len(row)} cells, "
                f"expected {len(days)}"
            )
        if row.count(0) + row.count(1) != len(row):  # find the cell to name
            for k, cell in enumerate(row):
                if cell not in (0, 1):
                    raise ValidationError(
                        f"non-binary entry at row {i} ({players[i]!r}), "
                        f"column {k} ({days[k]!r}): {cell!r}"
                    )
        rows.append(tuple(map(int, row)))

    return Problem(tuple(players), tuple(days), tuple(rows), group_size)


def reduce_problem(p: Problem) -> tuple[Problem, ReductionLog]:
    """Strip days that cannot host a single game and players left with no
    days, alternating until a fixed point.

    One round reaches it: a removed player is unavailable on every kept
    day, so removing them lowers no kept day's count.  Survivor order is
    preserved.  When nothing is removed the result is ``p`` itself, so
    callers can test ``reduced is p``.  The result can be empty; that is a
    legal outcome, visible via ``Problem.is_empty``.
    """
    g = p.group_size
    counts = p.day_counts()
    keep_day = [c >= g for c in counts]
    keep_player = [any(compress(row, keep_day)) for row in p.avail]
    if all(keep_day) and all(keep_player):
        return p, ReductionLog((), (), 0)
    reduced = Problem(
        players=tuple(compress(p.players, keep_player)),
        days=tuple(compress(p.days, keep_day)),
        avail=tuple(
            tuple(compress(row, keep_day)) for row in compress(p.avail, keep_player)
        ),
        group_size=g,
    )
    log = ReductionLog(
        tuple((1, day) for day, kept in zip(p.days, keep_day) if not kept),
        tuple((1, name) for name, kept in zip(p.players, keep_player) if not kept),
        1,
    )
    return reduced, log


def is_irreducible(p: Problem) -> bool:
    """True iff every player has a day and every day has a full game's worth
    of available players.  Vacuously true for empty problems."""
    if p.is_empty:
        return True
    return all(map(any, p.avail)) and min(p.day_counts()) >= p.group_size


# --------------------------------------------------------------------------- #
# Predicates over assignments
# --------------------------------------------------------------------------- #

def is_feasible(x: Assignment, p: Problem) -> Feasibility:
    """Check the two assignment constraints: nobody plays outside their
    availability, and each day's assigned count is a multiple of the group
    size.  Returns the verdict plus the first violation found."""
    if x.n != p.n or (x.n > 0 and x.m != p.m):
        raise ValidationError(
            f"shape mismatch: assignment {x.n}x{x.m} vs problem {p.n}x{p.m}"
        )
    m = p.m
    for i, (row, offered) in enumerate(zip(x.matrix, p.avail)):
        # a row of 0/1 cells on offered days needs no cell loop
        if (len(row) == m and row.count(0) + row.count(1) == m
                and all(map(le, row, offered))):
            continue
        for k in range(m):
            cell = row[k]
            if cell not in (0, 1):
                raise ValidationError(
                    f"non-binary entry at row {i} ({p.players[i]!r}), "
                    f"column {k} ({p.days[k]!r}): {cell!r}"
                )
            if cell == 1 and p.avail[i][k] == 0:
                return Feasibility(
                    False,
                    Violation(
                        "availability",
                        p.players[i],
                        p.days[k],
                        f"availability constraint violated: player {p.players[i]!r} "
                        f"assigned on day {p.days[k]!r} but is not available",
                    ),
                )
    # every row has at least m cells here, so zip sums the first m of each
    for k, total in enumerate(map(sum, zip(*x.matrix))):
        if total % p.group_size != 0:
            return Feasibility(
                False,
                Violation(
                    "day-total",
                    None,
                    p.days[k],
                    f"day-total constraint violated: day {p.days[k]!r} has "
                    f"{total} assigned players, not a multiple of {p.group_size}",
                ),
            )
    return Feasibility(True, None)


def day_quotas(p: Problem) -> list[int]:
    """Players each day seats in a full-game assignment: the largest
    multiple of the group size its available players reach."""
    g = p.group_size
    return [g * (c // g) for c in p.day_counts()]


def max_total_games(p: Problem) -> int:
    """Maximum number of games any feasible assignment can host.

    Days are coupled only through their own totals, so the bound is the
    per-day sum of floor(available / group_size), and it is attained.
    """
    return sum(day_quotas(p)) // p.group_size


def is_efficient(x: Assignment, p: Problem) -> bool:
    """True iff the assignment hosts the maximum possible number of games."""
    feas = is_feasible(x, p)
    if not feas:
        raise InfeasibleAssignmentError(feas.violation.detail)
    return x.total_slots() == p.group_size * max_total_games(p)


def games_per_player(x: Assignment) -> tuple[int, ...]:
    """Row sums: how many games each player got."""
    return tuple(map(sum, x.matrix))


def g_vector(x: Assignment) -> GVector:
    """Count, for each threshold t = 1..m, the players with at least t games."""
    games = sorted(games_per_player(x))
    n = len(games)
    return GVector(tuple(n - bisect_left(games, t) for t in range(1, x.m + 1)))


def compare_fairness(u: GVector, v: GVector) -> FairnessOrder:
    """Strict lexicographic comparison of fairness profiles; shorter vectors
    are treated as zero-padded."""
    length = max(len(u.counts), len(v.counts))
    a, b = u.padded(length), v.padded(length)
    if a > b:
        return FairnessOrder.FIRST_FAIRER
    if a < b:
        return FairnessOrder.SECOND_FAIRER
    return FairnessOrder.EQUAL


def envy_report(x: Assignment, p: Problem) -> EnvyReport:
    """List every ordered pair (i, j) where i offered strictly more days than
    j yet received strictly fewer games.

    Availability is taken from ``p`` exactly as passed; audits that want the
    canonical semantics should pass the reduced problem.
    """
    feas = is_feasible(x, p)
    if not feas:
        raise InfeasibleAssignmentError(feas.violation.detail)
    players = tuple(zip(p.players, p.availability_counts(), games_per_player(x)))
    return EnvyReport(tuple(
        EnvyPair(envious, envied, avail_i, avail_j, games_i, games_j)
        for envious, avail_i, games_i in players
        for envied, avail_j, games_j in players
        if avail_i > avail_j and games_i < games_j
    ))


def zero_extend(x: Assignment, original: Problem, reduced: Problem) -> Assignment:
    """Lift an assignment on a reduced problem back to the original shape,
    filling removed players/days with zeros.  Returns ``x`` itself when
    ``reduced is original``."""
    if reduced is original:
        return x
    rows = dict(zip(reduced.players, x.matrix))
    col = {label: k for k, label in enumerate(reduced.days)}
    # a removed day reads the zero appended after a row's last cell
    pick = [col.get(label, reduced.m) for label in original.days]
    zeros = (0,) * original.m
    return Assignment(tuple(
        tuple(map((*rows[name], 0).__getitem__, pick)) if name in rows else zeros
        for name in original.players
    ))
