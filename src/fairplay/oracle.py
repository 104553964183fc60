"""Brute-force ground truth on desk-scale instances.

Everything here answers over all the full-game assignments of an
irreducible problem: each day independently contributes a choice of
``group_size * floor(available / group_size)`` players, and the assignments
are the cartesian product of those per-day choices, enumerated in odometer
order (later days spin fastest, each day's subsets in lexicographic order by
player index).  The scans of ``_scan`` cover every assignment, but fold
only some: they count without walking the subtrees symmetric to one
already scanned, and the fairness scan also those that a counting bound
shows cannot beat its best leaf.  That bound shares no code with the
solver's flow, so the oracle stays a second route to its answers.

Each scan has one public wrapper, :func:`brute_force_fair` for fairness and
:func:`verify_no_fair_ef` for strong envy.  The entry points take one integer
budget, ``max_assignments`` (the assignments covered, skipped ones included);
an answer that needs more raises ``BudgetExceededError`` or reads inconclusive.
"""

from __future__ import annotations

import math
from itertools import combinations, compress, islice, product
from typing import Iterator, NamedTuple, Optional

from fairplay._scan import scan_fair, scan_verify
from fairplay.model import (
    Assignment,
    GVector,
    Problem,
    day_quotas,
    is_irreducible,
)

DEFAULT_MAX_ASSIGNMENTS = 10_000_000


class BudgetExceededError(RuntimeError):
    """The enumeration cap was hit before the answer was determined."""


def _require_irreducible(p: Problem, op: str) -> None:
    if not is_irreducible(p):
        raise ValueError(f"{op} requires an irreducible problem; reduce it first")


def _require_budget(max_assignments: int) -> None:
    if max_assignments < 1:
        raise ValueError("budget cap must be >= 1")


def count_efficient(p: Problem) -> int:
    """Exact number of distinct full-game assignments: the product over days
    of C(available, selected).  Arbitrary-precision, so never overflows."""
    _require_irreducible(p, "count_efficient")
    return _efficient_lists(p, 0)[1]


def _efficient_lists(
    p: Problem, max_leaves: int
) -> tuple[list[list[tuple[int, ...]]], int]:
    """Materialize each day's subsets in lexicographic order, but only as many
    as a scan of ``max_leaves`` leaves can ever touch, and count the
    full-game assignments (0 for an empty problem) from the same per-day
    sizes.  Each day's players come from one transpose of the matrix."""
    everyone = range(p.n)
    day_players = [tuple(compress(everyone, col)) for col in zip(*p.avail)]
    quotas = day_quotas(p)
    sizes = [math.comb(len(pl), take) for pl, take in zip(day_players, quotas)]
    total = math.prod(sizes)
    leaves = min(total, max_leaves)
    lists = []
    suffix = total
    for players, take, size in zip(day_players, quotas, sizes):
        suffix //= size
        needed = -(-leaves // suffix)  # the day's subsets that the leaves reach
        lists.append(list(islice(combinations(players, take), min(size, needed))))
    return lists, 0 if p.is_empty else total


def _assignment_from_choice(
    p: Problem, combos: list[list[tuple[int, ...]]], choice: tuple[int, ...]
) -> Assignment:
    n = p.n
    columns = []
    for day, ci in zip(combos, choice):
        column = [0] * n
        for i in day[ci]:
            column[i] = 1
        columns.append(column)
    return Assignment(tuple(zip(*columns)))


def enumerate_efficient(
    p: Problem, max_assignments: int = DEFAULT_MAX_ASSIGNMENTS
) -> Iterator[Assignment]:
    """Stream every full-game assignment exactly once, in odometer order.

    The problem and the budget are checked on the call.  The stream is a
    single-pass generator; when more than ``max_assignments`` assignments
    exist, it yields that many and then raises ``BudgetExceededError``."""
    _require_irreducible(p, "enumerate_efficient")
    _require_budget(max_assignments)
    return _odometer(p, max_assignments)


def _odometer(p: Problem, cap: int) -> Iterator[Assignment]:
    if p.is_empty:
        return
    combos, total = _efficient_lists(p, cap + 1)
    for choice in islice(product(*(range(len(day)) for day in combos)), cap):
        yield _assignment_from_choice(p, combos, choice)
    if total > cap:
        raise BudgetExceededError(
            f"enumeration budget of {cap} exceeded ({total} assignments exist)"
        )


def brute_force_fair(
    p: Problem, max_assignments: int = DEFAULT_MAX_ASSIGNMENTS
) -> tuple[GVector, Assignment]:
    """Exhaustively determine the lexicographically maximal fairness profile
    over all full-game assignments, plus the first assignment attaining it.

    ``BudgetExceededError`` is raised when the budget runs out first.  The
    scan's bound skips every subtree that cannot beat the best leaf so far,
    so a budget of every assignment can finish on club sheets with about
    10^19 of them."""
    _require_irreducible(p, "brute_force_fair")
    _require_budget(max_assignments)
    if p.is_empty:
        return GVector(()), Assignment(tuple(() for _ in range(p.n)))
    combos = _efficient_lists(p, max_assignments + 1)[0]
    scanned, complete, best_g, best_choice = scan_fair(
        combos, p.n, max_assignments
    )
    if not complete:
        raise BudgetExceededError(
            f"budget of {max_assignments} exhausted after {scanned} "
            f"assignments; the optimum cannot be certified from a partial scan"
        )
    return GVector(best_g), _assignment_from_choice(p, combos, best_choice)


class WitnessReport(NamedTuple):
    """Result of exhaustively checking one instance for a full-game,
    strongly envy-free assignment.

    ``conclusive`` is False only when the enumeration budget ran out first;
    a budget-limited run is never reported as a demonstrated impossibility.
    ``min_envy_pairs`` is the smallest violation-pair count seen over the
    scanned assignments (an invented severity measure, 0 iff ``ef_found``).
    """

    problem: Problem
    efficient_count: int
    first_ef_witness: Optional[Assignment]
    min_envy_pairs: int
    scanned: int
    conclusive: bool

    @property
    def ef_found(self) -> bool:
        return self.first_ef_witness is not None


def verify_no_fair_ef(
    p: Problem, max_assignments: int = DEFAULT_MAX_ASSIGNMENTS
) -> WitnessReport:
    """Scan every full-game assignment of an irreducible problem for strong
    envy-freeness.  ``ef_found=False`` with ``conclusive=True`` certifies that
    no assignment is simultaneously full-game and strongly envy-free (and
    therefore none is fairness-optimal and strongly envy-free either).  A
    scan cut by ``max_assignments`` is reported with ``conclusive=False``.
    An empty problem's witness is its empty assignment, found without a scan
    as in :func:`brute_force_fair`; ``efficient_count`` stays ``count_efficient``'s 0."""
    _require_irreducible(p, "verify_no_fair_ef")
    _require_budget(max_assignments)
    if p.is_empty:
        return WitnessReport(p, 0, Assignment(tuple(() for _ in range(p.n))), 0, 0, True)
    combos, total = _efficient_lists(p, max_assignments + 1)
    scanned, conclusive, choice, min_envy = scan_verify(
        combos, p.n, p.availability_counts(), max_assignments
    )
    witness = _assignment_from_choice(p, combos, choice) if choice is not None else None
    return WitnessReport(
        problem=p,
        efficient_count=total,
        first_ef_witness=witness,
        min_envy_pairs=min_envy,
        scanned=scanned,
        conclusive=conclusive,
    )


def exists_efficient_strongly_ef(
    p: Problem, max_assignments: int = DEFAULT_MAX_ASSIGNMENTS
) -> Optional[Assignment]:
    """First full-game assignment with no strong-envy violation, or None if
    the exhaustive scan proves there is none: the witness of
    :func:`verify_no_fair_ef`'s report, which must be conclusive."""
    report = verify_no_fair_ef(p, max_assignments)
    if not report.conclusive:
        raise BudgetExceededError(
            f"budget of {max_assignments} exhausted after {report.scanned} "
            f"assignments with no envy-free assignment found; absence not certified"
        )
    return report.first_ef_witness
