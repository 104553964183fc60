"""Witness instances where no assignment is both full-game and strongly
envy-free, and the bounded g = 2 search for one.  A witness is certified
by :func:`fairplay.oracle.verify_no_fair_ef`, the exhaustive strong-envy
scan; the search runs that scan, ``scan_verify``, on each candidate's day
lists directly and builds the full report only for a witness.

For group sizes g >= 3 a fixed family works: g players who force both of the
first two days, and 2g-1 players sharing three more days.  The three shared
days hand out 3g slots, fewer than 2(2g-1), so some flexible player ends up
with at most one game while every forced player has two; that player envies
all g of them.  For g = 2 that arithmetic fails (3g = 6 = 2(2g-1)), so this
module ships a bounded exhaustive search instead of a construction and
reports exactly what it covered.

The search visits one matrix per class under row and column permutations:
the canonical ones, grown a column at a time by orderly generation, so no
class is made twice and no dedup set is kept.  The matrices with a zero row
are taken from the level with one player fewer, and the canonicity greedy
runs once per parent: each child is tested against its parent's frontiers.
A size is searched only when its candidate pool, an estimate counted over
row multisets (C(2^m - 1 + n - 1, n) for n players and m days), is within
the cap; the pool is only this gate, not what the search generates.
"""

from __future__ import annotations

import math
from itertools import combinations, compress, product
from typing import NamedTuple, Optional

from fairplay._scan import scan_verify
from fairplay.model import Problem
from fairplay.oracle import (
    DEFAULT_MAX_ASSIGNMENTS,
    WitnessReport,
    _require_budget,
    verify_no_fair_ef,
)

_WITNESS_DAYS = ("Mon", "Tues", "Wed", "Thur", "Frid")
DEFAULT_PER_SIZE_CAP = 2_000_000


class _SearchBoundsFields(NamedTuple):
    max_players: int
    max_days: int
    per_instance_budget: int = DEFAULT_MAX_ASSIGNMENTS
    per_size_cap: int = DEFAULT_PER_SIZE_CAP


class SearchBounds(_SearchBoundsFields):
    """Limits for the g=2 witness search.

    Sizes whose candidate pool exceeds ``per_size_cap`` are skipped and
    reported, so a finished search states exactly what it covered.  The pool
    is an estimate that only gates the size: the count of row multisets (the
    canonical matrices searched are far fewer).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_players < 1 or self.max_days < 1:
            raise ValueError("bounds must be >= 1")
        _require_budget(self.per_instance_budget)
        if self.per_size_cap < 1:
            raise ValueError("per_size_cap must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable) -> "SearchBounds":  # so _replace validates too
        return cls(*iterable)


class G2SearchResult(NamedTuple):
    """Outcome of a bounded g=2 witness search."""

    witness: Optional[WitnessReport]
    instances_examined: int
    instances_inconclusive: int
    sizes_searched: tuple[tuple[int, int], ...]
    sizes_skipped: tuple[tuple[int, int], ...]

    @property
    def search_complete(self) -> bool:
        return self.witness is None and not (self.sizes_skipped or self.instances_inconclusive)


def _letter_names(count: int) -> tuple[str, ...]:
    names = []
    for i in range(count):
        name = ""
        v = i
        while True:
            name = chr(ord("a") + v % 26) + name
            v = v // 26 - 1
            if v < 0:
                break
        names.append(name)
    return tuple(names)


def build_table2() -> Problem:
    """The bundled 11-player impossibility instance for games of four:
    four players share the first two days, seven share the last three."""
    return build_witness(4)


def build_witness(g: int) -> Problem:
    """Witness family for group size g >= 3; g = 4 reproduces the bundled
    11-player instance exactly."""
    if g < 3:
        raise ValueError(
            "the fixed witness family needs group size >= 3; "
            "use search_witness_g2 for g = 2"
        )
    left, right = g, 2 * g - 1
    names = _letter_names(left + right)
    rows = [(1, 1, 0, 0, 0)] * left + [(0, 0, 1, 1, 1)] * right
    return Problem(names, _WITNESS_DAYS, tuple(rows), g)


# --------------------------------------------------------------------------- #
# Canonical forms and the g=2 search
# --------------------------------------------------------------------------- #

def _split(cells: tuple[int, ...], col: int) -> tuple[int, ...]:
    """Refine an ordered partition of the rows (one bit mask per cell) by a
    column: each cell's rows reading 0 come before its rows reading 1."""
    out = []
    for cell in cells:
        zero, one = cell & ~col, cell & col
        if zero:
            out.append(zero)
        if one:
            out.append(one)
    return tuple(out)


def _least_order(columns: tuple[int, ...], n: int) -> tuple[list, list]:
    """The greedy behind :func:`canonical_form` and the canonicity test of
    :func:`_orderly_levels`: the column orders whose reading is least, where
    ``columns`` are bit masks over the n rows.

    Branch and prune over column orders: per depth, keep exactly the prefixes
    whose sorted reading (the rows' prefix values, ascending) is least.  A
    prefix is held as its chosen columns and the ordered partition of the
    rows into equal prefix values; prefixes with equal entries have identical
    completions.  Every kept prefix has the same sorted reading, hence the
    same cell sizes, so an extension's reading is fixed by its key, the
    number of rows reading 1 in each cell, and fewer 1s in the first cell
    that differs reads lower.

    Return the frontiers of depths 0, ..., k, dicts from each kept prefix's
    ``(used, cells)`` (``used`` masks the columns) to its column order, and
    the least key of each depth 0, ..., k-1, which the next frontier reads.
    """
    frontiers = [{(0, ((1 << n) - 1,)): ()}]
    keys = []
    for _ in columns:
        best = None
        entries: dict[tuple, tuple[int, ...]] = {}
        for (used, cells), order in frontiers[-1].items():
            for c, col in enumerate(columns):
                if used >> c & 1:
                    continue
                key = tuple([(cell & col).bit_count() for cell in cells])
                if best is None or key < best:
                    best = key
                    entries = {}
                if key == best:
                    entries[(used | 1 << c, _split(cells, col))] = order + (c,)
        frontiers.append(entries)
        keys.append(best)
    return frontiers, keys


def canonical_form(matrix: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Least representative of a binary matrix under row and column
    permutations: minimal column-major reading with rows sorted ascending.

    Any column order that :func:`_least_order` keeps to the last depth reads
    it.  Reading prefixes are stable as columns are appended, so keeping
    only the least prefixes per depth is exact.
    """
    n = len(matrix)
    if n == 0:
        return ()
    m = len(matrix[0])
    if m == 0:
        return tuple(() for _ in range(n))
    frontiers, _ = _least_order(_column_masks(matrix), n)
    order = next(iter(frontiers[-1].values()))
    return tuple(sorted(tuple(row[c] for c in order) for row in matrix))


def _column_masks(matrix) -> tuple[int, ...]:
    """Each column of a 0/1 matrix as a bit mask over the rows (row i is
    bit i)."""
    return tuple(
        sum(row[c] << i for i, row in enumerate(matrix)) for c in range(len(matrix[0]))
    )


def _canonical_child_test(columns: tuple[int, ...], n: int):
    """Run the greedy once on a canonical matrix P, given by its column masks
    over ascending rows, and return the test of whether a new last column
    that keeps the rows ascending makes a canonical child ("Parent
    frontiers" in :func:`_orderly_levels`)."""
    frontiers, keys = _least_order(columns, n)
    last = len(columns)
    new = 1 << last  # c's bit in ``used``
    blocks = ((1 << n) - 1,)
    for col in columns:
        blocks = _split(blocks, col)

    def accepts(c: int) -> bool:
        survivors = set()
        for d, frontier in enumerate(frontiers):
            own = keys[d] if d < last else tuple([(cell & c).bit_count() for cell in blocks])
            kept = set()
            for used, cells in frontier:
                key = tuple([(cell & c).bit_count() for cell in cells])
                if key < own:
                    return False
                if key == own and d < last:
                    kept.add((used | new, _split(cells, c)))
            for used, cells in survivors:
                for j, col in enumerate(columns):
                    if used >> j & 1:
                        continue
                    key = tuple([(cell & col).bit_count() for cell in cells])
                    if key < own:
                        return False
                    if key == own and d < last:
                        kept.add((used | 1 << j, _split(cells, col)))
            survivors = kept
        return True

    return accepts


def _children(rows: tuple[int, ...]):
    """The new last columns of the children of an n x k matrix given by its
    ascending rows, as in :func:`_orderly_levels`: every column of weight
    >= 2 that keeps the rows ascending and the first row nonzero, as a bit
    mask over the rows.

    Within each block of equal rows the new bits run 0s then 1s, which keeps
    the rows ascending and makes each child exactly once.  When the first
    block is zero rows, it takes only its all-ones choice: any other choice
    leaves the first row zero, and :func:`_orderly_levels` takes those
    children from the level with one row fewer.
    """
    choices = []  # per block of equal rows: the masks of its new 1s
    start = 0
    for end in range(1, len(rows) + 1):
        if end < len(rows) and rows[end] == rows[start]:
            continue
        least = end - start if start == 0 and rows[0] == 0 else 0
        choices.append([((1 << t) - 1) << (end - t) for t in range(least, end - start + 1)])
        start = end
    for parts in product(*choices):
        col = sum(parts)
        if col.bit_count() >= 2:
            yield col


def _orderly_levels(n: int, below: list):
    """Yield, for k = 1, ..., len(below), every canonical n x k matrix whose
    columns all have weight >= 2 (rows may be zero), as ``(rows, columns)``
    pairs: ascending row ints (first column the most significant bit) and
    column bit masks over those rows.  ``below[k-1]`` is the same level for
    n - 1 rows; each is dropped from ``below`` as soon as it is taken.

    Orderly generation (Read 1978; McKay 1998): grow each canonical prefix
    by one column and keep the canonical children.  It is exact because the
    k-1 column prefix P of a canonical n x k matrix M is canonical.  Run the
    greedy of :func:`_least_order` on both.  By induction on depth, the
    prefixes it keeps on P are those it keeps on M that avoid M's last
    column: P's extensions are among M's, so none reads below M's least
    reading, and M's own column order, which reads that least reading since
    M is canonical, is among them below depth k.  So P's least reading at
    every depth is its own prefix, that is ``canonical_form(P) == P``.
    Every canonical M thus arises as a child of a canonical P, and only
    once; weight >= 2 is final once a column is added.

    Two shortcuts keep exactly the same matrices.

    Zero rows.  A zero row reads 0 in every column, so it stays in the first
    cell of every partition and adds no 1 to any count.  The greedy on
    ``[0; P]`` thus runs in step with the greedy on P: each key is P's key,
    with a leading 0 where the zero row sits alone in the first cell, and
    since every kept prefix has the same cell sizes, that holds for all the
    keys of a depth or for none.  So ``[0; P]`` is canonical exactly when P
    is; its rows ascend and its columns keep their weights.  The entries
    with a zero first row are therefore the n - 1 row level with a zero row
    on top: rows ``(0,) + r``, columns ``c << 1`` (row i moves to bit
    i + 1).  :func:`_children` makes only the others.

    Parent frontiers.  The greedy runs once per parent P with k columns,
    keeping each depth's frontier and least key, and each child M = P + c
    is tested against them (:func:`_canonical_child_test`).  Since M's rows
    ascend, M is canonical exactly when no prefix reads below M's own key
    at any depth d = 0, ..., k: P's least key for d < k, as P is canonical,
    and at d = k c's key on P's last own partition, the blocks of equal
    rows.  While none does, M's least keys are P's, so the prefixes kept on
    M at depth d are P's frontier and the survivors holding c.  Only P's
    depth d frontier extended by c, and those survivors extended by P's
    unused columns, can then read below; P's own extensions cannot.
    """
    level = [((0,) * n, ())]
    for k in range(len(below)):
        lifted, below[k] = below[k], None
        grown = [((0,) + rows, tuple([c << 1 for c in cols])) for rows, cols in lifted]
        del lifted
        for rows, columns in level:
            accepts = _canonical_child_test(columns, n)
            for col in _children(rows):
                if accepts(col):
                    child_rows = tuple([2 * r + (col >> i & 1) for i, r in enumerate(rows)])
                    grown.append((child_rows, columns + (col,)))
        level = grown
        yield level


def search_witness_g2(bounds: SearchBounds) -> G2SearchResult:
    """Bounded exhaustive hunt for a g=2 instance with no full-game strongly
    envy-free assignment.

    Sizes are visited in (players, days) order.  Within a size, the
    candidates are the canonical forms of the size's irreducible matrices,
    one per class under row and column permutations, in ascending order of
    canonical form.  The first witness (by this order) is returned as its
    report, whose ``problem`` is the instance.  ``search_complete`` is True
    only when no size was skipped and no instance was inconclusive, so a
    negative result states its exact coverage.

    Each candidate gets one ``scan_verify`` call on its days' full subset
    lists, each built once per search from the day's players, and on the
    candidate matrix as its availability rows; under the same budget it answers
    as :func:`verify_no_fair_ef` would.  Only a witness, a conclusive scan
    with no envy-free assignment, is labelled p1.. and d1.. and gets that
    full report.
    """
    examined = 0
    inconclusive = 0
    searched: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    # the instances' labels, p1..pn and d1..dm, sliced per size
    names = tuple(f"p{i + 1}" for i in range(bounds.max_players))
    labels = tuple(f"d{k + 1}" for k in range(bounds.max_days))
    everyone = range(bounds.max_players)
    # a day's column -> all subsets of its players of the day's quota, in
    # lexicographic order: 1 or c of them for c players, never more than n
    day_lists: dict[tuple[int, ...], list] = {}

    levels: list = [[]] * bounds.max_days  # one row fits no column of weight >= 2
    for n in range(2, bounds.max_players + 1):
        # the pool grows with m, so the sizes within the cap are m = 1..days;
        # it grows with n too, so the n - 1 row levels cover them
        days = sum(
            math.comb((1 << m) - 1 + n - 1, n) <= bounds.per_size_cap
            for m in range(1, bounds.max_days + 1)
        )
        below, levels = levels[:days], []
        for m, level in enumerate(_orderly_levels(n, below), 1):
            levels.append(level)
            searched.append((n, m))
            for matrix in _candidates_dedup(level, m):
                examined += 1
                # no zero row and every column of weight >= 2: irreducible
                # at g = 2, so the scan needs no Problem and no check
                combos = []
                for col in zip(*matrix):
                    subsets = day_lists.get(col)
                    if subsets is None:
                        players = tuple(compress(everyone, col))
                        subsets = day_lists[col] = list(
                            combinations(players, len(players) & ~1))
                    combos.append(subsets)
                _, conclusive, choice, _ = scan_verify(
                    combos, matrix, bounds.per_instance_budget)
                if not conclusive:
                    inconclusive += 1
                elif choice is None:
                    p = Problem(names[:n], labels[:m], matrix, 2)
                    return G2SearchResult(
                        witness=verify_no_fair_ef(p, bounds.per_instance_budget),
                        instances_examined=examined,
                        instances_inconclusive=inconclusive,
                        sizes_searched=tuple(searched),
                        sizes_skipped=tuple(skipped),
                    )
        skipped.extend((n, m) for m in range(days + 1, bounds.max_days + 1))

    return G2SearchResult(
        witness=None,
        instances_examined=examined,
        instances_inconclusive=inconclusive,
        sizes_searched=tuple(searched),
        sizes_skipped=tuple(skipped),
    )


def _candidates_dedup(level, m: int):
    """The n x m matrices of an orderly level with no zero row, in ascending
    order; rows ascend, so the first row is the least.  Each row int is
    read from one table of all 2^m rows, built once for the level."""
    table = [tuple(r >> k & 1 for k in range(m - 1, -1, -1)) for r in range(1 << m)]
    for rows in sorted(rows for rows, _ in level if rows[0]):
        yield tuple(map(table.__getitem__, rows))
