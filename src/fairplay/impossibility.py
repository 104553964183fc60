"""Witness instances where no assignment is both full-game and strongly
envy-free, and the bounded g = 2 search for one.  A witness is certified
by :func:`fairplay.oracle.verify_no_fair_ef`, the exhaustive strong-envy
scan.  At g = 2 an even day seats all its players and an odd day all but
one, so a leaf is one sit-out per odd day, and the search decides each
candidate on bit masks: the rows grouped by availability, and the
sit-outs as nested layers of rows.  Within the leaf budget it tries the
greedy leaf, which sits out a least available player; otherwise, or when
that leaf is not strongly envy-free, it walks at most ``budget`` leaves
in the scan's odometer order, which gives the scan's answer under the
same budget.  It runs no scan; only a witness gets the full report.

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
runs once per parent.  Each child is then decided against its parent's
frontiers by one packed sum: one int per choice of new 1s in a block of
the parent's equal rows holds the choice's column bits and every frontier
key it adds to, so the child's column and all its keys come out of one
sum, and two subtractions compare every key with its least at once.  Only
a child with a key equal to its least gets the bit-level test.
A size is searched only when its candidate pool, an estimate counted over
row multisets (C(2^m - 1 + n - 1, n) for n players and m days), is within
the cap; the pool is only this gate, not what the search generates.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

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


def _tie_accepts(c: int, columns: tuple[int, ...], frontiers: list, keys: list, blocks) -> bool:
    """The bit-level canonicity test of a child M = P + c of a canonical
    matrix P, given by its column masks over ascending rows, from the
    greedy's frontiers and least keys on P and P's blocks of equal rows
    ("Parent frontiers" in :func:`_orderly_levels`): whether no prefix
    reads below M's own key at any depth."""
    last = len(columns)
    new = 1 << last  # c's bit in ``used``
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


def _canonical_children(rows: tuple[int, ...], columns: tuple[int, ...], n: int):
    """Yield the new last columns, as bit masks over the rows, of the
    canonical children of a canonical n x k matrix P, given by its
    ascending rows and its column masks ("Parent frontiers" and "Packed
    keys" in :func:`_orderly_levels`).

    A child's column has weight >= 2 and, within each block of P's equal
    rows, runs 0s then 1s, which keeps the rows ascending and makes each
    child exactly once.  When the first block is zero rows, it takes only
    its all-ones choice: any other choice leaves the first row zero, and
    :func:`_orderly_levels` takes those children from the level with one
    row fewer."""
    frontiers, keys = _least_order(columns, n)
    k = len(columns)
    # P's blocks of equal rows, as bit masks in row order: at depth k every
    # column is used, so each cell of a depth-k entry is one block, and the
    # blocks are runs of rows, so their masks sort in row order
    blocks = tuple(sorted(next(iter(frontiers[k]))[1]))
    # one segment per frontier entry below depth k, above the column's n
    # bits: a w-bit field per cell, first cell most significant, and a
    # guard bit on top; ``units[b]`` has a 1 in the field of the cell that
    # holds block b, in every segment
    w = (n + 1).bit_length()
    units = [0] * len(blocks)
    least = guards = lows = 0
    shift = n
    for d in range(k):
        packed = 0
        for count in keys[d]:
            packed = packed << w | count
        for _, cells in frontiers[d]:
            lows |= 1 << shift
            least |= packed << shift
            for cell in reversed(cells):
                for b, block in enumerate(blocks):
                    if block & cell:
                        units[b] |= 1 << shift
                shift += w
            guards |= 1 << shift
            shift += 1
    # the depth k entries other than P's own order: P's blocks, permuted
    others = [
        [blocks.index(cell) for cell in cells] for _, cells in frontiers[k] if cells != blocks
    ]

    sums = [0]
    for b, block in enumerate(blocks):
        size, end = block.bit_count(), block.bit_length()
        first = size if end == size and rows[0] == 0 else 0
        sums = [
            s + (((1 << t) - 1) << (end - t)) + t * units[b]
            for s in sums
            for t in range(first, size + 1)
        ]
    full = (1 << n) - 1
    strict = least + lows - guards  # (key | guards) - (least + lows)
    below = least - guards
    for key in sums:
        col = key & full
        if col.bit_count() < 2:
            continue
        if (key - strict) & guards == guards:
            # every entry reads above its least key, so none survives
            if others:
                counts = [(col & block).bit_count() for block in blocks]
                if any([counts[p] for p in perm] < counts for perm in others):
                    continue
            yield col
        elif (key - below) & guards == guards:
            if _tie_accepts(col, columns, frontiers, keys, blocks):
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
    i + 1).  :func:`_canonical_children` makes only the others.

    Parent frontiers.  The greedy runs once per parent P with k columns,
    keeping each depth's frontier and least key, and each child M = P + c
    is decided against them (:func:`_canonical_children`).  Since M's rows
    ascend, M is canonical exactly when no prefix reads below M's own key
    at any depth d = 0, ..., k: P's least key for d < k, as P is canonical,
    and at d = k c's key on P's last own partition, the blocks of equal
    rows.  While none does, M's least keys are P's, so the prefixes kept on
    M at depth d are P's frontier and the survivors holding c, the prefixes
    whose extension by c read a least key.  Only P's depth d frontier
    extended by c, and those survivors extended by P's unused columns, can
    then read below; P's own extensions cannot.

    Packed keys.  Every cell of a prefix the greedy keeps on P is a union
    of P's blocks of equal rows, since the blocks are P's finest partition,
    and c puts t_b ones at the top of each block b.  So the key of c on a
    frontier entry is a sum over blocks: each cell counts the t_b of the
    blocks it holds.  Each entry below depth k gets a segment of an int,
    above the n column bits: a field of w = (n+1).bit_length() bits per
    cell, first cell most significant, with a guard bit on top.  A choice
    (b, t) is one int, its column bits plus t in the field of b's cell in
    every segment, so the sum of a child's choices is its column with the
    key K of every entry in its segment.  No field carries, as a count is at
    most n < 2^w - 1.  With G the guard bits, W P's least keys packed the
    same way and L the low bit of each segment, ``(K | G) - (W + L)`` keeps
    a segment's guard exactly when its key reads above the least key, and
    ``(K | G) - W`` exactly when it does not read below; no borrow crosses
    a guard.  So:

    - strict, every guard kept by the first: no entry extended by c reads
      a least key or below it, so no survivor ever forms, and M is
      canonical unless a depth k entry other than P's own order, whose
      cells are P's blocks permuted, reads c's block counts below their
      own order;
    - below, a guard lost by the second: some entry of P's frontier at a
      depth d < k, kept on M as well, reads below M's own key, and M is not
      canonical;
    - tie, otherwise: some key equals its least, so survivors may form and
      may read below at a later depth through P's unused columns, which
      the packing does not hold.  Only then does the bit-level test
      (:func:`_tie_accepts`) run, on the same frontiers.
    """
    level = [((0,) * n, ())]
    for k in range(len(below)):
        lifted, below[k] = below[k], None
        grown = [((0,) + rows, tuple([c << 1 for c in cols])) for rows, cols in lifted]
        del lifted
        for rows, columns in level:
            for col in _canonical_children(rows, columns, n):
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

    Each candidate gets one decision on bit masks, :func:`_decide`, on its
    row ints and column masks.  When its leaf count, the product of its
    odd days' player counts, is within the budget, the greedy leaf sits
    out, on each odd day in column order, one of the day's least available
    players, the one with the most games so far, then the first; when it
    is strongly envy-free the candidate is settled.  Otherwise
    :func:`_first_ef_leaf` walks the sit-out vectors in ``scan_verify``'s
    odometer order, each odd day's highest row first, and returns the
    first envy-free one within ``budget`` leaves, or None.  The scan's
    orbit memo skips only subtrees with no envy-free leaf and counts them
    against the budget, so it finds one exactly when the first in odometer
    order lies within the budget, as the walk does; both are conclusive
    exactly when they find one or cover every leaf.  The search reads only
    whether the answer was conclusive and whether it found one, so
    examined and inconclusive counts and the first witness are those of a
    scan on every candidate.

    Only a witness, a conclusive answer with no envy-free assignment, gets
    a tuple matrix, labels p1.. and d1.. and the full
    :func:`verify_no_fair_ef` report.  The walk has none of the scan's
    orbit pruning, so the worst cases walk leaf by leaf: a candidate with
    no envy-free leaf within the budget, where the search then stops, and
    one over the budget whose first envy-free leaf lies past it, which
    costs ``budget`` leaves.  Every greedy miss up to (7,5) has an
    envy-free leaf.
    """
    examined = 0
    inconclusive = 0
    searched: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    budget = bounds.per_instance_budget
    # the instances' labels, p1..pn and d1..dm, sliced per size
    names = tuple(f"p{i + 1}" for i in range(bounds.max_players))
    labels = tuple(f"d{k + 1}" for k in range(bounds.max_days))

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
            # no zero row and every column of weight >= 2: irreducible at
            # g = 2, so the decision needs no Problem
            for rows, columns in _candidates(level):
                examined += 1
                conclusive, choice = _decide(rows, columns, budget)
                if not conclusive:
                    inconclusive += 1
                elif choice is None:
                    p = Problem(names[:n], labels[:m], _matrix(rows, m), 2)
                    return G2SearchResult(
                        witness=verify_no_fair_ef(p, budget),
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


def _candidates(level):
    """The entries of an orderly level with no zero row, ``(rows,
    columns)``, in ascending order of their matrices: rows ascend, so the
    first row is the least, and row ints read a matrix's rows in order.
    No two entries share their rows, so the sort never reads columns."""
    return sorted(entry for entry in level if entry[0][0])


def _matrix(rows, m: int) -> tuple[tuple[int, ...], ...]:
    """The 0/1 matrix of m columns whose rows are the ints ``rows``, first
    column the most significant bit."""
    return tuple(tuple([r >> k & 1 for k in range(m - 1, -1, -1)]) for r in rows)


def _decide(rows, columns, budget: int):
    """One candidate's answer, as ``(conclusive, choice)``: ``choice`` picks
    an efficient strongly envy-free assignment, one index into each day's
    lexicographic subset list, or is None when the candidate has none or
    the budget ran out first.  ``rows`` are the candidate's row ints and
    ``columns`` its column masks over the rows (row i is bit i).

    The answer is read off bit masks, with the rows grouped by
    availability into levels.  The greedy leaf seats all of an even day's
    players; on each odd day, in column order, one player sits out: of the
    least available level that meets the day, the rows with the fewest
    sit-outs so far, that is the most games, and of those the lowest row.
    The sit-outs are nested layers: ``out[k]`` holds the rows that sat out
    more than k times, so the rows with the fewest sit-outs are those the
    first layer k not holding all of them leaves out, and each then has k
    sit-outs.  A row sits out at most once a day, so the last of the m
    layers stays empty until the last day.  Sitting out row j of a day's c
    players is subset c - 1 - j of its list.  When the candidate's leaves
    are within the budget and that leaf is strongly envy-free, it is the
    answer.  Otherwise :func:`_first_ef_leaf` walks at most ``budget``
    leaves, and the answer is conclusive when it found one or walked them
    all: ``scan_verify``'s answer under the same budget."""
    masks: dict[int, int] = {}
    bit = 1
    for r in rows:
        count = r.bit_count()
        masks[count] = masks.get(count, 0) | bit
        bit <<= 1
    levels = sorted(masks.items())
    out = [0] * len(columns)
    choice = []
    leaves = 1  # counted on the greedy's pass over the days
    for col in columns:
        c = col.bit_count()
        if not c & 1:
            choice.append(0)
            continue
        leaves *= c
        for _, level in levels:
            meet = level & col
            if meet:
                break
        k = 0
        fewest = meet & ~out[0]
        while not fewest:
            k += 1
            fewest = meet & ~out[k]
        row = fewest & -fewest
        out[k] |= row
        choice.append(c - 1 - (col & row - 1).bit_count())
    if leaves <= budget and _envy_free(levels, out):
        return True, tuple(choice)
    first = _first_ef_leaf(levels, columns, budget)
    return first is not None or leaves <= budget, first


def _first_ef_leaf(levels, columns, budget: int):
    """The first strongly envy-free leaf of a g = 2 candidate in
    ``scan_verify``'s odometer order, as a choice, or None when none lies
    within the first ``budget`` leaves; ``levels`` are its availability
    levels, ``(count, mask)`` pairs in ascending order of count, and
    ``columns`` its column masks.

    Day 0 varies slowest.  Subset s of an odd day's c players sits out its
    player c - 1 - s, so each odd day tries its highest row first; an even
    day has one subset.  Each leaf's sit-outs are the nested layers of
    :func:`_decide`, grown and undone as the walk goes.  The walk has none
    of the scan's orbit pruning, so a candidate whose first envy-free leaf
    lies past the budget costs ``budget`` leaves."""
    out = [0] * len(columns)
    choice = [0] * len(columns)
    odd = [d for d, col in enumerate(columns) if col.bit_count() & 1]
    left = budget

    def visit(t):
        nonlocal left
        if t == len(odd):
            left -= 1
            return _envy_free(levels, out)
        d = odd[t]
        rest = columns[d]
        for s in range(rest.bit_count()):
            if not left:
                return False
            row = 1 << rest.bit_length() - 1
            rest ^= row
            k = 0
            while out[k] & row:
                k += 1
            out[k] |= row
            found = visit(t + 1)
            out[k] ^= row
            if found:
                choice[d] = s
                return True
        return False

    return tuple(choice) if visit(0) else None


def _envy_free(levels, out) -> bool:
    """Whether a leaf is strongly envy-free: no row has fewer games than a
    row of lower availability.  ``levels`` are the availability levels and
    ``out`` the leaf's nested sit-out layers.

    A row's games are its count less its sit-outs.  The layers are nested,
    so the layers meeting a level number its most sit-outs, and those
    holding all of it its fewest: the level's least and most games.  The
    leaf is envy-free exactly when no level's least games fall below
    ``top``, the most games of any lower level."""
    top = 0
    for count, level in levels:
        least = most = count
        for layer in out:
            if not layer & level:
                break
            least -= 1
            if layer & level == level:
                most -= 1
        if least < top:
            return False
        if most > top:
            top = most
    return True
