"""Witness instances where no assignment is both full-game and strongly
envy-free, and the bounded g = 2 search for one.  A witness is certified
by :func:`fairplay.oracle.verify_no_fair_ef`, the exhaustive strong-envy
scan.

For group sizes g >= 3 a fixed family works: g players who force both of the
first two days, and 2g-1 players sharing three more days.  The three shared
days hand out 3g slots, fewer than 2(2g-1), so some flexible player ends up
with at most one game while every forced player has two; that player envies
all g of them.  For g = 2 that arithmetic fails (3g = 6 = 2(2g-1)), so this
module ships a bounded exhaustive search instead of a construction and
reports exactly what it covered (:func:`search_witness_g2`).

The search has two parts.  Generation (:func:`_orderly_levels`) makes the
canonical matrices, one per class under row and column permutations, a
column at a time, each held as its tuple of column masks.  The decision
(:func:`_decide`) answers each on bit masks as the scan would, with no scan.
"""

from __future__ import annotations

import math
from itertools import islice
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
    is an estimate that only gates the size: the count of row multisets,
    C(2^m - 1 + n - 1, n) for n players and m days (the canonical matrices
    searched are far fewer).
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

    Return the frontiers of depths 0, ..., k, sets of each kept prefix's
    ``(used, cells)`` (``used`` masks the columns), and the least key of
    each depth 0, ..., k-1, which the next frontier reads.
    """
    frontiers = [{(0, ((1 << n) - 1,))}]
    keys = []
    for _ in columns:
        best = None
        entries: set[tuple] = set()
        for used, cells in frontiers[-1]:
            for c, col in enumerate(columns):
                if used >> c & 1:
                    continue
                key = tuple([(cell & col).bit_count() for cell in cells])
                if best is None or key < best:
                    best = key
                    entries = set()
                if key == best:
                    entries.add((used | 1 << c, _split(cells, col)))
        frontiers.append(entries)
        keys.append(best)
    return frontiers, keys


def canonical_form(matrix: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Least representative of a binary matrix under row and column
    permutations: minimal column-major reading with rows sorted ascending.

    Any column order that :func:`_least_order` keeps to the last depth reads
    it.  Reading prefixes are stable as columns are appended, so keeping
    only the least prefixes per depth is exact.  The least keys spell it
    out: at each depth the kept prefixes share their cell sizes, each cell
    holds a run of the sorted rows, and a cell of size s with key t reads
    s - t zeros, then t ones.
    """
    n = len(matrix)
    if n == 0:
        return ()
    if not matrix[0]:
        return tuple(() for _ in range(n))
    frontiers, keys = _least_order(_column_masks(matrix), n)
    columns = []
    for entries, key in zip(frontiers, keys):
        _, cells = next(iter(entries))
        column = []
        for cell, t in zip(cells, key):
            column += [0] * (cell.bit_count() - t) + [1] * t
        columns.append(column)
    return tuple(zip(*columns))


def _column_masks(matrix) -> tuple[int, ...]:
    """Each column of a 0/1 matrix as a bit mask over the rows (row i is
    bit i)."""
    return tuple(
        sum(row[c] << i for i, row in enumerate(matrix)) for c in range(len(matrix[0]))
    )


def _tie_accepts(c: int, columns: tuple[int, ...], frontiers: list, keys: list) -> bool:
    """Whether the child M = P + c of a canonical k-column matrix P is
    canonical, from P's column masks, its frontiers of depths 0, ..., k and
    ``keys``: P's least keys, then c's own depth-k key, its counts in P's
    blocks of equal rows.  Exact whenever M's rows ascend ("Parent
    frontiers" in :func:`_orderly_levels`): at each depth d it extends
    every entry of P's depth d frontier by c and every survivor by each of
    P's unused columns; a key below ``keys[d]`` rejects M, and an equal one
    survives to depth d + 1."""
    last = len(columns)
    new = 1 << last  # c's bit in ``used``
    survivors = set()
    for d, own in enumerate(keys):
        kept = set()
        for used, cells in frontiers[d]:
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


def _canonical_children(zero: bool, columns: tuple[int, ...], n: int):
    """Yield the new last columns, as bit masks over the rows, of the
    canonical children of a canonical n x k matrix P, given by its column
    masks; ``zero`` says that P's first row is zero, that is no column has
    bit 0.  A child's column has weight >= 2 and, within each block of P's
    equal rows, runs 0s then 1s, so the rows ascend and each child is made
    once.  The greedy runs once, on P; the children are grown under the
    bound and decided by their packed keys ("Zero rows", "Parent
    frontiers", "Packed keys" and "Bound" in :func:`_orderly_levels`)."""
    frontiers, keys = _least_order(columns, n)
    k = len(columns)
    # P's blocks of equal rows, as bit masks in row order: at depth k every
    # column is used, so each cell of a depth-k entry is one block, and the
    # blocks are runs of rows, so their masks sort in row order
    blocks = tuple(sorted(next(iter(frontiers[k]))[1]))
    # one segment per frontier entry below depth k ("Packed keys");
    # ``units[b]`` has a 1 in the field of the cell that holds block b, in
    # every segment
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

    full = (1 << n) - 1
    strict = least + lows - guards  # (key | guards) - (least + lows)
    for key in _bounded_sums(blocks, units, least - guards, guards, zero):
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
        elif _tie_accepts(col, columns, frontiers,
                          keys + [tuple([(col & block).bit_count() for block in blocks])]):
            yield col


def _bounded_sums(blocks, units: list, below: int, guards: int, zero: bool) -> list:
    """The packed sums of the child columns of a parent P on which no
    frontier entry reads below its least key ("Packed keys" and "Bound" in
    :func:`_orderly_levels`), from P's blocks of equal rows, their
    ``units``, ``below`` = W - G and the guards G.  Each block b chooses
    t = 0, ..., |b| new 1s, at its top; when ``zero``, the first block is
    zero rows and takes only its all-ones choice.  A partial sum x over
    the blocks up to b is kept while ``(x + rest[b + 1]) - below`` keeps
    every guard, ``rest[b + 1]`` holding every later block all ones."""
    rest = [0] * (len(blocks) + 1)
    for b in range(len(blocks) - 1, -1, -1):
        rest[b] = rest[b + 1] + blocks[b] + blocks[b].bit_count() * units[b]
    sums = [0]
    for b, block in enumerate(blocks):
        size, end = block.bit_count(), block.bit_length()
        first = size if zero and b == 0 else 0
        bound = rest[b + 1] - below
        steps = [(((1 << t) - 1) << (end - t)) + t * units[b] for t in range(first, size + 1)]
        sums = [x for s in sums for step in steps if ((x := s + step) + bound) & guards == guards]
    return sums


def _orderly_levels(n: int, below: list):
    """Yield, for k = 1, ..., len(below), every canonical n x k matrix whose
    columns all have weight >= 2 (rows may be zero), as ``(level, start)``.
    Each entry of ``level`` is a matrix's tuple of column masks, bit i for
    row i, its rows ascending when each is read with its first column the
    most significant bit.  The entries before ``start`` are those with a
    zero first row, lifted from ``below[k-1]``, the same level for n - 1
    rows, which is dropped from ``below`` as soon as it is taken; the
    entries from ``start`` on, grown from the level before, are the others,
    the candidates of the search.

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

    Zero rows.  A zero row reads 0 in every column, so it stays in the first
    cell of every partition and adds no 1 to any count.  The greedy on
    ``[0; P]`` thus runs in step with the greedy on P: each key is P's key,
    with a leading 0 where the zero row sits alone in the first cell, and
    since every kept prefix has the same cell sizes, that holds for all the
    keys of a depth or for none.  So ``[0; P]`` is canonical exactly when P
    is; its rows ascend and its columns keep their weights.  The entries
    with a zero first row are therefore the n - 1 row level with a zero row
    on top: columns ``c << 1`` (row i moves to bit i + 1).  A level holds
    them first; :func:`_canonical_children` makes only the others, and a
    parent's first row is zero exactly when it lies before its level's
    ``start``.

    Parent frontiers.  The greedy runs once per parent P with k columns,
    keeping each depth's frontier and least key, and each child M = P + c
    is decided against them.  Since M's rows ascend, M is canonical
    exactly when no prefix reads below M's own key at any depth
    d = 0, ..., k: P's least key for d < k, as P is canonical, and at
    d = k c's key on P's last own partition, the blocks of equal rows.
    While none does, M's least keys are P's, so the prefixes kept on M at
    depth d are P's frontier and the survivors holding c, the prefixes
    whose extension by c read a least key.  Only P's depth d frontier
    extended by c, and those survivors extended by P's unused columns, can
    then read below; P's own extensions cannot.  :func:`_tie_accepts` is
    this argument as code, so it is exact on any child whose rows ascend.

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
      (:func:`_tie_accepts`) run, on P's frontiers themselves.

    Bound (Land & Doig 1960).  The below children are never built
    (:func:`_bounded_sums`).  A child's sum is grown block by block, and
    every count only grows as later blocks add their 1s, so each
    completion of a partial sum is fieldwise at most its fullest one,
    every later block all ones, and a segment fieldwise at most another
    reads lexicographically at most it.  A partial sum whose fullest
    completion reads below some least key has only below children, and is
    dropped; at the last block that completion is the sum itself, so no
    sum kept reads below.  Up to (7,4) this leaves 7,644 of the 26,034
    children of weight >= 2 for the packed test.
    """
    level, start = [()], 1  # no columns: the first row is zero
    for k in range(len(below)):
        lifted, below[k] = below[k], None
        grown = [tuple([c << 1 for c in cols]) for cols in lifted]
        del lifted
        first = len(grown)
        for i, columns in enumerate(level):
            for col in _canonical_children(i < start, columns, n):
                grown.append(columns + (col,))
        level, start = grown, first
        yield level, start


def search_witness_g2(bounds: SearchBounds) -> G2SearchResult:
    """Bounded exhaustive hunt for a g=2 instance with no full-game strongly
    envy-free assignment.

    Sizes are visited in (players, days) order.  Within a size, the
    candidates are the canonical forms of the size's irreducible matrices,
    one per class under row and column permutations, and the search
    reports as if it took them in ascending order of canonical form: the
    first witness by this order is returned as its report, whose
    ``problem`` is the instance, and only the candidates up to it count.
    ``search_complete`` is True only when no size was skipped and no
    instance was inconclusive, so a negative result states its exact
    coverage.  The examined and inconclusive counts and the first witness
    are those of ``scan_verify`` under the same budget on every candidate
    (:func:`_decide`).  Only a witness gets a tuple matrix, labels p1..
    and d1.. and the full :func:`verify_no_fair_ef` report.

    The candidates are the level's entries from its ``start`` on
    (:func:`_orderly_levels`), each decided once on its column masks, in
    the order the level holds them, which is not ascending; none is
    sorted.  A size with witnesses is decided to its end, past where a
    search in ascending order would stop, keeping the least witness's
    rows and the inconclusive candidates' columns; one linear pass over
    the candidates then counts those at or below the least witness as
    examined, and the inconclusive ones strictly below it.  No two
    candidates share their rows, so these are the counts, and the
    witness, of a search in ascending order that stops at its first
    witness.  Row ints (:func:`_rows`) are built only on this path.
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
        for m, (level, start) in enumerate(_orderly_levels(n, below), 1):
            levels.append(level)
            searched.append((n, m))
            # no zero row and every column of weight >= 2: irreducible at
            # g = 2, so the decision needs no Problem
            least = None  # the least witness's rows
            unsure = []  # the inconclusive candidates' columns
            for columns in islice(level, start, None):
                conclusive, choice = _decide(columns, budget)
                if not conclusive:
                    unsure.append(columns)
                elif choice is None:
                    rows = _rows(columns, n)
                    if least is None or rows < least:
                        least = rows
            if least is None:
                examined += len(level) - start
                inconclusive += len(unsure)
                continue
            examined += sum(1 for columns in islice(level, start, None)
                            if _rows(columns, n) <= least)
            inconclusive += sum(1 for columns in unsure if _rows(columns, n) < least)
            p = Problem(names[:n], labels[:m], _matrix(least, m), 2)
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


def _rows(columns, n: int) -> tuple[int, ...]:
    """The row ints of the n-row matrix whose columns are the bit masks
    ``columns`` (row i is bit i), first column the most significant bit."""
    rows = [0] * n
    for col in columns:
        rows = [2 * r + (col >> i & 1) for i, r in enumerate(rows)]
    return tuple(rows)


def _matrix(rows, m: int) -> tuple[tuple[int, ...], ...]:
    """The 0/1 matrix of m columns whose rows are the ints ``rows``, first
    column the most significant bit."""
    return tuple(tuple([r >> k & 1 for k in range(m - 1, -1, -1)]) for r in rows)


def _decide(columns, budget: int):
    """One candidate's answer, as ``(conclusive, choice)``: ``choice`` picks
    an efficient strongly envy-free assignment, one index into each day's
    lexicographic subset list, or is None when the candidate has none or
    the budget ran out first.  ``columns`` are the candidate's column
    masks over its rows (row i is bit i).  At g = 2 an efficient
    assignment seats all of an even day's players and all but one of an
    odd day's, so a leaf is one sit-out per odd day.

    The answer is read off bit masks, with the rows grouped by
    availability into levels, ascending by count.  A bit-sliced counter
    adds the columns up: bit i of plane j is bit j of row i's count, and
    a column adds 1 to each of its rows by a ripple of carries through
    the planes.  Three planes count to 7; a fourth, from 8 days on, and
    one more at each doubling, keep the count exact for any number of
    days.  A level is then the rows whose planes spell its count, read
    as the low two bits against the higher ones.  A row in no column
    plays no day and envies no one, so the levels start at count 1.

    The greedy leaf sits out, on each odd day in column order, the lowest
    row of those with the fewest sit-outs so far, that is the most games,
    in the least available level that meets the day.  The sit-outs are
    nested layers: ``out[k]`` holds the rows that sat out more than k
    times, so the rows with the fewest sit-outs are those the first layer
    k not holding all of them leaves out, and each then has k sit-outs.
    A row sits out at most once a day, so the last of the m layers stays
    empty until the last day.  Sitting out row j of a day's c players is
    subset c - 1 - j of its list.  When the candidate's leaves are within
    the budget and that leaf is strongly envy-free, it is the answer.
    Otherwise :func:`_first_ef_leaf` walks at most ``budget`` leaves, and
    the answer is conclusive when it found one or walked them all; every
    greedy miss up to (7,5) has an envy-free leaf.  That is
    ``scan_verify``'s answer under the same budget: the scan's orbit memo
    skips only subtrees with no envy-free leaf and counts them against
    the budget, so it finds one exactly when the first in odometer order
    lies within the budget, as the walk does, and both are conclusive
    exactly when they find one or cover every leaf.  The search reads only
    whether the answer was conclusive and whether it found one."""
    a = b = c = 0  # the counts' planes 0, 1 and 2
    high = [0] * (len(columns).bit_length() - 3)  # planes 3, ...
    for col in columns:
        carry = a & col
        a ^= col
        carry, b = b & carry, b ^ carry
        carry, c = c & carry, c ^ carry
        j = 0
        while carry:
            plane = high[j]
            high[j] = plane ^ carry
            carry &= plane
            j += 1
    low = (~a & ~b, a & ~b, ~a & b, a & b)  # the rows by count mod 4
    top = [~c, c]  # the rows by count // 4
    for plane in high:
        top = [mask & ~plane for mask in top] + [mask & plane for mask in top]
    levels = [
        (count, mask) for count in range(1, len(columns) + 1)
        if (mask := low[count & 3] & top[count >> 2])
    ]
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
    within the first ``budget`` leaves, from its availability ``levels``
    and ``columns`` as in :func:`_decide`.

    Day 0 varies slowest, each odd day tries its highest row first, its
    subset 0, and each leaf's sit-outs are the nested layers of
    :func:`_decide`, grown and undone as the walk goes.  The walk has none
    of the scan's orbit pruning, so it goes leaf by leaf: a witness costs
    all its leaves, and a candidate whose first envy-free leaf lies past
    the budget costs ``budget`` leaves."""
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
