"""The mutation table: each mutant is one hand-made fault that the named
tests must catch.  ``old`` must occur exactly once in ``path``, so the
table follows each refactor of the code it mutates.

A mutant that no test can catch, because the fault changes no behaviour,
does not belong here; it goes to ``EQUIVALENT`` with the reason.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, at least one of which must fail


IMPOSSIBILITY = "src/fairplay/impossibility.py"
T_IMP = "tests/test_impossibility.py::"
T_EXACT = T_IMP + "test_canonical_children_are_exactly_the_canonical_children"
T_TIES = T_IMP + "test_canonical_children_send_1833_children_to_the_tie_test"
T_BOUND = T_IMP + "test_bounded_sums_send_7644_columns_to_the_packed_test"
T_GREEDY_SOUND = T_IMP + "test_greedy_leaf_is_an_efficient_strongly_envy_free_assignment"
T_GREEDY_COUNT = T_IMP + "test_greedy_leaf_settles_6652_of_the_7_4_candidates"
T_GREEDY_BUDGET = T_IMP + "test_greedy_leaf_settles_no_candidate_over_the_budget"
T_WALK = T_IMP + "test_mask_decision_settles_exactly_when_the_scan_finds_an_ef_leaf"
T_ENTRIES = T_IMP + "test_level_entries_are_their_column_masks_alone"
T_LEVELS = T_IMP + "test_orderly_levels_match_plain_orderly_generation"
T_GOLDEN = "tests/test_cli.py::test_cli_output_matches_the_golden_table"
T_SCAN = "tests/test_scan.py::"
T_GOLDEN_G2 = tuple(f"{T_GOLDEN}[verify --group-size 2 --bounds {b}]" for b in ("7,4", "5,5"))
T_GOLDEN_WIDE = tuple(
    f"{T_GOLDEN}[verify --group-size 2 --bounds {b} --per-size-cap 1000000000000]"
    for b in ("3,9", "4,8")
)
T_GOLDEN_BUDGET = tuple(
    f"{T_GOLDEN}[verify --group-size 2 --bounds {bounds} --budget {budget}]"
    for bounds, budget in (("5,5", 1), ("5,5", 3), ("5,5", 50), ("4,6", 7))
)

MUTANTS = (
    # the packed canonicity test of the g = 2 search's children
    Mutant(
        "packed: strict test against W, not W + L",
        IMPOSSIBILITY,
        "    strict = least + lows - guards",
        "    strict = least - guards",
        (T_TIES, T_EXACT),
    ),
    Mutant(
        "packed: every child sent to the bit-level tie test",
        IMPOSSIBILITY,
        "        if (key - strict) & guards == guards:\n",
        "        if False:\n",
        (T_TIES,),
    ),
    Mutant(
        "packed: depth k block check dropped",
        IMPOSSIBILITY,
        "            if others:\n",
        "            if False:\n",
        (T_EXACT,),
    ),
    Mutant(
        "packed: guard bit on the top field's high bit",
        IMPOSSIBILITY,
        "            guards |= 1 << shift\n",
        "            guards |= 1 << shift - 1\n",
        (T_TIES, T_EXACT),
    ),
    # the branch and bound that grows the packed sums
    Mutant(
        "bound: the new block's ones counted twice, pruning too little",
        IMPOSSIBILITY,
        "        bound = rest[b + 1] - below\n",
        "        bound = rest[b] - below\n",
        (T_BOUND,),
    ),
    Mutant(
        "bound: the fullest completion without its keys, pruning too much",
        IMPOSSIBILITY,
        "rest[b] = rest[b + 1] + blocks[b] + blocks[b].bit_count() * units[b]",
        "rest[b] = rest[b + 1] + blocks[b]",
        (T_EXACT, *T_GOLDEN_G2),
    ),
    # the level entries, column masks alone
    Mutant(
        "levels: the lift without its shift",
        IMPOSSIBILITY,
        "grown = [tuple([c << 1 for c in cols]) for cols in lifted]",
        "grown = [tuple([c for c in cols]) for cols in lifted]",
        (T_ENTRIES, T_LEVELS, *T_GOLDEN_G2),
    ),
    Mutant(
        "levels: the grown slice starts one entry early",
        IMPOSSIBILITY,
        "        first = len(grown)\n",
        "        first = max(len(grown) - 1, 0)\n",
        (T_ENTRIES, *T_GOLDEN_G2),
    ),
    # the bit-sliced counter of the mask decision
    Mutant(
        "counter: the carry out of the first plane dropped",
        IMPOSSIBILITY,
        "        carry = a & col\n",
        "        carry = 0\n",
        (T_ENTRIES, T_GREEDY_COUNT, T_GREEDY_SOUND),
    ),
    Mutant(
        "counter: the carry into the fourth plane dropped",
        IMPOSSIBILITY,
        "        carry, c = c & carry, c ^ carry\n",
        "        carry, c = 0, c ^ carry\n",
        (T_ENTRIES, *T_GOLDEN_WIDE),
    ),
    # the greedy sit-out leaf of the g = 2 search's mask decision
    Mutant(
        "greedy: fewest-sit-outs tie rule dropped",
        IMPOSSIBILITY,
        "        row = fewest & -fewest\n        out[k] |= row\n",
        "        row = meet & -meet\n        k = 0\n        while out[k] & row:\n"
        "            k += 1\n        out[k] |= row\n",
        (T_GREEDY_COUNT, T_GREEDY_SOUND),
    ),
    Mutant(
        "greedy: tie rule reversed, the most sit-outs sit out",
        IMPOSSIBILITY,
        "        fewest = meet & ~out[0]\n        while not fewest:\n"
        "            k += 1\n            fewest = meet & ~out[k]\n",
        "        while meet & out[k]:\n            k += 1\n"
        "        fewest = meet & out[k - 1] if k else meet\n",
        (T_GREEDY_COUNT, T_GREEDY_SOUND),
    ),
    Mutant(
        "decision: budget gate dropped",
        IMPOSSIBILITY,
        "    if leaves <= budget and _envy_free(levels, out):\n",
        "    if _envy_free(levels, out):\n",
        (T_GREEDY_BUDGET, *T_GOLDEN_BUDGET),
    ),
    Mutant(
        "greedy: sit-out index j, not c - 1 - j",
        IMPOSSIBILITY,
        "choice.append(c - 1 - (col & row - 1).bit_count())",
        "choice.append((col & row - 1).bit_count())",
        (T_GREEDY_SOUND,),
    ),
    # the leaf walk and the envy test of the mask decision
    Mutant(
        "walk: an odd day's last option dropped",
        IMPOSSIBILITY,
        "        for s in range(rest.bit_count()):\n",
        "        for s in range(rest.bit_count() - 1):\n",
        (T_WALK,),
    ),
    Mutant(
        "walk: stops one leaf past the budget",
        IMPOSSIBILITY,
        "    left = budget\n",
        "    left = budget + 1\n",
        (T_GREEDY_BUDGET, *T_GOLDEN_BUDGET),
    ),
    Mutant(
        "walk: lowest row first, the order reversed",
        IMPOSSIBILITY,
        "            row = 1 << rest.bit_length() - 1\n",
        "            row = rest & -rest\n",
        (T_WALK,),
    ),
    Mutant(
        "envy test: least <= top",
        IMPOSSIBILITY,
        "        if least < top:\n",
        "        if least <= top:\n",
        (T_GREEDY_COUNT, T_WALK),
    ),
    # harvested from hand-run mutants on the solver and the scan
    Mutant(
        "random tie-break: DP target not shortened",
        "src/fairplay/_optima.py",
        "short = [*target[:-1], target[-1] - 1]",
        "short = list(target)",
        ("tests/test_solver.py::test_random_tie_break_is_deterministic_per_seed",),
    ),
    Mutant(
        "flow: reduced-cost test never true",
        "src/fairplay/_flow.py",
        "if cost[arc] + pi[day] - pi[player]:",
        "if False:",
        ("tests/test_solver.py::test_lex_tie_break_is_row_major_minimum_over_optima"
         "[reroute-meets-a-dearer-cycle]",),
    ),
    Mutant(
        "scan: a skipped class's leaves ranked one past their jump",
        "src/fairplay/_scan.py",
        "return visit(v + 1, taken, rank + jump[v][taken], takeable, envy)",
        "return visit(v + 1, taken, rank + jump[v][taken] + 1, takeable, envy)",
        (T_SCAN + "test_representative_envy_fold_matches_brute_force",),
    ),
    Mutant(
        "scan: rank > limit, so the fold reads a leaf past its limit",
        "src/fairplay/_scan.py",
        "            if rank >= limit:\n",
        "            if rank > limit:\n",
        (T_SCAN + "test_envy_fold_counts_one_representative_per_class",
         T_SCAN + "test_first_leaf_exit_matches_brute_force"),
    ),
    Mutant(
        "scan: the day's cross pairs dropped from a leaf's envy",
        "src/fairplay/_scan.py",
        "count = _leaf_envy(games, envy, cross)",
        "count = envy",
        (T_SCAN + "test_representative_leaf_envy_is_exact",
         T_SCAN + "test_representative_envy_fold_matches_brute_force"),
    ),
    Mutant(
        "scan: a taken player's delta with the wrong sign",
        "src/fairplay/_scan.py",
        "envy + delta[v])",
        "envy - delta[v])",
        (T_SCAN + "test_representative_leaf_envy_is_exact",
         T_SCAN + "test_representative_envy_fold_matches_brute_force"),
    ),
    Mutant(
        "scan: skipped subtree not cut at the budget",
        "src/fairplay/_scan.py",
        "covered = min(below[day], budget - scanned)",
        "covered = below[day]",
        ("tests/test_scan.py::test_budget_truncation[1000]",),
    ),
)

EQUIVALENT = (
    (
        "packed: w = n.bit_length()",
        "it differs from (n + 1).bit_length() only when n + 1 is a power of "
        "two, where a field still holds every count up to n; W + L then "
        "carries into a guard only on a segment whose one cell holds all n "
        "rows and reads n, where no key reads above W anyway",
    ),
)
