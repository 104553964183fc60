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
T_GREEDY_SOUND = T_IMP + "test_greedy_leaf_is_an_efficient_strongly_envy_free_assignment"
T_GREEDY_COUNT = T_IMP + "test_greedy_leaf_settles_6652_of_the_7_4_candidates"
T_GREEDY_BUDGET = T_IMP + "test_greedy_leaf_settles_no_candidate_over_the_budget"
T_WALK = T_IMP + "test_mask_decision_settles_exactly_when_the_scan_finds_an_ef_leaf"
T_GOLDEN = "tests/test_cli.py::test_cli_output_matches_the_golden_table"
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
