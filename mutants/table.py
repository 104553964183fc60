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
    # the greedy sit-out leaf of the g = 2 search
    Mutant(
        "greedy: most-games tie rule dropped",
        IMPOSSIBILITY,
        "avail[i] < avail[out] or avail[i] == avail[out] and games[i] > games[out]",
        "avail[i] < avail[out]",
        (T_GREEDY_COUNT, T_GREEDY_SOUND),
    ),
    Mutant(
        "greedy: most-games tie rule reversed",
        IMPOSSIBILITY,
        "avail[i] == avail[out] and games[i] > games[out]",
        "avail[i] == avail[out] and games[i] < games[out]",
        (T_GREEDY_COUNT, T_GREEDY_SOUND),
    ),
    Mutant(
        "greedy: budget gate dropped",
        IMPOSSIBILITY,
        "    if leaves > budget:\n        return None\n",
        "",
        (T_GREEDY_BUDGET,),
    ),
    Mutant(
        "greedy: sit-out index pos, not c - 1 - pos",
        IMPOSSIBILITY,
        "choice.append(c - 1 - pos)",
        "choice.append(pos)",
        (T_GREEDY_SOUND,),
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
