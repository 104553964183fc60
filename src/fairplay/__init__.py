"""fairplay: exact fair scheduling of group games from availability matrices.

Players submit the days they can play; every game needs exactly
``group_size`` players and nobody plays twice on one day.  This package
computes assignments that host the maximum number of games while making the
games-per-player profile lexicographically as fair as possible, audits
strong envy (a more flexible player receiving fewer games than a less
flexible one), and verifies by exhaustive enumeration that full efficiency
and strong envy-freeness can be jointly unattainable.

``import fairplay`` loads none of its submodules.  Each public name, and
each submodule named as an attribute (``fairplay.fixtures``), is imported
the first time it is read (PEP 562), so a caller pays only for the layers
it uses: ``fairplay solve`` never loads the exhaustive scans.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Assignment": "model",
    "BudgetExceededError": "oracle",
    "EnvyPair": "model",
    "EnvyReport": "model",
    "FairnessOrder": "model",
    "G2SearchResult": "impossibility",
    "GVector": "model",
    "InfeasibleAssignmentError": "model",
    "Problem": "model",
    "ReductionLog": "model",
    "SearchBounds": "impossibility",
    "SolveReport": "solver",
    "TieBreakPolicy": "solver",
    "ValidationError": "model",
    "WitnessReport": "oracle",
    "brute_force_fair": "oracle",
    "build_table2": "impossibility",
    "build_witness": "impossibility",
    "canonical_form": "impossibility",
    "compare_fairness": "model",
    "count_efficient": "oracle",
    "enumerate_efficient": "oracle",
    "envy_report": "model",
    "exists_efficient_strongly_ef": "oracle",
    "g_vector": "model",
    "games_per_player": "model",
    "is_efficient": "model",
    "is_feasible": "model",
    "is_irreducible": "model",
    "max_total_games": "model",
    "reduce_problem": "model",
    "search_witness_g2": "impossibility",
    "solve_fair": "solver",
    "validate_problem": "model",
    "verify_no_fair_ef": "oracle",
    "zero_extend": "model",
}
# the submodules that read as attributes of the package
_SUBMODULES = {*_EXPORTS.values(), "_flow", "_scan", "fileio", "fixtures"}

__all__ = [
    "Assignment",
    "BudgetExceededError",
    "EnvyPair",
    "EnvyReport",
    "FairnessOrder",
    "G2SearchResult",
    "GVector",
    "InfeasibleAssignmentError",
    "Problem",
    "ReductionLog",
    "SearchBounds",
    "SolveReport",
    "TieBreakPolicy",
    "ValidationError",
    "WitnessReport",
    "brute_force_fair",
    "build_table2",
    "build_witness",
    "canonical_form",
    "compare_fairness",
    "count_efficient",
    "enumerate_efficient",
    "envy_report",
    "exists_efficient_strongly_ef",
    "fixtures",
    "g_vector",
    "games_per_player",
    "is_efficient",
    "is_feasible",
    "is_irreducible",
    "max_total_games",
    "reduce_problem",
    "search_witness_g2",
    "solve_fair",
    "validate_problem",
    "verify_no_fair_ef",
    "zero_extend",
]


def __getattr__(name: str):
    """Import what ``name`` refers to on its first read and keep it in the
    package's globals, so later reads do not come back here."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # the import binds the submodule here
        return globals()[name]
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_EXPORTS[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
