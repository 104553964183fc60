"""fairplay: exact fair scheduling of group games from availability matrices.

Players submit the days they can play; every game needs exactly
``group_size`` players and nobody plays twice on one day.  This package
computes assignments that host the maximum number of games while making the
games-per-player profile lexicographically as fair as possible, audits
strong envy (a more flexible player receiving fewer games than a less
flexible one), and verifies by exhaustive enumeration that full efficiency
and strong envy-freeness can be jointly unattainable.
"""

from fairplay import fixtures
from fairplay.model import (
    Assignment,
    EnvyPair,
    EnvyReport,
    FairnessOrder,
    GVector,
    InfeasibleAssignmentError,
    Problem,
    ReductionLog,
    ValidationError,
    compare_fairness,
    envy_report,
    g_vector,
    games_per_player,
    is_efficient,
    is_feasible,
    is_irreducible,
    max_total_games,
    reduce_problem,
    validate_problem,
    zero_extend,
)
from fairplay.oracle import (
    BudgetExceededError,
    WitnessReport,
    brute_force_fair,
    count_efficient,
    enumerate_efficient,
    exists_efficient_strongly_ef,
    verify_no_fair_ef,
)
from fairplay.impossibility import (
    G2SearchResult,
    SearchBounds,
    build_table2,
    build_witness,
    canonical_form,
    search_witness_g2,
)
from fairplay.solver import (
    SolveReport,
    TieBreakPolicy,
    solve_fair,
)

__version__ = "0.1.0"

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
