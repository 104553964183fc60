"""Bundled instances: a real 17-player tennis group's availability (with the
assignment that was actually played, in two variants) and the 11-player
impossibility instance.

The played assignment ships exactly as printed in the source table, where it
is internally inconsistent (its Tuesday column sums to 9, which cannot be
split into games of four), plus a corrected variant with Keith I's Tuesday
cell cleared; the correction also restores that row's stated games total.
"""

from fairplay.fileio import parse_assignment, parse_problem
from fairplay.model import Assignment, Problem


def fixture_path(name: str):
    """The bundled file ``name``, next to this module, as a ``pathlib.Path``;
    the package is read from the file system, not from a zip archive.
    ``pathlib`` loads on the first call, not with the package."""
    from pathlib import Path

    return Path(__file__).with_name(name)


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def table1(group_size: int = 4) -> Problem:
    """The 17-player, 5-day availability matrix."""
    return parse_problem(fixture_text("table1.csv"), group_size)


def table2(group_size: int = 4) -> Problem:
    """The 11-player impossibility instance."""
    return parse_problem(fixture_text("table2.csv"), group_size)


def table1_assignment_printed() -> Assignment:
    """The played assignment exactly as printed (infeasible on Tuesday)."""
    return parse_assignment(fixture_text("table1_assignment_printed.csv"), table1())


def table1_assignment_corrected() -> Assignment:
    """The played assignment with the single-cell correction applied."""
    return parse_assignment(fixture_text("table1_assignment_corrected.csv"), table1())
