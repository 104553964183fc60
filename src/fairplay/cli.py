"""Command-line front end.

Subcommands: reduce, solve, check, verify, enumerate.  Exit codes:
0 success / impossibility demonstrated; 2 input error; 3 flag error;
4 infeasible assignment; 5 bounded search exhausted without a witness;
6 inconclusive (enumeration budget or skipped search sizes).

``verify`` and ``enumerate`` import the exhaustive layers (``oracle``,
``impossibility`` and their scan kernel) when they run, so ``reduce``,
``solve`` and ``check`` never load them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import compress, islice

try:  # the C function that ``json.encoder`` re-exports, without ``json``
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from fairplay import __version__
from fairplay.fileio import (
    parse_assignment_file,
    parse_problem_file,
    serialize_assignment,
    serialize_problem,
)
from fairplay.model import (
    Assignment,
    Problem,
    ValidationError,
    _envy_pairs,
    g_vector,
    games_per_player,
    is_feasible,
    max_total_games,
    reduce_problem,
    zero_extend,
)
from fairplay.solver import TieBreakPolicy, _solve_irreducible

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FLAG = 3
EXIT_INFEASIBLE = 4
EXIT_EXHAUSTED = 5
EXIT_INCONCLUSIVE = 6


def _restrict(x: Assignment, original: Problem, reduced: Problem) -> Assignment:
    """Project an assignment on the original problem down to the reduced
    core.  Feasible assignments never use removed players or days, so this
    loses nothing.  Returns ``x`` itself when ``reduced is original``."""
    if reduced is original:
        return x
    rows = dict(zip(original.players, x.matrix))
    col = {label: k for k, label in enumerate(original.days)}
    pick = [col[label] for label in reduced.days]
    return Assignment(tuple(
        tuple(map(rows[name].__getitem__, pick)) for name in reduced.players
    ))


def cmd_reduce(args) -> int:
    p = parse_problem_file(args.input, args.group_size)
    reduced, log = reduce_problem(p)
    for rnd, day in log.removed_days:
        print(f"round {rnd}: removed day {day}", file=sys.stderr)
    for rnd, name in log.removed_players:
        print(f"round {rnd}: removed player {name}", file=sys.stderr)
    if not log.removed_anything:
        print("no reductions: problem is already irreducible", file=sys.stderr)
    if reduced.is_empty:
        print("result is empty: no games can be scheduled", file=sys.stderr)
    text = serialize_problem(reduced)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _json_list(items, indent: str) -> str:
    """A list of encoded JSON values as ``json.dumps`` writes it with
    ``indent=2`` at a depth whose closing bracket stands at ``indent``."""
    text = (",\n  " + indent).join(items)
    return f"[\n  {indent}{text}\n{indent}]" if text else "[]"


# one envy pair at depth 2: two names, then four counts
_ENVY_PAIR = "[\n      %s,\n      %s,\n      %d,\n      %d,\n      %d,\n      %d\n    ]"


def _solve_json(p: Problem, reduced: Problem, report) -> str:
    """The JSON of a solve of the reduced core: ``g_vector`` and the envy
    pairs are the core's own, the matrix and games cover the whole sheet.

    The text is what ``json.dumps(payload, sort_keys=True, indent=2)``
    writes for the dict of these seven keys, each envy pair a list, written
    straight from its fixed shape: each list in one ``join``, each envy pair
    as one string, and each distinct matrix row formatted once.
    ``json.dumps`` runs its pure-Python encoder whenever it indents, one
    call per value.
    """
    envy = _envy_pairs(report.assignment, reduced)  # the solver's output is feasible
    full = zero_extend(report.assignment, p, reduced)
    quote = encode_basestring_ascii
    rows = {row: _json_list(map(str, row), "    ") for row in set(full.matrix)}
    pairs = [
        _ENVY_PAIR % (quote(e.envious), quote(e.envied), *e[2:]) for e in envy.pairs
    ]
    return (
        "{\n"
        f'  "days": {_json_list(map(quote, p.days), "  ")},\n'
        f'  "envy_pairs": {_json_list(pairs, "  ")},\n'
        f'  "g_vector": {_json_list(map(str, report.g_vector.counts), "  ")},\n'
        f'  "games_per_player": {_json_list(map(str, games_per_player(full)), "  ")},\n'
        f'  "matrix": {_json_list(map(rows.__getitem__, full.matrix), "  ")},\n'
        f'  "players": {_json_list(map(quote, p.players), "  ")},\n'
        f'  "total_games": {report.total_games}\n'
        "}\n"
    )


def _solve_table(p: Problem, reduced: Problem, report) -> str:
    """The table of a solve of the reduced core, day lines over the whole
    sheet."""
    g = p.group_size
    full = zero_extend(report.assignment, p, reduced)
    lines = [
        f"fair assignment: {report.total_games} games of {g} over "
        f"{reduced.m} of {p.m} days",
        "fairness profile (reduced core): "
        + " ".join(str(c) for c in report.g_vector.counts),
        "",
    ]
    for day, column in zip(p.days, zip(*full.matrix)):
        assigned = list(compress(p.players, column))
        if not assigned:
            lines.append(f"{day}: no game")
            continue
        lines.append(f"{day}: {len(assigned) // g} game(s)")
        for j in range(0, len(assigned), g):
            lines.append(f"  game {j // g + 1}: " + ", ".join(assigned[j:j + g]))
    lines.append("")
    lines.append("games per player:")
    for name, games in zip(p.players, games_per_player(full)):
        lines.append(f"  {name}: {games}")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    """Reduce the sheet once, solve its core, and print the core's answer
    with removed players and days zero-extended."""
    if args.tie_break == "random" and args.seed is None:
        print("error: --tie-break random requires --seed", file=sys.stderr)
        return EXIT_FLAG
    p = parse_problem_file(args.input, args.group_size)
    policy = (
        TieBreakPolicy.seeded(args.seed)
        if args.tie_break == "random"
        else TieBreakPolicy.lex()
    )
    reduced, _ = reduce_problem(p)
    report = _solve_irreducible(reduced, policy)
    if args.format == "json":
        sys.stdout.write(_solve_json(p, reduced, report))
    else:
        sys.stdout.write(_solve_table(p, reduced, report))
    return EXIT_OK


def cmd_check(args) -> int:
    p = parse_problem_file(args.input, args.group_size)
    x = parse_assignment_file(args.assignment, p)
    feas = is_feasible(x, p)
    if not feas:
        print(f"infeasible: {feas.violation.detail}")
        return EXIT_INFEASIBLE
    print("feasible: yes")

    slots = x.total_slots()
    bound = p.group_size * max_total_games(p)
    print(
        f"efficient: {'yes' if slots == bound else 'no'} "
        f"({slots} of {bound} possible player-slots filled)"
    )

    reduced, _ = reduce_problem(p)
    core = _restrict(x, p, reduced)
    profile = g_vector(core).counts
    print("fairness profile (reduced core): " + " ".join(str(c) for c in profile))

    envy = _envy_pairs(core, reduced)  # x is feasible, and so is its core
    if envy.is_strongly_envy_free:
        print("strong envy: none")
    else:
        print(f"strong envy: {len(envy.pairs)} pair(s)")
        for e in envy.pairs:
            print(
                f"  {e.envious} (avail {e.avail_envious}, games {e.games_envious}) "
                f"envies {e.envied} (avail {e.avail_envied}, games {e.games_envied})"
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    from fairplay.impossibility import (
        DEFAULT_PER_SIZE_CAP,
        SearchBounds,
        build_witness,
        search_witness_g2,
    )
    from fairplay.oracle import DEFAULT_MAX_ASSIGNMENTS, verify_no_fair_ef

    budget = args.budget or DEFAULT_MAX_ASSIGNMENTS
    if args.group_size >= 3:
        p = build_witness(args.group_size)
        report = verify_no_fair_ef(p, budget)
        print(f"instance: {p.n} players x {p.m} days, group size {p.group_size}")
        print(f"efficient assignments: {report.efficient_count}")
        print(f"examined: {report.scanned}")
        if not report.conclusive:
            print("inconclusive: enumeration budget exhausted")
            return EXIT_INCONCLUSIVE
        if report.ef_found:
            print("an efficient strongly envy-free assignment exists")
            return EXIT_EXHAUSTED
        print(
            "impossibility demonstrated: no efficient assignment is strongly "
            f"envy-free (minimum envy pairs: {report.min_envy_pairs})"
        )
        return EXIT_OK

    bounds = SearchBounds(
        args.bounds[0],
        args.bounds[1],
        per_instance_budget=budget,
        per_size_cap=args.per_size_cap or DEFAULT_PER_SIZE_CAP,
    )
    result = search_witness_g2(bounds)
    print(
        f"searched {result.instances_examined} irreducible instance(s) across "
        f"{len(result.sizes_searched)} size(s)"
    )
    if result.sizes_skipped:
        sizes = ", ".join(f"{n}x{m}" for n, m in result.sizes_skipped)
        print(f"skipped sizes (candidate pool over cap): {sizes}")
    report = result.witness
    if report is not None:
        print("witness found: no efficient assignment is strongly envy-free")
        sys.stdout.write(serialize_problem(report.problem))
        print(f"efficient assignments: {report.efficient_count}")
        print(f"minimum envy pairs: {report.min_envy_pairs}")
        return EXIT_OK
    if result.search_complete:
        print("search exhausted: no witness within bounds")
        return EXIT_EXHAUSTED
    print(
        f"inconclusive: {result.instances_inconclusive} instance(s) over budget, "
        f"{len(result.sizes_skipped)} size(s) skipped"
    )
    return EXIT_INCONCLUSIVE


def cmd_enumerate(args) -> int:
    from fairplay.oracle import (
        DEFAULT_MAX_ASSIGNMENTS,
        BudgetExceededError,
        count_efficient,
        enumerate_efficient,
    )

    p = parse_problem_file(args.input, args.group_size)
    reduced, _ = reduce_problem(p)
    budget_cap = args.budget or DEFAULT_MAX_ASSIGNMENTS
    if args.format == "count":
        count = count_efficient(reduced)
        if count > budget_cap:
            print(
                f"efficient assignment count {count} exceeds the enumeration "
                f"budget {budget_cap}; raise --budget to confirm by streaming",
                file=sys.stderr,
            )
            return EXIT_INCONCLUSIVE
        print(count)
        return EXIT_OK

    stream = islice(enumerate_efficient(reduced, budget_cap), args.limit)
    try:
        for emitted, inner in enumerate(stream):
            if emitted:
                sys.stdout.write("\n")
            sys.stdout.write(serialize_assignment(zero_extend(inner, p, reduced), p))
    except BudgetExceededError:
        print("stream truncated by enumeration budget", file=sys.stderr)
    return EXIT_OK


def _parse_bounds(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected N,M")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers N,M") from None
    if n < 1 or m < 1:
        raise argparse.ArgumentTypeError("bounds must be >= 1")
    return n, m


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _terminal_columns() -> int:
    """The width ``shutil.get_terminal_size`` reports: ``COLUMNS`` when it
    is a positive integer, else the columns of ``sys.__stdout__``'s
    terminal, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at the width it picks by default, two columns
    short of the terminal's, found without importing ``shutil`` (and with it
    ``bz2``, ``lzma``, ``zlib`` and ``fnmatch``) on a process's first
    ``main``: argparse makes a formatter for every argument it adds."""

    def __init__(self, prog, **kwargs):
        if kwargs.get("width") is None:
            kwargs["width"] = _terminal_columns() - 2
        super().__init__(prog, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fairplay",
        description=(
            "Fair scheduling of group games from availability matrices: "
            "reduce instances, compute exact leximin-fair assignments, audit "
            "strong envy, and verify impossibility results by enumeration."
        ),
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=_HelpFormatter)

    sp = add_parser("reduce", help="strip hopeless days and players")
    sp.add_argument("--input", required=True, help="availability CSV")
    sp.add_argument("--group-size", type=int, required=True)
    sp.add_argument("--output", help="write reduced CSV here instead of stdout")
    sp.set_defaults(func=cmd_reduce)

    sp = add_parser("solve", help="compute an exact fair assignment")
    sp.add_argument("--input", required=True, help="availability CSV")
    sp.add_argument("--group-size", type=int, required=True)
    sp.add_argument("--tie-break", choices=("lex", "random"), default="lex")
    sp.add_argument("--seed", type=int, help="required with --tie-break random")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=cmd_solve)

    sp = add_parser("check", help="audit an assignment against a problem")
    sp.add_argument("--input", required=True, help="availability CSV")
    sp.add_argument("--assignment", required=True, help="assignment CSV")
    sp.add_argument("--group-size", type=int, required=True)
    sp.set_defaults(func=cmd_check)

    sp = add_parser(
        "verify", help="demonstrate that efficiency can exclude strong envy-freeness"
    )
    sp.add_argument("--group-size", type=int, required=True)
    sp.add_argument(
        "--bounds",
        type=_parse_bounds,
        default=(4, 4),
        help="max players,days for the group-size-2 search (default 4,4)",
    )
    sp.add_argument(
        "--budget", type=_positive_int, help="enumeration cap per instance"
    )
    sp.add_argument(
        "--per-size-cap",
        type=_positive_int,
        help="skip search sizes whose candidate pool exceeds this (coverage "
        "becomes partial and the run inconclusive)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = add_parser("enumerate", help="count or stream efficient assignments")
    sp.add_argument("--input", required=True, help="availability CSV")
    sp.add_argument("--group-size", type=int, required=True)
    sp.add_argument(
        "--limit", type=_positive_int, default=10, help="stream at most N"
    )
    sp.add_argument("--format", choices=("count", "stream"), default="count")
    sp.add_argument("--budget", type=_positive_int, help="enumeration cap")
    sp.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.group_size < 2:
        print("error: --group-size must be >= 2", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
