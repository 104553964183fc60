"""The golden table of ``fairplay`` outputs: what each command exits with and
prints, pinned by digest in ``tests/data/cli_golden.txt``.

Each table line holds a command's exit code, the sha256 of its stdout and
of its stderr, and its argv as shell words.  ``test_cli`` runs every line in
process through ``cli.main`` and compares.  Regenerate the table from the
repository root with::

    PYTHONPATH=src python tests/cli_golden.py

A change that alters a line should say which line and why.

``tests/data/cli_golden_long.txt`` pins, in the same format, the commands
that take seconds to a minute each: the full-budget certifications of
g = 7, 8 and 9 and the large g = 2 searches.  Tier-1 does not run them; CI
checks each with ``--check``, which runs one line's command, prints its
stdout and exits 1 unless all three fields match::

    PYTHONPATH=src python tests/cli_golden.py --check verify --group-size 7 --budget 5053029696

``--long`` regenerates that table, in under a minute on two cores.

Commands run from the repository root, with ``COLUMNS=80`` so that argparse
wraps help to one width.  argparse's own wording varies between Python
versions, so a ``--help`` line hashes its stdout with every run of
whitespace collapsed to one space, and the table holds no invalid-choice
error.  Every other line hashes the exact bytes.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "cli_golden.txt"
LONG_TABLE = ROOT / "tests" / "data" / "cli_golden_long.txt"

_FIXTURES = "src/fairplay/fixtures/"
_T1 = ["--input", _FIXTURES + "table1.csv", "--group-size", "4"]
_T2 = ["--input", _FIXTURES + "table2.csv", "--group-size", "4"]
_TIE_BREAKS = [[], *(["--tie-break", "random", "--seed", s] for s in ("0", "7", "123"))]

COMMANDS = [
    *(
        ["solve", *table, *tie_break, "--format", fmt]
        for table in (_T1, _T2)
        for fmt in ("json", "table")
        for tie_break in _TIE_BREAKS
    ),
    *(
        [command, *table, *extra]
        for table in (_T1, _T2)
        for command, *extra in (
            ["reduce"],
            ["enumerate", "--format", "count"],
            ["enumerate", "--format", "stream"],
        )
    ),
    ["check", *_T1, "--assignment", _FIXTURES + "table1_assignment_printed.csv"],
    ["check", *_T1, "--assignment", _FIXTURES + "table1_assignment_corrected.csv"],
    *(["verify", "--group-size", str(g)] for g in range(2, 9)),
    ["verify", "--group-size", "6", "--budget", "98611128"],
    *(["verify", "--group-size", "2", "--bounds", b] for b in ("5,5", "7,4", "7,6")),
    ["--help"],
    *([command, "--help"] for command in ("reduce", "solve", "check", "verify", "enumerate")),
    ["verify", "--group-size", "3", "--budget", "1"],
    ["verify", "--group-size", "2", "--bounds", "5,5", "--per-size-cap", "5"],
    # the g = 2 search under small leaf budgets, which cut the walks of the
    # candidates with more leaves
    *(["verify", "--group-size", "2", "--bounds", "5,5", "--budget", b] for b in ("1", "3", "50")),
    ["verify", "--group-size", "2", "--bounds", "4,6", "--budget", "7"],
    # the g = 2 search over 8 and 9 days, whose availability counts reach 8
    *(
        ["verify", "--group-size", "2", "--bounds", b, "--per-size-cap", "1000000000000"]
        for b in ("3,9", "4,8")
    ),
    # the error exits: the lines above exit 4, 5 and 6 from check and verify,
    # these exit 2 (a missing file), 3 and 6 from enumerate
    ["solve", "--input", "no/such/sheet.csv", "--group-size", "4"],
    ["solve", *_T1, "--tie-break", "random"],
    ["enumerate", *_T1, "--budget", "1"],
    # a sheet that reduces to nothing
    ["reduce", "--input", _FIXTURES + "table2.csv", "--group-size", "9"],
]

LONG_COMMANDS = [
    ["verify", "--group-size", "7", "--budget", "5053029696"],
    ["verify", "--group-size", "8", "--budget", "266468362875"],
    ["verify", "--group-size", "9", "--budget", "14366628991000"],
    ["verify", "--group-size", "2", "--bounds", "7,6", "--per-size-cap", "200000000"],
    ["verify", "--group-size", "2", "--bounds", "7,6", "--per-size-cap", "2000000000"],
    ["verify", "--group-size", "2", "--bounds", "8,5", "--per-size-cap", "60000000"],
    *(
        ["verify", "--group-size", "2", "--bounds", "7,5", "--per-size-cap", "100000000",
         "--budget", b]
        for b in ("40", "300")
    ),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _capture(argv: list[str]) -> tuple[int, str, str]:
    """Run one command in process from the repository root: its exit code,
    stdout and stderr."""
    from fairplay import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse ends --help and bad flags this way
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run(argv: list[str]) -> tuple[int, str, str]:
    """One command's exit code and the digests of its stdout and stderr, as
    the table holds them."""
    code, stdout, stderr = _capture(argv)
    if "--help" in argv:
        stdout = " ".join(stdout.split())
    return code, _sha256(stdout), _sha256(stderr)


def read_table(table: Path = TABLE) -> list[tuple[list[str], tuple[int, str, str]]]:
    """A table's lines as (argv, (exit code, stdout digest, stderr digest))."""
    lines = []
    for line in table.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            code, out, err, words = line.split(" ", 3)
            lines.append((shlex.split(words), (int(code), out, err)))
    return lines


def write_table(table: Path, commands: list[list[str]], note: str) -> None:
    """Run each command and write its line to ``table``, under a header."""
    lines = [f"# exit stdout-sha256 stderr-sha256 argv; {note}"]
    for argv in commands:
        code, out, err = run(argv)
        lines.append(f"{code} {out} {err} {shlex.join(argv)}")
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check(argv: list[str]) -> int:
    """Run the long table's line for ``argv``, print its stdout, and return
    0 if its exit code and both digests match the line, else 1."""
    pinned = {shlex.join(words): fields for words, fields in read_table(LONG_TABLE)}
    line = shlex.join(argv)
    if line not in pinned:
        print(f"no line for {line} in {LONG_TABLE.name}", file=sys.stderr)
        return 1
    code, stdout, stderr = _capture(argv)
    sys.stdout.write(stdout)
    got = code, _sha256(stdout), _sha256(stderr)
    if got != pinned[line]:
        print(f"mismatch: got {got}, pinned {pinned[line]}", file=sys.stderr)
        return 1
    return 0


def main(args: list[str]) -> int:
    os.environ["COLUMNS"] = "80"
    if args[:1] == ["--check"]:
        return check(args[1:])
    if args == ["--long"]:
        write_table(LONG_TABLE, LONG_COMMANDS, "too slow for tier-1, CI runs each with --check")
    elif not args:
        write_table(TABLE, COMMANDS, "regenerate with tests/cli_golden.py")
    else:
        print("usage: cli_golden.py [--long | --check ARGV...]", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
