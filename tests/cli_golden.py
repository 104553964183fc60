"""The golden table of ``fairplay`` outputs: what each command exits with and
prints, pinned by digest in ``tests/data/cli_golden.txt``.

Each table line holds a command's exit code, the sha256 of its stdout and
of its stderr, and its argv as shell words.  ``test_cli`` runs every line in
process through ``cli.main`` and compares.  Regenerate the table from the
repository root with::

    PYTHONPATH=src python tests/cli_golden.py

A change that alters a line should say which line and why.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "cli_golden.txt"

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
    # the error exits: the lines above exit 4, 5 and 6 from check and verify,
    # these exit 2 (a missing file), 3 and 6 from enumerate
    ["solve", "--input", "no/such/sheet.csv", "--group-size", "4"],
    ["solve", *_T1, "--tie-break", "random"],
    ["enumerate", *_T1, "--budget", "1"],
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> tuple[int, str, str]:
    """Run one command in process from the repository root: its exit code
    and the digests of its stdout and stderr, as the table holds them."""
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
    stdout = out.getvalue()
    if "--help" in argv:
        stdout = " ".join(stdout.split())
    return code, _sha256(stdout), _sha256(err.getvalue())


def read_table() -> list[tuple[list[str], tuple[int, str, str]]]:
    """The table's lines as (argv, (exit code, stdout digest, stderr digest))."""
    lines = []
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            code, out, err, words = line.split(" ", 3)
            lines.append((shlex.split(words), (int(code), out, err)))
    return lines


def main() -> None:
    os.environ["COLUMNS"] = "80"
    lines = ["# exit stdout-sha256 stderr-sha256 argv; regenerate with tests/cli_golden.py"]
    for argv in COMMANDS:
        code, out, err = run(argv)
        lines.append(f"{code} {out} {err} {shlex.join(argv)}")
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
