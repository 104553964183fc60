"""Run the mutation table of ``mutants/table.py``.

Copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary
directory, applies one mutant at a time and runs the tests it names with
``-x -q -p no:cacheprovider``.  Exits 1 when a mutant survives, that is
when all its tests pass, and 2 when the table is stale (a mutant's old text
does not occur exactly once) or a named test fails or is missing on the
unmutated copy.  Standard library and pytest only.

    python mutants/run.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from table import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant that hangs its tests counts as caught


def _pytest(work: Path, tests) -> int:
    """pytest's exit code for ``tests`` in ``work``: 0 all passed, 1 some
    failed, anything else an error such as an unknown test id."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return 1


def main() -> int:
    mutants = MUTANTS
    with tempfile.TemporaryDirectory(prefix="fairplay-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")

        stale = [
            (m.name, count)
            for m in mutants
            if (count := (work / m.path).read_text(encoding="utf-8").count(m.old)) != 1
        ]
        for name, count in stale:
            print(f"STALE     {name}: old text occurs {count} times")
        if stale:
            return 2
        tests = sorted({t for m in mutants for t in m.tests})
        if _pytest(work, tests) != 0:
            print("ERROR     the named tests do not all pass on the unmutated code")
            return 2

        survivors = errors = 0
        for m in mutants:
            path = work / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(work, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            status = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR {code}")
            survivors += code == 0
            errors += code not in (0, 1)
            print(f"{status:<9} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(mutants)} mutants: {survivors} survived, {errors} errors")
    return 1 if survivors else 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
