"""Package structure: the public names, no unused imports, the
independence of the exhaustive routes from the flow solver they
cross-check, and the one wrapper through which each scan is reached."""

import ast
from pathlib import Path

import fairplay
from fairplay import oracle, solver

SRC = Path(fairplay.__file__).parent
TESTS = Path(__file__).parent


def _imported_modules(module: str) -> set[str]:
    """Every ``fairplay`` module that ``fairplay.<module>`` imports, directly
    or through the package modules it imports, read from the source."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        tree = ast.parse((SRC / f"{todo.pop()}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative to the package
                    base = f"fairplay.{base}".rstrip(".")
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                sub = name.removeprefix("fairplay.")
                if sub != name and (SRC / f"{sub}.py").exists() and sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
    return {f"fairplay.{sub}" for sub in seen}


def test_exhaustive_routes_do_not_import_the_flow_solver():
    """The oracle and its scan kernel are the second route to every answer
    the solver gives, so they may not reach the solver's code."""
    flow = {"fairplay.solver", "fairplay._flow"}
    assert flow <= _imported_modules("cli")  # the walk sees such imports
    for module in ("oracle", "_scan"):
        assert not _imported_modules(module) & flow, module


def _callers(name: str) -> set[tuple[str, str]]:
    """``(module, function)`` for every function under ``src/fairplay`` that
    calls ``name``; a call outside any function reads as ``<module>``."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in SRC.rglob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return found


def test_scans_have_one_caller_each_and_impossibility_reaches_them_through_it():
    """Each exhaustive scan has one public wrapper in ``oracle``, and the
    witness search certifies its candidates through that wrapper, not
    through the scan kernel or the oracle's leaf helpers."""
    assert _callers("scan_fair") == {("oracle", "brute_force_fair")}
    assert _callers("scan_verify") == {("oracle", "verify_no_fair_ef")}
    private = {"_efficient_lists", "_assignment_from_choice", "_require_irreducible"}
    tree = ast.parse((SRC / "impossibility.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name != "fairplay._scan" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "fairplay._scan"
            names = {alias.name for alias in node.names}
            assert node.module != "fairplay" or "_scan" not in names
            assert not names & private, node.module


def test_public_names_resolve_and_are_listed_once():
    assert len(set(fairplay.__all__)) == len(fairplay.__all__)
    for name in fairplay.__all__:
        assert hasattr(fairplay, name), name


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; names listed in ``__all__``
    and ``from __future__`` imports count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    paths = [*SRC.glob("*.py"), *SRC.glob("*/*.py"), *TESTS.glob("*.py")]
    assert len(paths) > 10
    unused = {
        f"{path.parent.name}/{path.name}": names
        for path in paths
        if (names := _unused_imports(path))
    }
    assert unused == {}


def test_removed_names_are_not_exported():
    for name in (
        "StageInfo",
        "solve_efficient",
        "misreport_scan",
        "MisreportFinding",
        "EnumerationBudget",
        "EfficientEnumeration",
    ):
        assert name not in fairplay.__all__
        for module in (fairplay, solver, oracle):
            assert not hasattr(module, name), (module.__name__, name)
