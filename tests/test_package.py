"""Package structure: the public names, no unused imports, the
independence of the exhaustive routes from the flow solver they
cross-check, the one wrapper through which each scan is reached, the one
generator of the g = 2 search's children, the records' value semantics,
the modules ``import fairplay.cli`` and each command load, and the
package's exports that load on first use."""

import ast
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fairplay
from fairplay import _flow, oracle, solver

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


def test_scans_have_one_wrapper_each_and_the_g2_search_runs_none():
    """Each exhaustive scan has one public wrapper in ``oracle``, its only
    caller.  The g = 2 search decides its candidates on bit masks and
    reaches the scan only through :func:`oracle.verify_no_fair_ef`, for a
    witness's report: it imports nothing from the scan kernel and none of
    the oracle's leaf helpers.  The decision's leaf walk and envy test have
    no other caller."""
    assert _callers("scan_fair") == {("oracle", "brute_force_fair")}
    assert _callers("scan_verify") == {("oracle", "verify_no_fair_ef")}
    assert _callers("_decide") == {("impossibility", "search_witness_g2")}
    assert _callers("_first_ef_leaf") == {("impossibility", "_decide")}
    assert _callers("_envy_free") == {("impossibility", "_decide"), ("impossibility", "visit")}
    private = {"_efficient_lists", "_assignment_from_choice", "_require_irreducible"}
    tree = ast.parse((SRC / "impossibility.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name != "fairplay._scan" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert node.module != "fairplay._scan", names
            assert node.module != "fairplay" or "_scan" not in names
            assert not names & private, node.module


def test_orderly_generation_has_one_child_generator():
    """The g = 2 search's children come from one generator, called per
    parent by the orderly levels alone, and only that generator runs the
    bit-level canonicity test, on the children its packed keys tie."""
    assert _callers("_canonical_children") == {("impossibility", "_orderly_levels")}
    assert _callers("_tie_accepts") == {("impossibility", "_canonical_children")}


def test_the_profile_bound_is_written_once():
    """U, the fairness bound, is computed by ``_scan.profile_bound`` alone:
    the fairness scan builds it against its best profile and the random
    tie-break's DP against its target, and nothing else builds one."""
    assert _callers("profile_bound") == {("_scan", "scan_fair"), ("_optima", "__init__")}


def test_the_full_envy_count_has_one_caller():
    """``_scan._count_envy_pairs`` is the one full envy count, called by the
    plain fold alone, while each representative leaf adds its cross pairs
    to its node's part in ``_scan._leaf_envy``."""
    assert _callers("_count_envy_pairs") == {("_scan", "fold")}
    assert _callers("_leaf_envy") == {("_scan", "visit")}


def test_public_names_resolve_and_are_listed_once():
    assert len(set(fairplay.__all__)) == len(fairplay.__all__)
    for name in fairplay.__all__:
        assert hasattr(fairplay, name), name


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; names listed in a literal
    ``__all__`` and ``from __future__`` imports count as read."""
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
            try:  # a computed ``__all__`` lists no names here
                read.update(ast.literal_eval(node.value))
            except ValueError:
                pass
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


def _record_cases():
    """``(class, keyword arguments, a field, another value for it, repr)``
    for each exported record and for ``_flow.FlowResult``.  Records are
    built from keyword arguments only, so nothing here depends on how they
    are implemented."""
    problem = dict(players=("a", "b"), days=("Mon",), avail=((1,), (1,)), group_size=2)
    p = fairplay.Problem(**problem)
    x = fairplay.Assignment(matrix=((1,), (1,)))
    g = fairplay.GVector(counts=(2,))
    pair = dict(envious="a", envied="b", avail_envious=2, avail_envied=1,
                games_envious=0, games_envied=1)
    witness = dict(problem=p, efficient_count=1, first_ef_witness=x, min_envy_pairs=0,
                   scanned=1, conclusive=True)
    p_repr = "Problem(players=('a', 'b'), days=('Mon',), avail=((1,), (1,)), group_size=2)"
    x_repr = "Assignment(matrix=((1,), (1,)))"
    pair_repr = ("EnvyPair(envious='a', envied='b', avail_envious=2, avail_envied=1, "
                 "games_envious=0, games_envied=1)")
    witness_repr = (f"WitnessReport(problem={p_repr}, efficient_count=1, "
                    f"first_ef_witness={x_repr}, min_envy_pairs=0, scanned=1, "
                    f"conclusive=True)")
    return [
        (fairplay.Problem, problem, "group_size", 3, p_repr),
        (fairplay.ReductionLog,
         dict(removed_days=((1, "Tue"),), removed_players=(), rounds=1), "rounds", 0,
         "ReductionLog(removed_days=((1, 'Tue'),), removed_players=(), rounds=1)"),
        (fairplay.Assignment, dict(matrix=((1,), (1,))), "matrix", ((0,), (0,)), x_repr),
        (fairplay.GVector, dict(counts=(2,)), "counts", (1,), "GVector(counts=(2,))"),
        (fairplay.EnvyPair, pair, "games_envied", 2, pair_repr),
        (fairplay.EnvyReport, dict(pairs=(fairplay.EnvyPair(**pair),)), "pairs", (),
         f"EnvyReport(pairs=({pair_repr},))"),
        (fairplay.WitnessReport, witness, "scanned", 2, witness_repr),
        (fairplay.TieBreakPolicy, dict(mode="random", seed=7), "seed", 8,
         "TieBreakPolicy(mode='random', seed=7)"),
        (fairplay.SolveReport, dict(assignment=x, g_vector=g, total_games=1),
         "total_games", 2,
         f"SolveReport(assignment={x_repr}, g_vector=GVector(counts=(2,)), total_games=1)"),
        (fairplay.SearchBounds,
         dict(max_players=4, max_days=3, per_instance_budget=5, per_size_cap=6),
         "max_days", 2,
         "SearchBounds(max_players=4, max_days=3, per_instance_budget=5, per_size_cap=6)"),
        (fairplay.G2SearchResult,
         dict(witness=fairplay.WitnessReport(**witness), instances_examined=3,
              instances_inconclusive=0, sizes_searched=((2, 1),), sizes_skipped=()),
         "instances_inconclusive", 1,
         f"G2SearchResult(witness={witness_repr}, instances_examined=3, "
         f"instances_inconclusive=0, sizes_searched=((2, 1),), sizes_skipped=())"),
        (_flow.FlowResult, dict(gvector=(2,), residual=None, augmentations=2, relaxations=3),
         "relaxations", 4,
         "FlowResult(gvector=(2,), residual=None, augmentations=2, relaxations=3)"),
    ]


def test_records_are_immutable_values_with_field_reprs():
    """Equal fields give equal records with equal hashes, one changed field
    an unequal one; the repr reads ``Name(field=value, ...)``; fields cannot
    be assigned; a pickle round trip returns an equal record."""
    cases = _record_cases()
    records = {
        name for name in fairplay.__all__
        if isinstance(getattr(fairplay, name), type)
        and not issubclass(getattr(fairplay, name), Exception)
        and name != "FairnessOrder"
    }
    assert {cls.__name__ for cls, *_ in cases} == records | {"FlowResult"}
    for cls, fields, field, other, text in cases:
        record = cls(**fields)
        assert repr(record) == text
        assert getattr(record, field) == fields[field]
        same = cls(**fields)
        changed = cls(**{**fields, field: other})
        assert same == record and not same != record
        assert changed != record
        assert pickle.loads(pickle.dumps(record)) == record
        if cls.__name__ == "FlowResult":
            continue  # not hashed or frozen before it became a named tuple
        assert hash(same) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, field, other)

def test_record_defaults_and_validation_messages():
    bounds = fairplay.SearchBounds(3, 4)
    assert (bounds.per_instance_budget, bounds.per_size_cap) == (10_000_000, 2_000_000)
    assert fairplay.TieBreakPolicy().mode == "lex"
    assert fairplay.TieBreakPolicy() == fairplay.TieBreakPolicy.lex()
    assert fairplay.TieBreakPolicy().seed is None
    assert fairplay.TieBreakPolicy.seeded(5) == fairplay.TieBreakPolicy("random", 5)
    for make, message in (
        (lambda: fairplay.SearchBounds(0, 1), "bounds must be >= 1"),
        (lambda: fairplay.SearchBounds(1, 0), "bounds must be >= 1"),
        (lambda: fairplay.SearchBounds(1, 1, 0), "budget cap must be >= 1"),
        (lambda: fairplay.SearchBounds(1, 1, per_size_cap=0),
         "per_size_cap must be >= 1"),
        (lambda: fairplay.TieBreakPolicy("x"), "unknown tie-break mode 'x'"),
        (lambda: fairplay.TieBreakPolicy("random"), "random tie-break requires a seed"),
    ):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


# modules that only ``verify``, ``enumerate`` or the random tie-break run
_DEFERRED = {"fairplay.oracle", "fairplay.impossibility", "fairplay._scan",
             "fairplay.fixtures", "fairplay._optima", "random"}


def _fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter whose ``site`` preloads
    nothing (``-S``), with the package's ``src`` first on ``sys.path``."""
    return subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n" + code, str(SRC.parent)],
        capture_output=True, text=True, check=True,
    ).stdout


def test_cli_import_loads_no_dataclasses_inspect_or_importlib_resources():
    """``import fairplay.cli`` in a fresh interpreter leaves these
    slow-to-import modules unloaded, and the layers ``solve`` never runs.
    The JSON writer takes its string encoder from ``_json``, not ``json``."""
    code = (
        "import fairplay.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'importlib.resources',"
        f" 'json', 'pathlib', *{sorted(_DEFERRED)}}} & set(sys.modules))))"
    )
    assert _fresh(code).split() == []


@pytest.mark.parametrize("argv", [["--format", "json"], ["--help"]], ids=["json", "help"])
def test_solve_leaves_shutil_unloaded(argv):
    """argparse imports ``shutil``, and with it ``bz2``, ``lzma`` and
    ``fnmatch``, to find the terminal's width unless its formatter is given
    one; the CLI's formatter finds it without.  A process's first ``solve``,
    and its help, load none of them."""
    table1 = str(SRC / "fixtures" / "table1.csv")
    argv = ["solve", "--input", table1, "--group-size", "4", *argv]
    code = (
        "import io, fairplay.cli; sys.stdout = io.StringIO()\n"
        f"try:\n    fairplay.cli.main({argv!r})\n"
        "except SystemExit:\n    pass\n"
        "sys.stdout = sys.__stdout__\n"
        "print(' '.join(sorted({'shutil', 'bz2', 'lzma', 'fnmatch'} & set(sys.modules))))"
    )
    assert _fresh(code).split() == []


@pytest.mark.parametrize(
    "argv,extra",
    [
        ([], set()),
        (["solve", "--format", "json"], set()),
        (["solve"], set()),
        (["check", "--assignment",
          str(SRC / "fixtures" / "table1_assignment_printed.csv")], set()),
        (["reduce"], set()),
        (["solve", "--tie-break", "random", "--seed", "7"],
         {"fairplay._optima", "fairplay._scan", "random"}),
    ],
    ids=["import", "solve-json", "solve-table", "check", "reduce", "solve-random"],
)
def test_each_command_loads_only_its_layers(argv, extra):
    """``import fairplay.cli`` loads exactly the package, the CLI, the file
    formats, the model, the solver and the flow.  ``solve``, ``check`` and
    ``reduce`` on table1 load nothing more; a random tie-break adds its DP,
    the scan helpers the DP uses, and ``random``."""
    code = "import fairplay.cli\n"
    if argv:
        table1 = str(SRC / "fixtures" / "table1.csv")
        argv = [argv[0], "--input", table1, "--group-size", "4", *argv[1:]]
        code += (
            "import io; sys.stdout = io.StringIO()\n"
            f"fairplay.cli.main({argv!r}); sys.stdout = sys.__stdout__\n"
        )
    code += ("print(' '.join(m for m in sys.modules"
             " if m.startswith('fairplay') or m == 'random'))")
    base = {"fairplay", "fairplay.cli", "fairplay.fileio", "fairplay.model",
            "fairplay.solver", "fairplay._flow"}
    assert sorted(_fresh(code).split()) == sorted(base | extra)


def test_package_exports_load_on_first_use():
    """``import fairplay`` loads no submodule; a star import binds every
    public name, ``dir`` lists them, README's Library snippet runs as
    written, and an unknown name raises ``AttributeError``."""
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    snippet = snippet.split("```", 1)[0]
    out = _fresh(
        "import fairplay\n"
        "print(sorted(m for m in sys.modules if m.startswith('fairplay.')))\n"
        "print(sorted(set(fairplay.__all__) - set(dir(fairplay))))\n"
        "names = {}\n"
        "exec('from fairplay import *', names)\n"
        "print(sorted(set(fairplay.__all__) - set(names)))\n"
        "try:\n"
        "    fairplay.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        f"exec({snippet!r}, {{}})\n"
        "print('snippet ran')\n"
    ).splitlines()
    assert out == [
        "[]",
        "[]",
        "[]",
        "module 'fairplay' has no attribute 'no_such_name'",
        "snippet ran",
    ]
    assert set(fairplay.__all__) == {*fairplay._EXPORTS, "fixtures"}


def test_replace_copies_records_and_validates_the_checked_ones():
    policy = fairplay.TieBreakPolicy.seeded(5)
    assert policy._replace(seed=6) == fairplay.TieBreakPolicy("random", 6)
    assert fairplay.SearchBounds(3, 4)._asdict() == {
        "max_players": 3, "max_days": 4,
        "per_instance_budget": 10_000_000, "per_size_cap": 2_000_000,
    }
    assert fairplay.Problem._fields == ("players", "days", "avail", "group_size")
    with pytest.raises(ValueError, match="random tie-break requires a seed"):
        policy._replace(seed=None)
    with pytest.raises(ValueError, match="bounds must be >= 1"):
        fairplay.SearchBounds(3, 4)._replace(max_days=0)
