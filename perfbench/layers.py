"""Per-layer tracing for the benchmark, from outside the program.

The layers are the modules of ``src/fairplay``.  They call each other
through module attributes that are looked up at call time (``cli`` calls
``fairplay.cli.solve_fair``, the solver calls ``fairplay._flow.solve_stage``,
and so on).  :class:`Tracer` replaces each such attribute with a wrapper
that records a span (calls, total time, and the time of wrapped calls made
inside it) and reads work counters from the returned value.  Self time is a
span's total minus its children.

Hooks are found by name when the tracer is installed.  A missing name, or a
return value whose counters cannot be read, marks the metrics that depend
on it as absent; it never fails the run.  An untraced run installs nothing.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute a caller looks up, span name).  Two entries may share a
# span when two callers reach the same layer through different names.
HOOKS = (
    ("fairplay.cli", "main", "cli"),
    ("fairplay.cli", "parse_problem_file", "fileio.parse"),
    ("fairplay.cli", "reduce_problem", "model.reduce"),
    ("fairplay.solver", "reduce_problem", "model.reduce"),
    ("fairplay.cli", "envy_report", "model.envy"),
    ("fairplay.cli", "solve_fair", "solver.fair"),
    ("fairplay.solver", "solve_fair", "solver.fair"),
    ("fairplay.solver", "_realize_lex_min", "solver.lex"),
    ("fairplay.solver", "_realize_random", "solver.random"),
    ("fairplay._flow", "solve_stage", "flow"),
    ("fairplay.oracle", "brute_force_fair", "oracle.brute_force"),
    ("fairplay.oracle", "exists_efficient_strongly_ef", "oracle.first_ef"),
    ("fairplay.oracle", "scan_fair", "scan.fair"),
    ("fairplay.oracle", "scan_first_ef", "scan.first_ef"),
    ("fairplay.impossibility", "scan_verify", "scan.verify"),
    ("fairplay.cli", "verify_no_fair_ef", "impossibility.verify"),
    ("fairplay.impossibility", "verify_no_fair_ef", "impossibility.verify"),
    ("fairplay.impossibility", "canonical_form", "impossibility.canonical"),
    ("fairplay.cli", "search_witness_g2", "impossibility.search"),
)

# Span names whose return values the self-test compares with the counters.
_CAPTURED = ("solver.fair", "impossibility.verify", "impossibility.search")


def _flow_kind(args, kwargs) -> str:
    """A solve with no forced or forbidden cells computes the profile; any
    other solve serves the tie-break."""
    forced = kwargs.get("forced", args[3] if len(args) > 3 else ())
    forbidden = kwargs.get("forbidden", args[4] if len(args) > 4 else ())
    return "flow.tiebreak" if forced or forbidden else "flow.profile"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.reports: dict[str, list] = defaultdict(list)
        self.missing: set[str] = set()  # spans or counters that could not be traced
        self._stack: list[list] = []  # [span name, time of wrapped children]
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            setattr(module, attr, self._wrap(span, original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, span: str, fn):
        def traced(*args, **kwargs):
            name = _flow_kind(args, kwargs) if span == "flow" else span
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.child[name] += frame[1]
            self._observe(name, parent, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, parent, result) -> None:
        if name.startswith("flow."):
            try:
                self.counts[name + ".relaxations"] += result.relaxations
                self.counts[name + ".augmentations"] += result.augmentations
            except (AttributeError, TypeError):
                self.missing.add("flow.counters")
        elif name.startswith("scan."):
            try:
                self.counts["scan.leaves"] += result[0]
            except (IndexError, TypeError):
                self.missing.add("scan.leaves")
        if name == "impossibility.verify" and parent == "impossibility.search":
            self.counts["impossibility.instances"] += 1
        if name in _CAPTURED:
            self.reports[name].append(result)

    def self_s(self, span: str) -> float:
        return self.total[span] - self.child[span]


def layer_metrics(t: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every per-layer metric as ``name -> (value, unit)``, plus the names of
    those that are absent (reported as 0) because a hook or counter is."""
    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name, value, unit, *needs):
        if any(need in t.missing for need in needs):
            absent.append(name)
            value = 0
        out[name] = (value, unit)

    flow_kinds = ("flow.profile", "flow.tiebreak")
    for kind in flow_kinds:
        put(kind + ".solves", t.calls[kind], "count", "flow")
        put(kind + ".s", t.total[kind], "s", "flow")
    put("flow.relaxations", sum(t.counts[k + ".relaxations"] for k in flow_kinds),
        "count", "flow", "flow.counters")
    put("flow.augmentations", sum(t.counts[k + ".augmentations"] for k in flow_kinds),
        "count", "flow", "flow.counters")

    put("solver.lex.self_s", t.self_s("solver.lex"), "s", "solver.lex", "flow")
    put("solver.random.self_s", t.self_s("solver.random"), "s", "solver.random", "flow")
    put("solver.fair.self_s", t.self_s("solver.fair"), "s", "solver.fair",
        "solver.lex", "solver.random", "model.reduce", "flow")

    scans = ("scan.fair", "scan.first_ef", "scan.verify")
    scan_s = sum(t.total[s] for s in scans)
    put("scan.calls", sum(t.calls[s] for s in scans), "count", *scans)
    for s in scans:
        put(s + ".s", t.total[s], "s", s)
    put("scan.leaves", t.counts["scan.leaves"], "count", "scan.leaves", *scans)
    put("scan.leaves_per_s", t.counts["scan.leaves"] / scan_s if scan_s else 0.0,
        "1/s", "scan.leaves", *scans)

    put("oracle.brute_force.s", t.total["oracle.brute_force"], "s", "oracle.brute_force")
    put("oracle.first_ef.s", t.total["oracle.first_ef"], "s", "oracle.first_ef")
    put("oracle.self_s", t.self_s("oracle.brute_force") + t.self_s("oracle.first_ef"),
        "s", "oracle.brute_force", "oracle.first_ef", "scan.fair", "scan.first_ef")

    canon = t.calls["impossibility.canonical"]
    instances = t.counts["impossibility.instances"]
    put("impossibility.canonical.calls", canon, "count", "impossibility.canonical")
    put("impossibility.canonical.s", t.total["impossibility.canonical"], "s",
        "impossibility.canonical")
    put("impossibility.verify.calls", t.calls["impossibility.verify"], "count",
        "impossibility.verify")
    put("impossibility.verify.s", t.total["impossibility.verify"], "s",
        "impossibility.verify")
    put("impossibility.candidates.self_s", t.self_s("impossibility.search"), "s",
        "impossibility.search", "impossibility.canonical", "impossibility.verify")
    put("impossibility.instances", instances, "count",
        "impossibility.search", "impossibility.verify")
    put("impossibility.canonical_yield", instances / canon if canon else 0.0, "ratio",
        "impossibility.search", "impossibility.verify", "impossibility.canonical")

    put("fileio.parse.s", t.total["fileio.parse"], "s", "fileio.parse")
    put("model.reduce.s", t.total["model.reduce"], "s", "model.reduce")
    put("model.envy.s", t.total["model.envy"], "s", "model.envy")
    put("cli.self_s", t.self_s("cli"), "s", "cli",
        *(span for module, _, span in HOOKS if module == "fairplay.cli"))
    return out, absent


def self_test(t: Tracer) -> dict[str, dict]:
    """Compare traced counters with the reports the program returned.

    Each check is ``{"traced": ..., "returned": ..., "ok": bool}``; checks
    whose inputs were not captured on this workload are left out, and a
    report that lacks an expected field is recorded as not ok.
    """
    checks: dict[str, dict] = {}

    def check(name, traced, returned_fn):
        try:
            returned = returned_fn()
        except (AttributeError, TypeError) as exc:
            checks[name] = {"traced": traced, "returned": None, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
            return
        checks[name] = {"traced": traced, "returned": returned, "ok": traced == returned}

    solves = t.reports["solver.fair"]
    if solves:
        check("flow.profile.solves", t.calls["flow.profile"],
              lambda: sum(len(r.stages) for r in solves))
        check("flow.profile.relaxations", t.counts["flow.profile.relaxations"],
              lambda: sum(s.relaxations for r in solves for s in r.stages))
    verifies = t.reports["impossibility.verify"]
    if verifies:
        check("scan.leaves", t.counts["scan.leaves"],
              lambda: sum(r.scanned for r in verifies))
    searches = t.reports["impossibility.search"]
    if searches:
        check("impossibility.instances", t.counts["impossibility.instances"],
              lambda: sum(r.instances_examined for r in searches))
    return checks
