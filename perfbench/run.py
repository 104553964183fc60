#!/usr/bin/env python3
"""fairplay's benchmark: four fixed workloads, end to end and per layer.

Run from the root of a checkout (nothing to build; the package is imported
from ``src``):

    python3 perfbench/run.py --workload club-solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one client, closed loop: each op starts when the previous one
has returned.  A run builds the workload's fixed op list from the seed, then
times passes over it until ``--seconds`` would be exceeded (at least one).
After each pass every output is checked by the benchmark's own arithmetic.
Times are rescaled to reference seconds by ``speed.py``, because the host's
speed drifts within a run.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time),
``op_p50_s`` and ``op_p90_s`` (per-op latency over all passes: the mean of
the latencies ranked within 5 percentage points of the 50th and 90th), ``setup_s`` (median time for a fresh interpreter
to import ``fairplay.cli``) and ``peak_rss_mb``.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of
``layers.py`` plus ``trace_overhead_s``.

The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it, ``{"info": ...}``, records the environment, the input
properties, the SHA-256 of the outputs, the error rate and, when traced,
absent metrics and the counter self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11

# A fresh interpreter times `import fairplay.cli`, bracketed by reference
# loops so the time can be rescaled like the rest of the run.  Only `sys` and
# `time` are imported first, so nothing the package imports is preloaded.
_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
REF_ITERS = {iters}
{loop}

def ref():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
refs = [ref() for _ in range(5)]
t0 = time.perf_counter()
import fairplay.cli
took = time.perf_counter() - t0
refs += [ref() for _ in range(5)]
print(took, sorted(refs)[len(refs) // 2])
"""


def measure_setup() -> float:
    """Median import time over fresh interpreters, in reference seconds,
    after one untimed import that writes the bytecode cache."""
    code = _SETUP_CHILD.format(loop=inspect.getsource(speed.reference_loop),
                               iters=speed.REF_ITERS)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        took, loop = map(float, proc.stdout.split())
        if i:
            samples.append(took * speed.REF_S / loop)
    return statistics.median(samples)


def quantile(values: list[float], q: float) -> float:
    """The mean of the values ranked within 5 percentage points of the
    q-quantile: steadier than one order statistic on a few hundred samples,
    and that order statistic itself on fewer than twenty."""
    xs = sorted(values)
    n = len(xs)
    lo = math.floor((q - 0.05) * n)
    hi = math.ceil((q + 0.05) * n)
    return statistics.fmean(xs[max(lo, 0):min(hi, n)])


def run_pass(ops) -> dict:
    """Time every op once, in order, then check the outputs."""
    results, spans, errors = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append((True, op.call()))
        except Exception as exc:  # a failed op is counted, not fatal
            results.append((False, f"{type(exc).__name__}: {exc}"))
        spans.append((t0, time.perf_counter()))

    digest = hashlib.sha256()
    failed = 0
    for idx, (op, (ok, result)) in enumerate(zip(ops, results)):
        if ok:
            text, problems = op.check(result)
            digest.update(text.encode())
        else:
            problems = [f"raised {result}"]
        if problems:
            failed += 1
            errors += [f"op {idx}: {p}" for p in problems[:3]]
    return {"spans": spans, "failed": failed, "errors": errors,
            "digest": digest.hexdigest()}


def finish_pass(p: dict, track: speed.SpeedTrack) -> None:
    """Add the pass's op latencies and wall time, in reference seconds, and
    its raw wall time, once the track has samples after the pass."""
    p["latencies"] = [track.rescale(a, b) for a, b in p["spans"]]
    p["wall"] = sum(p["latencies"])
    p["raw_wall"] = p["spans"][-1][1] - p["spans"][0][0]


def environment(seed: int) -> dict:
    import fairplay

    files = sorted(p for p in SRC.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts
                   and p.suffix not in (".so", ".pyd"))
    py = [p for p in files if p.suffix == ".py"]
    src_hash = hashlib.sha256()
    for p in py:
        src_hash.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    backend = getattr(fairplay, "backend_name", None)
    return {
        "backend": backend() if callable(backend) else None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in files),
        "src_python_lines": sum(len(p.read_bytes().splitlines()) for p in py),
    }


def _commit():
    """HEAD of the checkout's git directory, read without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def scanned_inputs(tracer) -> dict | None:
    """Properties of the instances the traced pass certified by exhaustion,
    read from the captured ``WitnessReport``s."""
    from workloads import distinct_row_share

    reports = tracer.reports["impossibility.verify"]
    if not reports:
        return None
    try:
        return {
            "instances": len(reports),
            "leaves_per_instance": sum(r.scanned for r in reports) / len(reports),
            "distinct_row_share": round(
                distinct_row_share([r.problem.avail for r in reports]), 4),
        }
    except AttributeError:
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import layers
    from workloads import WORKLOADS

    import fairplay.cli  # noqa: F401  imported before any timing

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        plan = WORKLOADS[name](seed, workdir)
        metrics: dict[str, tuple[float, str]] = {}
        info: dict = {"workload": name, "environment": environment(seed),
                      "inputs": plan.properties}
        if not trace:
            metrics["setup_s"] = (measure_setup(), "s")
            start = time.perf_counter()
            with speed.SpeedTrack() as track:
                passes = [run_pass(plan.ops)]
                # another pass only if one more of average length still fits
                while (time.perf_counter() - start) * (len(passes) + 1) / len(passes) \
                        <= seconds:
                    passes.append(run_pass(plan.ops))
        else:
            with speed.SpeedTrack() as track:
                passes = [run_pass(plan.ops)]
                tracer = layers.Tracer()
                tracer.install()
                try:
                    passes.append(run_pass(plan.ops))
                finally:
                    tracer.uninstall()
    for p in passes:
        finish_pass(p, track)

    latencies = [x for p in passes for x in p["latencies"]]
    if not trace:
        metrics["wall_s"] = (statistics.median(p["wall"] for p in passes), "s")
        metrics["op_p50_s"] = (quantile(latencies, 0.5), "s")
        metrics["op_p90_s"] = (quantile(latencies, 0.9), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        layer, absent = layers.layer_metrics(tracer)
        # span times are raw; rescale them by the traced pass's factor
        scale = passes[1]["wall"] / passes[1]["raw_wall"]
        for key, (value, unit) in layer.items():
            metrics[key] = (value * scale if unit == "s" else
                            value / scale if unit == "1/s" else value, unit)
        info["scanned_inputs"] = scanned_inputs(tracer)
        metrics["trace_overhead_s"] = (passes[1]["wall"] - passes[0]["wall"], "s")
        info["absent"] = absent
        info["self_test"] = layers.self_test(tracer)

    attempted = len(latencies)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    correct = failed == 0 and len(digests) == 1
    info.update({
        "ops_per_pass": len(plan.ops),
        "passes": len(passes),
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "pass_raw_wall_s": [round(p["raw_wall"], 4) for p in passes],
        "op_latencies_s": [round(x, 5) for x in latencies],
        "output_sha256": digests,
        "error_rate": failed / attempted,
    })
    errors = [e for p in passes for e in p["errors"]]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(digests) > 1:
        print("check failed: passes over the same inputs gave different outputs",
              file=sys.stderr)
    for key, check in info.get("self_test", {}).items():
        if not check["ok"]:
            print(f"self-test mismatch: {key}: {check}", file=sys.stderr)

    print(f"workload {name}, seed {seed}, trace {int(trace)}: {attempted} ops in "
          f"{len(passes)} pass(es), {failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.6f} {unit}")
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak memory is its own), then
    one table of every metric."""
    from workloads import WORKLOADS

    rows, correct, attempted, failed, merged = [], True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
            merged[f"{name}.{key}"] = m
    for name, key, value, unit in rows:
        print(f"{name:18s} {key:34s} {value:14.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairplay" / "__init__.py").is_file():
        print(f"error: no fairplay package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
