"""Measuring loop, metrics, checks and report of one benchmark run.

Imported by run.py once it has put the checkout's src/ on sys.path.
"""
from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Patches, Tracer, heap_peak_wrapper
from twreach import engine
from workloads import WORKLOADS, Query, self_check, tree_sha1

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
P95_MIN_OPS = 200  # below this, fewer than ten samples lie beyond the p95
# A set-up round repeats the set-up for SETUP_ROUND_S (at least once).
SETUP_ROUND_S = 0.3


@dataclass
class OpResult:
    query: Query
    seconds: float
    scaled: float | None  # seconds scaled to the reference host speed
    report: object | None  # twreach.engine.ReachReport
    tree_sha: str | None
    nodes: int
    error: str | None

    @property
    def wrong(self) -> bool:
        return self.report is not None and self.report.reachable != self.query.expected


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spans_file(name: str, seed: int) -> Path:
    return OUT / f"{name}-seed{seed}-spans.csv.gz"


def run_ops(wl, count: int, tracer=None, host=None) -> list[OpResult]:
    """Closed loop over the first `count` of wl.queries, cycling if there are fewer.

    With a HostSpeed `host`, each op's time is also scaled to the reference
    host speed, and the reference kernel's ticks are taken out of its wall time.
    """
    out: list[OpResult] = []
    last_tree, last_sha = None, None
    for i in range(count):
        q = wl.queries[i % len(wl.queries)]
        if tracer is not None:
            tracer.op = i
        if host is not None:
            host.start()
        t0 = time.perf_counter()
        try:
            report, tree = wl.op(q)
            error = None
        except Exception:
            report, tree, error = None, None, traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        wall, scaled = host.stop(t0, t1) if host is not None else (t1 - t0, None)
        if tree is not None and tree is not last_tree:
            last_tree, last_sha = tree, tree_sha1(tree)
        out.append(OpResult(q, wall, scaled, report, last_sha if tree is not None else None,
                            len(tree.bags) if tree is not None else 0, error))
    return out


def fingerprint(results: list[OpResult]) -> tuple[str, int, int]:
    """(digest over instances, instances covered, repeats that differed)."""
    per: dict[str, list] = {}
    changed = 0
    for r in results:
        if r.report is None:
            continue
        rec = [r.report.reachable, r.report.iterations, r.report.relax_work,
               r.report.peak_bits, r.tree_sha]
        if per.setdefault(r.query.key, rec) != rec:
            changed += 1
    digest = hashlib.sha1(json.dumps(sorted(per.items())).encode()).hexdigest()
    return digest, len(per), changed


def timed_setup(wl, host: HostSpeed) -> list[float]:
    """One set-up round: repeat the set-up until SETUP_ROUND_S has passed, at least once.

    Returns each set-up's time scaled to the reference host speed.
    """
    scaled = []
    start = time.perf_counter()
    host.refresh()
    while not scaled or time.perf_counter() - start < SETUP_ROUND_S:
        host.start()
        t0 = time.perf_counter()
        wl.setup()
        scaled.append(host.stop(t0, time.perf_counter())[1])
    return scaled


def end_to_end(wl, seconds: float):
    """Passes over every instance for about `seconds` of op time; set-up timed in rounds.

    The first pass fixes how many passes fit in `seconds` (at least one),
    so every instance runs equally often. A set-up round runs before the
    first pass, after it, and after the last. Times are scaled to the
    reference host speed (see hostspeed.py). An instance's op time is the
    median over its passes, and the op metrics are taken over those.
    """
    count = len(wl.queries)
    host = HostSpeed()
    try:
        setup_times = timed_setup(wl, host)
        results = run_ops(wl, count=count, host=host)
        passes = max(1, round(seconds / sum(r.seconds for r in results)))
        setup_times += timed_setup(wl, host)
        for _ in range(1, passes):
            results += run_ops(wl, count=count, host=host)
        setup_times += timed_setup(wl, host)
    finally:
        host.close()
    scaled: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for r in results:
        if r.report is not None:
            scaled.setdefault(r.query.key, []).append(r.scaled)
            wall.setdefault(r.query.key, []).append(r.seconds)
    per_op = [statistics.median(v) for v in scaled.values()]
    bits = [r.report.peak_bits for r in results if r.report is not None]
    metrics = {}
    if per_op:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s.p50": statistics.median(per_op),
            "ops_per_s": len(per_op) / sum(per_op),
            "peak_bits.mean": statistics.mean(bits),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    times = [r.scaled for r in results if r.report is not None]
    extra = {"passes": (passes, "count"),
             "peak_bits.max": (max(bits, default=0), "bits"),
             "wall_op_s.p50": (statistics.median(statistics.median(v) for v in wall.values()), "s"),
             "host.kernel_s.p50": (statistics.median(host.kernel_times), "s")}
    if len(times) >= P95_MIN_OPS:
        extra["op_s.p95"] = (statistics.quantiles(times, n=20)[18], "s")
    return results, metrics, extra


def layer_metrics(tracer, untraced, traced, heap_peaks) -> dict:
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    reports = [r.report for r in traced if r.report is not None]
    walked = [rep for rep in reports if rep.engine != "short-circuit"]
    engines = [rep.engine for rep in reports]
    sep_calls = calls["separator.sep"]
    lookups = calls["recursive.sep_of"]
    return {
        "separator.sep.calls": sep_calls,
        "separator.sep.s": self_s["separator.sep"],
        "separator.candidates": counts["separator.candidates"],
        "separator.candidates_per_sep": counts["separator.candidates"] / sep_calls if sep_calls else 0.0,
        "recursive.hat.s": self_s["recursive.hat"],
        "recursive.rd_children.calls": calls["recursive.rd_children"],
        "recursive.sep_lookups": lookups,
        "recursive.sep_cache_hit_ratio": 1 - sep_calls / lookups if lookups else 0.0,
        "graph.parse.s": self_s["graph.parse"],
        "graph.components.calls": calls["graph.components"],
        "graph.components.s": self_s["graph.components"],
        "graph.component_containing.calls": calls["graph.component_containing"],
        "graph.component_containing.s": self_s["graph.component_containing"],
        "decomp.parse.s": self_s["decomp.parse"],
        "decomp.validate.s": self_s["decomp.validate"],
        "decomp.balance.s": self_s["decomp.balance"],
        "decomp.augment.s": self_s["decomp.augment"],
        "decomp.width_balanced": max((rep.width_balanced for rep in walked), default=0),
        "decomp.depth_balanced": max((rep.depth_balanced for rep in walked), default=0),
        "decomp.balanced_nodes": max((r.nodes for r in traced), default=0),
        "sequences.block_length.s": self_s["sequences.block_length"],
        "sequences.useq_element.calls": counts["sequences.useq_element"],
        "engine.walk.s": self_s["engine.walk"],
        "engine.iterations.sum": sum(rep.iterations for rep in reports),
        "engine.relax_work.sum": sum(rep.relax_work for rep in reports),
        "engine.loop_ops": engines.count("loop"),
        "engine.fast_ops": engines.count("fast"),
        "engine.short_circuit_ops": engines.count("short-circuit"),
        "engine.heap_peak_mib": max(heap_peaks, default=0) / 2**20,
        "trace.overhead_s": (statistics.median(r.seconds for r in traced)
                             - statistics.median(r.seconds for r in untraced)),
    }


def per_layer(wl, seed: int):
    wl.setup()
    untraced = run_ops(wl, count=wl.trace_ops)
    tracer, patches = Tracer(), Patches()
    tracer.install(patches)
    try:
        tracer.op = "setup"
        wl.setup()
        traced = run_ops(wl, count=wl.trace_ops, tracer=tracer)
    finally:
        patches.restore()
    # heap of the heaviest walk, measured apart so tracemalloc slows no span
    heap_peaks: list[int] = []
    walks = [r for r in traced if r.report is not None and r.report.engine != "short-circuit"]
    if walks:
        heaviest = max(walks, key=lambda r: r.report.relax_work)
        patches.set(engine, "reach_balanced", heap_peak_wrapper(engine.reach_balanced, heap_peaks))
        try:
            wl.op(heaviest.query)
        finally:
            patches.restore()
    metrics = {}
    if all(r.report is not None for r in untraced + traced):
        metrics = layer_metrics(tracer, untraced, traced, heap_peaks)
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_file(wl.name, seed))
    return untraced + traced, metrics, {"trace.spans": (len(tracer.spans), "count")}


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    t0 = time.perf_counter()
    wl = WORKLOADS[name](seed)
    gen_s = time.perf_counter() - t0
    check_errors = self_check()
    # The inputs and the self-check's trees live for the whole run; keep them
    # out of the collector's passes, as a one-shot `twreach reach` has none.
    gc.collect()
    gc.freeze()
    capture = Patches()
    wl.install(capture)
    try:
        if trace:
            results, metrics, extra = per_layer(wl, seed)
        else:
            results, metrics, extra = end_to_end(wl, seconds)
    finally:
        capture.restore()

    units = declared_units(trace)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    digest, covered, changed = fingerprint(results)
    wrong = sum(r.wrong for r in results)
    errors = [r for r in results if r.error is not None]
    failed = wrong + len(errors)
    engines = {}
    for r in results:
        if r.report is not None:
            engines[r.report.engine] = engines.get(r.report.engine, 0) + 1
    correct = failed == 0 and changed == 0 and not check_errors

    for r in errors[:3]:
        print(f"# {r.query.key}: {r.error}", file=sys.stderr)
    for line in check_errors:
        print(f"# self-check FAILED {line}", file=sys.stderr)
    print(f"# {name} seed={seed} trace={int(trace)} ops={len(results)} "
          f"instances={len(wl.queries)} generate_s={gen_s:.3f}")
    print(f"# engines {json.dumps(engines, sort_keys=True)}")
    print(f"# fingerprint {digest} over {covered}/{len(wl.queries)} instances, "
          f"{changed} repeats differed")
    print(f"# self-check {'passed' if not check_errors else 'FAILED'}"
          f"  error_rate {failed / len(results):.6f}  wrong {wrong}  exceptions {len(errors)}")
    shown = {m: (v, units[m]) for m, v in metrics.items()} | extra
    for metric, (value, unit) in shown.items():
        print(f"# {metric:36s} {value:>16.6g} {unit}")
    if trace:
        print(f"# spans written to {spans_file(name, seed).relative_to(HERE.parent)}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": int(trace), "fingerprint": digest,
              "engines": engines, "op_seconds": [r.seconds for r in results],
              "op_scaled_seconds": [r.scaled for r in results],
              "metrics": {k: v for k, (v, _) in shown.items()}}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct and metrics else 1


