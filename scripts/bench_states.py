#!/usr/bin/env python3
"""Compare the marking walk, parse and balancing of two twreach checkouts
on the k-tree grid, and their balancing on decompositions of other shapes.

    python3 scripts/bench_states.py PARENT=PARENT_SRC CHANGE=CHANGE_SRC > BENCH_name.json

Each argument names a side (a commit, say) and the `src` directory holding
its `twreach` package. Both are imported side by side in one process (as
`twreach_parent` and `twreach_change`). For each n of the grid (k=3, seed 7,
the query pair drawn as `gen.bench_one` draws it) each side balances and
augments once; then each round times, per side, one `reach_balanced` call on
the augmented tree, one `augment({u, v})` of the balanced tree alone, one
`augment({u, v})` followed by `reach_balanced` (what a query on an already
balanced graph costs), one `parse_td` of the instance's `.td` text (the
set-up of perfbench's ktree-cold and small-mixed) and one `build_balanced`.
Each call follows a full garbage collection, so that no call pays for a
collection set off by the other side's garbage. There are 15 rounds at every
n, alternating parent and change call by call, parent first on even rounds.
Two more calls per side run under tracemalloc: `reach_balanced` on the
augmented tree alone (`heap_peak_mib`, which leaves out what `augment` built
for the walk), and a whole query, `augment({u, v})` of the balanced tree
followed by `reach_balanced` (`query_heap_mib`; the base's walk plan is built
beforehand, as it is for every query after a graph's first). The report of
one more `reach_balanced` call gives the memo, step-table and state
entries.

Then come the shape families (`SHAPES`): a directed path with its path
decomposition rooted at one end (`gen.gen_path`), and grids and sparse
random graphs (m = 1.1n undirected pairs) with random arc directions and
their min-degree elimination decompositions (`gen.elimination_td`). The
change side's `gen` writes each instance's `.gr` and `.td` text once; each
side parses both texts and times `build_balanced` on them, alternating as
above, in `RUNS` rounds, and each row reports the change's pair wins. An A/A
run (one commit's `src` on both sides, 2-vCPU host, Python 3.11.7) read
balance_time_ratio_median 0.965-1.013 on the shape rows, with 5-10 pair
wins of 15; on the grid it read time_ratio_median 0.945-1.005 (5-13 wins)
and balance_time_ratio_median 0.992-1.030 (4-12 wins). So a ratio inside
about 0.94-1.05 with 4-13 wins of 15 is noise. It exits 1 when the two
sides' answers, accounting, balanced trees (of the grid or of a family),
step or state entries differ. Memo entries are reported per side and may
differ: a walk that collapses its budget axis memoizes fewer blocks for the
same answer.
"""
from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

GRID = (64, 256, 1024, 2048, 4096)
K, SEED = 3, 7
RUNS = 15  # timed calls per side and kind at every n
SHAPES = (("path", 250), ("path", 500), ("path", 1000), ("grid", 64), ("grid", 144),
          ("grid", 256), ("sparse", 150), ("sparse", 300), ("sparse", 600))
SHAPE_SEED = 7


def load(name: str, src: str):
    """Import the package under src/twreach as top-level module `name`."""
    pkg = Path(src) / "twreach"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("decomp", "engine", "gen", "graph", "recursive")}


def prepare(tw, n: int):
    spec = tw["gen"].KTreeSpec(n=n, k=K, seed=SEED)
    g, td = tw["gen"].gen_ktree(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    u = rng.randrange(1, n + 1)
    v = rng.randrange(1, n + 1)
    base = tw["recursive"].build_balanced(g, td)
    text = tw["decomp"].write_td(td, n_vertices=n)
    return g, td, text, base, base.augment({u, v}), u, v


def shape_texts(tw, family: str, n: int) -> tuple[str, str]:
    """The .gr and .td texts of one shape instance, written by package tw."""
    gen, graph = tw["gen"], tw["graph"]
    if family == "path":
        g, td = gen.gen_path(n)
    else:
        rng = random.Random(SHAPE_SEED * 1000003 + n)
        if family == "grid":
            side = round(n ** 0.5)
            und = [(v, v + 1) for v in range(1, n + 1) if v % side]
            und += [(v, v + side) for v in range(1, n - side + 1)]
        else:
            und = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(round(1.1 * n))]
        g = graph.DiGraph(n, [(a, b) if rng.random() < 0.5 else (b, a) for a, b in und])
        td = gen.elimination_td(g)
    return graph.write_graph(g), tw["decomp"].write_td(td, n_vertices=n)


def shape_rows(sides: dict) -> dict:
    """Per side, one row per shape instance: balance_s quartiles and the tree's hash."""
    rows: dict[str, list] = {side: [] for side in sides}
    for family, n in SHAPES:
        gr, td_text = shape_texts(sides["change"], family, n)
        inputs = {side: (tw["graph"].parse_graph(gr), tw["decomp"].parse_td(td_text))
                  for side, tw in sides.items()}
        times: dict[str, list[float]] = {side: [] for side in sides}
        trees = {}
        for r in range(RUNS):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                gc.collect()
                start = time.perf_counter()
                trees[side] = sides[side]["recursive"].build_balanced(*inputs[side])
                times[side].append(time.perf_counter() - start)
        for side, tw in sides.items():
            sha1 = hashlib.sha1(tw["decomp"].write_td(trees[side]).encode()).hexdigest()[:12]
            row = {"family": family, "n": n, "width_input": inputs[side][1].width(),
                   "runs": RUNS, **quartiles(times[side], "balance_"),
                   "balanced_sha1": sha1}
            if side == "change":
                row.update(paired(times["parent"], times["change"], "balance_"))
            rows[side].append(row)
        print(f"{family} n={n} done", file=sys.stderr, flush=True)
    return rows


def timed_calls(tw, g, td, text, base, tree, u: int, v: int) -> dict:
    """The timed calls of one round, by field prefix."""
    reach = tw["engine"].reach_balanced
    return {"reach_balanced_": lambda: reach(g, tree, u, v, report=True),
            "augment_": lambda: base.augment({u, v}),
            "augment_reach_": lambda: reach(g, base.augment({u, v}), u, v, report=True),
            "parse_": lambda: tw["decomp"].parse_td(text),
            "balance_": lambda: tw["recursive"].build_balanced(g, td)}


def heap_peak_mib(call) -> float:
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


FIELDS = {
    "reach_balanced_s": "median seconds of one engine.reach_balanced(g, tree, u, v, report=True) call",
    "reach_balanced_q1_s": "first quartile", "reach_balanced_q3_s": "third quartile",
    "augment_s": "median seconds of one augment({u, v}) of the balanced tree built once beforehand",
    "augment_q1_s": "first quartile", "augment_q3_s": "third quartile",
    "augment_reach_s": "median seconds of build_balanced(g, td).augment({u, v}) followed by "
                       "that reach_balanced call, the balanced tree built once beforehand",
    "augment_reach_q1_s": "first quartile", "augment_reach_q3_s": "third quartile",
    "parse_s": "median seconds of one decomp.parse_td of write_td(td, n_vertices=n)",
    "parse_q1_s": "first quartile", "parse_q3_s": "third quartile",
    "balance_s": "median seconds of one recursive.build_balanced(g, td)",
    "balance_q1_s": "first quartile", "balance_q3_s": "third quartile",
    "runs": "timed calls per side and kind, parent and change alternating call by call",
    "heap_peak_mib": "tracemalloc peak over one more reach_balanced call on the augmented tree",
    "query_heap_mib": "tracemalloc peak over one more augment({u, v}) of the balanced tree "
                      "followed by reach_balanced, the tree's walk plan built beforehand",
    "memo_entries": "ReachReport.memo_entries: the walk's memo entries",
    "step_entries": "ReachReport.step_entries: the walk's step-cache or step-table entries",
    "state_entries": "ReachReport.state_entries: distinct states the walk held",
    "reachable": "ReachReport.reachable", "iterations": "ReachReport.iterations",
    "relax_work": "ReachReport.relax_work", "peak_bits": "ReachReport.peak_bits",
    "time_ratio_median": "median over the paired calls of change time / parent time",
    "pair_wins": "paired calls in which the change was faster",
    "augment_time_ratio_median": "time_ratio_median of the augment_s calls",
    "augment_pair_wins": "pair_wins of the augment_s calls",
    "augment_reach_time_ratio_median": "time_ratio_median of the augment_reach_s calls",
    "augment_reach_pair_wins": "pair_wins of the augment_reach_s calls",
    "parse_time_ratio_median": "time_ratio_median of the parse_s calls",
    "parse_pair_wins": "pair_wins of the parse_s calls",
    "balance_time_ratio_median": "time_ratio_median of the balance_s calls",
    "balance_pair_wins": "pair_wins of the balance_s calls",
    "balanced_sha1": "first 12 hex digits of the SHA-1 of write_td(build_balanced(g, td))",
    "family": "shapes: path (gen.gen_path), grid or sparse (gen.elimination_td of the graph)",
    "width_input": "shapes: width of the input decomposition",
}


def quartiles(times: list[float], prefix: str) -> dict:
    q1, med, q3 = statistics.quantiles(times, n=4)
    return {f"{prefix}s": round(med, 5), f"{prefix}q1_s": round(q1, 5),
            f"{prefix}q3_s": round(q3, 5)}


def paired(parent: list[float], change: list[float], prefix: str) -> dict:
    ratios = [c / p for p, c in zip(parent, change)]
    return {f"{prefix}time_ratio_median": round(statistics.median(ratios), 3),
            f"{prefix}pair_wins": sum(r < 1 for r in ratios)}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all("=" in arg for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    (parent, parent_src), (change, change_src) = (arg.split("=", 1) for arg in argv)
    sides = {"parent": load("twreach_parent", parent_src),
             "change": load("twreach_change", change_src)}
    rows: dict[str, list] = {side: [] for side in sides}
    for n in GRID:
        inputs = {side: prepare(tw, n) for side, tw in sides.items()}
        calls = {side: timed_calls(tw, *inputs[side]) for side, tw in sides.items()}
        times = {side: {kind: [] for kind in calls[side]} for side in sides}
        for r in range(RUNS):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for kind in calls["parent"]:
                for side in order:
                    gc.collect()
                    start = time.perf_counter()
                    calls[side][kind]()
                    times[side][kind].append(time.perf_counter() - start)
        for side, tw in sides.items():
            g, td, text, base, tree, u, v = inputs[side]
            rep = tw["engine"].reach_balanced(g, tree, u, v, report=True)
            row = {"n": n, "runs": RUNS}
            for kind, kind_times in times[side].items():
                row.update(quartiles(kind_times, kind))
            sha1 = hashlib.sha1(tw["decomp"].write_td(base).encode()).hexdigest()[:12]
            row.update({"heap_peak_mib": round(heap_peak_mib(calls[side]["reach_balanced_"]), 3),
                        "query_heap_mib": round(heap_peak_mib(calls[side]["augment_reach_"]), 3),
                        "memo_entries": rep.memo_entries, "step_entries": rep.step_entries,
                        "state_entries": rep.state_entries, "balanced_sha1": sha1,
                        "reachable": rep.reachable, "iterations": rep.iterations,
                        "relax_work": rep.relax_work, "peak_bits": rep.peak_bits})
            if side == "change":
                for kind in times[side]:  # the walk's ratio keys carry no prefix
                    row.update(paired(times["parent"][kind], times["change"][kind],
                                      "" if kind == "reach_balanced_" else kind))
            rows[side].append(row)
        print(f"n={n} done", file=sys.stderr, flush=True)
    shapes = shape_rows(sides)
    for p, c in zip(rows["parent"], rows["change"]):
        for key in ("reachable", "iterations", "relax_work", "peak_bits", "balanced_sha1",
                    "step_entries", "state_entries"):
            if p[key] != c[key]:
                print(f"n={p['n']}: {key} differs: {p[key]} != {c[key]}", file=sys.stderr)
                return 1
    for p, c in zip(shapes["parent"], shapes["change"]):
        if p["balanced_sha1"] != c["balanced_sha1"]:
            print(f"{p['family']} n={p['n']}: balanced_sha1 differs: "
                  f"{p['balanced_sha1']} != {c['balanced_sha1']}", file=sys.stderr)
            return 1
    doc = {"what": "engine.reach_balanced on build_balanced(g, td).augment({u, v}), "
                   "that augment alone, parse_td of the .td text and build_balanced, for "
                   "gen.gen_ktree(KTreeSpec(n, k=3, seed=7)), (u, v) drawn as gen.bench_one "
                   "draws them",
           "grid": {"k": K, "seed": SEED, "n": list(GRID)}, "fields": FIELDS,
           "host": f"{os.cpu_count()}-vCPU {platform.system()}, Python {platform.python_version()}",
           "how": f"python3 scripts/bench_states.py {parent}=<its src> {change}=<its src>,"
                  " standard output redirected to this file",
           "sides": {"parent": parent, "change": change}, **rows,
           "shapes": {"instances": [f"{family} n={n}" for family, n in SHAPES],
                      "seed": SHAPE_SEED, **shapes}}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
