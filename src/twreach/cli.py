"""Command-line entry point.

Exit codes: 0 success (or reachable), 1 unreachable (reach only), 2 input
error. All file paths are passed via flags.
"""
from __future__ import annotations

import argparse
import sys

from . import decomp, gen, graph
from .engine import reach
from .recursive import build_balanced
from .separator import sep
from .sequences import lseq_element, useq_stream

# Past these limits one command would run for hours or print gigabytes:
# `useq --s` prints 2^(s+1) - 1 numbers, `bench` balances and walks one
# instance per repetition, and an `lseq` answer takes (tree height + log2 d)
# steps, each a closed form with one binomial per depth that holds a leaf
# (0.15 s at d = 2^2048 on the balanced k=3 n=1024 k-tree). Each step also
# counts its node's leaves by depth, so on a tree that is a path an answer
# costs O(height^2): 0.3 s at d = 2^2048 on a 400-bag path and 2.0 s on a
# 2,000-bag one, a 48 KB `.td` file. `gen-ktree` takes about 50 us
# and 1.8 KB per vertex (n=100000: 4.9 s, 179 MiB peak), and one `bench`
# instance grows faster than linearly in n (k=3: 2.5 s at n=4096, 6.7 s and
# 127 MiB at n=8192). A k-tree has about n*k edges, so both commands also
# bound k: at k=16, `gen-ktree --n 100000` takes 10.8 s and 511 MiB, and
# `bench --grid 8192:16` 4.1 s and 106 MiB. Each is measured with the CLI on
# a 2-vCPU host.
MAX_USEQ_ORDER = 20
MAX_BENCH_REPS = 100
MAX_BENCH_N = 8192
MAX_GEN_N = 100_000
MAX_GEN_K = 16
MAX_LSEQ_BUDGET = 1 << 2048


def _load_graph(path: str) -> graph.DiGraph:
    with open(path, "rb") as fh:
        return graph.parse_graph(fh.read())


def _load_td(path: str) -> decomp.TreeDecomp:
    with open(path, "rb") as fh:
        return decomp.parse_td(fh.read())


def _load_valid(args) -> tuple[graph.DiGraph, decomp.TreeDecomp]:
    """The --graph and --td inputs; an invalid decomposition is a ValueError (exit 2)."""
    g = _load_graph(args.graph)
    t = _load_td(args.td)
    rep = decomp.validate_td(g, t)
    if not rep.ok:
        raise ValueError(f"input decomposition invalid: {rep.witness}")
    return g, t


def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    t = _load_td(args.td)
    rep = decomp.validate_td(g, t)
    print(f"covers_vertices: {rep.covers_vertices}")
    print(f"covers_edges: {rep.covers_edges}")
    print(f"connected_occurrences: {rep.connected_occurrences}")
    if rep.witness:
        print(f"witness: {rep.witness}")
    return 0 if rep.ok else 2


def cmd_separator(args) -> int:
    g, t = _load_valid(args)
    if args.target:
        u = [int(x) for x in args.target.split(",")]
    else:
        u = range(1, g.n + 1)
    result = sep(g, t, u)  # ValueError (exit 2) for targets outside 1..n
    print(f"bag_node: {result.bag_node}")
    print(f"separator: {' '.join(map(str, result.separator))}")
    print(f"target_size: {result.target_size}")
    return 0


def cmd_balance(args) -> int:
    g, t = _load_valid(args)
    balanced = build_balanced(g, t)
    with open(args.out, "w") as fh:
        fh.write(decomp.write_td(balanced, n_vertices=g.n))
    print(f"nodes: {len(balanced.bags)}")
    print(f"width: {balanced.width()}")
    print(f"depth: {balanced.depth()}")
    return 0


def cmd_reach(args) -> int:
    g = _load_graph(args.graph)
    t = _load_td(args.td)
    if args.engine == "bfs":
        ok = graph.bfs_reachable(g, args.source, args.target)
        report = None
    else:
        ok, report = reach(g, t, args.source, args.target)
    print("REACHABLE" if ok else "UNREACHABLE")
    if args.meter and report is not None:
        print(f"peak_bits: {report.peak_bits}")
        print(f"iterations: {report.iterations}")
        print(f"memo_entries: {report.memo_entries}")
        print(f"step_entries: {report.step_entries}")
        print(f"state_entries: {report.state_entries}")
        print(f"width_balanced: {report.width_balanced}")
        print(f"depth_balanced: {report.depth_balanced}")
        print(f"n: {report.n}")
        print(f"w_input: {t.width()}")
    return 0 if ok else 1


def cmd_useq(args) -> int:
    if not 0 <= args.s <= MAX_USEQ_ORDER:
        raise ValueError(f"--s must be in 0..{MAX_USEQ_ORDER}")
    print(" ".join(str(c) for c in useq_stream(args.s)))
    return 0


def cmd_lseq(args) -> int:
    if args.d > MAX_LSEQ_BUDGET:  # d < 1 and non-powers of 2 raise in LeafSeq
        raise ValueError("--d must be at most 2**2048")
    t = _load_td(args.td)
    if t.root is None:
        print("decomposition file carries no root", file=sys.stderr)
        return 2
    tree = decomp.BalancedTD(t.bags, [tuple(e) for e in t.edges], t.root)
    print(lseq_element(tree, tree.root, args.d, args.r))
    return 0


def cmd_gen_ktree(args) -> int:
    if args.n > MAX_GEN_N:
        raise ValueError(f"--n must be at most {MAX_GEN_N}")
    if args.k > MAX_GEN_K:
        raise ValueError(f"--k must be at most {MAX_GEN_K}")
    spec = gen.KTreeSpec(n=args.n, k=args.k, seed=args.seed,
                         arc_probability=args.arc_prob)
    g, td = gen.gen_ktree(spec)
    with open(args.graph_out, "w") as fh:
        fh.write(graph.write_graph(g))
    with open(args.td_out, "w") as fh:
        fh.write(decomp.write_td(td, n_vertices=g.n))
    print(f"n: {g.n}  arcs: {len(g.arcs)}  bags: {len(td.bags)}  width: {td.width()}")
    return 0


def cmd_bench(args) -> int:
    if not 1 <= args.reps <= MAX_BENCH_REPS:
        raise ValueError(f"--reps must be in 1..{MAX_BENCH_REPS}")
    grid = []
    for part in args.grid.split(","):
        n_txt, k_txt = part.split(":")
        grid.append((int(n_txt), int(k_txt)))
        if grid[-1][0] > MAX_BENCH_N:
            raise ValueError(f"--grid sizes must be at most {MAX_BENCH_N}")
        if grid[-1][1] > MAX_GEN_K:
            raise ValueError(f"--grid widths must be at most {MAX_GEN_K}")
    records = gen.bench(grid, args.reps, seed=args.seed)
    text = gen.bench_csv(records, seed=args.seed, grid=grid)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twreach",
                                description="Reachability via balanced tree decompositions")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the three decomposition properties")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--td", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("separator", help="balanced bag separator of a target set")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--td", required=True)
    sp.add_argument("--target", help="comma-separated vertices (default: all)")
    sp.set_defaults(func=cmd_separator)

    sp = sub.add_parser("balance", help="build the balanced binary decomposition")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--td", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_balance)

    sp = sub.add_parser("reach", help="decide directed reachability")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--td", required=True)
    sp.add_argument("--source", type=int, required=True)
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument("--engine", choices=["paper", "bfs"], default="paper")
    sp.add_argument("--meter", action="store_true")
    sp.set_defaults(func=cmd_reach)

    sp = sub.add_parser("useq", help="print a universal sequence")
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(func=cmd_useq)

    sp = sub.add_parser("lseq", help="one element of a leaf schedule")
    sp.add_argument("--td", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(func=cmd_lseq)

    sp = sub.add_parser("gen-ktree", help="generate a random k-tree instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--arc-prob", type=float, default=0.5)
    sp.add_argument("--graph-out", required=True)
    sp.add_argument("--td-out", required=True)
    sp.set_defaults(func=cmd_gen_ktree)

    sp = sub.add_parser("bench", help="run the benchmark grid, CSV output")
    sp.add_argument("--grid", required=True, help="e.g. 64:3,128:3")
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # build_balanced raises ValueError or RuntimeError on an invalid
    # decomposition, should one ever get past validation
    except (graph.GraphFormatError, decomp.TdFormatError, OSError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
