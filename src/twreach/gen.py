"""Instance generation (random k-trees, directed paths, elimination-order
decompositions) and the benchmark harness.

A k-tree is grown from a (k+1)-clique by repeatedly attaching a fresh vertex
to a random k-clique inside an existing bag; the elimination-order bags form a
width-k decomposition by construction. Each undirected edge is then oriented
in each direction independently with the configured probability; edges that
receive no direction are absent from the digraph while the decomposition keeps
covering them vacuously.

`gen_path` and `elimination_td` give the shapes a k-tree never has: a path
decomposition as deep as the graph, and the decomposition of any graph by
a min-degree elimination order. `gen_shape` draws the benchmark's shapes
and `corpus` the tests' small instances, from one grid and one orientation.

Randomness comes from random.Random (Mersenne Twister), so a fixed seed
reproduces byte-identical corpora across platforms.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .decomp import TreeDecomp
from .graph import DiGraph, members
from .engine import reach

BENCH_FIELDS = ("n", "k", "width_input", "width_balanced", "depth_balanced",
                "iterations", "peak_bits", "wall_time")


@dataclass(frozen=True)
class KTreeSpec:
    n: int
    k: int
    seed: int
    arc_probability: float = 0.5

    def __post_init__(self):
        if self.n < self.k + 1:
            raise ValueError("need at least k+1 vertices")
        if not 0.0 <= self.arc_probability <= 1.0:
            raise ValueError("arc probability must lie in [0, 1]")


def gen_ktree(spec: KTreeSpec) -> tuple[DiGraph, TreeDecomp]:
    rng = random.Random(spec.seed)
    k = spec.k
    base = tuple(range(1, k + 2))
    bags: list[tuple[int, ...]] = [base]
    und_edges: list[tuple[int, int]] = [(a, b) for i, a in enumerate(base)
                                        for b in base[i + 1:]]
    td_edges: list[tuple[int, int]] = []
    for v in range(k + 2, spec.n + 1):
        host = rng.randrange(len(bags))
        clique = tuple(sorted(rng.sample(bags[host], k)))
        bags.append(clique + (v,))
        td_edges.append((host + 1, len(bags)))
        und_edges.extend((c, v) for c in clique)
    arcs = []
    for a, b in und_edges:
        if rng.random() < spec.arc_probability:
            arcs.append((a, b))
        if rng.random() < spec.arc_probability:
            arcs.append((b, a))
    g = DiGraph(spec.n, arcs)
    td = TreeDecomp({i + 1: bag for i, bag in enumerate(bags)}, td_edges, root=1)
    return g, td


def gen_path(n: int) -> tuple[DiGraph, TreeDecomp]:
    """The directed path 1 -> 2 -> ... -> n with its path decomposition:
    bag i is {i, i+1}, bag i's parent is bag i-1, and the root is bag 1."""
    if n < 1:
        raise ValueError("need at least 1 vertex")
    g = DiGraph(n, [(v, v + 1) for v in range(1, n)])
    bags = {i: (i, i + 1) for i in range(1, n)} or {1: (1,)}
    return g, TreeDecomp(bags, [(i, i + 1) for i in range(1, n - 1)], root=1)


def elimination_td(g: DiGraph) -> TreeDecomp:
    """Decomposition from a min-degree elimination order (ties by lowest id).

    Bag i is the i-th eliminated vertex with its neighbours at that time; its
    tree parent is the bag of the first of those neighbours eliminated after
    it, or the next bag when it has none, so disconnected graphs give a tree.
    """
    adj = {v: set(members(g.und_mask[v])) for v in range(1, g.n + 1)}
    order, bags = [], []
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a] |= nbrs
            adj[a] -= {a, v}
        order.append(v)
        bags.append(nbrs | {v})
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order[:-1]):
        later = bags[i] - {v}
        edges.append((i + 1, 1 + (min(pos[x] for x in later) if later else i + 1)))
    return TreeDecomp({i + 1: b for i, b in enumerate(bags)}, edges)


def _oriented(rng: random.Random, n: int, und: list[tuple[int, int]]) -> DiGraph:
    """One arc per undirected pair of und, its direction by a fair coin."""
    return DiGraph(n, [(a, b) if rng.random() < 0.5 else (b, a) for a, b in und])


def _grid(rng: random.Random, n: int, cols: int) -> DiGraph:
    """Vertices 1..n in rows of `cols`, one arc between each two grid neighbours."""
    und = [(v, v + 1) for v in range(1, n + 1) if v % cols]
    und += [(v, v + cols) for v in range(1, n - cols + 1)]
    return _oriented(rng, n, und)


def _sparse(rng: random.Random, n: int, m: int) -> DiGraph:
    """One arc for each of m uniformly random vertex pairs, loops and repeats kept."""
    return _oriented(rng, n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)])


def gen_shape(family: str, n: int, seed: int) -> tuple[DiGraph, TreeDecomp]:
    """A benchmark instance off the k-trees: "path" is `gen_path(n)`;
    "isolated" is n vertices with no arcs, one bag per vertex, the bags in a
    path; "grid" (side round(sqrt(n))) and "sparse" (round(1.1 n) random
    pairs) draw from random.Random(seed * 1000003 + n) and come with
    `elimination_td`."""
    if family == "path":
        return gen_path(n)
    if family == "isolated":
        return DiGraph(n, []), TreeDecomp({v: (v,) for v in range(1, n + 1)},
                                          [(v, v + 1) for v in range(1, n)])
    if family not in ("grid", "sparse"):
        raise ValueError(f"unknown family {family!r}")
    rng = random.Random(seed * 1000003 + n)
    g = _grid(rng, n, round(n ** 0.5)) if family == "grid" else _sparse(rng, n, round(1.1 * n))
    return g, elimination_td(g)


def random_graph(rng: random.Random) -> DiGraph:
    """A small sparse, grid or disconnected digraph."""
    kind = rng.choice(["sparse", "grid", "disconnected"])
    if kind == "grid":
        rows, cols = rng.randint(1, 5), rng.randint(2, 6)
        return _grid(rng, rows * cols, cols)
    n = rng.randint(1, 24)
    return _sparse(rng, n, rng.randint(0, n + n // 2 if kind == "sparse" else n // 2))


def variant(t: TreeDecomp, rng: random.Random) -> TreeDecomp:
    """t with padded bags, redundant subset leaves and randomly relabelled ids."""
    bags = {x: set(b) for x, b in t.bags.items()}
    edges = [tuple(e) for e in t.edges]
    adj = {x: t.neighbors(x) for x in bags}
    for x in rng.sample(sorted(bags), len(bags) // 3):
        # padding with a vertex of a neighbouring bag keeps occurrences connected
        y = rng.choice(adj[x]) if adj[x] else x
        if bags[y]:
            bags[x].add(rng.choice(sorted(bags[y])))
    fresh = max(bags) + 1
    for x in rng.sample(sorted(bags), len(bags) // 4):
        bags[fresh] = set(rng.sample(sorted(bags[x]), rng.randint(0, len(bags[x]))))
        edges.append((x, fresh))
        fresh += 1
    ids = rng.sample(range(1, 3 * len(bags) + 1), len(bags))
    rename = dict(zip(sorted(bags), ids))
    return TreeDecomp({rename[x]: b for x, b in bags.items()},
                      [(rename[a], rename[b]) for a, b in edges])


def corpus(rng: random.Random):
    """The tests' (graph, decomposition) pairs: 120 small k-trees and 200
    elimination decompositions of small digraphs, each then its `variant`.
    It draws from rng lazily, so a caller's draws between instances count."""
    for seed in range(120):
        g, td = gen_ktree(KTreeSpec(n=rng.randint(5, 24), k=1 + seed % 4, seed=seed,
                                    arc_probability=rng.choice([0.2, 0.5, 0.9])))
        yield g, td
        yield g, variant(td, rng)
    for _ in range(200):
        g = random_graph(rng)
        td = elimination_td(g)
        yield g, td
        yield g, variant(td, rng)


@dataclass
class BenchRecord:
    n: int
    k: int
    width_input: int
    width_balanced: int
    depth_balanced: int
    iterations: int
    peak_bits: int
    wall_time: float

    def row(self) -> str:
        return ",".join(str(getattr(self, f)) for f in BENCH_FIELDS)


def bench_query(spec: KTreeSpec) -> tuple[DiGraph, TreeDecomp, int, int]:
    """The k-tree of spec and the pair (u, v) that `bench_one` asks about."""
    g, td = gen_ktree(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    return g, td, rng.randrange(1, spec.n + 1), rng.randrange(1, spec.n + 1)


def bench_one(spec: KTreeSpec) -> BenchRecord:
    g, td, u, v = bench_query(spec)
    start = time.perf_counter()
    _, report = reach(g, td, u, v)
    elapsed = time.perf_counter() - start
    return BenchRecord(n=spec.n, k=spec.k, width_input=td.width(),
                       width_balanced=report.width_balanced,
                       depth_balanced=report.depth_balanced,
                       iterations=report.iterations,
                       peak_bits=report.peak_bits, wall_time=elapsed)


def bench(grid: list[tuple[int, int]], repetitions: int, seed: int = 0) -> list[BenchRecord]:
    """One record per (n, k, repetition), in grid order."""
    records = []
    for idx, (n, k) in enumerate(grid):
        for rep in range(repetitions):
            records.append(bench_one(KTreeSpec(n=n, k=k, seed=seed + 1000 * idx + rep)))
    return records


def bench_csv(records: list[BenchRecord], seed: int, grid: list[tuple[int, int]]) -> str:
    grid_txt = ";".join(f"{n}:{k}" for n, k in grid)
    lines = [f"c seed={seed} grid={grid_txt}", ",".join(BENCH_FIELDS)]
    lines.extend(r.row() for r in records)
    return "\n".join(lines) + "\n"
