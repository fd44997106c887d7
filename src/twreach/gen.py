"""Random k-tree instance generation and the benchmark harness.

A k-tree is grown from a (k+1)-clique by repeatedly attaching a fresh vertex
to a random k-clique inside an existing bag; the elimination-order bags form a
width-k decomposition by construction. Each undirected edge is then oriented
in each direction independently with the configured probability; edges that
receive no direction are absent from the digraph while the decomposition keeps
covering them vacuously.

Randomness comes from random.Random (Mersenne Twister), so a fixed seed
reproduces byte-identical corpora across platforms.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .decomp import TreeDecomp
from .graph import DiGraph
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


def bench_one(spec: KTreeSpec) -> BenchRecord:
    g, td = gen_ktree(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    u = rng.randrange(1, spec.n + 1)
    v = rng.randrange(1, spec.n + 1)
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
