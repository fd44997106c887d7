"""The benchmark's workloads: generated inputs, set-up, and one op each.

Inputs are .gr/.td texts made by `twreach.gen` from the workload seed before
any timing starts; the pipeline sees only that text. Each query carries its
expected answer from `graph.bfs_reachable` on the generated graph, so
checking an op never runs inside a timed region.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from twreach import decomp, engine, gen, graph, recursive

# SHA-1 prefixes of write_td(build_balanced(g, td)) for gen_ktree(n, k=3, seed=7)
BALANCED_SHA1_PREFIX = {64: "454c72575bec", 256: "9682e402dd16"}


@dataclass(frozen=True)
class Query:
    key: str
    gr: str
    td: str
    u: int
    v: int
    expected: bool


def ktree_texts(n: int, k: int, p: float, seed: int):
    """Generated k-tree as (.gr text, .td text, DiGraph) for the oracle."""
    g, td = gen.gen_ktree(gen.KTreeSpec(n=n, k=k, seed=seed, arc_probability=p))
    return graph.write_graph(g), decomp.write_td(td, n_vertices=n), g


def ktree_query(n: int, k: int, p: float, seed: int) -> Query:
    gr, td, g = ktree_texts(n, k, p, seed)
    rng = random.Random(seed ^ 0x5EED)  # the query pair gen.bench_one draws
    u = rng.randrange(1, n + 1)
    v = rng.randrange(1, n + 1)
    return Query(f"n{n}-k{k}-p{p}-s{seed}", gr, td, u, v, graph.bfs_reachable(g, u, v))


def tree_sha1(tree) -> str:
    return hashlib.sha1(decomp.write_td(tree).encode()).hexdigest()


def self_check() -> list[str]:
    """Bit-identity gate on the pinned balanced trees; returns the mismatches."""
    errors = []
    for n, prefix in BALANCED_SHA1_PREFIX.items():
        gr, td, _ = ktree_texts(n, 3, 0.5, 7)
        got = tree_sha1(recursive.build_balanced(graph.parse_graph(gr), decomp.parse_td(td)))
        if not got.startswith(prefix):
            errors.append(f"n={n}: balanced tree sha1 {got[:12]}, expected {prefix}")
    return errors


class ReachFromText:
    """One op = parse both texts + engine.reach(): the `twreach reach` path.

    Set-up parses every instance once. The balanced tree that reach() builds
    internally is caught on its way out of engine.build_balanced so that its
    hash can join the fingerprint.
    """

    def __init__(self, queries: list[Query]):
        self.queries = queries
        self._tree = None

    def install(self, patches) -> None:
        build = engine.build_balanced

        def build_balanced(g, t):
            self._tree = build(g, t)
            return self._tree
        patches.set(engine, "build_balanced", build_balanced)

    def setup(self) -> None:
        for q in self.queries:
            graph.parse_graph(q.gr)
            decomp.parse_td(q.td)

    def op(self, q: Query):
        self._tree = None
        g = graph.parse_graph(q.gr)
        t = decomp.parse_td(q.td)
        _, report = engine.reach(g, t, q.u, q.v)
        return report, self._tree


class KtreeCold(ReachFromText):
    """24 fresh k=3, n=128 k-trees, one query each."""

    name = "ktree-cold"
    trace_ops = 8

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        super().__init__([ktree_query(128, 3, 0.5, rng.randrange(1 << 31)) for _ in range(24)])


class SmallMixed(ReachFromText):
    """480 small k-trees: 4 for each of 10 sizes n in 4..64, k in 1..4 and p in {.2, .5, .8}.

    The grid is the same for every seed, which changes only the graphs and
    queries. Every run of 120 instances covers the grid once.
    """

    name = "small-mixed"
    trace_ops = 120
    sizes = 10
    per_cell = 4

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        queries = []
        for _ in range(self.per_cell):
            for i in range(self.sizes):
                for k in (1, 2, 3, 4):
                    lo = max(4, k + 1)
                    for p in (0.2, 0.5, 0.8):
                        n = lo + round((64 - lo) * i / (self.sizes - 1))
                        queries.append(ktree_query(n, k, p, rng.randrange(1 << 31)))
        super().__init__(queries)


class KtreeMultiquery:
    """The pinned k=3, n=256, seed=7 graph, balanced once; 12 seeded queries.

    One op = augment({u, v}) + reach_balanced. The graph is the ROADMAP's
    reference instance, so set-up time is the same work on every seed.
    """

    name = "ktree-multiquery"
    trace_ops = 8

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        gr, td, g = ktree_texts(256, 3, 0.5, 7)
        self.queries = []
        for i in range(12):
            u = rng.randrange(1, g.n + 1)
            v = rng.randrange(1, g.n + 1)
            self.queries.append(Query(f"q{i}-{u}-{v}", gr, td, u, v, graph.bfs_reachable(g, u, v)))
        self.g = self.tree = None

    def install(self, patches) -> None:
        pass

    def setup(self) -> None:
        q = self.queries[0]
        g = graph.parse_graph(q.gr)
        t = decomp.parse_td(q.td)
        rep = decomp.validate_td(g, t)
        if not rep.ok:
            raise ValueError(f"generated decomposition is invalid: {rep.witness}")
        self.g, self.tree = g, recursive.build_balanced(g, t)

    def op(self, q: Query):
        augmented = self.tree.augment({q.u, q.v})
        report = engine.reach_balanced(self.g, augmented, q.u, q.v, engine="auto", report=True)
        return report, self.tree


WORKLOADS = {w.name: w for w in (KtreeCold, KtreeMultiquery, SmallMixed)}
