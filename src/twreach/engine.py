"""Two-bit-vector marking over a leaf schedule, with metered working space.

The engine walks the leaf schedule of a balanced binary decomposition: at each
leaf it re-marks, into a fresh vector scoped to that leaf, every vertex
reachable from the previously marked set by at most one arc (or equal to a
marked vertex).

The production evaluator ("fast", also what the default "auto" runs) splits
each block of the schedule by `LeafSeq.parts` and memoizes the outcome of a
(subtree, budget, entry state) triple, which the schedule repeats massively.
The literal iteration-by-iteration walk ("loop") is kept as the reference the
tests compare it with: both give bit-identical results and accounting.
"""
from __future__ import annotations

from dataclasses import dataclass

from .decomp import BalancedTD, TreeDecomp, validate_td
from .graph import DiGraph, VertexSet, undirected_components, vset
from .recursive import build_balanced
from .sequences import LeafSeq
# Not called here since the walk recurses through LeafSeq.parts; kept as
# engine.useq_element because perfbench/tracing.py counts calls through it.
from .sequences import useq_element  # noqa: F401


class MeterError(ValueError):
    pass


class SpaceMeter:
    """Tallies peak bits of registered working state."""

    def __init__(self):
        self.current_bits = 0
        self.peak_bits = 0
        self.registry: dict[str, int] = {}

    def register(self, name: str, bits: int) -> None:
        if name in self.registry:
            raise MeterError(f"working-state item {name!r} already registered")
        if bits < 0:
            raise MeterError("bit count must be non-negative")
        self.registry[name] = bits
        self.current_bits += bits
        self.peak_bits = max(self.peak_bits, self.current_bits)

    def release(self, name: str) -> None:
        if name not in self.registry:
            raise MeterError(f"unknown working-state item {name!r}")
        self.current_bits -= self.registry.pop(name)


@dataclass(frozen=True)
class AncestorOrder:
    """Fixed ascending ordering of the vertices in bags on the root-to-leaf path."""
    leaf: int
    vertices: VertexSet


def ancestor_vertices(tree: BalancedTD, t: int) -> AncestorOrder:
    """Union of bags on the root-to-t path, ancestor-or-self, ascending order."""
    if t not in tree.bags:
        raise ValueError(f"unknown node id {t}")
    parent = tree.parent_map()
    acc: set[int] = set()
    node: int | None = t
    while node is not None:
        acc.update(tree.bag(node))
        node = parent[node]
    return AncestorOrder(t, vset(acc))


def pos(order: AncestorOrder, v: int) -> int:
    """0-based rank of v in the fixed ordering; v must be in scope."""
    lo, hi = 0, len(order.vertices)
    while lo < hi:
        mid = (lo + hi) // 2
        if order.vertices[mid] < v:
            lo = mid + 1
        else:
            hi = mid
    if lo == len(order.vertices) or order.vertices[lo] != v:
        raise ValueError(f"vertex {v} not in the scope of leaf {order.leaf}")
    return lo


class MarkVector:
    """Reusable bit vector scoped to one leaf's ancestor ordering."""

    def __init__(self, capacity: int, order: AncestorOrder | None = None):
        self.capacity = capacity
        self.order = order
        self.bits = 0

    def rebind(self, order: AncestorOrder) -> None:
        if len(order.vertices) > self.capacity:
            raise ValueError("scope exceeds vector capacity")
        self.order = order
        self.bits = 0

    def mark(self, v: int) -> None:
        self.bits |= 1 << pos(self.order, v)

    def is_marked(self, v: int) -> bool:
        return bool(self.bits >> pos(self.order, v) & 1)

    def marked_vertices(self) -> VertexSet:
        return tuple(v for i, v in enumerate(self.order.vertices) if self.bits >> i & 1)


@dataclass(frozen=True)
class GadView:
    """Ancestor-or-descendant subgraph of a tree node (test oracle only)."""
    node: int
    vertices: VertexSet
    arcs: frozenset[tuple[int, int]]


def gad_view(g: DiGraph, tree: BalancedTD, t: int) -> GadView:
    parent = tree.parent_map()
    scope_nodes: set[int] = set()
    node: int | None = t
    while node is not None:
        scope_nodes.add(node)
        node = parent[node]
    stack = [t]
    while stack:
        x = stack.pop()
        for y in tree.children(x):
            scope_nodes.add(y)
            stack.append(y)
    verts: set[int] = set()
    arcs: set[tuple[int, int]] = set()
    for nid in scope_nodes:
        bag = set(tree.bag(nid))
        verts |= bag
        for u, v in g.arcs:
            if u != v and u in bag and v in bag:
                arcs.add((u, v))
    return GadView(t, vset(verts), frozenset(arcs))


@dataclass
class ReachReport:
    reachable: bool
    iterations: int
    relax_work: int
    peak_bits: int
    n: int
    d: int
    width_balanced: int
    depth_balanced: int
    engine: str


class _Runner:
    """Shared precomputation for both engines over one (graph, tree) pair."""

    def __init__(self, g: DiGraph, tree: BalancedTD):
        self.g = g
        self.tree = tree
        self.orders = {leaf: ancestor_vertices(tree, leaf) for leaf in tree.leaves}
        self.scope_mask = {}
        self.scope_size = {}
        for leaf, order in self.orders.items():
            m = 0
            for v in order.vertices:
                m |= 1 << v
            self.scope_mask[leaf] = m
            self.scope_size[leaf] = len(order.vertices)
        self.succ_mask = [0] * (g.n + 1)
        for u, v in g.arcs:
            if u != v:
                self.succ_mask[u] |= 1 << v
        self._step_cache: dict[tuple[int, int], int] = {}

    def step(self, f: int, prev: int) -> int:
        """One iteration: marks of the fresh vector scoped to leaf f."""
        key = (f, prev)
        hit = self._step_cache.get(key)
        if hit is not None:
            return hit
        cur = prev
        m = prev
        succ = self.succ_mask
        while m:
            low = m & -m
            cur |= succ[low.bit_length() - 1]
            m ^= low
        cur &= self.scope_mask[f]
        self._step_cache[key] = cur
        return cur

    def step_work(self, f: int, prev: int) -> int:
        return prev.bit_count() * self.scope_size[f]

    def run_loop(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Literal walk of the schedule. Returns (final state, iterations, work)."""
        state = initial
        iters = 0
        work = 0
        for f in LeafSeq(self.tree, t, d):
            iters += 1
            work += self.step_work(f, state)
            state = self.step(f, state)
        return state, iters, work

    def run_fast(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Block-memoized walk, extensionally identical to run_loop."""
        seq = LeafSeq(self.tree, t, d)
        state, work = self._block(seq, {}, t, d, initial)
        return state, seq.block_length(t, d), work

    def _block(self, seq: LeafSeq, memo: dict, t: int, d: int,
               state: int) -> tuple[int, int]:
        """(final state, work) of block (t, d) entered with `state`, memoized.

        The memo table is an argument, not a closure cell, so that it is freed
        as soon as run_fast returns.
        """
        key = (t, d, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        work = 0
        if self.tree.is_leaf(t):
            steps = 0
            while steps < d:
                nxt = self.step(t, state)
                work += self.step_work(t, state)
                steps += 1
                if nxt == state:
                    break
                state = nxt
            # marks at a fixed leaf are monotone, so the remaining
            # repetitions leave the state unchanged
            work += (d - steps) * self.step_work(t, state)
        else:
            for part in seq.parts(t, d):
                state, w = self._block(seq, memo, *part, state)
                work += w
        out = memo[key] = (state, work)
        return out


def _meter_layout(meter: SpaceMeter, cap: int, n_nodes: int, n: int, seq_len: int) -> None:
    """Register the declared working set of one run; everything else is read-only."""
    meter.register("R0", cap)
    meter.register("R1", cap)
    meter.register("t0", max(n_nodes, 1).bit_length())
    meter.register("t1", max(n_nodes, 1).bit_length())
    meter.register("lseq_index", max(seq_len, 1).bit_length())
    meter.register("scope_scratch", cap)
    meter.register("x_cursor", max(n, 1).bit_length())
    meter.register("y_cursor", max(n, 1).bit_length())


def reach_balanced(g: DiGraph, tree: BalancedTD, u: int, v: int,
                   meter: SpaceMeter | None = None, engine: str = "auto",
                   report: bool = False):
    """Marking run over the full schedule of the balanced decomposition.

    Requires u and v in the root bag (callers augment first). Returns the
    reachability boolean, or the full ReachReport when report=True.
    """
    root_bag = set(tree.bag(tree.root))
    if u not in root_bag or v not in root_bag:
        raise ValueError("source and target must appear in the root bag")
    if meter is None:
        meter = SpaceMeter()
    n = g.n
    d_total = 1 << max(n - 1, 0).bit_length()
    runner = _Runner(g, tree)
    width = tree.width()
    depth = tree.depth()
    cap = (width + 1) * (depth + 1)
    seq_len = LeafSeq(tree, tree.root, d_total).block_length(tree.root, d_total)
    _meter_layout(meter, cap, len(tree.bags), n, seq_len)

    initial = 1 << u  # u is in every leaf scope after augmentation
    if engine == "loop":
        state, iters, work = runner.run_loop(tree.root, d_total, initial)
    elif engine in ("auto", "fast"):
        engine = "fast"
        state, iters, work = runner.run_fast(tree.root, d_total, initial)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    for name in list(meter.registry):
        meter.release(name)
    reachable = bool(state >> v & 1)
    if not report:
        return reachable
    return ReachReport(reachable=reachable, iterations=iters, relax_work=work,
                       peak_bits=meter.peak_bits, n=n, d=d_total,
                       width_balanced=width, depth_balanced=depth, engine=engine)


def reach(g: DiGraph, t: TreeDecomp, u: int, v: int,
          engine: str = "auto") -> tuple[bool, ReachReport]:
    """End-to-end pipeline: balance, augment with {u, v}, run the marking loop.

    Vertices in different undirected components short-circuit to unreachable.
    """
    rep = validate_td(g, t)
    if not rep.ok:
        raise ValueError(f"invalid decomposition: {rep.witness}")
    if not (1 <= u <= g.n and 1 <= v <= g.n):
        raise ValueError("query vertex out of range")
    comps = undirected_components(g)
    comp_of = {}
    for i, comp in enumerate(comps):
        for x in comp:
            comp_of[x] = i
    if comp_of[u] != comp_of[v]:
        return False, ReachReport(reachable=False, iterations=0, relax_work=0,
                                  peak_bits=0, n=g.n, d=0, width_balanced=-1,
                                  depth_balanced=-1, engine="short-circuit")
    balanced = build_balanced(g, t).augment({u, v})
    result = reach_balanced(g, balanced, u, v, engine=engine, report=True)
    return result.reachable, result
