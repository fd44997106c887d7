"""Two-bit-vector marking over a leaf schedule, with declared working space.

The engine walks the leaf schedule of a balanced binary decomposition: at each
leaf it re-marks, into a fresh vector scoped to that leaf, every vertex
reachable from the previously marked set by at most one arc (or equal to a
marked vertex).

The production evaluator ("fast", also what the default "auto" runs) splits
each block of the schedule by the tree's walk plan (`BalancedTD.walk_plan`):
each inner node's `LeafSeq.parts` at budget 1, and at budget 2, which serve
every budget c > 1 scaled by c/2. Every block begins with one step at its
subtree's first leaf (the first leaf of its first part at budget 1); the
block's caller takes that step, and the outcome of an inner block is memoized
on (subtree, budget, state after that step), which the schedule repeats
massively. It is one local recursive function of `_Runner.run_fast` over
(node, budget, state); its loop looks the memo and the step cache up itself
and runs leaf blocks inline. States are indices, each distinct mask interned
once with its popcount and, on its first step-cache miss, its successor
closure. The walk also returns each block's length, so a run makes no
separate pass over the schedule. A query on an `augment` copy rebuilds
nothing its base tree knows: its one per-leaf table is the plan's leaf
scopes (root-path bags as vertex masks) with the copy's vertices added,
it reads the root's bag mask, and it builds none of the copy's bags. The
literal iteration-by-iteration walk ("loop") is kept as the reference the
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


@dataclass(frozen=True)
class AncestorOrder:
    """Fixed ascending ordering of the vertices in bags on the root-to-leaf path."""
    leaf: int
    vertices: VertexSet


def ancestor_vertices(tree: BalancedTD, t: int) -> AncestorOrder:
    """Union of bags on the root-to-t path, ancestor-or-self, ascending order."""
    if t not in tree.bags:
        raise ValueError(f"unknown node id {t}")
    acc: set[int] = set()
    node: int | None = t
    while node is not None:
        acc.update(tree.bag(node))
        node = tree.parent(node)
    return AncestorOrder(t, vset(acc))


@dataclass(frozen=True)
class GadView:
    """Ancestor-or-descendant subgraph of a tree node (test oracle only)."""
    node: int
    vertices: VertexSet
    arcs: frozenset[tuple[int, int]]


def gad_view(g: DiGraph, tree: BalancedTD, t: int) -> GadView:
    scope_nodes: set[int] = set()
    node: int | None = t
    while node is not None:
        scope_nodes.add(node)
        node = tree.parent(node)
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


@dataclass(slots=True)
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
    memo_entries: int = 0  # inner-block memo size when the walk ends; 0 for "loop"
    step_entries: int = 0  # step-cache size when the walk ends
    state_entries: int = 0  # distinct states the walk held


class _Runner:
    """Shared precomputation for both engines over one (graph, tree) pair."""

    def __init__(self, g: DiGraph, tree: BalancedTD):
        self.g = g
        self.tree = tree
        add = tree._add or 0  # each leaf's scope: the plan's, plus an augment copy's vertices
        self.scope_mask = scope = {f: m | add for f, m in tree.walk_plan[2].items()}
        self.scope_size = {f: m.bit_count() for f, m in scope.items()}
        # state i is the vertex mask masks[i], of popcount pops[i]; closures[i]
        # is its successor closure once a step from it has missed the cache
        self.masks: list[int] = []
        self.pops: list[int] = []
        self.closures: list[int | None] = []
        self._index: dict[int, int] = {}
        self._step_cache: dict[tuple[int, int], int] = {}  # (leaf, i) -> j
        self.memo: dict[tuple[int, int, int], tuple[int, int, int]] = {}

    def state(self, mask: int) -> int:
        """Index of the state `mask`, interned with its popcount on first sight."""
        i = self._index.get(mask)
        if i is None:
            i = self._index[mask] = len(self.masks)
            self.masks.append(mask)
            self.pops.append(mask.bit_count())
            self.closures.append(None)
        return i

    def close(self, i: int) -> int:
        """Successor closure R | N+(R) of state i's mask R, kept in closures[i]."""
        cur = m = self.masks[i]
        succ = self.g.succ_mask
        while m:
            top = m.bit_length() - 1
            m ^= 1 << top
            cur |= succ[top]
        self.closures[i] = cur
        return cur

    def step(self, f: int, i: int) -> int:
        """One iteration from state i: the state of the fresh vector scoped to leaf f."""
        hit = self._step_cache.get((f, i))
        if hit is not None:
            return hit
        cur = self.closures[i]
        if cur is None:
            cur = self.close(i)
        j = self._step_cache[f, i] = self.state(cur & self.scope_mask[f])
        return j

    def run_loop(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Literal walk of the schedule. Returns (final state, iterations, work)."""
        i = self.state(initial)
        iters = work = 0
        size = self.scope_size
        pops = self.pops
        for f in LeafSeq(self.tree, t, d):
            iters += 1
            work += pops[i] * size[f]
            i = self.step(f, i)
        return self.masks[i], iters, work

    def run_fast(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Block-memoized walk, extensionally identical to run_loop.

        Every block (t, d) begins with one step at t's first leaf, so its
        outcome depends on the entry state only through that step. `walk(t,
        c, i)` runs block (t, c) from state index i after that step, taking
        every later part's first step itself; its memo entry is (t, c, i)
        (`self.memo` keeps the last run's memo). The parts come from the
        tree's walk plan, read here and never built: t's parts at budget 1
        for c = 1 and at budget 2 for c > 1, scaled by c/2 (t itself runs at
        c/2, every other part at c). The run's block (t, d) is the one part
        of a virtual parent, None. The loop looks the memo and the step
        cache up itself, calling `walk` or `step` only on a miss, and runs
        leaf blocks inline: marks at a fixed leaf are monotone, so a leaf
        block stops at the first repeated state.
        """
        size = self.scope_size
        pops = self.pops
        step = self.step
        cache = self._step_cache
        plans, first, _ = self.tree.walk_plan
        plans = {**plans, None: ([(t, first[t], self.tree.ordered_children[t])],) * 2}
        memo = self.memo = {}

        def walk(t: int | None, c: int, i: int) -> tuple[int, int, int]:
            """(final state, work, length after the first step) of block (t, c)."""
            half = c >> 1
            work = 0
            length = -1  # the first part's first step is already taken
            for sub, f, inner in plans[t][c > 1]:
                b = half if sub == t else c
                if length >= 0:  # a later part: take its first step, at f
                    work += pops[i] * size[f]
                    j = cache.get((f, i))
                    i = step(f, i) if j is None else j
                if inner:
                    hit = memo.get((sub, b, i))
                    if hit is None:
                        hit = memo[sub, b, i] = walk(sub, b, i)
                    i, w, n = hit
                    work += w
                    length += n + 1
                    continue
                scope = size[sub]
                steps = 0
                for steps in range(1, b):
                    j = cache.get((sub, i))
                    j = step(sub, i) if j is None else j
                    work += pops[i] * scope
                    if j == i:
                        break
                    i = j
                # the remaining repetitions leave the state unchanged
                work += (b - 1 - steps) * pops[i] * scope
                length += b
            return i, work, length

        f = first[t]
        i0 = self.state(initial)
        try:
            i, work, length = walk(None, d, step(f, i0))
        finally:
            del walk  # the closure refers to itself: break the cycle
        return self.masks[i], length + 1, work + pops[i0] * size[f]


def _declared_bits(width: int, depth: int, n_nodes: int, n: int, seq_len: int) -> int:
    """Bits of the declared working set of one run; everything else is read-only.

    Eight items: the marking vectors R0 and R1 and the scope scratch, at
    cap = (width+1)(depth+1) bits each; the tree-node ids t0 and t1; the
    schedule index; and the x/y vertex cursors. All are held for the whole
    run, so their sum is the peak.
    """
    cap = (width + 1) * (depth + 1)
    return (3 * cap + 2 * max(n_nodes, 1).bit_length()
            + max(seq_len, 1).bit_length() + 2 * max(n, 1).bit_length())


def reach_balanced(g: DiGraph, tree: BalancedTD, u: int, v: int,
                   engine: str = "auto", report: bool = False):
    """Marking run over the full schedule of the balanced decomposition.

    Requires u and v in the root bag (callers augment first). Returns the
    reachability boolean, or the full ReachReport when report=True.
    """
    root = tree._bag_masks[tree.root] | (tree._add or 0)  # the root bag, built or not
    if u < 1 or v < 1 or not (root >> u & 1 and root >> v & 1):
        raise ValueError("source and target must appear in the root bag")
    n = g.n
    d_total = 1 << max(n - 1, 0).bit_length()
    runner = _Runner(g, tree)
    initial = 1 << u  # u is in every leaf scope after augmentation
    if engine == "loop":
        state, iters, work = runner.run_loop(tree.root, d_total, initial)
    elif engine in ("auto", "fast"):
        engine = "fast"
        state, iters, work = runner.run_fast(tree.root, d_total, initial)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    width = tree.width()
    depth = tree.depth()
    reachable = bool(state >> v & 1)
    if not report:
        return reachable
    return ReachReport(reachable=reachable, iterations=iters, relax_work=work,
                       peak_bits=_declared_bits(width, depth, len(tree.preorder), n, iters),
                       n=n, d=d_total,
                       width_balanced=width, depth_balanced=depth, engine=engine,
                       memo_entries=len(runner.memo),
                       step_entries=len(runner._step_cache),
                       state_entries=len(runner.masks))


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
    # the graph caches its components, so build_balanced does not search again
    if not any(u in comp and v in comp for comp in undirected_components(g)):
        return False, ReachReport(reachable=False, iterations=0, relax_work=0,
                                  peak_bits=0, n=g.n, d=0, width_balanced=-1,
                                  depth_balanced=-1, engine="short-circuit")
    balanced = build_balanced(g, t).augment({u, v})
    result = reach_balanced(g, balanced, u, v, engine=engine, report=True)
    return result.reachable, result
