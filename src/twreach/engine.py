"""Two-bit-vector marking over a leaf schedule, with declared working space.

The engine walks the leaf schedule of a balanced binary decomposition: at each
leaf it re-marks, into a fresh vector scoped to that leaf, every vertex
reachable from the previously marked set by at most one arc (or equal to a
marked vertex).

The production evaluator ("fast", also what the default "auto" runs) splits
each block of the schedule by `LeafSeq.parts`. Every block begins with one
step at its subtree's first leaf (`LeafSeq.first_leaves`); the block's caller
takes that step, and the outcome of an inner block is memoized on (subtree,
budget, state after that step), which the schedule repeats massively. It is
one local recursive function of `_Runner.run_fast`, with the child lists,
scope sizes, step cache, `parts`, first leaves and memo bound once per run.
It also returns each block's length, so a run makes no separate pass over the
schedule, and the per-query set-up is linear in the tree: every node's scope
(the bags on its root path) is one vertex mask, filled from its parent's in a
single preorder pass. The literal iteration-by-iteration walk ("loop") is
kept as the reference the tests compare it with: both give bit-identical
results and accounting.
"""
from __future__ import annotations

from dataclasses import dataclass

from .decomp import BalancedTD, TreeDecomp, validate_td
from .graph import DiGraph, VertexSet, undirected_components, vertex_mask, vset
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


class _Runner:
    """Shared precomputation for both engines over one (graph, tree) pair."""

    def __init__(self, g: DiGraph, tree: BalancedTD):
        self.g = g
        self.tree = tree
        # scope of node x: the bags on the root-to-x path, as a mask over
        # vertex ids; one preorder pass fills every parent before its children
        scope: dict[int, int] = {}
        for x in tree.preorder:  # the root's parent, None, has no scope
            scope[x] = vertex_mask(tree.bag(x)) | scope.get(tree.parent(x), 0)
        self.scope_mask = scope
        self.scope_size = {x: m.bit_count() for x, m in scope.items()}
        self._step_cache: dict[tuple[int, int], int] = {}
        # one object per state value, so the step cache and the memo share
        # each state instead of holding a fresh int per cache miss
        self._states: dict[int, int] = {}
        self.memo: dict[tuple[int, int, int], tuple[int, int, int]] = {}

    def step(self, f: int, prev: int) -> int:
        """One iteration: marks of the fresh vector scoped to leaf f."""
        hit = self._step_cache.get((f, prev))
        if hit is not None:
            return hit
        cur = m = prev
        succ = self.g.succ_mask
        while m:
            low = m & -m
            cur |= succ[low.bit_length() - 1]
            m ^= low
        cur &= self.scope_mask[f]
        states = self._states
        cur = states.setdefault(cur, cur)
        self._step_cache[f, states.setdefault(prev, prev)] = cur
        return cur

    def run_loop(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Literal walk of the schedule. Returns (final state, iterations, work)."""
        state = initial
        iters = 0
        work = 0
        size = self.scope_size
        for f in LeafSeq(self.tree, t, d):
            iters += 1
            work += state.bit_count() * size[f]
            state = self.step(f, state)
        return state, iters, work

    def run_fast(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Block-memoized walk, extensionally identical to run_loop.

        Every block (t, d) begins with one step at t's first leaf, so its
        outcome depends on the entry state only through that step. The caller
        of a block takes that step (the first part of an inner block shares
        its parent's, and run_fast takes the root's), and inner blocks are
        memoized on (t, d, state after the step); `self.memo` keeps the
        last run's memo. Leaf blocks are not memoized: marks at a fixed leaf
        are monotone, so a leaf block stops at the first repeated state.
        """
        children = self.tree.ordered_children
        size = self.scope_size
        step = self.step
        seq = LeafSeq(self.tree, t, d)
        parts = seq.parts
        first = seq.first_leaves()
        memo = self.memo = {}

        def block(t: int, d: int, state: int) -> tuple[int, int, int]:
            """(final state, work, length) of block (t, d) after its first
            step, entered with the state that step left."""
            if not children[t]:
                scope = size[t]
                work = steps = 0
                for steps in range(1, d):
                    nxt = step(t, state)
                    work += state.bit_count() * scope
                    if nxt == state:
                        break
                    state = nxt
                # the remaining repetitions leave the state unchanged
                return state, work + (d - 1 - steps) * state.bit_count() * scope, d - 1
            key = (t, d, state)
            hit = memo.get(key)
            if hit is not None:
                return hit
            # the first part begins with this block's first step, already taken
            (sub, c), *rest = parts(t, d)
            state, work, length = block(sub, c, state)
            for sub, c in rest:
                f = first[sub]
                work += state.bit_count() * size[f]
                state, w, n = block(sub, c, step(f, state))
                work += w
                length += n + 1
            out = memo[key] = (state, work, length)
            return out

        f = first[t]
        try:
            state, work, length = block(t, d, step(f, initial))
        finally:
            del block  # the closure refers to itself: break the cycle
        return state, length + 1, work + initial.bit_count() * size[f]


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
    root_bag = set(tree.bag(tree.root))
    if u not in root_bag or v not in root_bag:
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
                       peak_bits=_declared_bits(width, depth, len(tree.bags), n, iters),
                       n=n, d=d_total,
                       width_balanced=width, depth_balanced=depth, engine=engine,
                       memo_entries=len(runner.memo),
                       step_entries=len(runner._step_cache))


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
