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
(node, budget, state); its loop looks the memo and the leaves' step tables
up itself and runs leaf blocks inline. The run's block climbs the budgets
1, 2, 4, ... and stops memoizing once a budget is stable (`_Runner.run_fast`
states the condition and proves it exact): from there on every block
repeats the parts it entered at that budget, so the works of the higher
budgets follow from recurrences over the memoized blocks, and the walk
visits none of them. States are indices, each distinct mask interned
once with its popcount and, on its first step-table miss, its successor
closure; each leaf has one step table, state to state. The walk carries
states and works only: a schedule's length depends on the tree's shape
alone, and a run reads it from the closed form
`sequences.schedule_length`, so it makes no pass over the schedule. A
query on an `augment` copy rebuilds nothing its base tree knows: its
per-leaf tables are the plan's leaf scopes (root-path bags as vertex masks)
with the copy's vertices added, and empty step tables; it reads the root's
bag mask and leaf depths, and it builds none of the copy's bags. The
literal iteration-by-iteration walk ("loop") is kept as the reference the
tests compare it with: both give bit-identical results and accounting.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .decomp import BalancedTD, TreeDecomp, validate_td
from .graph import DiGraph, VertexSet, undirected_components, vset
from .recursive import build_balanced
from .sequences import LeafSeq, leaf_depths, schedule_length
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
    memo_entries: int = 0  # inner-block memo size when the walk ends: its budgets stop
    # where the walk's budget axis collapses (at 8 on the k=3 bench queries); 0 for "loop"
    step_entries: int = 0  # entries of all the leaves' step tables when the walk ends
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
        # is its successor closure once a step from it has missed the tables
        self.masks: list[int] = []
        self.pops: list[int] = []
        self.closures: list[int | None] = []
        self._index: dict[int, int] = {}
        self.steps: dict[int, dict[int, int]] = {f: {} for f in scope}  # leaf's table: i -> j
        self.memo: dict[tuple[int, int, int], tuple[int, int]] = {}

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
        """One iteration from state i: the state j of the fresh vector scoped to
        leaf f, entered in f's step table. Callers look the table up first."""
        cur = self.closures[i]
        if cur is None:
            cur = self.close(i)
        mask = cur & self.scope_mask[f]
        j = self._index.get(mask)
        if j is None:  # interned as `state` does
            j = self._index[mask] = len(self.masks)
            self.masks.append(mask)
            self.pops.append(mask.bit_count())
            self.closures.append(None)
        self.steps[f][i] = j
        return j

    def run_loop(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Literal walk of the schedule. Returns (final state, iterations, work)."""
        i = self.state(initial)
        iters = work = 0
        size = self.scope_size
        pops = self.pops
        steps = self.steps
        for f in LeafSeq(self.tree, t, d):
            iters += 1
            work += pops[i] * size[f]
            j = steps[f].get(i)
            i = self.step(f, i) if j is None else j
        return self.masks[i], iters, work

    def run_fast(self, t: int, d: int, initial: int) -> tuple[int, int, int]:
        """Block-memoized walk, extensionally identical to run_loop.

        Every block (t, d) begins with one step at t's first leaf, so its
        outcome depends on the entry state only through that step. `walk(t,
        c, i)` runs block (t, c) from state index i after that step, taking
        every later part's first step itself, and returns its final state
        and work; its memo entry is (t, c, i) (`self.memo` keeps the last
        run's memo). The parts come from the tree's walk plan, read here and
        never built: t's parts at budget 1 for c = 1 and at budget 2 for
        c > 1, scaled by c/2 (t itself runs at c/2, every other part at c).
        The run's block (t, c) is the one part of a virtual parent, None.
        The loop looks the memo and each leaf's step table up itself,
        calling `walk` or `step` only on a miss, and runs leaf blocks
        inline: marks at a fixed leaf are monotone, so a leaf block stops
        at the first repeated state. A block's length does not depend on
        its states, so the walk counts none: the iterations are
        `sequences.schedule_length` of t's leaves by depth, which the tree
        keeps for its root (`BalancedTD.leaf_depths`) and any other t scans.

        An inner t's block runs at c = 1, 2, 4, ..., d in turn. The run at
        d alone would begin with the run at d/2, so the runs memoize
        exactly the blocks it would, in the same order. After the run at
        c, for 4 <= c <= d/8, `_collapse` checks whether budget h = c/2 is
        stable. Let S_h be the pairs (x, s) whose block at budget h the
        runs so far memoized. Budget h is stable when
          (a) every pair of S_h has the same final state at h as at h/2;
          (b) every half part (x, h/2, s') that a block of S_h at h enters
              has (x, s') in S_h;
          (c) every leaf part of those blocks reaches its repeated state
              within h - 1 steps.
        Claim: then at every budget c' >= h, the block of each pair p of
        S_h enters its parts at the states its block at h enters them, its
        half parts are pairs of S_h, and it ends at p's final state at h.
        Proof, by induction on c' and, at one c', on the height of p's
        node. At c' = h this is (b). At 2c', p's block begins with its half
        at c', which ends at p's final state at h (induction), as p's half
        at h/2 does in its block at h, by (a). A child part is a pair of S_h
        (the block at h memoized it), so by induction on height it ends
        where it ended at h; a leaf part does too, by (c), since it takes
        at least h - 1 steps at any budget >= h. So each part is entered at
        the same state as at h. A later half (x, s') is in S_h by (b), and
        ends at (x, s')'s final state at h (induction), which is its final
        state at h/2 by (a): where that half ended in the block at h.
        So from budget h on, each pair's block is one recipe: the
        first-step works of its later parts, its half and child pairs, and
        its leaf parts, each of work K0 + c' K1. The works at 2h, 4h, ...,
        d follow from the memo's values at h, level by level, and the final
        state is the one at h. The steps and states are those of the run at
        d too: past budget c, each part takes the steps it took by then.
        When no budget is stable, the runs go on up to d.
        """
        if d < 1 or d & (d - 1):  # the budgets 1, 2, 4, ... must meet d
            raise ValueError(f"{d} is not a positive power of 2")
        size = self.scope_size
        pops = self.pops
        step = self.step
        steps = self.steps
        tree = self.tree
        plans, first, _ = tree.walk_plan
        plans = {**plans, None: ([(t, first[t], tree.ordered_children[t])],) * 2}
        memo = self.memo = {}

        def walk(t: int | None, c: int, i: int) -> tuple[int, int]:
            """(final state, work after the first step) of block (t, c)."""
            half = c >> 1
            work = 0
            later = False  # the first part's first step is already taken
            for sub, f, inner in plans[t][c > 1]:
                if later:  # take the part's first step, at f
                    work += pops[i] * size[f]
                    j = steps[f].get(i)
                    i = step(f, i) if j is None else j
                later = True
                if inner:
                    b = half if sub == t else c
                    hit = memo.get((sub, b, i))
                    if hit is None:
                        hit = memo[sub, b, i] = walk(sub, b, i)
                    i, w = hit
                    work += w
                    continue
                tab = steps[sub]
                scope = size[sub]
                n = 0
                for n in range(1, c):
                    j = tab.get(i)
                    j = step(sub, i) if j is None else j
                    work += pops[i] * scope
                    if j == i:
                        break
                    i = j
                # the remaining repetitions leave the state unchanged
                work += (c - 1 - n) * pops[i] * scope
            return i, work

        f = first[t]
        i0 = self.state(initial)
        i = step(f, i0)
        # a stable budget h = c/2 pays off only when it spares the runs at 2c,
        # 4c and 8c at least (measured), so checks need 8c <= d; a leaf's
        # block, or any below d = 32, runs at d alone
        c, mark = (1 if t in plans and d >= 32 else d), 0
        try:
            while True:
                before, mark = mark, len(memo)  # memo sizes before the runs at c/2 and c
                out = walk(None, c, i)
                if c == d:
                    break
                if c >= 4 and 8 * c <= d:
                    stable = self._collapse(t, c >> 1, islice(memo, before, None), i, d)
                    if stable:
                        out = stable
                        break
                c <<= 1
        finally:
            del walk  # the closure refers to itself: break the cycle
        i, work = out
        depths = tree.leaf_depths if t == tree.root else leaf_depths(tree, t)
        return self.masks[i], schedule_length(depths, d), work + pops[i0] * size[f]

    def _collapse(self, t: int, h: int, keys, i: int, d: int) -> tuple[int, int] | None:
        """(final state, work after the first step) of block (t, d) from
        state i if budget h is stable (see `run_fast`), else None.

        `keys` holds every memo key of budget h, in the memo's order, so a
        block's child pairs come before it. Each pair's recipe is read off
        its block at h: the first-step works and leaf terms K0 + c K1,
        summed into `fixed` + c `slope`, its half pairs (read one level
        down) and its child pairs (read at the same level).
        """
        memo, steps, pops, size = self.memo, self.steps, self.pops, self.scope_size
        plans = self.tree.walk_plan[0]
        half = h >> 1
        if memo[t, h, i][0] != memo[t, half, i][0]:  # (a) on the run's own pair first
            return None
        pairs = [(x, s) for x, b, s in keys if b == h]
        index = {p: q for q, p in enumerate(pairs)}
        recipes = []
        for x, s in pairs:
            if memo[x, h, s][0] != memo[x, half, s][0]:  # (a)
                return None
            fixed = slope = 0
            halves, kids = [], []
            j = s
            later = False  # the block's first step is its caller's
            for sub, f, inner in plans[x][1]:
                if later:  # the part's first step, at f
                    fixed += pops[j] * size[f]
                    j = steps[f][j]
                later = True
                if inner:
                    q = index.get((sub, j))
                    if q is None:  # (b): a half part entered outside S_h
                        return None
                    if sub == x:
                        halves.append(q)
                        j = memo[x, half, j][0]
                    else:
                        kids.append(q)
                        j = memo[sub, h, j][0]
                    continue
                tab = steps[sub]
                scope = size[sub]
                for n in range(1, h):
                    k = tab[j]
                    fixed += pops[j] * scope
                    if k == j:
                        break
                    j = k
                else:  # (c): the leaf has not settled within h - 1 steps
                    return None
                fixed -= (1 + n) * pops[j] * scope
                slope += pops[j] * scope
            recipes.append((fixed, slope, halves, kids))
        got = [memo[x, h, s] for x, s in pairs]
        work = [w for _, w in got]
        c = h
        while c < d:
            c <<= 1
            nwork = []
            for fixed, slope, halves, kids in recipes:
                w = fixed + c * slope
                for q in halves:
                    w += work[q]
                for q in kids:
                    w += nwork[q]
                nwork.append(w)
            work = nwork
        q = index[t, i]
        return got[q][0], work[q]


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
                       step_entries=sum(map(len, runner.steps.values())),
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
