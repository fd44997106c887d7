"""Recursive decomposition of a graph by repeated bag separators.

Nodes are (Z, r) pairs: a boundary set Z and a representative vertex r of one
component of the graph minus Z. Children are obtained by removing two further
separators; relabeling nodes with their boundary-plus-separator bags yields a
tree decomposition of width at most 6w+6 and depth at most ceil(log2 n), which
is then binarized and balanced.

For a node (Z, r) with component C (of the graph minus Z, containing r), the
children are the components of C minus Z' = Z | sep(Z) | sep(C), and the hat
bag is Z | ((sep(C) | sep(Z)) & C). Three exact facts spare most of that work
without changing the tree:

(a) If C lies inside its own separator bag sep(C), then C minus Z' is empty,
    so the node is a leaf, and its hat bag is Z | C: sep(Z) is never needed.
(b) sep({r}) is the first bag holding r, so a one-vertex component {r}
    satisfies (a) whenever some bag holds r (always, on a valid
    decomposition), with no `sep` call at all.
(c) A child's component is the `sub` mask `rd_children` grew for it: every
    neighbour of sub outside it lies in Z' (C's own outside neighbours are in
    Z), and the child's boundary is exactly those that touch sub. So
    `rd_children` records it, and only roots search the graph for theirs.
"""
from __future__ import annotations

from typing import NamedTuple

from .decomp import BalancedTD, TreeDecomp, binarize_balance
from .graph import (DiGraph, VertexSet, component_containing, grow, members,
                    undirected_components, vertex_mask, vset)
from .separator import SeparatorResult, sep


class RDNode(NamedTuple):
    """A (Z, r) node; a tuple, so the caches keyed by it hash and compare in C."""
    z: VertexSet
    r: int


class RDContext:
    """Immutable inputs of a recursive decomposition plus its separator and component caches."""

    def __init__(self, g: DiGraph, t: TreeDecomp, v0: int):
        if not (1 <= v0 <= g.n):
            raise ValueError(f"root representative {v0} out of range")
        self.g = g
        self.t = t
        self.v0 = v0
        self._sep_cache: dict[VertexSet, SeparatorResult] = {}
        self._comp_cache: dict[RDNode, VertexSet] = {}

    def root(self) -> RDNode:
        return RDNode((), self.v0)

    def sep_of(self, u: VertexSet) -> SeparatorResult:
        """sep of the canonical vertex set u, cached by it."""
        hit = self._sep_cache.get(u)
        if hit is None:
            hit = self._sep_cache[u] = sep(self.g, self.t, u)
        return hit

    def component_of(self, node: RDNode) -> VertexSet:
        """Component of g minus node.z containing node.r. `rd_children` records
        each child's (fact (c)), so `materialize_rd` searches for the root's only."""
        hit = self._comp_cache.get(node)
        if hit is None:
            hit = self._comp_cache[node] = component_containing(self.g, node.z, node.r)
        return hit

    def settled(self, node: RDNode) -> bool:
        """True iff the node's component lies inside its own separator bag:
        the node is then a leaf with hat bag Z | C (facts (a) and (b))."""
        comp = self.component_of(node)
        return (len(comp) == 1 and node.r in self.t.rooting.top
                or set(comp) <= set(self.sep_of(comp).separator))


def _z_prime(ctx: RDContext, node: RDNode, comp: VertexSet) -> set[int]:
    return set(node.z) | set(ctx.sep_of(node.z).separator) | set(ctx.sep_of(comp).separator)


def rd_children(ctx: RDContext, node: RDNode) -> list[RDNode]:
    """Children of (Z, r), ordered by each component's lowest-indexed vertex."""
    if node.r in node.z:
        raise ValueError("malformed node: representative inside its boundary")
    comp = ctx.component_of(node)
    zp = _z_prime(ctx, node, comp)
    nbr = ctx.g.und_mask
    alive = vertex_mask(comp) & ~vertex_mask(zp)
    children = []
    while alive:
        low = alive & -alive
        sub = grow(nbr, alive, low)
        alive ^= sub
        if 2 * sub.bit_count() > len(comp):
            # sep(comp) halves comp whenever the decomposition is valid; this
            # also bounds the recursion on inputs that skipped validation
            raise ValueError("invalid decomposition: a separator bag does not halve its component")
        child = RDNode(vset(v for v in zp if nbr[v] & sub), low.bit_length() - 1)
        ctx._comp_cache[child] = members(sub)  # fact (c)
        children.append(child)
    return children


def hat_bag(ctx: RDContext, node: RDNode) -> VertexSet:
    """Relabeling bag: Z union ((sep(comp) union sep(Z)) intersect comp)."""
    if node.r in node.z:
        raise ValueError("malformed node: representative inside its boundary")
    if ctx.settled(node):
        return vset(node.z + ctx.component_of(node))
    comp = ctx.component_of(node)
    seps = set(ctx.sep_of(comp).separator) | set(ctx.sep_of(node.z).separator)
    return vset(seps.intersection(comp).union(node.z))


def materialize_rd(ctx: RDContext) -> list[tuple[int, RDNode, int | None]]:
    """Full recursive decomposition as (id, node, parent-id) in preorder.

    Settled nodes are leaves, so `rd_children` runs on the others only.
    """
    out: list[tuple[int, RDNode, int | None]] = []
    stack: list[tuple[RDNode, int | None]] = [(ctx.root(), None)]
    while stack:
        node, parent = stack.pop()
        nid = len(out) + 1
        out.append((nid, node, parent))
        if not ctx.settled(node):
            stack.extend((child, nid) for child in reversed(rd_children(ctx, node)))
    return out


def build_hat_decomposition(ctx: RDContext) -> TreeDecomp:
    """Materialized tree of the recursive decomposition with relabeled bags.

    Covers the undirected component of v0; rooted at node id 1.
    """
    rows = materialize_rd(ctx)
    bags = {nid: hat_bag(ctx, node) for nid, node, _ in rows}
    edges = [(parent, nid) for nid, _, parent in rows if parent is not None]
    return TreeDecomp(bags, edges, root=1)


def build_balanced(g: DiGraph, t: TreeDecomp) -> BalancedTD:
    """Full pipeline: the hat decomposition of each undirected component,
    in `undirected_components` order, binarized and balanced and joined by
    `binarize_balance`. Requires a valid decomposition t
    (`decomp.validate_td`); an invalid one may raise ValueError or
    RuntimeError, and a graph with no vertices raises ValueError.
    """
    return binarize_balance(*(build_hat_decomposition(RDContext(g, t, min(comp)))
                              for comp in undirected_components(g)))
