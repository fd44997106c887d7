"""Recursive decomposition of a graph by repeated bag separators.

Nodes are (Z, r) pairs: a boundary set Z and a representative vertex r of one
component C of the graph minus Z. A node's children are the components of C
minus Z' = Z | sep(Z) | sep(C), and its hat bag is Z | (Z' & C), that is
Z | ((sep(C) | sep(Z)) & C). Relabeling the nodes with their hat bags yields
a tree decomposition of width at most 6w+6 and depth at most ceil(log2 n),
which is then binarized and balanced.

One preorder pass per component (`_rd_pass`) builds the whole tree, and both
`materialize_rd` and `build_hat_decomposition` read it. The pass carries each
node's Z, C and Z' as int vertex masks (bit v for vertex v), caches each
separator bag by its target mask (`RDContext.sep_of`), and writes a sorted
VertexSet only where a caller reads one: each hat bag (`hat_bag`) and each
row of `materialize_rd`. Three exact facts spare most of the work without
changing the tree:

(a) If C lies inside its own separator bag sep(C) (C & ~sep(C) == 0), then
    C minus Z' is empty, so the node is a leaf, and its hat bag is Z | C:
    sep(Z) is never needed.
(b) sep({r}) is the first bag holding r, so a one-vertex component {r}
    satisfies (a) whenever some bag holds r (always, on a valid
    decomposition), with no `sep` call at all.
(c) The children's components are `graph.split(g, C & ~Z')`: every
    neighbour of one outside it lies in Z' (C's own outside neighbours are
    in Z), and its boundary is exactly the vertices of Z' that touch it. So
    only a root's component is searched for in the whole graph.

`RDContext.component_of` searches the graph for a node's component.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

from .decomp import BalancedTD, TreeDecomp, binarize_balance
from .graph import (DiGraph, VertexSet, component_containing, members, split,
                    undirected_components, vertex_mask)
from .separator import sep


class RDNode(NamedTuple):
    """A (Z, r) node, as `materialize_rd` reports it."""
    z: VertexSet
    r: int


class RDContext:
    """Immutable inputs of a recursive decomposition plus its separator cache."""

    def __init__(self, g: DiGraph, t: TreeDecomp, v0: int):
        if not (1 <= v0 <= g.n):
            raise ValueError(f"root representative {v0} out of range")
        self.g = g
        self.t = t
        self.v0 = v0
        self._sep_cache: dict[int, int] = {}

    def root(self) -> RDNode:
        return RDNode((), self.v0)

    def sep_of(self, u: int) -> int:
        """Mask of the bag sep returns for the vertex mask u, cached by u."""
        hit = self._sep_cache.get(u)
        if hit is None:
            hit = self._sep_cache[u] = vertex_mask(sep(self.g, self.t, u).separator)
        return hit

    def component_of(self, node: RDNode) -> VertexSet:
        """Component of g minus node.z containing node.r."""
        return component_containing(self.g, node.z, node.r)


def rd_children(g: DiGraph, zp: int, comp: int) -> list[tuple[int, int, int]]:
    """Children of a node with component mask comp and Z' mask zp: one
    (boundary, representative, component) per component of comp minus zp
    (fact (c)), sets as masks, ordered by representative, the component's
    lowest vertex."""
    cap = comp.bit_count() // 2
    nbr = g.und_mask
    zs = [(1 << v, nbr[v]) for v in members(zp)]
    children = []
    for sub in split(g, comp & ~zp):
        if sub.bit_count() > cap:
            # sep(comp) halves comp whenever the decomposition is valid; this
            # also bounds the recursion on inputs that skipped validation
            raise ValueError("invalid decomposition: a separator bag does not halve its component")
        z = 0
        for bit, adj in zs:
            if adj & sub:
                z |= bit
        children.append((z, (sub & -sub).bit_length() - 1, sub))
    return children


def hat_bag(z: int, zp: int, comp: int) -> VertexSet:
    """Relabeling bag Z | (Z' & C) of a node with boundary mask z, Z' mask zp
    and component mask comp."""
    return members(z | zp & comp)


def _rd_pass(ctx: RDContext) -> Iterator[tuple[int, int | None, int, int, int, int]]:
    """The recursive decomposition of v0's component in preorder: per node
    (id, parent id, Z, r, C, Z'), sets as masks. A leaf's Z' is given as
    Z | C, which is all its hat bag reads of it (facts (a) and (b))."""
    g, top = ctx.g, ctx.t.rooting.top
    stack = [(None, 0, ctx.v0, vertex_mask(component_containing(g, (), ctx.v0)))]
    nid = 0
    while stack:
        parent, z, r, comp = stack.pop()
        nid += 1
        if comp == 1 << r and r in top:  # fact (b)
            leaf = True
        else:
            sc = ctx.sep_of(comp)
            leaf = not comp & ~sc  # fact (a)
        if leaf:
            zp = z | comp
        else:
            zp = z | sc | ctx.sep_of(z)
            stack.extend((nid, *child) for child in reversed(rd_children(g, zp, comp)))
        yield nid, parent, z, r, comp, zp


def materialize_rd(ctx: RDContext) -> list[tuple[int, RDNode, int | None]]:
    """Full recursive decomposition as (id, node, parent-id) in preorder."""
    return [(nid, RDNode(members(z), r), parent) for nid, parent, z, r, _, _ in _rd_pass(ctx)]


def build_hat_decomposition(ctx: RDContext) -> TreeDecomp:
    """Materialized tree of the recursive decomposition with relabeled bags.

    Covers the undirected component of v0; rooted at node id 1.
    """
    bags: dict[int, VertexSet] = {}
    edges = []
    for nid, parent, z, _, comp, zp in _rd_pass(ctx):
        bags[nid] = hat_bag(z, zp, comp)
        if parent is not None:
            edges.append((parent, nid))
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
