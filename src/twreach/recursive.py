"""Recursive decomposition of a graph by repeated bag separators.

Nodes are (Z, r) pairs: a boundary set Z and a representative vertex r of one
component of the graph minus Z. Children are obtained by removing two further
separators; relabeling nodes with their boundary-plus-separator bags yields a
tree decomposition of width at most 6w+6 and depth at most ceil(log2 n), which
is then binarized and balanced.
"""
from __future__ import annotations

from dataclasses import dataclass

from .decomp import BalancedTD, TreeDecomp, _Struct, _build_struct, materialize_struct
from .graph import DiGraph, VertexSet, component_containing, undirected_components, vset
from .separator import SeparatorResult, sep


@dataclass(frozen=True)
class RDNode:
    z: VertexSet
    r: int


class RDContext:
    """Immutable inputs of a recursive decomposition plus separator caches."""

    def __init__(self, g: DiGraph, t: TreeDecomp, v0: int):
        if not (1 <= v0 <= g.n):
            raise ValueError(f"root representative {v0} out of range")
        self.g = g
        self.t = t
        self.v0 = v0
        self._sep_cache: dict[VertexSet, SeparatorResult] = {}

    def root(self) -> RDNode:
        return RDNode((), self.v0)

    def sep_of(self, u) -> SeparatorResult:
        key = vset(u)
        hit = self._sep_cache.get(key)
        if hit is None:
            hit = self._sep_cache[key] = sep(self.g, self.t, key)
        return hit

    def component_of(self, node: RDNode) -> VertexSet:
        """Vertex set of the component of g minus node.z containing node.r."""
        return component_containing(self.g, node.z, node.r)


def _z_prime(ctx: RDContext, node: RDNode, comp: VertexSet) -> set[int]:
    return set(node.z) | set(ctx.sep_of(node.z).separator) | set(ctx.sep_of(comp).separator)


def rd_children(ctx: RDContext, node: RDNode) -> list[RDNode]:
    """Children of (Z, r), ordered by each component's lowest-indexed vertex."""
    if node.r in node.z:
        raise ValueError("malformed node: representative inside its boundary")
    comp = ctx.component_of(node)
    zp = _z_prime(ctx, node, comp)
    remaining = set(comp) - zp
    children = []
    adj = ctx.g.und_adj
    seen: set[int] = set()
    for s in sorted(remaining):
        if s in seen:
            continue
        sub = {s}
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in remaining and y not in seen:
                    seen.add(y)
                    sub.add(y)
                    stack.append(y)
        boundary = vset(v for v in zp if any(y in sub for y in adj[v]))
        children.append(RDNode(boundary, min(sub)))
    return children


def hat_bag(ctx: RDContext, node: RDNode) -> VertexSet:
    """Relabeling bag: Z union ((sep(comp) union sep(Z)) intersect comp)."""
    if node.r in node.z:
        raise ValueError("malformed node: representative inside its boundary")
    comp = set(ctx.component_of(node))
    seps = set(ctx.sep_of(comp).separator) | set(ctx.sep_of(node.z).separator)
    return vset(set(node.z) | (seps & comp))


def materialize_rd(ctx: RDContext) -> list[tuple[int, RDNode, int | None]]:
    """Full recursive decomposition as (id, node, parent-id) in preorder."""
    out: list[tuple[int, RDNode, int | None]] = []
    stack: list[tuple[RDNode, int | None]] = [(ctx.root(), None)]
    while stack:
        node, parent = stack.pop()
        nid = len(out) + 1
        out.append((nid, node, parent))
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
    """Full pipeline: hat decomposition per component, binarized/balanced.

    Components are joined under a balanced spine of empty bags; no edges cross
    components so validity is preserved.
    """
    structs = []
    for comp in undirected_components(g):
        ctx = RDContext(g, t, min(comp))
        hat = build_hat_decomposition(ctx)
        structs.append(_build_struct(hat, set(hat.bags), []))
    if not structs:
        raise ValueError("graph has no vertices")
    while len(structs) > 1:
        paired = []
        for i in range(0, len(structs) - 1, 2):
            paired.append(_Struct(frozenset(), [structs[i], structs[i + 1]]))
        if len(structs) % 2:
            paired.append(structs[-1])
        structs = paired
    return materialize_struct(structs[0])
