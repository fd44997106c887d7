"""Tree decompositions: data type, validation, PACE-style IO, augmentation,
and the binarize/balance operation that turns any rooted decomposition into a
binary one of logarithmic depth at the cost of a constant factor in width.
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .graph import DiGraph, VertexSet, text_lines, vset


class TdFormatError(ValueError):
    """Raised on malformed .td files or non-tree edge sets."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message}, line {line}")


@dataclass
class ValidityReport:
    covers_vertices: bool
    covers_edges: bool
    connected_occurrences: bool
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.covers_vertices and self.covers_edges and self.connected_occurrences


def _check_tree(ids: Iterable[int], edges: set[frozenset[int]]) -> dict[int, list[int]]:
    """Ascending adjacency lists of the tree that `edges` make on `ids`;
    TdFormatError unless the edges form a spanning tree."""
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for e in edges:
        if len(e) != 2:
            raise TdFormatError("decomposition edge must join two distinct nodes")
        a, b = e
        try:
            adj[a].append(b)
            adj[b].append(a)
        except KeyError as exc:
            raise TdFormatError(f"decomposition edge references unknown node {exc.args[0]}") from None
    if len(edges) != max(len(adj) - 1, 0):
        if len(edges) > len(adj) - 1:
            raise TdFormatError("decomposition edges contain a cycle")
        raise TdFormatError("decomposition edges do not connect all nodes")
    if not adj:
        raise TdFormatError("decomposition has no nodes")
    # with exactly N-1 edges, connected implies acyclic
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(adj):
        raise TdFormatError("decomposition edges do not connect all nodes")
    for lst in adj.values():
        lst.sort()
    return adj


class Rooting(NamedTuple):
    """A decomposition's tree in preorder from its root (from its smallest
    node id when it has none), with the shape's child order.

    `order` lists the node ids in preorder; the subtree of node x is the
    preorder interval [pre[x], end[x]); `top[v]` is the preorder index of the
    first bag holding vertex v. `sparse[k][i]` is the smallest id among
    order[i : i + 2**k], so `first_id` answers a range minimum in O(1).
    """
    order: list[int]
    pre: dict[int, int]
    end: dict[int, int]
    children: dict[int, list[int]]
    top: dict[int, int]
    sparse: list[list[int]]

    def first_id(self, lo: int, hi: int) -> int:
        """Smallest node id at preorder positions lo..hi-1 (lo < hi)."""
        k = (hi - lo).bit_length() - 1
        row = self.sparse[k]
        return min(row[lo], row[hi - (1 << k)])


class _Shape(NamedTuple):
    """A rooted tree: its nodes in preorder, their parents (None at the root)
    and their ordered child lists."""
    order: list[int]
    parent: dict[int, int | None]
    children: dict[int, list[int]]


def _walk(adj: dict[int, list[int]], root: int,
          given: dict[int, list[int]] | None = None) -> _Shape:
    """Preorder walk of the tree `adj` from `root`, children in ascending id
    or, with `given`, in the order `given[x]` lists them; each given child must
    be a tree neighbour not reached before (ValueError otherwise).
    """
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {}
    order: list[int] = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        if given is None:
            kids = [y for y in adj[x] if y != parent[x]]
        else:
            kids = list(given.get(x, ()))
        for y in kids:
            if given is not None and (y in parent or y not in adj[x]):
                raise ValueError(f"child {y} of node {x} does not follow the tree edges")
            parent[y] = x
        children[x] = kids
        stack += reversed(kids)
    return _Shape(order, parent, children)


class TreeDecomp:
    """Labeled tree of bags. Immutable after construction.

    `bags` maps node-id to a canonical VertexSet; `edges` is the tree edge set;
    `root` is optional and only required by depth-sensitive operations. The
    shape (`_walk` from the root, else from the smallest id) is computed on
    first use and shared by `augment`.
    """

    def __init__(self, bags: dict[int, Iterable[int]], edges: Iterable[tuple[int, int]],
                 root: int | None = None):
        self.bags: dict[int, VertexSet] = {int(i): vset(b) for i, b in bags.items()}
        self.edges: set[frozenset[int]] = {frozenset((int(a), int(b))) for a, b in edges}
        self._adj = _check_tree(self.bags, self.edges)
        if root is not None and root not in self.bags:
            raise TdFormatError(f"root {root} is not a node of the decomposition")
        self.root = root

    def node_ids(self) -> list[int]:
        return sorted(self.bags)

    def bag(self, node: int) -> VertexSet:
        return self.bags[node]

    def neighbors(self, node: int) -> list[int]:
        return self._adj[node]

    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    @cached_property
    def _shape(self) -> _Shape:
        return _walk(self._adj, min(self.bags) if self.root is None else self.root)

    def _rooted_shape(self) -> _Shape:
        if self.root is None:
            raise ValueError("operation requires a rooted decomposition")
        return self._shape

    @cached_property
    def _depth_of(self) -> dict[int, int]:
        order, parent, _ = self._shape
        depth_of = {order[0]: 0}
        for x in order[1:]:
            depth_of[x] = depth_of[parent[x]] + 1
        return depth_of

    @cached_property
    def rooting(self) -> Rooting:
        """Preorder intervals, first bags and range minima over the shape,
        computed once per bag set."""
        order, _, children = self._shape
        pre = {x: i for i, x in enumerate(order)}
        end: dict[int, int] = {}
        for x in reversed(order):
            kids = children[x]
            end[x] = end[kids[-1]] if kids else pre[x] + 1
        top: dict[int, int] = {}
        for i, x in enumerate(order):
            for v in self.bags[x]:
                top.setdefault(v, i)
        sparse = [order]
        while 2 << (len(sparse) - 1) <= len(order):
            prev, half = sparse[-1], 1 << (len(sparse) - 1)
            sparse.append(list(map(min, prev, prev[half:])))
        return Rooting(order, pre, end, children, top, sparse)

    def parent_map(self) -> dict[int, int | None]:
        return dict(self._rooted_shape().parent)

    def children_map(self) -> dict[int, list[int]]:
        return {x: kids[:] for x, kids in self._rooted_shape().children.items()}

    def depth(self) -> int:
        """Longest root-to-leaf edge count. Requires a root."""
        self._rooted_shape()
        return max(self._depth_of.values())

    def augment(self, s: Iterable[int]) -> "TreeDecomp":
        """Every bag replaced by bag union s (still valid); the shape is shared."""
        extra = set(s)
        out = copy.copy(self)
        out.bags = {i: vset(extra.union(b)) for i, b in self.bags.items()}
        out.__dict__.pop("rooting", None)  # `rooting.top` depends on the bags
        return out

    def __repr__(self):
        return f"{type(self).__name__}(nodes={len(self.bags)}, width={self.width()})"


class BalancedTD(TreeDecomp):
    """Rooted binary tree decomposition with an explicit child order.

    `ordered_children` fixes left/right children per node (ascending ids when
    not given); the leaf index is the list of leaves in depth-first order under
    that child order. The shape is walked once, on construction.
    """

    def __init__(self, bags, edges, root, ordered_children: dict[int, list[int]] | None = None):
        super().__init__(bags, edges, root=root)
        if root is None:
            raise ValueError("balanced decomposition requires a root")
        self._shape = shape = _walk(self._adj, root, ordered_children)
        for x, kids in shape.children.items():
            if len(kids) > 2:
                raise ValueError(f"node {x} has {len(kids)} children; binary tree required")
        if len(shape.order) != len(self.bags):
            raise ValueError("ordered children do not reach every node")
        self.ordered_children = shape.children

    # perfbench's tracer looks `augment` up in this class's own namespace
    augment = TreeDecomp.augment

    def parent(self, node: int) -> int | None:
        return self._shape.parent[node]

    def children(self, node: int) -> list[int]:
        return self.ordered_children[node]

    def is_leaf(self, node: int) -> bool:
        return not self.ordered_children[node]

    @cached_property
    def _height(self) -> dict[int, int]:
        height: dict[int, int] = {}
        for x in reversed(self.preorder):
            height[x] = max((height[y] + 1 for y in self.children(x)), default=0)
        return height

    def height(self, node: int) -> int:
        return self._height[node]

    def depth_of(self, node: int) -> int:
        return self._depth_of[node]

    @property
    def preorder(self) -> list[int]:
        return self._shape.order

    @cached_property
    def leaves(self) -> list[int]:
        return [x for x in self.preorder if self.is_leaf(x)]


def validate_td(g: DiGraph, t: TreeDecomp, vertices: Iterable[int] | None = None) -> ValidityReport:
    """Check the three decomposition properties against g.

    With `vertices` given, coverage is checked against that vertex subset only
    (used for per-component decompositions of disconnected graphs).
    """
    target = set(vertices) if vertices is not None else set(range(1, g.n + 1))
    # occ[v]: the ids of the bags that hold v
    occ: dict[int, set[int]] = {}
    for x, b in t.bags.items():
        for v in b:
            occ.setdefault(v, set()).add(x)
    covered = set(occ)
    covers_vertices = covered == target
    witness = None
    if not covers_vertices:
        missing = sorted(target - covered) or sorted(covered - target)
        witness = f"vertex coverage mismatch, e.g. vertex {missing[0]}"

    covers_edges = True
    for u, v in sorted(g.und_edges):
        if u in target and v in target and occ.get(u, set()).isdisjoint(occ.get(v, ())):
            covers_edges = False
            if witness is None:
                witness = f"edge ({u}, {v}) not covered by any bag"
            break

    # the bags holding v induce a subforest, connected iff it has one edge
    # fewer than nodes
    links: dict[int, int] = {}
    for a, b in t.edges:
        for v in set(t.bags[a]).intersection(t.bags[b]):
            links[v] = links.get(v, 0) + 1
    connected = True
    for v in sorted(occ):
        if len(occ[v]) != links.get(v, 0) + 1:
            connected = False
            if witness is None:
                witness = f"occurrences of vertex {v} are not connected in the tree"
            break

    return ValidityReport(covers_vertices, covers_edges, connected, witness)


def parse_td(text: str | bytes) -> TreeDecomp:
    """Parse PACE 2017 style .td text. A "c root <id>" comment sets the root."""
    header = None
    bags: dict[int, list[int]] = {}
    edges: list[tuple[int, int]] = []
    root = None
    for lineno, raw in enumerate(text_lines(text, TdFormatError), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 3 and parts[1] == "root":
                try:
                    root = int(parts[2])
                except ValueError:
                    raise TdFormatError("non-integer root id", lineno) from None
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise TdFormatError("duplicate header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise TdFormatError("malformed header, expected 's td <N> <maxbag> <n>'", lineno)
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise TdFormatError("non-integer token in header", lineno) from None
            continue
        if header is None:
            raise TdFormatError("content line before header", lineno)
        if parts[0] == "b":
            try:
                bid = int(parts[1])
                verts = [int(x) for x in parts[2:]]
            except (ValueError, IndexError):
                raise TdFormatError("malformed bag line", lineno) from None
            if bid in bags:
                raise TdFormatError(f"duplicate bag id {bid}", lineno)
            for v in verts:
                if not (1 <= v <= header[2]):
                    raise TdFormatError(f"bag references out-of-range vertex {v}", lineno)
            bags[bid] = verts
        else:
            try:
                a, b = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                raise TdFormatError("malformed edge line", lineno) from None
            edges.append((a, b))
    if header is None:
        raise TdFormatError("missing header")
    if len(bags) != header[0]:
        raise TdFormatError(f"expected {header[0]} bags, found {len(bags)}")
    return TreeDecomp(bags, edges, root=root)


def write_td(t: TreeDecomp, n_vertices: int | None = None) -> str:
    """Emit canonical .td text; node-ids renumbered 1..N for determinism.

    Rooted decompositions are renumbered in the preorder of their shape
    (children in ascending old-id order, or the explicit order for BalancedTD)
    so that re-parsing and ordering children by id reproduces the tree shape.
    """
    if n_vertices is None:
        n_vertices = max((max(b) for b in t.bags.values() if b), default=0)
    order = sorted(t.bags) if t.root is None else t._shape.order
    renum = {old: i + 1 for i, old in enumerate(order)}
    maxbag = max(len(b) for b in t.bags.values())
    lines = []
    if t.root is not None:
        lines.append(f"c root {renum[t.root]}")
    lines.append(f"s td {len(t.bags)} {maxbag} {n_vertices}")
    for old in order:
        lines.append("b " + " ".join(str(x) for x in (renum[old],) + t.bags[old]).rstrip())
    for a, b in sorted(sorted((renum[x], renum[y])) for x, y in (tuple(e) for e in t.edges)):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Binarization / balancing.
#
# Recursive centroid splitting with at most two "anchor" bags per level:
# the emitted root bag is B(c) union the anchor bags, each child component
# inherits B(c) as a new anchor, and components are joined pairwise under
# copies of the root bag. When a component would inherit a third anchor we
# split on the tree path between the two existing anchor attachment points
# instead of at the centroid, which caps the live anchors at two. Root bags
# therefore hold at most 3*(w+1) vertices and sizes halve every other level.
#
# Each level makes one preorder search of its piece from the first anchor's
# node: subtree sizes give the centroid, or with two anchors the cost of
# splitting the anchor path at each node, and the split node's child
# intervals plus the rest above it are the branches. A piece is the set of
# nodes carrying its label, so no adjacency is copied. The tree is fixed by:
# the centroid minimises the largest branch, ties going to the smallest id;
# branches are ordered by smallest node id; inherited anchors keep their
# order and the new anchor comes last; path and spine splits take the first
# minimum. Struct weights (node counts) drive the spine splits.
# ---------------------------------------------------------------------------

class _Struct:
    __slots__ = ("bag", "children", "weight")

    def __init__(self, bag: frozenset[int], children: list["_Struct"]):
        self.bag = bag
        self.children = children
        self.weight = 1 + sum(ch.weight for ch in children)  # struct nodes in the subtree


def _build_struct(t: TreeDecomp) -> _Struct:
    """Binary struct of the whole tree of t; see the comment block above."""
    root = next(iter(t.bags))
    if len(t.bags) == 1:
        return _Struct(frozenset(t.bags[root]), [])
    label = dict.fromkeys(t.bags, 0)
    return _build_piece(t, label, itertools.count(1), 0, len(t.bags), [], root)


def _build_piece(t: TreeDecomp, label: dict[int, int], fresh: Iterator[int], piece: int,
                 total: int, anchors: list[tuple[int, frozenset[int]]], root: int) -> _Struct:
    """Struct of the piece of `total` >= 2 nodes labelled `piece`, searched
    from `root` (the first anchor's node, if any); `fresh` yields unused labels."""
    adj, bags = t._adj, t.bags
    # preorder search; up[i] is the position of order[i]'s parent
    mark = next(fresh)
    label[root] = mark
    order, up = [], []
    stack = [(root, -1)]
    while stack:
        x, p = stack.pop()
        i = len(order)
        order.append(x)
        up.append(p)
        for y in adj[x]:
            if label[y] == piece:
                label[y] = mark
                stack.append((y, i))
    size = [1] * total
    heavy = [0] * total  # largest child subtree
    heavy_at = [0] * total  # its position
    for i in range(total - 1, 0, -1):
        s, p = size[i], up[i]
        size[p] += s
        if s > heavy[p]:
            heavy[p], heavy_at[p] = s, i
    if len(anchors) == 2:
        # the path from the first anchor (position 0) down to the second:
        # splitting at j leaves total - size[j] nodes above, size[next] below
        path = [order.index(anchors[1][0])]
        while path[-1]:
            path.append(up[path[-1]])
        path.reverse()
        costs = [max(total - size[j], size[k]) for j, k in zip(path, path[1:])]
        costs.append(total - size[path[-1]])
        ci = path[costs.index(min(costs))]
    else:
        # walk down to the centroid; the other one, if any, is its heavy child
        ci = 0
        while 2 * heavy[ci] > total:
            ci = heavy_at[ci]
        if 2 * heavy[ci] == total and order[heavy_at[ci]] < order[ci]:
            ci = heavy_at[ci]
    c = order[ci]
    bag_c = frozenset(bags[c])
    end = ci + size[ci]
    branches = []
    j = ci + 1
    while j < end:
        nodes = order[j:j + size[j]]
        branches.append((min(nodes), j, nodes))
        j += size[j]
    if ci:
        nodes = order[:ci] + order[end:]
        branches.append((min(nodes), up[ci], nodes))
    branches.sort()
    subtrees = []
    for _, attach, nodes in branches:
        if len(nodes) == 1:  # a leaf: its bag, B(c) and any anchor bag held there
            x = nodes[0]
            leaf_bag = bag_c.union(bags[x], *[bag for a, bag in anchors if a == x])
            subtrees.append(_Struct(leaf_bag, []))
            continue
        sub = next(fresh)
        label.update(dict.fromkeys(nodes, sub))
        sub_anchors = [(a, bag) for a, bag in anchors if label[a] == sub]
        sub_anchors.append((order[attach], bag_c))
        assert len(sub_anchors) <= 2
        subtrees.append(_build_piece(t, label, fresh, sub, len(nodes), sub_anchors,
                                     sub_anchors[0][0]))
    root_bag = bag_c.union(*[bag for _, bag in anchors])
    return _Struct(root_bag, _spine(root_bag, subtrees))


def _spine(bag: frozenset[int], subtrees: list[_Struct]) -> list[_Struct]:
    """Join k subtree results under copies of `bag`, keeping arity <= 2.

    The split is weight-balanced over the subtrees' struct node counts so the
    copies add only logarithmically many levels along any path.
    """
    if len(subtrees) <= 2:
        return subtrees
    prefix = list(itertools.accumulate(s.weight for s in subtrees))
    costs = [max(p, prefix[-1] - p) for p in prefix[:-1]]
    cut = 1 + costs.index(min(costs))
    return [part[0] if len(part) == 1 else _Struct(bag, _spine(bag, part))
            for part in (subtrees[:cut], subtrees[cut:])]


def materialize_struct(struct: _Struct) -> BalancedTD:
    """Assign preorder ids 1..M and build the BalancedTD."""
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    children: dict[int, list[int]] = {}
    stack = [struct]
    while stack:
        node = stack.pop()
        nid = len(bags) + 1
        bags[nid] = node.bag
        # the first child comes next in preorder, the second after the first's subtree
        kids = node.children
        children[nid] = ids = [nid + 1, nid + 1 + kids[0].weight][:len(kids)] if kids else []
        edges += [(nid, y) for y in ids]
        stack += reversed(kids)
    return BalancedTD(bags, edges, root=1, ordered_children=children)


def binarize_balance(t_hat: TreeDecomp) -> BalancedTD:
    """Binary, balanced equivalent of a rooted decomposition.

    Output width is at most 3*(w+1)-1 for input width w, and depth at most
    2*ceil(log2 N)+1 for N input nodes. Bags of the input reappear as subsets
    of output bags, so validity for the underlying graph is preserved.
    """
    if t_hat.root is None:
        raise ValueError("binarize_balance requires a rooted decomposition")
    return materialize_struct(_build_struct(t_hat))
