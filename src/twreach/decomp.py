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

from .graph import DiGraph, VertexSet, members, text_lines, vertex_mask
from .sequences import LeafSeq, leaf_depths


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


def _check_tree(ids: Iterable[int], edges: set[frozenset[int]], root: int | None
                ) -> tuple[dict[int, list[int]], list[int], dict[int, int | None],
                           dict[int, list[int]], int]:
    """Adjacency lists (descending id, so the walk's stack pops siblings in
    ascending id), preorder, parents, children (ascending id, as popped) and
    height (the most edges from the root to a node) of the tree that `edges`
    make on `ids`, walked from `root` (the smallest id when None);
    TdFormatError unless the edges form a spanning tree."""
    adj: dict[int, list[int]] = {i: [] for i in ids}
    try:
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
    except ValueError:  # a one-node edge does not unpack into two
        raise TdFormatError("decomposition edge must join two distinct nodes") from None
    except KeyError as exc:
        raise TdFormatError(f"decomposition edge references unknown node {exc.args[0]}") from None
    if len(edges) != max(len(adj) - 1, 0):
        if len(edges) > len(adj) - 1:
            raise TdFormatError("decomposition edges contain a cycle")
        raise TdFormatError("decomposition edges do not connect all nodes")
    if not adj:
        raise TdFormatError("decomposition has no nodes")
    if root is None:
        root = min(adj)
    elif root not in adj:
        raise TdFormatError(f"root {root} is not a node of the decomposition")
    for lst in adj.values():  # cheaper than sort(reverse=True) on short lists
        lst.sort()
        lst.reverse()
    # with exactly N-1 edges, connected implies acyclic
    parent: dict[int, int | None] = {root: None}
    children: dict[int | None, list[int]] = {None: []}  # None, the root's parent, takes the root
    height, order, stack, depths = 0, [], [root], [0]  # depths[i]: stack[i]'s depth
    while stack:
        x = stack.pop()
        order.append(x)
        children[x] = []
        children[parent[x]].append(x)
        d = depths.pop()
        if d > height:
            height = d
        d += 1
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
                depths.append(d)
    if len(order) != len(adj):
        raise TdFormatError("decomposition edges do not connect all nodes")
    del children[None]
    return adj, order, parent, children, height


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


class TreeDecomp:
    """Labeled tree of bags. Immutable after construction.

    `bags` maps node-id to a canonical VertexSet; `edges` is the tree edge set;
    `root` is optional and only required by depth-sensitive operations. The
    tree check walks it from the root (else from the smallest id) and keeps
    what that walk records: the preorder, each node's parent, its children in
    ascending id and the height. An `augment` copy shares these and the bag
    masks, adds the vertex mask `_add` and builds its `bags` on first read.
    """

    _add: int | None = None  # an augment copy's added vertices, as a mask

    def __init__(self, bags: dict[int, Iterable[int]], edges: Iterable[tuple[int, int]],
                 root: int | None = None):
        # vset written out, one call fewer per bag
        self.bags: dict[int, VertexSet] = {int(i): tuple(sorted(set(b))) for i, b in bags.items()}
        self.edges: set[frozenset[int]] = {frozenset((int(a), int(b))) for a, b in edges}
        (self._adj, self._order, self._parent, self._children,
         self._height) = _check_tree(self.bags, self.edges, root)
        self.root = root

    def node_ids(self) -> list[int]:
        return sorted(self.bags)

    def bag(self, node: int) -> VertexSet:
        return self.bags[node]

    def neighbors(self, node: int) -> list[int]:
        """Adjacent node ids, ascending."""
        return self._adj[node][::-1]

    @cached_property
    def bags(self) -> dict[int, VertexSet]:
        """An augment copy's bags, built on first read."""
        return {i: members(m | self._add) for i, m in self._bag_masks.items()}

    @cached_property
    def _bag_masks(self) -> dict[int, int]:
        """Each bag's vertex mask; an augment copy shares its base's."""
        return {x: vertex_mask(b) for x, b in self.bags.items()}

    def width(self) -> int:
        """Largest bag size less one; an augment copy reads the bag masks."""
        add = self._add
        if add is None:
            return max(len(b) for b in self.bags.values()) - 1
        return max((m | add).bit_count() for m in self._bag_masks.values()) - 1

    @cached_property
    def rooting(self) -> Rooting:
        """Preorder intervals, first bags and range minima over the shape,
        computed once per bag set."""
        order, children = self._order, self._children
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

    def depth(self) -> int:
        """Longest root-to-leaf edge count. Requires a root."""
        if self.root is None:
            raise ValueError("operation requires a rooted decomposition")
        return self._height

    def augment(self, s: Iterable[int]) -> "TreeDecomp":
        """A copy with every bag replaced by bag union s (still valid): it shares
        the shape and the bag masks, adds s to `_add` and builds no bag until
        read."""
        self._bag_masks  # built here, so that the copy shares them
        out = copy.copy(self)
        for key in ("bags", "rooting"):  # these depend on the added vertices
            out.__dict__.pop(key, None)
        out._add = (self._add or 0) | vertex_mask(s)
        return out

    def __repr__(self):
        return f"{type(self).__name__}(nodes={len(self._order)}, width={self.width()})"


class BalancedTD(TreeDecomp):
    """Rooted binary tree decomposition, children in ascending id order.

    `ordered_children` lists each node's children by ascending id, as the
    preorder visits them. Node ids alone fix the order, so the .td text that
    `write_td` emits rebuilds the same tree. The shape is the tree check's
    record, made once, on construction.
    """

    def __init__(self, bags, edges, root):
        super().__init__(bags, edges, root=root)
        if root is None:
            raise ValueError("balanced decomposition requires a root")
        for x, kids in self._children.items():
            if len(kids) > 2:
                raise ValueError(f"node {x} has {len(kids)} children; binary tree required")
        self.ordered_children = self._children

    def augment(self, s: Iterable[int]) -> "BalancedTD":
        """`TreeDecomp.augment`, after building the walk plan the copy shares."""
        self.walk_plan
        return super().augment(s)

    @cached_property
    def walk_plan(self) -> tuple[dict[int, tuple[list, list]], dict[int, int], list[int]]:
        """The walk's plan, built once per base tree: each inner node's parts
        (`LeafSeq.parts`) at budgets 1 and 2, which serves every c > 1, as
        (node, first leaf, children), so x's first leaf is plan[x][0][0][1];
        each leaf's scope, the vertex mask of its root path's bags, without
        `_add`; and the root's leaves by depth (`sequences.leaf_depths`)."""
        parts, children = LeafSeq(self, self.root, 1).parts, self._children
        scope, own, parent = {}, self._bag_masks, self._parent
        for x in self._order:  # parents first; the root's parent, None, has none
            scope[x] = own[x] | scope.get(parent[x], 0)
        plan, first = {}, {}
        for x in reversed(self._order):  # children before their parents
            first[x] = x
            if children[x]:
                one = [(sub, first[sub], children[sub]) for sub, _ in parts(x, 1)]
                first[x] = one[0][1]  # a block at any c begins with the block at 1
                plan[x] = one, [(sub, first[sub], children[sub]) for sub, _ in parts(x, 2)]
        leaves = {x: m for x, m in scope.items() if not children[x]}
        return plan, leaves, leaf_depths(self, self.root)

    def parent(self, node: int) -> int | None:
        return self._parent[node]

    def children(self, node: int) -> list[int]:
        return self.ordered_children[node]

    @property
    def preorder(self) -> list[int]:
        return self._order


def validate_td(g: DiGraph, t: TreeDecomp, vertices: Iterable[int] | None = None) -> ValidityReport:
    """Check the three decomposition properties against g.

    With `vertices` given, coverage is checked against that vertex subset only
    (used for per-component decompositions of disconnected graphs).
    """
    # ascending, with O(1) membership; 1..n stays a range, so memory follows the bags
    target = range(1, g.n + 1) if vertices is None else dict.fromkeys(sorted(vertices))
    # occ[v]: the ids of the bags that hold v
    occ: dict[int, set[int]] = {}
    for x, b in t.bags.items():
        for v in b:
            occ.setdefault(v, set()).add(x)
    covers_vertices = len(occ) == len(target) and all(v in target for v in occ)
    witness = None
    if not covers_vertices:  # the smallest uncovered target, else the smallest stray
        missing = next(itertools.chain((v for v in target if v not in occ),
                                       sorted(v for v in occ if v not in target)))
        witness = f"vertex coverage mismatch, e.g. vertex {missing}"

    covers_edges = True
    edges = g.und_edges if vertices is None else [e for e in g.und_edges if set(e) <= target.keys()]
    for u, v in sorted(edges):
        if occ.get(u, set()).isdisjoint(occ.get(v, ())):
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
    """Parse PACE 2017 style .td text. A "c root <id>" comment sets the root;
    the header's max bag size must be the largest bag's, duplicates dropped."""
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
            if len(parts) > 1 and parts[1] == "root":
                if len(parts) != 3:
                    raise TdFormatError("malformed root line, expected 'c root <id>'", lineno)
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
            header_line = lineno
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
                a, b = map(int, parts)  # exactly two integer tokens
            except ValueError:
                raise TdFormatError("malformed edge line", lineno) from None
            edges.append((a, b))
    if header is None:
        raise TdFormatError("missing header")
    if len(bags) != header[0]:
        raise TdFormatError(f"expected {header[0]} bags, found {len(bags)}")
    t = TreeDecomp(bags, edges, root=root)
    maxbag = max(map(len, t.bags.values()))
    if maxbag != header[1]:
        raise TdFormatError(f"header max bag size {header[1]} is not the largest bag's {maxbag}",
                            header_line)
    return t


def write_td(t: TreeDecomp, n_vertices: int | None = None) -> str:
    """Emit canonical .td text; node-ids renumbered 1..N for determinism.

    Rooted decompositions are renumbered in the preorder of their shape
    (children in ascending old-id order), so that re-parsing and ordering
    children by id reproduces the tree shape.
    """
    if n_vertices is None:
        n_vertices = max((max(b) for b in t.bags.values() if b), default=0)
    order = sorted(t.bags) if t.root is None else t._order
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
    """Assign preorder ids 1..M and build the BalancedTD; a first child gets
    the smaller id, so the ascending-id child order is the struct's."""
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    stack: list[tuple[_Struct, int]] = [(struct, 0)]
    while stack:
        node, parent = stack.pop()
        nid = len(bags) + 1
        bags[nid] = node.bag
        if parent:
            edges.append((parent, nid))
        stack += [(child, nid) for child in reversed(node.children)]
    return BalancedTD(bags, edges, root=1)


def binarize_balance(*hats: TreeDecomp) -> BalancedTD:
    """Binary, balanced equivalent of rooted decompositions of disjoint vertex sets.

    Each input is binarized alone; the results are joined pairwise under empty
    bags, level by level: (0, 1), (2, 3), ..., an odd last one carried up as
    is. The joining bags are empty, so validity for the underlying graph (the
    disjoint union) is preserved. For one input of width w and N nodes, the
    output width is at most 3*(w+1)-1 and the depth at most 2*ceil(log2 N)+1.
    """
    if not hats:
        raise ValueError("graph has no vertices")
    if any(t.root is None for t in hats):
        raise ValueError("binarize_balance requires a rooted decomposition")
    structs = [_build_struct(t) for t in hats]
    while len(structs) > 1:
        pairs = [structs[i:i + 2] for i in range(0, len(structs), 2)]
        structs = [_Struct(frozenset(), pair) if len(pair) == 2 else pair[0] for pair in pairs]
    return materialize_struct(structs[0])
