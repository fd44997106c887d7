"""Tree decompositions: data type, validation, PACE-style IO, augmentation,
and the binarize/balance operation that turns any rooted decomposition into a
binary one of logarithmic depth at the cost of a constant factor in width.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import DiGraph, VertexSet, vset


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


def _check_tree(ids: set[int], edges: set[frozenset[int]]) -> None:
    for e in edges:
        if len(e) != 2:
            raise TdFormatError("decomposition edge must join two distinct nodes")
        for x in e:
            if x not in ids:
                raise TdFormatError(f"decomposition edge references unknown node {x}")
    if len(edges) != max(len(ids) - 1, 0):
        if len(edges) > len(ids) - 1:
            raise TdFormatError("decomposition edges contain a cycle")
        raise TdFormatError("decomposition edges do not connect all nodes")
    if not ids:
        raise TdFormatError("decomposition has no nodes")
    # Connectivity check; with exactly N-1 edges, connected implies acyclic.
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for e in edges:
        a, b = tuple(e)
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(ids))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(ids):
        raise TdFormatError("decomposition edges do not connect all nodes")


class TreeDecomp:
    """Labeled tree of bags. Immutable after construction.

    `bags` maps node-id to a canonical VertexSet; `edges` is the tree edge set;
    `root` is optional and only required by depth-sensitive operations.
    """

    def __init__(self, bags: dict[int, Iterable[int]], edges: Iterable[tuple[int, int]],
                 root: int | None = None):
        self.bags: dict[int, VertexSet] = {int(i): vset(b) for i, b in bags.items()}
        self.edges: set[frozenset[int]] = {frozenset((int(a), int(b))) for a, b in edges}
        _check_tree(set(self.bags), self.edges)
        if root is not None and root not in self.bags:
            raise TdFormatError(f"root {root} is not a node of the decomposition")
        self.root = root
        self._adj: dict[int, list[int]] = {i: [] for i in self.bags}
        for e in self.edges:
            a, b = tuple(e)
            self._adj[a].append(b)
            self._adj[b].append(a)
        for lst in self._adj.values():
            lst.sort()

    def node_ids(self) -> list[int]:
        return sorted(self.bags)

    def bag(self, node: int) -> VertexSet:
        return self.bags[node]

    def neighbors(self, node: int) -> list[int]:
        return self._adj[node]

    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def parent_map(self) -> dict[int, int | None]:
        if self.root is None:
            raise ValueError("operation requires a rooted decomposition")
        parent: dict[int, int | None] = {self.root: None}
        stack = [self.root]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        return parent

    def children_map(self) -> dict[int, list[int]]:
        parent = self.parent_map()
        children: dict[int, list[int]] = {i: [] for i in self.bags}
        for node in sorted(self.bags):
            p = parent[node]
            if p is not None:
                children[p].append(node)
        return children

    def depth(self) -> int:
        """Longest root-to-leaf edge count. Requires a root."""
        children = self.children_map()
        depth = 0
        stack = [(self.root, 0)]
        while stack:
            x, d = stack.pop()
            depth = max(depth, d)
            for y in children[x]:
                stack.append((y, d + 1))
        return depth

    def rooted_at(self, root: int) -> "TreeDecomp":
        return TreeDecomp(self.bags, [tuple(e) for e in self.edges], root=root)

    def augment(self, s: Iterable[int]) -> "TreeDecomp":
        """Every bag replaced by bag union s. Preserves validity."""
        extra = set(s)
        return TreeDecomp({i: set(b) | extra for i, b in self.bags.items()},
                          [tuple(e) for e in self.edges], root=self.root)

    def __repr__(self):
        return f"{type(self).__name__}(nodes={len(self.bags)}, width={self.width()})"


class BalancedTD(TreeDecomp):
    """Rooted binary tree decomposition with an explicit child order.

    `ordered_children` fixes left/right children per node; the leaf index is
    the list of leaves in depth-first order under that child order.
    """

    def __init__(self, bags, edges, root, ordered_children: dict[int, list[int]] | None = None):
        super().__init__(bags, edges, root=root)
        if root is None:
            raise ValueError("balanced decomposition requires a root")
        if ordered_children is None:
            ordered_children = self.children_map()
        self.ordered_children = {i: list(ordered_children.get(i, [])) for i in self.bags}
        for node, kids in self.ordered_children.items():
            if len(kids) > 2:
                raise ValueError(f"node {node} has {len(kids)} children; binary tree required")
        self._height: dict[int, int] = {}
        self._depth_of: dict[int, int] = {}
        self._compute_shape()

    def _compute_shape(self) -> None:
        order: list[int] = []
        stack = [(self.root, 0)]
        while stack:
            x, d = stack.pop()
            self._depth_of[x] = d
            order.append(x)
            for y in reversed(self.ordered_children[x]):
                stack.append((y, d + 1))
        for x in reversed(order):
            kids = self.ordered_children[x]
            self._height[x] = 1 + max(self._height[k] for k in kids) if kids else 0
        self._preorder = order
        self._leaves = [x for x in order if not self.ordered_children[x]]

    def children(self, node: int) -> list[int]:
        return self.ordered_children[node]

    def is_leaf(self, node: int) -> bool:
        return not self.ordered_children[node]

    def height(self, node: int) -> int:
        return self._height[node]

    def depth_of(self, node: int) -> int:
        return self._depth_of[node]

    def depth(self) -> int:
        return self._height[self.root]

    @property
    def leaves(self) -> list[int]:
        return self._leaves

    def augment(self, s: Iterable[int]) -> "BalancedTD":
        extra = set(s)
        return BalancedTD({i: set(b) | extra for i, b in self.bags.items()},
                          [tuple(e) for e in self.edges], self.root,
                          ordered_children=self.ordered_children)


def validate_td(g: DiGraph, t: TreeDecomp, vertices: Iterable[int] | None = None) -> ValidityReport:
    """Check the three decomposition properties against g.

    With `vertices` given, coverage is checked against that vertex subset only
    (used for per-component decompositions of disconnected graphs).
    """
    target = set(vertices) if vertices is not None else set(range(1, g.n + 1))
    covered: set[int] = set()
    for b in t.bags.values():
        covered.update(b)
    covers_vertices = covered == target
    witness = None
    if not covers_vertices:
        missing = sorted(target - covered) or sorted(covered - target)
        witness = f"vertex coverage mismatch, e.g. vertex {missing[0]}"

    covers_edges = True
    bag_sets = {i: set(b) for i, b in t.bags.items()}
    for u, v in sorted(g.und_edges):
        if u not in target or v not in target:
            continue
        if not any(u in b and v in b for b in bag_sets.values()):
            covers_edges = False
            if witness is None:
                witness = f"edge ({u}, {v}) not covered by any bag"
            break

    connected = True
    occ: dict[int, list[int]] = {}
    for i, b in t.bags.items():
        for v in b:
            occ.setdefault(v, []).append(i)
    for v in sorted(occ):
        nodes = set(occ[v])
        start = occ[v][0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in t.neighbors(x):
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != nodes:
            connected = False
            if witness is None:
                witness = f"occurrences of vertex {v} are not connected in the tree"
            break

    return ValidityReport(covers_vertices, covers_edges, connected, witness)


def parse_td(text: str | bytes) -> TreeDecomp:
    """Parse PACE 2017 style .td text. A "c root <id>" comment sets the root."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    header = None
    bags: dict[int, list[int]] = {}
    edges: list[tuple[int, int]] = []
    root = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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

    Rooted decompositions are renumbered in preorder (children in ascending
    old-id order, or the explicit order for BalancedTD) so that re-parsing and
    ordering children by id reproduces the tree shape.
    """
    if n_vertices is None:
        n_vertices = max((max(b) for b in t.bags.values() if b), default=0)
    if t.root is not None:
        if isinstance(t, BalancedTD):
            kids = t.ordered_children
        else:
            kids = t.children_map()
        order: list[int] = []
        stack = [t.root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in reversed(kids[x]):
                stack.append(y)
    else:
        order = sorted(t.bags)
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
# ---------------------------------------------------------------------------

class _Struct:
    __slots__ = ("bag", "children", "weight")

    def __init__(self, bag: frozenset[int], children: list["_Struct"]):
        self.bag = bag
        self.children = children


def _centroid(nodes: set[int], adj) -> int:
    """Node whose removal leaves components of at most len(nodes)/2 nodes."""
    root = min(nodes)
    total = len(nodes)
    parent: dict[int, int | None] = {root: None}
    order = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)
    size = {x: 1 for x in nodes}
    for x in reversed(order):
        if parent[x] is not None:
            size[parent[x]] += size[x]
    best, best_cost = root, total
    for x in order:
        child_sizes = [size[y] for y in adj[x] if parent[y] == x]
        up = total - size[x]
        cost = max(child_sizes + [up]) if (child_sizes or up) else 0
        if cost < best_cost or (cost == best_cost and x < best):
            best, best_cost = x, cost
    return best


def _components(nodes: set[int], adj, removed: int) -> list[set[int]]:
    left = nodes - {removed}
    comps = []
    seen: set[int] = set()
    for s in sorted(left):
        if s in seen:
            continue
        comp = {s}
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in left and y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _tree_path(nodes: set[int], adj, a: int, b: int) -> list[int]:
    parent: dict[int, int | None] = {a: None}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            break
        for y in adj[x]:
            if y in nodes and y not in parent:
                parent[y] = x
                stack.append(y)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _choose_split(nodes: set[int], adj, anchors) -> int:
    """Split node: centroid normally, a balanced path node with two anchors."""
    if len(anchors) == 2:
        a1, a2 = anchors[0][0], anchors[1][0]
        if a1 == a2:
            return a1
        path = _tree_path(nodes, adj, a1, a2)
        # weight of each path node = itself plus subtrees hanging off the path
        path_set = set(path)
        weights = []
        for p in path:
            w = 1
            for y in adj[p]:
                if y in nodes and y not in path_set:
                    w += len(_collect(nodes - path_set, adj, y))
            weights.append(w)
        total = sum(weights)
        best_i, best_cost = 0, None
        prefix = 0
        for i, w in enumerate(weights):
            cost = max(prefix, total - prefix - w)
            if best_cost is None or cost < best_cost:
                best_i, best_cost = i, cost
            prefix += w
        return path[best_i]
    return _centroid(nodes, adj)


def _collect(allowed: set[int], adj, start: int) -> set[int]:
    comp = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in allowed and y not in comp:
                comp.add(y)
                stack.append(y)
    return comp


def _build_struct(t: TreeDecomp, nodes: set[int],
                  anchors: list[tuple[int, frozenset[int]]]) -> _Struct:
    adj = {x: [y for y in t.neighbors(x) if y in nodes] for x in nodes}
    return _build_rec(t, nodes, adj, anchors)


def _build_rec(t, nodes, adj, anchors) -> _Struct:
    anchor_union: frozenset[int] = frozenset().union(*(bag for _, bag in anchors)) \
        if anchors else frozenset()
    if len(nodes) == 1:
        only = next(iter(nodes))
        return _Struct(frozenset(t.bag(only)) | anchor_union, [])
    c = _choose_split(nodes, adj, anchors)
    root_bag = frozenset(t.bag(c)) | anchor_union
    comps = sorted(_components(nodes, adj, c), key=min)
    subtrees = []
    for comp in comps:
        inherited = [(a, bag) for a, bag in anchors if a != c and a in comp]
        attach = next(y for y in adj[c] if y in comp)
        sub_anchors = inherited + [(attach, frozenset(t.bag(c)))]
        assert len(sub_anchors) <= 2
        sub_adj = {x: [y for y in adj[x] if y in comp] for x in comp}
        subtrees.append(_build_rec(t, comp, sub_adj, sub_anchors))
    node = _Struct(root_bag, _spine(root_bag, subtrees))
    return node


def _spine(bag: frozenset[int], subtrees: list[_Struct]) -> list[_Struct]:
    """Join k subtree results under copies of `bag`, keeping arity <= 2.

    The split is weight-balanced over the component node counts so the copies
    add only logarithmically many levels along any path.
    """
    if len(subtrees) <= 2:
        return subtrees
    weights = [_struct_size(s) for s in subtrees]
    total = sum(weights)
    best_i, best_cost = 1, None
    prefix = 0
    for i in range(1, len(subtrees)):
        prefix += weights[i - 1]
        cost = max(prefix, total - prefix)
        if best_cost is None or cost < best_cost:
            best_i, best_cost = i, cost
    left, right = subtrees[:best_i], subtrees[best_i:]
    out = []
    for part in (left, right):
        if len(part) == 1:
            out.append(part[0])
        else:
            out.append(_Struct(bag, _spine(bag, part)))
    return out


def _struct_size(s: _Struct) -> int:
    total = 0
    stack = [s]
    while stack:
        x = stack.pop()
        total += 1
        stack.extend(x.children)
    return total


def materialize_struct(struct: _Struct) -> BalancedTD:
    """Assign preorder ids 1..M and build the BalancedTD."""
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    children: dict[int, list[int]] = {}
    stack: list[tuple[_Struct, int | None]] = [(struct, None)]
    while stack:
        node, parent = stack.pop()
        nid = len(bags) + 1
        bags[nid] = node.bag
        children[nid] = []
        if parent is not None:
            edges.append((parent, nid))
            children[parent].append(nid)
        stack.extend((ch, nid) for ch in reversed(node.children))
    return BalancedTD(bags, edges, root=1, ordered_children=children)


def binarize_balance(t_hat: TreeDecomp) -> BalancedTD:
    """Binary, balanced equivalent of a rooted decomposition.

    Output width is at most 3*(w+1)-1 for input width w, and depth at most
    2*ceil(log2 N)+1 for N input nodes. Bags of the input reappear as subsets
    of output bags, so validity for the underlying graph is preserved.
    """
    if t_hat.root is None:
        raise ValueError("binarize_balance requires a rooted decomposition")
    struct = _build_struct(t_hat, set(t_hat.bags), [])
    return materialize_struct(struct)
