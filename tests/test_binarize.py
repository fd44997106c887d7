"""The binarizer against a reference that copies adjacency at every level.

`_ref_binarize` is the straightforward form of decomp's binarize/balance: it
copies the adjacency of every branch, searches the tree once per neighbour of
the split node and once per subtree hanging off an anchor path, and recounts
struct sizes for every spine split. The tree it builds is fixed by the same
rules (smallest-id centroid tie, branches by smallest node id, new anchor
last, first minimum on a path or spine split), so the output must match bit
for bit.
"""
import random

from twreach.decomp import (TreeDecomp, _build_struct, _Struct, binarize_balance,
                            materialize_struct, write_td)
from twreach.gen import KTreeSpec, corpus, gen_ktree
from twreach.graph import undirected_components
from twreach.recursive import RDContext, build_hat_decomposition


def _search(adj, start, avoid=None):
    parent = {start: None}
    order = [start]
    for x in order:
        for y in adj[x]:
            if y not in parent and y != avoid:
                parent[y] = x
                order.append(y)
    return parent, order


def _ref_centroid(nodes, adj):
    root = min(nodes)
    total = len(nodes)
    parent, order = _search(adj, root)
    size = {x: 1 for x in nodes}
    for x in reversed(order):
        if parent[x] is not None:
            size[parent[x]] += size[x]
    best, best_cost = root, total
    for x in order:
        child_sizes = [size[y] for y in adj[x] if parent[y] == x]
        cost = max(child_sizes + [total - size[x]])
        if cost < best_cost or (cost == best_cost and x < best):
            best, best_cost = x, cost
    return best


def _ref_split(nodes, adj, anchors, stats):
    if len(anchors) == 2:
        a1, a2 = anchors[0][0], anchors[1][0]
        if a1 == a2:
            return a1
        stats["path_splits"] += 1
        parent, _ = _search(adj, a1)
        path = [a2]
        while path[-1] != a1:
            path.append(parent[path[-1]])
        path.reverse()
        on_path = set(path)
        weights = [1 + sum(len(_search(adj, y, p)[1]) for y in adj[p] if y not in on_path)
                   for p in path]
        total = sum(weights)
        best_i, best_cost, prefix = 0, None, 0
        for i, w in enumerate(weights):
            cost = max(prefix, total - prefix - w)
            if best_cost is None or cost < best_cost:
                best_i, best_cost = i, cost
            prefix += w
        return path[best_i]
    return _ref_centroid(nodes, adj)


def _ref_size(s):
    total, stack = 0, [s]
    while stack:
        x = stack.pop()
        total += 1
        stack.extend(x.children)
    return total


def _ref_spine(bag, subtrees):
    if len(subtrees) <= 2:
        return subtrees
    weights = [_ref_size(s) for s in subtrees]
    total = sum(weights)
    best_i, best_cost, prefix = 1, None, 0
    for i in range(1, len(subtrees)):
        prefix += weights[i - 1]
        cost = max(prefix, total - prefix)
        if best_cost is None or cost < best_cost:
            best_i, best_cost = i, cost
    return [part[0] if len(part) == 1 else _Struct(bag, _ref_spine(bag, part))
            for part in (subtrees[:best_i], subtrees[best_i:])]


def _ref_rec(t, nodes, adj, anchors, stats):
    union = frozenset().union(*(bag for _, bag in anchors))
    if len(nodes) == 1:
        return _Struct(frozenset(t.bag(next(iter(nodes)))) | union, [])
    c = _ref_split(nodes, adj, anchors, stats)
    root_bag = frozenset(t.bag(c)) | union
    branches = sorted(((set(_search(adj, y, c)[1]), y) for y in adj[c]),
                      key=lambda item: min(item[0]))
    subtrees = []
    for comp, attach in branches:
        sub_anchors = [(a, bag) for a, bag in anchors if a != c and a in comp]
        sub_anchors.append((attach, frozenset(t.bag(c))))
        sub_adj = {x: [y for y in adj[x] if y in comp] for x in comp}
        subtrees.append(_ref_rec(t, comp, sub_adj, sub_anchors, stats))
    return _Struct(root_bag, _ref_spine(root_bag, subtrees))


def _ref_binarize(t, stats):
    nodes = set(t.bags)
    adj = {x: [y for y in t.neighbors(x) if y in nodes] for x in nodes}
    return materialize_struct(_ref_rec(t, nodes, adj, [], stats))


def _relabel(bags, edges, ids):
    """The tree with node i renamed ids(i); ties break by id, so the ids are
    deliberately not 1..N."""
    return TreeDecomp({ids(i): b for i, b in bags.items()},
                      [(ids(a), ids(b)) for a, b in edges], root=ids(min(bags)))


def _corpus():
    rng = random.Random(5)
    for n in range(1, 65):  # paths
        yield TreeDecomp({i: (i,) for i in range(1, n + 1)},
                         [(i, i + 1) for i in range(1, n)], root=1)
    for leaves in range(1, 40):  # stars, centre not the smallest id
        yield _relabel({i: (1 + i % 5,) for i in range(leaves + 1)},
                       [(0, i) for i in range(1, leaves + 1)], lambda i: leaves - i + 1)
    for spine in range(1, 20):  # caterpillars with 0..4 legs per spine node
        bags, edges = {i: (i,) for i in range(spine)}, [(i, i + 1) for i in range(spine - 1)]
        for s in range(spine):
            for _ in range(rng.randint(0, 4)):
                bags[len(bags)] = (s, len(bags))
                edges.append((s, len(bags) - 1))
        yield _relabel(bags, edges, lambda i: 7 * i + 3)
    # the recipe of test_decomp.test_binarize_random_corpus, ids 7i + 3 and
    # then shuffled, so a branch's smallest id need not be where it attaches
    for trial in range(200):
        n = rng.randint(1, 40)
        edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        bags = {i: tuple(rng.sample(range(1, 20), rng.randint(0, 3))) for i in range(1, n + 1)}
        shuffled = rng.sample(range(1, n + 1), n)
        yield _relabel(bags, edges, lambda i: 7 * i + 3)
        yield _relabel(bags, edges, lambda i: 7 * shuffled[i - 1] + 3)
    # hat decompositions, the binarizer's input inside build_balanced
    graphs = [gen_ktree(KTreeSpec(n=n, k=k, seed=7)) for n, k in ((64, 3), (128, 2), (256, 3))]
    for g, td in graphs + list(corpus(random.Random(3))):
        for comp in undirected_components(g):
            yield build_hat_decomposition(RDContext(g, td, min(comp)))


def _counted(struct):
    """Struct nodes under `struct`, checking every weight on the way."""
    count = 1 + sum(_counted(ch) for ch in struct.children)
    assert struct.weight == count
    return count


def test_binarizer_matches_adjacency_copying_reference():
    stats = {"path_splits": 0}
    trees = 0
    for t in _corpus():
        want = write_td(_ref_binarize(t, stats))
        assert write_td(binarize_balance(t)) == want, sorted(t.bags)
        trees += 1
    assert trees > 400
    # the two-anchor path split, not only the centroid, is exercised
    assert stats["path_splits"] > 200


def test_struct_weight_counts_subtree_nodes():
    for t in list(_corpus())[::3]:
        struct = _build_struct(t)
        assert _counted(struct) == len(materialize_struct(struct).bags)
