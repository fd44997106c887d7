import math
import random

import pytest

from twreach.decomp import (BalancedTD, TdFormatError, TreeDecomp, ValidityReport,
                            binarize_balance, parse_td, validate_td, write_td)
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import DiGraph, undirected_components
from twreach.recursive import build_balanced

from test_separator import _instances

PATH_G = DiGraph(4, [(1, 2), (2, 3), (3, 4)])
PATH_T = TreeDecomp({1: (1, 2), 2: (2, 3), 3: (3, 4)}, [(1, 2), (2, 3)], root=1)


def test_bags_canonicalized():
    t = TreeDecomp({1: [3, 1, 3]}, [])
    assert t.bag(1) == (1, 3)


def test_width_and_depth():
    assert PATH_T.width() == 1
    assert PATH_T.depth() == 2
    assert TreeDecomp({1: ()}, []).width() == -1


def test_non_tree_rejected():
    with pytest.raises(TdFormatError, match="cycle"):
        TreeDecomp({1: (), 2: (), 3: ()}, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(TdFormatError, match="connect"):
        TreeDecomp({1: (), 2: (), 3: ()}, [(1, 2)])
    with pytest.raises(TdFormatError, match="unknown"):
        TreeDecomp({1: (), 2: ()}, [(1, 5)])
    with pytest.raises(TdFormatError, match="no nodes"):
        TreeDecomp({}, [])


@pytest.mark.parametrize("build, error, message", [
    (lambda: TreeDecomp({1: (), 2: ()}, [(1, 1)]), TdFormatError, "two distinct nodes"),
    # one edge given both ways is one edge: too few to connect three nodes
    (lambda: TreeDecomp({1: (), 2: (), 3: ()}, [(1, 2), (2, 1)]), TdFormatError, "connect"),
    (lambda: TreeDecomp({1: (), 2: ()}, [(1, 5)]), TdFormatError, "unknown node 5"),
    (lambda: TreeDecomp({1: (), 2: (), 3: ()}, [(1, 2), (2, 3), (3, 1)]), TdFormatError,
     "cycle"),
    # N - 1 edges, but a cycle beside an isolated node
    (lambda: TreeDecomp({i: () for i in range(1, 5)}, [(1, 2), (2, 3), (3, 1)]),
     TdFormatError, "connect"),
    (lambda: TreeDecomp({}, []), TdFormatError, "no nodes"),
    (lambda: TreeDecomp({1: (), 2: ()}, [(1, 2)], root=3), TdFormatError,
     "root 3 is not a node"),
    (lambda: BalancedTD({1: (), 2: ()}, [(1, 2)], root=None), ValueError, "requires a root"),
    (lambda: BalancedTD({i: () for i in range(1, 5)}, [(1, 2), (1, 3), (1, 4)], root=1),
     ValueError, "node 1 has 3 children; binary tree required"),
    (lambda: BalancedTD({1: (), 2: (), 3: ()}, [(1, 2), (2, 3)], root=1,
                        ordered_children={1: [3], 2: []}),
     ValueError, "child 3 of node 1 does not follow the tree edges"),
    (lambda: BalancedTD({1: (), 2: (), 3: ()}, [(1, 2), (1, 3)], root=1,
                        ordered_children={1: [2]}),
     ValueError, "ordered children do not reach every node"),
], ids=["self-loop", "edge-both-ways", "unknown-node", "cycle", "cycle-and-isolated",
        "no-nodes", "root-not-a-node", "balanced-no-root", "balanced-ternary",
        "balanced-child-off-edges", "balanced-children-miss-a-node"])
def test_constructor_errors(build, error, message):
    with pytest.raises(ValueError, match=message) as exc:
        build()
    assert type(exc.value) is error


def test_parent_children_maps():
    assert PATH_T.parent_map() == {1: None, 2: 1, 3: 2}
    assert PATH_T.children_map() == {1: [2], 2: [3], 3: []}
    with pytest.raises(ValueError, match="rooted"):
        TreeDecomp({1: (1,)}, []).depth()


def test_validate_good():
    rep = validate_td(PATH_G, PATH_T)
    assert rep.ok and rep.witness is None


def test_validate_missing_vertex():
    t = TreeDecomp({1: (1, 2), 2: (2, 3)}, [(1, 2)])
    rep = validate_td(PATH_G, t)
    assert not rep.covers_vertices
    assert "vertex 4" in rep.witness


def test_validate_missing_edge():
    t = TreeDecomp({1: (1, 2), 2: (2, 3), 3: (4,)}, [(1, 2), (2, 3)])
    rep = validate_td(PATH_G, t)
    assert rep.covers_vertices and not rep.covers_edges
    assert "(3, 4)" in rep.witness


def test_validate_disconnected_occurrence():
    t = TreeDecomp({1: (1, 2), 2: (2, 3), 3: (3, 4, 1)}, [(1, 2), (2, 3)])
    rep = validate_td(PATH_G, t)
    assert not rep.connected_occurrences
    assert "vertex 1" in rep.witness


def test_validate_vertex_subset():
    g = DiGraph(5, [(1, 2), (4, 5)])
    t = TreeDecomp({1: (1, 2)}, [])
    assert validate_td(g, t, vertices=(1, 2)).ok
    assert not validate_td(g, t).ok


def _validate_all_bags(g, t, vertices=None):
    """validate_td as an all-bags scan: each edge against every bag, a tree
    search per vertex over the bags that hold it."""
    target = set(vertices) if vertices is not None else set(range(1, g.n + 1))
    covered = set().union(*t.bags.values())
    covers_vertices = covered == target
    witness = None
    if not covers_vertices:
        missing = sorted(target - covered) or sorted(covered - target)
        witness = f"vertex coverage mismatch, e.g. vertex {missing[0]}"
    covers_edges = True
    for u, v in sorted(g.und_edges):
        if u in target and v in target and not any(u in b and v in b for b in t.bags.values()):
            covers_edges = False
            witness = witness or f"edge ({u}, {v}) not covered by any bag"
            break
    connected = True
    for v in sorted(covered):
        nodes = {x for x, b in t.bags.items() if v in b}
        start = min(nodes)
        seen, stack = {start}, [start]
        while stack:
            for y in t.neighbors(stack.pop()):
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != nodes:
            connected = False
            witness = witness or f"occurrences of vertex {v} are not connected in the tree"
            break
    return ValidityReport(covers_vertices, covers_edges, connected, witness)


def _damaged(t, n, rng):
    """t with bag vertices dropped, or a vertex's occurrences split by a new leaf."""
    bags = {x: set(b) for x, b in t.bags.items()}
    edges = [tuple(e) for e in t.edges]
    for _ in range(rng.randint(1, 2)):
        x = rng.choice(sorted(bags))
        if bags[x] and rng.random() < 0.5:
            bags[x].discard(rng.choice(sorted(bags[x])))
        else:
            fresh = max(bags) + 1
            bags[fresh] = {rng.randint(1, n)}
            edges.append((x, fresh))
    return TreeDecomp(bags, edges)


def test_validate_matches_all_bags_scan():
    rng = random.Random(99)
    seen = set()
    for g, t in _instances(random.Random(3)):
        cases = [t, _damaged(t, g.n, rng), _damaged(t, g.n, rng)]
        for case in cases:
            comps = undirected_components(g)
            for vertices in (None, comps[0], rng.sample(range(1, g.n + 1), rng.randint(0, g.n))):
                want = _validate_all_bags(g, case, vertices)
                assert validate_td(g, case, vertices) == want
                seen.add((want.covers_vertices, want.covers_edges, want.connected_occurrences))
    # every flag is seen failing
    assert all(any(not flags[i] for flags in seen) for i in range(3))


def test_rooting_range_minimum():
    rng, roots = random.Random(4), random.Random(5)
    for size in list(range(1, 18)) + [40, 100]:
        ids = rng.sample(range(1, 4 * size + 1), size)
        edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, size)]
        # unrooted (the smallest id roots the shape), then rooted anywhere
        for root in (None, roots.choice(ids)):
            rooting = TreeDecomp({x: () for x in ids}, edges, root=root).rooting
            order = rooting.order
            assert sorted(order) == sorted(ids) and order[0] == (min(ids) if root is None else root)
            assert all(rooting.pre[x] == i for i, x in enumerate(order))
            for lo in range(size):
                for hi in range(lo + 1, size + 1):
                    assert rooting.first_id(lo, hi) == min(order[lo:hi])


# Reference walks, one per shape accessor, written out separately; the
# accessors, which all read one shared shape, must agree with each of them.

def _ref_rooting(t):
    """(order, pre, end, children) of the preorder at the smallest id."""
    root = min(t.bags)
    order, children = [], {}
    stack = [(root, None)]
    while stack:
        x, parent = stack.pop()
        order.append(x)
        children[x] = [y for y in t.neighbors(x) if y != parent]
        stack.extend((y, x) for y in reversed(children[x]))
    pre = {x: i for i, x in enumerate(order)}
    end = {}
    for x in reversed(order):
        kids = children[x]
        end[x] = end[kids[-1]] if kids else pre[x] + 1
    return order, pre, end, children


def _ref_parent_map(t):
    parent = {t.root: None}
    stack = [t.root]
    while stack:
        x = stack.pop()
        for y in t.neighbors(x):
            if y not in parent:
                parent[y] = x
                stack.append(y)
    return parent


def _ref_children_map(t):
    parent = _ref_parent_map(t)
    children = {i: [] for i in t.bags}
    for node in sorted(t.bags):
        if parent[node] is not None:
            children[parent[node]].append(node)
    return children


def _ref_depth(t):
    children, depth = _ref_children_map(t), 0
    stack = [(t.root, 0)]
    while stack:
        x, d = stack.pop()
        depth = max(depth, d)
        stack.extend((y, d + 1) for y in children[x])
    return depth


def _ref_balanced_shape(t, given):
    """(parent, children, depth_of, height, preorder, leaves) of a BalancedTD."""
    parent, kids_of, depth_of, order = {t.root: None}, {}, {t.root: 0}, []
    stack = [t.root]
    while stack:
        x = stack.pop()
        order.append(x)
        kids = [y for y in t.neighbors(x) if y != parent[x]] if given is None else list(given.get(x, ()))
        for y in kids:
            parent[y] = x
            depth_of[y] = depth_of[x] + 1
        kids_of[x] = kids
        stack += reversed(kids)
    height = dict.fromkeys(order, 0)
    for x in reversed(order):
        p = parent[x]
        if p is not None and height[x] >= height[p]:
            height[p] = height[x] + 1
    return parent, kids_of, depth_of, height, order, [x for x in order if not kids_of[x]]


def _ref_write_td(t, kids):
    """write_td's text, renumbering in preorder under `kids` (or by id, unrooted)."""
    n_vertices = max((max(b) for b in t.bags.values() if b), default=0)
    if t.root is None:
        order = sorted(t.bags)
    else:
        order, stack = [], [t.root]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(reversed(kids[x]))
    renum = {old: i + 1 for i, old in enumerate(order)}
    lines = [] if t.root is None else [f"c root {renum[t.root]}"]
    lines.append(f"s td {len(t.bags)} {max(len(b) for b in t.bags.values())} {n_vertices}")
    lines += ["b " + " ".join(map(str, (renum[x],) + t.bags[x])).rstrip() for x in order]
    lines += [f"{a} {b}" for a, b in sorted(sorted((renum[x], renum[y])) for x, y in t.edges)]
    return "\n".join(lines) + "\n"


def _random_tree(rng, size, arity=None):
    """Ids, bags and edges of a random tree on `size` non-contiguous ids,
    rooted at ids[0] with at most `arity` children per node when given."""
    ids = rng.sample(range(1, 4 * size + 1), size)
    kids = [0] * size
    edges = []
    for i in range(1, size):
        j = rng.choice([j for j in range(i) if arity is None or kids[j] < arity])
        kids[j] += 1
        edges.append((ids[i], ids[j]))
    bags = {x: tuple(rng.sample(range(1, 9), rng.randint(0, 3))) for x in ids}
    return ids, bags, edges


def test_tree_shape_matches_reference_walks():
    rng = random.Random(12)
    for trial in range(300):
        ids, bags, edges = _random_tree(rng, rng.randint(1, 30))
        for root in (None, min(ids), rng.choice(ids)):
            t = TreeDecomp(bags, edges, root=root)
            if root is None:
                for method in (t.parent_map, t.children_map, t.depth):
                    with pytest.raises(ValueError, match="rooted"):
                        method()
                assert write_td(t) == _ref_write_td(t, None)
            else:
                assert t.parent_map() == _ref_parent_map(t)
                assert t.children_map() == _ref_children_map(t)
                assert t.depth() == _ref_depth(t)
                assert write_td(t) == _ref_write_td(t, _ref_children_map(t))
                assert t.rooting.children == _ref_children_map(t)
            if root in (None, min(ids)):
                assert tuple(t.rooting[:4]) == _ref_rooting(t)
            # augment keeps the shape and recomputes what depends on the bags
            aug = t.augment({9})
            assert aug.rooting == TreeDecomp(aug.bags, edges, root=root).rooting
            assert aug._shape is t._shape and aug.bags != t.bags


def test_balanced_shape_matches_reference_walk():
    rng = random.Random(13)
    for trial in range(300):
        ids, bags, edges = _random_tree(rng, rng.randint(1, 30), arity=2)
        root = ids[0]
        t = TreeDecomp(bags, edges, root=root)
        # ascending children, then the same children shuffled
        given = {x: rng.sample(kids, len(kids)) for x, kids in t.children_map().items()}
        for order in (None, given):
            b = BalancedTD(bags, edges, root, ordered_children=order)
            parent, kids, depth_of, height, preorder, leaves = _ref_balanced_shape(b, order)
            assert b.parent_map() == parent and b.ordered_children == kids
            assert b.preorder == preorder and b.leaves == leaves
            assert all(b.children(x) == kids[x] and b.parent(x) == parent[x]
                       and b.depth_of(x) == depth_of[x] and b.height(x) == height[x]
                       for x in bags)
            assert b.depth() == height[root] == max(depth_of.values())
            assert write_td(b) == _ref_write_td(b, kids)


def test_parse_td_basic():
    t = parse_td("c root 1\ns td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n")
    assert t.bags == PATH_T.bags
    assert t.edges == PATH_T.edges
    assert t.root == 1


def test_parse_td_errors():
    with pytest.raises(TdFormatError, match="missing header"):
        parse_td("c empty\n")
    with pytest.raises(TdFormatError, match="before header"):
        parse_td("b 1 1\n")
    with pytest.raises(TdFormatError, match="duplicate bag"):
        parse_td("s td 2 1 1\nb 1 1\nb 1 1\n1 2\n")
    with pytest.raises(TdFormatError, match="out-of-range"):
        parse_td("s td 1 1 2\nb 1 7\n")
    with pytest.raises(TdFormatError, match="expected 2 bags"):
        parse_td("s td 2 1 1\nb 1 1\n")


def test_parse_td_non_integer_root():
    with pytest.raises(TdFormatError, match="non-integer root id, line 2") as exc:
        parse_td("s td 1 1 1\nc root abc\nb 1 1\n")
    assert exc.value.line == 2


def test_write_parse_roundtrip():
    text = write_td(PATH_T, n_vertices=4)
    again = parse_td(text)
    assert again.bags == PATH_T.bags
    assert again.edges == PATH_T.edges
    assert again.root == 1
    assert write_td(again, n_vertices=4) == text


def test_write_td_preorder_renumbering():
    # root id 7 with children 9, 3: preorder renumbering must keep the shape
    t = TreeDecomp({7: (1,), 9: (2,), 3: (3,)}, [(7, 9), (7, 3)], root=7)
    again = parse_td(write_td(t, n_vertices=3))
    assert again.root == 1
    assert again.children_map()[1] == [2, 3]
    assert sorted(again.bags.values()) == [(1,), (2,), (3,)]


def test_augment():
    t2 = PATH_T.augment({9, 2})
    assert all(2 in b and 9 in b for b in t2.bags.values())
    assert t2.root == 1
    g2 = DiGraph(9, list(PATH_G.arcs))
    assert validate_td(g2, t2, vertices=(1, 2, 3, 4, 9)).ok


def test_balanced_td_shape():
    t = BalancedTD({1: (), 2: (), 3: (), 4: ()}, [(1, 2), (1, 3), (2, 4)], root=1)
    assert t.children(1) == [2, 3]
    assert t.leaves == [4, 3]
    assert t.depth() == 2
    assert t.height(2) == 1 and t.depth_of(4) == 2
    assert t.is_leaf(3) and not t.is_leaf(1)
    assert t.preorder == [1, 2, 4, 3]
    parents = t.parent_map()
    assert parents == TreeDecomp.parent_map(t) == {1: None, 2: 1, 3: 1, 4: 2}
    parents[4] = 3  # a copy: the tree keeps its own
    assert t.parent(4) == 2 and t.parent_map()[4] == 2


def test_balanced_td_rejects_ternary():
    with pytest.raises(ValueError, match="binary"):
        BalancedTD({i: () for i in range(1, 5)}, [(1, 2), (1, 3), (1, 4)], root=1)


def test_balanced_rejects_children_off_the_edges():
    bags = {1: (), 2: (), 3: ()}
    with pytest.raises(ValueError, match="tree edges"):
        BalancedTD(bags, [(1, 2), (2, 3)], root=1, ordered_children={1: [2, 3], 2: [3]})
    with pytest.raises(ValueError, match="tree edges"):
        BalancedTD(bags, [(1, 2), (1, 3)], root=1, ordered_children={1: [2, 2]})
    with pytest.raises(ValueError, match="reach every node"):
        BalancedTD(bags, [(1, 2), (1, 3)], root=1, ordered_children={1: [2]})


def test_balanced_augment_shares_shape():
    g, td = gen_ktree(KTreeSpec(n=30, k=2, seed=4))
    tree = build_balanced(g, td)
    bags_before = dict(tree.bags)
    rooting_before = tree.rooting  # cached before augmenting
    s = {3, 17}
    aug = tree.augment(s)
    assert tree.bags == bags_before and tree.rooting is rooting_before
    edges = [tuple(e) for e in tree.edges]
    fresh = TreeDecomp({i: set(b) | s for i, b in tree.bags.items()}, edges, root=tree.root)
    assert aug.bags == fresh.bags
    assert aug.rooting == fresh.rooting != rooting_before
    rebuilt = BalancedTD(fresh.bags, edges, tree.root, ordered_children=tree.ordered_children)
    assert aug.preorder == rebuilt.preorder and aug.leaves == rebuilt.leaves
    assert aug.parent_map() == rebuilt.parent_map()
    for x in tree.bags:
        assert aug.children(x) == rebuilt.children(x)
        assert (aug.height(x), aug.depth_of(x)) == (rebuilt.height(x), rebuilt.depth_of(x))


def test_balanced_explicit_child_order():
    t = BalancedTD({1: (), 2: (), 3: ()}, [(1, 2), (1, 3)], root=1,
                   ordered_children={1: [3, 2]})
    assert t.children(1) == [3, 2]
    assert t.leaves == [3, 2]
    t2 = t.augment({5})
    assert t2.children(1) == [3, 2]


def test_binarize_requires_root():
    with pytest.raises(ValueError, match="root"):
        binarize_balance(TreeDecomp({1: (1,)}, []))


def test_binarize_single_node():
    out = binarize_balance(TreeDecomp({1: (1, 2)}, [], root=1))
    assert len(out.bags) == 1 and out.depth() == 0
    assert out.bag(out.root) == (1, 2)


def _check_balance_contract(t):
    out = binarize_balance(t)
    n_in = len(t.bags)
    w_in = t.width()
    assert all(len(out.children(x)) <= 2 for x in out.bags)
    assert out.width() <= 3 * (w_in + 1) - 1
    assert out.depth() <= 2 * math.ceil(math.log2(n_in)) + 1 if n_in > 1 else out.depth() == 0
    # every input bag survives as a subset of some output bag
    out_bags = list(out.bags.values())
    for b in t.bags.values():
        assert any(set(b) <= set(ob) for ob in out_bags)
    return out


def test_binarize_path_depth():
    for exp in range(1, 7):
        n = 1 << exp
        t = TreeDecomp({i: (i,) for i in range(1, n + 1)},
                       [(i, i + 1) for i in range(1, n)], root=1)
        out = _check_balance_contract(t)
        assert out.depth() <= 2 * exp + 1


def test_binarize_star():
    t = TreeDecomp({i: (i,) for i in range(1, 66)},
                   [(1, i) for i in range(2, 66)], root=1)
    out = _check_balance_contract(t)
    assert out.width() <= 2  # three singleton bags can meet in one output bag


def test_binarize_random_corpus():
    rng = random.Random(99)
    for trial in range(40):
        n = rng.randint(1, 40)
        # random rooted tree with random small bags
        edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        bags = {i: tuple(rng.sample(range(1, 20), rng.randint(0, 3))) for i in range(1, n + 1)}
        t = TreeDecomp(bags, edges, root=1)
        _check_balance_contract(t)


def test_binarize_preserves_validity_on_ktrees():
    for seed in range(20):
        g, td = gen_ktree(KTreeSpec(n=24, k=3, seed=seed))
        out = binarize_balance(td)
        assert validate_td(g, out).ok
        _check_balance_contract(td)
