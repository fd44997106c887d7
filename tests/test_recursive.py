import hashlib
import math
import random

import pytest

from twreach import recursive, separator
from twreach.decomp import TreeDecomp, binarize_balance, parse_td, validate_td, write_td
from twreach.gen import (KTreeSpec, corpus, elimination_td, gen_ktree, gen_path, gen_shape,
                         random_graph, variant)
from twreach.graph import (DiGraph, members, parse_graph, undirected_components,
                           vertex_mask, vset, write_graph)
from twreach.recursive import (RDContext, RDNode, build_balanced,
                               build_hat_decomposition, hat_bag,
                               materialize_rd, rd_children)
from twreach.separator import sep

PATH_G, PATH_T = gen_path(4)  # 1 -> 2 -> 3 -> 4, bags {1,2}, {2,3}, {3,4} from root 1


def _path_ctx():
    return RDContext(PATH_G, PATH_T, 1)


# Hand-run of the path instance, frozen:
#   root <{}, 1>: component {1,2,3,4}; sep({})={1,2} (bag 1 wins trivially),
#   sep({1,2,3,4})={1,2}; Z'={1,2}; one remaining component {3,4} with
#   boundary {2} -> child <{2}, 3>.
#   <{2}, 3>: component {3,4}; sep({2})={1,2}; sep({3,4})={2,3};
#   Z'={1,2,3}; remaining {4}, boundary {3} -> child <{3}, 4>.
#   <{3}, 4>: component {4}; sep({3})={2,3}; sep({4})={3,4};
#   Z'={2,3,4}; nothing remains -> leaf.

def _m(*vertices):
    return vertex_mask(vertices)


def test_rd_children_path_handrun():
    assert _path_ctx().root() == RDNode((), 1)
    # (boundary, representative, component) per child, sets as masks
    assert rd_children(PATH_G, _m(1, 2), _m(1, 2, 3, 4)) == [(_m(2), 3, _m(3, 4))]
    assert rd_children(PATH_G, _m(1, 2, 3), _m(3, 4)) == [(_m(3), 4, _m(4))]
    assert rd_children(PATH_G, _m(2, 3, 4), _m(4)) == []


def test_hat_bags_path_handrun():
    assert hat_bag(_m(), _m(1, 2), _m(1, 2, 3, 4)) == (1, 2)
    assert hat_bag(_m(2), _m(1, 2, 3), _m(3, 4)) == (2, 3)
    assert hat_bag(_m(3), _m(2, 3, 4), _m(4)) == (3, 4)
    # the leaf as the pass sees it: Z' given as Z | C (fact (b))
    assert hat_bag(_m(3), _m(3, 4), _m(4)) == (3, 4)


def test_build_hat_path():
    hat = build_hat_decomposition(_path_ctx())
    assert hat.bags == {1: (1, 2), 2: (2, 3), 3: (3, 4)}
    assert hat.edges == {frozenset((1, 2)), frozenset((2, 3))}
    assert hat.root == 1
    assert validate_td(PATH_G, hat).ok


def test_materialize_rd_preorder():
    rows = materialize_rd(_path_ctx())
    assert rows == [(1, RDNode((), 1), None),
                    (2, RDNode((2,), 3), 1),
                    (3, RDNode((3,), 4), 2)]


def test_rd_malformed_node():
    for v0 in (0, 5):
        with pytest.raises(ValueError, match=f"root representative {v0} out of range"):
            RDContext(PATH_G, PATH_T, v0)


def _rd_invariants(g, td, v0):
    """Walk the whole recursive decomposition checking the proven bounds."""
    w = td.width()
    ctx = RDContext(g, td, v0)
    rows = materialize_rd(ctx)
    comp_sizes = {nid: len(ctx.component_of(node)) for nid, node, _ in rows}
    max_depth = 0
    depth_of = {}
    for nid, node, parent in rows:
        assert len(node.z) <= 4 * w + 4
        depth_of[nid] = 0 if parent is None else depth_of[parent] + 1
        max_depth = max(max_depth, depth_of[nid])
        if parent is not None:
            assert 2 * comp_sizes[nid] <= comp_sizes[parent]
    n_comp = comp_sizes[1]
    assert max_depth <= math.ceil(math.log2(n_comp)) if n_comp > 1 else max_depth == 0
    return ctx, rows


def test_rd_bounds_random_ktrees():
    for seed in range(25):
        k = 1 + seed % 4
        g, td = gen_ktree(KTreeSpec(n=16 + seed, k=k, seed=seed))
        comp0 = undirected_components(g)[0]
        _rd_invariants(g, td, min(comp0))


def test_hat_bounds_random_ktrees():
    for seed in range(25):
        k = 1 + seed % 3
        g, td = gen_ktree(KTreeSpec(n=14 + seed, k=k, seed=100 + seed))
        w = td.width()
        comp0 = undirected_components(g)[0]
        ctx = RDContext(g, td, min(comp0))
        hat = build_hat_decomposition(ctx)
        assert validate_td(g, hat, vertices=comp0).ok
        assert hat.width() <= 6 * w + 6
        n_comp = len(comp0)
        if n_comp > 1:
            assert hat.depth() <= math.ceil(math.log2(n_comp))


def _shape_instances(rng):
    """Off the k-tree corpus: directed paths with their path decompositions,
    and elimination decompositions of random digraphs with self-loops; each
    also with padded bags, subset leaves and relabelled ids, left unrooted."""
    cases = [gen_path(n) for n in (*range(1, 40), 64, 100, 200)]
    for _ in range(200):
        g = random_graph(rng)
        loop = rng.randint(1, g.n)
        g = DiGraph(g.n, [*g.arcs, (loop, loop)])
        cases.append((g, elimination_td(g)))
    return [case for g, td in cases for case in ((g, td), (g, variant(td, rng)))]


def test_paper_bounds_off_the_ktree_corpus():
    # criteria 2-4 (recursive decomposition, hat, binarizer) on other shapes
    for g, td in _shape_instances(random.Random(25)):
        w = td.width()
        for comp in undirected_components(g):
            ctx, _ = _rd_invariants(g, td, min(comp))
            hat = build_hat_decomposition(ctx)
            assert validate_td(g, hat, vertices=comp).ok
            assert hat.width() <= 6 * w + 6
            assert hat.depth() <= (math.ceil(math.log2(len(comp))) if len(comp) > 1 else 0)
            out = binarize_balance(hat)
            assert all(len(out.children(x)) <= 2 for x in out.bags)
            assert validate_td(g, out, vertices=comp).ok
            assert out.width() <= 3 * (hat.width() + 1) - 1
            nodes = len(hat.bags)
            assert out.depth() <= (2 * math.ceil(math.log2(nodes)) + 1 if nodes > 1 else 0)


def test_build_balanced_pipeline_bounds():
    for seed in range(15):
        g, td = gen_ktree(KTreeSpec(n=30, k=2, seed=seed))
        out = build_balanced(g, td)
        assert validate_td(g, out).ok
        assert all(len(out.children(x)) <= 2 for x in out.bags)
        w = td.width()
        assert out.width() <= 3 * (6 * w + 6 + 1) - 1


def test_build_balanced_disconnected():
    # two components joined under an empty spine bag
    g = DiGraph(4, [(1, 2), (3, 4)])
    td = TreeDecomp({1: (1, 2), 2: (3, 4)}, [(1, 2)], root=1)
    out = build_balanced(g, td)
    assert validate_td(g, out).ok
    covered = set()
    for b in out.bags.values():
        covered |= set(b)
    assert covered == {1, 2, 3, 4}


def test_build_balanced_invalid_decomposition_raises():
    # vertex 4 and edge (3, 4) lie in no bag; without the halving check the
    # recursion keeps the component {1, 2, 3, 4} forever
    g = DiGraph(4, [(1, 2), (2, 1), (1, 3), (3, 1), (3, 4), (4, 3)])
    td = TreeDecomp({1: (1, 2), 2: (1, 3), 3: (3,)}, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="invalid decomposition"):
        build_balanced(g, td)


def test_balanced_trees_pinned():
    # SHA-1 prefixes of the balanced trees of the reference k=3, seed=7 instances
    for n, prefix in ((64, "454c72575bec"), (256, "9682e402dd16"), (1024, "95db2ee4d4aa"),
                      (2048, "b79f0596ebeb"), (4096, "4d9b40735546")):
        g, td = gen_ktree(KTreeSpec(n=n, k=3, seed=7))
        text = write_td(build_balanced(g, td))
        assert hashlib.sha1(text.encode()).hexdigest()[:12] == prefix, n


def test_shape_balanced_trees_pinned():
    # gen_shape's instances off the k-trees at seed 7, read back from their
    # texts as scripts/bench_states.py reads them: write_td renumbers ids,
    # and sep picks bags by id
    for family, n, prefix in (("path", 250, "6061c85de578"), ("grid", 64, "252b4e8cb185"),
                              ("sparse", 150, "d1b7d870b6c0")):
        g, td = gen_shape(family, n, 7)
        g, td = parse_graph(write_graph(g)), parse_td(write_td(td, n_vertices=n))
        text = write_td(build_balanced(g, td))
        assert hashlib.sha1(text.encode()).hexdigest()[:12] == prefix, family
    with pytest.raises(ValueError, match="unknown family"):
        gen_shape("cycle", 8, 7)


def test_build_balanced_joins_component_hats():
    # sparse arcs (p = 0.2) leave the k-trees in many undirected components
    counts = set()
    for k in (1, 2, 3, 4):
        for n in (k + 1, 9, 17, 33, 64):
            for seed in range(3):
                g, td = gen_ktree(KTreeSpec(n=n, k=k, seed=seed, arc_probability=0.2))
                hats = [build_hat_decomposition(RDContext(g, td, min(comp)))
                        for comp in undirected_components(g)]
                counts.add(len(hats))
                assert write_td(build_balanced(g, td)) == write_td(binarize_balance(*hats))
    # one component, even and odd counts of them
    assert 1 in counts and any(c % 2 == 0 for c in counts)
    assert any(c % 2 and c > 1 for c in counts)


def test_disconnected_balanced_tree_pinned():
    g, td = gen_ktree(KTreeSpec(n=64, k=2, seed=2, arc_probability=0.2))
    assert len(undirected_components(g)) == 23
    text = write_td(build_balanced(g, td))
    assert hashlib.sha1(text.encode()).hexdigest()[:12] == "c9e55f6244cc"


def test_empty_graph_raises():
    with pytest.raises(ValueError, match="^graph has no vertices$"):
        build_balanced(DiGraph(0, []), TreeDecomp({1: ()}, []))
    with pytest.raises(ValueError, match="^graph has no vertices$"):
        binarize_balance()


def test_each_component_searched_once(monkeypatch):
    calls = {"component_containing": 0, "rd_children": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(recursive, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(recursive, name, counted)
    g, td = gen_ktree(KTreeSpec(n=128, k=3, seed=7))
    build_balanced(g, td)
    # each root's component is searched; every child's comes from rd_children
    assert calls["component_containing"] == len(undirected_components(g))
    assert calls["rd_children"] > 0


def test_balancing_needs_few_separator_searches(monkeypatch):
    # the exhaustive scan searched the graph 33,660 times on this instance
    calls = []
    original = separator.is_balanced_separator

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(separator, "is_balanced_separator", counted)
    g, td = gen_ktree(KTreeSpec(n=256, k=3, seed=7))
    build_balanced(g, td)
    assert 0 < len(calls) <= 3000


def test_balancing_settles_leaves_without_separator_work(monkeypatch):
    calls = []
    original = recursive.sep

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(recursive, "sep", counted)
    g, td = gen_ktree(KTreeSpec(n=256, k=3, seed=7))
    build_balanced(g, td)
    # 406 calls when every node computed sep(Z) and sep(C)
    assert 0 < len(calls) <= 120


def test_one_vertex_component_outside_every_bag_raises():
    # vertex 3 and edge (2, 3) lie in no bag; the root's separator leaves the
    # one-vertex component {3}, which no bag can hold
    g = DiGraph(3, [(1, 2), (2, 3)])
    td = TreeDecomp({1: (1, 2)}, [])
    with pytest.raises((ValueError, RuntimeError)):
        build_balanced(g, td)
    # the same with 3 also isolated: a one-vertex root component
    g = DiGraph(3, [(1, 2)])
    with pytest.raises((ValueError, RuntimeError)):
        build_balanced(g, td)


def _adjacency(g):
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.und_edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _search(adj, start, alive):
    """Vertices joined to start inside the set alive, one edge at a time."""
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in alive and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _rd_node_by_lists(g, t, adj, node):
    """One node of the recursive decomposition in full, on adjacency lists
    and `sep` over tuples: its component, its hat bag and its children, each
    child with its own component."""
    comp = _search(adj, node.r, set(adj) - set(node.z))
    seps = set(sep(g, t, node.z).separator) | set(sep(g, t, vset(comp)).separator)
    zp = set(node.z) | seps
    remaining = comp - zp
    children, seen = [], set()
    for s in sorted(remaining):
        if s in seen:
            continue
        sub = _search(adj, s, remaining)
        seen |= sub
        if 2 * len(sub) > len(comp):
            raise ValueError("invalid decomposition")
        children.append((RDNode(vset(v for v in zp if adj[v] & sub), s), vset(sub)))
    return vset(comp), vset(set(node.z) | (seps & comp)), children


def _rd_children_by_masks(ctx, node):
    """rd_children on the node's masks, Z' from the context's separator cache."""
    comp = vertex_mask(ctx.component_of(node))
    z = vertex_mask(node.z)
    zp = z | ctx.sep_of(comp) | ctx.sep_of(z)
    return [(RDNode(members(cz), r), members(sub)) for cz, r, sub in rd_children(ctx.g, zp, comp)]


def _rd_outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def test_rd_children_matches_adjacency_lists():
    rng = random.Random(11)
    outcomes = []
    for g, td in corpus(random.Random(5)):
        adj = _adjacency(g)
        # a copy with one vertex dropped from one bag is usually invalid
        bags = {x: set(b) for x, b in td.bags.items()}
        x = rng.choice([x for x in bags if bags[x]])
        bags[x].discard(rng.choice(sorted(bags[x])))
        broken = TreeDecomp(bags, [tuple(e) for e in td.edges])
        for t in (td, broken):
            for comp in undirected_components(g)[:2]:
                ctx = RDContext(g, t, min(comp))
                nodes = [ctx.root()]
                if t is td:
                    nodes = [node for _, node, _ in materialize_rd(ctx)]
                # and arbitrary boundaries, which need not come from a separator
                for _ in range(3):
                    z = vset(rng.sample(range(1, g.n + 1), rng.randint(0, g.n - 1)))
                    nodes.append(RDNode(z, rng.choice([v for v in range(1, g.n + 1) if v not in z])))
                for node in nodes:
                    want = _rd_outcome(_rd_node_by_lists, g, t, adj, node)
                    if not isinstance(want, str):
                        want = want[2]
                    # each child's component is the one rd_children grew (fact (c))
                    assert _rd_outcome(_rd_children_by_masks, ctx, node) == want, node
                    outcomes.append(want if isinstance(want, str) else "children")
    assert outcomes.count("children") > 2000
    assert outcomes.count("ValueError") > 10


def _full_hat_decomposition(ctx):
    """build_hat_decomposition without shortcuts: every node's component
    searched on adjacency lists, its children found there too, and its hat
    bag Z | ((sep(C) | sep(Z)) & C) computed in full with `sep` over tuples."""
    adj = _adjacency(ctx.g)
    bags, edges = {}, []
    stack = [(RDNode((), ctx.v0), None)]
    while stack:
        node, parent = stack.pop()
        nid = len(bags) + 1
        _, bags[nid], children = _rd_node_by_lists(ctx.g, ctx.t, adj, node)
        if parent is not None:
            edges.append((parent, nid))
        stack.extend((child, nid) for child, _ in reversed(children))
    return TreeDecomp(bags, edges, root=1)


def _differential_instances():
    for n, k, p in ((64, 3, 0.5), (128, 2, 0.2), (200, 4, 0.9), (256, 3, 0.5)):
        yield gen_ktree(KTreeSpec(n=n, k=k, seed=7, arc_probability=p))
    yield from corpus(random.Random(3))


def test_hat_decomposition_matches_full_recursion(monkeypatch):
    instances = list(_differential_instances())
    for g, td in instances:
        for comp in undirected_components(g):
            ctx = RDContext(g, td, min(comp))
            hat, want = build_hat_decomposition(ctx), _full_hat_decomposition(ctx)
            assert (hat.bags, hat.edges, hat.root) == (want.bags, want.edges, want.root)
    fast = [write_td(build_balanced(g, td)) for g, td in instances]
    monkeypatch.setattr(recursive, "build_hat_decomposition", _full_hat_decomposition)
    assert fast == [write_td(build_balanced(g, td)) for g, td in instances]
