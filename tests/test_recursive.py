import hashlib
import math
import random

import pytest

from twreach.decomp import TreeDecomp, validate_td, write_td
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import DiGraph, undirected_components
from twreach.recursive import (RDContext, RDNode, build_balanced,
                               build_hat_decomposition, hat_bag,
                               materialize_rd, rd_children)

PATH_G = DiGraph(4, [(1, 2), (2, 3), (3, 4)])
PATH_T = TreeDecomp({1: (1, 2), 2: (2, 3), 3: (3, 4)}, [(1, 2), (2, 3)], root=1)


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

def test_rd_children_path_handrun():
    ctx = _path_ctx()
    root = ctx.root()
    assert root == RDNode((), 1)
    assert rd_children(ctx, root) == [RDNode((2,), 3)]
    assert rd_children(ctx, RDNode((2,), 3)) == [RDNode((3,), 4)]
    assert rd_children(ctx, RDNode((3,), 4)) == []


def test_hat_bags_path_handrun():
    ctx = _path_ctx()
    assert hat_bag(ctx, RDNode((), 1)) == (1, 2)
    assert hat_bag(ctx, RDNode((2,), 3)) == (2, 3)
    assert hat_bag(ctx, RDNode((3,), 4)) == (3, 4)


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
    ctx = _path_ctx()
    with pytest.raises(ValueError, match="malformed"):
        rd_children(ctx, RDNode((2,), 2))
    with pytest.raises(ValueError, match="malformed"):
        hat_bag(ctx, RDNode((2,), 2))


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


def test_balanced_trees_pinned():
    # SHA-1 prefixes of the balanced trees of the reference k=3, seed=7 instances
    for n, prefix in ((64, "454c72575bec"), (256, "9682e402dd16")):
        g, td = gen_ktree(KTreeSpec(n=n, k=3, seed=7))
        text = write_td(build_balanced(g, td))
        assert hashlib.sha1(text.encode()).hexdigest()[:12] == prefix, n


def test_sep_cache_consistency():
    ctx = _path_ctx()
    a = ctx.sep_of((3, 4))
    b = ctx.sep_of([4, 3, 3])
    assert a is b
