import math
import random

import pytest

from twreach.decomp import (BalancedTD, TdFormatError, TreeDecomp,
                            binarize_balance, parse_td, validate_td, write_td)
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import DiGraph

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


def test_balanced_td_rejects_ternary():
    with pytest.raises(ValueError, match="binary"):
        BalancedTD({i: () for i in range(1, 5)}, [(1, 2), (1, 3), (1, 4)], root=1)


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
