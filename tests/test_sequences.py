import itertools
import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from twreach.decomp import BalancedTD
from twreach.gen import KTreeSpec, elimination_td, gen_ktree, gen_path
from twreach.graph import DiGraph
from twreach.recursive import build_balanced
from twreach.sequences import (LeafSeq, dominating_subsequence, leaf_depths,
                               lseq_element, lseq_length, schedule_length,
                               useq_counts, useq_element, useq_length,
                               useq_stream)


def _materialize_useq(s):
    if s == 0:
        return [1]
    inner = _materialize_useq(s - 1)
    return inner + [1 << s] + inner


def test_useq_small_values():
    assert list(useq_stream(0)) == [1]
    assert list(useq_stream(1)) == [1, 2, 1]
    assert list(useq_stream(2)) == [1, 2, 1, 4, 1, 2, 1]


def test_useq_matches_recurrence():
    for s in range(8):
        assert list(useq_stream(s)) == _materialize_useq(s)


def test_useq_length_and_counts():
    for s in range(11):
        seq = _materialize_useq(s)
        assert useq_length(s) == len(seq) == (1 << (s + 1)) - 1
        for i in range(s + 1):
            assert useq_counts(s, i) == seq.count(1 << i) == 1 << (s - i)


def test_useq_element_bounds():
    with pytest.raises(ValueError):
        useq_element(2, 0)
    with pytest.raises(ValueError):
        useq_element(2, 8)
    with pytest.raises(ValueError):
        useq_element(-1, 1)
    with pytest.raises(ValueError):
        useq_counts(3, 4)


def _check_domination(s, demands, indices):
    assert indices == sorted(set(indices))
    assert len(indices) == len(demands)
    for k, dem in zip(indices, demands):
        assert useq_element(s, k) >= dem


def test_domination_examples():
    assert dominating_subsequence(2, [4]) == [4]
    assert dominating_subsequence(2, [1, 1, 1, 1]) == [1, 2, 3, 4]
    assert dominating_subsequence(2, [2, 2]) == [2, 4]
    assert dominating_subsequence(2, [4, 4]) is None


def test_domination_exhaustive_small():
    # every composition with sum <= 2^s is dominated (s <= 3 exhaustively)
    for s in range(4):
        cap = 1 << s
        for total in range(1, cap + 1):
            for cuts in range(total):
                for positions in itertools.combinations(range(1, total), cuts):
                    bounds = (0,) + positions + (total,)
                    demands = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
                    out = dominating_subsequence(s, demands)
                    assert out is not None, (s, demands)
                    _check_domination(s, demands, out)


@given(st.integers(0, 6), st.data())
def test_domination_property(s, data):
    cap = 1 << s
    demands = []
    remaining = cap
    while remaining > 0:
        d = data.draw(st.integers(1, remaining))
        demands.append(d)
        remaining -= d
    out = dominating_subsequence(s, demands)
    assert out is not None
    _check_domination(s, demands, out)


def _complete_tree(h):
    """Complete binary BalancedTD of height h with empty bags."""
    n = (1 << (h + 1)) - 1
    bags = {i: () for i in range(1, n + 1)}
    edges = []
    for i in range(1, n + 1):
        if 2 * i <= n:
            edges.append((i, 2 * i))
            edges.append((i, 2 * i + 1))
    return BalancedTD(bags, edges, root=1)


def test_lseq_length_closed_form_values():
    assert lseq_length(0, 4) == 4
    assert lseq_length(1, 2) == 8
    assert lseq_length(2, 2) == 24
    assert lseq_length(3, 1) == 8


def test_lseq_length_closed_form_matches_tree():
    for h in range(5):
        tree = _complete_tree(h)
        for d in (1, 2, 4, 8):
            assert lseq_length(h, d) == LeafSeq(tree, 1, d).block_length(1, d)
            assert lseq_length(h, d) == (1 << h) * d * comb(h + d.bit_length() - 1,
                                                            d.bit_length() - 1)


def test_lseq_rejects_bad_d():
    tree = _complete_tree(1)
    with pytest.raises(ValueError, match="power of 2"):
        LeafSeq(tree, 1, 3)
    with pytest.raises(ValueError, match="power of 2"):
        lseq_length(2, 0)
    with pytest.raises(ValueError, match="height must be non-negative"):
        lseq_length(-1, 2)
    with pytest.raises(ValueError, match="unknown node"):
        LeafSeq(tree, 99, 2)


def test_lseq_height1_handrun():
    # children l=2, r=3; universal sequence <1,2,1> gives
    # <l, r, l, l, r, r, l, r>
    tree = _complete_tree(1)
    seq = LeafSeq(tree, 1, 2)
    assert seq.materialize() == [2, 3, 2, 2, 3, 3, 2, 3]
    assert seq.element(5) == 3
    assert len(seq) == 8


def test_lseq_leaf_block():
    tree = _complete_tree(2)
    seq = LeafSeq(tree, 4, 4)
    assert seq.materialize() == [4, 4, 4, 4]


def test_lseq_element_matches_materialization():
    for h in range(4):
        tree = _complete_tree(h)
        for d in (1, 2, 4):
            seq = LeafSeq(tree, 1, d)
            mat = seq.materialize()
            assert len(mat) == len(seq)
            for r, leaf in enumerate(mat, start=1):
                assert seq.element(r) == leaf
            with pytest.raises(ValueError):
                seq.element(0)
            with pytest.raises(ValueError):
                seq.element(len(mat) + 1)


def _lopsided_tree():
    # root 1 -> (2 -> (4 -> 6, 5), 3); node 2 chain exercises the
    # single-child case
    bags = {i: () for i in range(1, 7)}
    edges = [(1, 2), (1, 3), (2, 4), (2, 5), (4, 6)]
    return BalancedTD(bags, edges, root=1)


def _leaves(tree):
    return {x for x in tree.preorder if not tree.children(x)}


def test_lseq_single_child_nodes():
    tree = _lopsided_tree()
    for d in (1, 2, 4):
        seq = LeafSeq(tree, 1, d)
        mat = seq.materialize()
        assert len(mat) == len(seq)
        for r in range(1, len(mat) + 1):
            assert seq.element(r) == mat[r - 1]
        assert set(mat) <= _leaves(tree)
        # structural length is bounded by the complete-tree closed form
        assert len(seq) <= lseq_length(tree.depth(), d)


def _literal_schedule(tree, t, d):
    """The schedule by its definition: d copies of a leaf; an inner node's
    children interleaved along the order-log2(d) universal sequence."""
    kids = tree.children(t)
    if not kids:
        return [t] * d
    out = []
    for c in _materialize_useq(d.bit_length() - 1):
        for kid in kids:
            out.extend(_literal_schedule(tree, kid, c))
    return out


def _random_binary_tree(rng, size):
    """Random BalancedTD on `size` nodes; nodes may have 0, 1 or 2 children."""
    kids = {1: []}
    edges = []
    for x in range(2, size + 1):
        parent = rng.choice([y for y in kids if len(kids[y]) < 2])
        kids[parent].append(x)
        kids[x] = []
        edges.append((parent, x))
    return BalancedTD({i: () for i in kids}, edges, root=1)


def test_lseq_matches_literal_definition():
    rng = random.Random(11)
    single_child_seen = False
    for _ in range(40):
        tree = _random_binary_tree(rng, rng.randint(1, 9))
        single_child_seen |= any(len(tree.children(x)) == 1 for x in tree.bags)
        for d in (1, 2, 4, 8, 16):
            expected = _literal_schedule(tree, 1, d)
            seq = LeafSeq(tree, 1, d)
            assert len(seq) == len(expected)
            assert seq.materialize() == expected
            assert [seq.element(r) for r in range(1, len(expected) + 1)] == expected
    assert single_child_seen


def _closed_form_trees(rng):
    """Balanced random k-trees, paths and elimination decompositions, and
    random binary shapes; binarization leaves single-child nodes in some."""
    for seed in range(5):
        g, td = gen_ktree(KTreeSpec(n=rng.randint(6, 30), k=1 + seed % 4, seed=seed))
        yield build_balanced(g, td)
    for n in (1, 3, 16, 40):
        yield build_balanced(*gen_path(n))
    for _ in range(4):
        n = rng.randint(4, 30)
        g = DiGraph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)])
        yield build_balanced(g, elimination_td(g))
    for _ in range(10):
        yield _random_binary_tree(rng, rng.randint(1, 12))


def test_schedule_length_is_exact_at_every_node(monkeypatch):
    # the closed form over a node's leaves by depth is its schedule's length
    # at every node and budget up to 2^12, on augment copies too (which
    # share their base's root histogram), and it stays so when LeafSeq.parts
    # reverses the children
    original = LeafSeq.parts
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(LeafSeq, "parts",
                                lambda self, t, d: original(self, t, d)[::-1])
        rng = random.Random(23)
        trees = list(_closed_form_trees(rng))
        assert any(len(tree.children(x)) == 1 for tree in trees[:13] for x in tree.bags)
        for base in trees:
            twice = base.augment({1}).augment({2})
            assert twice.walk_plan[2] is base.walk_plan[2]
            for tree in (base, twice):
                for t in tree.preorder:
                    depths = leaf_depths(tree, t)
                    if t == tree.root:
                        assert tree.walk_plan[2] == depths
                    for s in range(13):
                        d = 1 << s
                        assert schedule_length(depths, d) == len(LeafSeq(tree, t, d)), (t, d)
    for d in (0, 3):
        with pytest.raises(ValueError, match="power of 2"):
            schedule_length([1], d)


def _reference_element(seq, r):
    """`LeafSeq.element`'s descent with each part sized by the recurrence
    (`block_length`) instead of the closed form."""
    t, d = seq.t, seq.d
    while seq.tree.children(t):
        for t, d in seq.parts(t, d):
            size = seq.block_length(t, d)
            if r <= size:
                break
            r -= size
    return t


def test_element_matches_the_descent_sized_by_the_recurrence():
    # balanced k-trees up to n=256, directed paths and random binary shapes,
    # from the root and from a random node, at budgets up to 2^64: the first
    # and last index and random ones between
    rng = random.Random(24)
    trees = [build_balanced(*gen_ktree(KTreeSpec(n=n, k=k, seed=n))) for n, k in
             ((16, 1), (64, 2), (128, 3), (256, 3))]
    trees += [build_balanced(*gen_path(n)) for n in (2, 9, 40)]
    trees += [_random_binary_tree(rng, rng.randint(1, 30)) for _ in range(12)]
    for tree in trees:
        for t in (tree.root, rng.choice(tree.preorder)):
            for s in (0, 1, 5, 17, 64):
                seq = LeafSeq(tree, t, 1 << s)
                total = seq.block_length(t, 1 << s)
                for r in (1, total, *(rng.randint(1, total) for _ in range(20))):
                    assert seq.element(r) == _reference_element(seq, r), (t, s, r)


def test_lseq_every_leaf_appears():
    tree = _lopsided_tree()
    assert set(LeafSeq(tree, 1, 1).materialize()) == _leaves(tree)
