import random

import pytest

from twreach import recursive, separator
from twreach.decomp import TreeDecomp, validate_td
from twreach.gen import KTreeSpec, corpus, gen_ktree, gen_path
from twreach.graph import DiGraph, grow, members, undirected_components, vertex_mask, vset
from twreach.recursive import build_balanced
from twreach.separator import SeparatorResult, is_balanced_separator, sep

PATH_G, PATH_T = gen_path(4)  # 1 -> 2 -> 3 -> 4, bags {1,2}, {2,3}, {3,4} from root 1


def test_empty_target_trivially_separated():
    # any set separates the empty target; the first bag wins
    assert sep(PATH_G, PATH_T, ()) == SeparatorResult(1, (1, 2), 0)


def test_path_full_vertex_set():
    # removing {1,2} leaves {3,4}: 2 of 4 target vertices, exactly half
    assert sep(PATH_G, PATH_T, (1, 2, 3, 4)) == SeparatorResult(1, (1, 2), 4)


def test_path_pair_target():
    # bag {1,2} leaves component {3,4} holding both targets; bag {2,3} works
    assert sep(PATH_G, PATH_T, (3, 4)) == SeparatorResult(2, (2, 3), 2)


def test_path_singleton_target():
    # only the bag containing 4 isolates it
    assert sep(PATH_G, PATH_T, (4,)) == SeparatorResult(3, (3, 4), 1)


def test_is_balanced_separator_exact_half():
    # 2*count <= |u| is a non-strict comparison
    assert is_balanced_separator(PATH_G, (1, 2), (1, 2, 3, 4))
    assert not is_balanced_separator(PATH_G, (1,), (1, 2, 3, 4))
    assert is_balanced_separator(PATH_G, (), ())


def _brute_is_separator(g, s, u):
    uset = set(u)
    return all(2 * len(set(c) & uset) <= len(uset)
               for c in undirected_components(g, set(s)))


def test_is_balanced_separator_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 10)
        arcs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)]
        g = DiGraph(n, arcs)
        s = rng.sample(range(1, n + 1), rng.randint(0, n))
        u = rng.sample(range(1, n + 1), rng.randint(0, n))
        assert is_balanced_separator(g, s, u) == _brute_is_separator(g, s, u)


def test_is_balanced_separator_mask_targets_and_starts():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = DiGraph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)])
        s = rng.sample(range(1, n + 1), rng.randint(0, n))
        u = rng.sample(range(1, n + 1), rng.randint(0, n))
        starts = rng.sample(range(1, n + 1), rng.randint(0, n))
        want = all(2 * len(set(c) & set(u)) <= len(u)
                   for c in undirected_components(g, set(s)) if set(c) & set(starts))
        assert is_balanced_separator(g, s, u, starts) == want
        assert is_balanced_separator(g, s, vertex_mask(u), starts) == want
        assert is_balanced_separator(g, s, vertex_mask(u)) == _brute_is_separator(g, s, u)


def test_sep_first_qualifying_bag():
    rng = random.Random(17)
    for seed in range(30):
        g, td = gen_ktree(KTreeSpec(n=20, k=2, seed=seed))
        u = rng.sample(range(1, 21), rng.randint(0, 20))
        res = sep(g, td, u)
        assert res.separator == td.bag(res.bag_node)
        assert _brute_is_separator(g, res.separator, u)
        for node in td.node_ids():
            if node == res.bag_node:
                break
            assert not _brute_is_separator(g, td.bag(node), u)


def test_sep_separator_size_bounded_by_width():
    for seed in range(10):
        g, td = gen_ktree(KTreeSpec(n=18, k=3, seed=seed))
        res = sep(g, td, range(1, 19))
        assert len(res.separator) <= td.width() + 1


def test_sep_no_candidate():
    # a deliberately invalid decomposition whose only bag separates nothing
    g = DiGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    t = TreeDecomp({1: (5,)}, [])
    with pytest.raises(RuntimeError, match="no bag"):
        sep(g, t, (1, 2, 3, 4))


def test_sep_rejects_out_of_range_targets():
    for u in ((0,), (999,), (1, 5)):
        with pytest.raises(ValueError, match="1..4"):
            sep(PATH_G, PATH_T, u)


def test_sep_mask_targets_match_tuples():
    rng = random.Random(6)
    checked = 0
    for g, t in corpus(random.Random(5)):
        targets = [rng.sample(range(1, g.n + 1), rng.randint(0, g.n)) for _ in range(3)]
        for u in [*targets, *undirected_components(g), range(1, g.n + 1)]:
            mask = vertex_mask(u)
            try:
                want = sep(g, t, members(mask))
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    sep(g, t, mask)
                continue
            assert sep(g, t, mask) == want
            checked += 1
        # bit 0, or a bit above n, is rejected as the tuple form rejects it
        for bad in (0, g.n + 1, g.n + 70):
            mask = vertex_mask(rng.sample(range(1, g.n + 1), rng.randint(0, g.n))) | 1 << bad
            with pytest.raises(ValueError) as by_tuple:
                sep(g, t, members(mask))
            with pytest.raises(ValueError) as by_mask:
                sep(g, t, mask)
            assert str(by_mask.value) == str(by_tuple.value)
    assert checked > 500


def _oracle_sep(g, t, u):
    """The exhaustive scan: first bag in ascending id that balanced-separates u."""
    u = vset(u)
    for node in sorted(t.bags):
        if is_balanced_separator(g, t.bag(node), u):
            return SeparatorResult(node, t.bag(node), len(u))
    raise RuntimeError("no bag separates the target set")


def _assert_sep_matches_oracle(g, t, u):
    try:
        want = _oracle_sep(g, t, u)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            sep(g, t, u)
        return
    assert sep(g, t, u) == want, (sorted(t.bags), vset(u))


def test_sep_matches_exhaustive_scan():
    # each instance also rooted at a random node: the answer is the first
    # qualifying bag in ascending id, wherever the shape is rooted
    rng, roots = random.Random(2024), random.Random(2025)
    for g, t in corpus(rng):
        assert validate_td(g, t).ok
        rooted = TreeDecomp(t.bags, [tuple(e) for e in t.edges], root=roots.choice(sorted(t.bags)))
        targets = [rng.sample(range(1, g.n + 1), rng.randint(0, g.n)) for _ in range(4)]
        targets += undirected_components(g) + [range(1, g.n + 1)]
        for u in targets:
            _assert_sep_matches_oracle(g, t, u)
            _assert_sep_matches_oracle(g, rooted, u)


def test_sep_matches_exhaustive_scan_on_balancing_targets(monkeypatch):
    # the exact target sets the recursive decomposition asks for, as masks
    asked = []

    def record(g, t, u):
        asked.append((g, t, u))
        return sep(g, t, u)

    monkeypatch.setattr(recursive, "sep", record)
    rng = random.Random(7)
    for i, (g, t) in enumerate(corpus(rng)):
        if i % 3 == 0:
            build_balanced(g, t)
    assert len(asked) > 500
    for g, t, u in asked:
        _assert_sep_matches_oracle(g, t, [v for v in range(u.bit_length()) if u >> v & 1])


def _connected_targets(g, rng):
    """Connected target sets that are not whole components: balls of a few
    BFS layers, and components minus one vertex (connected or not)."""
    for comp in undirected_components(g):
        ball = [rng.choice(comp)]
        for _ in range(rng.randint(0, 3)):
            ball = vset([*ball, *(w for v in ball for w in members(g.und_mask[v]))])
        yield ball
        if len(comp) > 1:
            gone = rng.choice(comp)
            yield [v for v in comp if v != gone]


def test_sep_matches_exhaustive_scan_on_connected_targets():
    rng, roots = random.Random(2026), random.Random(2027)
    for g, t in corpus(rng):
        rooted = TreeDecomp(t.bags, [tuple(e) for e in t.edges], root=roots.choice(sorted(t.bags)))
        for u in _connected_targets(g, rng):
            _assert_sep_matches_oracle(g, t, u)
            _assert_sep_matches_oracle(g, rooted, u)


class _ReadLog(dict):
    """A bag table that logs the nodes whose bags are read."""

    def __init__(self, bags):
        super().__init__(bags)
        self.read = set()

    def __getitem__(self, node):
        self.read.add(node)
        return super().__getitem__(node)


def test_sep_searches_no_bag_that_misses_connected_targets(monkeypatch):
    # fact 3: the scan reads no bag outside subtree(r), r the top bag of a
    # connected target set, and searches no bag that misses the targets
    searched = []

    def record(g, s, u, starts=None):
        searched.append(s)
        return is_balanced_separator(g, s, u, starts)

    monkeypatch.setattr(separator, "is_balanced_separator", record)
    rng, roots = random.Random(2028), random.Random(2029)
    checked = 0
    for g, t in corpus(rng):
        rooted = TreeDecomp(t.bags, [tuple(e) for e in t.edges], root=roots.choice(sorted(t.bags)))
        for u in list(_connected_targets(g, rng)) + undirected_components(g):
            umask = vertex_mask(u)
            if grow(g.und_mask, umask, umask & -umask) != umask:
                continue
            for tree in (t, rooted):
                rooting = tree.rooting
                r = rooting.order[min(rooting.top[v] for v in u)]
                tree.bags = _ReadLog(tree.bags)
                searched.clear()
                sep(g, tree, u)
                assert all(rooting.pre[r] <= rooting.pre[x] < rooting.end[r] for x in tree.bags.read)
                assert all(set(s) & set(u) for s in searched), (vset(u), searched)
                checked += len(searched)
    assert checked > 1000


def test_build_balanced_search_count_pinned():
    # graph searches made while balancing the pinned k=3, n=256, seed-7
    # instance: 347 before fact 3, 77 with it; `sep` is still called 119 times
    calls = {"search": 0, "sep": 0}

    def count(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return counted

    g, td = gen_ktree(KTreeSpec(n=256, k=3, seed=7))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(separator, "is_balanced_separator", count("search", is_balanced_separator))
        mp.setattr(recursive, "sep", count("sep", sep))
        build_balanced(g, td)
    assert calls == {"search": 77, "sep": 119}
