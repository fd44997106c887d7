import random

import pytest

from twreach import recursive
from twreach.decomp import TreeDecomp, validate_td
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import DiGraph, undirected_components, vertex_mask, vset
from twreach.recursive import build_balanced
from twreach.separator import SeparatorResult, is_balanced_separator, sep

PATH_G = DiGraph(4, [(1, 2), (2, 3), (3, 4)])
PATH_T = TreeDecomp({1: (1, 2), 2: (2, 3), 3: (3, 4)}, [(1, 2), (2, 3)], root=1)


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


def _elimination_td(g):
    """Decomposition from a min-degree elimination order (ties by lowest id).

    Bag i is the i-th eliminated vertex with its neighbours at that time; its
    tree parent is the bag of the first of those neighbours eliminated after
    it, or the next bag when it has none, so disconnected graphs give a tree.
    """
    adj = {v: set(g.und_adj[v]) for v in range(1, g.n + 1)}
    order, bags = [], []
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a] |= nbrs
            adj[a] -= {a, v}
        order.append(v)
        bags.append(nbrs | {v})
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order[:-1]):
        later = bags[i] - {v}
        edges.append((i + 1, 1 + (min(pos[x] for x in later) if later else i + 1)))
    return TreeDecomp({i + 1: b for i, b in enumerate(bags)}, edges)


def _variant(t, rng):
    """t with padded bags, redundant subset leaves and randomly relabelled ids."""
    bags = {x: set(b) for x, b in t.bags.items()}
    edges = [tuple(e) for e in t.edges]
    adj = {x: t.neighbors(x) for x in bags}
    for x in rng.sample(sorted(bags), len(bags) // 3):
        # padding with a vertex of a neighbouring bag keeps occurrences connected
        y = rng.choice(adj[x]) if adj[x] else x
        if bags[y]:
            bags[x].add(rng.choice(sorted(bags[y])))
    fresh = max(bags) + 1
    for x in rng.sample(sorted(bags), len(bags) // 4):
        bags[fresh] = set(rng.sample(sorted(bags[x]), rng.randint(0, len(bags[x]))))
        edges.append((x, fresh))
        fresh += 1
    ids = rng.sample(range(1, 3 * len(bags) + 1), len(bags))
    rename = dict(zip(sorted(bags), ids))
    return TreeDecomp({rename[x]: b for x, b in bags.items()},
                      [(rename[a], rename[b]) for a, b in edges])


def _random_graph(rng):
    """Sparse, grid or disconnected digraph with random arc directions."""
    kind = rng.choice(["sparse", "grid", "disconnected"])
    if kind == "grid":
        rows, cols = rng.randint(1, 5), rng.randint(2, 6)
        n = rows * cols
        und = [(i, i + 1) for i in range(1, n + 1) if i % cols]
        und += [(i, i + cols) for i in range(1, n - cols + 1)]
    else:
        n = rng.randint(1, 24)
        m = rng.randint(0, n + n // 2) if kind == "sparse" else rng.randint(0, n // 2)
        und = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)]
    arcs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in und]
    return DiGraph(n, arcs)


def _instances(rng):
    """(graph, decomposition) pairs: k-trees and elimination decompositions,
    each also with padded bags, subset leaves and relabelled ids."""
    for seed in range(120):
        g, td = gen_ktree(KTreeSpec(n=rng.randint(5, 24), k=1 + seed % 4, seed=seed,
                                    arc_probability=rng.choice([0.2, 0.5, 0.9])))
        yield g, td
        yield g, _variant(td, rng)
    for _ in range(200):
        g = _random_graph(rng)
        td = _elimination_td(g)
        yield g, td
        yield g, _variant(td, rng)


def test_sep_matches_exhaustive_scan():
    # each instance also rooted at a random node: the answer is the first
    # qualifying bag in ascending id, wherever the shape is rooted
    rng, roots = random.Random(2024), random.Random(2025)
    for g, t in _instances(rng):
        assert validate_td(g, t).ok
        rooted = TreeDecomp(t.bags, [tuple(e) for e in t.edges], root=roots.choice(sorted(t.bags)))
        targets = [rng.sample(range(1, g.n + 1), rng.randint(0, g.n)) for _ in range(4)]
        targets += undirected_components(g) + [range(1, g.n + 1)]
        for u in targets:
            _assert_sep_matches_oracle(g, t, u)
            _assert_sep_matches_oracle(g, rooted, u)


def test_sep_matches_exhaustive_scan_on_balancing_targets(monkeypatch):
    # the exact target sets the recursive decomposition asks for
    asked = []

    def record(g, t, u):
        asked.append((g, t, u))
        return sep(g, t, u)

    monkeypatch.setattr(recursive, "sep", record)
    rng = random.Random(7)
    for i, (g, t) in enumerate(_instances(rng)):
        if i % 3 == 0:
            build_balanced(g, t)
    assert len(asked) > 500
    for g, t, u in asked:
        _assert_sep_matches_oracle(g, t, u)
