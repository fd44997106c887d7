import random
import re

import pytest
from hypothesis import given, strategies as st

from twreach.graph import (DiGraph, GraphFormatError, bfs_reachable,
                           component_containing, grow, members, parse_graph,
                           undirected_components, vertex_mask, vset, write_graph)


def test_parse_simple():
    g = parse_graph("p dgr 3 2\n1 2\n2 3\n")
    assert g.n == 3
    assert g.arcs == {(1, 2), (2, 3)}


def test_parse_empty_graph():
    g = parse_graph("p dgr 1 0\n")
    assert g.n == 1 and g.arcs == frozenset()


def test_parse_out_of_range():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("p dgr 2 1\n1 5\n")
    assert "endpoint out of range, line 2" in str(err.value)


def test_parse_errors():
    with pytest.raises(GraphFormatError, match="missing header"):
        parse_graph("c nothing here\n")
    with pytest.raises(GraphFormatError, match="duplicate header"):
        parse_graph("p dgr 2 0\np dgr 2 0\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("p dgr 2 1\n1 x\n")
    with pytest.raises(GraphFormatError, match="non-integer token in header, line 1"):
        parse_graph("p dgr two 0\n")


def test_parse_negative_vertex_count():
    with pytest.raises(GraphFormatError, match="vertex count must be non-negative, line 2") as exc:
        parse_graph("c negative\np dgr -1 0\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("text, line, message", [
    ("p dgr 3 0\n1 2\n2 3\n", 1, "header declares 0 arcs, found 2"),
    ("c few arcs\np dgr 3 3\n1 2\n", 2, "header declares 3 arcs, found 1"),
    ("p dgr 3 -1\n", 1, "header declares -1 arcs, found 0"),
], ids=["more-lines", "fewer-lines", "negative"])
def test_parse_header_arc_count(text, line, message):
    with pytest.raises(GraphFormatError, match=f"{message}, line {line}") as exc:
        parse_graph(text)
    assert exc.value.line == line


def test_digraph_rejects_bad_input():
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        DiGraph(-1, [])
    for arc in ((0, 1), (1, 3)):
        with pytest.raises(ValueError, match=re.escape(f"arc {arc} endpoint out of range")):
            DiGraph(2, [arc])


def test_parse_dedups_and_ignores_comments():
    g = parse_graph("c hi\np dgr 2 3\n1 2\n1 2\n2 1\n")
    assert g.arcs == {(1, 2), (2, 1)}


def test_roundtrip_canonical():
    g = DiGraph(4, [(4, 1), (1, 2), (2, 2)])
    text = write_graph(g)
    assert parse_graph(text) == g
    assert write_graph(parse_graph(text)) == text


def test_components_path_removal():
    g = DiGraph(3, [(1, 2), (2, 3)])
    assert undirected_components(g, {2}) == [(1,), (3,)]


def test_components_cycle():
    g = DiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert undirected_components(g) == [(1, 2, 3, 4)]


def test_components_all_removed():
    g = DiGraph(2, [(1, 2)])
    assert undirected_components(g, {1, 2}) == []


def _random_graph(rng, n):
    arcs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))]
    return DiGraph(n, arcs)


def _brute_partition(g, removed):
    # transitive closure of the undirected edge relation
    alive = [v for v in range(1, g.n + 1) if v not in removed]
    parent = {v: v for v in alive}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.und_edges:
        if u in parent and v in parent:
            parent[find(u)] = find(v)
    groups = {}
    for v in alive:
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(grp)) for grp in groups.values()), key=lambda c: c[0])


def test_components_match_bruteforce():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = _random_graph(rng, n)
        removed = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        assert undirected_components(g, removed) == _brute_partition(g, removed)


def test_components_partition_property():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = _random_graph(rng, n)
        removed = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        comps = undirected_components(g, removed)
        members = [v for c in comps for v in c]
        assert sorted(members) == sorted(set(range(1, n + 1)) - removed)
        assert len(members) == len(set(members))


def test_component_containing():
    g = DiGraph(4, [(1, 2), (2, 3), (3, 4)])
    assert component_containing(g, {2}, 3) == (3, 4)
    assert component_containing(g, (), 1) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        component_containing(g, {3}, 3)
    for r in (0, 5):
        with pytest.raises(ValueError, match=f"vertex {r} out of range"):
            component_containing(g, (), r)


def test_component_containing_matches_components():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 10)
        g = _random_graph(rng, n)
        z = set(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
        comps = undirected_components(g, z)
        for comp in comps:
            r = rng.choice(comp)
            assert component_containing(g, z, r) == comp


def _mask_cases(rng):
    """Graphs with self-loops and isolated vertices, n from 0, and removed sets
    from none to every vertex."""
    for n in (0, 1):
        g = DiGraph(n, [(1, 1)] * n)
        yield g, set()
        yield g, set(range(1, n + 1))
    for _ in range(300):
        n = rng.randint(1, 40)
        isolated = set(rng.sample(range(1, n + 1), rng.randint(0, n // 3)))
        live = [v for v in range(1, n + 1) if v not in isolated] or [1]
        arcs = [(rng.choice(live), rng.choice(live)) for _ in range(rng.randint(0, 2 * n))]
        arcs += [(v, v) for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
        g = DiGraph(n, arcs)
        yield g, set(rng.sample(range(1, n + 1), rng.choice([0, rng.randint(0, n), n])))


def test_mask_search_matches_bruteforce():
    rng = random.Random(8)
    for g, removed in _mask_cases(rng):
        want = _brute_partition(g, removed)
        assert undirected_components(g, removed) == want
        alive = vertex_mask(range(1, g.n + 1)) & ~vertex_mask(removed)
        assert g.vertices_mask == vertex_mask(range(1, g.n + 1))
        # successor masks drop self-loops, as `succ` does
        assert g.succ_mask == [vertex_mask(y for x, y in g.arcs if x == u != y)
                               for u in range(g.n + 1)]
        for comp in want:
            assert members(vertex_mask(comp)) == comp
            r = rng.choice(comp)
            assert grow(g.und_mask, alive, 1 << r) == vertex_mask(comp)
            assert component_containing(g, removed, r) == comp
            # with a cap, the search stops at the first BFS layer that holds
            # more than cap targets, or else returns the whole component
            targets = vertex_mask(rng.sample(comp, rng.randint(0, len(comp))))
            cap = rng.randint(0, len(comp))
            part = grow(g.und_mask, alive, 1 << r, targets, cap)
            assert part & ~vertex_mask(comp) == 0 and part >> r & 1
            assert part == vertex_mask(comp) or (part & targets).bit_count() > cap


def test_members_matches_bit_reference():
    # masks of at most 64 bits are read by bit_length(), denser ones by string
    rng = random.Random(9)
    masks = [0, 1, 1 << 1, 1 << 70_000, 1 << 70_000 | 1 << 3, -1 % (1 << 64), -1 % (1 << 65)]
    for size in (8, 200, 5000):
        for count in (2, 63, 64, 65, 130):
            masks.append(vertex_mask(rng.sample(range(size + count), count)))
    for mask in masks:
        assert members(mask) == tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_bfs_reachable_basic():
    g = DiGraph(3, [(1, 2), (2, 3)])
    assert bfs_reachable(g, 1, 3)
    assert not bfs_reachable(g, 3, 1)
    assert bfs_reachable(g, 2, 2)
    for u, v in ((0, 1), (1, 4)):
        with pytest.raises(ValueError, match="query vertex out of range"):
            bfs_reachable(g, u, v)


def _closure_matrix(g):
    reach = [[u == v or (u, v) in g.arcs for v in range(g.n + 1)] for u in range(g.n + 1)]
    for _ in range(g.n):
        for a in range(1, g.n + 1):
            for b in range(1, g.n + 1):
                if not reach[a][b]:
                    reach[a][b] = any(reach[a][c] and reach[c][b] for c in range(1, g.n + 1))
    return reach


def test_bfs_matches_matrix_closure():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = _random_graph(rng, n)
        closure = _closure_matrix(g)
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                assert bfs_reachable(g, u, v) == closure[u][v]


@given(st.lists(st.integers(min_value=1, max_value=50)))
def test_vset_canonical(xs):
    out = vset(xs)
    assert list(out) == sorted(set(xs))
