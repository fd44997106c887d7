import pytest

from twreach.decomp import validate_td
from twreach.gen import (BENCH_FIELDS, BenchRecord, KTreeSpec, bench,
                         bench_csv, bench_one, bench_query, elimination_td, gen_ktree, gen_path)
from twreach.graph import DiGraph, bfs_reachable
from twreach.sequences import LeafSeq
from twreach.recursive import build_balanced
import random


def test_spec_validation():
    with pytest.raises(ValueError, match="k\\+1"):
        KTreeSpec(n=2, k=2, seed=0)
    with pytest.raises(ValueError, match="probability"):
        KTreeSpec(n=5, k=1, seed=0, arc_probability=1.5)


def test_determinism():
    a = gen_ktree(KTreeSpec(n=30, k=3, seed=12))
    b = gen_ktree(KTreeSpec(n=30, k=3, seed=12))
    assert a[0] == b[0]
    assert a[1].bags == b[1].bags and a[1].edges == b[1].edges
    c = gen_ktree(KTreeSpec(n=30, k=3, seed=13))
    assert c[0] != a[0]


def test_ktree_decomposition_properties():
    for seed in range(15):
        k = 1 + seed % 4
        g, td = gen_ktree(KTreeSpec(n=20, k=k, seed=seed))
        assert td.width() == k
        assert len(td.bags) == g.n - k
        assert validate_td(g, td).ok
        assert td.root == 1


def test_minimal_instance():
    g, td = gen_ktree(KTreeSpec(n=2, k=1, seed=0))
    assert len(td.bags) == 1 and td.bag(1) == (1, 2)


def test_arc_probability_extremes():
    g0, _ = gen_ktree(KTreeSpec(n=12, k=2, seed=5, arc_probability=0.0))
    assert g0.arcs == frozenset()
    g1, _ = gen_ktree(KTreeSpec(n=12, k=2, seed=5, arc_probability=1.0))
    # every undirected edge oriented both ways
    assert all((v, u) in g1.arcs for u, v in g1.arcs)
    assert len(g1.und_edges) == 2 * 10 + 1  # k=2: one base edge triple, 2 per vertex


def test_bench_one_record():
    spec = KTreeSpec(n=12, k=2, seed=3)
    rec = bench_one(spec)
    assert rec.n == 12 and rec.k == 2 and rec.width_input == 2
    assert rec.iterations > 0 and rec.peak_bits > 0 and rec.wall_time >= 0
    # the record is of bench_query's pair
    g, td, u, v = bench_query(spec)
    tree = build_balanced(g, td).augment({u, v})
    assert rec.width_balanced == tree.width()
    assert rec.depth_balanced == tree.depth()
    d = 1 << (g.n - 1).bit_length()
    assert rec.iterations == len(LeafSeq(tree, tree.root, d))


def test_bench_grid_and_csv():
    grid = [(8, 1), (10, 2)]
    records = bench(grid, repetitions=2, seed=5)
    assert len(records) == 4
    assert [(r.n, r.k) for r in records] == [(8, 1), (8, 1), (10, 2), (10, 2)]
    text = bench_csv(records, seed=5, grid=grid)
    lines = text.strip().splitlines()
    assert lines[0] == "c seed=5 grid=8:1;10:2"
    assert lines[1] == ",".join(BENCH_FIELDS)
    assert len(lines) == 2 + 4
    first = lines[2].split(",")
    assert first[0] == "8" and first[1] == "1"
    assert len(first) == len(BENCH_FIELDS)


def test_bench_deterministic_apart_from_time():
    grid = [(9, 2)]
    a = bench(grid, repetitions=1, seed=1)[0]
    b = bench(grid, repetitions=1, seed=1)[0]
    for f in BENCH_FIELDS:
        if f != "wall_time":
            assert getattr(a, f) == getattr(b, f)


def test_gen_path_shape():
    for n in (1, 2, 5, 40):
        g, td = gen_path(n)
        assert g.arcs == {(v, v + 1) for v in range(1, n)}
        assert validate_td(g, td).ok
        assert td.root == 1 and td.width() == min(1, n - 1)
        assert td.depth() == max(n - 2, 0)  # rooted at one end
    with pytest.raises(ValueError, match="at least 1"):
        gen_path(0)


def test_elimination_td_is_valid():
    rng = random.Random(8)
    graphs = [gen_path(30)[0], DiGraph(6, []), DiGraph(9, [(1, 2), (4, 4), (5, 6)])]
    for _ in range(20):
        n = rng.randint(1, 30)
        graphs.append(DiGraph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(n)]))
    for g in graphs:
        td = elimination_td(g)
        assert validate_td(g, td).ok
        assert sorted(td.bags) == list(range(1, g.n + 1))  # one bag per eliminated vertex
    assert elimination_td(gen_path(30)[0]).width() == 1
