import gc
import itertools
import random

import pytest

from twreach.decomp import BalancedTD, TreeDecomp
from twreach.engine import (AncestorOrder, MarkVector, MeterError, ReachReport,
                            SpaceMeter, _Runner, ancestor_vertices, gad_view,
                            pos, reach, reach_balanced)
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import DiGraph, bfs_reachable
from twreach.recursive import build_balanced
from twreach.sequences import LeafSeq


def test_meter_accounting():
    m = SpaceMeter()
    m.register("a", 10)
    m.register("b", 5)
    assert m.current_bits == 15 and m.peak_bits == 15
    m.release("a")
    assert m.current_bits == 5 and m.peak_bits == 15
    m.register("c", 7)
    assert m.current_bits == 12 and m.peak_bits == 15


def test_meter_errors():
    m = SpaceMeter()
    m.register("a", 1)
    with pytest.raises(MeterError, match="already registered"):
        m.register("a", 1)
    with pytest.raises(MeterError, match="unknown"):
        m.release("b")
    with pytest.raises(MeterError, match="non-negative"):
        m.register("c", -1)


def _tree():
    # root {1,2} -> ({2,3} -> {3,4}, {2,5})
    return BalancedTD({1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (2, 5)},
                      [(1, 2), (2, 3), (1, 4)], root=1)


def test_ancestor_vertices():
    tree = _tree()
    assert ancestor_vertices(tree, 3) == AncestorOrder(3, (1, 2, 3, 4))
    assert ancestor_vertices(tree, 4) == AncestorOrder(4, (1, 2, 5))
    assert ancestor_vertices(tree, 1) == AncestorOrder(1, (1, 2))
    with pytest.raises(ValueError, match="unknown"):
        ancestor_vertices(tree, 9)


def test_pos_and_markvector():
    order = AncestorOrder(3, (1, 2, 3, 4))
    assert [pos(order, v) for v in (1, 2, 3, 4)] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="not in the scope"):
        pos(order, 5)
    vec = MarkVector(4, order)
    vec.mark(3)
    vec.mark(1)
    assert vec.is_marked(3) and not vec.is_marked(2)
    assert vec.marked_vertices() == (1, 3)
    vec.rebind(AncestorOrder(4, (1, 2, 5)))
    assert vec.bits == 0
    with pytest.raises(ValueError, match="capacity"):
        MarkVector(1).rebind(order)


def test_gad_view():
    g = DiGraph(5, [(1, 2), (2, 3), (3, 4), (2, 5), (5, 1)])
    tree = _tree()
    view = gad_view(g, tree, 2)
    # ancestors-or-self {1,2} plus descendant {3}: vertices 1..4
    assert view.vertices == (1, 2, 3, 4)
    # (2,5) and (5,1) have no co-resident bag in that scope
    assert view.arcs == {(1, 2), (2, 3), (3, 4)}
    full = gad_view(g, tree, 1)
    assert full.vertices == (1, 2, 3, 4, 5)
    assert full.arcs == {(1, 2), (2, 3), (3, 4), (2, 5)}  # (5,1) covered nowhere


def _closure_within(view, initial, d):
    """Vertices reachable from `initial` by <= d arcs of the view."""
    cur = set(initial)
    for _ in range(d):
        cur |= {y for (x, y) in view.arcs if x in cur}
    return cur


def test_loop_marks_dominate_bounded_paths():
    # soundness/completeness split of the block invariant: after a full
    # schedule the marks cover every d-bounded path target and never leave
    # the reachable set
    rng = random.Random(3)
    for seed in range(12):
        g, td = gen_ktree(KTreeSpec(n=10, k=2, seed=seed))
        tree = build_balanced(g, td)
        runner = _Runner(g, tree)
        for t in tree.node_ids():
            va = ancestor_vertices(tree, t)
            if not va.vertices or len(va.vertices) > 6:
                continue
            view = gad_view(g, tree, t)
            for d in (1, 2):
                for r in range(3):
                    initial = rng.sample(va.vertices, rng.randint(1, len(va.vertices)))
                    mask = 0
                    for v in initial:
                        mask |= 1 << v
                    state, _, _ = runner.run_fast(t, d, mask)
                    marked = {v for v in range(1, g.n + 1) if state >> v & 1}
                    lower = _closure_within(view, initial, d) & set(va.vertices)
                    upper = _closure_within(view, initial, g.n)
                    assert lower <= (marked | set(initial))
                    assert marked & set(va.vertices) <= upper


def test_engines_agree():
    for seed in range(25):
        g, td = gen_ktree(KTreeSpec(n=12, k=2, seed=seed))
        tree = build_balanced(g, td)
        runner = _Runner(g, tree)
        d = 1 << max(g.n - 1, 0).bit_length()
        for u in (1, 5, 9):
            a = runner.run_loop(tree.root, d, 1 << u)
            b = runner.run_fast(tree.root, d, 1 << u)
            assert a == b


def test_reach_balanced_requires_root_bag():
    g = DiGraph(3, [(1, 2)])
    tree = BalancedTD({1: (1, 2), 2: (2, 3)}, [(1, 2)], root=1)
    with pytest.raises(ValueError, match="root bag"):
        reach_balanced(g, tree, 1, 3)


def test_reach_balanced_meter_released():
    g, td = gen_ktree(KTreeSpec(n=8, k=1, seed=0))
    tree = build_balanced(g, td).augment({1, 8})
    meter = SpaceMeter()
    ok = reach_balanced(g, tree, 1, 8, meter=meter)
    assert ok == bfs_reachable(g, 1, 8)
    assert meter.current_bits == 0
    assert meter.peak_bits >= 3 * (tree.width() + 1) * (tree.depth() + 1)


def test_reach_matches_bfs_small_corpus():
    for seed in range(40):
        k = 1 + seed % 3
        g, td = gen_ktree(KTreeSpec(n=9 + seed % 6, k=k, seed=seed))
        rng = random.Random(seed)
        u = rng.randrange(1, g.n + 1)
        v = rng.randrange(1, g.n + 1)
        ok, report = reach(g, td, u, v)
        assert ok == bfs_reachable(g, u, v), (seed, u, v)
        assert report.engine in ("loop", "fast", "short-circuit")


def test_reach_self():
    g, td = gen_ktree(KTreeSpec(n=6, k=1, seed=4))
    ok, _ = reach(g, td, 3, 3)
    assert ok


def test_reach_short_circuit_components():
    g = DiGraph(4, [(1, 2), (3, 4)])
    td = TreeDecomp({1: (1, 2), 2: (3, 4)}, [(1, 2)], root=1)
    ok, report = reach(g, td, 1, 4)
    assert not ok
    assert report.engine == "short-circuit"
    assert report.iterations == 0 and report.peak_bits == 0


def test_reach_rejects_invalid_td():
    g = DiGraph(3, [(1, 2), (2, 3)])
    bad = TreeDecomp({1: (1, 2)}, [], root=1)
    with pytest.raises(ValueError, match="invalid decomposition"):
        reach(g, bad, 1, 3)
    good = TreeDecomp({1: (1, 2), 2: (2, 3)}, [(1, 2)], root=1)
    with pytest.raises(ValueError, match="out of range"):
        reach(g, good, 0, 3)


def test_report_iterations_match_schedule():
    g, td = gen_ktree(KTreeSpec(n=10, k=2, seed=0))
    ok, report = reach(g, td, 1, 10)
    tree = build_balanced(g, td).augment({1, 10})
    assert report.iterations == len(LeafSeq(tree, tree.root, report.d))
    cap = (report.width_balanced + 1) * (report.depth_balanced + 1)
    assert report.relax_work <= report.iterations * cap * cap


def test_walks_leave_no_cyclic_garbage():
    g, td = gen_ktree(KTreeSpec(n=48, k=3, seed=1))
    gc.collect()
    gc.disable()
    try:
        build_balanced(g, td)
        assert gc.collect() == 0
        for engine in ("auto", "fast", "loop"):
            reach(g, td, 1, 48, engine=engine)
            assert gc.collect() == 0, engine
    finally:
        gc.enable()


def test_engine_selection():
    g, td = gen_ktree(KTreeSpec(n=10, k=2, seed=3))
    ok1, r1 = reach(g, td, 1, 8, engine="loop")
    ok2, r2 = reach(g, td, 1, 8, engine="fast")
    assert (ok1, r1.iterations, r1.relax_work, r1.peak_bits) == \
        (ok2, r2.iterations, r2.relax_work, r2.peak_bits)
    with pytest.raises(ValueError, match="unknown engine"):
        reach(g, td, 1, 8, engine="quantum")
