import gc
import itertools
import random

import pytest

from twreach import engine
from twreach.decomp import BalancedTD, TreeDecomp
from twreach.engine import (AncestorOrder, ReachReport, _Runner, ancestor_vertices,
                            gad_view, reach, reach_balanced)
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import DiGraph, bfs_reachable
from twreach.recursive import build_balanced
from twreach.sequences import LeafSeq


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


def _random_walk_instance(rng):
    """Random digraph with a random BalancedTD over it: nodes may have 0, 1 or
    2 children, and bags are random vertex subsets (the walk needs no valid
    decomposition to be deterministic)."""
    n = rng.randint(1, 8)
    kids = {1: []}
    edges = []
    for x in range(2, rng.randint(1, 9) + 1):
        parent = rng.choice([y for y in kids if len(kids[y]) < 2])
        kids[parent].append(x)
        kids[x] = []
        edges.append((parent, x))
    bags = {x: rng.sample(range(1, n + 1), rng.randint(0, min(3, n))) for x in kids}
    arcs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))]
    return DiGraph(n, arcs), BalancedTD(bags, edges, root=1, ordered_children=kids)


def test_fast_walk_length_and_scopes_match_reference():
    rng = random.Random(8)
    single_child_seen = False
    for _ in range(150):
        g, tree = _random_walk_instance(rng)
        single_child_seen |= any(len(tree.children(x)) == 1 for x in tree.bags)
        runner = _Runner(g, tree)
        for t in tree.node_ids():
            scope = ancestor_vertices(tree, t).vertices
            assert runner.scope_mask[t] == sum(1 << v for v in scope)
            assert runner.scope_size[t] == len(scope)
            for d in (1, 2, 4, 8):
                initial = sum(1 << v for v in rng.sample(range(1, g.n + 1), rng.randint(1, min(3, g.n))))
                fast = runner.run_fast(t, d, initial)
                assert fast[1] == len(LeafSeq(tree, t, d))
                assert fast == runner.run_loop(t, d, initial)
    assert single_child_seen


def test_reach_balanced_makes_no_length_pass(monkeypatch):
    g, td = gen_ktree(KTreeSpec(n=24, k=2, seed=2))
    tree = build_balanced(g, td).augment({1, 24})
    d = 1 << (g.n - 1).bit_length()
    expected = len(LeafSeq(tree, tree.root, d))

    def no_length_pass(*args):
        raise AssertionError("LeafSeq.block_length called")
    monkeypatch.setattr(LeafSeq, "block_length", no_length_pass)
    for eng in ("auto", "loop"):
        rep = reach_balanced(g, tree, 1, 24, engine=eng, report=True)
        assert rep.iterations == expected


def test_reach_balanced_builds_no_parent_map(monkeypatch):
    g, td = gen_ktree(KTreeSpec(n=24, k=2, seed=2))
    tree = build_balanced(g, td).augment({1, 24})
    want = reach_balanced(g, tree, 1, 24, report=True)

    def no_parent_map(*args):
        raise AssertionError("parent map rebuilt")
    monkeypatch.setattr(TreeDecomp, "parent_map", no_parent_map)
    monkeypatch.setattr(BalancedTD, "parent_map", no_parent_map)
    monkeypatch.setattr(engine, "ancestor_vertices", no_parent_map)
    assert reach_balanced(g, tree, 1, 24, report=True) == want


def test_reach_balanced_requires_root_bag():
    g = DiGraph(3, [(1, 2)])
    tree = BalancedTD({1: (1, 2), 2: (2, 3)}, [(1, 2)], root=1)
    with pytest.raises(ValueError, match="root bag"):
        reach_balanced(g, tree, 1, 3)


def test_reach_balanced_peak_bits_covers_vectors():
    # two marking vectors and the scope scratch, (width+1)(depth+1) bits each
    g, td = gen_ktree(KTreeSpec(n=8, k=1, seed=0))
    tree = build_balanced(g, td).augment({1, 8})
    rep = reach_balanced(g, tree, 1, 8, report=True)
    assert rep.reachable == bfs_reachable(g, 1, 8)
    assert rep.peak_bits >= 3 * (tree.width() + 1) * (tree.depth() + 1)


def test_runners_share_the_graph_successor_masks():
    # the first walk fills the graph's cached masks; later queries reuse them
    g, td = gen_ktree(KTreeSpec(n=24, k=2, seed=3))
    balanced = build_balanced(g, td)
    assert "succ_mask" not in vars(g)
    masks = None
    for u, v in ((1, 2), (3, 4), (5, 1)):
        ok = reach_balanced(g, balanced.augment({u, v}), u, v)
        assert ok == bfs_reachable(g, u, v)
        masks = masks or vars(g)["succ_mask"]
        assert vars(g)["succ_mask"] is masks


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
    assert report.iterations == 0 and report.peak_bits == 0 and report.memo_entries == 0


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
    assert r1.memo_entries == 0 < r2.memo_entries
    assert not hasattr(r1, "__dict__")  # reports keep their fields in slots
    # the memoized walk steps only at (leaf, state) pairs the literal walk meets
    assert 0 < r2.step_entries <= r1.step_entries
    with pytest.raises(ValueError, match="unknown engine"):
        reach(g, td, 1, 8, engine="quantum")


@pytest.mark.parametrize("n, want, memo_entries", [
    (64, (True, 3248704, 252592110, 320), 353),
    (256, (False, 3292804608, 277226226976, 446), 2028),
    (1024, (True, 1427311357952, 160666276580458, 625), 9867),
])
def test_bench_query_accounting(n, want, memo_entries):
    # the gen.bench_one query at k=3, seed 7: a walk change that moves the
    # accounting or which blocks are memoized fails here
    spec = KTreeSpec(n=n, k=3, seed=7)
    g, td = gen_ktree(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    u = rng.randrange(1, n + 1)
    v = rng.randrange(1, n + 1)
    _, rep = reach(g, td, u, v)
    assert (rep.reachable, rep.iterations, rep.relax_work, rep.peak_bits) == want
    assert rep.memo_entries == memo_entries


def test_walk_holds_one_object_per_state():
    # the memo and the step cache share each state value instead of holding
    # a fresh int per step-cache miss
    for n, seed in ((64, 7), (256, 7), (90, 3)):
        g, td = gen_ktree(KTreeSpec(n=n, k=3, seed=seed))
        tree = build_balanced(g, td).augment({1, n})
        d = 1 << (n - 1).bit_length()
        scope = _Runner(g, tree).scope_mask[LeafSeq(tree, tree.root, d).element(1)]
        # the first leaf's whole scope is a fixed point of the first step, so
        # that step's result equals its (separately built) entry state
        for initial in (1 << 1, (scope << 1) >> 1):
            runner = _Runner(g, tree)
            runner.run_fast(tree.root, d, initial)
            held = [s for (_, _, s), (s2, _, _) in runner.memo.items() for s in (s, s2)]
            held += [s for (_, p), s in runner._step_cache.items() for s in (p, s)]
            assert runner.memo and len(set(held)) < len(held)
            first = {}
            assert all(first.setdefault(s, s) is s for s in held)


def test_walk_follows_leafseq_parts(monkeypatch):
    # with LeafSeq.parts reversing the children both walks change together,
    # so the memoized walk keeps no copy of the interleave rule of its own
    instances = []
    for seed in range(10):
        g, td = gen_ktree(KTreeSpec(n=12, k=2, seed=seed))
        tree = build_balanced(g, td)
        d = 1 << (g.n - 1).bit_length()
        instances.append((_Runner(g, tree), tree.root, d, 1 << (1 + seed % g.n)))
    plain = [runner.run_fast(*query) for runner, *query in instances]
    original = LeafSeq.parts
    monkeypatch.setattr(LeafSeq, "parts", lambda self, t, d: original(self, t, d)[::-1])
    patched = [runner.run_fast(*query) for runner, *query in instances]
    assert patched == [runner.run_loop(*query) for runner, *query in instances]
    assert patched != plain


def _first_leaf_instances():
    for seed in range(6):
        g, td = gen_ktree(KTreeSpec(n=12, k=1 + seed % 3, seed=seed))
        yield g, build_balanced(g, td)
    rng = random.Random(3)
    for _ in range(40):
        yield _random_walk_instance(rng)


def _walk_first_leaf(runner, t, d):
    # run_fast takes the first step of block (t, d) before anything else
    stepped = []
    plain = runner.step
    runner.step = lambda f, prev: stepped.append(f) or plain(f, prev)
    try:
        runner.run_fast(t, d, 1 << runner.g.n)
    finally:
        del runner.step
    return stepped[0]


def test_walk_first_leaf_is_schedule_start(monkeypatch):
    instances = list(_first_leaf_instances())
    assert any(len(tree.children(x)) == 1 for _, tree in instances for x in tree.bags)
    original = LeafSeq.parts
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(LeafSeq, "parts",
                                lambda self, t, d: original(self, t, d)[::-1])
        for g, tree in instances:
            runner = _Runner(g, tree)
            for t in tree.node_ids():
                for d in (1, 2, 4, 8, 16):
                    assert _walk_first_leaf(runner, t, d) == \
                        LeafSeq(tree, t, d).element(1), (patch, t, d)
