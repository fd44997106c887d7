import collections
import copy
import gc
import itertools
import random

import pytest

from twreach import engine
from twreach.decomp import BalancedTD, TreeDecomp, validate_td, write_td
from twreach.engine import (AncestorOrder, ReachReport, _Runner, ancestor_vertices,
                            gad_view, reach, reach_balanced)
from twreach.gen import KTreeSpec, elimination_td, gen_ktree, gen_path
from twreach.graph import DiGraph, bfs_reachable, vertex_mask
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
    return DiGraph(n, arcs), BalancedTD(bags, edges, root=1)


def test_fast_walk_length_and_scopes_match_reference():
    rng = random.Random(8)
    single_child_seen = False
    for _ in range(150):
        g, tree = _random_walk_instance(rng)
        single_child_seen |= any(len(tree.children(x)) == 1 for x in tree.bags)
        runner = _Runner(g, tree)
        leaves = {x for x in tree.bags if not tree.children(x)}
        assert set(runner.scope_mask) == set(runner.scope_size) == leaves
        for f in leaves:
            scope = ancestor_vertices(tree, f).vertices
            assert runner.scope_mask[f] == sum(1 << v for v in scope)
            assert runner.scope_size[f] == len(scope)
        for t in tree.node_ids():
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
    monkeypatch.setattr(engine, "ancestor_vertices", no_parent_map)
    assert reach_balanced(g, tree, 1, 24, report=True) == want


def test_reach_balanced_requires_root_bag():
    g = DiGraph(3, [(1, 2)])
    tree = BalancedTD({1: (1, 2), 2: (2, 3)}, [(1, 2)], root=1)
    with pytest.raises(ValueError, match="root bag"):
        reach_balanced(g, tree, 1, 3)


@pytest.mark.parametrize("bad", ["outside", 0, -1, -70, "above_n", "far_above_n"])
@pytest.mark.parametrize("side", ["u", "v"])
def test_reach_balanced_root_bag_check_on_masks(bad, side):
    # the check reads the root's scope mask; every vertex it cannot hold gives
    # the same error (a negative shift must not surface as its own error)
    g, td = gen_ktree(KTreeSpec(n=64, k=3, seed=7))
    base = build_balanced(g, td)
    tree = base.augment({1, 64})
    outside = min(set(range(2, 64)) - set(base.bag(base.root)))
    x = {"outside": outside, "above_n": 65, "far_above_n": 1000}.get(bad, bad)
    u, v = (x, 64) if side == "u" else (1, x)
    for eng in ("auto", "loop"):
        with pytest.raises(ValueError, match=r"^source and target must appear in the root bag$"):
            reach_balanced(g, tree, u, v, engine=eng)
    assert "bags" not in vars(tree)


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


def test_reach_matches_bfs_off_the_ktree_corpus():
    # shapes the k-tree corpus never builds: unrooted elimination
    # decompositions of random digraphs with self-loops and isolated
    # vertices, and directed paths queried both ways and at u = v
    rng = random.Random(20)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 40)
        live = rng.randint(1, n)  # vertices above `live` are isolated
        arcs = [(rng.randint(1, live), rng.randint(1, live))
                for _ in range(rng.randint(live, 3 * live))]
        g = DiGraph(n, arcs + [(rng.randint(1, n),) * 2])
        td = elimination_td(g)
        cases.append((g, td, rng.randint(1, n), rng.randint(1, n)))
        for u in rng.choices(range(1, live + 1), k=3):  # pairs in one component
            cases.append((g, td, u, rng.choice(next(c for c in g.components if u in c))))
    for n in (1, 2, 7, 30):
        g, td = gen_path(n)
        mid = (n + 1) // 2
        cases += [(g, td, u, v) for u, v in ((1, n), (n, 1), (mid, mid), (mid, n), (n, mid))]
    assert any(len({x for arc in g.arcs for x in arc}) < g.n for g, *_ in cases)  # isolated
    for g, td, u, v in cases:
        assert reach(g, td, u, v)[0] == bfs_reachable(g, u, v), (g, u, v)


def test_reach_on_redundant_bags():
    # 50,000 copies of the bag {1, 2, 3} on a path, rooted at bag 1
    g = DiGraph(3, [(1, 2), (2, 3)])
    td = TreeDecomp(dict.fromkeys(range(1, 50_001), (1, 2, 3)),
                    [(i, i + 1) for i in range(1, 50_000)], root=1)
    assert validate_td(g, td).ok and td.depth() == 49_999
    assert reach(g, td, 1, 3)[0] and not reach(g, td, 3, 1)[0]


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
    assert report.state_entries == 0


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
    assert 0 < r2.state_entries <= r1.state_entries
    with pytest.raises(ValueError, match="unknown engine"):
        reach(g, td, 1, 8, engine="quantum")


def _bench_query(n):
    """The gen.bench_one instance at k=3, seed 7: (graph, decomposition, u, v)."""
    spec = KTreeSpec(n=n, k=3, seed=7)
    g, td = gen_ktree(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    u = rng.randrange(1, n + 1)
    v = rng.randrange(1, n + 1)
    return g, td, u, v


# distinct states the walk interns on the query below, and its memo entries:
# the walk memoizes budgets up to 8 and collapses the rest
_STATE_ENTRIES = {64: 49, 256: 278, 1024: 848}
_MEMO_ENTRIES = {64: 206, 256: 963, 1024: 3707}


@pytest.mark.parametrize("n, want, reference_memo_entries", [
    (64, (True, 3248704, 252592110, 320), 353),
    (256, (False, 3292804608, 277226226976, 446), 2028),
    (1024, (True, 1427311357952, 160666276580458, 625), 9867),
])
def test_bench_query_accounting(n, want, reference_memo_entries):
    # the gen.bench_one query at k=3, seed 7: a walk change that moves the
    # accounting or which blocks are memoized fails here. The uncollapsed
    # walk memoizes every budget up to d, for the same accounting
    g, td, u, v = _bench_query(n)
    _, rep = reach(g, td, u, v)
    assert (rep.reachable, rep.iterations, rep.relax_work, rep.peak_bits) == want
    assert (rep.memo_entries, rep.state_entries) == (_MEMO_ENTRIES[n], _STATE_ENTRIES[n])
    tree = build_balanced(g, td).augment({u, v})
    ref = _reference_walk(g, tree, tree.root, rep.d, 1 << u)
    assert (ref[1], ref[2], ref[3]) == (rep.iterations, rep.relax_work, reference_memo_entries)


@pytest.mark.parametrize("n, calls", [(64, 118), (256, 624), (1024, 2156)])
def test_walk_steps_each_pair_once(n, calls):
    # the walk looks the step cache up itself and calls step only on a miss,
    # so on a fresh runner each (leaf, state) pair is computed exactly once
    g, td, u, v = _bench_query(n)
    tree = build_balanced(g, td).augment({u, v})
    runner = _Runner(g, tree)
    seen = []
    plain = runner.step
    runner.step = lambda f, i: seen.append((f, i)) or plain(f, i)
    runner.run_fast(tree.root, 1 << (n - 1).bit_length(), 1 << u)
    assert len(seen) == len(set(seen)) == _step_entries(runner) == calls


def test_walk_interns_each_state_once():
    # the walks hold states as indices into runner.masks: each mask once,
    # with its popcount, and the memo and the step cache hold indices only
    for n, seed in ((64, 7), (256, 7), (90, 3)):
        g, td = gen_ktree(KTreeSpec(n=n, k=3, seed=seed))
        tree = build_balanced(g, td).augment({1, n})
        d = 1 << (n - 1).bit_length()
        leaf = LeafSeq(tree, tree.root, d).element(1)
        scope = _Runner(g, tree).scope_mask[leaf]
        # the first leaf's whole scope is a fixed point of the first step, so
        # that step builds a mask equal to its (separately built) entry state
        for initial in (1 << 1, (scope << 1) >> 1):
            runner = _Runner(g, tree)
            runner.run_fast(tree.root, d, initial)
            masks = runner.masks
            assert runner.memo and len(set(masks)) == len(masks)
            assert runner.pops == [m.bit_count() for m in masks]
            held = [s for (_, _, s), (s2, _) in runner.memo.items() for s in (s, s2)]
            held += [s for tab in runner.steps.values() for p, s in tab.items() for s in (p, s)]
            assert all(type(s) is int and 0 <= s < len(masks) for s in held)
            held_states = len(masks)
            i = runner.state(initial)
            assert masks[i] == initial and len(masks) == held_states
            if initial != 1 << 1:
                assert runner.steps[leaf][i] == i


def test_walk_follows_leafseq_parts(monkeypatch):
    # with LeafSeq.parts reversing the children both walks change together,
    # so the memoized walk keeps no copy of the interleave rule of its own.
    # A tree keeps its walk plan, so the patched side balances fresh trees
    def instances():
        for seed in range(10):
            g, td = gen_ktree(KTreeSpec(n=12, k=2, seed=seed))
            tree = build_balanced(g, td)
            d = 1 << (g.n - 1).bit_length()
            yield _Runner(g, tree), tree.root, d, 1 << (1 + seed % g.n)

    plain = [runner.run_fast(*query) for runner, *query in instances()]
    original = LeafSeq.parts
    monkeypatch.setattr(LeafSeq, "parts", lambda self, t, d: original(self, t, d)[::-1])
    fast, loop = zip(*[(runner.run_fast(*query), runner.run_loop(*query))
                       for runner, *query in instances()])
    assert list(fast) == list(loop) != plain


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
    original = LeafSeq.parts
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(LeafSeq, "parts",
                                lambda self, t, d: original(self, t, d)[::-1])
        # built after the patch, as a tree keeps the walk plan it first builds
        instances = list(_first_leaf_instances())
        assert any(len(tree.children(x)) == 1 for _, tree in instances for x in tree.bags)
        for g, tree in instances:
            runner = _Runner(g, tree)
            for t in tree.node_ids():
                for d in (1, 2, 4, 8, 16):
                    assert _walk_first_leaf(runner, t, d) == \
                        LeafSeq(tree, t, d).element(1), (patch, t, d)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_walk_closes_each_state_once(n):
    # a state's successor closure is computed on its first step-cache miss
    # and kept: once per distinct state stepped from, never per (leaf, state)
    g, td, u, v = _bench_query(n)
    tree = build_balanced(g, td).augment({u, v})
    runner = _Runner(g, tree)
    closed = []
    plain = runner.close
    runner.close = lambda i: closed.append(i) or plain(i)
    runner.run_fast(tree.root, 1 << (n - 1).bit_length(), 1 << u)
    stepped_from = {i for tab in runner.steps.values() for i in tab}
    assert len(closed) == len(set(closed)) == len(stepped_from) < _step_entries(runner)
    assert set(closed) == stepped_from
    for i in stepped_from:
        mask = runner.masks[i]
        want = mask | vertex_mask(y for x, y in g.arcs if x != y and mask >> x & 1)
        assert runner.closures[i] == want


def test_runner_scopes_are_the_leaves_root_paths():
    # the plan holds each leaf's root-path mask without added vertices, and
    # the runner's tables hold the leaves only: each mask is the root-path
    # bags of the (augmented) tree. This holds with the plan built on the
    # base before the first augment or on a copy after it, added vertices
    # inside or outside the covered range, and on a copy of a copy
    rng = random.Random(21)
    instances = [_random_walk_instance(rng) for _ in range(60)]
    for seed in range(6):
        g, td = gen_ktree(KTreeSpec(n=20 + 10 * seed, k=1 + seed % 3, seed=seed))
        instances.append((g, build_balanced(g, td)))

    def scopes(tree):
        return {x: vertex_mask(ancestor_vertices(tree, x).vertices)
                for x in tree.bags if not tree.children(x)}

    for g, base in instances:
        covered = sorted({v for b in base.bags.values() for v in b})
        top = max(covered, default=0)
        sets = [set(), set(rng.sample(covered, min(2, len(covered)))),
                {top + 1, top + rng.randint(2, 5)}]
        want = scopes(base)
        for s in sets:
            for planned_first in (False, True):
                tree = copy.copy(base)
                tree.__dict__.pop("walk_plan", None)
                if planned_first:
                    aug = tree.augment(s)
                else:  # the copy builds its own plan, over the shared bag masks
                    aug = TreeDecomp.augment(tree, s)
                    assert "walk_plan" not in vars(tree) and "walk_plan" not in vars(aug)
                twice = aug.augment(rng.choice(sets))
                for t in (tree, aug, twice):
                    runner, got = _Runner(g, t), scopes(t)
                    assert t.walk_plan[2] == want and runner.scope_mask == got
                    assert runner.scope_size == {f: m.bit_count() for f, m in got.items()}


def test_augment_copy_is_the_eager_union():
    # an augment copy builds its bags only when read; they, its width(), its
    # .td text and its rooting are the eager union's, also when augmented
    # twice, and the base is unchanged. A query on the copy builds no bag and
    # reports what the same query on the eager union reports
    rng = random.Random(17)
    instances = [_random_walk_instance(rng) for _ in range(60)]
    for seed in range(6):
        g, td = gen_ktree(KTreeSpec(n=20 + 10 * seed, k=1 + seed % 3, seed=seed))
        instances.append((g, build_balanced(g, td)))
    for g, base in instances:
        edges = [tuple(e) for e in base.edges]
        before = (dict(base.bags), write_td(base), base.width(), copy.deepcopy(base.walk_plan))
        covered = sorted({v for b in base.bags.values() for v in b})
        top = max(covered, default=0)
        for s in (set(), set(rng.sample(covered, min(2, len(covered)))),
                  {top + 1, top + rng.randint(2, 5)}):
            eager = BalancedTD({i: set(b) | s for i, b in base.bags.items()}, edges, base.root)
            first = set(sorted(s)[:1])
            for aug in (base.augment(s), base.augment(first).augment(s - first)):
                assert aug.width() == eager.width() and "bags" not in vars(aug)
                assert aug.bags == eager.bags and aug.width() == eager.width()
                assert write_td(aug) == write_td(eager)
                assert aug.rooting == eager.rooting
        u, v = rng.randint(1, g.n), rng.randint(1, g.n)
        eager = BalancedTD({i: set(b) | {u, v} for i, b in base.bags.items()}, edges, base.root)
        aug = base.augment({u, v})
        for eng in ("auto", "loop") if g.n <= 8 else ("auto",):  # the literal walk on small trees
            assert reach_balanced(g, aug, u, v, engine=eng, report=True) == \
                reach_balanced(g, eager, u, v, engine=eng, report=True)
        assert "bags" not in vars(aug)
        assert (base.bags, write_td(base), base.width(), base.walk_plan) == before


def test_walk_reads_each_plan_once(monkeypatch):
    # the first query on a fresh base, through an augment copy, reads each
    # inner node's parts once per budget class (1 and 2) and never a leaf's,
    # and leaves the plan on the base; a query on another copy then reads
    # parts zero times, and no query builds its copy's bags
    g, td, u, v = _bench_query(256)
    queries = [(u, v), (v, u), (1, g.n)]
    want = [reach_balanced(g, build_balanced(g, td).augment({a, b}), a, b, report=True)
            for a, b in queries]
    calls = collections.Counter()
    original = LeafSeq.parts
    monkeypatch.setattr(LeafSeq, "parts",
                        lambda self, t, d: calls.update([(t, min(d, 2))]) or original(self, t, d))
    base = build_balanced(g, td)
    inner = {x for x in base.bags if base.children(x)}
    for k, (a, b) in enumerate(queries):
        tree = base.augment({a, b})
        assert reach_balanced(g, tree, a, b, report=True) == want[k]
        assert calls == (collections.Counter({(x, c): 1 for x in inner for c in (1, 2)})
                         if k == 0 else collections.Counter())
        assert "walk_plan" in vars(base) and "bags" not in vars(tree)
        calls.clear()


def _step_entries(runner):
    return sum(map(len, runner.steps.values()))


def _reference_walk(g, tree, t, d, initial):
    """The block-memoized walk without the budget collapse: every block
    (node, budget, state) up to budget d is walked and memoized. Returns
    (final mask, iterations, work, memo entries, its runner)."""
    runner = _Runner(g, tree)
    size, pops, step, steps = runner.scope_size, runner.pops, runner.step, runner.steps
    plans, first, _ = tree.walk_plan
    plans = {**plans, None: ([(t, first[t], tree.ordered_children[t])],) * 2}
    memo = {}

    def walk(t, c, i):
        half = c >> 1
        work = 0
        length = -1
        for sub, f, inner in plans[t][c > 1]:
            b = half if sub == t else c
            if length >= 0:
                work += pops[i] * size[f]
                j = steps[f].get(i)
                i = step(f, i) if j is None else j
            if inner:
                hit = memo.get((sub, b, i))
                if hit is None:
                    hit = memo[sub, b, i] = walk(sub, b, i)
                i, w, n = hit
                work += w
                length += n + 1
                continue
            scope = size[sub]
            k = 0
            for k in range(1, b):
                j = steps[sub].get(i)
                j = step(sub, i) if j is None else j
                work += pops[i] * scope
                if j == i:
                    break
                i = j
            work += (b - 1 - k) * pops[i] * scope
            length += b
        return i, work, length

    f = first[t]
    i0 = runner.state(initial)
    i, work, length = walk(None, d, step(f, i0))
    return runner.masks[i], length + 1, work + pops[i0] * size[f], len(memo), runner


def _assert_walk_matches_reference(g, tree, t, d, initial):
    """run_fast against the uncollapsed walk: the same answer and accounting,
    the same steps and states (interned in the same order), and no more memo
    entries. Returns the walk's runner."""
    mask, iters, work, memo_entries, ref = _reference_walk(g, tree, t, d, initial)
    runner = _Runner(g, tree)
    assert runner.run_fast(t, d, initial) == (mask, iters, work), (t, d, initial)
    assert len(runner.memo) <= memo_entries
    assert runner.steps == ref.steps and runner.masks == ref.masks
    return runner


def _memo_budgets(runner):
    return {b for _, b, _ in runner.memo}


def test_collapsed_walk_matches_reference_on_shapes():
    # random k-trees, directed paths, elimination decompositions of random
    # digraphs, and augment copies (of a copy too), queried from the root at
    # the query budget and from inner nodes at other budgets
    rng = random.Random(22)
    cases = []
    for seed in range(12):
        n = rng.randint(8, 90)
        g, td = gen_ktree(KTreeSpec(n=n, k=1 + seed % 4, seed=seed,
                                    arc_probability=rng.choice((0.2, 0.5, 0.8))))
        cases.append((g, build_balanced(g, td)))
    for n in (3, 16, 40):
        cases.append((gen_path(n)[0], build_balanced(*gen_path(n))))
    for _ in range(8):
        n = rng.randint(4, 40)
        g = DiGraph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)])
        cases.append((g, build_balanced(g, elimination_td(g))))
    collapsed = 0
    for g, base in cases:
        for _ in range(3):
            u, v = rng.randint(1, g.n), rng.randint(1, g.n)
            tree = base.augment({u, v})
            if rng.random() < 0.5:
                tree = tree.augment({rng.randint(1, g.n)})
            for d in (1 << max(g.n - 1, 0).bit_length(), 1 << 10):
                runner = _assert_walk_matches_reference(g, tree, tree.root, d, 1 << u)
            collapsed += max(_memo_budgets(runner), default=d) < d
        inner = [x for x in base.preorder if base.children(x)]
        for t in rng.sample(inner, min(3, len(inner))):
            for d in (8, 64, 1024):
                _assert_walk_matches_reference(g, base, t, d, 1 << rng.randint(1, g.n))
    assert collapsed >= 2 * len(cases)  # most of the 3 queries per case stop below 2^10


def test_collapsed_walk_matches_reference_at_huge_budgets():
    # tiny trees (random shapes and bags, no valid decomposition needed) at
    # budgets up to 2^24: the recurrences carry works and lengths of that size
    rng = random.Random(24)
    instances = [_random_walk_instance(rng) for _ in range(40)]
    for seed in range(4):
        g, td = gen_ktree(KTreeSpec(n=6 + seed, k=1 + seed % 2, seed=seed))
        instances.append((g, build_balanced(g, td)))
    for g, tree in instances:
        for t in tree.node_ids():
            for d in (2, 8, 1 << 12, 1 << 24):
                initial = vertex_mask(rng.sample(range(1, g.n + 1), rng.randint(1, min(3, g.n))))
                _assert_walk_matches_reference(g, tree, t, d, initial)


def test_collapse_waits_for_a_slow_leaf():
    # leaf 2's bag holds the directed path 1 -> ... -> 40, and each visit to
    # leaf 3 (scope {1}) resets the marks to {1}, so leaf 2 settles only after
    # about 40 steps at every visit: budget h is stable only once h - 1 steps
    # reach that far (h >= 64), and then the memo stops at budget 2h
    g = DiGraph(40, [(v, v + 1) for v in range(1, 40)])
    tree = BalancedTD({1: (1,), 2: tuple(range(1, 41)), 3: (1,)}, [(1, 2), (1, 3)], root=1)
    for d in (16, 64, 128):  # no stable budget h with 2h < d
        runner = _assert_walk_matches_reference(g, tree, 1, d, 1 << 1)
        assert max(_memo_budgets(runner)) == d
    for d in (1 << 10, 1 << 16):
        runner = _assert_walk_matches_reference(g, tree, 1, d, 1 << 1)
        assert 128 <= max(_memo_budgets(runner)) < d
    # the same leaf below a deeper tree, entered from other states too
    g = DiGraph(42, [(v, v + 1) for v in range(1, 40)] + [(41, 1), (40, 42)])
    tree = BalancedTD({1: (41,), 2: (1, 41), 3: tuple(range(1, 41)), 4: (1, 41),
                       5: (40, 41, 42), 6: (41, 42)},
                      [(1, 2), (1, 5), (2, 3), (2, 4), (5, 6)], root=1)
    for d in (8, 128, 1 << 12, 1 << 20):
        for initial in (1 << 41, 1 << 1, 1 << 42):
            _assert_walk_matches_reference(g, tree, 1, d, initial)
    for d in (0, 3, 12):  # the budgets climb by doubling, so d must be a power of 2
        with pytest.raises(ValueError, match="power of 2"):
            _Runner(g, tree).run_fast(1, d, 1 << 1)


def test_reach_where_vertices_sit_in_one_bag():
    # ROADMAP item 4: a path of bags {i, i+1} where each bag also holds three
    # vertices of its own, with random arcs inside each bag, so most vertices
    # occur in exactly one bag
    rng = random.Random(41)
    spine, own = 30, 3
    bags, arcs, nxt = {}, [], spine + 2
    for i in range(1, spine + 1):
        bag = [i, i + 1, *range(nxt, nxt + own)]
        nxt += own
        bags[i] = bag
        arcs += [tuple(rng.sample(bag, 2)) for _ in range(6)]
    g = DiGraph(nxt - 1, arcs)
    td = TreeDecomp(bags, [(i, i + 1) for i in range(1, spine)], root=1)
    once = collections.Counter(v for b in bags.values() for v in b)
    assert validate_td(g, td).ok and sum(c == 1 for c in once.values()) > g.n // 2
    pairs = [(rng.randint(1, g.n), rng.randint(1, g.n)) for _ in range(12)]
    pairs += [(1, g.n), (g.n, 1), (spine + 2, spine + 1)]
    for u, v in pairs:
        assert reach(g, td, u, v)[0] == bfs_reachable(g, u, v), (u, v)


def test_reach_on_a_ktree_among_isolated_vertices():
    # ROADMAP item 4: a k=3 k-tree on vertices 1..40 plus 3,000 isolated
    # vertices, each in a one-vertex bag hung below the k-tree's root:
    # 3,001 components
    g0, td0 = gen_ktree(KTreeSpec(n=40, k=3, seed=5))
    n = 3040
    g = DiGraph(n, list(g0.arcs))
    bags = {x: td0.bag(x) for x in td0.node_ids()}
    top = max(bags)
    bags.update({top + v - 40: (v,) for v in range(41, n + 1)})
    edges = [tuple(e) for e in td0.edges] + [(td0.root, x) for x in range(top + 1, top + n - 39)]
    td = TreeDecomp(bags, edges, root=td0.root)
    assert validate_td(g, td).ok and len(g.components) == 3001
    rng = random.Random(6)
    pairs = [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(3)]
    pairs += [(1, n), (n, 2), (41, 41), (n - 1, n)]
    for u, v in pairs:
        assert reach(g, td, u, v)[0] == bfs_reachable(g, u, v), (u, v)
