"""Balanced vertex separators of a target set, found among decomposition bags.

A set S is a balanced separator of U when every component of the graph minus S
holds at most |U|/2 members of U. For any valid decomposition some bag
qualifies, and its size is bounded by width+1. Comparisons use exact integer
arithmetic (2*count <= |U|). Both `sep` and `is_balanced_separator` take U
as an iterable of vertices or as their mask and decode it with
`graph.checked_mask`, so a target outside 1..n (bit 0, a bit above n or a
negative mask too) raises the same ValueError before any search.

`sep` returns the first bag in ascending node id that balanced-separates U;
the recursive decomposition is defined by that choice. It requires a valid
decomposition of the graph (`decomp.validate_td`) and finds that bag with
almost no graph search, by three facts about the branches of T minus a node
x (the components of the tree once x is removed):

1. Every component of G - B(x) lies inside one branch of T - x, because a
   vertex outside B(x) occurs in one branch only and every edge is covered.
   With T rooted at its root, or at its smallest id when it has none
   (`TreeDecomp.rooting`), and top(v) the first preorder bag holding v, the
   branch through child c holds the targets with top(v) inside subtree(c),
   and the parent branch holds the rest of U \\ B(x). If no branch holds
   more than |U|/2 targets, x qualifies with no search. At most one branch
   can, and then a search from the targets in that branch alone decides x.
2. If x is rejected, its heavy component C lies in the branch toward some
   neighbour y. Every bag z outside that branch misses C, so C stays inside
   one component of G - B(z) and z is rejected too. The scan therefore keeps
   to the heavy branches of all rejections so far: a subtree, minus the
   subtrees cut off when the heavy branch led to a parent, all as preorder
   intervals.
3. If U is connected in G and every target lies in some bag, the bags that
   meet U form one subtree of T (each target's bags do, and the ends of an
   edge share a bag). Its top is r, the bag at preorder position min top(v),
   so every bag outside subtree(r) misses U, and the scan starts from
   subtree(r) alone. A bag z that misses U leaves all of U in one component
   of G - B(z), so z is rejected with no search, and the branch counts name
   the branch that holds U. `sep` checks that U is connected with one search
   inside U's own mask.

Accepting by fact 1 is exact, and skipping by facts 2 and 3 only drops bags
that would be rejected, so the bag returned is the one the exhaustive scan
over ascending ids returns, wherever T is rooted. Every bag the scan evaluates
leaves the region, so the next one is the smallest id left in it: one
range-minimum query (`Rooting.first_id`) per preorder interval of the region.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .decomp import TreeDecomp
from .graph import DiGraph, VertexSet, checked_mask, grow, members, vertex_mask


@dataclass(frozen=True)
class SeparatorResult:
    bag_node: int
    separator: VertexSet
    target_size: int


def is_balanced_separator(g: DiGraph, s, u, starts=None) -> bool:
    """True iff every component of g minus s has at most |u|/2 vertices of u.

    `u` is an iterable of vertices or their mask, checked by `checked_mask`.
    `s` is read as given: `sep` passes it decomposition bags. With `starts`,
    only the components holding those vertices are searched.
    """
    umask = checked_mask(g, u)
    cap = umask.bit_count() // 2  # a component is too heavy past cap targets
    alive = g.vertices_mask & ~vertex_mask(s)
    nbr = g.und_mask
    for start in members(umask) if starts is None else starts:
        bit = 1 << start
        if alive & bit:
            comp = grow(nbr, alive, bit, umask, cap)
            if (comp & umask).bit_count() > cap:
                return False
            alive ^= comp
    return True


def sep(g: DiGraph, t: TreeDecomp, u) -> SeparatorResult:
    """First bag (ascending node id) that balanced-separates u.

    `u` is an iterable of vertices or their mask (bit v for vertex v), checked
    by `checked_mask` as in `is_balanced_separator`: a vertex outside 1..n
    raises ValueError before any search. Requires a valid decomposition of g;
    on an invalid one the answer is unspecified.
    Deterministic tie-breaking matters: the recursive decomposition is defined
    in terms of this exact choice.
    """
    umask = checked_mask(g, u)
    targets = members(umask)
    total = len(targets)  # a branch is heavy when 2*count > total
    rooting = t.rooting
    pre, end = rooting.pre, rooting.end
    # Targets sorted by top(v); a target no bag holds sorts after every subtree.
    keyed = sorted((rooting.top.get(v, len(pre)), v) for v in targets)
    keys = [k for k, _ in keyed]
    tops = [v for _, v in keyed]
    tset = set(targets)
    # fact 3: a connected U held by the bags is met only inside subtree(r)
    connected = (0 < total and keys[-1] < len(pre)
                 and grow(g.und_mask, umask, umask & -umask) == umask)
    if connected:
        r = rooting.order[keys[0]]
        region = [(pre[r], end[r])]
    else:
        region = [(0, len(pre))]  # the scan keeps to these preorder intervals
    while region:
        # every bag scanned leaves the region, so the next one in ascending id
        # is the region's smallest
        node = min(rooting.first_id(a, b) for a, b in region)
        p = pre[node]
        bag = t.bags[node]
        # targets in the parent branch: top(v) outside subtree(node), v not in bag
        i, j = bisect_left(keys, p), bisect_left(keys, end[node])
        heavy = None
        for c in rooting.children[node]:
            a, b = bisect_left(keys, pre[c]), bisect_left(keys, end[c])
            if 2 * (b - a) > total:
                heavy = (pre[c], end[c])
                break
        if heavy is None:
            outside = total - (j - i) - sum(v in tset for v in bag if rooting.top[v] < p)
            if 2 * outside <= total:
                return SeparatorResult(node, bag, total)
        if not (connected and tset.isdisjoint(bag)):
            # search from the heavy branch's targets; a target in the bag is skipped
            starts = tops[a:b] if heavy else tops[:i] + tops[j:]
            if is_balanced_separator(g, bag, umask, starts):
                return SeparatorResult(node, bag, total)
        if heavy is None:  # cut out subtree(node)
            pieces = [piece for a, b in region for piece in ((a, min(b, p)), (max(a, end[node]), b))]
        else:  # keep to the heavy child's subtree
            pieces = [(max(a, heavy[0]), min(b, heavy[1])) for a, b in region]
        region = [(a, b) for a, b in pieces if a < b]
    raise RuntimeError("no bag separates the target set; decomposition is invalid")
