"""Balanced vertex separators of a target set, found among decomposition bags.

A set S is a balanced separator of U when every component of the graph minus S
holds at most |U|/2 members of U. For any valid decomposition some bag
qualifies, and its size is bounded by width+1. Comparisons use exact integer
arithmetic (2*count <= |U|).

`sep` returns the first bag in ascending node id that balanced-separates U;
the recursive decomposition is defined by that choice. It requires a valid
decomposition of the graph (`decomp.validate_td`) and finds that bag with
almost no graph search, by two facts about the branches of T minus a node x
(the components of the tree once x is removed):

1. Every component of G - B(x) lies inside one branch of T - x, because a
   vertex outside B(x) occurs in one branch only and every edge is covered.
   With T rooted at its smallest id (`TreeDecomp.rooting`) and top(v) the
   first preorder bag holding v, the branch through child c holds the targets
   with top(v) inside subtree(c), and the parent branch holds the rest of
   U \\ B(x). If no branch holds more than |U|/2 targets, x qualifies with no
   search. At most one branch can, and then a search from the targets in that
   branch alone decides x.
2. If x is rejected, its heavy component C lies in the branch toward some
   neighbour y. Every bag z outside that branch misses C, so C stays inside
   one component of G - B(z) and z is rejected too. The scan therefore keeps
   to the heavy branches of all rejections so far: a subtree, minus the
   subtrees cut off when the heavy branch led to a parent, all as preorder
   intervals.

Accepting by fact 1 is exact and skipping by fact 2 only drops bags that
would be rejected, so the bag returned is the one the exhaustive scan over
ascending ids returns.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .decomp import TreeDecomp
from .graph import DiGraph, VertexSet, vset


@dataclass(frozen=True)
class SeparatorResult:
    bag_node: int
    separator: VertexSet
    target_size: int


def is_balanced_separator(g: DiGraph, s, u, starts=None) -> bool:
    """True iff every component of g minus s has at most |u|/2 vertices of u.

    With `starts`, only the components holding those vertices are searched.
    """
    uset = set(u)
    if not uset:
        return True
    limit = len(uset)  # compare 2*count <= limit
    gone = bytearray(g.n + 1)
    for v in s:
        gone[v] = 1
    seen = bytearray(g.n + 1)
    adj = g.und_adj
    for start in range(1, g.n + 1) if starts is None else starts:
        if gone[start] or seen[start]:
            continue
        count = 1 if start in uset else 0
        seen[start] = 1
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not gone[y] and not seen[y]:
                    seen[y] = 1
                    if y in uset:
                        count += 1
                        if 2 * count > limit:
                            return False
                    stack.append(y)
        if 2 * count > limit:
            return False
    return True


def sep(g: DiGraph, t: TreeDecomp, u) -> SeparatorResult:
    """First bag (ascending node id) that balanced-separates u.

    Requires a valid decomposition of g and targets in 1..n (ValueError
    otherwise); on an invalid decomposition the answer is unspecified.
    Deterministic tie-breaking matters: the recursive decomposition is defined
    in terms of this exact choice.
    """
    targets = vset(u)
    if targets and (targets[0] < 1 or targets[-1] > g.n):
        raise ValueError(f"target vertices must lie in 1..{g.n}")
    total = len(targets)  # a branch is heavy when 2*count > total
    rooting = t.rooting
    pre, end = rooting.pre, rooting.end
    # Targets sorted by top(v); a target no bag holds sorts after every subtree.
    keyed = sorted((rooting.top.get(v, len(pre)), v) for v in targets)
    keys = [k for k, _ in keyed]
    tset = set(targets)
    lo, hi = 0, len(pre)  # the scan keeps to this preorder interval
    cut: list[tuple[int, int]] = []  # and skips these ones
    for node in t.node_ids():
        p = pre[node]
        if not lo <= p < hi or any(a <= p < b for a, b in cut):
            continue
        bag = t.bags[node]
        # targets in the parent branch: top(v) outside subtree(node), v not in bag
        i, j = bisect_left(keys, p), bisect_left(keys, end[node])
        outside = total - (j - i) - sum(v in tset for v in bag if rooting.top[v] < p)
        heavy = None
        for c in rooting.children[node]:
            a, b = bisect_left(keys, pre[c]), bisect_left(keys, end[c])
            if 2 * (b - a) > total:
                heavy = (pre[c], end[c])
                starts = [v for _, v in keyed[a:b]]
                break
        if heavy is None:
            if 2 * outside <= total:
                return SeparatorResult(node, bag, total)
            starts = [v for _, v in keyed[:i] + keyed[j:] if v not in bag]
        if is_balanced_separator(g, bag, tset, starts):
            return SeparatorResult(node, bag, total)
        if heavy is None:
            cut.append((p, end[node]))
        else:
            lo, hi = heavy
    raise RuntimeError("no bag separates the target set; decomposition is invalid")
