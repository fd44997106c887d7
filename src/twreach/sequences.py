"""Universal sequences and index-addressable leaf schedules.

The universal sequence of order s is <1> for s=0 and otherwise the order-(s-1)
sequence, then <2^s>, then the order-(s-1) sequence again. A leaf schedule
Lseq(t, d) interleaves the schedules of t's children according to the
universal sequence of order log2 d. By the same self-similarity, the block of
an inner node t at budget d is the block of t at d/2, then each child's block
at d, then the block of t at d/2 again. `LeafSeq.parts` states that rule once;
the schedule's length, its elements by index and its stream all recurse
through it, and nothing is ever materialized. The length has a closed form
over t's leaves by depth (`schedule_length`), which the marking walk and the
descent of `LeafSeq.element` read; `block_length` counts it as a reference.
"""
from __future__ import annotations

from itertools import repeat
from math import comb
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # annotations only: decomp builds its walk plan from this module
    from .decomp import BalancedTD


def _check_pow2(d: int) -> int:
    if d < 1 or d & (d - 1):
        raise ValueError(f"{d} is not a positive power of 2")
    return d.bit_length() - 1


def useq_length(s: int) -> int:
    return (1 << (s + 1)) - 1


def useq_element(s: int, k: int) -> int:
    """k-th (1-based) element of the order-s universal sequence, by descent."""
    if s < 0:
        raise ValueError("order must be non-negative")
    if not 1 <= k <= useq_length(s):
        raise ValueError(f"index {k} out of range for order {s}")
    while True:
        mid = 1 << s
        if k == mid:
            return 1 << s
        if k > mid:
            k -= mid
        s -= 1


def useq_counts(s: int, i: int) -> int:
    """Number of occurrences of 2^i in the order-s sequence: 2^(s-i)."""
    if not 0 <= i <= s:
        raise ValueError(f"exponent {i} out of range for order {s}")
    return 1 << (s - i)


def useq_stream(s: int) -> Iterator[int]:
    for k in range(1, useq_length(s) + 1):
        yield useq_element(s, k)


def dominating_subsequence(s: int, demands: list[int]) -> list[int] | None:
    """Greedy left-to-right domination of `demands` by sequence elements.

    Returns strictly increasing 1-based indices with element >= demand, or
    None when the greedy scan fails. Guaranteed to succeed whenever the
    demands sum to at most 2^s.
    """
    out = []
    j = 0
    for k in range(1, useq_length(s) + 1):
        if j == len(demands):
            break
        if useq_element(s, k) >= demands[j]:
            out.append(k)
            j += 1
    return out if j == len(demands) else None


def leaf_depths(tree: BalancedTD, t: int) -> list[int]:
    """t's leaves counted by their distance below t: out[k] of them lie k edges down."""
    children = tree.ordered_children
    out, level = [], [t]
    while level:
        out.append(sum(not children[x] for x in level))
        level = [y for x in level for y in children[x]]
    return out


def schedule_length(depths: list[int], d: int) -> int:
    """Exact length of Lseq(t, d) for any tree, from `depths`, t's leaves
    counted by their distance below t (`leaf_depths`):

        |Lseq(t, d)| = d * sum over the leaves f under t of C(dist(t, f) + log2 d, log2 d).

    Proof. Let Q_x(s) = |block(x, 2^s)| / 2^s. A leaf's block at c is c
    copies of it, so Q_leaf(s) = 1. By `LeafSeq.parts` an inner node's block
    at 1 is each child's block at 1, and at c = 2^s > 1 it is its block at
    c/2, each child's block at c and its block at c/2 again. Dividing by c,
    Q_x(0) = sum_k Q_k(0) and Q_x(s) = Q_x(s-1) + sum_k Q_k(s) over x's
    children k, however many there are (one, after binarization). Claim:
    Q_x(s) = sum over the leaves f under x of C(dist(x, f) + s, s). It holds
    at a leaf, and at s = 0, where each leaf counts 1. Otherwise, by
    induction on s and on height, a leaf f at D = dist(x, f) = dist(k, f) + 1
    below x adds C(D + s - 1, s - 1) through Q_x(s-1) and C(D - 1 + s, s)
    through its child k's Q_k(s), and the two sum to C(D + s, s) by Pascal's
    rule (unrolled, the hockey-stick identity).
    """
    s = _check_pow2(d)
    return d * sum(count * comb(k + s, s) for k, count in enumerate(depths) if count)


def lseq_length(h: int, d: int) -> int:
    """Schedule length for a complete binary tree of height h: 2^h * d * C(h+log2 d, log2 d).

    The `schedule_length` of 2^h leaves at depth h. It bounds every binary
    tree of height at most h from above: replacing a leaf at depth k < h by
    a complete subtree of height h - k puts 2^(h-k) leaves, each adding at
    least as much, in its place.
    """
    if h < 0:
        raise ValueError("height must be non-negative")
    return schedule_length([0] * h + [1 << h], d)


class LeafSeq:
    """Virtual leaf schedule over a subtree of a balanced decomposition.

    The block of a leaf at budget d is d copies of the leaf. The block of an
    inner node is split by `parts`; lengths, indexing and iteration all
    recurse through it, so single-child nodes (possible after binarization)
    simply have no right-child sub-blocks.
    """

    def __init__(self, tree: BalancedTD, t: int, d: int):
        _check_pow2(d)
        if t not in tree.ordered_children:  # an augment copy builds no bags
            raise ValueError(f"unknown node id {t}")
        self.tree = tree
        self.t = t
        self.d = d
        self._len_cache: dict[tuple[int, int], int] = {}
        self._depths: dict[int, list[int]] = {}

    def parts(self, t: int, d: int) -> list[tuple[int, int]]:
        """Sub-blocks of inner node t's block at budget d, in schedule order.

        The block interleaves t's children along the order-log2(d) universal
        sequence. As U_s = U_{s-1}, <2^s>, U_{s-1}, that is the block at d/2,
        every child at budget d, and the block at d/2 again; at d = 1 it is
        every child at budget 1.
        """
        kids = [(kid, d) for kid in self.tree.children(t)]
        if d == 1:
            return kids
        half = (t, d >> 1)
        return [half, *kids, half]

    def block_length(self, t: int, d: int) -> int:
        """Length of block (t, d) by the recurrence over `parts`, memoized: the
        reference that the closed form `schedule_length` is checked against."""
        cache = self._len_cache
        if (t, d) not in cache:
            cache[t, d] = (sum(self.block_length(*part) for part in self.parts(t, d))
                           if self.tree.children(t) else d)
        return cache[t, d]

    def _size(self, t: int, d: int) -> int:
        """Length of block (t, d) by `schedule_length`, over t's leaves by depth (kept per t)."""
        if t not in self._depths:
            self._depths[t] = leaf_depths(self.tree, t)
        return schedule_length(self._depths[t], d)

    def __len__(self) -> int:
        return self.block_length(self.t, self.d)

    def element(self, r: int) -> int:
        """Leaf node id at 1-based index r, by descent through the sub-blocks,
        each sized by the closed form: O(height + log2 d) steps."""
        t, d = self.t, self.d
        if not 1 <= r <= self._size(t, d):
            raise ValueError(f"index {r} out of range")
        while self.tree.children(t):
            for t, d in self.parts(t, d):  # descend into the part that holds r
                size = self._size(t, d)
                if r <= size:
                    break
                r -= size
        return t

    def __iter__(self) -> Iterator[int]:
        """Stream leaves in order without materializing the schedule."""
        stack = [(self.t, self.d)]
        while stack:
            t, d = stack.pop()
            if not self.tree.children(t):
                yield from repeat(t, d)
            else:
                stack.extend(reversed(self.parts(t, d)))

    def materialize(self) -> list[int]:
        return list(self)


def lseq_element(tree: BalancedTD, t: int, d: int, r: int) -> int:
    return LeafSeq(tree, t, d).element(r)
