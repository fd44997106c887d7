"""Directed graphs on vertices 1..n: text IO, undirected connectivity, BFS oracle.

Vertices are 1-based everywhere in the public API and in file formats.
A VertexSet is a sorted, duplicate-free tuple of vertex ids, so set
equality is tuple equality. Connectivity works on int vertex masks (bit v
for vertex v): `grow` adds a whole BFS layer per step by OR-ing the cached
neighbour masks `DiGraph.und_mask` of the frontier, and every component
search of the package goes through it. The marking walk reads the directed
counterpart, `DiGraph.succ_mask`.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable

VertexSet = tuple[int, ...]


def vset(vertices: Iterable[int]) -> VertexSet:
    """Canonical VertexSet: sorted, duplicate-free tuple."""
    return tuple(sorted(set(vertices)))


class GraphFormatError(ValueError):
    """Raised on malformed directed-graph files; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message}, line {line}")


class DiGraph:
    """Immutable directed graph on vertices 1..n.

    Self-loops are kept in the arc set but never affect connectivity or
    reachability. The undirected view is the symmetric closure of the arcs.
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        arcset = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arcset:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u}, {v}) endpoint out of range for n={n}")
        self.n = n
        self.arcs = arcset

    def __eq__(self, other):
        return isinstance(other, DiGraph) and self.n == other.n and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"DiGraph(n={self.n}, m={len(self.arcs)})"

    @cached_property
    def succ_mask(self) -> list[int]:
        """Successor masks: bit y of succ_mask[x] is set iff x -> y is an arc and x != y."""
        out = [0] * (self.n + 1)
        for u, v in self.arcs:
            if u != v:
                out[u] |= 1 << v
        return out

    @cached_property
    def und_mask(self) -> list[int]:
        """Undirected neighbour masks: bit y of und_mask[x] is set iff x and y are adjacent."""
        out = [0] * (self.n + 1)
        for u, v in self.arcs:
            if u != v:
                out[u] |= 1 << v
                out[v] |= 1 << u
        return out

    @cached_property
    def vertices_mask(self) -> int:
        """Mask of the vertices 1..n."""
        return (1 << (self.n + 1)) - 2

    @cached_property
    def components(self) -> tuple[VertexSet, ...]:
        """Undirected components sorted by smallest member, computed once per graph."""
        return tuple(_split(self, self.vertices_mask))

    @cached_property
    def und_edges(self) -> frozenset[tuple[int, int]]:
        """Undirected edge set as (min, max) pairs, self-loops dropped."""
        return frozenset((min(u, v), max(u, v)) for u, v in self.arcs if u != v)


def vertex_mask(vertices: Iterable[int]) -> int:
    """Int mask with bit v set for every vertex v given."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def members(mask: int) -> VertexSet:
    """The vertices of a non-negative mask, ascending.

    A mask of at most 64 bits (an empty or one-bit one too) is read top bit
    first by bit_length(), so its cost does not grow with a string as long
    as the mask; a denser one is read from its binary string.
    """
    if mask.bit_count() <= 64:
        top = []
        while mask:
            v = mask.bit_length() - 1
            top.append(v)
            mask ^= 1 << v
        return tuple(reversed(top))
    bits = bin(mask)[:1:-1]  # bits[i] is bit i
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return tuple(out)


def grow(nbr: list[int], alive: int, seed: int, targets: int = 0, cap: int = -1) -> int:
    """Mask of the vertices joined to `seed` (a mask) inside the `alive` mask.

    `nbr[x]` is the neighbour mask of x. The search adds one BFS layer at a
    time; with cap >= 0 it stops as soon as the mask holds more than `cap`
    vertices of `targets`, so the caller sees a partial, already too heavy
    component.
    """
    comp = frontier = seed
    while frontier:
        if cap >= 0 and (comp & targets).bit_count() > cap:
            break
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & alive & ~comp
        comp |= frontier
    return comp


def _split(g: DiGraph, alive: int) -> list[VertexSet]:
    comps = []
    while alive:
        comp = grow(g.und_mask, alive, alive & -alive)
        alive ^= comp
        comps.append(members(comp))
    return comps


def undirected_components(g: DiGraph, removed: Iterable[int] = ()) -> list[VertexSet]:
    """Connected components of the undirected view of g with `removed` deleted.

    Components are returned sorted by their smallest member.
    """
    gone = vertex_mask(removed)
    if not gone:
        return list(g.components)
    return _split(g, g.vertices_mask & ~gone)


def component_containing(g: DiGraph, z: Iterable[int], r: int) -> VertexSet:
    """Vertex set of the undirected component of g minus z that contains r."""
    gone = vertex_mask(z)
    if gone >> r & 1:
        raise ValueError(f"representative {r} lies inside the removed set")
    if not (1 <= r <= g.n):
        raise ValueError(f"vertex {r} out of range")
    return members(grow(g.und_mask, g.vertices_mask & ~gone, 1 << r))


def bfs_reachable(g: DiGraph, u: int, v: int) -> bool:
    """Linear-space reachability oracle: true iff a directed path u -> v exists.

    Its memory follows the arcs, not n: the adjacency is built from `g.arcs`
    and the visited vertices are kept in a set.
    """
    if not (1 <= u <= g.n and 1 <= v <= g.n):
        raise ValueError("query vertex out of range")
    if u == v:
        return True
    succ: dict[int, list[int]] = {}
    for x, y in g.arcs:
        succ.setdefault(x, []).append(y)
    seen = {u}
    queue = deque([u])
    while queue:
        for y in succ.get(queue.popleft(), ()):
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def text_lines(text: str | bytes, error: type[ValueError]) -> list[str]:
    """The lines of a .gr or .td text; bytes that are not UTF-8 raise
    `error` with the number of the line they are on."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((text[:exc.start].decode("utf-8") + ".").splitlines())
            raise error("invalid UTF-8", line) from None
    return text.splitlines()


def parse_graph(text: str | bytes) -> DiGraph:
    """Parse the .gr directed-graph format (header "p dgr <n> <m>", then m
    arc lines; a repeated arc counts as a line)."""
    n = None
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text_lines(text, GraphFormatError), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "dgr":
                raise GraphFormatError("malformed header, expected 'p dgr <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer token in header", lineno) from None
            if n < 0:
                raise GraphFormatError("vertex count must be non-negative", lineno)
            header_line = lineno
            continue
        if n is None:
            raise GraphFormatError("arc line before header", lineno)
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError("malformed arc line", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer token", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError("endpoint out of range", lineno)
        arcs.append((u, v))
    if n is None:
        raise GraphFormatError("missing header")
    if len(arcs) != m:
        raise GraphFormatError(f"header declares {m} arcs, found {len(arcs)}", header_line)
    return DiGraph(n, arcs)


def write_graph(g: DiGraph) -> str:
    """Emit the canonical .gr text: header plus lexicographically sorted arcs."""
    lines = [f"p dgr {g.n} {len(g.arcs)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.arcs))
    return "\n".join(lines) + "\n"
