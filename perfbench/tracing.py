"""Spans and counters around the calls into each twreach layer.

Nothing under src/ is edited: the tracer swaps the module and class
attributes that the pipeline looks up at call time for wrappers, and puts the
originals back when it is uninstalled. A span is (name, start, end, parent,
op); spans stay in memory and are written out once the run ends. A layer's
self time is a span's duration minus the part its child spans cover.

Functions called tens of thousands of times per op (`is_balanced_separator`,
`useq_element`) are counted, not spanned, so their time stays in the self
time of the span that called them (`separator.sep`, the walk, or
`sequences.block_length`). While a span is open its attribute points at the
original again, so a recursion such as `LeafSeq.block_length` shows as one
span and its inner calls pay nothing.
"""
from __future__ import annotations

import gzip
import time
import tracemalloc
from collections import Counter, defaultdict

from twreach import decomp, engine, graph, recursive, separator, sequences

# (owner, attribute, span or counter name, kind)
HOOKS = [
    (graph, "parse_graph", "graph.parse", "span"),
    (decomp, "parse_td", "decomp.parse", "span"),
    (decomp, "validate_td", "decomp.validate", "span"),
    (engine, "validate_td", "decomp.validate", "span"),
    (engine, "undirected_components", "graph.components", "span"),
    (recursive, "undirected_components", "graph.components", "span"),
    (recursive, "component_containing", "graph.component_containing", "span"),
    (engine, "build_balanced", "decomp.balance", "span"),
    (recursive, "build_balanced", "decomp.balance", "span"),
    (recursive, "build_hat_decomposition", "recursive.hat", "span"),
    (recursive, "rd_children", "recursive.rd_children", "span"),
    (recursive.RDContext, "sep_of", "recursive.sep_of", "span"),
    (recursive, "sep", "separator.sep", "span"),
    (separator, "is_balanced_separator", "separator.candidates", "count"),
    (engine, "useq_element", "sequences.useq_element", "count"),
    (sequences, "useq_element", "sequences.useq_element", "count"),
    (sequences.LeafSeq, "block_length", "sequences.block_length", "span"),
    (decomp.BalancedTD, "augment", "decomp.augment", "span"),
    (engine, "reach", "engine.reach", "span"),
    (engine, "reach_balanced", "engine.walk", "span"),
]


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._cells: dict[str, list[int]] = {}
        self.op: int | str = "setup"
        self._stack: list[int] = []

    def _span(self, name, owner, attr):
        """Wrapper for owner.attr that records one span per outermost call."""
        fn = owner.__dict__[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            setattr(owner, attr, fn)  # recursive calls run unwrapped
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                setattr(owner, attr, wrapper)
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
        return wrapper

    def _count(self, name, owner, attr):
        fn = owner.__dict__[attr]
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    @property
    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def install(self, patches: Patches) -> None:
        for owner, attr, name, kind in HOOKS:
            make = self._span if kind == "span" else self._count
            patches.set(owner, attr, make(name, owner, attr))

    def self_times(self) -> tuple[dict[str, float], Counter]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def heap_peak_wrapper(fn, peaks: list[int]):
    """reach_balanced under tracemalloc; appends the peak traced bytes."""
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    return wrapper
