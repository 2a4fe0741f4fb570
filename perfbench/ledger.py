"""Outside-in call ledger: wall time of wrapped calls, by call path.

The benchmark measures layers without adding tracing to the program:
it replaces public callables (methods, module functions) with thin
wrappers that time each call against ``time.perf_counter`` and fold it
into an in-memory call tree.  A node is one call path (``study ->
sim.ark.run_cycle -> sim.traceroute.trace``); it keeps the call count,
the total duration and the *self* time — duration minus the time of
its wrapped children.  Spans stay aggregated in memory (a per-call
record of a study would be millions of objects) and are written out
once, at the end, by the caller.

Process pools fork: a worker inherits the wrappers, but its ledger
would die with it.  :func:`os.register_at_fork` therefore turns a
forked child's ledger *foreign*.  A foreign ledger opens one span on
the program's own tracer (:func:`repro.obs.get_tracer`) around each
outermost wrapped call and attaches that call's subtree to the span's
attributes; the study runner already grafts worker span trees back
into the parent when its tracer has a real clock, and
:meth:`Ledger.absorb_spans` folds the shipped subtrees into the
parent's tree.

Install wrappers with :meth:`Ledger.patch` inside
:meth:`Ledger.installed`; leaving the block restores every original.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import (Any, Callable, Collection, Dict, Iterator, List,
                    Optional)

SHIP_SPAN = "perfbench.ledger"
"""Name of the program span a forked worker ships its subtree in."""

SHIP_ATTR = "perfbench.calls"


class Node:
    """One call path of the ledger tree."""

    __slots__ = ("calls", "total", "self_s", "meter", "counts",
                 "children")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.meter = 0.0
        self.counts: Dict[str, int] = {}
        self.children: Dict[str, "Node"] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node()
        return node

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"calls": self.calls, "total_s": self.total,
                                "self_s": self.self_s}
        if self.meter:
            data["meter"] = self.meter
        if self.counts:
            data["counts"] = dict(self.counts)
        if self.children:
            data["children"] = {name: node.to_dict()
                                for name, node in self.children.items()}
        return data

    def merge(self, data: Dict[str, Any]) -> None:
        """Add a :meth:`to_dict` tree into this node."""
        self.calls += data.get("calls", 0)
        self.total += data.get("total_s", 0.0)
        self.self_s += data.get("self_s", 0.0)
        self.meter += data.get("meter", 0.0)
        for name, count in data.get("counts", {}).items():
            self.counts[name] = self.counts.get(name, 0) + count
        for name, child in data.get("children", {}).items():
            self.child(name).merge(child)


class LayerTotals:
    """One layer name summed over every call path it occurs on.

    ``total_s`` counts only outermost occurrences, so a layer that
    re-enters itself (``lookup_many`` calling ``lookup_single``) is not
    counted twice; ``self_s`` sums over all occurrences and is additive
    across layers by construction.
    """

    __slots__ = ("calls", "total_s", "self_s", "meter")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.meter = 0.0


class Ledger:
    """The call tree plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.root = Node()
        self._stack: List[list] = [[self.root, 0.0, 0.0]]
        self._patched: List[tuple] = []
        self.foreign = False
        self._shipping = False

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Make this the ledger forked children reset; unpatch on exit."""
        global _ACTIVE, _HOOKED
        if not _HOOKED and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _HOOKED = True
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = None
            self.unpatch()

    def patch(self, owner: Any, attr: str, layer: str,
              meter: Optional[Callable[..., float]] = None,
              count_only: bool = False) -> None:
        """Wrap ``owner.attr`` (a module function or a class attribute).

        ``meter(args, kwargs, result)`` adds a per-call quantity (bytes,
        cycles) to the node.  ``count_only`` wrappers add no frame: they
        only count calls on the caller's node, for functions too hot and
        too short to time without distorting their callers.
        """
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        descriptor = None
        function = raw
        if isinstance(raw, (classmethod, staticmethod)):
            descriptor = type(raw)
            function = raw.__func__
        wrapper = (self._counter(layer, function) if count_only
                   else self._timer(layer, function, meter))
        setattr(owner, attr,
                descriptor(wrapper) if descriptor else wrapper)
        self._patched.append((owner, attr, raw))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- wrappers ------------------------------------------------------------

    def _counter(self, layer: str, function: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(function)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts = stack[-1][0].counts
            counts[layer] = counts.get(layer, 0) + 1
            return function(*args, **kwargs)
        return counted

    def _timer(self, layer: str, function: Callable,
               meter: Optional[Callable[..., float]]) -> Callable:
        ledger = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if ledger.foreign and not ledger._shipping:
                return ledger._ship(timed, args, kwargs)
            top = stack[-1]
            node = top[0].children.get(layer)
            if node is None:
                node = top[0].child(layer)
            frame = [node, clock(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                node.calls += 1
                node.total += elapsed
                node.self_s += elapsed - frame[2]
                stack[-1][2] += elapsed
            if meter is not None:
                node.meter += meter(args, kwargs, result)
            return result
        return timed

    def _ship(self, wrapper: Callable, args: tuple, kwargs: dict) -> Any:
        """Run an outermost call of a forked worker inside a program
        span that carries the call's subtree back to the parent."""
        from repro.obs import get_tracer

        self._shipping = True
        try:
            with get_tracer().span(SHIP_SPAN) as span:
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    span.attrs[SHIP_ATTR] = self.root.to_dict()
                    self._reset()
        finally:
            self._shipping = False

    def _reset(self) -> None:
        self.root = Node()
        self._stack[:] = [[self.root, 0.0, 0.0]]

    # -- reading -------------------------------------------------------------

    def absorb_spans(self, roots, under: str = "par.worker") -> None:
        """Fold shipped worker subtrees found in a program span tree
        into this ledger, under one ``under`` node."""
        target = self.root.child(under)
        for root in roots:
            for _depth, span in root.walk():
                if span.name == SHIP_SPAN and SHIP_ATTR in span.attrs:
                    target.merge(span.attrs[SHIP_ATTR])

    def layers(self) -> Dict[str, LayerTotals]:
        """Per-layer sums over the whole tree (see :class:`LayerTotals`)."""
        out: Dict[str, LayerTotals] = {}

        def visit(node: Node, open_layers: frozenset) -> None:
            for name, count in node.counts.items():
                totals = out.setdefault(name, LayerTotals())
                totals.calls += count
            for name, child in node.children.items():
                totals = out.setdefault(name, LayerTotals())
                totals.calls += child.calls
                totals.self_s += child.self_s
                totals.meter += child.meter
                if name not in open_layers:
                    totals.total_s += child.total
                visit(child, open_layers | {name})

        visit(self.root, frozenset())
        return out

    def self_sum(self, layers: Collection[str],
                 exclude: str = "par.worker") -> float:
        """Self time of the wrapped calls to ``layers`` made in this
        process — the shipped worker subtree under ``exclude`` left out,
        since worker time runs beside the parent's rather than inside
        it.  Self times are disjoint, so the sum never counts a second
        twice."""
        def visit(node: Node) -> float:
            return sum((child.self_s if name in layers else 0.0)
                       + visit(child)
                       for name, child in node.children.items()
                       if name != exclude)
        return visit(self.root)


_ACTIVE: Optional[Ledger] = None
_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.foreign = True
        _ACTIVE._shipping = False
        _ACTIVE._reset()

