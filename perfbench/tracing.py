"""Layer spans recorded from outside the program.

The traced pass installs wrappers around public call points of each
``repro`` layer, records one span per call (name, start, end, parent,
thread) in memory, and derives per-layer self times and counts when the
pass ends.  Nothing under ``src/`` is modified: wrappers replace module
or class attributes for the duration of the pass and are restored by
:meth:`Tracer.uninstall`.

Parenting: a span's parent is the innermost open span on the same
thread.  A span opened on a thread with no open span (the campaign
service's worker and HTTP handler threads) takes as parent the innermost
span open on the thread that opened the request's root span, so all
spans of one request share that root, and a client-side span's self time
is what the daemon's spans do not cover.
Wrapped calls made while no root is open (the benchmark's own output
checks between requests) are not recorded.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (span id, name, start, end, parent id, thread id)
Span = Tuple[int, str, float, float, Optional[int], int]


class Tracer:
    """In-memory span and counter store with attribute-patching wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root: Optional[int] = None
        self._root_thread: Optional[int] = None
        self._anchor: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else (None if root else self._anchor)
        if root:
            self._root = span_id
            self._root_thread = threading.get_ident()
        on_root_thread = threading.get_ident() == self._root_thread
        stack.append(span_id)
        if on_root_thread:
            self._anchor = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if on_root_thread:
                self._anchor = stack[-1] if stack else None
            if root:
                self._root = self._root_thread = None
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident())
                )

    @property
    def recording(self) -> bool:
        """Whether a request (root span) is open; spans record only then."""
        return self._root is not None

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrappers ---------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Optional[
            Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]
        ] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``on_return(args, kwargs, result)`` records counts after each call.
        Class methods and classmethods keep their binding.
        """
        raw = _attribute(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return func(*args, **kwargs)
            with tracer.span(name):
                result = func(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(func, "__name__", attr)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        self.wrap_value(
            owner, attr, classmethod(wrapper) if is_classmethod else wrapper
        )

    def wrap_value(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` with ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, _attribute(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reduction --------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Sum of self time per span name.

        A span's self time is its duration minus the part of its
        interval covered by the union of its children's intervals.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - _covered(
                children.get(span_id, []), start, end
            )
        return dict(totals)

    def durations(self) -> Dict[str, float]:
        """Sum of inclusive duration per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        """Number of spans per name."""
        totals: Dict[str, int] = defaultdict(int)
        for _, name, _, _, _, _ in self.spans:
            totals[name] += 1
        return dict(totals)

    def to_records(self) -> List[Dict[str, Any]]:
        """Spans as JSON-safe dicts, times relative to the first start."""
        if not self.spans:
            return []
        origin = min(span[2] for span in self.spans)
        return [
            {
                "id": span_id,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "thread": thread,
            }
            for span_id, name, start, end, parent, thread in sorted(
                self.spans, key=lambda s: s[2]
            )
        ]


def _attribute(owner: Any, attr: str) -> Any:
    """``owner.attr`` as stored (a class's own entry keeps its descriptor)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
