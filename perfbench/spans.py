"""In-memory spans recorded around calls into the program, from outside.

A :class:`SpanRecorder` replaces chosen attributes (class methods or
module functions) with wrappers that append one span per call:
``(name, start_s, end_s, parent_index, point_id)``.  Spans stay in
memory until the benchmark writes them out at the end.  A wrapped
generator function gets one span per resumption, so a ``yield from
ctx.poll_flag(...)`` is charged each time it actually runs, not once at
creation.

Wrappers are installed before the program builds any object and removed
afterwards (:meth:`SpanRecorder.restore`), so an untraced run in the same
process executes the original functions.  A forked child stops recording
(its spans could never reach the parent anyway).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

__all__ = ["SpanRecorder", "self_times"]

#: One span: (name, start_s, end_s, parent index (-1 = root), point id).
Span = Tuple[str, float, float, int, Optional[str]]


class SpanRecorder:
    """Records nested spans around patched callables."""

    def __init__(self) -> None:
        # Columns, not one list per span: a million small lists would be
        # tracked by the garbage collector and slow the traced run down.
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._parents: List[int] = []
        self._points: List[Optional[str]] = []
        self.enabled = True
        #: Point id stamped on every span opened while it is set.
        self.point: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def spans(self) -> List[Span]:
        """Every span recorded so far, in opening order."""
        return list(zip(self._names, self._starts, self._ends,
                        self._parents, self._points))

    # ------------------------------------------------------------ recording
    def _open(self, name: str) -> int:
        index = len(self._names)
        stack = self._stack
        self._names.append(name)
        self._parents.append(stack[-1] if stack else -1)
        self._points.append(self.point)
        self._ends.append(0.0)
        stack.append(index)
        self._starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._ends[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            index = rec._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(index)

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            gen = fn(*args, **kwargs)
            if not rec.enabled:
                return (yield from gen)
            send_value: Any = None
            error: Optional[BaseException] = None
            while True:
                index = rec._open(name)
                try:
                    if error is not None:
                        item = gen.throw(error)
                    else:
                        item = gen.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    rec._close(index)
                try:
                    send_value = yield item
                    error = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into ``gen``
                    send_value, error = None, exc

        return wrapper

    # -------------------------------------------------------------- patching
    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        Only an attribute ``owner`` defines itself is patched, so a
        subclass and its base are never wrapped twice.
        """
        own = vars(owner)
        if attr not in own:
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        original = own[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- output
    def write(self, path: str) -> None:
        """Write every span as one JSON line to a gzip file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for index, span in enumerate(self.spans()):
                fh.write(json.dumps([index, *span]) + "\n")


def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span],
               select: Optional[Callable[[Optional[str]], bool]] = None
               ) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self seconds)}`` over ``spans``.

    A span's self time is its duration minus the part of its interval
    that its direct child spans cover.  ``select`` keeps only the spans
    whose point id it accepts (children still count against a parent).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _point in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, Tuple[int, float]] = {}
    for index, (name, start, end, _parent, point) in enumerate(spans):
        if select is not None and not select(point):
            continue
        own = end - start
        kids = children.get(index)
        if kids:
            own -= _covered(kids, start, end)
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + own)
    return out
