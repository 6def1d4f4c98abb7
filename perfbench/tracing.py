"""In-memory span recorder for the traced benchmark run.

Spans are put around the public functions of each layer from the
benchmark's own code: :func:`install` replaces a module or class
attribute with a wrapper and :meth:`Tracer.uninstall` puts the original
back.  Nothing under ``src/`` knows about tracing.

A span records its name, start, end, parent span and the session id
where the call names one.  Spans are kept in flat arrays while the run
is measured and written out once it ends.  A span's self time is its
duration minus the durations of its child spans; children always nest
inside their parent on the same thread, so that difference is exactly
the part of the interval no child covers.

Coroutines are traced one resumption at a time (:class:`_TracedCoroutine`):
each ``send`` into the coroutine is its own span, so time a coroutine
spends suspended on the event loop is never billed to it and the spans
of interleaved tasks never overlap on the loop thread.
"""

from __future__ import annotations

import asyncio
import collections.abc
import contextvars
import functools
import json
import selectors
import threading
import time
from array import array

import numpy as np

#: Name under which the load generator's own work is recorded; wrapped
#: layer functions called from client code are billed to it as well.
CLIENT = "bench.client"
#: Name of the garbage collections the benchmark itself starts.
GC = "python.gc"

_ROLE: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_role", default=None
)


def client_role() -> contextvars.Token:
    """Mark the running task (and tasks it creates) as client code."""
    return _ROLE.set(CLIENT)


class Tracer:
    """Span store plus the patch list of the wrappers it installed."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sessions: list[str] = []
        self._session_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.session = array("l")
        self.thread = array("l")
        self._threads: dict[int, int] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: Free-form counters the wrappers' observers accumulate.
        self.counts: collections.Counter = collections.Counter()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _id(self, table: dict[str, int], values: list[str], key: str) -> int:
        found = table.get(key)
        if found is None:
            found = table[key] = len(values)
            values.append(key)
        return found

    def open(self, name: str, session: str | None = None) -> int:
        """Start a span; returns its index, or -1 when merged away.

        A span with the same name as the span it would nest in is
        merged into that parent, so recursion and client-side helpers
        add no spans of their own.
        """
        stack = self._stack()
        if stack and self.names[self.name[stack[-1]]] == name:
            return -1
        index = len(self.start)
        self.name.append(self._id(self._name_ids, self.names, name))
        self.parent.append(stack[-1] if stack else -1)
        self.session.append(
            -1
            if session is None
            else self._id(self._session_ids, self.sessions, session)
        )
        ident = threading.get_ident()
        self.thread.append(self._threads.setdefault(ident, len(self._threads)))
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        if index < 0:
            return
        self.end[index] = time.perf_counter()
        self._stack().pop()

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse install order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------
    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (summed self s, summed duration s, span count)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=n
        )
        own = duration - covered
        size = len(self.names)
        own_sum = np.bincount(name, weights=own, minlength=size)
        all_sum = np.bincount(name, weights=duration, minlength=size)
        counts = np.bincount(name, minlength=size)
        return {
            label: (float(own_sum[i]), float(all_sum[i]), int(counts[i]))
            for i, label in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the columns,
        span names and session ids, then one array per span."""
        header = {
            "columns": ["name", "start", "end", "parent", "session", "thread"],
            "names": self.names,
            "sessions": self.sessions,
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for row in zip(
                self.name, self.start, self.end, self.parent, self.session,
                self.thread,
            ):
                handle.write(json.dumps(row) + "\n")


def open_span(tracer: Tracer | None, name: str) -> int:
    """Open a span when tracing; pair with :func:`close`."""
    if tracer is None or not tracer.enabled:
        return -1
    return tracer.open(name)


def open_client(tracer: Tracer | None) -> int:
    """Open a :data:`CLIENT` span when tracing; pair with :func:`close`."""
    return open_span(tracer, CLIENT)


def close(tracer: Tracer | None, index: int) -> None:
    if tracer is not None:
        tracer.close(index)


class _TracedCoroutine(collections.abc.Coroutine):
    """Coroutine proxy that records each resumption as one span."""

    __slots__ = ("_tracer", "_name", "_inner", "_session")

    def __init__(self, tracer: Tracer, name: str, inner, session=None) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._session = session

    def send(self, value):
        if not self._tracer.enabled:
            return self._inner.send(value)
        index = self._tracer.open(self._name, self._session)
        try:
            return self._inner.send(value)
        finally:
            self._tracer.close(index)

    def throw(self, *exc):
        if not self._tracer.enabled:
            return self._inner.throw(*exc)
        index = self._tracer.open(self._name, self._session)
        try:
            return self._inner.throw(*exc)
        finally:
            self._tracer.close(index)

    def close(self) -> None:
        self._inner.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def _session_of(args, position: int | None) -> str | None:
    if position is None or len(args) <= position:
        return None
    value = args[position]
    return value if isinstance(value, str) else getattr(value, "session_id", None)


def install(
    tracer: Tracer,
    owner,
    attr: str,
    name: str,
    observe=None,
    session_arg: int | None = None,
    asynchronous: bool = False,
    static: bool = False,
    client_side: bool = False,
) -> None:
    """Wrap ``owner.attr`` so every call records a span called ``name``.

    ``observe(result)`` runs on each traced call's return value (it
    feeds the count metrics); ``session_arg`` is the position of an
    argument holding the session id (or an object with one); ``asynchronous`` wraps a
    coroutine function; ``static`` re-wraps a staticmethod;
    ``client_side`` bills calls made from client code (see
    :func:`client_role`) to :data:`CLIENT` instead of ``name``.
    """
    original = owner.__dict__[attr]
    function = original.__func__ if static else original

    def span_name() -> str:
        if client_side and _ROLE.get() == CLIENT:
            return CLIENT
        return name

    if asynchronous:

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            label = span_name()
            if tracer.enabled:
                # A coroutine records one span per resumption; per-call
                # means divide by calls instead.
                tracer.counts[f"calls:{label}"] += 1
            return _TracedCoroutine(
                tracer,
                label,
                function(*args, **kwargs),
                _session_of(args, session_arg),
            )

    else:

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            index = tracer.open(
                span_name(), _session_of(args, session_arg)
            )
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(result)
            return result

    tracer.patch(owner, attr, staticmethod(wrapper) if static else wrapper)


class TracedSelector(selectors.DefaultSelector):
    """Selector that records the event loop's own work as a span.

    The span runs from each return of ``select`` to the next call, so
    it covers the loop's callbacks (socket reads and writes, future
    wake-ups, scheduling); task steps nest inside it as children.  Time
    blocked in ``select`` is not a span: the loop is idle then.
    """

    def __init__(self, tracer: Tracer, name: str = "asyncio.loop") -> None:
        super().__init__()
        self._tracer = tracer
        self._name = name
        self._span = -1

    def select(self, timeout=None):
        self.finish()
        events = super().select(timeout)
        if self._tracer.enabled:
            self._span = self._tracer.open(self._name)
        return events

    def finish(self) -> None:
        """Close the open loop span (the loop stopped or is selecting)."""
        if self._span >= 0:
            self._tracer.close(self._span)
            self._span = -1


def task_factory(tracer: Tracer, names: dict[str, str], default: str):
    """An event-loop task factory that traces every task's steps.

    The span name comes from the task coroutine's qualified name via
    ``names``; coroutines already traced keep their own name.
    """

    def factory(loop, coro, **kwargs):
        if not isinstance(coro, _TracedCoroutine):
            qualname = getattr(coro, "__qualname__", "")
            coro = _TracedCoroutine(tracer, names.get(qualname, default), coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    return factory
