"""In-memory spans and counters recorded around calls into the engine.

A span records name, start, end (``perf_counter_ns``) and the index of its
parent span, -1 for a root.  The engine runs single-threaded, so child
spans nest inside their parent and never overlap one another; a span's
self time is therefore its duration minus the summed durations of its
direct children, and the self times of one tree add up to its root's
duration.

Nothing here edits the engine's source: ``Instrumentation`` swaps public
functions for timing wrappers by ``setattr`` and puts the originals back
when it is closed.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, raises=(), count_points=False, before=None):
        """``fn`` timed as span ``name``.

        ``raises``: exception types counted as ``<name>.raised`` (then
        re-raised).  ``count_points``: add the size of the first array
        argument after ``self`` to ``<name>.points``.  ``before``: called
        with the arguments ahead of the span, outside its timing.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self.counters[name + ".calls"] += 1
            if count_points:
                self.counters[name + ".points"] += _size(args[1])
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except raises:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                self.ends[idx] = perf_counter_ns()
                self._stack.pop()

        return wrapper

    def count(self, name, fn):
        """``fn`` with its calls counted as ``<name>.calls``, not timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name, in nanoseconds."""
        return self_times(self.names, self.starts, self.ends, self.parents)

    def to_dict(self) -> dict:
        """Spans as parallel columns, names interned, times relative to the first span."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0
        return {
            "names": table,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "name": [ids[n] for n in self.names],
            "start_ns": [s - t0 for s in self.starts],
            "end_ns": [e - t0 for e in self.ends],
            "parent": list(self.parents),
            "counters": dict(self.counters),
        }


def self_times(names, starts, ends, parents) -> dict[str, int]:
    """Per-name sum of span duration minus the durations of direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    totals: dict[str, int] = defaultdict(int)
    for name, ns in zip(names, own):
        totals[name] += ns
    return dict(totals)


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


class Instrumentation:
    """Swaps attributes for wrappers; ``close`` restores every original.

    Class attributes are read from the class ``__dict__`` so a restored
    method is the very function object that was there before.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def close(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
