"""In-memory spans around the calls between macexp modules.

A span is recorded by replacing a function in the module that *calls* it
(the name that module bound with ``from .x import f``), so only calls that
cross a module boundary are seen.  Spans are kept in a list as
``[name, start, end, parent]`` and written out once, at the end of a run.

The tracer never fails a run: a function that no longer exists under the
expected name is listed as absent and left alone, and a counter whose
hook hits a renamed attribute is listed as absent instead of raising.

Bookkeeping that the benchmark itself does inside a hook (counting pinned
lattice rows, say) runs with the tracer clock paused, so it neither shows
in a span nor inflates the traced run time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._restore: list[tuple] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.now()

    def wrap(self, module, attr: str, name: str, hook=None,
             counters: tuple[str, ...] = ()) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``hook(tracer, arguments, result)`` runs after a successful call,
        with the clock paused and the call's arguments bound to their
        parameter names.  It adds to the ``counters`` it names in
        ``tracer.counts``; if it cannot, those counters become absent.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.add(name)
            self.absent.update(counters)
            return
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                start = time.perf_counter()
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(self, bound, result)
                except (AttributeError, KeyError, TypeError, ValueError,
                        IndexError) as exc:
                    if not self.absent.issuperset(counters):
                        self.notes.append(
                            f"{name}: {type(exc).__name__}: {exc}")
                    self.absent.update(counters)
                finally:
                    self._paused += time.perf_counter() - start
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def total(self, name: str) -> float | None:
        """Summed duration of the spans named ``name``; None if absent."""
        if name in self.absent:
            return None
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int | None:
        if name in self.absent:
            return None
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        own = self.self_times()
        return sum(t for s, t in zip(self.spans, own) if s[0].startswith(prefix))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "absent": sorted(self.absent), "notes": self.notes}, fh)
