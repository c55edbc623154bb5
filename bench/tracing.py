"""In-memory span tracer that wraps a program's functions from outside.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1. Spans are appended to a list and only written out
by the caller when the run ends. The process is single-threaded, so spans
nest strictly and a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index][2] = self.clock()

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             count: Callable | None = None) -> Callable:
        """A wrapper recording one span per call (per ``next()`` for a
        generator function). ``name`` may be a function of the call's
        arguments. ``count(tracer, args, kwargs, result)`` runs after the
        span closes, inside a ``trace.hook`` span of its own; an exception in
        it is counted in ``counts["trace.hook_errors"]`` and dropped."""
        naming = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        def after(args, kwargs, result):
            if count is not None:
                h = tracer.open("trace.hook")
                try:
                    count(tracer, args, kwargs, result)
                except Exception:  # counting must never change the traced call's outcome
                    tracer.counts["trace.hook_errors"] += 1
                finally:
                    tracer.close(h)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = naming(*args, **kwargs)
                it = fn(*args, **kwargs)
                n = 0
                try:
                    while True:
                        s = tracer.open(span)
                        try:
                            item = next(it)
                        except StopIteration:
                            tracer.close(s)
                            after(args, kwargs, n)
                            return
                        except BaseException:
                            tracer.close(s)
                            raise
                        tracer.close(s)
                        n += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer.open(naming(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            after(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner: object, attr: str, name, count=None,
              modules_prefix: str | None = None, adapt: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper of it (of
        ``adapt(owner.attr)`` if given). With ``modules_prefix`` the same
        function object is also replaced wherever a loaded module of that
        package bound it by ``from ... import``."""
        original = getattr(owner, attr)
        wrapped = self.wrap(adapt(original) if adapt else original, name, count)
        targets = [(owner, attr)]
        if modules_prefix is not None:
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith(modules_prefix):
                    continue
                targets += [(mod, k) for k, v in vars(mod).items() if v is original]
        for obj, key in targets:
            self._patched.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapped)

    def unpatch(self) -> None:
        while self._patched:
            obj, key, original = self._patched.pop()
            setattr(obj, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def ancestors(spans: list[list], index: int):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]
