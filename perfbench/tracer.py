"""Span tracer that instruments a package from outside it.

``instrumented(tracer, package)`` wraps every public function of every
loaded module of the package, and every public method of the classes those
modules define. It rebinds each module-level name that holds a wrapped
function, so calls made through ``from x import f`` names are traced as well
as calls through ``module.f``. Leaving the ``with`` block restores every
original binding.

A span is ``[name, start, end, parent, context]``: the qualified function
name without the package prefix (``model.patchify``, ``autodiff.AdamW.step``),
``perf_counter`` times, the index of the enclosing span (-1 at top level),
and ``Tracer.context``, which the caller sets to the id of the batch, image
or pass being run. Spans stay in memory; ``Tracer.stats`` folds them into
call counts, inclusive seconds and self seconds (a span minus the spans of
its direct children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class Tracer:
    """In-memory span recorder plus named counters fed by call hooks."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.context: str | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.context])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stats(self) -> dict[str, SpanStats]:
        child_seconds = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        out: dict[str, SpanStats] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, SpanStats())
            s.calls += 1
            s.seconds += end - start
            s.self_seconds += end - start - child_seconds[i]
        return out


# hook(tracer, args, kwargs, result) runs after a call returns; it turns the
# call's arguments or result into counts (FLOPs, bytes, windows).
Hook = Callable[[Tracer, tuple, dict, object], None]


def _wrap(tracer: Tracer, name: str, fn, hook: Hook | None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return traced


def package_modules(package: str) -> list:
    """Import and return the package and all of its submodules."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if n == package or n.startswith(package + ".")]


@contextmanager
def instrumented(tracer: Tracer, package: str, hooks: dict[str, Hook] | None = None):
    """Trace the package's public functions and methods inside the block."""
    hooks = hooks or {}
    modules = package_modules(package)
    restore: list[tuple[object, str, object]] = []
    wrapped: dict[int, object] = {}  # id(original function) -> wrapper
    for mod in modules:
        short = mod.__name__[len(package) + 1:] or package
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                name = f"{short}.{attr}"
                wrapped[id(value)] = _wrap(tracer, name, value, hooks.get(name))
            elif inspect.isclass(value):
                for meth, fn in list(vars(value).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        name = f"{short}.{attr}.{meth}"
                        restore.append((value, meth, fn))
                        setattr(value, meth, _wrap(tracer, name, fn, hooks.get(name)))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrapped.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                restore.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for holder, attr, value in reversed(restore):
            setattr(holder, attr, value)
