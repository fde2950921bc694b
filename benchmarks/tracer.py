"""In-memory span tracer for one pipeline pass.

``install`` wraps every public function of the package, plus the public
methods of its classes, in every namespace that holds a reference to it.
Modules such as ``labelnoise.cli`` and ``labelnoise.nld`` import with
``from .x import f``, so patching only the defining module would leave
their calls untraced. A span is named after the function's defining
module (``losses.classify_confidence``) whichever namespace the call went
through.

A span is the tuple ``(span_id, parent_id, name, start, end, error, count)``
where ``count`` is a work count measured at the same boundary (bytes for
file I/O, items for scoring; 0 elsewhere). Spans stay in memory until the
pass ends; the pass writes them out under one pass id.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import time
import types


# Work counts taken at a function boundary: (args, result) -> int.
COUNTERS = {
    "synthdata.save_dataset": lambda args, result: os.path.getsize(args[1]),
    "synthdata.load_dataset": lambda args, result: os.path.getsize(args[0]),
    "jsonutil.sha256_file": lambda args, result: os.path.getsize(args[0]),
    "nld.intra_inconsistency": lambda args, result: len(result),
    "nld.inter_inconsistency": lambda args, result: len(result),
    "evaluation.score_trials": lambda args, result: len(args[1]),
}


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error, result = True, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = clock()
                stack.pop()
                count = counter(args, result) if counter is not None and not error else 0
                spans.append((span_id, parent, name, start, end, error, count))

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        error = True
        start = time.perf_counter()
        try:
            yield
            error = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, error, 0))


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def install(tracer: Tracer, package: str = "labelnoise"):
    """Wrap the package's public functions and methods where they are looked up.

    The package must already be imported (importing ``<package>.cli``
    imports every module). One wrapper is made per function, so every
    namespace that refers to it gets the same traced callable. Returns a
    callable that puts the originals back.
    """
    prefix = package + "."
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]
    wrapped: dict[int, object] = {}
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, fn, name):
        key = id(fn)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(name, fn)
        patched.append((owner, attr, fn))
        setattr(owner, attr, wrapped[key])

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, types.FunctionType) and value.__module__.startswith(prefix):
                name = f"{_short(value.__module__)}.{value.__name__}"
                patch(mod, attr, value, name)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for meth_name, meth in list(vars(value).items()):
                    if meth_name.startswith("_") or not isinstance(meth, types.FunctionType):
                        continue
                    name = f"{_short(mod.__name__)}.{value.__name__}.{meth_name}"
                    patch(value, meth_name, meth, name)

    def restore():
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)

    return restore
