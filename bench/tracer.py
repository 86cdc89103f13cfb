"""In-memory span tracer that wraps ustatboot functions from outside.

Each traced layer is a function or a kernel method of the library.  On
``install`` the function object is looked up in its home module and then
replaced, by identity, wherever it is bound across the loaded ``ustatboot.*``
modules, so ``from .x import y`` rebindings are traced too and a function
that moves between modules is still found.  Kernel methods are patched on
their class.  ``uninstall`` restores every binding it replaced.

A span is (layer, start_ns, end_ns, parent span, op id).  Spans stay in a
list until the run ends; self time is each span's duration minus the time
its direct child spans cover, so the self times of one op sum to the
duration of its root span.  Layers that are only counted (``span=False``)
leave their time with the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

_MISSING = object()


@dataclass(frozen=True)
class Layer:
    """One traced function.

    ``name`` prefixes its counters (``<name>.calls``, ``<name>.errors``,
    ``<name>.status.<label>``); ``attr`` is ``func`` or ``Class.method`` in
    ``module``.  ``work`` maps the call arguments to a computed work count
    added to the counter ``work_name``; ``outcome`` maps the return value to
    a status label.
    """

    name: str
    module: str
    attr: str
    span: bool = True
    work_name: str = ""
    work: Callable[..., int] | None = None
    outcome: Callable[[Any], str] | None = None


def _library_modules() -> list[Any]:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "ustatboot" or key.startswith("ustatboot."))
    ]


class Tracer:
    def __init__(self, layers: list[Layer]):
        self.layers = layers
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = _library_modules()
        for idx, layer in enumerate(self.layers):
            try:
                home = importlib.import_module(layer.module)
            except ImportError:
                self.missing.append(layer.name)
                continue
            owner_name, _, attr = layer.attr.rpartition(".")
            if owner_name:
                cls = getattr(home, owner_name, None)
                fn = getattr(cls, attr, None) if cls is not None else None
                if fn is None:
                    self.missing.append(layer.name)
                    continue
                self._patch(cls, attr, self._wrapper(idx, fn))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(layer.name)
                continue
            wrapped = self._wrapper(idx, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, vars(owner).get(key, _MISSING)))
        setattr(owner, key, value)

    def _wrapper(self, idx: int, fn: Callable) -> Callable:
        layer = self.layers[idx]
        counters = self.counters
        calls_key = layer.name + ".calls"
        errors_key = layer.name + ".errors"

        if not layer.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        work, work_name, outcome = layer.work, layer.work_name, layer.outcome
        status_prefix = layer.name + ".status."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[calls_key] += 1
            if work is not None:
                counters[work_name] += work(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append(None)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[errors_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (idx, start, end, parent, self.op_id)
            if outcome is not None:
                counters[status_prefix + outcome(result)] += 1
            return result

        return traced

    # -- results --------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time in nanoseconds per span layer."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {layer.name: 0 for layer in self.layers if layer.span}
        for k, (idx, start, end, _, _) in enumerate(self.spans):
            totals[self.layers[idx].name] += end - start - covered[k]
        return totals

    def write(self, path) -> None:
        payload = {
            "layers": [layer.name for layer in self.layers],
            "fields": ["layer", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
