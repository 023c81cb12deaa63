"""Span tracer for the traced run, installed from outside the program.

It wraps the public functions of each ``ebrc`` module, and the public
methods of the classes each module defines, and records a span whenever a
call crosses from one layer into another. A call that stays inside its
caller's layer is only counted; its time stays in the caller's span. The
layers are the twelve modules. Calls made by the benchmark's own code have
the root, layer ``bench``, as parent; its time is what the spans leave of
the pass's wall time.

Modules bind names such as ``digest`` by import, so each wrapped function is
also rebound in every module that holds the original object. Properties and
dunder methods are not wrapped; their time lands in the calling layer.
Three private runner entry points are wrapped on purpose, so that glue time
is charged to ``runner`` and not to the caller:

- ``ScenarioRunner.__init__`` (``runner.init_ms``);
- ``ScenarioRunner._deliver`` and ``ScenarioRunner._timer``, the callbacks
  through which the simnet event loop reaches the replicas. Without them,
  the runner's per-event dispatch would be charged to ``simnet``.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out by ``write``. A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "crypto",
    "messages",
    "simnet",
    "consensus",
    "election",
    "reputation",
    "djep",
    "runner",
    "harness",
    "config",
    "presets",
    "cli",
)
ROOT_LAYER = "bench"
PRIVATE_ENTRY_POINTS = {"ScenarioRunner": ("__init__", "_deliver", "_timer")}


class Tracer:
    """Counts and spans of one traced pass; install it once, as a context
    manager around the pass."""

    def __init__(self) -> None:
        self.modules = {layer: importlib.import_module(f"ebrc.{layer}") for layer in LAYERS}
        self.layer_names: List[str] = [ROOT_LAYER, *LAYERS]
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.calls: List[int] = []
        self.errors: List[int] = []
        self.inclusive_ns: List[int] = []
        self.self_ns: List[int] = [0] * len(self.layer_names)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # Open spans: [layer id, ns covered by child spans, span index].
        self._stack: List[list] = [[0, 0, -1]]
        self._restore: List[Tuple[object, str, object]] = []
        self._hooks: Dict[str, Callable] = {}

    # -- installation --

    def hook(self, name: str, before: Callable) -> None:
        """Call ``before(*args, **kwargs)`` ahead of the named function, inside
        its span. Must be set before ``install``."""
        self._hooks[name] = before

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped: Dict[int, object] = {}
        for layer, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[id(value)] = self._wrap(value, layer, f"{layer}.{attr}")
                elif inspect.isclass(value):
                    self._wrap_class(value, layer)
        # Rebind every module-level name that holds an original function.
        namespaces = [importlib.import_module("ebrc"), *self.modules.values()]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _wrap_class(self, cls: type, layer: str) -> None:
        extra = PRIVATE_ENTRY_POINTS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, layer, name))
            elif isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, layer, name))
            elif inspect.isfunction(raw):
                replacement = self._wrap(raw, layer, name)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        layer_id = self.layer_names.index(layer)
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer_id)
        self.calls.append(0)
        self.errors.append(0)
        self.inclusive_ns.append(0)
        calls, errors, inclusive, self_ns = self.calls, self.errors, self.inclusive_ns, self.self_ns
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns
        hook = self._hooks.get(name)
        if hook is not None:
            inner = fn

            def fn(*args, **kwargs):
                hook(*args, **kwargs)
                return inner(*args, **kwargs)

        def traced(*args, **kwargs):
            calls[name_id] += 1
            parent = stack[-1]
            if parent[0] == layer_id:
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[name_id] += 1
                    raise
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(parent[2])
            span_end.append(0)
            frame = [layer_id, 0, index]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name_id] += 1
                raise
            finally:
                end = clock()
                span_end[index] = end
                stack.pop()
                total = end - start
                inclusive[name_id] += total
                self_ns[layer_id] += total - frame[1]
                stack[-1][1] += total

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- results --

    def count(self, *names: str) -> int:
        return sum(self.calls[self.names.index(n)] for n in names)

    def raised(self, name: str) -> int:
        return self.errors[self.names.index(name)]

    def inclusive_ms(self, *names: str) -> float:
        return sum(self.inclusive_ns[self.names.index(n)] for n in names) / 1e6

    def layer_calls(self, layer: str) -> int:
        layer_id = self.layer_names.index(layer)
        return sum(c for c, l in zip(self.calls, self.name_layer) if l == layer_id)

    def self_ms(self) -> Dict[str, float]:
        """Self time of each layer; the root's share is whatever is left of
        the wall time, which the tracer cannot see from inside."""
        return {layer: ns / 1e6 for layer, ns in zip(LAYERS, self.self_ns[1:])}

    def write(self, directory: Path) -> None:
        """Write the spans as four native-endian arrays plus a JSON index.

        Span ``i`` is entry ``i`` of each array, in order of opening.
        ``span_parent`` holds the parent's index, -1 for a call made by the
        benchmark itself; ``span_start`` and ``span_end`` are
        ``perf_counter_ns`` readings; ``span_name`` indexes ``names``.
        """
        directory.mkdir(parents=True, exist_ok=True)
        for field_name in ("span_name", "span_parent", "span_start", "span_end"):
            with open(directory / f"{field_name}.bin", "wb") as fh:
                getattr(self, field_name).tofile(fh)
        index = {
            "spans": len(self.span_name),
            "names": self.names,
            "name_layer": [self.layer_names[i] for i in self.name_layer],
            "typecodes": {"span_name": "i", "span_parent": "i", "span_start": "q", "span_end": "q"},
        }
        (directory / "index.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
