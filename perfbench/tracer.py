"""Call counts, self times and cross-layer spans for logcouple, from outside it.

``Tracer.wrap_module`` replaces a module's public functions, the public
methods of the classes it defines, and any named operators with wrappers
that time each call.  A call's self time is its duration minus the
durations of the wrapped calls it makes, so the self times of all calls
add up to the time spent inside top-level wrapped calls (``top_s``).

Spans are kept only for calls that enter a layer from another layer, and
never for calls into ``gamma``: those are too many to keep, and counters
cover them.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


# Layers entered too often to keep a span per call; their calls are only counted.
NO_SPAN_LAYERS = frozenset({"gamma"})


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # (layer, name) -> [calls, self seconds]
        self.stats: Dict[Tuple[str, str], List] = {}
        # one frame per active wrapped call: [child seconds, layer, span id]
        self.stack: List[list] = []
        self.top_s = 0.0
        # [span id, parent span id, operation, name, start, end]
        self.spans: List[list] = []
        self.operation = -1

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.top_s = 0.0
        self.spans.clear()

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault((layer, name), [0, 0.0])
        stack, spans, clock = self.stack, self.spans, self.clock
        keep_spans = layer not in NO_SPAN_LAYERS
        qualified = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = parent[2] if parent is not None else -1
            if keep_spans and (parent is None or parent[1] != layer):
                record = [len(spans), span, tracer.operation, qualified, 0.0, 0.0]
                spans.append(record)
                span = record[0]
            else:
                record = None
            frame = [0.0, layer, span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if parent is None:
                    tracer.top_s += elapsed
                else:
                    parent[0] += elapsed
                if record is not None:
                    record[4], record[5] = t0, t1

        return wrapper

    def wrap_module(self, module, layer: str, operators: Optional[Dict[type, Iterable[str]]] = None) -> None:
        """Wrap in place; modules imported afterwards bind the wrappers.

        ``operators`` names extra methods to wrap per class, such as dunders.
        """
        operators = operators or {}
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(module, name, self.wrap(layer, name, obj))
            elif inspect.isclass(obj):
                methods = [m for m, f in vars(obj).items() if not m.startswith("_") and inspect.isfunction(f)]
                for method in methods + list(operators.get(obj, ())):
                    setattr(obj, method, self.wrap(layer, f"{name}.{method}", vars(obj)[method]))

    def self_seconds(self) -> float:
        return sum(stat[1] for stat in self.stats.values())
