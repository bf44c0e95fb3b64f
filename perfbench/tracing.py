"""Benchmark-side spans around the public functions of pencilspec's layers.

The program has no spans of its own, so the traced run wraps each layer's
public functions from outside.  A wrapper is installed in every
``pencilspec`` module namespace that holds the function (``cli`` and
``conditions`` both import ``kth_power_test`` by name), so a call made
through any of those names is recorded.

Span stacks are thread-local: ``conditions.analyze`` runs word checks in a
thread pool, and one shared stack would make a worker's span the child of
whatever the main thread had open, giving negative self times.  A span
opened on a thread with an empty stack takes the root span in flight (the
``cli.main`` call) as its parent, so pool work still belongs to the command
that caused it.  Self time subtracts only children on the span's own
thread, so the time a parent spends blocked on pool workers stays in its
self time; ``busy_s`` sums span durations over all threads.  Each span also
records the CPU time of its thread, which separates working from waiting.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

ROOT = "cli.main"

# Public functions wrapped per layer module.  A name missing from its module
# (removed by a later change) is skipped, and its metrics read zero.
LAYER_FUNCTIONS = {
    "cli": ("main", "cmd_analyze", "cmd_decompose", "cmd_corollary", "load_tuple"),
    "conditions": (
        "analyze",
        "enumerate_words",
        "realize_word",
        "check_admissibility",
        "sample_admissible",
    ),
    "charpoly": ("kth_power_test", "cluster_roots"),
    "linalg": ("eigendecompose_clustered", "shift_to_invertible"),
    "decomposer": (
        "decompose",
        "unify_layers",
        "extend_closure",
        "build_block_unitary",
        "verify_decomposition",
    ),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0            # CPU time of the span's thread while it was open
    child_wall: float = 0.0     # wall time of children on the same thread
    child_cpu: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._root_id = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def _on_result(self, name, result):
        if name == "conditions.enumerate_words":
            self._count("conditions.words", len(result[0]))

    def _on_error(self, name, exc):
        if name == "decomposer.decompose":
            self._count("decomposer.errors")
            self._count(f"decomposer.errors.{type(exc).__name__}")

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = next(tracer._ids)
            span = Span(span_id, stack[-1].id if stack else tracer._root_id, name)
            if name == ROOT and not stack:
                tracer._root_id = span_id
            stack.append(span)
            span.cpu = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._on_error(name, exc)
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - span.cpu
                stack.pop()
                if stack:
                    stack[-1].child_wall += span.wall
                    stack[-1].child_cpu += span.cpu
                elif name == ROOT:
                    tracer._root_id = None
                with tracer._lock:
                    tracer.spans.append(span)
            tracer._on_result(name, result)
            return result

        return wrapper

    def install(self):
        """Swap every layer function for its wrapper in all pencilspec modules."""
        wrapped = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"pencilspec.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "pencilspec" and not modname.startswith("pencilspec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s, self_cpu_s (totals)."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "self_cpu_s": 0.0})
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["busy_s"] += s.wall
            row["self_s"] += s.wall - s.child_wall
            row["self_cpu_s"] += s.cpu - s.child_cpu
        return dict(out)

    def children_of(self, parent_name, child_name) -> int:
        """Number of ``child_name`` spans whose parent is a ``parent_name`` span."""
        names = {s.id: s.name for s in self.spans}
        return sum(
            1 for s in self.spans if s.name == child_name and names.get(s.parent) == parent_name
        )

    def root_wall(self) -> float:
        return sum(s.wall for s in self.spans if s.name == ROOT)
