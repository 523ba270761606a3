"""Span tracing of condmeasure's public functions, from outside the package.

The tracer wraps each listed function and, while active, replaces every
binding of it across the ``condmeasure.*`` module namespaces and the
benchmark's own modules: modules such as ``sigma`` and ``measure``
import ``cond_intersection`` by name, and so do the workloads, so
patching only the defining module would miss most calls.  Methods are
replaced on their class.  Everything is restored on exit.

A span is one call of a wrapped function.  Spans are aggregated as they
close instead of being stored, because one verify pass opens millions
of them: per function the call count and the self time (duration minus
the time covered by child spans), and per (parent, child) pair the
number of calls.  The hot leaves are counted without a span; their time
stays in the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

#: (module, qualified name, span) for every traced function.  ``span``
#: False marks the hot leaves that only get a call count.
TRACED: tuple[tuple[str, str, bool], ...] = (
    ("condsets", "ConditionalSet.__init__", False),
    ("condsets", "cond_intersection", True),
    ("condsets", "cond_union", True),
    ("condsets", "cond_difference", True),
    ("condsets", "cond_le", True),
    ("condsets", "CondSpace.complement", True),
    ("condsets", "CondSpace.all_sets", True),
    ("sigma", "SetRing.from_members", True),
    ("sigma", "members", True),
    ("sigma", "generate_sigma", True),
    ("sigma", "generate_dynkin", True),
    ("sigma", "mix_closure", True),
    ("sigma", "classify", True),
    ("measure", "StableMeasure.eval", True),
    ("measure", "OuterMeasure.__init__", True),
    ("measure", "OuterMeasure.evaluate", True),
    ("measure", "is_caratheodory_measurable", True),
    ("measure", "caratheodory_extend", True),
    ("measure", "check_measure_axioms", True),
    ("measure", "uniqueness_check", True),
    ("integral", "Integrand.__init__", True),
    ("integral", "ElementaryFunction.__init__", True),
    ("integral", "canonical_elementary", True),
    ("integral", "integrate", True),
    ("integral", "integrate_via_dyadic", True),
    ("kernels", "conditional_distribution", True),
    ("kernels", "conditional_expectation", True),
    ("kernels", "measure_to_kernel", True),
    ("product", "product_sigma", True),
    ("product", "product_measure", True),
    ("product", "fubini", True),
    ("product", "markov_product", True),
    ("product", "hahn_positive_set", True),
    ("product", "radon_nikodym", True),
    ("product", "daniell_stone_finite", True),
    ("classical", "outer_mass", True),
    ("classical", "caratheodory_blocks", True),
    ("classical", "integral", True),
    ("classical", "blocks_from_sets", True),
    ("algebra", "Field.__init__", False),
    ("algebra", "ext_sum", False),
    ("scenario", "build_scenario", True),
    ("scenario", "run_scenario", True),
    ("scenario", "render_text", True),
)

#: Top-level names of the modules whose bindings the tracer replaces.
NAMESPACES = ("condmeasure", "frontier", "ladder", "scenarios", "workloads")

# ``sigma.members`` names the member enumeration of stable rings and
# sigma-algebras, which both inherit it from one base class.
_ALIASES = {("sigma", "members"): "_PerAtomFamily.members"}


@dataclass
class TraceStats:
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    wall_s: float = 0.0

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)


class Tracer:
    """Context manager that wraps the functions in ``TRACED`` while active."""

    def __init__(self):
        self.stats = TraceStats()
        # Each open span holds [key, time covered by its children].
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span_wrapper(self, key: str, fn):
        stats, stack, clock = self.stats, self._stack, time.perf_counter
        calls, self_s, edges = stats.calls, stats.self_s, stats.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if stack:
                edge = (stack[-1][0], key)
                edges[edge] = edges.get(edge, 0) + 1
            frame = [key, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _generator_wrapper(self, key: str, fn):
        # A generator's body runs during iteration, not during the call,
        # so every step of the iteration is timed as a piece of its span.
        stats, stack, clock = self.stats, self._stack, time.perf_counter
        calls, self_s, edges = stats.calls, stats.self_s, stats.edges

        def steps(it):
            while True:
                frame = [key, 0.0]
                stack.append(frame)
                started = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    duration = clock() - started
                    stack.pop()
                    self_s[key] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if stack:
                edge = (stack[-1][0], key)
                edges[edge] = edges.get(edge, 0) + 1
            return steps(fn(*args, **kwargs))

        return wrapper

    def _count_wrapper(self, key: str, fn):
        calls = self.stats.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] in NAMESPACES]
        for module, name, span in TRACED:
            key = f"{module}.{name}"
            self.stats.calls[key] = 0
            if span:
                self.stats.self_s[key] = 0.0
            owner = importlib.import_module(f"condmeasure.{module}")
            path = _ALIASES.get((module, name), name).split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            target = raw.__func__ if isinstance(raw, classmethod) else raw
            if not span:
                wrapped = self._count_wrapper(key, target)
            elif inspect.isgeneratorfunction(target):
                wrapped = self._generator_wrapper(key, target)
            else:
                wrapped = self._span_wrapper(key, target)
            if isinstance(owner, type):
                self._set(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            # Every name bound to the function in those modules; for a
            # method, module-level aliases such as a saved original.
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is target:
                        self._set(m, alias, wrapped)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stats.wall_s += time.perf_counter() - self._started
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._stack.clear()
