"""Spans around calls into igpfix's layers, recorded from outside the package.

install() rebinds each traced function in every loaded module that binds it
(igpfix's own modules and the benchmark's), so calls between modules and
inside a module are both seen. Each span keeps
its name, parent, thread, wall-clock interval and the thread's CPU time, plus
counts read off the call's arguments and result. Spans stay in memory until
the run writes them out.

A span's self time is its thread CPU time less that of its children on the
same thread. CPU time rather than wall time, because the searches that
parallel_search starts share the interpreter lock: a wall-clock span on one
search thread also covers the other thread's work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

# layer module -> functions wrapped in it
TRACED = {
    "local_search": ("ecmp_cost", "search", "generate_starts"),
    "te": ("solve_flow", "te_cost", "solve_joint_unequal"),
    "repair": ("build_system", "solve_relaxed", "round_to_feasible", "solve_min_change",
               "verify_solution"),
    "bgp_prefs": ("derive_med_preferences",),
    "sim": ("weights_to_pspp", "simulate"),
    "pspp": ("build_path_digraph", "is_safe"),
}


@dataclass
class Span:
    name: str
    id: int
    parent: Optional[int]
    thread: int
    round: Optional[int]
    start: float
    end: float = 0.0
    cpu: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def _destinations(args: dict, result: Any) -> dict[str, float]:
    return {"destinations": len(args["demands"].destinations())}


def _search(args: dict, result: Any) -> dict[str, float]:
    # search evaluates its start, and the baseline when none is passed in,
    # before it scores any neighbour
    own = 1 + (args.get("baseline_cost") is None)
    return {"iterations": result.iterations, "own_evaluations": own}


def _solve_min_change(args: dict, result: Any) -> dict[str, float]:
    return {"budget_hit": int(result.budget_exceeded)}


def _simulate(args: dict, result: Any) -> dict[str, float]:
    steps = getattr(result, "steps", None)
    if steps is None:  # Oscillating: steps up to the recurrence that proves it
        steps = result.recurrence_step + 1
    return {"steps": steps}


def _arcs(args: dict, result: Any) -> dict[str, float]:
    return {"arcs": len(result.arcs)}


COUNTERS: dict[str, Callable[[dict, Any], dict[str, float]]] = {
    "ecmp_cost": _destinations,
    "solve_flow": _destinations,
    "search": _search,
    "solve_min_change": _solve_min_change,
    "simulate": _simulate,
    "build_path_digraph": _arcs,
}


def _budget_error(exc: BaseException) -> bool:
    return type(exc).__name__ == "InfeasibleRepairError" and "budget" in str(exc)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(name, next(self._ids), parent, threading.get_ident(), self.round,
                    time.perf_counter())
        span.cpu = -time.thread_time()
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu += time.thread_time()
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if fn.__name__ == "solve_min_change":
                    span.counts["budget_hit"] = int(_budget_error(exc))
                raise
            finally:
                self.close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counter(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"igpfix.{layer}")
            for name in names:
                orig = getattr(mod, name)
                wrapped = self.wrap(f"{layer}.{name}", orig)
                for m in list(sys.modules.values()):
                    if getattr(m, name, None) is orig:
                        setattr(m, name, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_cpu(spans: list[Span]) -> dict[int, float]:
    """Self CPU time of each span: its CPU time less its same-thread children's."""
    by_id = {s.id: s for s in spans}
    own = {s.id: s.cpu for s in spans}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            own[p.id] -= s.cpu
    return own
