"""In-process span tracer for the public functions of decograph.

``Tracer.install`` replaces each listed function in every ``decograph.*``
namespace that binds it, so calls the library makes to itself (``moves``
imports ``build_graph`` by name, for instance) are traced too.  Spans are
kept in flat arrays while tracing is active and folded into per-function
call counts and self times at the end; ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable

# module -> public functions traced, as named in the benchmark's per-layer metrics.
TRACED = {
    "graph": ["build_graph", "cycle_basis", "spanning_tree", "tree_path",
              "boundary_isomorphism", "is_connected"],
    "decoration": ["make_decoration", "validate_decoration", "apply_trivial_mod",
                   "trivial_mod_equivalent", "cycle_b"],
    "lattice": ["solve_lattice"],
    "moves": ["ih_apply", "apply_script", "with_hashes", "snapshot_hash",
              "normalize_to_apple_tree", "ih_plan"],
    "invariants": ["classify", "equivalent", "normal_form", "build_canonical_apple"],
    "oracle": ["move_orbit"],
    "textio": ["parse_decorated_graph", "serialize_decorated_graph",
               "parse_script", "serialize_script"],
}


class Tracer:
    """Records one span per call of each wrapped function while active.

    A span is (function index, start, end, parent span index or -1); the
    parent is the innermost traced call open when the span began.  Self time
    is a span's duration minus the durations of its direct children.
    ``observers`` maps a qualified name to a callable run on (args, kwargs,
    result) after each active call, for counts read from arguments or results.
    """

    def __init__(self, package: str, targets: dict[str, list[str]],
                 observers: dict[str, Callable] | None = None):
        self.package = package
        self.names = [f"{m}.{f}" for m, fs in targets.items() for f in fs]
        self.observers = observers or {}
        self.active = False
        self.wall = 0.0  # seconds spent inside active regions
        self._since = 0.0
        self._fn = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for mod in {q.split(".")[0] for q in self.names}:
            importlib.import_module(f"{self.package}.{mod}")  # some are imported lazily
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for idx, qual in enumerate(self.names):
            mod, fn = qual.split(".")
            original = getattr(sys.modules[f"{self.package}.{mod}"], fn)
            wrapper = self._wrap(idx, original, self.observers.get(qual))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def restore(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, idx: int, fn: Callable, observe: Callable | None) -> Callable:
        clock = time.perf_counter
        fns, starts, ends, parents, stack = (
            self._fn, self._start, self._end, self._parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(fns)
            fns.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- active regions --------------------------------------------------

    def __enter__(self):
        self.active = True
        self._since = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._since
        self.active = False
        return False

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """qualified name -> (calls, self seconds), every traced name listed."""
        n = len(self._fn)
        child = [0.0] * n
        for s in range(n):
            p = self._parent[s]
            if p >= 0:
                child[p] += self._end[s] - self._start[s]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for s in range(n):
            f = self._fn[s]
            calls[f] += 1
            self_s[f] += self._end[s] - self._start[s] - child[s]
        return {q: (calls[i], self_s[i]) for i, q in enumerate(self.names)}

    def untraced_gap(self) -> float:
        """Active wall time not covered by any top-level span."""
        covered = sum(self._end[s] - self._start[s]
                      for s in range(len(self._fn)) if self._parent[s] < 0)
        return self.wall - covered
