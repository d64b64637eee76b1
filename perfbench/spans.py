"""Per-function spans over the program's modules, without editing them.

A :class:`Tracer` wraps each target function by object identity in every
loaded module of the package that binds it, so a function imported into
another module (``from .graph import diameter``) is traced wherever it is
called from.  Spans nest on a stack: a function's self time is its duration
minus the time its traced callees took.  Leaving the ``with`` block puts the
original objects back.  A target that no longer exists is marked absent and
reports zero calls.  :func:`call_overhead_s` measures what one traced call
costs, so the cost of tracing a run can be estimated from that same run.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "openmax"


class Stat:
    __slots__ = ("calls", "s", "self_s", "present")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.present = True


class Tracer:
    """Accumulate calls, inclusive and self time for ``module.function`` targets."""

    def __init__(self, targets: tuple[str, ...]) -> None:
        self.stats = {t: Stat() for t in targets}
        # (parent target, child target) -> seconds the child ran under the parent
        self.child_s: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        originals = {}
        for target, stat in self.stats.items():
            mod_name, fn_name = target.rsplit(".", 1)
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if callable(fn):
                originals[target] = fn
            else:
                stat.present = False
        for target, fn in originals.items():
            wrapper = self._wrap(target, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc: object) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, target: str, fn):
        stat = self.stats[target]
        stack = self._stack
        child_s = self.child_s
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [target, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    child_s[(parent[0], target)] += dt

        return traced

    def children_s(self, parent: str) -> float:
        """Total time of the traced calls made directly under ``parent``."""
        return sum(s for (p, _), s in self.child_s.items() if p == parent)


def call_overhead_s(n: int = 100_000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a plain call: the median over
    ``repeats`` timings of ``n`` calls of a no-op nested in a parent span."""

    def noop() -> None:
        pass

    probe = Tracer(())
    probe.stats["noop"] = Stat()
    traced = probe._wrap("noop", noop)
    probe._stack.append(["parent", 0.0])
    extra = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            noop()
        t1 = perf_counter()
        for _ in range(n):
            traced()
        t2 = perf_counter()
        extra.append((t2 - t1) - (t1 - t0))
    return statistics.median(extra) / n
