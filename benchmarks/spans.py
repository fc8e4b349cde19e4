"""In-memory span recorder for the traced benchmark run.

Spans are recorded around module attributes of ``lmelab`` by replacing the
attribute with a wrapper; the package itself is never edited.  A span holds
its name, start, end and the index of the span that was open when it began,
so a layer's self time is its duration minus the durations of its direct
children (``chain.ipr`` nests inside ``chain.step_scale``, for example).

Only call boundaries of whole layers are wrapped.  Per-quadrature-node
callbacks such as ``theta.theta_density`` are never wrapped: at thousands of
calls per quadrature the wrapper would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path


class Namespace:
    """Attribute proxy for a module with some attributes overridden.

    Lets one caller's view of a shared module (``prbm.linalg`` is
    ``scipy.linalg``) be wrapped without touching any other caller.
    """

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def span(self, fn, name: str):
        """Wrap ``fn`` so every call records one span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def counter(self, fn, name: str):
        """Wrap ``fn`` so every call bumps ``counts[name]``; no span, so the
        caller's self time keeps the callee's cost."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration and summed self time."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def dump(self, path: Path) -> None:
        """Write every span as [name, start, end, parent] plus the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "spans": [
                        [n, s, e, p]
                        for n, s, e, p in zip(
                            self.names, self.starts, self.ends, self.parents
                        )
                    ],
                    "counts": dict(self.counts),
                },
                f,
            )
