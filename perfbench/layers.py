"""Outside-in tracing of latkit's modules for the per-layer run.

Each traced function is replaced by a timing wrapper at every import site:
``latkit.incremental.is_member``, ``latkit.decompose.is_member`` and
``latkit.core.is_member`` all point at the same wrapper, so the span is
recorded whichever module makes the call.  ``LatticeBasis`` is traced through
its ``__init__``, which keeps ``isinstance`` working.  The program itself is
not edited.

A span is (id, parent id, name, start, end, instance).  A stack of open spans
gives each span's parent, and a span's self time is its duration minus the
time of its direct children.  latkit is single-threaded and has no queues, so
no layer waits.  Spans of the first pass are kept in memory and written out
when the run ends; totals are kept for every pass.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer -> functions traced in it.  Each layer is a latkit module.
TRACED = {
    "cli": ("parse_lattice_file", "main"),
    "incremental": ("incremental_basis",),
    "core": ("is_member", "volume_sq", "lattice_equal"),
    "reduction": ("mlll", "basis_union"),
    "enumeration": ("enumerate_up_to",),
    "minima": ("successive_minima",),
    "decompose": ("orthogonal_decomposition",),
}
# Oracles checked outside the timed loop, timed as the verify layer.
ORACLES = ("lattice_equal", "greedy_minima_oracle", "minkowski_check",
           "graph_decomposition_oracle")


def _length(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


class Tracer:
    """Spans and per-function totals for one traced run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.instance = ""
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._suspended = 0
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------
    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._open[frame[1]] -= 1
        span_id, name, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent_id = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent_id = self._stack[-1][0]
        if self.keep_spans:
            self.spans.append((span_id, parent_id, name, start, end,
                               self.instance))

    def wrap(self, name: str, fn, on_result=None):
        """Timing wrapper that records a span named ``name``.

        While the tracer is suspended (during verification) calls pass
        straight through, so oracles do not count as program work.
        """

        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    @contextmanager
    def suspended(self):
        """Stop recording program spans, e.g. while outputs are checked."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def oracle(self, name: str, fn):
        """Wrapper for one oracle call: times it as a single verify span,
        recorded even while program spans are suspended."""
        full = f"verify.{name}"

        def timed(*args):
            frame = self._enter(full)
            try:
                with self.suspended():
                    return fn(*args)
            finally:
                self._exit(frame)

        return timed

    # -- counts at the layer boundaries -------------------------------
    def _count_insertions(self, args, result) -> None:
        _, trace = result
        self.counts["incremental.insertions"] += trace.localization_count
        self.counts["incremental.updates"] += trace.update_count

    def _count_mlll(self, args, basis) -> None:
        self.counts["reduction.mlll.input_vectors"] += _length(args[0])
        if self._open["decompose.orthogonal_decomposition"]:
            self.counts["decompose.merges"] += 1

    def _count_vectors(self, args, s) -> None:
        self.counts["enumeration.vectors"] += len(s.vectors)

    def _count_components(self, args, decomposition) -> None:
        self.counts["decompose.components"] += decomposition.r

    # -- installation -------------------------------------------------
    def install(self, latkit) -> None:
        """Wrap every traced function at every latkit import site."""
        hooks = {
            "incremental.incremental_basis": self._count_insertions,
            "reduction.mlll": self._count_mlll,
            "enumeration.enumerate_up_to": self._count_vectors,
            "decompose.orthogonal_decomposition": self._count_components,
        }
        modules = [latkit] + [getattr(latkit, layer) for layer in TRACED]
        for layer, names in TRACED.items():
            home = getattr(latkit, layer)
            for fn_name in names:
                original = getattr(home, fn_name)
                full = f"{layer}.{fn_name}"
                wrapper = self.wrap(full, original, hooks.get(full))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cls = latkit.core.LatticeBasis
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap("core.LatticeBasis", cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, inst in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "instance": inst}) + "\n")
