"""In-memory spans around the calls into each traceinv layer.

A span is (name, start, end, parent, case, attrs).  Spans nest: the one
open when another starts is its parent, and all spans of one benchmark
case share the case id.  A span's self time is its duration minus the
durations of its direct children; summed over a case, self times add up
to the case's root span.

The benchmark opens spans itself around the calls it makes (victim
``train``, ``save_trace``, the two ``cli.main`` invocations) and hooks the
names the package looks up at call time, so the spans inside the CLI and
the solver are recorded without editing the package.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, attributes read from the return value).
# Each entry patches the name where its caller looks it up.
HOOKS = (
    ("traceinv.cli", "load_trace", "trace.load", lambda r: {"epochs": r.epochs}),
    ("traceinv.cli", "solve", "solver.solve",
     lambda r: {"starts": r.starts_tried, "converged": bool(r.converged)}),
    ("traceinv.cli", "save_report", "cli.save_report", None),
    ("traceinv.cli", "load_dataset", "cli.load_dataset", None),
    ("traceinv.cli", "verify_reconstruction", "solver.verify", None),
    ("traceinv.solver", "residuals", "system.residuals", None),
    ("traceinv.solver", "jacobian", "system.jacobian", None),
    ("traceinv.solver", "train", "model.train", lambda r: {"epochs": r.epochs}),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "attrs")

    def __init__(self, name, start, parent, case):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.case = case
        self.attrs = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "case": self.case, "attrs": self.attrs}


class Tracer:
    """Records spans for one benchmark process; ``install`` patches HOOKS."""

    def __init__(self):
        self.spans = []
        self.case = None
        self.missing = []  # span names whose hook target no longer exists
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        """Open a span; the yielded dict becomes the span's attributes."""
        sp = self._open(name)
        sp.attrs = {}
        try:
            yield sp.attrs
        finally:
            self._close(sp)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.case)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, read):
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if read is not None:
                sp.attrs = read(result)
            return result

        return traced

    def install(self):
        """Patch every hook target that exists; warn about the others."""
        for module_name, attr, name, read in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                    print(f"warning: {module_name}.{attr} not found; "
                          f"{name} metrics are absent", file=sys.stderr)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, read))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own
