"""Spans recorded around calls into dtseq's public functions.

The tracer wraps each layer's public function from outside the program:
the wrapper replaces the function in its defining module and in every
`dtseq` module that holds a reference to it, so `dtseq.cli.main` and the
benchmark's own library calls both go through it.  Spans live in memory
as (name, start, end, parent, operation, counts) and are written out once,
when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from functools import wraps


def _distinct_freq(events) -> dict:
    return {"events": len(events),
            "distinct_freq": len({e.frequency_hz for e in events}),
            "distinct_factors": len({e.factor for e in events})}


# (module, function, span name, counts taken from (args, result))
LAYER_CALLS = (
    ("dtseq.scorefile", "parse", "scorefile.parse",
     lambda a, r: {"lines": len(a[0].splitlines())}),
    ("dtseq.scorefile", "serialize", "scorefile.serialize", None),
    ("dtseq.model", "validate_composition", "model.validate",
     lambda a, r: {"warnings": sum(v.severity == "warning" for v in r)}),
    ("dtseq.resolve", "resolve_composition", "resolve.resolve",
     lambda a, r: _distinct_freq(r)),
    ("dtseq.resolve", "frequency_table", "resolve.table",
     lambda a, r: {"regions": len(r)}),
    ("dtseq.render", "synthesize", "render.synthesize",
     lambda a, r: {"samples": len(r.samples), **_distinct_freq(a[0])}),
    ("dtseq.render", "write_wav", "render.write_wav", None),
    ("dtseq.render", "export_events", "render.export_events", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    @property
    def last_op(self) -> int:
        """Id of the most recent operation; ids count up from 1."""
        return self._op

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self._op, "counts": None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """A root span: one benchmark operation, with its own id."""
        self._op += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def traced(self, name: str):
        """Install the wrappers for one operation and open its root span."""
        with self.installed(), self.operation(name) as span:
            yield span

    def wrap(self, name: str, fn, count):
        @wraps(fn)
        def call(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span["counts"] = count(args, result)
            return result
        return call

    @contextmanager
    def installed(self):
        """Route every call of the layer functions through span wrappers."""
        layers = {m: importlib.import_module(m) for m, *_ in LAYER_CALLS}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dtseq" or n.startswith("dtseq.")]
        replaced = []
        for module_name, func, name, count in LAYER_CALLS:
            original = getattr(layers[module_name], func)
            wrapper = self.wrap(name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    def self_times(self) -> list[tuple[dict, float]]:
        """Each span with its duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        return [(s, s["end"] - s["start"] - c) for s, c in zip(self.spans, child)]

    def per_call(self, name: str, ops: set[int]) -> list[float]:
        """Self times of the calls named `name` within operations `ops`."""
        return [t for s, t in self.self_times() if s["name"] == name and s["op"] in ops]

    def counts(self, name: str, key: str, ops: set[int]) -> list:
        return [s["counts"][key] for s in self.spans
                if s["name"] == name and s["counts"] and s["op"] in ops]

    def median(self, name: str, ops: set[int]) -> float:
        return statistics.median(self.per_call(name, ops))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
