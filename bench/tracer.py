"""In-memory spans around calls into isospec's public functions.

Only the traced run imports this module.  ``Tracer.install`` replaces each
listed function, wherever an isospec module binds it, with a wrapper that
records a span; ``uninstall`` puts the originals back.  A span is
``[name, start, end, parent, child_seconds, extra]``: its self time is its
duration minus the time its direct children took.  The benchmark's own
code opens spans with ``Tracer.span`` (one per CLI step, one per model
pair), so those nest with the library spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict

MODULES = (
    "isospec",
    "isospec.linalg",
    "isospec.intertwining",
    "isospec.bicoherent",
    "isospec.zoo",
    "isospec.io",
    "isospec.cli",
)

# (defining module, function, span name)
TARGETS = (
    ("linalg", "opnorm", "linalg.opnorm"),
    ("linalg", "eig", "linalg.eig"),
    ("linalg", "biorthogonal_partner", "linalg.biorthogonal_partner"),
    ("intertwining", "classify", "intertwining.classify"),
    ("intertwining", "build_model", "intertwining.build_model"),
    ("intertwining", "verify_relations", "intertwining.verify_relations"),
    ("intertwining", "structure_check", "intertwining.structure_check"),
    ("intertwining", "make_commuting_pair", "intertwining.make_commuting_pair"),
    ("bicoherent", "coherent_pair", "bicoherent.state"),
    ("bicoherent", "coherent_pair_level2", "bicoherent.state"),
    ("bicoherent", "filter_and_build", "bicoherent.state"),
    ("bicoherent", "filter_system", "bicoherent.filter"),
    # the per-z radius gate: every state calls it through _radius_gate
    ("bicoherent", "convergence_for_system", "bicoherent.gate"),
    ("bicoherent", "resolution_check", "bicoherent.resolution"),
    ("bicoherent", "quantize", "bicoherent.quantize"),
    ("bicoherent", "build_ladders", "bicoherent.ladders"),
    ("bicoherent", "build_ladders_level2", "bicoherent.ladders"),
    ("zoo", "coherent_demo", "zoo.coherent_demo"),
    ("io", "canonical_json", "io.canonical_json"),
    ("io", "save_report", "io.save_report"),
    # the read half of the io layer: the CLI's model-file loader
    ("cli", "_load_model_doc", "io.read"),
)

# Functions that call themselves through their module binding: only the
# outermost call is a span, and the recursion runs unwrapped.
RECURSIVE = {"canonical_json"}


class Tracer:
    def __init__(self):
        self.records: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter(), 0.0, parent, 0.0, 0])
        index = len(self.records) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        rec = self.records[index]
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[3] >= 0:
            self.records[rec[3]][4] += rec[2] - rec[1]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, bindings):
        tracer = self
        sized = name == "io.save_report"

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
                if sized and os.path.exists(args[1]):
                    tracer.records[index][5] = os.path.getsize(args[1])

        if fn.__name__ not in RECURSIVE:
            return wrapper

        def unbinding_wrapper(*args, **kwargs):
            for module, attr in bindings:
                setattr(module, attr, fn)
            try:
                return wrapper(*args, **kwargs)
            finally:
                for module, attr in bindings:
                    setattr(module, attr, unbinding_wrapper)

        return unbinding_wrapper

    def install(self) -> None:
        if self._patches:
            return
        for layer, attr, name in TARGETS:
            fn = getattr(importlib.import_module("isospec." + layer), attr, None)
            if fn is None:
                self.missing.append(f"isospec.{layer}.{attr}")
                continue
            bindings = [
                (module, attr)
                for module in map(importlib.import_module, MODULES)
                if module.__dict__.get(attr) is fn
            ]
            wrapper = self._wrap(name, fn, bindings)
            for module, _ in bindings:
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span, to summarize a phase on its own."""
        return len(self.records)

    def summary(self, start: int = 0, stop: int | None = None) -> dict:
        """Per span name: calls, total seconds, self seconds and extra."""
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "extra": 0})
        for name, t0, t1, _, child, extra in self.records[start:stop]:
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += t1 - t0
            entry["self"] += t1 - t0 - child
            entry["extra"] += extra
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent, self, extra)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, t0, t1, parent, child, extra in self.records:
                handle.write(
                    json.dumps([name, t0, t1, parent, t1 - t0 - child, extra]) + "\n"
                )

