"""Spans recorded from outside the program, at ctcdec's layer boundaries.

``Tracer.install`` replaces a module-level function of ctcdec with a timing
wrapper in every ctcdec module that holds it (callers bind names with
``from .x import f``, so each importing module has its own reference).
This works in-process because the benchmark decodes with ``jobs=1``. The
calls the benchmark makes itself (``run_batch``, ``evaluate``) are wrapped
with ``Tracer.span`` at the call site. Spans stay in memory until
``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    #: Work done by one call, from its arguments and result (frames, words, bytes...).
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


RECORD = Layer("batch", "decode_record")
LAYERS = (
    RECORD,
    Layer("matio", "load_matrix", lambda args, result: os.path.getsize(args[0])),
    Layer("search", "prefix_beam_search", lambda args, result: args[0].num_frames),
    Layer("dictionary", "decode_dictionary"),
    Layer("expressions", "decode_expression"),
    Layer("ctc", "marginal_word_confidences", lambda args, result: len(result)),
    Layer("committee", "combine_hypotheses", lambda args, result: len(result.text.split())),
    Layer("bestpath", "decode_best_path"),
)

# Span fields, kept as lists while open.
NAME, START, END, PARENT, LINE, COUNT = range(6)


class Tracer:
    """Records ``[name, start, end, parent, line_id, count]`` spans."""

    def __init__(self, before_record: Callable[[], None] | None = None) -> None:
        #: Called before each ``decode_record`` span opens (host sampling).
        self.before_record = before_record
        self.spans: list[list] = []
        self._open: list[int] = []
        self._line: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, count: Callable | None = None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if name == RECORD.name:
            if self.before_record is not None:
                self.before_record()
            self._line = args[0].line_id
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._line, 0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = perf_counter()
            self._open.pop()
            if name == RECORD.name:
                self._line = None
        if count is not None:
            record[COUNT] = count(args, result)
        return result

    def install(self, layers) -> None:
        for layer in layers:
            original = getattr(importlib.import_module(f"ctcdec.{layer.module}"), layer.function)

            def traced(*args, _fn=original, _layer=layer, **kwargs):
                return self.span(_layer.name, _fn, *args, count=_layer.count, **kwargs)

            wrapper = functools.wraps(original)(traced)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "ctcdec" and not mod_name.startswith("ctcdec."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and summed counts.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap (one thread).
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = {}
        for s, covered in zip(self.spans, child):
            t = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
            t["calls"] += 1
            t["total_s"] += s[END] - s[START]
            t["self_s"] += s[END] - s[START] - covered
            t["count"] += s[COUNT]
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start_s": s[START] - origin,
                    "end_s": s[END] - origin, "parent": s[PARENT], "line": s[LINE],
                    "count": s[COUNT],
                }) + "\n")
