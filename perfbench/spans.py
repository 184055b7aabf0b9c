"""The traced run's spans: recording, merging, self times, export.

The benchmark times public calls by replacing a method on the very
instance it built with a shim that records a span around the original
call (:meth:`SpanRecorder.wrap`); nothing inside ``src/`` changes.  The
program's own :class:`~repro.obs.tracer.Tracer` spans (planner phases,
``serve.purchase``, ``serve.evaluate``) use the same clock, so both
sources merge into one tree by time containment
(:func:`merge_program_spans`, :func:`parent_indices`).  A span's *self
time* is its duration minus its children's; a layer's time is the sum
of the self times of the spans that belong to it (:func:`layer_times`).
"""

from __future__ import annotations

import json
import time
from array import array
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from pathlib import Path

#: Span name -> layer.  A name not listed inherits its parent's layer;
#: spans with no layer on their path (the harness's own ``setup``,
#: ``timed`` and ``request`` spans) are the unattributed remainder.
LAYER_OF = {
    "planner": "planner",
    "preprocess": "planner",
    "examples": "planner",
    "statistics": "planner",
    "dismantle": "planner",
    "allocate": "planner",
    "train": "planner",
    "catalog.lookup": "catalog",
    "catalog.store": "catalog",
    "admit_and_serve": "admission",
    "engine.submit": "engine",
    "engine.run": "engine",
    "serve": "engine",
    "serve.purchase": "engine",
    "answers_many": "generate",
    "purchase_batch": "generate",
    "charge_values": "commit",
    "cache.add": "commit",
    "journal.record_answer": "commit",
    "checkpoint.save": "commit",
    "aggregate": "agg",
    "effective_count": "agg",
    "serve.evaluate": "evaluate",
}

#: Harness spans: they carry no layer of their own.
HARNESS = ("setup", "timed", "request")

LAYERS = (
    "planner",
    "catalog",
    "admission",
    "engine",
    "generate",
    "commit",
    "agg",
    "evaluate",
)

UNATTRIBUTED = "unattributed"


class SpanRecorder:
    """Spans kept in memory as flat arrays (name, start, end, parent,
    request), so a traced run of a million calls stays small.

    ``request`` is set by the harness before each request or batch;
    every span opened meanwhile carries it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.request = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span recorded around every call."""
        open_span, close_span = self._open, self._close

        def shim(*args, **kwargs):
            index = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return shim

    def wrap(self, obj: object, attribute: str, name: str) -> None:
        """Replace ``obj.attribute`` (a bound method) with a timed shim.

        Methods live on the class, so an instance attribute of that name
        is an earlier shim: wrapping twice is a no-op, and a long-lived
        object seen again by a later epoch is timed once.
        """
        if attribute in vars(obj):
            return
        setattr(obj, attribute, self.timed(getattr(obj, attribute), name))

    def records(self) -> list[tuple[str, float, float, int]]:
        """``(name, start, end, request)`` for every closed span."""
        names = self.names
        return [
            (names[name_id], start, end, request)
            for name_id, start, end, request in zip(
                self.name_ids, self.starts, self.ends, self.requests
            )
        ]


def flatten_tracer(tracer) -> list[tuple[str, float, float, int]]:
    """The program tracer's closed spans as ``(name, start, end, -1)``."""
    out: list[tuple[str, float, float, int]] = []
    pending = list(tracer.roots)
    while pending:
        span = pending.pop()
        if span.name == "<detached>" or span.end is None:
            continue
        out.append((span.name, span.start, span.end, -1))
        pending.extend(span.children)
    return out


def merge_program_spans(
    recorded: list[tuple[str, float, float, int]],
    program: list[tuple[str, float, float, int]],
) -> list[tuple[str, float, float, int]]:
    """Both span sources in one list, ordered for :func:`parent_indices`.

    Program spans take the request id of the innermost recorded span
    that contains them once the tree is built; here they keep ``-1``.
    """
    merged = recorded + program
    merged.sort(key=lambda span: (span[1], -span[2]))
    return merged


def parent_indices(spans: list[tuple[str, float, float, int]]) -> list[int]:
    """Each span's innermost enclosing span (``-1`` for roots).

    ``spans`` must be sorted by ``(start, -end)``.  Spans recorded on
    one thread at a time nest strictly; a partial overlap means the
    two sources disagree about time and raises :class:`ValueError`.
    """
    parents = [-1] * len(spans)
    stack: list[int] = []
    for index, (name, start, end, _) in enumerate(spans):
        while stack and spans[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            outer = spans[stack[-1]]
            if end > outer[2]:
                raise ValueError(
                    f"span {name!r} [{start}, {end}] overlaps {outer[0]!r} "
                    f"[{outer[1]}, {outer[2]}] without nesting in it"
                )
            parents[index] = stack[-1]
        stack.append(index)
    return parents


def self_times(
    spans: list[tuple[str, float, float, int]], parents: list[int]
) -> list[float]:
    """Duration minus the children's durations, per span."""
    selfs = [end - start for _, start, end, _ in spans]
    for index, parent in enumerate(parents):
        if parent >= 0:
            selfs[parent] -= spans[index][2] - spans[index][1]
    return selfs


def span_layers(
    spans: list[tuple[str, float, float, int]], parents: list[int]
) -> list[str]:
    """Layer per span: its own (:data:`LAYER_OF`), else its parent's."""
    layers: list[str] = []
    for index, (name, _, _, _) in enumerate(spans):
        layer = LAYER_OF.get(name)
        if layer is None:
            if name in HARNESS or parents[index] < 0:
                layer = UNATTRIBUTED
            else:
                layer = layers[parents[index]]
        layers.append(layer)
    return layers


def layer_times(layers: Iterable[str], selfs: Iterable[float]) -> dict[str, float]:
    """Sum of self times per layer, every layer present (zero if idle)."""
    totals = {layer: 0.0 for layer in (*LAYERS, UNATTRIBUTED)}
    for layer, seconds in zip(layers, selfs):
        totals[layer] += seconds
    return totals


class SpanTree:
    """A merged, parented view of one traced pass, with per-name sums."""

    def __init__(self, spans: list[tuple[str, float, float, int]]) -> None:
        self.spans = spans
        self.parents = parent_indices(spans)
        self.selfs = self_times(spans, self.parents)
        self.layers = span_layers(spans, self.parents)

    def total(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        return sum(
            (end - start for name, start, end, _ in self.spans if name in names), 0.0
        )

    def self_total(self, *names: str) -> float:
        """Summed self time of every span with one of ``names``."""
        return sum(
            (
                seconds
                for (name, _, _, _), seconds in zip(self.spans, self.selfs)
                if name in names
            ),
            0.0,
        )

    def count(self, *names: str) -> int:
        return sum(1 for name, _, _, _ in self.spans if name in names)

    def layer_self(self, root: str | None = None) -> dict[str, float]:
        """Layer self times, optionally only under spans named ``root``."""
        if root is None:
            return layer_times(self.layers, self.selfs)
        inside = [False] * len(self.spans)
        for index, (name, _, _, _) in enumerate(self.spans):
            parent = self.parents[index]
            inside[index] = name == root or (parent >= 0 and inside[parent])
        return layer_times(
            (layer for layer, keep in zip(self.layers, inside) if keep),
            (seconds for seconds, keep in zip(self.selfs, inside) if keep),
        )

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Chrome trace-event JSON (complete events), which Perfetto opens.

        Program spans inherit the request id of their recorded parent.
        """
        if not self.spans:
            raise ValueError("no spans to write")
        origin = self.spans[0][1]
        requests = [request for _, _, _, request in self.spans]
        for index, parent in enumerate(self.parents):
            if requests[index] < 0 and parent >= 0:
                requests[index] = requests[parent]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "otherData": ')
            handle.write(json.dumps(metadata, sort_keys=True))
            handle.write(', "traceEvents": [\n')
            for index, (name, start, end, _) in enumerate(self.spans):
                if index:
                    handle.write(",\n")
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "cat": self.layers[index],
                            "ph": "X",
                            "ts": round((start - origin) * 1e6, 3),
                            "dur": round((end - start) * 1e6, 3),
                            "pid": 1,
                            "tid": 1,
                            "args": {
                                "request": requests[index],
                                "parent": self.parents[index],
                            },
                        },
                        separators=(",", ":"),
                    )
                )
            handle.write("\n]}\n")
