"""In-memory spans recorded around calls into the library's modules.

A span has a name, start, end, parent span and run id.  Names of the form
`<layer>.<function>` attribute the span to a layer (a package module);
names without a dot are containers whose self time is unattributed.
Spans stay in memory and are written once, at the end of a traced pass.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str | None:
        return self.name.split(".", 1)[0] if "." in self.name else None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, parent, self.run_id,
                   time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec.span_id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span], root: Span
                     ) -> tuple[dict[str, float], float]:
    """Per-layer self time inside `root`, and the unattributed remainder.

    The layer times plus the remainder sum to `root`'s duration.
    """
    own = self_times(spans)
    inside = {root.span_id}
    layers: dict[str, float] = {}
    unattributed = 0.0
    for s in spans:  # parents are recorded before their children
        if s.span_id != root.span_id and s.parent not in inside:
            continue
        inside.add(s.span_id)
        if s.layer is None:
            unattributed += own[s.span_id]
        else:
            layers[s.layer] = layers.get(s.layer, 0.0) + own[s.span_id]
    return layers, unattributed
