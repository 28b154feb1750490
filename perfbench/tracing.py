"""Host-side tracing for the benchmark: spans, per-module self-time, GC.

Everything here measures the *host* clock (``time.perf_counter``).  None
of it touches the simulation: spans wrap calls from the outside, cProfile
only watches, and the GC meter only times collections the interpreter
runs anyway.  ``run.py`` checks that claim on every traced run by
comparing the traced and untraced determinism digests.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Spans", "GcMeter", "LayerProfile", "layer_of", "OTHER"]

# Bucket for time spent outside ``src/repro`` that no repro caller owns:
# the interpreter, the standard library called from it, and this
# benchmark's own code.
OTHER = "other"

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> Optional[str]:
    """``.../src/repro/ramcloud/server.py`` → ``"ramcloud.server"``;
    None for files outside the ``repro`` package (stdlib, builtins)."""
    cut = filename.rfind(_MARKER)
    if cut < 0 or not filename.endswith(".py"):
        return None
    parts = filename[cut + len(_MARKER):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


class Spans:
    """Host spans kept in memory: ``(id, name, start, end, parent)``.

    Times are ``perf_counter`` seconds; ``parent`` is the id of the span
    that was open when this one began (None at the root)."""

    def __init__(self) -> None:
        self.records: List[Tuple[int, str, float, float, Optional[int]]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the ``with`` body; yields its id."""
        span_id = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append((span_id, name, time.perf_counter(), 0.0, parent))
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            _id, _name, start, _end, _parent = self.records[span_id]
            self.records[span_id] = (span_id, name, start,
                                     time.perf_counter(), parent)

    def add(self, name: str, start: float, end: float) -> int:
        """Record a span between two marks taken elsewhere, under the
        currently open span."""
        span_id = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append((span_id, name, start, end, parent))
        return span_id

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for _id, n, start, end, _p in self.records
                   if n == name)

    def as_json(self) -> List[Dict[str, object]]:
        """The spans as JSON-ready dicts, times relative to the first."""
        if not self.records:
            return []
        origin = self.records[0][2]
        return [{"id": i, "name": n, "start_s": s - origin,
                 "end_s": e - origin, "parent": p}
                for i, n, s, e, p in self.records]


class GcMeter:
    """Times every cyclic-GC pass through ``gc.callbacks``.

    Each pause is also charged to the layer whose code was running when
    the collection started, so :class:`LayerProfile` can take it out of
    that layer's self-time (cProfile charges a pause to whatever
    function triggered it)."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self.by_layer: Dict[str, float] = {}
        self._started = 0.0
        self._layer = OTHER

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            # Frame 1 is the code that allocated; a non-repro frame is
            # charged to its caller, as LayerProfile charges it.
            frame = sys._getframe(1)
            layer = layer_of(frame.f_code.co_filename)
            if layer is None and frame.f_back is not None:
                layer = layer_of(frame.f_back.f_code.co_filename)
            self._layer = layer or OTHER
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.collections += 1
        self.pause_s += pause
        layer = self._layer
        self.by_layer[layer] = self.by_layer.get(layer, 0.0) + pause

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._on_gc)


class LayerProfile:
    """cProfile self-time grouped by ``repro`` module, GC taken out.

    A function outside ``repro`` (a builtin, the standard library) is
    charged to the repro module that called it, one level up, using
    cProfile's per-caller times; what no repro module called lands in
    :data:`OTHER`.  With the GC pauses moved to their own bucket, the
    module self-times plus the GC pause sum to the profiled wall time.
    """

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.wall_s = 0.0
        self._started = 0.0

    def __enter__(self) -> "LayerProfile":
        self._started = time.perf_counter()
        self.profile.enable()
        return self

    def __exit__(self, *_exc) -> None:
        self.profile.disable()
        self.wall_s = time.perf_counter() - self._started

    def self_times(self, gc_meter: Optional[GcMeter] = None
                   ) -> Dict[str, float]:
        """Module → self seconds, net of the GC pauses charged to it."""
        own: Dict[str, float] = {OTHER: 0.0}
        stats = pstats.Stats(self.profile).stats
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            layer = layer_of(func[0])
            if layer is not None:
                own[layer] = own.get(layer, 0.0) + tt
                continue
            charged = 0.0
            for caller, (_ccc, _cnc, caller_tt, _cct) in callers.items():
                caller_layer = layer_of(caller[0])
                if caller_layer is not None:
                    own[caller_layer] = own.get(caller_layer, 0.0) + caller_tt
                    charged += caller_tt
            own[OTHER] += tt - charged
        if gc_meter is not None:
            for layer, pause in gc_meter.by_layer.items():
                own[layer] = own.get(layer, 0.0) - pause
        return own
