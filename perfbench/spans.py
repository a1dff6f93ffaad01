"""Span recorder, call wrapping and self-time reduction for the traced run.

The benchmark measures the program only from outside: during a traced
pass it replaces public functions and methods of ``repro`` modules with
timing wrappers, and restores the originals afterwards.  Each wrapped
call records one span (layer name, start, end, parent span, unit id)
into flat in-memory arrays; nothing is written until the run ends.

A layer's *self time* is the duration of its spans minus the part
covered by their child spans.  Calls are synchronous, so children nest
strictly inside their parent and the covered part is simply the sum of
the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``"module:Qual.name"`` timed as ``layer``.

    ``unit`` starts a new unit id (one run) for the spans recorded
    inside the call; :meth:`SpanRecorder.begin_unit` does the same for
    units the benchmark drives itself (one file, one frame).  ``count``
    maps the call's result to a count added to ``counters[layer]``.
    """

    layer: str
    spec: str
    unit: bool = False
    count: Callable[[object], int] | None = None


class SpanRecorder:
    """Flat, append-only span storage (see module docstring)."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._unit = 0
        self._next_unit = 1

    def _id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def begin_unit(self) -> None:
        """Start a new unit id for the root-level spans that follow."""
        self._unit = self._next_unit
        self._next_unit += 1

    def count(self, layer: str, amount: int) -> None:
        self.counters[layer] = self.counters.get(layer, 0) + amount

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A timing wrapper around ``fn`` (async functions stay async).

        The start time is taken before the span's bookkeeping and the
        end time after it, so the recorder's own cost lands in the
        wrapped layer rather than in its caller or ``unaccounted``.
        """
        layer_id = self._id(target.layer)
        recorder = self
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self.start, self.end
        layer_ids, parents, units = self.layer_id, self.parent, self.unit
        unit_target, count, layer = target.unit, target.count, target.layer

        def counted(result):
            if count is not None:
                recorder.count(layer, count(result))
            return result

        # The span bookkeeping is written out in both wrappers rather
        # than shared through helper calls: it runs on every call of
        # hot layers, and a call costs about as much as the bookkeeping.
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                started = clock()
                index = len(starts)
                saved = recorder._unit
                if unit_target:
                    recorder.begin_unit()
                layer_ids.append(layer_id)
                parents.append(stack[-1] if stack else -1)
                units.append(recorder._unit)
                starts.append(started)
                ends.append(0.0)
                stack.append(index)
                try:
                    return counted(await fn(*args, **kwargs))
                finally:
                    stack.pop()
                    recorder._unit = saved
                    ends[index] = clock()
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            index = len(starts)
            saved = recorder._unit
            if unit_target:
                recorder.begin_unit()
            layer_ids.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            units.append(recorder._unit)
            starts.append(started)
            ends.append(0.0)
            stack.append(index)
            try:
                return counted(fn(*args, **kwargs))
            finally:
                stack.pop()
                recorder._unit = saved
                ends[index] = clock()
        return wrapper

    # ------------------------------------------------------------------
    # Reduction and export
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer_id": np.frombuffer(self.layer_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
        }

    def reduce(self) -> "LayerTable":
        """Per-layer self time, total time and call count."""
        cols = self.arrays()
        n_layers = len(self.layers)
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        self_time = duration - covered
        layer_id = cols["layer_id"]
        return LayerTable(
            layers=list(self.layers),
            self_s=np.bincount(layer_id, weights=self_time,
                               minlength=n_layers),
            total_s=np.bincount(layer_id, weights=duration,
                                minlength=n_layers),
            calls=np.bincount(layer_id, minlength=n_layers),
            root_s=float(duration[~has_parent].sum()),
            counters=dict(self.counters),
        )

    def write(self, path: Path) -> None:
        """Write every span as compressed numpy arrays plus layer names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(self.layers, dtype=str),
                            **self.arrays())


@dataclass
class LayerTable:
    layers: list[str]
    self_s: np.ndarray
    total_s: np.ndarray
    calls: np.ndarray
    root_s: float
    counters: dict[str, int]

    def _index(self, layer: str) -> int | None:
        return self.layers.index(layer) if layer in self.layers else None

    def self_time(self, layer: str) -> float:
        index = self._index(layer)
        return 0.0 if index is None else float(self.self_s[index])

    def total_time(self, layer: str) -> float:
        index = self._index(layer)
        return 0.0 if index is None else float(self.total_s[index])

    def n_calls(self, layer: str) -> int:
        index = self._index(layer)
        return 0 if index is None else int(self.calls[index])

    def per_call(self, layer: str) -> float:
        calls = self.n_calls(layer)
        return self.total_time(layer) / calls if calls else 0.0

    def render(self, title: str, wall_s: float, overhead_s: float) -> str:
        """The per-layer self-time table with its ``unaccounted`` row."""
        lines = [f"{title}: traced wall {wall_s:.3f} s, tracing overhead "
                 f"{overhead_s:+.3f} s",
                 f"  {'layer':<32}{'calls':>10}{'self s':>10}{'share':>8}"]
        order = np.argsort(-self.self_s)
        for index in order:
            share = self.self_s[index] / wall_s if wall_s > 0 else 0.0
            lines.append(f"  {self.layers[index]:<32}{self.calls[index]:>10d}"
                         f"{self.self_s[index]:>10.3f}{share:>8.1%}")
        unaccounted = max(0.0, wall_s - self.root_s)
        share = unaccounted / wall_s if wall_s > 0 else 0.0
        lines.append(f"  {'unaccounted':<32}{'':>10}{unaccounted:>10.3f}"
                     f"{share:>8.1%}")
        return "\n".join(lines)

    def unaccounted_share(self, wall_s: float) -> float:
        return max(0.0, wall_s - self.root_s) / wall_s if wall_s > 0 else 0.0


def _resolve(spec: str):
    module_name, _, qualname = spec.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module_name, owner, parts[-1]


class Patched:
    """Context manager: wrap ``targets`` with ``recorder``, then restore.

    A module-level function is also replaced wherever another ``repro``
    module bound it by name (``from x import f``), so calls through
    those aliases are timed too.
    """

    def __init__(self, recorder: SpanRecorder, targets: list[Target]) -> None:
        self.recorder = recorder
        self.targets = targets
        self._undo: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Patched":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def _patch(self, target: Target) -> None:
        module_name, owner, name = _resolve(target.spec)
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, staticmethod):
            self._set(owner, name,
                      staticmethod(self.recorder.wrap(target, raw.__func__)))
            return
        if isinstance(raw, classmethod):
            self._set(owner, name,
                      classmethod(self.recorder.wrap(target, raw.__func__)))
            return
        wrapped = self.recorder.wrap(target, raw)
        self._set(owner, name, wrapped)
        if inspect.ismodule(owner):
            for other_name, module in list(sys.modules.items()):
                if module is None or module is owner \
                        or not other_name.startswith("repro"):
                    continue
                if vars(module).get(name) is raw:
                    self._set(module, name, wrapped)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, value, had = self._undo.pop()
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
