"""In-memory span tracer installed around public callables of the package.

The tracer replaces a function (or a method on a class) with a wrapper that
records one span per call: name, start, end, the span that caused it and the
operation it belongs to. Self time is a span's duration minus the time its
child spans cover. Totals are aggregated per span name as calls arrive; the
raw spans are kept in memory up to a cap and written out once, at the end.

A target that does not exist (a later version of the package removed or
renamed it) is skipped, so its metrics read as zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

#: Raw spans kept for the spans file; aggregation continues past the cap.
SPAN_CAP = 20_000


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.phase = "setup"
        self.op_id = None
        self.totals: dict[str, dict[str, list[float]]] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, module_name: str, attr: str, span_name: str, hook=None) -> bool:
        """Wrap ``module.attr`` (``Class.method`` allowed) everywhere it is bound.

        A module-level function is also rebound in every package module that
        imported it by name. Returns False when the target does not exist.
        """
        module = sys.modules.get(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = None if owner is None else vars(owner).get(leaf)
        if not callable(original):
            return False
        wrapper = self._wrap(span_name, original, hook)
        if owner_name:
            self._patch(owner, leaf, wrapper)
            return True
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)
        return True

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, span_name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = tracer._close(span_name, frame, start, perf_counter())
                if hook is not None:
                    hook(tracer, args, kwargs, result, error, duration)

        return functools.wraps(fn)(traced)

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> float:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        agg = self.totals.setdefault(self.phase, {}).setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration - frame[1]
        agg[2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[0], None if parent is None else parent[0], self.op_id, name, start, end)
            )
        else:
            self.dropped += 1
        return duration

    def begin_op(self, op_id) -> tuple[list, float]:
        """Open the root span of one operation; pass the result to end_op."""
        self.op_id = op_id
        return self._open(), perf_counter()

    def end_op(self, token) -> None:
        frame, start = token
        self._close("op", frame, start, perf_counter())
        self.op_id = None

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Calls of ``name`` during the traced operations."""
        return int(self.totals.get("ops", {}).get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        """Self seconds of ``name`` during the traced operations."""
        return float(self.totals.get("ops", {}).get(name, (0, 0.0, 0.0))[1])

    def write(self, path) -> None:
        payload = {
            "totals": {
                phase: {name: {"calls": c, "self_s": s, "total_s": t} for name, (c, s, t) in names.items()}
                for phase, names in self.totals.items()
            },
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
