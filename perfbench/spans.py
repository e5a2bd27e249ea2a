"""Span tracing from outside the program: wrap each layer's public function.

:class:`Tracer` replaces the public function at each layer boundary, at
the attribute the pipeline looks it up through, with a wrapper that
records a span (layer, start, end, parent span, job id) and the layer's
deterministic work counts.  Spans stay in memory; :meth:`Tracer.dump`
writes them out when the run ends.  :meth:`Tracer.uninstall` restores
every original, so the untraced phases of a run execute the program
exactly as shipped.

A layer's self time is its span's duration minus the time its child spans
cover.  The ``api`` layer is the root span (``Session.execute``), so its
self time is the part of a job no other layer accounts for.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

#: Every layer with a time metric, in report order.
LAYERS = (
    "surface.parse",
    "wire.decode",
    "wire.encode",
    "kernel.intern",
    "cc.check",
    "cc.normalize",
    "cc.render",
    "closconv.translate",
    "cccc.verify",
    "cccc.render",
    "machine.hoist",
    "machine.exec",
    "backend.stage",
    "backend.load",
    "backend.exec",
    "api.self",
)

#: Counts that must repeat exactly between two executions of one stream.
DETERMINISTIC_COUNTS = (
    "cc.fuel",
    "cccc.verify_fuel",
    "closconv.target_nodes",
    "machine.code_blocks",
    "machine.steps",
    "wire.bytes",
    "surface.nodes",
)


def _fuel(name: str, position: int) -> Callable:
    """Counts the fuel a kernel entry point charged to its budget argument."""

    def before(args: tuple, kwargs: dict) -> Any:
        budget = args[position] if len(args) > position else kwargs.get("budget")
        return (budget, budget.spent) if budget is not None else None

    def after(token: Any, result: Any) -> dict[str, Any]:
        if token is None:
            return {}
        budget, spent = token
        return {name: budget.spent - spent}

    return before, after


def _points() -> tuple:
    """(owner, attribute, layer, fuel, deferred count from (args, result)).

    ``fuel`` names the counter and the position of the budget argument.

    Deferred counts run after the job's root span closes, so computing them
    never inflates any span.
    """
    import repro.api
    import repro.backend.compile
    import repro.cc
    import repro.cccc
    import repro.closconv.pipeline
    import repro.service.executor
    import repro.wire.codec
    from repro import cc, cccc

    return (
        (repro.service.executor, "parse_term", "surface.parse", None,
         lambda args, result: {"surface.nodes": cc.term_size(result)}),
        (repro.api, "parse_term", "surface.parse", None,
         lambda args, result: {"surface.nodes": cc.term_size(result)}),
        (repro.wire.codec, "term_from_b64", "wire.decode", None,
         lambda args, result: {"wire.bytes": len(args[1])}),
        (repro.wire.codec, "term_to_b64", "wire.encode", None,
         lambda args, result: {"wire.bytes": len(result)}),
        (repro.cc, "intern", "kernel.intern", None, None),
        (repro.cccc, "intern", "kernel.intern", None, None),
        (repro.cc, "infer", "cc.check", ("cc.fuel", 2), None),
        (repro.cc, "normalize", "cc.normalize", ("cc.fuel", 2), None),
        (repro.cc, "pretty", "cc.render", None, None),
        (repro.cccc, "pretty", "cccc.render", None, None),
        (repro.closconv.pipeline, "translate", "closconv.translate", None,
         lambda args, result: {"closconv.target_nodes": cccc.term_size(result)}),
        (repro.closconv.pipeline, "translate_context", "closconv.translate", None, None),
        (repro.cccc, "infer", "cccc.verify", ("cccc.verify_fuel", 2), None),
        (repro.cccc, "equivalent", "cccc.verify", ("cccc.verify_fuel", 3), None),
        (repro.api, "hoist", "machine.hoist", None,
         lambda args, result: {"machine.code_blocks": result.code_count}),
        (repro.api, "run", "machine.exec", None,
         lambda args, result: {"machine.steps": result[1].steps}),
        (repro.api, "compile_program", "backend.stage", None,
         lambda args, result: {"backend.artifact_fills": 1}),
        (repro.api, "load_artifact", "backend.load", None,
         lambda args, result: {"backend.artifact_hits": int(result is not None)}),
        (repro.backend.compile.CompiledProgram, "execute", "backend.exec", None,
         lambda args, result: {"machine.steps": result[1].steps}),
        (repro.api.Session, "execute", "api", None, None),
    )


class Tracer:
    """Records spans around the wrapped layer functions of one thread."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [layer, start, end, parent, job]
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._deferred: list[tuple[Callable, tuple, Any]] = []
        self._counts: dict[str, int] = {}
        self._originals: list[tuple[Any, str, Any]] = []
        self.job: str | None = None

    def install(self) -> None:
        for owner, attr, layer, fuel, count in _points():
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, fuel, count))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, layer: str, fuel: tuple | None, count: Callable | None):
        spans, stack, depth, deferred = self.spans, self._stack, self._depth, self._deferred
        fuel_before, fuel_after = _fuel(*fuel) if fuel else (None, None)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # Fuel is charged once per outermost span of a layer, so a
            # layer calling itself through the wrapped name is not counted
            # twice.
            outermost = depth.get(layer, 0) == 0
            token = fuel_before(args, kwargs) if fuel_before and outermost else None
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            spans.append(span)
            stack.append(index)
            depth[layer] = depth.get(layer, 0) + 1
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
            if token is not None:
                tracer._add(fuel_after(token, result))
            if count is not None:
                deferred.append((count, args, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _add(self, counts: dict[str, int]) -> None:
        for name, value in counts.items():
            self._counts[name] = self._counts.get(name, 0) + value

    def take_counts(self) -> dict[str, int]:
        """Counts accumulated since the last call (runs deferred counters)."""
        while self._deferred:
            count, args, result = self._deferred.pop()
            self._add(count(args, result))
        counts, self._counts = self._counts, {}
        return counts

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["layer", "start", "end", "parent", "job"], "spans": self.spans}, handle)


def job_self_times(spans: list[list[Any]], first: int) -> tuple[float, dict[str, float]]:
    """Root duration and per-layer self time of the job starting at ``first``.

    ``spans[first]`` must be the job's root span; the job's spans run to the
    end of the list.  The root's own self time is reported as ``api.self``.
    """
    child_time = [0.0] * (len(spans) - first)
    for offset in range(len(spans) - 1, first, -1):
        layer, start, end, parent, _ = spans[offset]
        if parent < first:
            raise ValueError(f"span {layer} at {offset} lies outside the job's root span")
        child_time[parent - first] += end - start
    selfs: dict[str, float] = {}
    for offset in range(first, len(spans)):
        layer, start, end, _, _ = spans[offset]
        name = "api.self" if layer == "api" else layer
        selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time[offset - first]
    root = spans[first][2] - spans[first][1]
    return root, selfs
