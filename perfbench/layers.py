"""Outside-in layer clocks for the traced run.

Each layer is a public entry point of the program, wrapped where its
caller looks the name up (``repro.core.measurement.CompiledProgram``,
not the class everywhere), so nested engine-internal calls are not
double counted.  Wrapped calls nest; every layer is charged its *self*
time, the part of its wall time no other wrapped call covers.

Only coarse entry points are wrapped.  Per-instruction hot paths (such
as ``Instruction.kind``) would cost more than the layers they measure.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List


class LayerClock:
    """Self-time and count ledger over nested wrapped calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._undo: List[Callable[[], None]] = []

    def _enter(self) -> List[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, layer: str, frame: List[float], elapsed: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.seconds[layer] += elapsed - frame[0]

    def timed(self, layer: str, fn: Callable, count=None) -> Callable:
        """``fn`` charged to ``layer``; ``count(args, result)`` adds counters."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter()
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(layer, frame, time.perf_counter() - started)
            self.counts[layer + ".calls"] += 1
            if count is not None:
                for name, value in count(args, result).items():
                    self.counts[f"{layer}.{name}"] += value
            return result

        return wrapper

    def timed_generator(self, layer: str, fn: Callable, count=None) -> Callable:
        """A generator function whose ``next()`` calls are charged to ``layer``.

        The consumer's work between items runs outside the layer, so the
        layer gets only the time spent producing.
        """

        def wrapper(*args: Any, **kwargs: Any):
            iterator = fn(*args, **kwargs)
            self.counts[layer + ".calls"] += 1
            while True:
                frame = self._enter()
                started = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._leave(layer, frame, time.perf_counter() - started)
                if count is not None:
                    for name, value in count(args, item).items():
                        self.counts[f"{layer}.{name}"] += value
                yield item

        return wrapper

    def patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        """Replace ``owner.name`` with ``wrapper`` until :meth:`restore`."""
        original = getattr(owner, name)
        setattr(owner, name, wrapper)
        self._undo.append(lambda: setattr(owner, name, original))

    def patch_item(self, mapping: Dict, key: str, wrapper: Callable) -> None:
        """Replace ``mapping[key]`` with ``wrapper`` until :meth:`restore`."""
        original = mapping[key]
        mapping[key] = wrapper
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _chunk_instructions(args, chunk) -> Dict[str, int]:
    executor = args[0]
    return {"instr": int(executor.compiled.lengths[chunk.block_ids].sum())}


def install(clock: LayerClock, measurement, artifacts: Dict[str, Callable]) -> None:
    """Wrap every layer entry point of one session.

    ``artifacts`` is ``runner.ALL_EXPERIMENTS``; its entries are wrapped
    in place so each artifact becomes a root frame whose self time is
    what no layer below accounts for.
    """
    from repro.branchpred import BranchTargetBuffer
    from repro.core import measurement as m
    from repro.core import optimizer as optimizer_module
    from repro.core.measurement import SuiteMeasurement
    from repro.core.optimizer import DesignOptimizer
    from repro.trace.executor import TraceExecutor

    clock.patch(m, "synthesize_program",
                clock.timed("workload.synthesize", m.synthesize_program))
    clock.patch(m, "CompiledProgram", clock.timed("trace.compile", m.CompiledProgram))
    clock.patch(m, "TranslationFile", clock.timed("sched.translate", m.TranslationFile))
    clock.patch(TraceExecutor, "iter_chunks", clock.timed_generator(
        "trace.synthesize", TraceExecutor.iter_chunks, _chunk_instructions))
    clock.patch(m, "expand_istream", clock.timed(
        "sched.expand_istream", m.expand_istream,
        lambda args, stream: {"refs": stream.total_fetches}))
    clock.patch(SuiteMeasurement, "istream_blocks",
                clock.timed("core.istream", SuiteMeasurement.istream_blocks))
    for name in ("dstream_addresses", "dstream_address_bundle"):
        clock.patch(SuiteMeasurement, name,
                    clock.timed("core.dstream", getattr(SuiteMeasurement, name)))
    clock.patch(m, "branch_delay_stats",
                clock.timed("sched.branch_stats", m.branch_delay_stats))
    clock.patch(m, "analyze_load_slack",
                clock.timed("sched.load_slack", m.analyze_load_slack))
    clock.patch(BranchTargetBuffer, "simulate",
                clock.timed("branchpred.btb", BranchTargetBuffer.simulate))
    for name in ("miss_cube", "partitioned_miss_cube",
                 "partitioned_miss_cube_from_addresses"):
        clock.patch(m, name, clock.timed("cache.cube", getattr(m, name)))
    # The fatal A=1 cross-check, as the measurement layer calls it.
    clock.patch(m, "direct_mapped_miss_sweep",
                clock.timed("cache.crosscheck", m.direct_mapped_miss_sweep))

    clock.patch(DesignOptimizer, "sweep", clock.timed(
        "core.optimizer", DesignOptimizer.sweep,
        lambda args, points: {"points": len(points)}))
    clock.patch(optimizer_module, "system_cycle_time_ns",
                clock.timed("timing.tcpu", optimizer_module.system_cycle_time_ns))
    # The session's sweep executor only: cube builds make executors of
    # their own, whose time stays with the cube layer.
    clock.patch(measurement.executor, "map", clock.timed(
        "engine.executor.map", measurement.executor.map,
        lambda args, results: {"items": len(results)}))

    for name, run in list(artifacts.items()):
        clock.patch_item(artifacts, name, clock.timed(f"experiments.{name}", run))
