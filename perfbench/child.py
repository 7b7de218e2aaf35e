"""One step of the benchmark, in a fresh interpreter.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py '<json request>'

The request names the workload, the seed, the step (``setup`` or
``rep``), whether to trace, and a path for the JSON reply.  The store
directory comes from ``REPRO_CACHE_DIR``, which the parent points at an
empty directory of its own for every step.

The timed part of a ``rep`` is every ``run_experiments`` call, one per
artifact (so an artifact that raises is counted on its own), with
nothing passed that would turn the program's tracer on — ``out_dir``,
``metrics_path`` and ``profile`` all do.  The traced rep passes
``metrics_path`` on purpose and wraps the layers (``layers.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest single process so far: this one or a reaped worker (KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _reap_workers() -> None:
    """Wait for every worker process this one started to exit.

    The program shuts its pools down without waiting (``shutdown(wait=False)``),
    so a worker may still be alive when the timed part ends.  ``getrusage``
    counts a child only once it is reaped; joining them first keeps their
    CPU time and peak RSS in ``cpu_s`` and ``peak_rss_mb``.
    """
    import multiprocessing

    for process in multiprocessing.active_children():
        process.join()


def _spread_workers(cores: int) -> None:
    """Pin every process this one forks to a core of its own, in turn.

    The guest kernel of a 2-core Xeon virtual machine was seen to leave
    both of a pool's workers on the core their parent ran on, with the
    other core idle, for minutes at a time; a two-worker
    step then takes about a sixth longer.  Pinning the workers round-robin
    removes that mode, so ``wall_s`` measures the program, not where the
    scheduler happened to put it.  This process itself stays unpinned.
    """
    forks = [0]

    def before() -> None:
        forks[0] += 1

    def after_in_child() -> None:
        os.sched_setaffinity(0, {forks[0] % cores})

    os.register_at_fork(before=before, after_in_child=after_in_child)


def _digest(result) -> str:
    return hashlib.sha256((str(result) + "\n").encode()).hexdigest()


def _session(workload, seed):
    """A registry holding the workload's session, fetched back through it.

    ``SessionRegistry`` defines ``__len__``, so an empty registry is
    falsy and ``get_measurement(registry=reg)`` would silently use the
    default registry instead.  Registering the session first keeps the
    registry truthy; the ``get`` call applies ``jobs``/``cube_jobs`` the
    way ``run_experiments`` will.
    """
    from repro.core.measurement import SuiteMeasurement
    from repro.engine.executor import SweepExecutor
    from repro.engine.session import SessionRegistry
    from repro.workload import benchmark_by_name

    registry = SessionRegistry({"bench": workload.total_instructions})
    registry.set("bench", SuiteMeasurement(
        specs=[benchmark_by_name(name) for name in workload.suite],
        total_instructions=workload.total_instructions,
        seed=seed,
        executor=SweepExecutor(jobs=workload.jobs),
    ))
    session = registry.get("bench", jobs=workload.jobs, cube_jobs=workload.cube_jobs)
    return registry, session


def _run(workload, seed, trace, ledger_dir):
    from repro.engine.session import DEFAULT_REGISTRY
    from repro.experiments import runner

    registry, session = _session(workload, seed)
    # The session each run_experiments call resolved, for the scale guard:
    # one call per artifact, so recording it costs nothing measurable.
    resolved = []
    get_measurement = runner.get_measurement

    def recording_get_measurement(*args, **kwargs):
        measurement = get_measurement(*args, **kwargs)
        resolved.append(measurement)
        return measurement

    runner.get_measurement = recording_get_measurement
    clock = None
    if trace:
        from layers import LayerClock, install

        clock = LayerClock()
        install(clock, session, runner.ALL_EXPERIMENTS)
    digests, errors = {}, {}
    sink = io.StringIO()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    try:
        for name in workload.artifacts:
            kwargs = {}
            if trace:
                kwargs["metrics_path"] = Path(ledger_dir) / f"{name}.json"
            try:
                (result,) = runner.run_experiments(
                    [name], scale="bench", stream=sink, registry=registry,
                    jobs=workload.jobs, cube_jobs=workload.cube_jobs, **kwargs)
            except Exception:  # counted as a failed artifact; the rep goes on
                errors[name] = traceback.format_exc()
                continue
            digests[name] = _digest(result)
        wall = time.perf_counter() - started
    finally:
        runner.get_measurement = get_measurement
        if clock is not None:
            clock.restore()
        session.executor.shutdown()
    _reap_workers()
    reply = {
        "wall_s": wall,
        "cpu_s": _cpu_seconds() - cpu_before,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": digests,
        "errors": errors,
        "sessions": [
            {
                "registered": measurement is session,
                "total_instructions": measurement.total_instructions,
                "suite": [spec.name for spec in measurement.specs],
            }
            for measurement in resolved
        ],
        "default_registry_sessions": len(DEFAULT_REGISTRY),
    }
    if clock is not None:
        stats = session.store.stats()
        reply["layers"] = {
            "seconds": dict(clock.seconds),
            "counts": dict(clock.counts),
            "store": {
                "memory_hits": stats.memory_hits,
                "disk_hits": stats.disk_hits,
                "misses": stats.misses,
                "disk_writes": stats.disk_writes,
                "hit_rate": stats.hit_rate,
            },
        }
    return reply


def _prepare_traces(workload, seed):
    """Synthesize the session's traces into the store (``traces`` setup)."""
    _, session = _session(workload, seed)
    try:
        session.benchmarks
    finally:
        session.executor.shutdown()


def _host() -> dict:
    import numpy

    from repro.kernels import kernel_backend

    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_kernel": os.environ.get("REPRO_KERNEL", "auto"),
        "kernel_backend": kernel_backend(),
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    workload = WORKLOADS[request["workload"]]
    seed = request["seed"]
    if workload.jobs > 1:
        _spread_workers(workload.jobs)
    if request["step"] == "setup":
        import repro.experiments.runner  # noqa: F401  (set-up pays the import)

        reply = {"host": _host()}
        if workload.setup == "cold-run":
            reply.update(_run(workload, seed, False, None))
        elif workload.setup == "traces":
            _prepare_traces(workload, seed)
    else:
        reply = _run(workload, seed, request["trace"], request.get("ledger_dir"))
    Path(request["reply"]).write_text(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
