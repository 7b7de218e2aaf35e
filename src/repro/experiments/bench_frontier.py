"""CLI: time the shared-pass frontier against per-objective sweeps.

Usage::

    python -m repro.experiments.bench_frontier                 # quick scale
    python -m repro.experiments.bench_frontier --out BENCH.json
    python -m repro.experiments.bench_frontier --repeats 5

Asking a design space for its TPI optimum, its EPI optimum, its EDP
optimum, *and* its Pareto frontier are four questions over one scored
point set.  :meth:`~repro.core.optimizer.DesignOptimizer.select` answers
them all from a single scored pass (satellite of the ``repro.physical``
work); the naive alternative runs one full sweep per question.  This
benchmark times both over the asymmetric grid:

* **shared** — one optimizer, one ``select`` pass, every answer derived
  from the same scored points;
* **independent** — a fresh optimizer per question, each re-entering
  :meth:`~repro.core.optimizer.DesignOptimizer.sweep` (simulation is
  memoised in the artifact store, so this measures the real per-sweep
  walk the shared pass avoids, not redundant cache simulation).

Answers from both paths are asserted identical before any timing is
reported.  Timings are best-of-``--repeats`` and land in a
:class:`~repro.obs.RunLedger` (the committed ``BENCH_pr9.json`` is one
quick-scale run of this tool).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import SystemConfig
from repro.core.frontier import objective_value
from repro.core.optimizer import DesignOptimizer, point_order_key
from repro.engine.session import SessionRegistry
from repro.errors import ConfigurationError
from repro.experiments.common import EXPERIMENT_SCALES, get_measurement
from repro.obs import RunLedger

__all__ = ["main", "run_benchmark", "SCALAR_OBJECTIVES"]

#: The single-objective questions both paths answer (plus the frontier).
SCALAR_OBJECTIVES = ("tpi", "epi", "edp")

#: One answer set: scalar winners + the frontier, as order keys.
_Answers = Dict[str, object]


def _best_of(repeats: int, func: Callable[[], _Answers]) -> Tuple[float, _Answers]:
    """Minimum wall time over ``repeats`` runs, plus the (stable) result."""
    best = float("inf")
    result: _Answers = {}
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return best, result


def _shared_answers(measurement, grid: Sequence[SystemConfig]) -> _Answers:
    """Every question from one scored pass of one optimizer."""
    optimizer = DesignOptimizer(measurement)
    selection = optimizer.select(grid, objective="frontier")
    answers: _Answers = {
        "frontier": tuple(point_order_key(p) for p in selection.frontier)
    }
    for objective in SCALAR_OBJECTIVES:
        winner = min(
            selection.points,
            key=lambda p: (objective_value(p, objective), point_order_key(p)),
        )
        answers[objective] = point_order_key(winner)
    return answers


def _independent_answers(measurement, grid: Sequence[SystemConfig]) -> _Answers:
    """One fresh optimizer (and sweep walk) per question."""
    answers: _Answers = {}
    for objective in SCALAR_OBJECTIVES:
        optimizer = DesignOptimizer(measurement)
        points = optimizer.sweep(grid)
        winner = min(
            points,
            key=lambda p: (objective_value(p, objective), point_order_key(p)),
        )
        answers[objective] = point_order_key(winner)
    optimizer = DesignOptimizer(measurement)
    answers["frontier"] = tuple(
        point_order_key(p) for p in optimizer.frontier(grid)
    )
    return answers


def run_benchmark(
    scale: Optional[str] = None,
    repeats: int = 3,
    registry: Optional[SessionRegistry] = None,
    stream=sys.stdout,
) -> RunLedger:
    """Time shared-pass selection vs. one sweep per objective.

    Raises :class:`~repro.errors.ConfigurationError` if the two paths
    ever disagree on a winner or on the frontier — a disagreement makes
    the timing meaningless, so it is fatal rather than a warning.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats}")
    measurement = get_measurement(scale, registry=registry)
    optimizer = DesignOptimizer(measurement)
    grid = optimizer.asymmetric_grid(SystemConfig())
    # Warm the simulation artifacts once so both timed paths measure the
    # selection machinery, not who pays for cache simulation first.
    optimizer.sweep(grid)
    shared_s, shared = _best_of(
        repeats, lambda: _shared_answers(measurement, grid)
    )
    independent_s, independent = _best_of(
        repeats, lambda: _independent_answers(measurement, grid)
    )
    if shared != independent:
        raise ConfigurationError(
            f"shared-pass answers disagree with per-objective sweeps: "
            f"{shared} != {independent}"
        )
    questions = len(SCALAR_OBJECTIVES) + 1
    speedup = independent_s / shared_s
    ledger = RunLedger()
    ledger.record_experiment("shared:select", shared_s)
    ledger.record_experiment("independent:per-objective", independent_s)
    ledger.set_run_info(
        benchmark="frontier-shared-pass",
        scale=_registry_or_default(registry).resolve_scale(scale),
        seed=getattr(measurement, "seed", None),
        total_instructions=getattr(measurement, "total_instructions", None),
        grid_points=len(grid),
        questions=questions,
        frontier_points=len(shared["frontier"]),
        repeats=repeats,
        shared_wall_s=shared_s,
        independent_wall_s=independent_s,
        speedup=speedup,
        wall_s=shared_s + independent_s,
    )
    print(
        f"grid={len(grid)} points, {questions} questions "
        f"(tpi/epi/edp best + frontier): shared={shared_s:.3f}s "
        f"independent={independent_s:.3f}s speedup={speedup:.2f}x",
        file=stream,
    )
    return ledger


def _registry_or_default(registry: Optional[SessionRegistry]) -> SessionRegistry:
    """``registry``, or the shared default when none was given.

    Tested against ``None``: an empty ``SessionRegistry`` is falsy.
    """
    from repro.engine.session import DEFAULT_REGISTRY

    return registry if registry is not None else DEFAULT_REGISTRY


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time shared-pass frontier selection vs. one sweep "
        "per objective."
    )
    parser.add_argument(
        "--scale",
        choices=sorted(EXPERIMENT_SCALES),
        default=None,
        help="trace scale (default: REPRO_SCALE env var or 'full')",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repeats per path; best-of-N is reported (default: 3)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run ledger (JSON + ASCII twin) here",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    try:
        ledger = run_benchmark(scale=args.scale, repeats=args.repeats)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        ledger.write(args.out)
        args.out.with_suffix(".txt").write_text(ledger.render_summary() + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
