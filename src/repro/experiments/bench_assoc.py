"""CLI: time the per-config dict LRU against the single-pass plane.

Usage::

    python -m repro.experiments.bench_assoc                 # quick scale
    python -m repro.experiments.bench_assoc --out BENCH.json
    python -m repro.experiments.bench_assoc --repeats 5

For the ``ext_associativity`` surface — every paper capacity (1-32 KW)
at every way count (1/2/4/8) over the multiprogrammed data stream —
this times two ways of producing the same miss counts:

* **legacy** — one :func:`~repro.cache.assoc_sim.set_associative_misses`
  call per (capacity, ways) point (the dict-LRU loop the old
  ``associative_miss_sweep`` ran, including the ways = 1 column), and
* **plane** — one :func:`~repro.cache.stackdist.
  capacity_associativity_misses` call covering the whole plane in a
  single stack-distance pass.

Counts from the two paths are asserted equal before any timing is
reported, so the benchmark doubles as an end-to-end equivalence check
on the real workload stream.  Timings are best-of-``--repeats`` and
land in a :class:`~repro.obs.RunLedger` (the ``BENCH_pr5.json``
committed at the repo root is one quick-scale run of this tool).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.assoc_sim import set_associative_misses
from repro.cache.stackdist import capacity_associativity_misses
from repro.engine.session import SessionRegistry
from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_BLOCK_WORDS, EXPERIMENT_SCALES, get_measurement
from repro.experiments.ext_associativity import ASSOCIATIVITIES, CAPACITIES_KW
from repro.obs import RunLedger
from repro.utils.units import kw_to_words

__all__ = ["main", "run_benchmark", "grid_cases"]

_PlaneCase = Tuple[str, np.ndarray, List[int], Tuple[int, ...]]


def grid_cases(measurement) -> List[_PlaneCase]:
    """The (label, stream, capacities_blocks, ways) cases benchmarked.

    Exactly the ``ext_associativity`` surface: the headline data stream
    at the paper capacities and way counts.
    """
    capacities = [
        kw_to_words(kw) // DEFAULT_BLOCK_WORDS for kw in CAPACITIES_KW
    ]
    return [
        (
            f"dstream[B={DEFAULT_BLOCK_WORDS}]",
            measurement.dstream_blocks(DEFAULT_BLOCK_WORDS),
            capacities,
            ASSOCIATIVITIES,
        )
    ]


def _best_of(
    repeats: int, func: Callable[[], Dict[Tuple[int, int], int]]
) -> Tuple[float, Dict[Tuple[int, int], int]]:
    """Minimum wall time over ``repeats`` runs, plus the (stable) result."""
    best = float("inf")
    result: Dict[Tuple[int, int], int] = {}
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return best, result


def run_benchmark(
    scale: Optional[str] = None,
    repeats: int = 3,
    registry: Optional[SessionRegistry] = None,
    stream=sys.stdout,
) -> RunLedger:
    """Time dict-LRU-per-config vs. the single-pass plane; return the ledger.

    Raises :class:`~repro.errors.ConfigurationError` if the two paths
    ever disagree on a miss count — a disagreement makes the timing
    meaningless, so it is fatal rather than a warning.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats}")
    measurement = get_measurement(scale, registry=registry)
    ledger = RunLedger()
    total_legacy = 0.0
    total_plane = 0.0
    references = 0
    for label, blocks, capacities, ways in grid_cases(measurement):
        points = [(capacity, way) for capacity in capacities for way in ways]
        legacy_s, legacy_counts = _best_of(
            repeats,
            lambda: {
                (capacity, way): set_associative_misses(
                    blocks, capacity // way, way
                )
                for capacity, way in points
            },
        )
        plane_s, plane_counts = _best_of(
            repeats,
            lambda: capacity_associativity_misses(blocks, capacities, ways),
        )
        if legacy_counts != plane_counts:
            raise ConfigurationError(
                f"single-pass plane disagrees with per-config dict LRU on "
                f"{label}: {plane_counts} != {legacy_counts}"
            )
        total_legacy += legacy_s
        total_plane += plane_s
        references += len(blocks)
        ledger.record_experiment(f"legacy:{label}", legacy_s)
        ledger.record_experiment(f"plane:{label}", plane_s)
        print(
            f"[{label}] refs={len(blocks)} points={len(points)} "
            f"legacy={legacy_s:.3f}s plane={plane_s:.3f}s "
            f"({legacy_s / plane_s:.2f}x)",
            file=stream,
        )
    ledger.set_run_info(
        benchmark="assoc-plane",
        scale=_registry_or_default(registry).resolve_scale(scale),
        seed=getattr(measurement, "seed", None),
        total_instructions=getattr(measurement, "total_instructions", None),
        grid_references=references,
        repeats=repeats,
        legacy_wall_s=total_legacy,
        plane_wall_s=total_plane,
        speedup=total_legacy / total_plane,
        wall_s=total_legacy + total_plane,
    )
    print(
        f"total: legacy={total_legacy:.3f}s plane={total_plane:.3f}s "
        f"speedup={total_legacy / total_plane:.2f}x",
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
        description="Time per-config dict LRU vs. the single-pass plane."
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
        help="timing repeats per case; best-of-N is reported (default: 3)",
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
