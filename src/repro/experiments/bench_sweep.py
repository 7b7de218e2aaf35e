"""CLI: time the per-size miss loop against the single-pass sweep.

Usage::

    python -m repro.experiments.bench_sweep                 # quick scale
    python -m repro.experiments.bench_sweep --out BENCH.json
    python -m repro.experiments.bench_sweep --repeats 5

For every (stream, block size) pair on the paper grid this times two
ways of producing the same per-size miss counts over 1–32 KW:

* **legacy** — one :func:`~repro.cache.fastsim.direct_mapped_misses`
  call per cache size (a stable argsort of the stream per size), and
* **sweep** — one :func:`~repro.cache.fastsim.direct_mapped_miss_sweep`
  call covering the whole size axis in a single pass.

Counts from the two paths are asserted equal before any timing is
reported, so the benchmark doubles as an end-to-end equivalence check
on the real workload streams.  Timings are best-of-``--repeats`` and
land in a :class:`~repro.obs.RunLedger` (the ``BENCH_pr3.json``
committed at the repo root is one quick-scale run of this tool).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.fastsim import direct_mapped_miss_sweep, direct_mapped_misses
from repro.engine.session import SessionRegistry
from repro.errors import ConfigurationError
from repro.experiments.common import EXPERIMENT_SCALES, PAPER_SIZES_KW, get_measurement
from repro.obs import RunLedger
from repro.utils.units import kw_to_words

__all__ = ["main", "run_benchmark", "grid_cases"]


def grid_cases(measurement) -> List[Tuple[str, np.ndarray, List[int]]]:
    """The (label, stream, set_counts) cases benchmarked, paper grid.

    Instruction streams cover every delay-slot count at the headline
    4-word block (the fig. 3/10 axis) plus the wider blocks at zero
    slots; data streams cover all three paper block sizes.
    """
    cases: List[Tuple[str, np.ndarray, List[int]]] = []

    def sets_axis(block_words: int) -> List[int]:
        return [kw_to_words(kw) // block_words for kw in PAPER_SIZES_KW]

    for slots in (0, 1, 2, 3):
        cases.append(
            (
                f"istream[b={slots},B=4]",
                measurement.istream_blocks(slots, 4),
                sets_axis(4),
            )
        )
    for block_words in (8, 16):
        cases.append(
            (
                f"istream[b=0,B={block_words}]",
                measurement.istream_blocks(0, block_words),
                sets_axis(block_words),
            )
        )
    for block_words in (4, 8, 16):
        cases.append(
            (
                f"dstream[B={block_words}]",
                measurement.dstream_blocks(block_words),
                sets_axis(block_words),
            )
        )
    return cases


def _best_of(repeats: int, func: Callable[[], Dict[int, int]]) -> Tuple[float, Dict[int, int]]:
    """Minimum wall time over ``repeats`` runs, plus the (stable) result."""
    best = float("inf")
    result: Dict[int, int] = {}
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
    """Time legacy vs. single-pass over the paper grid; return the ledger.

    Raises :class:`~repro.errors.ConfigurationError` if the two paths
    ever disagree on a miss count — a disagreement makes the timing
    meaningless, so it is fatal rather than a warning.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats}")
    measurement = get_measurement(scale, registry=registry)
    ledger = RunLedger()
    total_legacy = 0.0
    total_sweep = 0.0
    references = 0
    for label, blocks, set_counts in grid_cases(measurement):
        legacy_s, legacy_counts = _best_of(
            repeats,
            lambda: {sets: direct_mapped_misses(blocks, sets) for sets in set_counts},
        )
        sweep_s, sweep_counts = _best_of(
            repeats, lambda: direct_mapped_miss_sweep(blocks, set_counts)
        )
        if legacy_counts != sweep_counts:
            raise ConfigurationError(
                f"single-pass sweep disagrees with per-size loop on {label}: "
                f"{sweep_counts} != {legacy_counts}"
            )
        total_legacy += legacy_s
        total_sweep += sweep_s
        references += len(blocks)
        ledger.record_experiment(f"legacy:{label}", legacy_s)
        ledger.record_experiment(f"sweep:{label}", sweep_s)
        print(
            f"[{label}] refs={len(blocks)} sizes={len(set_counts)} "
            f"legacy={legacy_s:.3f}s sweep={sweep_s:.3f}s "
            f"({legacy_s / sweep_s:.2f}x)",
            file=stream,
        )
    ledger.set_run_info(
        benchmark="miss-sweep",
        scale=_registry_or_default(registry).resolve_scale(scale),
        seed=getattr(measurement, "seed", None),
        total_instructions=getattr(measurement, "total_instructions", None),
        grid_references=references,
        repeats=repeats,
        legacy_wall_s=total_legacy,
        sweep_wall_s=total_sweep,
        speedup=total_legacy / total_sweep,
        wall_s=total_legacy + total_sweep,
    )
    print(
        f"total: legacy={total_legacy:.3f}s sweep={total_sweep:.3f}s "
        f"speedup={total_legacy / total_sweep:.2f}x",
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
        description="Time the per-size miss loop vs. the single-pass sweep."
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
