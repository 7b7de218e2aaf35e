"""CLI: time per-config simulation against the single-pass miss cube.

Usage::

    python -m repro.experiments.bench_cube                 # quick scale
    python -m repro.experiments.bench_cube --out BENCH.json
    python -m repro.experiments.bench_cube --repeats 5

For the full block-size study surface — every paper block size (4/8/16
words) at every paper capacity (1-32 KW) and way count (1/2/4/8) over
the multiprogrammed data stream — this times three ways of producing
the same miss counts:

* **legacy** — one :func:`~repro.cache.assoc_sim.set_associative_misses`
  call per (block, capacity, ways) point, over a per-block-size
  re-blocking of the address stream (the per-config dict-LRU loop);
* **plane** — one :func:`~repro.cache.stackdist.
  capacity_associativity_misses` pass per block size (the retired
  per-``B`` stack-distance path: one pass covers a (sets x ways) plane,
  but the block axis still loops); and
* **cube** — one :func:`~repro.cache.misscube.miss_cube_from_addresses`
  call covering the entire (block x sets x ways) cube in a single
  engine pass with one shared rank count.

Counts from all three paths are asserted equal before any timing is
reported, so the benchmark doubles as an end-to-end equivalence check
on the real workload stream.  Timings are best-of-``--repeats`` and
land in a :class:`~repro.obs.RunLedger` (the ``BENCH_pr6.json``
committed at the repo root is one quick-scale run of this tool).
"""

from __future__ import annotations

import argparse
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.assoc_sim import set_associative_misses
from repro.cache.cubepart import (
    DEFAULT_PARTITIONS,
    partitioned_miss_cube_from_addresses,
)
from repro.cache.fastsim import addresses_to_blocks
from repro.cache.misscube import MissCube, miss_cube_from_addresses
from repro.cache.stackdist import capacity_associativity_misses
from repro.core.measurement import SuiteMeasurement, canonical_cube_grid
from repro.engine.executor import SweepExecutor
from repro.engine.session import SessionRegistry
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.experiments.common import EXPERIMENT_SCALES, get_measurement
from repro.experiments.ext_associativity import ASSOCIATIVITIES, CAPACITIES_KW
from repro.experiments.ext_blocksize import BLOCK_SIZES
from repro.obs import RunLedger
from repro.utils.units import kw_to_words

__all__ = ["main", "run_benchmark", "run_scale_benchmark", "grid_cases"]

#: Instruction budgets of the scale axis (``--scales`` default): three
#: orders of magnitude up from quick scale to the paper's full
#: 2.4G-instruction traces.
DEFAULT_SCALE_AXIS = (
    400_000,
    4_000_000,
    40_000_000,
    400_000_000,
    2_400_000_000,
)

#: Largest budget at which the scale benchmark also runs the one-shot
#: serial engine and asserts the partitioned cube bit-identical to it.
#: Past this the serial pass is skipped (that is the point of the
#: partitioned engine) and the partitioned build carries its
#: per-partition A=1 cross-check instead.
DEFAULT_SERIAL_LIMIT = 400_000_000

_CubeCase = Tuple[
    str, np.ndarray, Tuple[int, ...], Tuple[float, ...], Tuple[int, ...]
]

#: One miss count per (block size, capacity KW, ways) geometry.
_Counts = Dict[Tuple[int, float, int], int]


def grid_cases(measurement) -> List[_CubeCase]:
    """The (label, addresses, blocks, capacities_kw, ways) cases benchmarked.

    The full block-size study surface: the headline data-address stream
    at every paper block size, capacity, and way count.
    """
    return [
        (
            "dstream",
            measurement.dstream_addresses(),
            tuple(BLOCK_SIZES),
            tuple(CAPACITIES_KW),
            tuple(ASSOCIATIVITIES),
        )
    ]


def _grid_points(
    blocks: Sequence[int], capacities_kw: Sequence[float], ways: Sequence[int]
) -> List[Tuple[int, float, int]]:
    return [
        (block, kw, way)
        for block in blocks
        for kw in capacities_kw
        for way in ways
    ]


def _best_of(
    repeats: int, func: Callable[[], _Counts]
) -> Tuple[float, _Counts]:
    """Minimum wall time over ``repeats`` runs, plus the (stable) result."""
    best = float("inf")
    result: _Counts = {}
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return best, result


def _legacy_counts(
    addresses: np.ndarray,
    points: Sequence[Tuple[int, float, int]],
    blocks: Sequence[int],
) -> _Counts:
    streams = {B: addresses_to_blocks(addresses, B) for B in blocks}
    return {
        (block, kw, way): set_associative_misses(
            streams[block], kw_to_words(kw) // block // way, way
        )
        for block, kw, way in points
    }


def _plane_counts(
    addresses: np.ndarray,
    points: Sequence[Tuple[int, float, int]],
    blocks: Sequence[int],
    capacities_kw: Sequence[float],
    ways: Sequence[int],
) -> _Counts:
    counts: _Counts = {}
    for block in blocks:
        stream = addresses_to_blocks(addresses, block)
        capacities = [kw_to_words(kw) // block for kw in capacities_kw]
        per_block = capacity_associativity_misses(stream, capacities, ways)
        for kw, capacity in zip(capacities_kw, capacities):
            for way in ways:
                counts[(block, kw, way)] = per_block[(capacity, way)]
    return counts


def _cube_counts(
    addresses: np.ndarray,
    points: Sequence[Tuple[int, float, int]],
    blocks: Sequence[int],
    capacities_kw: Sequence[float],
    ways: Sequence[int],
) -> _Counts:
    set_counts = _grid_set_counts(blocks, capacities_kw, ways)
    cube = miss_cube_from_addresses(addresses, blocks, set_counts, max(ways))
    return {
        (block, kw, way): cube.capacity_misses(
            block, kw_to_words(kw) // block, way
        )
        for block, kw, way in points
    }


def run_benchmark(
    scale: Optional[str] = None,
    repeats: int = 3,
    registry: Optional[SessionRegistry] = None,
    stream=sys.stdout,
) -> RunLedger:
    """Time per-config and per-block paths vs. the one-pass cube.

    Raises :class:`~repro.errors.ConfigurationError` if the paths ever
    disagree on a miss count — a disagreement makes the timing
    meaningless, so it is fatal rather than a warning.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats}")
    measurement = get_measurement(scale, registry=registry)
    ledger = RunLedger()
    total_legacy = 0.0
    total_plane = 0.0
    total_cube = 0.0
    references = 0
    for label, addresses, blocks, capacities_kw, ways in grid_cases(measurement):
        points = _grid_points(blocks, capacities_kw, ways)
        legacy_s, legacy_counts = _best_of(
            repeats, lambda: _legacy_counts(addresses, points, blocks)
        )
        plane_s, plane_counts = _best_of(
            repeats,
            lambda: _plane_counts(addresses, points, blocks, capacities_kw, ways),
        )
        cube_s, cube_counts = _best_of(
            repeats,
            lambda: _cube_counts(addresses, points, blocks, capacities_kw, ways),
        )
        if cube_counts != legacy_counts:
            raise ConfigurationError(
                f"single-pass cube disagrees with per-config dict LRU on "
                f"{label}: {cube_counts} != {legacy_counts}"
            )
        if cube_counts != plane_counts:
            raise ConfigurationError(
                f"single-pass cube disagrees with the per-block plane path "
                f"on {label}: {cube_counts} != {plane_counts}"
            )
        total_legacy += legacy_s
        total_plane += plane_s
        total_cube += cube_s
        references += len(addresses)
        ledger.record_experiment(f"legacy:{label}", legacy_s)
        ledger.record_experiment(f"plane:{label}", plane_s)
        ledger.record_experiment(f"cube:{label}", cube_s)
        print(
            f"[{label}] refs={len(addresses)} points={len(points)} "
            f"legacy={legacy_s:.3f}s plane={plane_s:.3f}s "
            f"cube={cube_s:.3f}s ({legacy_s / cube_s:.2f}x vs legacy, "
            f"{plane_s / cube_s:.2f}x vs plane)",
            file=stream,
        )
    ledger.set_run_info(
        benchmark="miss-cube",
        scale=_registry_or_default(registry).resolve_scale(scale),
        seed=getattr(measurement, "seed", None),
        total_instructions=getattr(measurement, "total_instructions", None),
        grid_references=references,
        repeats=repeats,
        legacy_wall_s=total_legacy,
        plane_wall_s=total_plane,
        cube_wall_s=total_cube,
        speedup=total_legacy / total_cube,
        plane_speedup=total_plane / total_cube,
        wall_s=total_legacy + total_plane + total_cube,
    )
    print(
        f"total: legacy={total_legacy:.3f}s plane={total_plane:.3f}s "
        f"cube={total_cube:.3f}s speedup={total_legacy / total_cube:.2f}x",
        file=stream,
    )
    return ledger


def _peak_rss_mb() -> float:
    """Lifetime peak resident set (this process or any child), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KB


def _grid_set_counts(
    blocks: Sequence[int],
    capacities_kw: Sequence[float],
    ways: Sequence[int],
) -> Dict[int, List[int]]:
    """The set counts a production cube of this grid covers.

    The same canonical grid :class:`~repro.core.measurement.
    SuiteMeasurement` builds its cube artifacts over, so the timings are
    of the set range production pays for.
    """
    return canonical_cube_grid(
        blocks,
        capacity_words=kw_to_words(max(capacities_kw)),
        max_ways=max(ways),
        min_capacity_words=kw_to_words(min(capacities_kw)),
    ).set_counts


def _cubes_identical(a: MissCube, b: MissCube) -> bool:
    if dict(a.references) != dict(b.references) or a.max_ways != b.max_ways:
        return False
    if set(a.hits) != set(b.hits):
        return False
    for B in a.hits:
        if set(a.hits[B]) != set(b.hits[B]):
            return False
        for S in a.hits[B]:
            if not np.array_equal(a.hits[B][S], b.hits[B][S]):
                return False
    return True


def run_scale_benchmark(
    instructions: Sequence[int],
    repeats: int = 1,
    cube_jobs: int = 1,
    partitions: int = DEFAULT_PARTITIONS,
    serial_limit: int = DEFAULT_SERIAL_LIMIT,
    cache_dir: Optional[Path] = None,
    stream=sys.stdout,
) -> RunLedger:
    """The paper-surface cube along a scale axis, up to full Table 1 size.

    For each instruction budget: synthesize the multiprogrammed data
    stream as a disk-backed bundle
    (:meth:`~repro.core.measurement.SuiteMeasurement.
    dstream_address_bundle` — the memory-mapped view is what both
    engines consume), then time the whole paper block-size surface —
    the set range production cubes cover (:func:`~repro.core.
    measurement.canonical_cube_grid`) — through the set-partitioned
    out-of-core engine.  Budgets up to
    ``serial_limit`` also run the serial one-shot engine and the two
    cubes are asserted **bit-identical** (fatal otherwise); above the
    limit the serial pass is skipped and the partitioned build keeps its
    per-partition ``A = 1`` cross-check against the independent
    direct-mapped sweep.  Peak RSS (self and children) is recorded per
    budget, so the ledger shows full-scale memory staying bounded by the
    partition size rather than the trace length.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats}")
    if not instructions:
        raise ConfigurationError("need at least one instruction budget")
    blocks = tuple(BLOCK_SIZES)
    capacities_kw = tuple(CAPACITIES_KW)
    ways = tuple(ASSOCIATIVITIES)
    set_counts = _grid_set_counts(blocks, capacities_kw, ways)
    own_cache = cache_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-bench-cube-"))
        if own_cache
        else Path(cache_dir)
    )
    ledger = RunLedger()
    per_scale: List[Dict[str, object]] = []
    try:
        for total in sorted(int(n) for n in instructions):
            synth_started = time.perf_counter()
            measurement = SuiteMeasurement(
                total_instructions=total,
                store=ArtifactStore(cache_dir=root),
            )
            addresses = measurement.dstream_address_bundle()
            synth_s = time.perf_counter() - synth_started
            refs = len(addresses)

            serial_s: Optional[float] = None
            serial_cube: Optional[MissCube] = None
            if total <= serial_limit:
                serial_s = float("inf")
                for _ in range(repeats):
                    started = time.perf_counter()
                    serial_cube = miss_cube_from_addresses(
                        addresses, blocks, set_counts, max(ways)
                    )
                    serial_s = min(serial_s, time.perf_counter() - started)

            executor = SweepExecutor(jobs=cube_jobs)
            part_s = float("inf")
            try:
                for _ in range(repeats):
                    started = time.perf_counter()
                    part_cube = partitioned_miss_cube_from_addresses(
                        addresses,
                        blocks,
                        set_counts,
                        max(ways),
                        partitions=partitions,
                        executor=executor,
                    )
                    part_s = min(part_s, time.perf_counter() - started)
            finally:
                executor.shutdown()

            identical: Optional[bool] = None
            if serial_cube is not None:
                identical = _cubes_identical(serial_cube, part_cube)
                if not identical:
                    raise ConfigurationError(
                        f"partitioned cube disagrees with the serial engine "
                        f"at {total} instructions"
                    )
            rss_mb = _peak_rss_mb()
            entry = {
                "instructions": total,
                "references": refs,
                "synth_wall_s": round(synth_s, 3),
                "serial_wall_s": (
                    round(serial_s, 3) if serial_s is not None else None
                ),
                "partitioned_wall_s": round(part_s, 3),
                "serial_instr_per_s": (
                    round(total / serial_s, 1) if serial_s else None
                ),
                "partitioned_instr_per_s": round(total / part_s, 1),
                "bit_identical_to_serial": identical,
                "peak_rss_mb": round(rss_mb, 1),
            }
            per_scale.append(entry)
            if serial_s is not None:
                ledger.record_experiment(f"cube_serial:{total}", serial_s)
            ledger.record_experiment(f"cube_partitioned:{total}", part_s)
            serial_txt = f"serial={serial_s:.3f}s " if serial_s is not None else ""
            ident_txt = (
                "identical " if identical else ("" if identical is None else "DIFFER ")
            )
            print(
                f"[scale {total}] refs={refs} synth={synth_s:.3f}s "
                f"{serial_txt}partitioned={part_s:.3f}s {ident_txt}"
                f"({total / part_s:,.0f} instr/s, peak_rss={rss_mb:.0f}MB)",
                file=stream,
            )
            del addresses, serial_cube, part_cube, measurement
    finally:
        if own_cache:
            shutil.rmtree(root, ignore_errors=True)
    full = per_scale[-1]
    ledger.set_run_info(
        benchmark="miss-cube-scale",
        partitions=partitions,
        cube_jobs=cube_jobs,
        repeats=repeats,
        serial_limit=serial_limit,
        scales=per_scale,
        full_scale_instructions=full["instructions"],
        full_scale_wall_s=full["partitioned_wall_s"],
        full_scale_wall_min=round(full["partitioned_wall_s"] / 60.0, 2),
        full_scale_instr_per_s=full["partitioned_instr_per_s"],
        peak_rss_mb=full["peak_rss_mb"],
        wall_s=sum(e["partitioned_wall_s"] for e in per_scale),
    )
    print(
        f"full scale: {full['instructions']:,} instructions in "
        f"{full['partitioned_wall_s'] / 60.0:.1f} min "
        f"({full['partitioned_instr_per_s']:,.0f} instr/s), "
        f"peak rss {full['peak_rss_mb']:.0f} MB",
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
        description="Time per-config simulation vs. the single-pass miss cube."
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
    parser.add_argument(
        "--scales",
        type=str,
        default=None,
        metavar="N,N,...",
        help="comma-separated instruction budgets for the scale-axis "
        "benchmark (e.g. 400000,4000000); 'paper' selects the full axis "
        "up to 2.4G instructions; overrides --scale",
    )
    parser.add_argument(
        "--cube-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the partitioned reduce (default: 1)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=DEFAULT_PARTITIONS,
        metavar="P",
        help="set partitions for the out-of-core engine (power of two, "
        f"default: {DEFAULT_PARTITIONS})",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="artifact/spill directory for the scale benchmark "
        "(default: a fresh temp dir, removed afterwards)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.cube_jobs < 1:
        parser.error(f"--cube-jobs must be at least 1, got {args.cube_jobs}")
    try:
        if args.scales is not None:
            if args.scales.strip() == "paper":
                budgets: Sequence[int] = DEFAULT_SCALE_AXIS
            else:
                try:
                    budgets = [
                        int(part) for part in args.scales.split(",") if part
                    ]
                except ValueError:
                    parser.error(f"invalid --scales value: {args.scales!r}")
            ledger = run_scale_benchmark(
                budgets,
                repeats=args.repeats,
                cube_jobs=args.cube_jobs,
                partitions=args.partitions,
                cache_dir=args.cache_dir,
            )
        else:
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
