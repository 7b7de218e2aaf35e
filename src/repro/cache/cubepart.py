"""Set-partitioned, out-of-core, parallel miss-cube construction.

The single-pass engine (:mod:`repro.cache.misscube`) answers the whole
``(block size × sets × ways)`` cube exactly, but it is one serial pass
holding one process's worth of derived arrays — at the paper's
2.4G-instruction scale that is hours of one core and tens of gigabytes
of rank-count state.  This module splits the same computation across
*set partitions*:

**Why partitioning is exact.**  Power-of-two set indices nest: the set
index of a ``2^k``-set cache is the low ``k`` bits of the block index.
Partition the reference stream by the low ``p`` bits of the block index
(the *coarsest* partitioned set index) and every geometry whose set
index contains those ``p`` bits decomposes exactly: each cache set lives
entirely inside one partition, the partition substream preserves each
set's reference subsequence verbatim, and LRU stack distances are
per-set quantities.  Each partition's miss counts can therefore be
computed independently — by the unmodified serial engine — and summed
(integer counts; addition is exact and order-independent, so the merged
cube is *bit-identical* to the one-shot serial cube).

**The block-size axis.**  For per-block-size streams the closure
condition is simply ``S >= partitions``.  When every block size is a
shift view of one shared byte-address stream, the partition key is the
coarsest covered block size's index bits — address bits
``[log2(Bmax*WB), log2(Bmax*WB) + p)`` — and a geometry ``(B, S)``
decomposes iff that window sits inside its set-index window:
``log2(S) >= p + log2(Bmax / B)``.

**The partition count closes every level.**  A set count below the
closure threshold is inherently global — a single LRU stack over the
whole stream cannot be split — so a build never partitions past it:
both forms use the largest power of two no greater than the requested
``partitions`` at which *every* requested level closes
(:func:`_closed_partitions`).  The canonical cubes of
:class:`~repro.core.measurement.SuiteMeasurement` are floored at the
paper grid (32/16/8 sets at 4/8/16-word blocks), which closes at the
default eight partitions on both forms; an off-grid request reaching
down to fewer sets simply runs with fewer partitions, down to one (the
whole stream, reduced in-process), which is slower but just as exact.

**The cross-check runs where each partition is reduced.**  Every
partition's ``A = 1`` base is verified against the independent
adjacent-tag sweep (:func:`~repro.cache.fastsim.
direct_mapped_miss_sweep`) on the same substreams, in the reduce worker,
and a disagreement is fatal.  Because every level closes, the
per-partition counts sum exactly to the whole-stream counts, so
per-partition agreement is whole-cube agreement; a serial build is
``P = 1`` and its check covers the whole stream.

**Out-of-core.**  :func:`partitioned_miss_cube_from_addresses` consumes
its address stream in O(chunk) memory — an ndarray (typically a
memory-mapped trace bundle from :meth:`~repro.engine.store.
ArtifactStore.get_or_stream`) or any iterable of address chunks —
scattering references into per-partition spill segments via
:class:`~repro.trace.io.StreamingBundleWriter`.  The finalized spill is
memory-mapped back, so reduce workers (parallel or serial) read
partition buffers through the page cache: nothing larger than a file
locator is ever pickled, and every process mapping a partition shares
one set of physical pages.  The in-memory form
(:func:`partitioned_miss_cube`) instead exports partition buffers
through the :class:`~repro.engine.shm.SharedBundleRegistry`, so forked
sweep workers attach named shared-memory segments rather than receiving
pickled arrays.

**Failure containment.**  Reduces are dispatched through a
:class:`~repro.engine.executor.SweepExecutor` in jobs-sized waves (each
wave closes a ``cube.progress`` span, so long builds stay visible on
service event streams).  A worker pool that dies (``BrokenProcessPool``
twice without progress) or a worker that cannot see the shared buffers
(spawn start method, stale pool) degrades to the parent recomputing the
affected partitions serially — same substreams, same engine, identical
counts.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.fastsim import direct_mapped_miss_sweep
from repro.cache.geometry import checked_block_words, checked_levels
from repro.cache.misscube import (
    MissCube,
    SetCounts,
    ShiftedStreams,
    _normalized_set_counts,
    miss_cube,
)
from repro.engine.executor import SweepExecutor
from repro.engine.shm import SHARED_BUNDLES
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.trace.io import StreamingBundleWriter, delete_entry, load_arrays
from repro.utils.units import WORD_BYTES, is_power_of_two, log2_int

__all__ = [
    "DEFAULT_PARTITIONS",
    "DEFAULT_CHUNK_REFS",
    "partitioned_miss_cube",
    "partitioned_miss_cube_from_addresses",
]

#: Default set-partition count.  Eight partitions (three index bits)
#: close every level of the canonical, paper-grid-floored cube on both
#: forms (the address form partitions at the 16-word block size), and
#: bound each reduce worker's memory to roughly an eighth of the serial
#: pass.
DEFAULT_PARTITIONS = 8

#: Default partition-pass chunk length (references).  4M int64
#: addresses is 32 MB — large enough to amortize the per-chunk scatter,
#: small enough that the pass stays O(chunk) in any reasonable budget.
DEFAULT_CHUNK_REFS = 1 << 22

#: Shared-memory group prefix for in-memory partition buffers.
_SHM_PREFIX = "cubepart"

#: Parent-side partition stash for in-process reduces: serial executors
#: (and forked workers, via copy-on-write) resolve partition buffers
#: here when the shared-memory registry misses.  Keyed by
#: ``(token, partition)``; entries never outlive their build.
_LOCAL_PARTS: Dict[Tuple[str, int], Mapping[int, np.ndarray]] = {}

#: Test-only fault hook: ``(parent_pid, {partition indices})``.  A
#: *forked worker* (pid differs from the recorded parent) asked to
#: reduce one of the listed partitions hard-exits, simulating an OOM
#: kill mid-reduce; the parent itself never faults, so the serial
#: fallback path stays exact.  See tests/cache/test_cubepart.py.
_FAULT_PARTS: Optional[Tuple[int, frozenset]] = None


def _maybe_fault(partition: int) -> None:
    if _FAULT_PARTS is not None:
        pid, parts = _FAULT_PARTS
        if os.getpid() != pid and partition in parts:
            os._exit(1)


# -- geometry bookkeeping ------------------------------------------------------


def _checked_partitions(partitions: int) -> int:
    partitions = int(partitions)
    if partitions < 1 or not is_power_of_two(partitions):
        raise ConfigurationError(
            f"cube partitions must be a positive power of two, got {partitions}"
        )
    return partitions


def _closed_partitions(
    covered: Mapping[int, Sequence[int]],
    partitions: int,
    extra_bits: Mapping[int, int],
) -> int:
    """The partition count a build actually uses.

    A set count ``S`` at block size ``B`` decomposes across ``2^p``
    partitions iff its set-index window holds every partition bit:
    ``log2(S) >= p + extra_bits[B]``.  The result is the largest power
    of two no greater than ``partitions`` at which every covered level
    closes, so no level is ever left for a serial pass.
    """
    bits = log2_int(partitions)
    for B, counts in covered.items():
        bits = min(bits, min(checked_levels(counts).values()) - extra_bits[B])
    return 1 << max(bits, 0)


def _partition_hits(
    streams: Mapping[int, np.ndarray],
    set_counts: Mapping[int, Sequence[int]],
    max_ways: int,
) -> Dict[int, Dict[int, np.ndarray]]:
    """One partition's cube, cross-checked where it is reduced.

    The unmodified serial engine runs on the partition's substreams;
    then every block size's ``A = 1`` base must match the independent
    adjacent-tag sweep (:func:`~repro.cache.fastsim.
    direct_mapped_miss_sweep`) on the same substreams.  Both claim to
    be exact by unrelated algorithms (stack distances vs. adjacent-tag
    comparison), so a disagreement means one of them is wrong and is
    fatal.  This is also what pins every cube-backed experiment output
    to the retired per-axis simulation bit for bit.
    """
    cube = miss_cube(streams, set_counts, max_ways)
    for B in cube.block_words:
        axis = direct_mapped_miss_sweep(streams[B], cube.set_counts(B))
        for num_sets, expected in axis.items():
            got = cube.misses(B, num_sets, 1)
            if got != expected:
                raise RuntimeError(
                    f"cube A=1 base disagrees with the direct-mapped sweep "
                    f"at B={B}, {num_sets} sets ({got} != {expected})"
                )
    return {B: dict(cube.hits[B]) for B in cube.block_words}


# -- reduce workers (module-level for pickling) --------------------------------


def _reduce_shared(item: Tuple[Any, ...]) -> Optional[Dict[int, Dict[int, np.ndarray]]]:
    """Worker task: reduce one in-memory partition.

    Buffers resolve through the shared-memory registry first (forked
    workers attach the parent's segments zero-copy), then the parent's
    local stash (serial executors; copy-on-write forks).  A miss — a
    spawned worker, or a pool forked before the export — returns None
    and the parent recomputes the partition itself.
    """
    token, group, partition, counts, max_ways = item
    _maybe_fault(partition)
    arrays = SHARED_BUNDLES.lookup(group, f"p{partition:03d}")
    if arrays is not None:
        streams: Optional[Mapping[int, np.ndarray]] = {
            int(name[1:]): array for name, array in arrays.items()
        }
    else:
        streams = _LOCAL_PARTS.get((token, partition))
    if streams is None:
        return None
    return _partition_hits(streams, counts, max_ways)


def _reduce_spilled(item: Tuple[Any, ...]) -> Dict[int, Dict[int, np.ndarray]]:
    """Worker task: reduce one spilled partition from the mmap'd bundle.

    Only the spill locator crosses the process boundary; the partition's
    addresses are memory-mapped from the finalized spill segment, so
    every worker (and the parent) shares one set of page-cache pages.
    """
    digest, spill_dir, partition, counts, max_ways = item
    _maybe_fault(partition)
    arrays = load_arrays(digest, cache_dir=Path(spill_dir))
    if arrays is None:
        raise ConfigurationError(
            f"cube spill bundle {digest} vanished mid-reduce"
        )
    streams = ShiftedStreams(arrays[f"p{partition:03d}"], tuple(counts))
    return _partition_hits(streams, counts, max_ways)


# -- wave-dispatched reduce with serial fallback -------------------------------


def _reduce_partitions(
    items: Sequence[Any],
    reducer,
    fallback,
    executor: SweepExecutor,
    tracer,
) -> List[Dict[int, Dict[int, np.ndarray]]]:
    """Map partition tasks in jobs-sized waves, degrading to the parent.

    Waves keep long reduces observable (one ``cube.progress`` heartbeat
    per wave) and bound how much work an executor failure can lose.  A
    pool that breaks twice without progress (the executor's
    ``ConfigurationError``) — or a worker that cannot see its buffers —
    drops to an in-parent serial recompute of the affected partitions,
    which produces identical counts by construction.
    """
    results: List[Optional[Dict[int, Dict[int, np.ndarray]]]] = [None] * len(items)
    wave = max(1, executor.jobs)
    with tracer.span(
        "cube.reduce",
        partitions=len(items),
        backend=executor.backend,
        jobs=executor.jobs,
    ) as span:
        reduced = 0
        for start in range(0, len(items), wave):
            batch = list(items[start : start + wave])
            try:
                mapped = executor.map(reducer, batch)
            except ConfigurationError:
                # The worker pool is unrecoverable; finish serially.
                remaining = len(items) - start
                span.count("fallback_partitions", remaining)
                with tracer.span(
                    "cube.serial_fallback", partitions=remaining
                ):
                    for index in range(start, len(items)):
                        results[index] = fallback(index)
                        reduced += 1
                with tracer.span("cube.progress", stage="reduce") as beat:
                    beat.count("partitions_reduced", reduced)
                break
            for offset, value in enumerate(mapped):
                index = start + offset
                if value is None:
                    # The worker could not see the shared buffers
                    # (spawned pool, pre-export fork) — recompute here.
                    span.count("fallback_partitions")
                    value = fallback(index)
                results[index] = value
                reduced += 1
            with tracer.span("cube.progress", stage="reduce") as beat:
                beat.count("partitions_reduced", reduced)
    return [result for result in results if result is not None]


def _merge_partition_hits(
    blocks: Sequence[int],
    covered: Mapping[int, Sequence[int]],
    max_ways: int,
    references: Mapping[int, int],
    partition_hits: Iterable[Mapping[int, Mapping[int, np.ndarray]]],
) -> MissCube:
    """Exact merge: per-geometry integer hit curves sum across partitions."""
    merged = {
        B: {S: np.zeros(max_ways + 1, dtype=np.int64) for S in covered.get(B, ())}
        for B in blocks
    }
    for hits in partition_hits:
        for B, per_sets in hits.items():
            for S, curve in per_sets.items():
                merged[B][S] += np.asarray(curve, dtype=np.int64)
    return MissCube(references=references, max_ways=max_ways, hits=merged)


def _covered(
    blocks: Tuple[int, ...], set_counts: SetCounts
) -> Dict[int, Tuple[int, ...]]:
    """The block sizes that ask for any set count, with their counts."""
    per_block = _normalized_set_counts(blocks, set_counts)
    return {B: tuple(per_block[B]) for B in blocks if per_block[B]}


# -- in-memory form ------------------------------------------------------------


def partitioned_miss_cube(
    streams: Mapping[int, np.ndarray],
    set_counts: SetCounts,
    max_ways: int,
    *,
    partitions: int = DEFAULT_PARTITIONS,
    executor: Optional[SweepExecutor] = None,
    tracer=None,
) -> MissCube:
    """:func:`~repro.cache.misscube.miss_cube`, split across set partitions.

    Bit-identical to the serial engine on the same inputs.  Each block
    size's stream is scattered by the low ``log2(P)`` block bits, where
    ``P`` is the largest power of two up to ``partitions`` with every
    requested set count ``S >= P``; each partition is reduced (in
    parallel when ``executor`` is) and cross-checked, and the integer
    hit curves are summed.  At ``P = 1`` the whole streams are reduced
    in-process without a copy.  Partition buffers reach forked workers
    through the shared-memory registry
    (:data:`~repro.engine.shm.SHARED_BUNDLES`), never by pickling.
    """
    blocks = checked_block_words(list(streams))
    covered = _covered(blocks, set_counts)
    requested = _checked_partitions(partitions)
    partitions = _closed_partitions(covered, requested, {B: 0 for B in blocks})
    executor = executor if executor is not None else SweepExecutor()
    tracer = tracer if tracer is not None else NULL_TRACER
    max_ways = int(max_ways)
    references = {B: len(streams[B]) for B in blocks}

    token = f"{_SHM_PREFIX}-{uuid.uuid4().hex[:16]}"
    parts: List[Dict[int, np.ndarray]] = [dict() for _ in range(partitions)]
    with tracer.span(
        "cube.partition",
        partitions=partitions,
        requested=requested,
        backend="memory",
    ) as span:
        for B in covered:
            span.count("references", references[B])
            if partitions == 1:
                parts[0][B] = streams[B]
                continue
            stream = np.asarray(streams[B], dtype=np.int64)
            key = stream & (partitions - 1)
            for index in range(partitions):
                parts[index][B] = stream[key == index]
            del stream, key

    exported = False
    partition_hits: List[Dict[int, Dict[int, np.ndarray]]] = []
    try:
        for index in range(partitions):
            _LOCAL_PARTS[(token, index)] = parts[index]
        if executor.is_parallel and partitions > 1 and covered:
            for index in range(partitions):
                SHARED_BUNDLES.export(
                    token,
                    f"p{index:03d}",
                    {f"b{B}": array for B, array in parts[index].items()},
                )
            exported = True
        if covered:
            partition_hits = _reduce_partitions(
                [(token, token, index, covered, max_ways)
                 for index in range(partitions)],
                _reduce_shared,
                lambda index: _partition_hits(parts[index], covered, max_ways),
                executor,
                tracer,
            )
    finally:
        for index in range(partitions):
            _LOCAL_PARTS.pop((token, index), None)
        if exported:
            SHARED_BUNDLES.retire(token)
    return _merge_partition_hits(
        blocks, covered, max_ways, references, partition_hits
    )


# -- out-of-core form ----------------------------------------------------------


def _iter_address_chunks(
    addresses: Union[np.ndarray, Iterable[np.ndarray]], chunk_refs: int
) -> Iterable[np.ndarray]:
    if isinstance(addresses, np.ndarray):
        for start in range(0, len(addresses), chunk_refs):
            yield addresses[start : start + chunk_refs]
    else:
        for chunk in addresses:
            yield np.asarray(chunk)


def partitioned_miss_cube_from_addresses(
    addresses: Union[np.ndarray, Iterable[np.ndarray]],
    block_words: Sequence[int],
    set_counts: SetCounts,
    max_ways: int,
    *,
    partitions: int = DEFAULT_PARTITIONS,
    executor: Optional[SweepExecutor] = None,
    tracer=None,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    spill_dir: Optional[Path] = None,
    progress_refs: Optional[int] = None,
) -> MissCube:
    """The full cube of one byte-address stream, out-of-core and parallel.

    Bit-identical to
    :func:`~repro.cache.misscube.miss_cube_from_addresses` on the same
    stream.  ``addresses`` may be an ndarray (a memory-mapped bundle
    from :meth:`~repro.engine.store.ArtifactStore.get_or_stream` works
    unchanged and is never copied whole) or any iterable of address
    chunks; the partition pass consumes it in O(``chunk_refs``) memory,
    scattering by the coarsest block size's low partition bits into
    per-partition spill segments (:class:`~repro.trace.io.
    StreamingBundleWriter`).  The partition count is the largest power
    of two up to ``partitions`` at which every requested level closes
    (``log2(S) >= p + log2(Bmax / B)``).  Reduce workers memory-map the
    finalized spill — locators are pickled, buffers never are — and run
    the unmodified serial engine per partition, each one cross-checked
    against the independent ``A = 1`` sweep.
    """
    blocks = checked_block_words(block_words)
    covered = _covered(blocks, set_counts)
    largest = blocks[-1]
    requested = _checked_partitions(partitions)
    partitions = _closed_partitions(
        covered, requested, {B: log2_int(largest // B) for B in blocks}
    )
    executor = executor if executor is not None else SweepExecutor()
    tracer = tracer if tracer is not None else NULL_TRACER
    max_ways = int(max_ways)
    if chunk_refs < 1:
        raise ConfigurationError(
            f"chunk_refs must be at least 1, got {chunk_refs}"
        )
    if progress_refs is None:
        progress_refs = 8 * chunk_refs

    own_spill = spill_dir is None
    spill_root = (
        Path(tempfile.mkdtemp(prefix="repro-cubepart-"))
        if own_spill
        else Path(spill_dir)
    )
    digest = f"{_SHM_PREFIX}-{uuid.uuid4().hex[:16]}"
    shift = log2_int(largest * WORD_BYTES)
    consumed = 0
    try:
        writer = StreamingBundleWriter(digest, cache_dir=spill_root)
        try:
            with tracer.span(
                "cube.partition",
                partitions=partitions,
                requested=requested,
                backend="spill",
            ) as span:
                since_beat = 0
                for chunk in _iter_address_chunks(addresses, chunk_refs):
                    chunk = np.asarray(chunk, dtype=np.int64)
                    if not len(chunk):
                        continue
                    key = (chunk >> shift) & (partitions - 1)
                    for index in range(partitions):
                        writer.append(f"p{index:03d}", chunk[key == index])
                    consumed += len(chunk)
                    since_beat += len(chunk)
                    span.count("references", len(chunk))
                    span.count("chunks")
                    if since_beat >= progress_refs:
                        with tracer.span(
                            "cube.progress", stage="partition"
                        ) as beat:
                            beat.count("references_consumed", consumed)
                        since_beat = 0
            if consumed == 0:
                empty = np.empty(0, dtype=np.int64)
                writer.abort()
                return miss_cube({B: empty for B in blocks}, covered, max_ways)
            writer.finalize()
        except BaseException:
            writer.abort()
            raise

        spilled = load_arrays(digest, cache_dir=spill_root)
        if spilled is None:
            raise ConfigurationError(
                f"cube spill bundle {digest} vanished before the reduce"
            )
        partition_hits: List[Dict[int, Dict[int, np.ndarray]]] = []
        if covered:
            partition_hits = _reduce_partitions(
                [(digest, str(spill_root), index, covered, max_ways)
                 for index in range(partitions)],
                _reduce_spilled,
                lambda index: _partition_hits(
                    ShiftedStreams(spilled[f"p{index:03d}"], tuple(covered)),
                    covered,
                    max_ways,
                ),
                executor,
                tracer,
            )
        return _merge_partition_hits(
            blocks,
            covered,
            max_ways,
            {B: consumed for B in blocks},
            partition_hits,
        )
    finally:
        delete_entry(digest, cache_dir=spill_root)
        if own_spill:
            shutil.rmtree(spill_root, ignore_errors=True)
