"""Set-partitioned parallel cube: bit-identity, fallback, out-of-core.

The partitioned engine's only contract is that it is invisible: over
any stream, any chunk size, any partition count, and any worker count —
including a worker pool that dies mid-reduce — the merged cube must be
*bit-identical* to the serial one-shot engine on the same inputs.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.cubepart as cubepart
from repro.cache.cubepart import (
    partitioned_miss_cube,
    partitioned_miss_cube_from_addresses,
)
from repro.cache.fastsim import addresses_to_blocks
from repro.cache.misscube import (
    capacity_set_counts,
    miss_cube,
    miss_cube_from_addresses,
)
from repro.core.measurement import canonical_cube_grid
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.obs.tracer import Tracer

BLOCKS = (4, 8, 16)

#: Floor a capacity grid at the paper's 1 KW / 8 ways, as production
#: cubes are: every level then closes at eight partitions.
PAPER_FLOOR = {"min_capacity_words": 1024, "max_ways": 8}

addresses = st.lists(st.integers(min_value=0, max_value=4095), max_size=400)


def assert_cubes_identical(expected, got):
    assert dict(expected.references) == dict(got.references)
    assert expected.max_ways == got.max_ways
    assert set(expected.hits) == set(got.hits)
    for B in expected.hits:
        assert set(expected.hits[B]) == set(got.hits[B]), B
        for S in expected.hits[B]:
            assert np.array_equal(expected.hits[B][S], got.hits[B][S]), (B, S)


def _spans(roots):
    stack = list(roots)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def _partitions_used(tracer):
    return [
        span.attrs["partitions"]
        for span in _spans(tracer.roots)
        if span.name == "cube.partition"
    ]


def _span_names(roots):
    return {span.name for span in _spans(roots)}


class TestPartitionedEqualsSerial:
    @given(
        addrs=addresses,
        partition_log2=st.integers(min_value=0, max_value=4),
        chunk_refs=st.integers(min_value=1, max_value=64),
        levels=st.sets(st.integers(min_value=0, max_value=6), min_size=1),
        max_ways=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_out_of_core_any_chunking_any_partitioning(
        self, addrs, partition_log2, chunk_refs, levels, max_ways
    ):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = [1 << k for k in levels]
        serial = miss_cube_from_addresses(stream, BLOCKS, set_counts, max_ways)
        got = partitioned_miss_cube_from_addresses(
            stream,
            BLOCKS,
            set_counts,
            max_ways,
            partitions=1 << partition_log2,
            chunk_refs=chunk_refs,
        )
        assert_cubes_identical(serial, got)

    @given(
        addrs=addresses,
        partition_log2=st.integers(min_value=0, max_value=4),
        chunk_refs=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunk_iterable_input_matches_array_input(
        self, addrs, partition_log2, chunk_refs
    ):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = capacity_set_counts(BLOCKS, 1024, **PAPER_FLOOR)
        serial = miss_cube_from_addresses(stream, BLOCKS, set_counts, 4)
        pieces = (
            stream[i : i + chunk_refs] for i in range(0, len(stream), chunk_refs)
        )
        got = partitioned_miss_cube_from_addresses(
            pieces,
            BLOCKS,
            set_counts,
            4,
            partitions=1 << partition_log2,
            chunk_refs=chunk_refs,
        )
        assert_cubes_identical(serial, got)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        partition_log2=st.integers(min_value=0, max_value=5),
        max_ways=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_block_streams_form(self, seed, partition_log2, max_ways):
        rng = np.random.default_rng(seed)
        streams = {
            B: rng.integers(0, 2048, size=int(rng.integers(0, 600))).astype(
                np.int64
            )
            for B in BLOCKS
        }
        set_counts = [1, 2, 4, 8, 16, 32, 64]
        serial = miss_cube(streams, set_counts, max_ways)
        got = partitioned_miss_cube(
            streams,
            set_counts,
            max_ways,
            partitions=1 << partition_log2,
        )
        assert_cubes_identical(serial, got)

    def test_coarse_residue_full_capacity_grid(self):
        # capacity_set_counts covers every level down to one set, which
        # no partition closes: instead of leaving a coarse residue for a
        # serial pass, the build drops to one partition and must still
        # come back identical to the serial cube.
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 15, size=20000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 8192)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        tracer = Tracer()
        got = partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 8, partitions=8, tracer=tracer
        )
        assert_cubes_identical(serial, got)
        assert _partitions_used(tracer) == [1]

    def test_empty_stream(self):
        counts = capacity_set_counts(BLOCKS, 256)
        serial = miss_cube_from_addresses(
            np.empty(0, dtype=np.int64), BLOCKS, counts, 4
        )
        got = partitioned_miss_cube_from_addresses(
            np.empty(0, dtype=np.int64), BLOCKS, counts, 4, partitions=8
        )
        assert_cubes_identical(serial, got)


class TestParallelWorkers:
    def test_process_pool_reduce_is_identical(self):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 14, size=30000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 4096, **PAPER_FLOOR)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        executor = SweepExecutor(jobs=2)
        try:
            got = partitioned_miss_cube_from_addresses(
                addrs, BLOCKS, counts, 8, partitions=8, executor=executor
            )
            streams = {B: rng.integers(0, 4096, size=20000) for B in BLOCKS}
            serial_mem = miss_cube(streams, [8, 16, 32, 64], 4)
            got_mem = partitioned_miss_cube(
                streams, [8, 16, 32, 64], 4, partitions=8, executor=executor
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert_cubes_identical(serial_mem, got_mem)

    def test_broken_pool_mid_reduce_falls_back_to_identical_counts(
        self, monkeypatch
    ):
        # Partition 1's reduce hard-exits inside any forked worker (a
        # real BrokenProcessPool, not a mock); the parent must finish
        # the reduce serially and still merge bit-identical counts.
        rng = np.random.default_rng(12)
        addrs = rng.integers(0, 1 << 13, size=12000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 2048, **PAPER_FLOOR)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        monkeypatch.setattr(
            cubepart, "_FAULT_PARTS", (os.getpid(), frozenset({1}))
        )
        executor = SweepExecutor(jobs=2)
        tracer = Tracer()
        try:
            got = partitioned_miss_cube_from_addresses(
                addrs,
                BLOCKS,
                counts,
                4,
                partitions=8,
                executor=executor,
                tracer=tracer,
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert "cube.serial_fallback" in _span_names(tracer.roots)

    def test_every_partition_faulting_still_identical(self, monkeypatch):
        rng = np.random.default_rng(13)
        streams = {B: rng.integers(0, 1024, size=8000) for B in BLOCKS}
        serial = miss_cube(streams, [8, 16, 32], 4)
        monkeypatch.setattr(
            cubepart, "_FAULT_PARTS", (os.getpid(), frozenset(range(8)))
        )
        executor = SweepExecutor(jobs=2)
        try:
            got = partitioned_miss_cube(
                streams, [8, 16, 32], 4, partitions=8, executor=executor
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)

    def test_stub_executor_that_always_crashes_falls_back(self):
        class _DeadExecutor:
            jobs = 4
            backend = "process"
            is_serial = False
            is_parallel = True

            def map(self, fn, items):
                raise ConfigurationError("sweep worker pool crashed twice")

        rng = np.random.default_rng(14)
        addrs = rng.integers(0, 1 << 12, size=9000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024, **PAPER_FLOOR)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        got = partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 4, partitions=4, executor=_DeadExecutor()
        )
        assert_cubes_identical(serial, got)


class TestObservability:
    def test_partition_reduce_and_progress_spans(self):
        rng = np.random.default_rng(15)
        addrs = rng.integers(0, 1 << 12, size=5000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs,
            BLOCKS,
            counts,
            4,
            partitions=8,
            tracer=tracer,
            progress_refs=1000,
        )
        names = _span_names(tracer.roots)
        assert "cube.partition" in names
        assert "cube.reduce" in names
        assert "cube.progress" in names  # heartbeat for liveness
        # The capacity grid reaches down to one set, which no partition
        # closes: the build runs as one partition instead of leaving a
        # residue for a serial pass.
        assert _partitions_used(tracer) == [1]

    def test_progress_counters_accumulate(self):
        rng = np.random.default_rng(16)
        addrs = rng.integers(0, 1 << 12, size=4000).astype(np.int64)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs,
            BLOCKS,
            [32, 64],
            2,
            partitions=4,
            tracer=tracer,
            progress_refs=500,
        )
        beats = []
        stack = list(tracer.roots)
        while stack:
            span = stack.pop()
            if span.name == "cube.progress":
                beats.append(span)
            stack.extend(span.children)
        assert beats
        reduced = [
            s.counters["partitions_reduced"]
            for s in beats
            if "partitions_reduced" in s.counters
        ]
        assert reduced and max(reduced) == 4
        consumed = [
            s.counters["references_consumed"]
            for s in beats
            if "references_consumed" in s.counters
        ]
        assert consumed and max(consumed) == len(addrs)


class TestValidationAndClosure:
    def test_rejects_non_power_of_two_partitions(self):
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube({4: np.arange(4)}, [4], 2, partitions=3)
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(
                np.arange(4), [4], [4], 2, partitions=0
            )

    def test_rejects_bad_chunk_refs(self):
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(
                np.arange(4), [4], [4], 2, chunk_refs=0
            )

    def test_address_form_closure_thresholds(self):
        # Address streams are partitioned on the coarsest block size's
        # index bits, so a finer block size needs log2(Bmax/B) extra
        # set-index bits before the partition bits are contained: with
        # P = 8 and blocks 4/8/16 the thresholds are S >= 32/16/8.
        extra = {4: 2, 8: 1, 16: 0}
        at_threshold = {4: [32, 64], 8: [16, 32], 16: [8, 16]}
        assert cubepart._closed_partitions(at_threshold, 8, extra) == 8
        # One level below its threshold, at any block size, halves the
        # partition count instead of leaving that level unclosed.
        for B in BLOCKS:
            below = dict(at_threshold)
            below[B] = [at_threshold[B][0] // 2] + at_threshold[B]
            assert cubepart._closed_partitions(below, 8, extra) == 4
        # A one-set level closes only the whole stream.
        assert cubepart._closed_partitions({16: [1, 8]}, 8, extra) == 1


def _closes(set_counts, partitions, extra_bits):
    """Every requested level holds every partition bit (one partition
    is the whole stream, which always closes)."""
    p = partitions.bit_length() - 1
    return p == 0 or all(
        S.bit_length() - 1 >= p + extra_bits[B]
        for B, counts in set_counts.items()
        for S in counts
    )


def _assert_largest_closed(tracer, set_counts, requested, extra_bits):
    """The build used the largest partition count up to the request at
    which every level closes."""
    (used,) = _partitions_used(tracer)
    assert used <= requested
    assert _closes(set_counts, used, extra_bits)
    assert used == requested or not _closes(set_counts, 2 * used, extra_bits)


class TestPartitionCountClosesEveryLevel:
    """Both forms pick the largest partition count that closes every level."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        blocks=st.sets(st.sampled_from((2, 4, 8, 16)), min_size=1),
        floor_log2=st.integers(min_value=0, max_value=5),
        top_log2=st.integers(min_value=0, max_value=4),
        partition_log2=st.integers(min_value=0, max_value=4),
        on_pool=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_both_forms_equal_miss_cube(
        self, seed, blocks, floor_log2, top_log2, partition_log2, on_pool
    ):
        rng = np.random.default_rng(seed)
        blocks = tuple(sorted(blocks))
        addrs = rng.integers(0, 1 << 13, size=int(rng.integers(1, 3000)))
        # Levels from 1 << floor_log2 sets (floor_log2 = 0 is one set)
        # up to top_log2 doublings above, at every block size.
        set_counts = {
            B: [1 << k for k in range(floor_log2, floor_log2 + top_log2 + 1)]
            for B in blocks
        }
        requested = 1 << partition_log2
        # A fresh pool per example: it forks at the first map, after the
        # in-memory form has exported its partitions, so its workers
        # really reduce them.
        executor = SweepExecutor(jobs=2) if on_pool else SweepExecutor()
        try:
            streams = {B: addresses_to_blocks(addrs, B) for B in blocks}
            tracer = Tracer()
            got = partitioned_miss_cube(
                streams, set_counts, 4,
                partitions=requested, executor=executor, tracer=tracer,
            )
            assert_cubes_identical(miss_cube(streams, set_counts, 4), got)
            _assert_largest_closed(
                tracer, set_counts, requested, {B: 0 for B in blocks}
            )

            tracer = Tracer()
            got = partitioned_miss_cube_from_addresses(
                addrs, blocks, set_counts, 4,
                partitions=requested, executor=executor, tracer=tracer,
                chunk_refs=512,
            )
            assert_cubes_identical(
                miss_cube_from_addresses(addrs, blocks, set_counts, 4), got
            )
            largest = blocks[-1]
            _assert_largest_closed(
                tracer,
                set_counts,
                requested,
                {B: (largest // B).bit_length() - 1 for B in blocks},
            )
        finally:
            executor.shutdown()

    def test_paper_grid_closes_at_eight_partitions_on_both_forms(self):
        # The canonical cube's floor (1 KW at 8 ways: 32/16/8 sets at
        # 4/8/16-word blocks) closes at the default partition count on
        # both the per-block and the shared-address form.
        set_counts = canonical_cube_grid(BLOCKS).set_counts
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 1 << 16, size=5000).astype(np.int64)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, set_counts, 8, tracer=tracer
        )
        partitioned_miss_cube(
            {B: addresses_to_blocks(addrs, B) for B in BLOCKS},
            set_counts,
            8,
            tracer=tracer,
        )
        assert _partitions_used(tracer) == [8, 8]
