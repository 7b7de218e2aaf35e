"""SuiteMeasurement tests (subset session from conftest)."""

import numpy as np
import pytest

from repro.core import SuiteMeasurement
from repro.errors import ConfigurationError
from repro.workload import benchmark_by_name


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SuiteMeasurement(total_instructions=0)
        with pytest.raises(ConfigurationError):
            SuiteMeasurement(quantum_instructions=0)
        with pytest.raises(ConfigurationError):
            SuiteMeasurement(specs=[])

    def test_budgets_follow_weights(self, measurement):
        # gcc (235.7 M) must get a larger budget than small (16.7 M).
        budgets = dict(zip([s.name for s in measurement.specs], measurement._budgets))
        assert budgets["gcc"] > budgets["small"]

    def test_benchmarks_built_once(self, measurement):
        assert measurement.benchmarks is measurement.benchmarks


class TestAggregates:
    def test_canonical_instructions(self, measurement):
        total = sum(b.trace.instruction_count for b in measurement.benchmarks)
        assert measurement.canonical_instructions == total

    def test_cti_fraction_plausible(self, measurement):
        assert 0.05 < measurement.cti_fraction < 0.25

    def test_load_fraction_plausible(self, measurement):
        assert 0.10 < measurement.load_fraction < 0.40

    def test_code_expansion_monotone(self, measurement):
        pcts = [measurement.code_expansion_pct(b) for b in (0, 1, 2, 3)]
        assert pcts[0] == 0.0
        assert pcts == sorted(pcts)
        assert 2.0 < pcts[1] < 12.0  # Table 2 anchor: ~6 %

    def test_branch_stats_cached_and_consistent(self, measurement):
        stats = measurement.branch_stats(2)
        assert stats is measurement.branch_stats(2)
        assert stats.cti_count > 0
        assert 0 < stats.predicted_taken_pct < 100

    def test_branch_waste_grows_with_slots(self, measurement):
        cpis = [measurement.branch_stats(b).additional_cpi for b in (1, 2, 3)]
        assert cpis == sorted(cpis)

    def test_btb_stats(self, measurement):
        stats = measurement.btb_stats
        assert stats.ctis > 0
        assert 0.02 < stats.wrong_rate < 0.6

    def test_load_slack_aggregated(self, measurement):
        slack = measurement.load_slack
        assert sum(slack.dynamic_histogram.values()) == sum(
            slack.static_histogram.values()
        )
        assert 0.1 < slack.loads_per_instruction < 0.4


class TestStreamsAndMisses:
    def test_istream_covers_all_benchmarks(self, measurement):
        blocks = measurement.istream_blocks(0, 4)
        spaces = set(np.unique(blocks >> (36 - 4)))
        assert len(spaces) == len(measurement.specs)

    def test_istream_memoized(self, measurement):
        assert measurement.istream_blocks(0, 4) is measurement.istream_blocks(0, 4)

    def test_dstream_length_matches_refs(self, measurement):
        blocks = measurement.dstream_blocks(4)
        assert len(blocks) == measurement.data_reference_count

    def test_icache_misses_decrease_with_size(self, measurement):
        misses = [measurement.icache_misses(0, 4, s) for s in (1, 4, 16)]
        assert misses == sorted(misses, reverse=True)

    def test_icache_misses_increase_with_slots(self, measurement):
        # Code expansion from delay slots can only add misses at a small size.
        assert measurement.icache_misses(3, 4, 1) >= measurement.icache_misses(0, 4, 1)

    def test_dcache_misses_decrease_with_size(self, measurement):
        misses = [measurement.dcache_misses(4, s) for s in (1, 4, 16)]
        assert misses == sorted(misses, reverse=True)

    def test_icache_rejects_zero_sets(self, measurement):
        # 0.001 KW with 4-word blocks derives 0 sets; must not silently
        # simulate a degenerate cache.
        with pytest.raises(ConfigurationError, match="L1-I"):
            measurement.icache_misses(0, 4, 0.001)

    def test_icache_rejects_non_power_of_two_sets(self, measurement):
        # 1.5 KW / 4-word blocks = 384 sets: not a power of two.
        with pytest.raises(ConfigurationError, match="384 sets"):
            measurement.icache_misses(0, 4, 1.5)

    def test_icache_rejects_non_dividing_block(self, measurement):
        with pytest.raises(ConfigurationError, match="L1-I"):
            measurement.icache_misses(0, 3, 1)

    def test_dcache_rejects_bad_geometry(self, measurement):
        with pytest.raises(ConfigurationError, match="L1-D"):
            measurement.dcache_misses(4, 0.001)
        with pytest.raises(ConfigurationError, match="L1-D"):
            measurement.dcache_misses(4, 1.5)

    def test_miss_sweep_matches_single_size_lookups(self, measurement):
        sizes = (1, 4, 16)
        isweep = measurement.icache_miss_sweep(0, 4, sizes)
        dsweep = measurement.dcache_miss_sweep(4, sizes)
        for size in sizes:
            assert isweep[size] == measurement.icache_misses(0, 4, size)
            assert dsweep[size] == measurement.dcache_misses(4, size)

    def test_miss_sweep_matches_per_size_simulation(self, measurement):
        from repro.cache.fastsim import direct_mapped_misses
        from repro.utils.units import kw_to_words

        for size in (1, 4, 16):
            sets = kw_to_words(size) // 4
            assert measurement.icache_misses(0, 4, size) == direct_mapped_misses(
                measurement.istream_blocks(0, 4), sets
            )
            assert measurement.dcache_misses(4, size) == direct_mapped_misses(
                measurement.dstream_blocks(4), sets
            )

    def test_miss_axis_is_one_artifact_per_stream_block_pair(self, measurement):
        # Every paper-grid size for one (stream, block) pair must resolve
        # to the same whole-axis artifact: after the first lookup, the
        # remaining sizes are pure store hits (no new sweep runs).
        measurement.icache_misses(1, 4, 1)
        before = measurement.store.stats().misses
        for size in (2, 4, 8, 16, 32):
            measurement.icache_misses(1, 4, size)
        assert measurement.store.stats().misses == before

    def test_empty_miss_sweep(self, measurement):
        assert measurement.icache_miss_sweep(0, 4, ()) == {}
        assert measurement.dcache_miss_sweep(4, ()) == {}


class TestMissPlanes:
    def test_direct_mapped_column_matches_axis(self, measurement):
        plane = measurement.dcache_miss_plane(4, 256, 4)
        axis = measurement.dcache_miss_axis(4, 256)
        for num_sets in plane.set_counts:
            assert plane.misses(num_sets, 1) == axis[num_sets]

    def test_plane_matches_dict_lru_oracle(self, measurement):
        from repro.cache.assoc_sim import set_associative_misses

        plane = measurement.dcache_miss_plane(4, 256, 4)
        blocks = measurement.dstream_blocks(4)
        for num_sets in (1, 16, 256):
            for ways in (2, 4):
                assert plane.misses(num_sets, ways) == set_associative_misses(
                    blocks, num_sets, ways
                )

    def test_iplane_matches_dict_lru_oracle(self, measurement):
        from repro.cache.assoc_sim import set_associative_misses

        plane = measurement.icache_miss_plane(0, 4, 64, 2)
        blocks = measurement.istream_blocks(0, 4)
        assert plane.misses(64, 2) == set_associative_misses(blocks, 64, 2)

    def test_plane_is_one_artifact_per_stream_block_ways(self, measurement):
        measurement.dcache_assoc_sweep(4, (1,), (1, 2, 4))
        before = measurement.store.stats().misses
        sweep = measurement.dcache_assoc_sweep(4, (1, 2, 4, 8, 16, 32), (1, 2, 4))
        assert measurement.store.stats().misses == before
        assert len(sweep) == 18

    def test_assoc_sweep_ways1_matches_miss_sweep(self, measurement):
        sizes = (1, 4, 16)
        assoc = measurement.dcache_assoc_sweep(4, sizes, (1, 2))
        plain = measurement.dcache_miss_sweep(4, sizes)
        for size in sizes:
            assert assoc[(size, 1)] == plain[size]

    def test_empty_assoc_sweep(self, measurement):
        assert measurement.dcache_assoc_sweep(4, (), (1, 2)) == {}
        assert measurement.icache_assoc_sweep(0, 4, (), (1, 2)) == {}

    def test_benchmark_rows_regenerate_table1(self, measurement):
        rows = measurement.benchmark_rows()
        assert len(rows) == len(measurement.specs)
        gcc_row = next(r for r in rows if r["name"] == "gcc")
        spec = benchmark_by_name("gcc")
        assert gcc_row["load_pct"] == pytest.approx(spec.load_pct, abs=6.0)
        assert gcc_row["branch_pct"] == pytest.approx(spec.branch_pct, abs=5.0)


class TestMissCubeGuards:
    """Cross-consistency: cube views vs. the retired per-path algorithms.

    The cube subsumed the per-block plane artifacts and the per-axis
    direct-mapped sweeps; these guards pin its slices to both retired
    paths bit for bit on the real suite streams.
    """

    def test_cube_plane_matches_retired_stack_path(self, measurement):
        from repro.cache.stackdist import stack_distance_hits

        cube = measurement.dcache_miss_cube((4, 8), capacity_words=1024)
        for block in (4, 8):
            stream = measurement.dstream_blocks(block)
            plane = cube.plane(block)
            expected = stack_distance_hits(
                stream, list(plane.set_counts), plane.max_ways
            )
            assert plane.references == len(stream)
            for num_sets in plane.set_counts:
                assert plane.hits[num_sets].tolist() == (
                    expected[num_sets].tolist()
                ), (block, num_sets)

    def test_cube_axis_matches_retired_direct_mapped_path(self, measurement):
        from repro.cache.fastsim import direct_mapped_miss_sweep

        cube = measurement.icache_miss_cube(0, (4,), capacity_words=1024)
        stream = measurement.istream_blocks(0, 4)
        sweep = direct_mapped_miss_sweep(stream, cube.set_counts(4))
        assert cube.axis(4) == sweep

    def test_dstream_blocks_is_shift_view_of_addresses(self, measurement):
        from repro.cache.fastsim import addresses_to_blocks

        addresses = measurement.dstream_addresses()
        for block in (4, 16):
            np.testing.assert_array_equal(
                measurement.dstream_blocks(block),
                addresses_to_blocks(addresses, block),
            )

    def test_cube_is_one_artifact_per_stream_family(self, measurement):
        # One multi-block cube build must answer every later paper-grid
        # sweep and single-point request (1-32 KW, up to 8 ways) without
        # another store build (the cube index routes single-block
        # requests to it).  Views reaching below the grid are covered by
        # TestCubeFloorAndRouting.
        measurement.dcache_miss_cube((4, 8, 16))
        before = measurement.store.stats().misses
        measurement.dcache_miss_sweep(8, (1, 2, 4, 8, 16, 32))
        measurement.dcache_assoc_sweep(16, (1, 4, 32), (1, 2, 4, 8))
        measurement.dcache_assoc_sweep(4, (1, 8, 32), (1, 2, 4, 8))
        measurement.dcache_misses(4, 8)
        assert measurement.store.stats().misses == before

    def test_single_then_multi_block_views_agree(self, measurement):
        lone = measurement.dcache_miss_cube((8,))
        multi = measurement.dcache_miss_cube((4, 8, 16))
        for num_sets in lone.set_counts(8):
            for way in (1, 2, 8):
                assert lone.misses(8, num_sets, way) == multi.misses(
                    8, num_sets, way
                )

class TestDiskCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        specs = [benchmark_by_name("small")]
        first = SuiteMeasurement(
            specs=specs, total_instructions=30_000, min_benchmark_instructions=30_000
        )
        a = first.benchmarks[0].trace
        second = SuiteMeasurement(
            specs=specs, total_instructions=30_000, min_benchmark_instructions=30_000
        )
        b = second.benchmarks[0].trace
        assert np.array_equal(a.block_ids, b.block_ids)
        assert np.array_equal(a.went_taken, b.went_taken)
        assert any(tmp_path.iterdir())

    def _session(self):
        return SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=30_000,
            min_benchmark_instructions=30_000,
        )

    def test_corrupt_entries_fall_back_to_resynthesis(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reference = self._session().benchmarks[0].trace
        corrupted = 0
        for path in tmp_path.glob("*.npz"):
            path.write_bytes(b"truncated garbage")
            corrupted += 1
        for path in tmp_path.glob("*.npy.d/manifest.json"):
            path.write_text("not json")
            corrupted += 1
        assert corrupted > 0
        rebuilt = self._session().benchmarks[0].trace
        assert np.array_equal(reference.block_ids, rebuilt.block_ids)
        assert rebuilt.restarts == reference.restarts

    def test_truncated_arrays_fail_validation_and_resynthesize(
        self, tmp_path, monkeypatch
    ):
        import repro.core.measurement as measurement_module
        from repro.engine.store import ArtifactStore
        from repro.utils.rng import DEFAULT_SEED

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Plant a structurally valid but empty bundle under the exact key
        # the session will derive.
        planted = ArtifactStore(cache_dir=tmp_path)
        planted.put(
            "trace",
            measurement_module.GENERATOR_VERSION,
            {
                "block_ids": np.array([], dtype=np.int32),
                "went_taken": np.array([], dtype=np.int8),
                "restarts": np.array([0]),
            },
            persist=True,
            bench="small",
            budget=30_000,
            seed=DEFAULT_SEED,
        )
        trace = self._session().benchmarks[0].trace
        assert len(trace.block_ids) > 0

    def test_version_bump_invalidates_stale_entries(self, tmp_path, monkeypatch):
        import repro.core.measurement as measurement_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        def entries():
            return set(tmp_path.glob("*.npz")) | set(tmp_path.glob("*.npy.d"))

        reference = self._session().benchmarks[0].trace
        stale_files = entries()
        monkeypatch.setattr(
            measurement_module,
            "GENERATOR_VERSION",
            measurement_module.GENERATOR_VERSION + 1,
        )
        rebuilt = self._session().benchmarks[0].trace
        # New entries were written under the bumped version...
        assert entries() > stale_files
        # ...and the regenerated trace is deterministic regardless.
        assert np.array_equal(reference.block_ids, rebuilt.block_ids)


class TestSharedTraceBuffers:
    """share_trace_buffers(): shm export, worker pickup, mmap skip."""

    def _memory_session(self):
        return SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=30_000,
            min_benchmark_instructions=30_000,
            use_disk_cache=False,
        )

    def test_export_and_worker_pickup(self):
        from repro.engine.shm import SHARED_BUNDLES

        parent = self._memory_session()
        reference_ids = parent.benchmarks[0].trace.block_ids.copy()
        group = parent.spec().digest()
        try:
            assert parent.share_trace_buffers() == 1
            # The parent itself now reads from the shared segments.
            parent_ids = parent.benchmarks[0].trace.block_ids
            assert not parent_ids.flags.writeable
            assert np.array_equal(parent_ids, reference_ids)
            # A rehydrating "worker" (same spec, fresh empty store)
            # attaches the shared bundle: no synthesis, no store lookups.
            worker = self._memory_session()
            trace = worker.benchmarks[0].trace
            assert np.array_equal(trace.block_ids, reference_ids)
            assert np.shares_memory(trace.block_ids, parent_ids)
            assert worker.store.stats().lookups == 0
            # Re-sharing is idempotent: the bundles already exist.
            assert parent.share_trace_buffers() == 0
        finally:
            SHARED_BUNDLES.retire(group)

    def test_retired_group_falls_back_to_synthesis(self):
        from repro.engine.shm import SHARED_BUNDLES

        parent = self._memory_session()
        reference_ids = parent.benchmarks[0].trace.block_ids.copy()
        parent.share_trace_buffers()
        SHARED_BUNDLES.retire(parent.spec().digest())
        rebuilt = self._memory_session().benchmarks[0].trace
        assert np.array_equal(rebuilt.block_ids, reference_ids)

    def test_memory_mapped_sessions_skip_export(self, tmp_path, monkeypatch):
        # With the disk tier on, traces are memory-mapped bundles whose
        # pages are already shared between processes; exporting them to
        # shm would only duplicate the data.
        from repro.engine.shm import SHARED_BUNDLES

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=30_000,
            min_benchmark_instructions=30_000,
        )
        assert isinstance(session.benchmarks[0].trace.block_ids, np.memmap)
        group = session.spec().digest()
        try:
            assert session.share_trace_buffers() == 0
            assert group not in SHARED_BUNDLES
        finally:
            SHARED_BUNDLES.retire(group)


def _spans(tracer):
    stack = list(tracer.roots)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def _small_session(cube_jobs=1):
    session = SuiteMeasurement(
        specs=[benchmark_by_name(n) for n in ("small", "yacc")],
        total_instructions=120_000,
        min_benchmark_instructions=30_000,
        use_disk_cache=False,
    )
    session.attach_cube_jobs(cube_jobs)
    return session


class TestCubeFloorAndRouting:
    """The canonical floor: paper-grid lookups share one artifact per
    stream family, lookups below the floor get a widened one, and the
    fatal A=1 cross-check runs on every build path."""

    def test_sub_floor_lookups_build_a_widened_artifact(self):
        from repro.cache.assoc_sim import set_associative_misses
        from repro.cache.fastsim import direct_mapped_misses
        from repro.core.measurement import MISS_CUBE_VERSION

        session = _small_session()
        session.icache_miss_cube(0, (4, 8, 16))
        canonical = session.store.peek(
            "imiss_cube",
            MISS_CUBE_VERSION,
            slots=0,
            blocks="4,8,16",
            capacity_words=32 * 1024,
            min_capacity_words=1024,
            max_ways=8,
        )
        assert canonical.set_counts(4)[0] == 32
        assert canonical.set_counts(16)[0] == 8
        stream = session.istream_blocks(0, 4)

        # A 16-word cache has 4 sets, below the floor: one new artifact.
        before = session.store.stats().misses
        assert session.icache_misses(0, 4, 16 / 1024) == direct_mapped_misses(
            stream, 4
        )
        assert session.store.stats().misses == before + 1
        widened = session.store.peek(
            "imiss_cube",
            MISS_CUBE_VERSION,
            slots=0,
            blocks="4",
            capacity_words=32 * 1024,
            min_capacity_words=128,
            max_ways=8,
        )
        assert widened.set_counts(4)[0] == 4

        # A plane's contract starts at one set: widened once more.
        plane = session.icache_miss_plane(0, 4, 64, 2)
        assert session.store.stats().misses == before + 2
        assert plane.set_counts[0] == 1
        for num_sets in (1, 2, 64):
            assert plane.misses(num_sets, 1) == direct_mapped_misses(
                stream, num_sets
            )
            assert plane.misses(num_sets, 2) == set_associative_misses(
                stream, num_sets, 2
            )
        # The widest cube now answers every lookup at that block size.
        session.icache_misses(0, 4, 16 / 1024)
        session.icache_miss_axis(0, 4, 8192)
        session.icache_miss_sweep(0, 4, (1, 8, 32))
        assert session.store.stats().misses == before + 2

    def test_optimizer_sweep_builds_one_cube_per_stream_family(self):
        from repro.core import DesignOptimizer, SystemConfig
        from repro.obs import Tracer

        session = _small_session()
        tracer = Tracer()
        session.attach_tracer(tracer)
        optimizer = DesignOptimizer(session, assoc_ways=(1, 2, 4, 8))
        grid = optimizer.symmetric_grid(SystemConfig(penalty=10))
        optimizer.sweep(grid)
        builds = sorted(
            (span.name, span.attrs.get("slots", -1))
            for span in _spans(tracer)
            if span.name in ("imiss.cube", "dmiss.cube")
        )
        slots = sorted({config.branch_slots for config in grid})
        assert builds == [("dmiss.cube", -1)] + [
            ("imiss.cube", b) for b in slots
        ]

    @pytest.mark.parametrize("cube_jobs", [1, 2])
    def test_cross_check_is_fatal_on_every_build_path(
        self, monkeypatch, cube_jobs
    ):
        import os

        import repro.cache.cubepart as cubepart

        sweep = cubepart.direct_mapped_miss_sweep

        def off_by_one(stream, set_counts):
            return {S: misses + 1 for S, misses in sweep(stream, set_counts).items()}

        session = _small_session(cube_jobs)
        monkeypatch.setattr(cubepart, "direct_mapped_miss_sweep", off_by_one)
        if cube_jobs > 1:
            # Every forked reduce worker dies, so every partition is
            # reduced — and checked — in the parent.
            monkeypatch.setattr(
                cubepart, "_FAULT_PARTS", (os.getpid(), frozenset(range(8)))
            )
        with pytest.raises(RuntimeError, match="A=1 base disagrees"):
            session.icache_miss_cube(0, (4, 8, 16))
        with pytest.raises(RuntimeError, match="A=1 base disagrees"):
            session.dcache_miss_cube((4, 8, 16))


class TestPartitionedCubePath:
    """cube_jobs plumbing: bundle identity and bit-identical cubes."""

    def _session(self, cube_jobs=None):
        session = SuiteMeasurement(
            specs=[benchmark_by_name(n) for n in ("small", "yacc")],
            total_instructions=120_000,
            min_benchmark_instructions=30_000,
            use_disk_cache=False,
        )
        if cube_jobs is not None:
            session.attach_cube_jobs(cube_jobs)
        return session

    def test_attach_cube_jobs_validates(self):
        session = self._session()
        with pytest.raises(ConfigurationError):
            session.attach_cube_jobs(0)
        session.attach_cube_jobs(None)
        assert session.cube_jobs == 1
        session.attach_cube_jobs(3)
        assert session.cube_jobs == 3

    def test_address_bundle_matches_eager_stream(self):
        session = self._session()
        assert np.array_equal(
            session.dstream_address_bundle(), session.dstream_addresses()
        )

    def test_parallel_cubes_bit_identical_to_serial(self):
        serial = self._session()
        parallel = self._session(cube_jobs=2)
        builds = [
            lambda s: s.icache_miss_cube(1, (4, 8, 16), 4096, 4),
            lambda s: s.dcache_miss_cube((4, 8, 16), 4096, 4),
        ]
        for build in builds:
            a = build(serial)
            b = build(parallel)
            assert dict(a.references) == dict(b.references)
            for B in a.hits:
                for S in a.hits[B]:
                    assert np.array_equal(a.hits[B][S], b.hits[B][S]), (B, S)

    def test_paper_grid_cubes_use_eight_partitions_on_both_sides(self):
        from repro.obs import Tracer

        session = self._session(cube_jobs=2)
        tracer = Tracer()
        session.attach_tracer(tracer)
        session.icache_miss_cube(0, (4, 8, 16))
        session.dcache_miss_cube((4, 8, 16))
        used = {
            span.attrs["backend"]: span.attrs["partitions"]
            for span in _spans(tracer)
            if span.name == "cube.partition"
        }
        assert used == {"memory": 8, "spill": 8}
