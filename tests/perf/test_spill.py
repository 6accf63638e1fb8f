"""The mmap-backed spill store must be invisible: rankings, suffix
caches, and index buckets computed over it must be value-identical to
the in-memory backend, and a crash mid-ingestion must resume to a
byte-identical spill."""

import pytest

from repro import PipelineConfig, run_pipeline
from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import geolocate_prefixes
from repro.geo.vp_geo import VPGeolocator
from repro.perf.cache import SuffixCache
from repro.perf.index import PathIndex
from repro.perf.spill import (
    MmapPathStore,
    SpillFormatError,
    open_spill,
    sanitize_to_store,
)
from repro.topology.catalog import build_world

#: a cross-family spot-check sweep — four metric families, the four
#: countries the paper's case studies use
METRICS = ("CCI", "AHN", "AHC", "CTI")
COUNTRIES = ("US", "NL", "JP", "BR")


@pytest.fixture(scope="module")
def world():
    return build_world("default", 0)


@pytest.fixture(scope="module")
def memory_result(world):
    result = run_pipeline(world, PipelineConfig(seed=0))
    yield result
    result.close()


@pytest.fixture(scope="module")
def mmap_result(world):
    result = run_pipeline(world, PipelineConfig(seed=0, store_backend="mmap"))
    yield result
    result.close()


def _sanitize_inputs(world, seed=0):
    """The (records, kwargs) the pipeline hands to sanitization, built
    stage by stage so tests can drive ``sanitize_to_store`` directly."""
    from repro.bgp.propagation import propagate_all
    from repro.bgp.rib import RibGenerationConfig, generate_rib_days

    outcome = propagate_all(
        world.graph, keep=world.vp_asns(), tiebreak="hash", salt=0
    )
    ribs = generate_rib_days(world, [outcome], RibGenerationConfig(), seed)
    geodb = GeoDatabase.from_world(world, 0.02, 0.005, seed + 1, 4)
    prefix_geo = geolocate_prefixes(
        world.announced_prefixes(), geodb, 0.5, version=4
    )
    records = [r for r in ribs.records() if r.prefix.version == 4]
    kwargs = dict(
        clique=world.graph.clique(),
        is_allocated=world.graph.asn_registry.is_allocated,
        route_servers=world.graph.route_servers(),
        vp_geo=VPGeolocator(world.collectors),
        prefix_geo=prefix_geo,
    )
    return records, kwargs


class TestBackendParity:
    def test_filter_reports_identical(self, memory_result, mmap_result):
        assert (
            memory_result.paths.report.render()
            == mmap_result.paths.report.render()
        )
        assert len(memory_result.paths.records) == len(mmap_result.paths.records)

    def test_records_identical(self, memory_result, mmap_result):
        records = memory_result.paths.records
        lazy = mmap_result.paths.records
        assert list(lazy[:100]) == list(records[:100])
        assert lazy[-1] == records[-1]
        assert lazy[len(lazy) // 2] == records[len(records) // 2]

    def test_rankings_byte_identical(self, memory_result, mmap_result):
        baseline = memory_result.rank_all(METRICS, COUNTRIES)
        spilled = mmap_result.rank_all(METRICS, COUNTRIES)
        assert baseline.keys() == spilled.keys()
        for key, ranking in baseline.items():
            assert spilled[key].entries == ranking.entries, key
            assert (
                spilled[key].render(10, mmap_result.as_name)
                == ranking.render(10, memory_result.as_name)
            ), key

    def test_suffix_cache_contents_identical(self, memory_result, mmap_result):
        dense_store = memory_result.paths.store()
        mapped_store = mmap_result.paths.store()
        baseline = SuffixCache(memory_result.oracle, store=dense_store)
        dense_store.prime_suffix_cache(baseline)
        spilled = SuffixCache(mmap_result.oracle, store=mapped_store)
        mapped_store.prime_suffix_cache(spilled)
        assert baseline.table == spilled.table
        assert len(baseline.table) == len(dense_store)

    def test_index_buckets_identical(self, memory_result, mmap_result):
        baseline = PathIndex.from_paths(memory_result.paths)
        spilled = PathIndex.from_paths(mmap_result.paths)
        base_pairs = baseline._by_pair
        spill_pairs = spilled._by_pair
        assert list(base_pairs) == list(spill_pairs)  # first-appearance order
        for pair in base_pairs:
            assert list(spill_pairs[pair]) == list(base_pairs[pair]), pair
        base_origin = baseline._origin_buckets()
        spill_origin = spilled._origin_buckets()
        assert list(base_origin) == list(spill_origin)
        for origin in base_origin:
            assert list(spill_origin[origin]) == list(base_origin[origin])
        assert baseline.origin_prefixes == spilled.origin_prefixes

    def test_store_columns_identical(self, memory_result, mmap_result):
        dense = memory_result.paths.store()
        mapped = mmap_result.paths.store()
        assert isinstance(mapped, MmapPathStore)
        for column in ("tokens", "offsets", "lengths",
                       "record_path", "record_origin"):
            assert (
                [int(v) for v in getattr(mapped, column)]
                == [int(v) for v in getattr(dense, column)]
            ), column
        assert mapped.paths == dense.paths
        assert mapped.path_ids == dense.path_ids


class TestCrashResume:
    @pytest.fixture(scope="class")
    def inputs(self):
        return _sanitize_inputs(build_world("small", 0))

    def _ingest(self, records, kwargs, directory, **extra):
        return sanitize_to_store(
            iter(records), directory=str(directory),
            flush_every=500, **kwargs, **extra,
        )

    def _spill_bytes(self, directory):
        return {
            path.name: path.read_bytes()
            for path in sorted(directory.iterdir())
            if path.name != "progress.json"  # removed on seal
        }

    def test_resume_is_byte_identical(self, inputs, tmp_path):
        records, kwargs = inputs
        clean_dir = tmp_path / "clean"
        torn_dir = tmp_path / "torn"
        clean = self._ingest(records, kwargs, clean_dir)

        crash_after = len(records) // 2

        def torn_stream():
            for index, record in enumerate(records):
                if index == crash_after:
                    raise OSError("injected crash")
                yield record

        with pytest.raises(OSError):
            sanitize_to_store(
                torn_stream(), directory=str(torn_dir),
                flush_every=500, **kwargs,
            )
        assert not (torn_dir / "manifest.json").exists()
        resumed = self._ingest(records, kwargs, torn_dir)
        assert self._spill_bytes(torn_dir) == self._spill_bytes(clean_dir)
        assert resumed.report.total == clean.report.total
        assert resumed.report.accepted == clean.report.accepted
        assert resumed.report.rejected == clean.report.rejected
        assert list(resumed.records[:50]) == list(clean.records[:50])

    def test_resume_with_other_blocks_replays_across_them(self, inputs, tmp_path):
        """A resume whose blocks straddle the checkpoint (another
        ``flush_every``) still seals the same bytes, and the replayed
        prefix restores the rejection samples too."""
        records, kwargs = inputs
        clean = self._ingest(records, kwargs, tmp_path / "clean")

        def torn_stream():
            for index, record in enumerate(records):
                if index == len(records) // 2:
                    raise OSError("injected crash")
                yield record

        with pytest.raises(OSError):
            self._ingest(torn_stream(), kwargs, tmp_path / "torn")
        resumed = sanitize_to_store(
            iter(records), directory=str(tmp_path / "torn"),
            flush_every=300, **kwargs,
        )
        assert (
            self._spill_bytes(tmp_path / "torn")
            == self._spill_bytes(tmp_path / "clean")
        )
        assert resumed.report.samples == clean.report.samples

    def test_reopen_sealed_spill(self, inputs, tmp_path):
        records, kwargs = inputs
        first = self._ingest(records, kwargs, tmp_path / "spill")
        again = open_spill(str(tmp_path / "spill"))
        assert len(again.records) == len(first.records)
        assert again.report.total == first.report.total
        # a second sanitize_to_store on a sealed directory reopens it
        # without consuming the input stream at all
        def exploding():
            raise AssertionError("sealed spill must not re-ingest")
            yield  # pragma: no cover

        reopened = self._ingest(exploding(), kwargs, tmp_path / "spill")
        assert len(reopened.records) == len(first.records)

    def test_open_rejects_unsealed_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")
        with pytest.raises(SpillFormatError):
            MmapPathStore(str(tmp_path))


class TestLifecycle:
    def test_close_removes_run_scoped_spill(self, world):
        result = run_pipeline(world, PipelineConfig(seed=0, store_backend="mmap"))
        spill_dir = result.paths.store().directory
        import os

        assert os.path.isdir(spill_dir)
        result.close()
        assert not os.path.exists(spill_dir)

    def test_named_spill_dir_persists(self, world, tmp_path):
        spill = tmp_path / "kept"
        result = run_pipeline(
            world,
            PipelineConfig(seed=0, store_backend="mmap", spill_dir=str(spill)),
        )
        result.close()
        assert (spill / "manifest.json").exists()
