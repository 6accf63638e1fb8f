"""The SoA path store must be invisible: every product it feeds —
primed suffix tables, origin buckets — must be value-identical to what
the record-walking code builds, whether the sanitizer built the store
or it was interned from record objects."""

import pytest

from repro import (
    GeneratorConfig,
    generate_world,
    run_pipeline,
    small_profiles,
)
from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import PathRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf.cache import SuffixCache
from repro.perf.index import PathIndex
from repro.perf.pathstore import PathStore

SMALL = GeneratorConfig(
    profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
)


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate_world(SMALL, seed=4, name="small"))


@pytest.fixture(scope="module")
def store(result):
    return result.paths.store()


@pytest.fixture(params=["numpy"])
def backend(request):
    """The store's array backend (numpy, a hard dependency)."""
    return request.param


def record(path, addresses=1):
    """A sanitized record carrying ``path`` (one VP, one prefix)."""
    return PathRecord(
        vp=VantagePoint("192.0.2.1", path.asns[0], "rrc00"),
        vp_country="US",
        prefix=Prefix.parse("10.0.0.0/8"),
        prefix_country="US",
        path=path,
        addresses=addresses,
    )


class TestLayout:
    def test_tokens_roundtrip_distinct_paths(self, result, store):
        records = result.paths.records
        assert store.record_count == len(records)
        assert len(store) == len({record.path for record in records})
        for pid, path in enumerate(store.paths):
            offset = int(store.offsets[pid])
            length = int(store.lengths[pid])
            assert tuple(store.tokens[offset:offset + length]) == path.asns

    def test_record_columns_match_records(self, result, store):
        records = result.paths.records
        for position, record in enumerate(records):
            assert store.paths[int(store.record_path[position])] == record.path
            assert int(store.record_origin[position]) == record.path.origin
            assert store.record_addresses[position] == record.addresses

    def test_addresses_survive_beyond_int64(self):
        huge = 2 ** 96  # an IPv6 /32's address count
        built = PathStore.from_records([record(ASPath.trusted((1, 2)), huge)])
        assert built.record_addresses[0] == huge

    def test_shared_via_pathset(self, result):
        assert result.paths.store() is result.paths.store()


class TestSuffixStarts:
    def test_matches_suffix_cache_compute(self, result, backend):
        built = PathStore.from_records(result.paths.records)
        cache = SuffixCache(result.oracle)
        assert cache._p2c is not None
        starts = built.suffix_starts(cache._p2c)
        for pid, path in enumerate(built.paths):
            expected = cache._compute(path)
            assert tuple(path.asns[starts[pid]:]) == expected

    def test_edge_cases(self, backend):
        paths = [
            ASPath.trusted((5,)),           # single hop: suffix is itself
            ASPath.trusted((1, 2, 3)),      # full p2c chain: start 0
            ASPath.trusted((9, 1, 2)),      # tail-only chain
            ASPath.trusted((2, 1, 9)),      # no p2c tail: origin only
        ]
        built = PathStore.from_records([record(p) for p in paths])
        p2c = frozenset({(1, 2), (2, 3)})
        assert built.suffix_starts(p2c) == [0, 0, 1, 2]
        assert built.suffix_starts(frozenset()) == [0, 2, 2, 2]

    def test_empty_store(self, backend):
        built = PathStore.from_records([])
        assert built.suffix_starts(frozenset({(1, 2)})) == []
        assert built.origin_buckets() == {}


class TestPrimedCache:
    def test_prime_matches_lazy_warm(self, result, backend):
        built = PathStore.from_records(result.paths.records)
        primed = SuffixCache(result.oracle)
        installed = built.prime_suffix_cache(primed)
        assert installed == len(built)
        lazy = SuffixCache(result.oracle)
        for record in result.paths.records:
            lazy(record.path)
        assert primed.table == lazy.table

    def test_primed_values_are_plain_ints(self, result, store):
        primed = SuffixCache(result.oracle)
        store.prime_suffix_cache(primed)
        for suffix in primed.table.values():
            assert all(type(asn) is int for asn in suffix)

    def test_prime_skips_oracle_without_edges(self, result, store):
        class Opaque:
            def relationship(self, left, right):
                return None

        cache = SuffixCache(Opaque())
        assert store.prime_suffix_cache(cache) == 0
        assert cache.table == {}

    def test_pipeline_cache_is_store_backed(self, result):
        cache = result.suffix_cache()
        store = result.paths.store()
        assert cache._store is store
        # resolving through the store slices the shared token column and
        # matches the per-path backward scan exactly, with plain ints
        lone = SuffixCache(result.oracle)
        for path in store.paths[:50]:
            suffix = cache(path)
            assert suffix == lone(path)
            assert all(type(token) is int for token in suffix)


class TestOriginBuckets:
    def test_matches_naive_scan(self, result, backend):
        records = result.paths.records
        built = PathStore.from_records(records)
        naive = {}
        for position, record in enumerate(records):
            naive.setdefault(record.path.origin, []).append(position)
        got = built.origin_buckets()
        assert got == naive
        assert list(got) == list(naive)  # first-appearance key order
        assert all(type(key) is int for key in got)

    def test_index_buckets_identical_with_and_without_store(self, result):
        records = result.paths.records
        plain = PathIndex(records)
        backed = PathIndex(records, store=result.paths.store())
        assert plain._origin_buckets() == backed._origin_buckets()
        assert list(plain._origin_buckets()) == list(backed._origin_buckets())
        assert plain.origin_prefixes == backed.origin_prefixes
