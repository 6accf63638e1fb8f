"""The columnar Table-1 judge against the literal per-record reference
(``tests/core/reference_sanitize.py``): on generated record streams
both must accept the same records (same cleaned paths, same order),
count the same announcements per category and keep the same samples,
for the in-memory and the spilled store alike."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.announcement import RibRecord
from repro.bgp.collectors import Collector, CollectorProject, CollectorSet
from repro.core.sanitize import sanitize
from repro.geo.prefix_geo import PrefixGeolocation
from repro.geo.vp_geo import VPGeolocator
from repro.net.aspath import ASPath, ASPathError
from repro.net.prefix import Prefix
from repro.perf.pathstore import COLUMNS, PathStore
from repro.perf.spill import sanitize_to_store
from tests.core.reference_sanitize import reference_sanitize

CLIQUE = frozenset({100, 101, 102})
ROUTE_SERVERS = frozenset({777, 778})
UNALLOCATED = (500000, 4_200_000_000)
ALLOCATED = frozenset(range(1, 40)) | CLIQUE | ROUTE_SERVERS

_collectors = CollectorSet()
_us = _collectors.add(Collector("us-ix", CollectorProject.RIS, "US"))
_nl = _collectors.add(Collector("nl-ix", CollectorProject.ROUTEVIEWS, "NL"))
_far = _collectors.add(
    Collector("far", CollectorProject.RIS, "US", multihop=True)
)
VPS = (
    _us.add_vp("192.0.2.1", 1),
    _us.add_vp("192.0.2.2", 2),
    _nl.add_vp("198.51.100.1", 3),
    _far.add_vp("203.0.113.1", 4),  # multihop: no trusted location
)
VP_GEO = VPGeolocator(_collectors)

P_US = Prefix.parse("10.0.0.0/16")
P_CA = Prefix.parse("11.0.0.0/16")
P_COVERED = Prefix.parse("10.1.0.0/16")
P_NO_CONSENSUS = Prefix.parse("12.0.0.0/8")
P_UNKNOWN = Prefix.parse("13.0.0.0/8")
P_V6 = Prefix.parse("2001:db8::/32")  # owns 2**96 addresses: beyond int64
PREFIXES = (P_US, P_CA, P_COVERED, P_NO_CONSENSUS, P_UNKNOWN, P_V6)
PREFIX_GEO = PrefixGeolocation(
    threshold=0.5,
    country_of={P_US: "US", P_CA: "CA", P_V6: "DE"},
    no_consensus={P_NO_CONSENSUS},
    covered={P_COVERED},
    owned_addresses={P_US: 1 << 16, P_CA: 1 << 16, P_V6: 1 << 96},
)

KWARGS = dict(
    clique=CLIQUE,
    is_allocated=lambda asn: asn in ALLOCATED,
    route_servers=ROUTE_SERVERS,
    vp_geo=VP_GEO,
    prefix_geo=PREFIX_GEO,
)

#: hops drawn so that prepending (adjacent repeats), ``A C A`` loops,
#: clique sandwiches and route-server hops all turn up often
HOPS = st.one_of(
    st.integers(1, 12),
    st.sampled_from(sorted(CLIQUE)),
    st.sampled_from(sorted(ROUTE_SERVERS)),
    st.sampled_from(UNALLOCATED),
)


@st.composite
def paths(draw):
    hops = draw(st.lists(HOPS, min_size=1, max_size=7))
    if draw(st.booleans()):  # prepend one hop a few times
        at = draw(st.integers(0, len(hops) - 1))
        hops[at:at] = [hops[at]] * draw(st.integers(1, 3))
    # a path of route servers alone cannot be cleaned; that case has
    # its own test below
    if all(hop in ROUTE_SERVERS for hop in hops):
        hops.append(draw(st.integers(1, 12)))
    return ASPath(tuple(hops))


RECORDS = st.lists(
    st.builds(
        RibRecord,
        vp=st.sampled_from(VPS),
        prefix=st.sampled_from(PREFIXES),
        path=paths(),
        days_present=st.sampled_from((5, 5, 5, 4, 1)),
        total_days=st.just(5),
    ),
    max_size=40,
)


def assert_same(path_set, records):
    expected, report = reference_sanitize(records, **KWARGS)
    assert list(path_set.records) == expected
    got = path_set.report
    assert (got.total, got.accepted) == (report.total, report.accepted)
    assert got.rejected == report.rejected
    assert got.samples == report.samples
    assert list(got.samples) == list(report.samples)
    # the directly built store holds what interning the records builds
    built = path_set.store()
    interned = PathStore.from_records(expected)
    for name in COLUMNS:
        assert getattr(built, name).tolist() == (
            getattr(interned, name).tolist()
        ), name
    assert list(built.record_addresses) == [r.addresses for r in expected]


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(RECORDS)
    def test_memory(self, records):
        assert_same(sanitize(records, **KWARGS), records)

    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS)
    def test_spilled(self, records, tmp_path_factory):
        directory = tmp_path_factory.mktemp("spill")
        spilled = sanitize_to_store(
            iter(records), directory=directory, flush_every=7, **KWARGS
        )
        assert_same(spilled, records)

    def test_empty_input(self):
        path_set = sanitize([], **KWARGS)
        assert list(path_set.records) == []
        assert path_set.report.total == 0
        assert path_set.store().record_count == 0

    def test_asns_too_wide_to_pack_with_a_path_id(self):
        big = 1 << 61  # (path, ASN) no longer packs into one int64
        kwargs = dict(KWARGS, is_allocated=lambda asn: asn >= big or asn in ALLOCATED)
        records = [
            RibRecord(VPS[0], P_US, ASPath.of(hop, big + hop), 5, 5)
            for hop in range(1, 5)
        ] + [RibRecord(VPS[1], P_CA, ASPath.of(5, big, 6, big), 5, 5)]
        got = sanitize(records, **kwargs)
        expected, report = reference_sanitize(records, **kwargs)
        assert list(got.records) == expected
        assert got.report.rejected == report.rejected
        assert report.rejected["loop"] == 5

    def test_series_blocks_match_the_record_stream(self):
        from repro.bgp.propagation import propagate_all
        from repro.bgp.rib import RibGenerationConfig, generate_rib_days
        from repro.geo.database import GeoDatabase
        from repro.geo.prefix_geo import geolocate_prefixes
        from repro.topology.catalog import build_world

        world = build_world("small", 3)
        outcome = propagate_all(
            world.graph, keep=world.vp_asns(), tiebreak="hash", salt=0
        )
        ribs = generate_rib_days(world, [outcome], RibGenerationConfig(), 3)
        geodb = GeoDatabase.from_world(world, 0.02, 0.005, 4, 4)
        kwargs = dict(
            clique=world.graph.clique(),
            is_allocated=world.graph.asn_registry.is_allocated,
            route_servers=world.graph.route_servers(),
            vp_geo=VPGeolocator(world.collectors),
            prefix_geo=geolocate_prefixes(
                world.announced_prefixes(), geodb, 0.5, version=4
            ),
        )
        got = sanitize(ribs.record_blocks(4), **kwargs)
        expected, report = reference_sanitize(
            (r for r in ribs.records() if r.prefix.version == 4), **kwargs
        )
        assert list(got.records) == expected
        assert got.report.rejected == report.rejected
        assert got.report.samples == report.samples


class TestRouteServerOnlyPath:
    def test_raises_like_the_reference(self):
        records = [RibRecord(VPS[0], P_US, ASPath.of(777, 777, 778), 5, 5)]
        with pytest.raises(ASPathError) as reference:
            reference_sanitize(records, **KWARGS)
        with pytest.raises(ASPathError) as columnar:
            sanitize(records, **KWARGS)
        assert str(columnar.value) == str(reference.value)

    def test_unstable_record_never_reaches_the_path_check(self):
        records = [RibRecord(VPS[0], P_US, ASPath.of(777), 3, 5)]
        assert sanitize(records, **KWARGS).report.rejected["unstable"] == 3
