"""Tests for the Table-1 sanitization pipeline."""

import pytest

from repro.bgp.announcement import RibRecord
from repro.bgp.collectors import Collector, CollectorProject, CollectorSet, VantagePoint
from repro.core.sanitize import FilterReport, is_poisoned, sanitize
from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import geolocate_prefixes
from repro.geo.vp_geo import VPGeolocator
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

CLIQUE = frozenset({100, 101})
ROUTE_SERVERS = frozenset({777})
ALLOCATED = set(range(1, 200)) | {777}


def vp_fixture():
    collectors = CollectorSet()
    local = collectors.add(Collector("local", CollectorProject.RIS, "US"))
    remote = collectors.add(
        Collector("remote", CollectorProject.ROUTEVIEWS, "US", multihop=True)
    )
    located = local.add_vp("192.0.2.1", 1)
    unlocated = remote.add_vp("192.0.2.9", 9)
    return VPGeolocator(collectors), located, unlocated


def geo_fixture():
    db = GeoDatabase()
    db.assign(Prefix.parse("10.0.0.0/8"), "US")
    db.assign(Prefix.parse("12.0.0.0/9"), "US")
    db.assign(Prefix.parse("12.128.0.0/9"), "CA")
    prefixes = [
        Prefix.parse("10.0.0.0/16"),
        Prefix.parse("10.1.0.0/16"),
        Prefix.parse("10.1.0.0/17"),
        Prefix.parse("10.1.128.0/17"),
        Prefix.parse("12.0.0.0/8"),
    ]
    return geolocate_prefixes(prefixes, db), prefixes


def rib(vp, prefix, path, days_present=5, total_days=5):
    return RibRecord(
        vp=vp,
        prefix=Prefix.parse(prefix) if isinstance(prefix, str) else prefix,
        path=ASPath.parse(path) if isinstance(path, str) else path,
        days_present=days_present,
        total_days=total_days,
    )


def run(records):
    vp_geo, located, unlocated = vp_fixture()
    prefix_geo, _ = geo_fixture()
    return sanitize(
        records,
        clique=CLIQUE,
        is_allocated=lambda asn: asn in ALLOCATED,
        route_servers=ROUTE_SERVERS,
        vp_geo=vp_geo,
        prefix_geo=prefix_geo,
    )


class TestPoisoningDetector:
    def test_non_clique_between_clique(self):
        assert is_poisoned(ASPath.of(1, 100, 55, 101, 2), CLIQUE)

    def test_adjacent_clique_clean(self):
        assert not is_poisoned(ASPath.of(1, 100, 101, 2), CLIQUE)

    def test_prepending_not_poisoning(self):
        assert not is_poisoned(ASPath.of(1, 100, 100, 101, 2), CLIQUE)

    def test_non_clique_path_clean(self):
        assert not is_poisoned(ASPath.of(1, 2, 3), CLIQUE)


class TestFilters:
    def setup_method(self):
        self.vp_geo, self.located, self.unlocated = vp_fixture()

    def test_accepts_clean_record(self):
        result = run([rib(self.located, "10.0.0.0/16", "1 2 3")])
        assert len(result.records) == 1
        assert result.report.accepted == 5
        record = result.records[0]
        assert record.vp_country == "US"
        assert record.prefix_country == "US"
        assert record.addresses == 1 << 16

    def test_unstable_rejected(self):
        result = run([rib(self.located, "10.0.0.0/16", "1 2 3", days_present=3)])
        assert not result.records
        assert result.report.rejected["unstable"] == 3

    def test_unallocated_rejected(self):
        result = run([rib(self.located, "10.0.0.0/16", "1 500000 3")])
        assert result.report.rejected["unallocated"] == 5

    def test_loop_rejected(self):
        result = run([rib(self.located, "10.0.0.0/16", "1 2 1 3")])
        assert result.report.rejected["loop"] == 5

    def test_poisoned_rejected(self):
        result = run([rib(self.located, "10.0.0.0/16", "1 100 55 101 3")])
        assert result.report.rejected["poisoned"] == 5

    def test_multihop_vp_rejected(self):
        result = run([rib(self.unlocated, "10.0.0.0/16", "9 2 3")])
        assert result.report.rejected["vp_no_location"] == 5

    def test_covered_prefix_rejected(self):
        result = run([rib(self.located, "10.1.0.0/16", "1 2 3")])
        assert result.report.rejected["covered"] == 5

    def test_no_consensus_prefix_rejected(self):
        result = run([rib(self.located, "12.0.0.0/8", "1 2 3")])
        assert result.report.rejected["prefix_no_location"] == 5

    def test_prepending_collapsed_not_rejected(self):
        result = run([rib(self.located, "10.0.0.0/16", "1 2 2 2 3")])
        assert result.records[0].path == ASPath.of(1, 2, 3)
        assert result.report.accepted == 5

    def test_route_server_stripped(self):
        result = run([rib(self.located, "10.0.0.0/16", "1 777 2 3")])
        assert result.records[0].path == ASPath.of(1, 2, 3)

    def test_filter_order_unstable_first(self):
        # Unstable beats every other defect.
        result = run([rib(self.located, "10.0.0.0/16", "1 2 1 3", days_present=2)])
        assert result.report.rejected["unstable"] == 2
        assert result.report.rejected["loop"] == 0


class TestReportAccounting:
    def test_totals_add_up(self):
        vp_geo, located, unlocated = vp_fixture()
        records = [
            rib(located, "10.0.0.0/16", "1 2 3"),
            rib(located, "10.0.0.0/16", "1 2 1 3"),
            rib(unlocated, "10.0.0.0/16", "9 2 3"),
            rib(located, "10.1.0.0/16", "1 2 3", days_present=4),
        ]
        result = run(records)
        report = result.report
        assert report.total == 5 + 5 + 5 + 4
        assert report.accepted + report.rejected_total() == report.total

    def test_rows_render(self):
        report = FilterReport()
        report.total = 10
        report.accepted = 8
        report.rejected["loop"] = 2
        rows = dict((label, count) for label, count, _ in report.as_rows())
        assert rows["rejected"] == 2
        assert rows["accepted"] == 8
        assert rows["total"] == 10
        assert "loop" in report.render()

    def test_empty_report(self):
        report = FilterReport()
        assert report.pct(0) == 0.0
        assert report.as_rows()[-1] == ("total", 0, 0.0)

    def test_rejection_samples_kept(self):
        vp_geo, located, _ = vp_fixture()
        records = [
            rib(located, "10.0.0.0/16", f"1 2 1 {i}") for i in range(3, 12)
        ]
        result = run(records)
        samples = result.report.samples["loop"]
        assert 0 < len(samples) <= result.report.sample_limit
        assert all(r.path.has_loop() for r in samples)


class TestPathSet:
    def test_aggregates(self):
        vp_geo, located, _ = vp_fixture()
        result = run([
            rib(located, "10.0.0.0/16", "1 2 3"),
            rib(located, "10.1.0.0/17", "1 2 4"),
        ])
        assert [vp.ip for vp in result.vps()] == ["192.0.2.1"]
        assert result.countries() == ["US"]
        totals = result.country_addresses()
        assert totals["US"] == (1 << 16) + (1 << 15)  # the /16 plus the /17


class TestTable1Pins:
    """Table 1 on the default world (seed 42, IPv4): the counts the
    per-record filter produced, for both store backends."""

    PINNED = {
        "unstable": 82_822,
        "unallocated": 1_325,
        "loop": 1_255,
        "poisoned": 610,
        "vp_no_location": 59_655,
        "covered": 32_420,
        "prefix_no_location": 14_840,
    }

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_default_world(self, backend):
        from repro.core.pipeline import PipelineConfig, run_pipeline
        from repro.topology.catalog import build_world

        result = run_pipeline(
            build_world("default", 42),
            PipelineConfig(seed=42, family=4, store_backend=backend),
        )
        try:
            report = result.paths.report
            assert report.total == 1_512_542
            assert report.accepted == 1_319_615
            assert report.rejected == self.PINNED
            assert len(result.paths.records) == 263_923
            assert len(result.paths.store()) == 216_351
        finally:
            result.close()
