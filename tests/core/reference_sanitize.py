"""The Table-1 filter as a literal per-record loop: the reference the
columnar judge in :mod:`repro.core.sanitize` is tested against.

One record at a time, in the paper's order (§3.1): unstable, then the
path checks (unallocated, loop, poisoned — with prepending collapsed
first), then VP location, covered prefix and prefix location; a
surviving path is cleaned of route-server hops. Verdicts are memoised
per path value, per collector and per prefix, exactly as the filter's
definition allows (each depends on that entity alone).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.bgp.announcement import RibRecord
from repro.core.sanitize import FilterReport, PathRecord
from repro.geo.prefix_geo import PrefixGeolocation
from repro.geo.vp_geo import VPGeolocator
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def note_rejection(
    report: FilterReport, category: str, record: RibRecord, weight: int
) -> None:
    """Account one rejected record (and keep it as a sample)."""
    report.rejected[category] += weight
    bucket = report.samples.setdefault(category, [])
    if len(bucket) < report.sample_limit:
        bucket.append(record)


def check_path(
    path: ASPath,
    clique: frozenset[int],
    allocated: dict[int, bool],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
) -> tuple[str | None, ASPath | None]:
    """``(reject_category, None)`` or ``(None, cleaned_path)``."""
    for asn in path.asns:
        verdict = allocated.get(asn)
        if verdict is None:
            verdict = allocated[asn] = bool(is_allocated(asn))
        if not verdict:
            return ("unallocated", None)
    collapsed = path.collapse_prepending()
    asns = collapsed.asns
    if len(set(asns)) != len(asns):
        return ("loop", None)
    if not clique.isdisjoint(asns):
        for index in range(1, len(asns) - 1):
            if (
                asns[index] not in clique
                and asns[index - 1] in clique
                and asns[index + 1] in clique
            ):
                return ("poisoned", None)
    if route_servers and not route_servers.isdisjoint(asns):
        collapsed = collapsed.without(route_servers)
    return (None, collapsed)


def sanitize_stream(
    records: Iterable[RibRecord],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    report: FilterReport,
) -> Iterator[PathRecord]:
    """Yield each accepted record, accounting every input in ``report``."""
    path_verdicts: dict[ASPath, tuple[str | None, ASPath | None]] = {}
    allocated: dict[int, bool] = {}
    collector_country: dict[str, str | None] = {}
    prefix_fate: dict[Prefix, tuple[str | None, str | None, int]] = {}
    covered = prefix_geo.covered
    owned = prefix_geo.owned_addresses
    for record in records:
        weight = record.days_present
        report.total += weight
        if not record.stable:
            note_rejection(report, "unstable", record, weight)
            continue
        path = record.path
        verdict = path_verdicts.get(path)
        if verdict is None:
            verdict = path_verdicts[path] = check_path(
                path, clique, allocated, is_allocated, route_servers
            )
        category, cleaned = verdict
        if category is not None:
            note_rejection(report, category, record, weight)
            continue
        vp_country = collector_country.get(record.vp.collector, "")
        if vp_country == "":
            vp_country = vp_geo.country(record.vp)
            collector_country[record.vp.collector] = vp_country
        if vp_country is None:
            note_rejection(report, "vp_no_location", record, weight)
            continue
        prefix = record.prefix
        fate = prefix_fate.get(prefix)
        if fate is None:
            if prefix in covered:
                fate = ("covered", None, 0)
            else:
                country = prefix_geo.country(prefix)
                fate = (
                    ("prefix_no_location", None, 0) if country is None
                    else (None, country, owned.get(prefix, 0))
                )
            prefix_fate[prefix] = fate
        prefix_category, prefix_country, addresses = fate
        if prefix_category is not None:
            note_rejection(report, prefix_category, record, weight)
            continue
        assert cleaned is not None and prefix_country is not None
        report.accepted += weight
        yield PathRecord(
            vp=record.vp,
            vp_country=vp_country,
            prefix=prefix,
            prefix_country=prefix_country,
            path=cleaned,
            addresses=addresses,
        )


def reference_sanitize(
    records: Iterable[RibRecord], **kwargs: object
) -> tuple[list[PathRecord], FilterReport]:
    """The accepted records and the report of one reference pass."""
    report = FilterReport()
    out = list(sanitize_stream(records, report=report, **kwargs))  # type: ignore[arg-type]
    return out, report
