"""The Table-1 sanitization pipeline.

Converts raw RIB records into a clean :class:`PathSet`, rejecting (in
this order, so categories stay disjoint as in the paper's Table 1):

1. **unstable** — the prefix was not present in all daily RIBs;
2. **unallocated** — the path mentions an ASN the (simulated) IANA has
   not assigned;
3. **loop** — an ASN repeats non-adjacently (``A C A``);
4. **poisoned** — a non-top-tier AS sits between two top-tier ASes;
5. **vp_no_location** — the VP peers with a multi-hop collector, so its
   country is untrusted;
6. **covered** — the prefix is entirely covered by more specifics (the
   paper removes these while preparing geolocation);
7. **prefix_no_location** — geolocation reached no majority country.

Surviving paths are *cleaned*: prepending is collapsed and IXP
route-server ASNs are removed (neither rejects the path).

All counts are reported in announcement units (one VP × prefix × day),
matching the paper's accounting of 248M announcements.

Input records are never objects here: the input is a stream of
:class:`~repro.bgp.records.RecordBlock` id columns, the :class:`Judge`
decides once per VP, per prefix and per distinct path, and each
record's category is a column gathered from those verdicts. Only the
accepted rows become :class:`PathRecord` objects, and the path store
is built from their id columns by
:class:`repro.perf.pathstore.ColumnBuilder`, not from the objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from repro.bgp.announcement import RibRecord
from repro.bgp.records import RecordBlock, RecordBlocks
from repro.bgp.collectors import VantagePoint
from repro.geo.prefix_geo import PrefixGeolocation
from repro.geo.vp_geo import VPGeolocator
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, parse_address
from repro.obs.trace import NULL_TRACER, AnyTracer, NullSpan, Span

if TYPE_CHECKING:  # perf imports core at runtime; the cycle is type-only
    from repro.perf.pathstore import PathStore


class RelationshipOracle(Protocol):
    """Anything that can label the relationship of an adjacent AS pair.

    Returns ``"p2c"`` (left provides transit to right), ``"c2p"``,
    ``"p2p"``, or ``None`` when unknown — the signature of
    :meth:`repro.topology.model.ASGraph.relationship` and of the
    inferred-relationship table.
    """

    def relationship(self, left: int, right: int) -> str | None:
        """Label for the (left, right) adjacency, or ``None``."""
        ...


@dataclass(frozen=True, slots=True)
class PathRecord:
    """One sanitized observation: a located VP's clean path to a
    geolocated prefix."""

    vp: VantagePoint
    vp_country: str
    prefix: Prefix
    prefix_country: str
    path: ASPath
    addresses: int

    @property
    def origin(self) -> int:
        """Origin AS of the prefix."""
        return self.path.origin


#: Rejection categories in evaluation order (Table 1 rows).
REJECT_CATEGORIES: tuple[str, ...] = (
    "unstable",
    "unallocated",
    "loop",
    "poisoned",
    "vp_no_location",
    "covered",
    "prefix_no_location",
)


@dataclass
class FilterReport:
    """Announcement-unit accounting of the sanitization pass."""

    total: int = 0
    accepted: int = 0
    rejected: dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in REJECT_CATEGORIES}
    )
    #: first few rejected records per category, for provenance/debugging
    samples: dict[str, list[RibRecord]] = field(default_factory=dict)
    #: how many sample records to retain per category
    sample_limit: int = 5

    def rejected_total(self) -> int:
        """All rejected announcements."""
        return sum(self.rejected.values())

    def pct(self, count: int) -> float:
        """Percentage of the total input."""
        return 100.0 * count / self.total if self.total else 0.0

    def as_rows(self) -> list[tuple[str, int, float]]:
        """(label, count, percent) rows in the paper's Table 1 layout."""
        rows: list[tuple[str, int, float]] = [
            ("rejected", self.rejected_total(), self.pct(self.rejected_total()))
        ]
        for category in REJECT_CATEGORIES:
            count = self.rejected[category]
            rows.append((category, count, self.pct(count)))
        rows.append(("accepted", self.accepted, self.pct(self.accepted)))
        rows.append(("total", self.total, 100.0 if self.total else 0.0))
        return rows

    def render(self) -> str:
        """A printable Table-1 style summary."""
        lines = [f"{'category':<20}{'announcements':>15}{'share':>10}"]
        for label, count, pct in self.as_rows():
            indent = "  " if label in REJECT_CATEGORIES else ""
            lines.append(f"{indent}{label:<20}{count:>13}{pct:>9.2f}%")
        return "\n".join(lines)


@dataclass
class PathSet:
    """The sanitized, deduplicated input to every ranking metric.

    ``records`` is a plain list for the in-memory backend; the
    out-of-core path (:func:`repro.perf.spill.sanitize_to_store`) hands
    in a read-only lazy sequence over mapped columns instead — every
    consumer treats it as an immutable ``Sequence`` either way.
    """

    records: Sequence[PathRecord]
    report: FilterReport
    #: lazily-built SoA mirror of the records (see :meth:`store`);
    #: derived state, excluded from equality
    _store: object = field(default=None, init=False, repr=False, compare=False)
    #: the judge and the accepted rows' id columns :func:`sanitize`
    #: leaves for :meth:`store` to build the columns from
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PathRecord]:
        return iter(self.records)

    def store(self) -> "PathStore":
        """The records as a :class:`repro.perf.PathStore` (built on
        first use, then shared by every array-walking consumer — the
        suffix bulk-prime and the index's buckets). After
        :func:`sanitize` it is built straight from the judged id
        columns; a path set assembled from record objects (a replayed
        release) interns them. The records must not be mutated after
        this."""
        if self._store is None:
            from repro.perf.pathstore import PathStore

            if self._rows is None:
                self._store = PathStore.from_records(self.records)
            else:
                self._store = PathStore.build(*self._rows, self.records)
                self._rows = None
        return self._store

    def vps(self) -> list[VantagePoint]:
        """Distinct VPs present, ordered by IP (numeric, not lexical)."""
        seen: dict[str, VantagePoint] = {}
        for record in self.records:
            seen.setdefault(record.vp.ip, record.vp)
        return [seen[ip] for ip in sorted(seen, key=parse_address)]

    def countries(self) -> list[str]:
        """Destination countries present, sorted."""
        return sorted({record.prefix_country for record in self.records})

    def country_addresses(self) -> dict[str, int]:
        """Distinct geolocated addresses per destination country."""
        per_country: dict[str, dict[Prefix, int]] = {}
        for record in self.records:
            per_country.setdefault(record.prefix_country, {})[record.prefix] = (
                record.addresses
            )
        return {
            country: sum(addresses.values())
            for country, addresses in sorted(per_country.items())
        }


def is_poisoned(path: ASPath, clique: frozenset[int]) -> bool:
    """Whether a non-clique AS sits between two clique ASes (paper §3.1)."""
    asns = path.collapse_prepending().asns
    for index in range(1, len(asns) - 1):
        if (
            asns[index] not in clique
            and asns[index - 1] in clique
            and asns[index + 1] in clique
        ):
            return True
    return False


def sanitize(
    records: "Iterable[RibRecord] | RecordBlocks",
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    tracer: AnyTracer = NULL_TRACER,
) -> PathSet:
    """Run the full Table-1 pipeline over deduplicated RIB records.

    ``records`` is the series' :class:`RecordBlocks` or any
    :class:`RibRecord` stream (interned into blocks). Draining the input
    runs under a ``ribs.records`` span and the judging under the
    ``sanitize`` span after it; the result's :class:`PathStore` is
    built from the judged id columns on first use. ``tracer`` also gets
    the report as ``sanitize.*`` counters.
    """
    source = RecordBlocks.of(records)
    with tracer.span("ribs.records") as span:
        block = source.collect()
        span.set(records=len(block))
    with tracer.span("sanitize") as span:
        report = FilterReport()
        judge = Judge(
            source, clique, is_allocated, route_servers, vp_geo, prefix_geo
        )
        accepted = judge.judge(block, report)
        del block
        path_set = PathSet(records=judge.records(*accepted), report=report)
        path_set._rows = (judge, *accepted)
        observe(tracer, span, path_set)
    return path_set


def observe(tracer: AnyTracer, span: "Span | NullSpan", path_set: PathSet) -> None:
    """Mirror a finished pass's report onto its span and counters."""
    report = path_set.report
    span.set(
        input=report.total, output=report.accepted,
        records=len(path_set.records),
    )
    metrics = tracer.metrics
    metrics.counter("sanitize.input").inc(report.total)
    metrics.counter("sanitize.accepted").inc(report.accepted)
    for category in REJECT_CATEGORIES:
        metrics.counter(f"sanitize.dropped.{category}").inc(
            report.rejected[category]
        )


#: a record's Table-1 code: 0 = accepted, then each rejection category
#: in evaluation order (``REJECT_CATEGORIES[code - 1]``)
ACCEPTED = 0
(UNSTABLE, UNALLOCATED, LOOP, POISONED, VP_NO_LOCATION, COVERED,
 PREFIX_NO_LOCATION) = range(1, len(REJECT_CATEGORIES) + 1)
#: a path code only: a path of route servers alone, which cleaning
#: would empty (an error once a stable record reaches it)
UNCLEANABLE = len(REJECT_CATEGORIES) + 1

#: distinct paths judged per numpy pass, and records materialized per
#: pass (each bounds the pass's temporaries)
PATH_CHUNK = 1 << 14
RECORDS_PER_PASS = 1 << 16


class Judge:
    """Table-1 verdicts for one :class:`RecordBlocks` source, computed
    once per entity and broadcast to records by id.

    * **per distinct path** (numpy over one flat token column):
      allocation through one registry lookup per distinct ASN,
      prepending collapse, non-adjacent repeats, a non-clique AS between
      two clique ASes, and route-server removal for the survivors;
    * **per VP** (memoised by collector) and **per prefix** (covered /
      no majority country / owned addresses), on first need.

    :meth:`judge` then takes each record's code as the first non-zero
    of unstable → path → VP → prefix, so the categories stay disjoint
    in Table-1 order. Distinct raw paths can clean to one value; the
    store's builder interns them by that value.
    """

    def __init__(
        self,
        source: RecordBlocks,
        clique: frozenset[int],
        is_allocated: Callable[[int], bool],
        route_servers: frozenset[int],
        vp_geo: VPGeolocator,
        prefix_geo: PrefixGeolocation,
    ) -> None:
        self.source = source
        self._clique = np.array(sorted(clique), dtype=np.int64)
        self._route_servers = np.array(sorted(route_servers), dtype=np.int64)
        self._is_allocated = is_allocated
        self._vp_geo = vp_geo
        self._prefix_geo = prefix_geo
        self._allocated: dict[int, bool] = {}  # ASN → registry verdict
        self._collector_country: dict[str, str | None] = {}
        #: per raw path: 0, UNALLOCATED, LOOP, POISONED or UNCLEANABLE
        self.path_code = np.zeros(0, dtype=np.int8)
        #: per raw path: the cleaned path (``None`` unless code 0)
        self.cleaned: list[ASPath | None] = []
        #: per VP: VP_NO_LOCATION or 0 (-1 = not judged yet)
        self.vp_code = np.zeros(0, dtype=np.int8)
        #: per VP: (VantagePoint, country) once judged
        self.vp_rows: list[tuple[VantagePoint, str | None] | None] = []
        #: per prefix: COVERED, PREFIX_NO_LOCATION or 0 (-1 = not judged)
        self.prefix_code = np.zeros(0, dtype=np.int8)
        #: per prefix: (Prefix, country, owned addresses) once judged
        self.prefix_rows: list[tuple[Prefix, str | None, int] | None] = []

    # -- per-record codes ---------------------------------------------------

    def judge(
        self, block: RecordBlock, report: FilterReport
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Account ``block`` in ``report``; return the accepted rows as
        ``(vp ids, prefix ids, path ids)`` columns."""
        paths = self.source.paths
        if len(self.cleaned) < len(paths):
            self._judge_paths(paths[len(self.cleaned):])
        code = np.where(block.days != block.total, UNSTABLE, self.path_code[block.path])
        emptied = block.path[code == UNCLEANABLE]
        if len(emptied):  # raise the per-path cleaning step's error
            paths[int(emptied[0])].collapse_prepending().without(
                self._route_servers.tolist()
            )
        reached = code == ACCEPTED
        code[reached] = self._vp_codes(block.vp[reached])
        reached = code == ACCEPTED
        code[reached] = self._prefix_codes(block.prefix[reached])
        weights = np.bincount(
            code, weights=block.days, minlength=len(REJECT_CATEGORIES) + 1
        )
        report.total += int(block.days.sum())
        report.accepted += int(weights[ACCEPTED])
        for index, category in enumerate(REJECT_CATEGORIES, 1):
            report.rejected[category] += int(weights[index])
        self._sample(block, code, report)
        accepted = code == ACCEPTED
        return block.vp[accepted], block.prefix[accepted], block.path[accepted]

    def records(
        self, vps: np.ndarray, prefixes: np.ndarray, paths: np.ndarray
    ) -> list[PathRecord]:
        """Accepted rows as record objects."""
        vp_rows = self.vp_rows
        prefix_rows = self.prefix_rows
        cleaned = self.cleaned
        records: list[PathRecord] = []
        for start in range(0, len(paths), RECORDS_PER_PASS):
            rows = slice(start, start + RECORDS_PER_PASS)
            records += [
                PathRecord(vp, vp_country, prefix, prefix_country, path, addresses)
                for (vp, vp_country), (prefix, prefix_country, addresses), path
                in zip(
                    map(vp_rows.__getitem__, vps[rows].tolist()),  # type: ignore[arg-type]
                    map(prefix_rows.__getitem__, prefixes[rows].tolist()),  # type: ignore[arg-type]
                    map(cleaned.__getitem__, paths[rows].tolist()),
                )
            ]
        return records

    def _sample(self, block: RecordBlock, code: np.ndarray, report: FilterReport) -> None:
        """Keep the first ``sample_limit`` records of each category,
        categories keyed in first-rejection order."""
        samples = report.samples
        firsts: list[tuple[int, str, np.ndarray]] = []
        for index, category in enumerate(REJECT_CATEGORIES, 1):
            room = report.sample_limit - len(samples.get(category, ()))
            if room > 0:
                rows = np.flatnonzero(code == index)[:room]
                if len(rows):
                    firsts.append((int(rows[0]), category, rows))
        for _, category, rows in sorted(firsts):
            samples.setdefault(category, []).extend(
                self.source.record(block, row) for row in rows.tolist()
            )

    def _vp_codes(self, vps: np.ndarray) -> np.ndarray:
        """Per-row VP codes, judging VPs met for the first time."""
        grow = len(self.source.vps) - len(self.vp_code)
        table = self.vp_code = np.pad(self.vp_code, (0, grow), constant_values=-1)
        self.vp_rows.extend([None] * (len(table) - len(self.vp_rows)))
        for vid in np.unique(vps[table[vps] < 0]).tolist():
            vp = self.source.vps[vid]
            country = self._collector_country.get(vp.collector, "")
            if country == "":
                country = self._collector_country[vp.collector] = (
                    self._vp_geo.country(vp)
                )
            table[vid] = VP_NO_LOCATION if country is None else ACCEPTED
            self.vp_rows[vid] = (vp, country)
        return table[vps]

    def _prefix_codes(self, prefixes: np.ndarray) -> np.ndarray:
        """Per-row prefix codes, judging prefixes met for the first time."""
        grow = len(self.source.prefixes) - len(self.prefix_code)
        table = self.prefix_code = np.pad(self.prefix_code, (0, grow), constant_values=-1)
        self.prefix_rows.extend([None] * (len(table) - len(self.prefix_rows)))
        geo = self._prefix_geo
        for fid in np.unique(prefixes[table[prefixes] < 0]).tolist():
            prefix = self.source.prefixes[fid]
            if prefix in geo.covered:
                table[fid], country, addresses = COVERED, None, 0
            else:
                country = geo.country(prefix)
                addresses = 0 if country is None else geo.owned_addresses.get(prefix, 0)
                table[fid] = PREFIX_NO_LOCATION if country is None else ACCEPTED
            self.prefix_rows[fid] = (prefix, country, addresses)
        return table[prefixes]

    # -- per-path verdicts --------------------------------------------------

    def _judge_paths(self, paths: Sequence[ASPath]) -> None:
        """Extend the per-path tables over ``paths`` (the next raw ids),
        one numpy pass per ``PATH_CHUNK`` paths."""
        codes = [self.path_code]
        for start in range(0, len(paths), PATH_CHUNK):
            code, cleaned = self._verdicts(paths[start:start + PATH_CHUNK])
            codes.append(code)
            self.cleaned.extend(cleaned)
        self.path_code = np.concatenate(codes)

    def _verdicts(
        self, paths: Sequence[ASPath]
    ) -> tuple[np.ndarray, list[ASPath | None]]:
        """One pass over ``paths``: their codes and cleaned paths."""
        count = len(paths)
        lengths = np.fromiter(
            map(len, map(attrgetter("asns"), paths)), dtype=np.int64, count=count
        )
        tokens = np.fromiter(
            chain.from_iterable(map(attrgetter("asns"), paths)),
            dtype=np.int64, count=int(lengths.sum()),
        )
        owner = np.repeat(np.arange(count), lengths)
        ordered = np.sort(tokens)
        asns = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        allocated = self._allocated
        for asn in asns.tolist():
            if asn not in allocated:
                allocated[asn] = bool(self._is_allocated(asn))
        unlisted = [asn for asn in asns.tolist() if not allocated[asn]]
        unallocated = np.zeros(count, dtype=bool)
        unallocated[owner[np.isin(tokens, unlisted)]] = True
        # prepending collapse: drop a hop repeating its predecessor
        keep = np.ones(len(tokens), dtype=bool)
        keep[1:] = (tokens[1:] != tokens[:-1]) | (owner[1:] != owner[:-1])
        tokens, owner = tokens[keep], owner[keep]
        # a loop: one (path, ASN) pair twice after the collapse; ASNs
        # are re-coded densely when (path, ASN) would overflow one int64
        span = int(asns[-1]) + 1 if len(asns) else 1
        hops = tokens
        if count * span >= 1 << 62:
            hops, span = np.searchsorted(asns, tokens), len(asns)
        pairs = np.sort(owner * span + hops)
        looped = np.zeros(count, dtype=bool)
        looped[pairs[1:][pairs[1:] == pairs[:-1]] // span] = True
        # poisoning: a non-clique hop between two clique hops of one path
        top = np.isin(tokens, self._clique)
        wedged = (
            (owner[:-2] == owner[1:-1]) & (owner[2:] == owner[1:-1])
            & top[:-2] & top[2:] & ~top[1:-1]
        )
        poisoned = np.zeros(count, dtype=bool)
        poisoned[owner[1:-1][wedged]] = True
        code = np.zeros(count, dtype=np.int8)
        code[poisoned] = POISONED
        code[looped] = LOOP
        code[unallocated] = UNALLOCATED
        # cleaning: the collapsed path without its route-server hops
        kept = ~np.isin(tokens, self._route_servers)
        values = tokens[kept]
        sizes = np.bincount(owner[kept], minlength=count)
        ends = np.cumsum(sizes)
        code[(code == ACCEPTED) & (sizes == 0)] = UNCLEANABLE
        clean = code == ACCEPTED
        cleaned: list[ASPath | None] = list(paths)
        for pid in np.flatnonzero(~clean).tolist():
            cleaned[pid] = None
        for pid in np.flatnonzero(clean & (sizes != lengths)).tolist():
            cleaned[pid] = ASPath.trusted(
                tuple(values[ends[pid] - sizes[pid]:ends[pid]].tolist())
            )
        return code, cleaned

