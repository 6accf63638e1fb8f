"""Lazy daily RIB snapshots for a simulated world.

The paper ingests five daily RIBs from every collector (Table 1). We
model a :class:`RibSeries` as the deterministic product of:

* the propagated best path per (VP AS, origin) — shared structure, so
  millions of logical announcements reference a few hundred thousand
  path objects;
* a per-VP *visibility* mask (real VPs rarely carry a 100 % feed);
* prefix-level *churn* — a prefix absent from some days' RIBs is what
  the paper's "unstable" filter rejects;
* injected anomalies (loops, poisoning, unallocated ASNs, prepending,
  route-server hops) that override the clean path for a record.

All randomness is *hash-stable*: each draw is keyed by the entity it
concerns (a VP IP, a prefix, a record) rather than by position in a
shared stream, so editing one AS in a world never reshuffles the noise
applied to unrelated VPs and prefixes.

Announcements are never materialised en masse: iterate
:meth:`RibSeries.records` for the deduplicated per-(VP, prefix) view
with day counts, :meth:`RibSeries.record_blocks` for the same view as
integer id columns (what the sanitizer consumes), or
:meth:`RibSeries.announcements` for a specific day's stream.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

import numpy as np

from repro.bgp.anomalies import AnomalyConfig, InjectionSummary, inject_anomalies
from repro.bgp.announcement import Announcement, RibRecord
from repro.bgp.collectors import VantagePoint
from repro.bgp.propagation import RoutingOutcome
from repro.bgp.records import BLOCK_RECORDS, ROW, RecordBlock, RecordBlocks
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER
from repro.topology.world import World


@dataclass(frozen=True, slots=True)
class RibGenerationConfig:
    """Knobs for RIB realism.

    ``churn_rate`` is the chance a prefix misses at least one of the
    ``days`` snapshots (the paper saw ~8 % of announcements rejected as
    unstable); ``vp_visibility`` is the chance a VP carries any given
    prefix at all.
    """

    days: int = 5
    churn_rate: float = 0.08
    vp_visibility: float = 0.985
    anomalies: AnomalyConfig = field(default_factory=AnomalyConfig)

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("need at least one RIB day")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError(f"churn_rate out of range: {self.churn_rate}")
        if not 0.0 < self.vp_visibility <= 1.0:
            raise ValueError(f"vp_visibility out of range: {self.vp_visibility}")


def _stable_uniform(seed: int, kind: str, key: str) -> float:
    """A uniform [0, 1) draw keyed by (seed, kind, entity)."""
    digest = zlib.crc32(f"{seed}:{kind}:{key}".encode())
    return (digest & 0xFFFFFFFF) / 4294967296.0


def _stable_uniform_bytes(prefix: bytes, key: bytes) -> float:
    """:func:`_stable_uniform` over pre-encoded ``prefix + key`` bytes.

    The per-(VP, prefix) loops draw hundreds of thousands of times; the
    f-string formatting and ``str.encode`` of the generic helper
    dominate those loops, so they pre-encode the ``"{seed}:{kind}:"``
    prefix once and the entity key once per entity. The digest is
    byte-identical to the generic helper's.
    """
    return (zlib.crc32(prefix + key) & 0xFFFFFFFF) / 4294967296.0


class RibSeries:
    """Daily RIB snapshots over one world, exposed lazily."""

    def __init__(
        self,
        world: World,
        outcome: "RoutingOutcome | list[RoutingOutcome]",
        config: RibGenerationConfig,
        seed: int = 0,
        tracer=NULL_TRACER,
    ) -> None:
        self.world = world
        self.config = config
        self.vps: list[VantagePoint] = world.collectors.all_vps()
        #: (prefix, origin ASN) per prefix index, deterministic order.
        self.prefix_table: list[tuple[Prefix, int]] = [
            (record.prefix, asn) for asn, record in world.graph.originations()
        ]
        self._seed = seed
        #: ``str(prefix)`` per prefix index — every hash-stable draw
        #: keys on it, and ``Prefix.__str__`` re-formats on each call
        self._prefix_strs: list[str] = [
            str(prefix) for prefix, _ in self.prefix_table
        ]
        outcomes = outcome if isinstance(outcome, list) else [outcome]
        if not outcomes:
            raise ValueError("need at least one routing outcome")
        with tracer.span(
            "ribs", vps=len(self.vps), prefixes=len(self.prefix_table),
            days=config.days,
        ) as span:
            with tracer.span("ribs.paths"):
                self._paths = self._collect_paths(outcomes)
            with tracer.span("ribs.visibility"):
                self._missing = self._sample_visibility()
            with tracer.span("ribs.churn"):
                self.unstable_days = self._sample_churn()
            with tracer.span("ribs.inject"):
                self.overrides, self.injection_summary = self._inject()
            span.set(
                paths=len(self._paths),
                missing=len(self._missing),
                unstable=len(self.unstable_days),
                overrides=len(self.overrides),
            )
            metrics = tracer.metrics
            metrics.gauge("ribs.vps").set(len(self.vps))
            metrics.gauge("ribs.prefixes").set(len(self.prefix_table))
            metrics.gauge("ribs.paths").set(len(self._paths))
            metrics.gauge("ribs.unstable_prefixes").set(len(self.unstable_days))
            metrics.gauge("ribs.overrides").set(len(self.overrides))

    # -- construction ------------------------------------------------------

    def _collect_paths(
        self, outcomes: "list[RoutingOutcome]"
    ) -> dict[tuple[int, int], ASPath]:
        """Best path per (VP ASN, origin), as shared ASPath objects.

        With multiple outcomes (routing *planes* from differently-salted
        tie-breaking), each VP AS is deterministically assigned one
        plane — emulating the path diversity real collectors see because
        peers in different regions resolve ties differently.
        """
        planes = len(outcomes)
        paths: dict[tuple[int, int], ASPath] = {}
        vp_asns = sorted({vp.asn for vp in self.vps})
        plane_of = {
            vp_asn: zlib.crc32(f"plane:{vp_asn}".encode()) % planes
            for vp_asn in vp_asns
        }
        for vp_asn in vp_asns:
            outcome = outcomes[plane_of[vp_asn]]
            for origin in outcome.origins():
                route = outcome.routes[origin].get(vp_asn)
                if route is not None:
                    # propagated paths are valid by construction
                    paths[(vp_asn, origin)] = ASPath.trusted(route.path)
        return paths

    def _sample_visibility(self) -> set[tuple[int, int]]:
        """(vp_index, prefix_index) pairs the VP does not carry."""
        missing: set[tuple[int, int]] = set()
        drop_rate = 1.0 - self.config.vp_visibility
        if drop_rate <= 0.0:
            return missing
        # One crc32 per cell is unavoidable; the string assembly is
        # not — pre-encode the stable "{seed}:vis:{ip}|" head per VP
        # and the "{prefix}" tail per prefix (draws stay identical to
        # _stable_uniform(seed, "vis", f"{vp.ip}|{prefix}")).
        seed = self._seed
        tails = [text.encode() for text in self._prefix_strs]
        for vp_index, vp in enumerate(self.vps):
            head = f"{seed}:vis:{vp.ip}|".encode()
            for prefix_index, tail in enumerate(tails):
                if _stable_uniform_bytes(head, tail) < drop_rate:
                    missing.add((vp_index, prefix_index))
        return missing

    def _sample_churn(self) -> dict[int, frozenset[int]]:
        """prefix_index -> days (0-based) on which the prefix is absent."""
        unstable: dict[int, frozenset[int]] = {}
        days = self.config.days
        if self.config.churn_rate <= 0.0 or days < 2:
            return unstable
        for prefix_index, (_, origin) in enumerate(self.prefix_table):
            key = f"{self._prefix_strs[prefix_index]}|{origin}"
            if _stable_uniform(self._seed, "churn", key) >= self.config.churn_rate:
                continue
            absent = 1 + int(
                _stable_uniform(self._seed, "churn-n", key) * (days - 1)
            )
            ranked = sorted(
                range(days),
                key=lambda d: _stable_uniform(self._seed, f"churn-d{d}", key),
            )
            unstable[prefix_index] = frozenset(ranked[:absent])
        return unstable

    def _inject(self) -> tuple[dict[tuple[int, int], ASPath], InjectionSummary]:
        graph = self.world.graph
        clique = graph.clique()
        route_servers = graph.route_servers()
        pool = graph.asn_registry.unallocated_sample(16)
        filler_pool = [asn for asn in graph.asns() if asn not in clique]

        def clean_records() -> Iterator[tuple[tuple[int, int], ASPath]]:
            for vp_index, prefix_index, path in self._iter_clean():
                yield ((vp_index, prefix_index), path)

        # The roll/rng draws key on f"{vp.ip}|{prefix}"; pre-encode the
        # per-VP heads and per-prefix tails once so the per-record work
        # is a dict-free bytes concat + crc32 (draws stay identical to
        # the _stable_uniform / crc32-seeded forms they replace).
        seed = self._seed
        roll_heads = [f"{seed}:anom:{vp.ip}|".encode() for vp in self.vps]
        rng_heads = [f"{seed}:anom-rng:{vp.ip}|".encode() for vp in self.vps]
        tails = [text.encode() for text in self._prefix_strs]

        def roll_for(key: tuple[int, int]) -> float:
            return _stable_uniform_bytes(roll_heads[key[0]], tails[key[1]])

        def rng_for(key: tuple[int, int]) -> random.Random:
            return random.Random(zlib.crc32(rng_heads[key[0]] + tails[key[1]]))

        return inject_anomalies(
            clean_records(),
            self.config.anomalies,
            clique,
            pool,
            route_servers,
            random.Random(self._seed),
            filler_pool=filler_pool,
            roll_for=roll_for,
            rng_for=rng_for,
        )

    # -- iteration ----------------------------------------------------------

    def _iter_clean(self) -> Iterator[tuple[int, int, ASPath]]:
        """(vp_index, prefix_index, clean path) for every carried record."""
        paths = self._paths
        missing = self._missing
        for vp_index, vp in enumerate(self.vps):
            vp_asn = vp.asn
            for prefix_index, (_, origin) in enumerate(self.prefix_table):
                path = paths.get((vp_asn, origin))
                if path is None:
                    continue
                if (vp_index, prefix_index) in missing:
                    continue
                yield (vp_index, prefix_index, path)

    def records(self) -> Iterator[RibRecord]:
        """Deduplicated (VP, prefix) records with day-presence counts."""
        days = self.config.days
        for vp_index, prefix_index, path in self._iter_clean():
            override = self.overrides.get((vp_index, prefix_index))
            absent = len(self.unstable_days.get(prefix_index, ()))
            yield RibRecord(
                vp=self.vps[vp_index],
                prefix=self.prefix_table[prefix_index][0],
                path=override if override is not None else path,
                days_present=days - absent,
                total_days=days,
            )

    def record_blocks(self, family: int | None = None) -> RecordBlocks:
        """:meth:`records` as id-column blocks, row for row.

        Restricted to one address family when ``family`` is given. The
        path table is the propagated paths followed by the anomaly
        overrides; each block holds whole VP rows (at least
        ``BLOCK_RECORDS`` rows, except the last), and generation is
        lazy — a run of VP rows is built only when its block is pulled.
        """
        prefixes = [prefix for prefix, _ in self.prefix_table]
        paths = list(self._paths.values())
        paths.extend(self.overrides.values())
        return RecordBlocks(self.vps, prefixes, paths, self._blocks(prefixes, family))

    def _blocks(
        self, prefixes: list[Prefix], family: int | None
    ) -> Iterator[RecordBlock]:
        # (VP ASN, origin) → path id, as a sorted 64-bit key column; one
        # searchsorted per VP row replaces a dict probe per record
        count = len(self._paths)
        if not count:
            return
        pairs = np.fromiter(
            chain.from_iterable(self._paths), dtype=np.uint64, count=2 * count
        ).reshape(count, 2)
        keys = (pairs[:, 0] << np.uint64(32)) | pairs[:, 1]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        order = order.astype(ROW)
        origins = np.array(
            [origin for _, origin in self.prefix_table], dtype=np.uint64
        )
        wanted = np.array(
            [family is None or prefix.version == family for prefix in prefixes],
            dtype=bool,
        )
        days = self.config.days
        present_days = np.array([
            days - len(self.unstable_days.get(index, ()))
            for index in range(len(prefixes))
        ], dtype=ROW)
        missing: dict[int, list[int]] = {}
        for vp_index, prefix_index in self._missing:
            missing.setdefault(vp_index, []).append(prefix_index)
        overrides: dict[int, tuple[list[int], list[int]]] = {}
        for pid, (vp_index, prefix_index) in enumerate(self.overrides, count):
            row = overrides.setdefault(vp_index, ([], []))
            row[0].append(prefix_index)
            row[1].append(pid)
        pending: list[RecordBlock] = []
        filled = 0
        for vp_index, vp in enumerate(self.vps):
            codes = (np.uint64(vp.asn) << np.uint64(32)) | origins
            slots = np.searchsorted(keys, codes)
            slots[slots == count] = 0
            carried = wanted & (keys[slots] == codes)
            carried[missing.get(vp_index, [])] = False
            row_paths = order[slots]
            override = overrides.get(vp_index)
            if override is not None:
                row_paths[override[0]] = override[1]
            picked = np.flatnonzero(carried)
            pending.append(RecordBlock(
                vp=np.full(len(picked), vp_index, dtype=ROW),
                prefix=picked.astype(ROW),
                path=row_paths[picked],
                days=present_days[picked],
                total=np.full(len(picked), days, dtype=ROW),
            ))
            filled += len(picked)
            if filled >= BLOCK_RECORDS:
                yield RecordBlock.concat(pending)
                pending, filled = [], 0
        if filled:
            yield RecordBlock.concat(pending)

    def announcements(self, day: int) -> Iterator[Announcement]:
        """Stream one day's RIB (0-based day index)."""
        if not 0 <= day < self.config.days:
            raise ValueError(f"day {day} outside 0..{self.config.days - 1}")
        for vp_index, prefix_index, path in self._iter_clean():
            if day in self.unstable_days.get(prefix_index, ()):
                continue
            override = self.overrides.get((vp_index, prefix_index))
            yield Announcement(
                vp=self.vps[vp_index],
                prefix=self.prefix_table[prefix_index][0],
                path=override if override is not None else path,
            )

    def days(self) -> Iterator["RibDump"]:
        """The series day by day, lazily.

        Yields one lightweight :class:`RibDump` handle per day — no
        announcement list is ever materialized; each dump streams its
        day's announcements on iteration. This is the temporal
        counterpart of the streaming record protocol: consumers that
        used to build the full multi-day list (serialization, replay)
        hold one day handle at a time instead.
        """
        for day in range(self.config.days):
            yield RibDump(self, day)

    def total_announcements(self) -> int:
        """Announcement count across all days (Table 1's "total" row)."""
        days = self.config.days
        total = 0
        for _, prefix_index, _ in self._iter_clean():
            total += days - len(self.unstable_days.get(prefix_index, ()))
        return total

    def num_records(self) -> int:
        """Deduplicated (VP, prefix) record count."""
        return sum(1 for _ in self._iter_clean())


def generate_rib_days(
    world: World,
    outcome: "RoutingOutcome | list[RoutingOutcome]",
    config: RibGenerationConfig | None = None,
    seed: int = 0,
    tracer=NULL_TRACER,
) -> RibSeries:
    """Build the daily RIB series for one or more routing planes."""
    return RibSeries(world, outcome, config or RibGenerationConfig(), seed, tracer)


@dataclass(frozen=True, slots=True)
class RibDump:
    """A single day's view over a series (convenience wrapper)."""

    series: RibSeries
    day: int

    def __iter__(self) -> Iterator[Announcement]:
        return self.series.announcements(self.day)
