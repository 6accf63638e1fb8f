"""Structure-of-arrays storage for the sanitized paths.

The hot consumers (transit-suffix resolution, origin and country-pair
bucketing) walk every sanitized record. :class:`PathStore` holds the
record set as contiguous int64 columns, deduplicated by path:

* ``tokens`` — every *distinct* cleaned path's ASNs, concatenated;
* ``offsets`` / ``lengths`` — where each distinct path lives in
  ``tokens``;
* ``record_path`` / ``record_vp`` / ``record_prefix`` — record position
  → distinct-path / VP / prefix id;
* ``record_origin`` — per-record origin ASN for the grouped walks;

plus two small side tables, ``vp_table`` (VP, country) and
``prefix_table`` (prefix, country, owned addresses — IPv6 counts exceed
int64, so they stay Python ints and ``record_addresses`` resolves them
per record).

Every store comes out of one :class:`ColumnBuilder`: the sanitizer
feeds it the accepted rows of each judged block, and it interns paths
(by cleaned value), VPs and prefixes in first-appearance order. The
in-memory store (:meth:`ColumnBuilder.finish`) and the out-of-core one
(:class:`repro.perf.spill.SpillWriter` →
:class:`~repro.perf.spill.MmapPathStore`) differ only in where the
columns live. Values handed to consumers are plain Python ints, so
downstream products are byte-identical to the object-walking
definitions; ``tests/perf/test_pathstore.py`` and the golden ranking
bytes pin this.

The store is *derived, read-only* state: built once per PathSet (see
:meth:`repro.core.sanitize.PathSet.store`) and never mutated — the
lint rule R007 extends to its arrays.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Protocol, Sequence

import numpy as np

from repro.bgp.collectors import VantagePoint
from repro.bgp.records import first_seen
from repro.core.sanitize import PathRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.perf.cache import SuffixCache

#: int64 columns of a store (element counts: tokens → tokens;
#: offsets/lengths → distinct paths; record_* → records)
COLUMNS = (
    "tokens", "offsets", "lengths",
    "record_path", "record_vp", "record_prefix", "record_origin",
)

VpRow = tuple[VantagePoint, str]
PrefixRow = tuple[Prefix, str, int]


class EntityTables(Protocol):
    """Where a :class:`ColumnBuilder` resolves the ids of accepted rows
    (the sanitizer's :class:`repro.core.sanitize.Judge` is one)."""

    cleaned: Sequence[ASPath | None]  # path id → cleaned path
    vp_rows: Sequence[tuple[VantagePoint, str | None] | None]  # (VP, country)
    #: prefix id → (prefix, country, owned addresses)
    prefix_rows: Sequence[tuple[Prefix, str | None, int] | None]


class _FirstSeen:
    """Dense ids in first-appearance order for a stream of source ids.

    Given ``values`` (source id → value), source ids of equal value
    share one dense id, and ``ids`` maps each value to it.
    """

    def __init__(self, values: Sequence[Hashable] | None = None) -> None:
        self.dense = np.zeros(0, dtype=np.int64)
        self.count = 0
        self.values = values
        self.ids: dict[Hashable, int] = {}

    def map(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``ids`` as dense ids, plus the source ids that took a new
        dense id (in order of first appearance)."""
        if len(ids) and int(ids.max()) >= len(self.dense):
            grown = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
            grown[:len(self.dense)] = self.dense
            self.dense = grown
        unique, first = np.unique(ids, return_index=True)
        unseen = self.dense[unique] < 0
        fresh = unique[unseen][np.argsort(first[unseen], kind="stable")]
        if self.values is None:
            self.dense[fresh] = np.arange(self.count, self.count + len(fresh))
            self.count += len(fresh)
            return self.dense[ids], fresh
        new: list[int] = []
        found: list[int] = []
        values, setdefault = self.values, self.ids.setdefault
        for source_id in fresh.tolist():
            dense = setdefault(values[source_id], self.count)
            if dense == self.count:
                self.count += 1
                new.append(source_id)
            found.append(dense)
        self.dense[fresh] = found
        return self.dense[ids], np.array(new, dtype=np.int64)


class ColumnBuilder:
    """Accepted rows → store columns, one block at a time.

    New columns wait in ``buffers`` (and new entities in ``pending``)
    until :meth:`finish` concatenates them into an in-memory
    :class:`PathStore` — or a :class:`repro.perf.spill.SpillWriter`
    flushes them to its column files.
    """

    def __init__(self, tables: EntityTables) -> None:
        self.tables = tables
        #: paths are interned by cleaned value: its ``ids`` is the
        #: store's path → id dict
        self._paths = _FirstSeen(tables.cleaned)
        self._origins = np.zeros(0, dtype=np.int64)  # store path id → origin
        self._vps = _FirstSeen()
        self._prefixes = _FirstSeen()
        #: records and tokens added so far
        self.records = 0
        self.tokens = 0
        self.buffers: dict[str, list[np.ndarray]] = {name: [] for name in COLUMNS}
        self.pending_paths: list[ASPath] = []
        self.pending_vps: list[VpRow] = []
        self.pending_prefixes: list[PrefixRow] = []

    def add(self, vps: np.ndarray, prefixes: np.ndarray, paths: np.ndarray) -> None:
        """Append accepted rows (source VP, prefix and path ids)."""
        tables = self.tables
        record_path, fresh = self._paths.map(paths)
        new_paths: list[ASPath] = list(map(tables.cleaned.__getitem__, fresh.tolist()))  # type: ignore[arg-type]
        lengths = np.fromiter(
            map(len, map(attrgetter("asns"), new_paths)),
            dtype=np.int64, count=len(new_paths),
        )
        total = int(lengths.sum())
        tokens = np.fromiter(
            chain.from_iterable(map(attrgetter("asns"), new_paths)),
            dtype=np.int64, count=total,
        )
        ends = np.cumsum(lengths)
        buffers = self.buffers
        buffers["tokens"].append(tokens)
        buffers["offsets"].append(self.tokens + ends - lengths)
        buffers["lengths"].append(lengths)
        self.tokens += total
        self.pending_paths.extend(new_paths)
        # a path's origin is its last ASN
        self._origins = np.concatenate((self._origins, tokens[ends - 1]))
        record_vp, fresh = self._vps.map(vps)
        self.pending_vps.extend(map(tables.vp_rows.__getitem__, fresh.tolist()))  # type: ignore[arg-type]
        record_prefix, fresh = self._prefixes.map(prefixes)
        self.pending_prefixes.extend(map(tables.prefix_rows.__getitem__, fresh.tolist()))  # type: ignore[arg-type]
        buffers["record_path"].append(record_path)
        buffers["record_vp"].append(record_vp)
        buffers["record_prefix"].append(record_prefix)
        buffers["record_origin"].append(self._origins[record_path])
        self.records += len(paths)

    def finish(self, records: Sequence[PathRecord]) -> "PathStore":
        """The in-memory store over everything added, ``records`` being
        the same rows as record objects."""
        columns: dict[str, np.ndarray] = {}
        for name, chunks in self.buffers.items():
            columns[name] = (
                chunks[0] if len(chunks) == 1
                else np.concatenate(chunks) if chunks
                else np.zeros(0, dtype=np.int64)
            )
            chunks.clear()
        return PathStore(
            columns, tuple(self.pending_paths), self.pending_vps,
            self.pending_prefixes, records, self._paths.ids,  # type: ignore[arg-type]
        )


class _RecordTables:
    """:class:`EntityTables` interned from record objects, with the
    id columns of those records."""

    def __init__(self, records: Iterable[PathRecord]) -> None:
        self.cleaned: list[ASPath | None] = []
        self.vp_rows: list[tuple[VantagePoint, str | None] | None] = []
        self.prefix_rows: list[tuple[Prefix, str | None, int] | None] = []
        ids: tuple[dict, dict, dict] = ({}, {}, {})
        rows: list[int] = []
        for record in records:
            rows += (
                first_seen(ids[0], self.vp_rows, (record.vp, record.vp_country)),
                first_seen(ids[1], self.prefix_rows, (
                    record.prefix, record.prefix_country, record.addresses,
                )),
                first_seen(ids[2], self.cleaned, record.path),
            )
        self.columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T


class RecordView(Sequence):
    """A read-only per-record sequence resolved through a store's id
    columns on each access (``at(position)`` gives one element)."""

    __slots__ = ("_store", "_at")

    def __init__(self, store: "PathStore", at: Callable[[int], object]) -> None:
        self._store = store
        self._at = at

    def __len__(self) -> int:
        return self._store.record_count

    def __getitem__(self, index):  # type: ignore[no-untyped-def]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = self._store.record_count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("record position out of range")
        return self._at(index)


class PathStore:
    """Interned, flattened columns of one sanitized record set."""

    __slots__ = (
        *COLUMNS, "vp_table", "prefix_table", "records", "_paths",
        "_path_ids", "_token_list", "_pair_buckets", "_origin_buckets",
        "_starts_memo",
    )

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        paths: tuple[ASPath, ...] | None,
        vp_table: list[VpRow],
        prefix_table: list[PrefixRow],
        records: Sequence[PathRecord],
        path_ids: dict[ASPath, int] | None = None,
    ) -> None:
        for name in COLUMNS:
            setattr(self, name, columns[name])
        #: one cleaned path per distinct-path id (``None``: rebuilt from
        #: the token column on first use)
        self._paths = paths
        self.vp_table = vp_table  # vp id → (VantagePoint, country)
        #: prefix id → (Prefix, country, owned addresses)
        self.prefix_table = prefix_table
        self._path_ids = path_ids
        self._token_list: list[int] | None = None
        self._pair_buckets: dict[tuple[str, str], Sequence[int]] | None = None
        self._origin_buckets: dict[int, Sequence[int]] | None = None
        self._starts_memo: tuple[object, list[int]] | None = None
        #: the record objects, in position order
        self.records = records

    @classmethod
    def build(
        cls,
        tables: EntityTables,
        vps: np.ndarray,
        prefixes: np.ndarray,
        paths: np.ndarray,
        records: Sequence[PathRecord],
    ) -> "PathStore":
        """The store of accepted rows (source VP, prefix and path ids
        resolved through ``tables``) that ``records`` spell out."""
        builder = ColumnBuilder(tables)
        builder.add(vps, prefixes, paths)
        return builder.finish(records)

    @classmethod
    def from_records(cls, records: Sequence[PathRecord]) -> "PathStore":
        """Intern record objects (a path set the sanitizer did not
        build, such as a replayed release) through the same builder."""
        tables = _RecordTables(records)
        return cls.build(tables, *tables.columns, records)

    def __len__(self) -> int:
        """Number of distinct paths stored."""
        return len(self.offsets)

    @property
    def record_count(self) -> int:
        return len(self.record_path)

    @property
    def paths(self) -> tuple[ASPath, ...]:
        """One :class:`ASPath` per distinct-path id."""
        if self._paths is None:
            token_list = self.token_list()
            self._paths = tuple(
                ASPath.trusted(tuple(token_list[offset:offset + length]))
                for offset, length in zip(
                    self.offsets.tolist(), self.lengths.tolist()
                )
            )
        return self._paths

    @property
    def path_ids(self) -> dict[ASPath, int]:
        """Distinct path → its id (row in offsets/lengths)."""
        if self._path_ids is None:
            self._path_ids = dict(zip(self.paths, range(len(self.offsets))))
        return self._path_ids

    @property
    def record_addresses(self) -> Sequence[int]:
        """Per-record owned-address counts, resolved through the prefix
        table (IPv6 counts exceed int64, so they never enter a column)."""
        return RecordView(  # type: ignore[return-value]
            self, lambda at: self.prefix_table[int(self.record_prefix[at])][2]
        )

    def token_list(self) -> list[int]:
        """The token column as plain Python ints (memoised) — the form
        consumers slice suffix tuples from, so numpy scalars never leak
        into downstream products."""
        if self._token_list is None:
            self._token_list = self.tokens.tolist()
        return self._token_list

    # -- bulk transit suffixes ---------------------------------------------

    def suffix_starts(self, p2c: Iterable[tuple[int, int]]) -> list[int]:
        """Per distinct path, the token index its transit suffix starts
        at, under the given provider→customer edge set.

        Matches :meth:`repro.perf.cache.SuffixCache._compute` exactly:
        the suffix is the longest tail of the path whose adjacent pairs
        are all p2c links — ``start = (last non-p2c pair index) + 1``,
        or 0 when every pair is p2c.

        Memoised by edge-set *identity*: oracles hand out a stable
        frozenset (:meth:`repro.topology.model.ASGraph.p2c_edges` is
        version-memoised), so every cold suffix cache over the same
        oracle shares one bulk pass.
        """
        memo = self._starts_memo
        if memo is not None and memo[0] is p2c:
            return memo[1]
        starts = self._suffix_starts(p2c)
        self._starts_memo = (p2c, starts)
        return starts

    def _suffix_starts(self, p2c: Iterable[tuple[int, int]]) -> list[int]:
        """Vectorized suffix starts: encode every adjacent token pair as
        one 64-bit code, test membership against the encoded edge set,
        then locate each path's last non-p2c pair with a searchsorted
        over the non-p2c positions."""
        count = len(self.offsets)
        if count == 0:
            return []
        tokens = self.tokens
        offsets = self.offsets
        pair_counts = self.lengths - 1
        if len(tokens) == count:  # every path is single-hop: no pairs
            return [0] * count
        # pack each adjacent pair into one code; uint64 so 4-byte ASNs
        # (up to 2^32 - 1) cannot overflow the shifted half
        unsigned = tokens.astype(np.uint64)
        codes = (unsigned[:-1] << np.uint64(32)) | unsigned[1:]
        # drop the phantom pairs straddling consecutive paths (the
        # token ending path p next to the token starting path p+1), so
        # what remains is each path's own pairs, concatenated in order
        valid = np.ones(len(codes), dtype=bool)
        valid[offsets[1:] - 1] = False
        codes = codes[valid]
        edges = list(p2c)
        if edges:
            edge_codes = np.fromiter(
                ((left << 32) | right for left, right in edges),
                dtype=np.uint64,
                count=len(edges),
            )
            edge_codes.sort()
            slots = np.searchsorted(edge_codes, codes)
            slots[slots == len(edge_codes)] = 0
            is_p2c = edge_codes[slots] == codes
        else:
            is_p2c = np.zeros(len(codes), dtype=bool)
        # the suffix starts right after the path's last non-p2c pair
        # (at 0 when every pair is p2c); find that pair per path by
        # bisecting each path's pair-range end into the sorted non-p2c
        # positions
        plain = np.flatnonzero(~is_p2c)
        if len(plain) == 0:
            return [0] * count
        ends = np.cumsum(pair_counts)
        begins = ends - pair_counts
        slot = np.searchsorted(plain, ends) - 1
        last = plain[np.maximum(slot, 0)]
        in_range = (slot >= 0) & (last >= begins)
        starts = np.where(in_range, last - begins + 1, 0)
        return starts.tolist()

    def prime_suffix_cache(self, cache: "SuffixCache") -> int:
        """Fill ``cache.table`` for every distinct path in one bulk
        pass; returns how many entries were installed.

        Only applies when the cache's oracle exposes a flat p2c edge
        set (``cache._p2c``); suffix tuples contain plain Python ints,
        so a primed cache is value-identical to one warmed lazily.
        """
        p2c = cache._p2c
        if p2c is None:
            return 0
        starts = self.suffix_starts(p2c)
        table = cache.table
        installed = 0
        token_list = self.token_list()
        for pid, (path, offset, length) in enumerate(zip(
            self.paths, self.offsets.tolist(), self.lengths.tolist()
        )):
            if path in table:
                continue
            table[path] = tuple(token_list[offset + starts[pid]:offset + length])
            installed += 1
        return installed

    # -- grouping ----------------------------------------------------------

    def pair_buckets(self) -> dict[tuple[str, str], Sequence[int]]:
        """Record positions grouped by ``(vp_country, prefix_country)``
        — each bucket ascending, keys in first-appearance order: the
        exact dict :class:`repro.perf.index.PathIndex` builds with its
        full-record scan, computed once here from the id columns and
        shared by every index over this store."""
        if self._pair_buckets is None:
            vp_countries = [country for _, country in self.vp_table]
            prefix_countries = [country for _, country, _ in self.prefix_table]
            names: dict[str, int] = {}
            for code in vp_countries + prefix_countries:
                names.setdefault(code, len(names))
            width = len(names) or 1
            vp_code = np.array([names[c] for c in vp_countries], dtype=np.int64)
            prefix_code = np.array(
                [names[c] for c in prefix_countries], dtype=np.int64
            )
            keys = (
                vp_code[self.record_vp] * width + prefix_code[self.record_prefix]
                if self.record_count else np.zeros(0, dtype=np.int64)
            )
            labels = list(names)
            self._pair_buckets = {
                (labels[key // width], labels[key % width]): bucket
                for key, bucket in self._group(keys).items()
            }
        return self._pair_buckets

    def origin_buckets(self) -> dict[int, Sequence[int]]:
        """Record positions grouped by origin ASN — each bucket in
        ascending position order, keys in first-appearance order —
        exactly the dict a stable per-record scan would build."""
        if self._origin_buckets is None:
            self._origin_buckets = self._group(self.record_origin)
        return self._origin_buckets

    def _group(self, keys: np.ndarray) -> dict[int, Sequence[int]]:
        """Positions grouped by key: a stable argsort keeps each bucket
        ascending, and ordering buckets by their first position restores
        first-appearance key order."""
        if not len(keys):
            return {}
        order = np.argsort(keys, kind="stable")
        boundaries = np.flatnonzero(np.diff(keys[order])) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        groups = sorted(
            zip(order[starts].tolist(), keys[order[starts]].tolist(),
                np.split(order, boundaries)),
        )
        return {key: self._bucket(group) for _, key, group in groups}

    def _bucket(self, positions: np.ndarray) -> Sequence[int]:
        return positions.tolist()
