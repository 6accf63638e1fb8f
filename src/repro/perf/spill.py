"""Out-of-core PathStore: append-only spill files + an mmap-backed store.

The catalog's ``large`` tier has millions of sanitized records, more
than the in-memory :class:`repro.perf.pathstore.PathStore` should hold.
This module keeps the same columns on disk instead:

* :class:`SpillWriter` is the store's own
  :class:`~repro.perf.pathstore.ColumnBuilder`, with its buffers
  flushed to flat native-endian int64 column files (one per
  ``pathstore.COLUMNS`` entry) plus two JSONL side tables
  (``vps.jsonl``, ``prefixes.jsonl``); the same builder means the same
  columns as the in-memory backend, value for value.
* :class:`MmapPathStore` maps them back read-only behind the exact
  ``PathStore`` interface (it is a subclass), with lazy records and
  ``array('q')`` buckets.
* :func:`sanitize_to_store` drives the Table-1 judge block by block
  into a spill directory — :func:`repro.core.sanitize.sanitize` for
  ``store_backend="mmap"``, holding one block, never the record set.

Crash safety: after a block that brings ``flush_every`` or more
accepted records since the last checkpoint, the writer flushes and
atomically rewrites ``progress.json``. A resume cuts every file back to
that checkpoint and replays the consumed input (the stream is
seed-deterministic) through the judge and the builder without writing
it, which rebuilds the interning and the Table-1 report; the sealed
result is byte-identical to an uninterrupted run. ``manifest.json``
marks a sealed, complete spill.
"""

from __future__ import annotations

import json
import os
from array import array as _stdlib_array
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.bgp.announcement import RibRecord
from repro.bgp.collectors import VantagePoint
from repro.bgp.records import BLOCK_RECORDS, RecordBlocks
from repro.core.sanitize import (
    REJECT_CATEGORIES,
    FilterReport,
    Judge,
    PathRecord,
    PathSet,
    observe,
)
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.perf.pathstore import (
    COLUMNS,
    ColumnBuilder,
    EntityTables,
    PathStore,
    RecordView,
)

if TYPE_CHECKING:
    from repro.geo.prefix_geo import PrefixGeolocation
    from repro.geo.vp_geo import VPGeolocator
    from repro.resilience.quarantine import Quarantine

FORMAT_NAME = "repro-spill"
FORMAT_VERSION = 1


class SpillFormatError(ValueError):
    """Raised for a malformed, torn, or incompatible spill directory."""


def _column_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.i64"


def _map_column(path: Path) -> np.ndarray:
    """One column file as a read-only int64 array."""
    size = path.stat().st_size
    if size % 8:
        raise SpillFormatError(f"{path}: size {size} is not a whole int64 column")
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r")


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _write_jsonl(path: Path, rows: list[dict], mode: str) -> None:
    with open(path, mode, encoding="utf-8") as handle:
        handle.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _column_counts(counts: dict) -> dict[str, int]:
    """Element count per column file, from checkpoint/manifest counts."""
    return {
        name: counts["tokens"] if name == "tokens" else counts["paths"]
        if name in ("offsets", "lengths") else counts["records"]
        for name in COLUMNS
    }


def _report_payload(report: FilterReport) -> dict:
    return {
        "total": report.total,
        "accepted": report.accepted,
        "rejected": dict(report.rejected),
    }


def _restore_report(report: FilterReport, payload: dict) -> None:
    report.total = int(payload["total"])
    report.accepted = int(payload["accepted"])
    for category in REJECT_CATEGORIES:
        report.rejected[category] = int(payload["rejected"].get(category, 0))


class SpillWriter(ColumnBuilder):
    """The store's column builder, flushing into one spill directory.

    Feed it each judged block's accepted rows via :meth:`add`, then call
    :meth:`maybe_checkpoint` (it flushes and persists progress once
    ``flush_every`` records have accumulated since the last checkpoint)
    and :meth:`seal` when the input is exhausted. :meth:`prepare` cuts a
    torn directory back to its last checkpoint; the caller then replays
    the input that checkpoint consumed through :meth:`add` and calls
    :meth:`replayed`, which rebuilds the interning without rewriting.
    """

    def __init__(
        self, tables: EntityTables, directory: str | Path, flush_every: int = 200_000
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        super().__init__(tables)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self._checkpointed = 0

    # -- lifecycle ---------------------------------------------------------

    def sealed(self) -> bool:
        """Whether the directory already holds a complete spill."""
        return (self.directory / "manifest.json").exists()

    def prepare(self, resume: bool = True) -> dict:
        """Make the directory consistent: its last checkpoint's counts,
        with every file cut back to them (``consumed`` is the number of
        *input* records that checkpoint covered; 0 when starting over,
        which ``resume=False`` forces)."""
        if self.sealed() and resume:
            raise SpillFormatError(f"{self.directory}: spill already sealed")
        progress_path = self.directory / "progress.json"
        if not resume or not progress_path.exists():
            for stem in ("manifest.json", "progress.json"):
                (self.directory / stem).unlink(missing_ok=True)
            for name in COLUMNS:
                _column_path(self.directory, name).write_bytes(b"")
            for stem in ("vps.jsonl", "prefixes.jsonl"):
                (self.directory / stem).write_text("", encoding="utf-8")
            return {"consumed": 0}
        progress = json.loads(progress_path.read_text(encoding="utf-8"))
        for name, count in _column_counts(progress).items():
            path = _column_path(self.directory, name)
            if not path.exists() or path.stat().st_size < count * 8:
                raise SpillFormatError(f"{path}: shorter than its last checkpoint")
            os.truncate(path, count * 8)
        for stem, keep in (("vps.jsonl", progress["vps"]),
                           ("prefixes.jsonl", progress["prefixes"])):
            rows = _read_jsonl(self.directory / stem)[:keep]
            if len(rows) < keep:
                raise SpillFormatError(f"{stem}: shorter than its last checkpoint")
            _write_jsonl(self.directory / stem, rows, "w")
        return progress

    def replayed(self, progress: dict) -> None:
        """Drop the rows a replay of the consumed input re-added (the
        directory holds them already), after checking they rebuilt
        exactly the checkpoint's counts."""
        counts = self._counts()
        if any(counts[key] != progress[key] for key in counts):
            raise SpillFormatError(
                f"{self.directory}: the replayed input does not match the checkpoint"
            )
        self._drop()
        self._checkpointed = self.records

    # -- checkpoints -------------------------------------------------------

    def maybe_checkpoint(self, consumed: int, report: FilterReport) -> bool:
        """Checkpoint when the flush cadence is due; returns whether it did."""
        if self.records - self._checkpointed < self.flush_every:
            return False
        self.checkpoint(consumed, report)
        return True

    def checkpoint(self, consumed: int, report: FilterReport) -> None:
        """Flush every buffer, then atomically persist progress."""
        self._flush()
        self._checkpointed = self.records
        self._write_atomic("progress.json", {
            "consumed": consumed, "report": _report_payload(report),
            **self._counts(),
        })

    def seal(self, consumed: int, report: FilterReport) -> None:
        """Final checkpoint plus the manifest that marks completion."""
        self.checkpoint(consumed, report)
        self._write_atomic("manifest.json", {
            "format": FORMAT_NAME, "version": FORMAT_VERSION,
            "report": _report_payload(report), **self._counts(),
        })

    def _counts(self) -> dict[str, int]:
        return {
            "records": self.records,
            "paths": self._paths.count,
            "tokens": self.tokens,
            "vps": self._vps.count,
            "prefixes": self._prefixes.count,
        }

    def _flush(self) -> None:
        for name, chunks in self.buffers.items():
            with open(_column_path(self.directory, name), "ab") as handle:
                for chunk in chunks:
                    handle.write(chunk.astype(np.int64, copy=False).tobytes())
        _write_jsonl(self.directory / "vps.jsonl", [
            {"ip": vp.ip, "asn": vp.asn, "collector": vp.collector,
             "country": country}
            for vp, country in self.pending_vps
        ], "a")
        _write_jsonl(self.directory / "prefixes.jsonl", [
            {"prefix": str(prefix), "country": country, "addresses": addresses}
            for prefix, country, addresses in self.pending_prefixes
        ], "a")
        self._drop()

    def _drop(self) -> None:
        """Forget the buffered rows (they are on disk)."""
        for chunks in self.buffers.values():
            chunks.clear()
        self.pending_paths.clear()
        self.pending_vps.clear()
        self.pending_prefixes.clear()

    def _write_atomic(self, stem: str, payload: dict) -> None:
        tmp = self.directory / (stem + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.directory / stem)


class MmapPathStore(PathStore):
    """A sealed spill directory mapped read-only behind the PathStore
    interface.

    The flat columns are the mmap'd files themselves; the distinct-path
    tuple and the pair/origin buckets are built lazily on first use
    (bounded by distinct entities, never by raw record volume), and the
    records are a lazy view. Pickling reduces to the directory path, so
    a worker re-opens the maps instead of receiving copied array pages.
    """

    __slots__ = ("directory", "manifest")

    def __init__(self, directory: str | Path) -> None:
        base = Path(directory)
        manifest_path = base / "manifest.json"
        if not manifest_path.exists():
            raise SpillFormatError(f"{base}: no manifest (spill not sealed)")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if (
            manifest.get("format") != FORMAT_NAME
            or manifest.get("version") != FORMAT_VERSION
        ):
            raise SpillFormatError(f"{base}: not a {FORMAT_NAME} v{FORMAT_VERSION} spill")
        self.directory = str(base)
        self.manifest = manifest
        columns = {name: _map_column(_column_path(base, name)) for name in COLUMNS}
        for name, wanted in _column_counts(manifest).items():
            if len(columns[name]) != wanted:
                raise SpillFormatError(
                    f"{base}/{name}.i64: {len(columns[name])} elements, "
                    f"manifest says {wanted}"
                )
        vp_table = [
            (VantagePoint(row["ip"], int(row["asn"]), row["collector"]), row["country"])
            for row in _read_jsonl(base / "vps.jsonl")
        ]
        prefix_table = [
            (Prefix.parse(row["prefix"]), row["country"], row["addresses"])
            for row in _read_jsonl(base / "prefixes.jsonl")
        ]
        super().__init__(
            columns, None, vp_table, prefix_table, RecordView(self, self._record)
        )

    def _record(self, at: int) -> PathRecord:
        """The record at position ``at``, rebuilt from the columns (one
        VP / prefix / path object per id, so equal rows share them)."""
        vp, vp_country = self.vp_table[self.record_vp[at]]
        prefix, prefix_country, addresses = self.prefix_table[self.record_prefix[at]]
        return PathRecord(
            vp, vp_country, prefix, prefix_country,
            self.paths[self.record_path[at]], addresses,
        )

    def _bucket(self, positions: np.ndarray) -> Sequence[int]:
        bucket = _stdlib_array("q")
        bucket.frombytes(positions.astype(np.int64, copy=False).tobytes())
        return bucket


def open_spill(directory: str | Path, report: FilterReport | None = None) -> PathSet:
    """A sealed spill as a lazy :class:`PathSet`; without ``report``,
    the counts come from the manifest (rejection samples are not
    persisted)."""
    store = MmapPathStore(directory)
    if report is None:
        report = FilterReport()
        _restore_report(report, store.manifest["report"])
    path_set = PathSet(records=store.records, report=report)
    path_set._store = store
    return path_set


def sanitize_to_store(
    records: "Iterable[RibRecord] | RecordBlocks",
    *,
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: "VPGeolocator",
    prefix_geo: "PrefixGeolocation",
    directory: str | Path,
    tracer: AnyTracer = NULL_TRACER,
    flush_every: int = 200_000,
    resume: bool = True,
) -> PathSet:
    """:func:`repro.core.sanitize.sanitize`, spilled instead of held.

    Runs the same judge (same span, same counters, same report) block by
    block and appends each block's accepted rows to ``directory``, then
    hands back a :class:`PathSet` over the mapped columns, so peak
    memory is bounded by distinct entities plus one block. The blocks
    are generated as the judge pulls them, inside the ``sanitize``
    span. A record stream is interned in blocks of at most
    ``flush_every`` records, so checkpoints keep their cadence.

    ``resume=True`` (default) continues a torn previous ingestion from
    its last checkpoint — the caller must pass the same deterministic
    input stream — and returns the already-sealed result immediately
    when the directory is complete.
    """
    source = RecordBlocks.of(records, min(flush_every, BLOCK_RECORDS))
    with tracer.span("sanitize") as span:
        judge = Judge(source, clique, is_allocated, route_servers, vp_geo, prefix_geo)
        writer = SpillWriter(judge, directory, flush_every=flush_every)
        if resume and writer.sealed():
            path_set = open_spill(directory)
        else:
            report = FilterReport()
            progress = writer.prepare(resume)
            consumed, done = progress["consumed"], 0
            for block in source:
                if done < consumed:  # rows the directory already holds
                    head = block.rows(0, consumed - done)
                    writer.add(*judge.judge(head, report))
                    done += len(head)
                    if done < consumed:
                        continue
                    writer.replayed(progress)
                    block = block.rows(len(head))
                writer.add(*judge.judge(block, report))
                done += len(block)
                writer.maybe_checkpoint(done, report)
            if done < consumed:
                raise SpillFormatError(f"{directory}: input ends before its checkpoint")
            writer.seal(done, report)
            path_set = open_spill(directory, report)
        observe(tracer, span, path_set)
    return path_set


def store_from_dumps(
    dump_paths: Iterable[str | Path],
    *,
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: "VPGeolocator",
    prefix_geo: "PrefixGeolocation",
    directory: str | Path,
    window: int = 50_000,
    strict: bool = False,
    quarantine: "Quarantine | None" = None,
    tracer: AnyTracer = NULL_TRACER,
    flush_every: int = 200_000,
) -> PathSet:
    """Windowed MRT ingestion into a spill store.

    Streams each dump through
    :func:`repro.io.mrt.load_rib_windows` (bounded batches; lenient
    lines land in ``quarantine`` and the ``io.quarantine.*`` counters)
    and sanitizes straight into ``directory`` — no materialized
    announcement list or :class:`PathSet` at any point. Each dump is
    treated as a self-contained single-day RIB (``days_present =
    total_days = 1``), so the multi-day "unstable" filter does not
    apply to file ingestion; day merging stays upstream in
    :class:`~repro.bgp.rib.RibSeries`.
    """
    from repro.io.mrt import load_rib_windows

    def stream() -> Iterator[RibRecord]:
        for path in dump_paths:
            for batch in load_rib_windows(
                path, window=window, strict=strict,
                quarantine=quarantine, tracer=tracer,
            ):
                for announcement in batch:
                    yield RibRecord(
                        vp=announcement.vp,
                        prefix=announcement.prefix,
                        path=announcement.path,
                        days_present=1,
                        total_days=1,
                    )

    return sanitize_to_store(
        stream(),
        clique=clique, is_allocated=is_allocated,
        route_servers=route_servers, vp_geo=vp_geo, prefix_geo=prefix_geo,
        directory=directory, tracer=tracer, flush_every=flush_every,
    )
