"""RIB records as blocks of integer id columns.

The sanitizer and the path store work on columns, not on record
objects. A :class:`RecordBlock` is a run of deduplicated RIB records,
one row per (VP, prefix) record: the ids of its VP, prefix and raw AS
path, its days present and the series length. The ids point into the
entity tables (``vps`` / ``prefixes`` / ``paths``) of the
:class:`RecordBlocks` source that yielded the block.

Two producers exist:

* :meth:`repro.bgp.rib.RibSeries.record_blocks` emits runs of whole VP
  rows straight from the series' propagated-path table (anomaly
  overrides appended to it), without building a record object;
* :meth:`RecordBlocks.of` packs any :class:`RibRecord` stream (MRT
  dumps, hand-built records) into the same blocks, interning VPs,
  prefixes and paths by value in first-appearance order.

Either way the rows come out in input order: a block stream is the
record stream it replaces, row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.bgp.announcement import RibRecord
from repro.bgp.collectors import VantagePoint
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

#: rows per block a producer aims for: large enough that the per-block
#: numpy calls amortize, small enough that a streaming consumer (the
#: spill sink) holds one block at a time
BLOCK_RECORDS = 1 << 16

_COLUMNS = ("vp", "prefix", "path", "days", "total")

#: every block column's dtype: ids and day counts fit 32 bits, which
#: halves a collected record set against int64 columns
ROW = np.int32


def first_seen(ids: dict[Hashable, int], table: list, key: Hashable) -> int:
    """``key``'s id, appending it to ``table`` if it is new (ids count
    up in first-appearance order)."""
    found = ids.get(key)
    if found is None:
        found = ids[key] = len(table)
        table.append(key)
    return found


@dataclass(frozen=True, slots=True)
class RecordBlock:
    """A run of RIB records as aligned int32 columns (read-only)."""

    #: row → id in the source's ``vps``
    vp: np.ndarray
    #: row → id in the source's ``prefixes``
    prefix: np.ndarray
    #: row → id in the source's ``paths`` (the raw, unsanitized path)
    path: np.ndarray
    #: row → daily RIBs the record appeared in
    days: np.ndarray
    #: row → daily RIBs in the series
    total: np.ndarray

    def __len__(self) -> int:
        return len(self.vp)

    def rows(self, start: int, stop: int | None = None) -> "RecordBlock":
        """Rows ``start`` up to ``stop`` (the end when ``None``)."""
        return RecordBlock(*(getattr(self, name)[start:stop] for name in _COLUMNS))

    @classmethod
    def concat(cls, blocks: Sequence["RecordBlock"]) -> "RecordBlock":
        """One block holding ``blocks`` back to back."""
        if len(blocks) == 1:
            return blocks[0]
        return cls(*(
            np.concatenate([getattr(block, name) for block in blocks])
            if blocks else np.zeros(0, dtype=ROW)
            for name in _COLUMNS
        ))


class RecordBlocks:
    """Entity tables plus a one-shot stream of blocks over them.

    The tables may grow while the stream is consumed (an interned
    record stream learns entities as it goes), but every id in a block
    is valid by the time the block is yielded.
    """

    __slots__ = ("vps", "prefixes", "paths", "_blocks")

    def __init__(
        self,
        vps: Sequence[VantagePoint],
        prefixes: Sequence[Prefix],
        paths: Sequence[ASPath],
        blocks: Iterable[RecordBlock],
    ) -> None:
        self.vps = vps
        self.prefixes = prefixes
        self.paths = paths
        self._blocks = iter(blocks)

    def __iter__(self) -> Iterator[RecordBlock]:
        return self._blocks

    def collect(self) -> RecordBlock:
        """Drain the stream into one block."""
        return RecordBlock.concat(list(self._blocks))

    def record(self, block: RecordBlock, row: int) -> RibRecord:
        """Row ``row`` of ``block`` as the record object it stands for."""
        return RibRecord(
            vp=self.vps[int(block.vp[row])],
            prefix=self.prefixes[int(block.prefix[row])],
            path=self.paths[int(block.path[row])],
            days_present=int(block.days[row]),
            total_days=int(block.total[row]),
        )

    @classmethod
    def of(
        cls,
        records: "Iterable[RibRecord] | RecordBlocks",
        block_records: int = BLOCK_RECORDS,
    ) -> "RecordBlocks":
        """``records`` as blocks: a block source passes through; a record
        stream is packed into blocks of ``block_records`` rows, lazily —
        nothing is read until the first block is pulled."""
        if isinstance(records, RecordBlocks):
            return records
        source = cls([], [], [], ())
        source._blocks = source._intern(iter(records), block_records)
        return source

    def _intern(
        self, records: Iterator[RibRecord], block_records: int
    ) -> Iterator[RecordBlock]:
        tables = (self.vps, self.prefixes, self.paths)
        ids: tuple[dict, dict, dict] = ({}, {}, {})
        while True:
            rows: list[int] = []
            for record in islice(records, block_records):
                rows += (
                    first_seen(ids[0], tables[0], record.vp),  # type: ignore[arg-type]
                    first_seen(ids[1], tables[1], record.prefix),  # type: ignore[arg-type]
                    first_seen(ids[2], tables[2], record.path),  # type: ignore[arg-type]
                    record.days_present, record.total_days,
                )
            if not rows:
                return
            columns = np.array(rows, dtype=ROW).reshape(-1, len(_COLUMNS))
            yield RecordBlock(*columns.T.copy())
