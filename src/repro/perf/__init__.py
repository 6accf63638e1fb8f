"""repro.perf — the batch ranking engine under the pipeline.

Four modules, designed to compose (see DESIGN.md §4):

* :mod:`repro.perf.index` — :class:`PathIndex` buckets sanitized
  records so views are O(selected) lookups; :class:`ViewSlicer` does
  the same for VP-downsampled trial views.
* :mod:`repro.perf.cache` — :class:`SuffixCache` and
  :class:`ViewComputation` memoise the intermediates the metric
  families share (transit suffixes, cones, per-VP betweenness, address
  totals), with hit/miss observability counters.
* :mod:`repro.perf.pathstore` — :class:`PathStore`, the
  structure-of-arrays mirror of the sanitized records (flat interned
  token arrays) feeding the suffix bulk-prime and the index's origin
  buckets.
* :mod:`repro.perf.spill` — the out-of-core variant:
  :class:`MmapPathStore` maps the same columns read-only from disk
  (written append-only by streaming ingestion), so worlds far larger
  than RAM rank with bounded RSS and byte-identical results.

The pipeline (:class:`repro.core.pipeline.PipelineResult`) wires them
together; ``rank_all`` / ``repro-rank sweep`` are the batch entry
points.
"""

from repro.perf.cache import SuffixCache, ViewComputation
from repro.perf.index import PathIndex, ViewSlicer
from repro.perf.pathstore import PathStore
from repro.perf.spill import MmapPathStore, open_spill, sanitize_to_store

__all__ = [
    "MmapPathStore",
    "PathIndex",
    "PathStore",
    "SuffixCache",
    "ViewComputation",
    "ViewSlicer",
    "open_spill",
    "sanitize_to_store",
]
