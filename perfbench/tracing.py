"""Benchmark-side spans around the program's public layer calls.

The program is not changed to be measured: a traced child installs
wrappers (``install``) on the public functions each layer exposes,
then runs the ordinary entry point. Each wrapper records a span with
a name, start, end, parent span and the run's shared request id, and
a current-RSS reading before and after the call.

``RibSeries.records()`` is a lazy generator that the sanitizer
drains, so its work would otherwise be charged to ``core.sanitize``.
The wrapper pulls it in chunks, each chunk under its own
``bgp.rib.records`` span nested in whatever span is draining it; the
drainer's self time then excludes record generation.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
RECORD_CHUNK = 4096


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class Recorder:
    """Spans kept in memory and written out once, at the end."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rss: bool = False) -> "_Span":
        return _Span(self, name, rss)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: str | Path, **extra: object) -> None:
        Path(path).write_text(json.dumps(
            {"request_id": self.request_id, "spans": self.spans,
             "counts": self.counts, **extra},
        ))


class _Span:
    __slots__ = (
        "rec", "name", "rss", "id", "parent", "start", "rss0", "record",
    )

    def __init__(self, rec: Recorder, name: str, rss: bool) -> None:
        self.rec, self.name, self.rss = rec, name, rss

    def __enter__(self) -> "_Span":
        stack = self.rec._stack()
        self.id = next(self.rec._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.rss0 = _rss_mb() if self.rss else 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self.rec._stack().pop()
        record = self.record = {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": end,
            "request_id": self.rec.request_id,
        }
        if self.rss:
            record["rss_delta_mb"] = _rss_mb() - self.rss0
        self.rec.spans.append(record)


def _wrap(
    owner: Any, attr: str, name: str, rec: Recorder, rss: bool = False,
    after: Callable[[dict, Any], None] | None = None,
) -> None:
    """Replace ``owner.attr`` by a spanned call of the original."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    original = raw.__func__ if is_classmethod else raw

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name, rss) as span:
            result = original(*args, **kwargs)
        if after is not None:
            after(span.record, result)
        return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def _chunked(rec: Recorder, inner: Iterator[Any]) -> Iterator[Any]:
    while True:
        with rec.span("bgp.rib.records"):
            chunk = list(itertools.islice(inner, RECORD_CHUNK))
        rec.count("bgp.rib.records", len(chunk))
        if not chunk:
            return
        yield from chunk


def _dir_bytes(path: str | Path) -> int:
    return sum(
        f.stat().st_size for f in Path(path).rglob("*") if f.is_file()
    )


#: program counters a counting tracer keeps; every other instrument
#: it hands out is the program's own no-op one
COUNTED = (
    "perf.suffix.hit", "perf.suffix.miss",
    "propagate.incremental.reused", "propagate.incremental.recomputed",
)


class _CountingMetrics:
    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import NULL_TRACER

        self._real = MetricsRegistry()
        self._null = NULL_TRACER.metrics

    def counter(self, name: str) -> Any:
        return (self._real if name in COUNTED else self._null).counter(name)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._null, attr)

    def counters(self) -> dict[str, int]:
        return self._real.counters()


class CountingTracer:
    """The program's disabled tracer with a few real counters."""

    enabled = False
    capture_memory = False
    spans: tuple = ()
    rss_peaks: dict = {}

    def __init__(self) -> None:
        from repro.obs.trace import NULL_TRACER

        self.metrics = _CountingMetrics()
        self._null = NULL_TRACER

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._null, attr)


def install(rec: Recorder) -> list:
    """Wrap every layer's public entry points; returns the list that
    collects the program tracers the pipeline runs under, for their
    ``perf.suffix.*`` and ``propagate.incremental.*`` counters: the
    daemon's own always-on tracer, or a :class:`CountingTracer` where
    the program would run untraced."""
    import repro.cli
    import repro.core.pipeline as pipeline
    import repro.monitor as monitor
    import repro.perf.spill as spill
    import repro.serve.cli as serve_cli
    from repro.bgp.rib import RibSeries
    from repro.core.ranking import Ranking
    from repro.core.sanitize import PathSet
    from repro.geo.database import GeoDatabase
    from repro.monitor import engine, snapshots
    from repro.serve.service import RankingService

    tracers: list = []

    def origins(span: dict, outcome: Any) -> None:
        rec.count("bgp.propagate.origins", len(outcome.routes))

    def filtered(span: dict, paths: Any) -> None:
        rec.count("core.sanitize.accepted", paths.report.accepted)
        rec.count("core.sanitize.total", paths.report.total)

    def served(span: dict, payload: Any) -> None:
        span["warm"] = payload.get("source") == "store"

    _wrap(pipeline, "propagate_all", "bgp.propagate", rec, after=origins)
    _wrap(pipeline, "generate_rib_days", "bgp.rib.generate", rec, rss=True)
    _wrap(GeoDatabase, "from_world", "geo.geodb", rec)
    _wrap(pipeline, "geolocate_prefixes", "geo.geolocate", rec)
    _wrap(pipeline, "sanitize", "core.sanitize", rec, rss=True, after=filtered)
    _wrap(PathSet, "store", "perf.store_build", rec)
    _wrap(pipeline.PipelineResult, "path_index", "perf.index", rec, rss=True)
    _wrap(pipeline.PipelineResult, "rank_all", "core.rank", rec)
    _wrap(pipeline.PipelineResult, "ranking", "core.ranking", rec)
    _wrap(Ranking, "render", "core.render", rec)
    _wrap(snapshots.SnapshotRef, "load", "monitor.load", rec)
    _wrap(engine, "watch", "monitor.watch", rec)
    monitor.watch = engine.watch
    _wrap(RankingService, "rank", "serve.service.rank", rec, after=served)

    original_spill = spill.sanitize_to_store

    @functools.wraps(original_spill)
    def sanitize_to_store(*args: Any, **kwargs: Any) -> Any:
        with rec.span("perf.spill.ingest", rss=True) as span:
            paths = original_spill(*args, **kwargs)
        filtered(span.record, paths)
        rec.count("perf.spill.bytes", _dir_bytes(kwargs["directory"]))
        return paths

    spill.sanitize_to_store = sanitize_to_store

    original_records = RibSeries.records

    @functools.wraps(original_records)
    def records(self: Any) -> Iterator[Any]:
        return _chunked(rec, original_records(self))

    RibSeries.records = records

    # The CLI runs the pipeline untraced. Hand it a counting tracer:
    # disabled like the program's own null tracer (no spans, no
    # histograms, ``enabled`` False), except that the few counters read
    # here are real, so the program runs its untraced code path.
    original_run = pipeline.run_pipeline

    @functools.wraps(original_run)
    def run_pipeline(world: Any, config: Any = None, tracer: Any = None,
                     **kwargs: Any) -> Any:
        if tracer is None and not (config is not None and config.trace):
            tracer = CountingTracer()
        if tracer is not None and all(known is not tracer for known in tracers):
            tracers.append(tracer)
        return original_run(world, config, tracer, **kwargs)

    for module in (pipeline, repro.cli, serve_cli):
        module.run_pipeline = run_pipeline
    return tracers


def program_counters(tracers: list) -> dict[str, float]:
    """Sum of the counters the program's own tracers recorded."""
    totals: dict[str, float] = {}
    for tracer in tracers:
        for name, value in tracer.metrics.counters().items():
            totals[name] = totals.get(name, 0) + value
    return totals
