"""Tracer semantics: nesting, exception safety, disabled mode, and
determinism of everything except timestamps."""

import pytest

from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Tracer


def by_name(tracer, name):
    records = tracer.find(name)
    assert records, f"no span named {name!r}"
    return records[0]


class TestNesting:
    def test_parent_linkage(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        outer = by_name(tracer, "outer")
        inner = by_name(tracer, "inner")
        sibling = by_name(tracer, "sibling")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id

    def test_completion_order_and_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        # Children close first, but ids reflect start order.
        assert [r.name for r in tracer.spans] == ["b", "a"]
        assert by_name(tracer, "a").span_id < by_name(tracer, "b").span_id

    def test_new_roots_after_close(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert all(r.parent_id is None for r in tracer.spans)

    def test_attrs_via_constructor_and_set(self):
        tracer = Tracer()
        with tracer.span("stage", input=10) as span:
            span.set(output=7)
        record = by_name(tracer, "stage")
        assert record.attrs == {"input": 10, "output": 7}


class TestExceptionSafety:
    def test_raising_span_still_records(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed", input=3):
                raise RuntimeError("boom")
        record = by_name(tracer, "doomed")
        assert record.attrs["error"] == "RuntimeError"
        assert record.error
        assert record.dur_s >= 0.0

    def test_nested_exception_closes_both(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert {r.name for r in tracer.spans} == {"outer", "inner"}
        assert by_name(tracer, "inner").attrs["error"] == "ValueError"
        assert by_name(tracer, "outer").attrs["error"] == "ValueError"

    def test_tracer_usable_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError
        with tracer.span("good"):
            pass
        good = by_name(tracer, "good")
        assert good.parent_id is None
        assert not good.error


class TestDisabledMode:
    def test_null_span_is_shared_singleton(self):
        first = NULL_TRACER.span("anything", volume=1)
        second = NULL_TRACER.span("other")
        assert first is second is NULL_SPAN

    def test_null_span_context_and_set(self):
        with NULL_TRACER.span("x") as span:
            assert span.set(output=1) is span
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.stage_names() == []
        assert NULL_TRACER.find("x") == []

    def test_null_does_not_swallow_exceptions(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("x"):
                raise KeyError("boom")

    def test_null_metrics_are_inert(self):
        NULL_TRACER.metrics.counter("a").inc(5)
        NULL_TRACER.metrics.gauge("b").set(2.0)
        NULL_TRACER.metrics.histogram("c").observe(1.0)
        assert NULL_TRACER.metrics.snapshot() == {}

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NullTracer().enabled is False


def _instrumented_run(tracer, seed):
    with tracer.span("root", seed=seed):
        for index in range(3):
            with tracer.span("step", index=index) as span:
                span.set(output=index * seed)
                tracer.metrics.counter("steps").inc()
                tracer.metrics.histogram("sizes").observe(index)


class TestDeterminism:
    def test_everything_but_timing_is_stable(self):
        first, second = Tracer(), Tracer()
        _instrumented_run(first, seed=7)
        _instrumented_run(second, seed=7)

        def shape(tracer):
            return [
                (r.span_id, r.parent_id, r.name, tuple(sorted(r.attrs.items())))
                for r in tracer.spans
            ]

        assert shape(first) == shape(second)
        assert first.metrics.snapshot() == second.metrics.snapshot()
        assert first.stage_names() == second.stage_names()


class TestMemoryCapture:
    def test_peak_recorded(self):
        tracer = Tracer(capture_memory=True)
        try:
            with tracer.span("alloc"):
                blob = [0] * 100_000
                del blob
            record = by_name(tracer, "alloc")
            assert isinstance(record.mem_peak, int)
            assert record.mem_peak > 0
        finally:
            tracer.close()

    def test_disabled_capture_leaves_none(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        assert by_name(tracer, "x").mem_peak is None


class TestPipelineStages:
    def test_record_generation_is_its_own_stage(self):
        """Draining the RIB records is charged to ``ribs.records``, a
        sibling of ``sanitize`` that the sanitize span does not cover."""
        from repro.core.pipeline import PipelineConfig, run_pipeline
        from repro.topology.catalog import build_world

        tracer = Tracer()
        run_pipeline(build_world("small", 0), PipelineConfig(), tracer)
        (records,) = tracer.find("ribs.records")
        (sanitize,) = tracer.find("sanitize")
        assert records.parent_id == sanitize.parent_id is not None
        assert records.attrs["records"] > 0
        assert records.start_s + records.dur_s <= sanitize.start_s
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.find("ribs.records"):
            parent = span.parent_id
            while parent is not None:
                assert by_id[parent].name != "sanitize"
                parent = by_id[parent].parent_id
