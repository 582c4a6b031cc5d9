"""Span arithmetic on synthetic spans, and span files from forked children."""

import multiprocessing
import os

import pytest

from perfbench import layers
from perfbench.tracing import Span, Tracer, merge_dir, outermost, self_times, union_length


def span(sid, parent, name, start, end, pid=1):
    return Span(sid, parent, name, start, end, 0, pid)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(1, 3), (2, 5), (7, 8)], 2.5, 7.5) == 3
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, None, "op", 0.0, 10.0),
        span(2, 1, "store.put", 1.0, 3.0),
        span(3, 1, "store.put", 2.0, 5.0),  # overlaps its sibling
        span(4, 1, "solve.dense", 7.0, 8.0),
        span(5, 2, "store.fsync", 1.5, 2.5),  # a grandchild
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)
    # siblings 2 and 3 overlap by 1 s, which each of them counts as self time
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)


def test_outermost_counts_nested_calls_of_a_layer_once():
    spans = [
        span(1, None, "core.model_b", 0.0, 4.0),
        span(2, 1, "solve.sparse", 0.5, 1.0),
        span(3, 2, "core.model_b", 0.6, 0.9),
        span(4, None, "core.model_b", 5.0, 6.0),
    ]
    assert [s.sid for s in outermost(spans, {"core.model_b"})] == [1, 4]
    metrics = layers.op_metrics(spans, op_wall=6.0)
    assert metrics["core.model_b.busy_s"] == pytest.approx(5.0)
    assert metrics["solve.sparse.calls"] == 1


def test_wrapper_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "store.get")()
    (recorded,) = tracer.spans
    assert recorded.name == "store.get" and recorded.attrs is None
    assert tracer._stack == []


def _forked_rank(tracer, rank):
    def worker(rank):
        tracer.wrap(lambda: None, "store.put_point")()
        raise SystemExit(0)  # fleet workers report through their exit code

    layers._rank_main(tracer, worker)(rank)


def test_span_files_from_forked_children_merge(tmp_path):
    tracer = Tracer()
    tracer.flush_dir = tmp_path
    tracer.op = 7
    ctx = multiprocessing.get_context("fork")
    with tracer.span("op"):
        procs = [ctx.Process(target=_forked_rank, args=(tracer, r)) for r in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(30)
    assert [p.exitcode for p in procs] == [0, 0]
    (op_span,) = tracer.spans
    headers, spans = merge_dir(tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert sorted(h["rank"] for h in headers) == [0, 1]
    ranks = {s.pid: s for s in spans if s.name == "fleet.rank"}
    assert set(ranks) == {h["pid"] for h in headers} and os.getpid() not in ranks
    for s in spans:
        assert s.op == 7
        if s.name == "fleet.rank":
            assert s.parent == op_span.sid  # opened by the parent before the fork
        else:
            assert s.parent == ranks[s.pid].sid
    assert len({s.sid for s in spans + [op_span]}) == len(spans) + 1
    metrics = layers.op_metrics(spans + [op_span], op_span.duration)
    assert metrics["store.put_point.calls"] == 2
    assert 0.0 <= metrics["fleet.rank_wait_s"] <= metrics["fleet.rank_wall_max_s"]
