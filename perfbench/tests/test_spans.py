"""Span recording, tree building and self-time arithmetic."""

import json

import pytest

from perfbench.spans import (
    UNATTRIBUTED,
    SpanRecorder,
    SpanTree,
    flatten_tracer,
    merge_program_spans,
    parent_indices,
    self_times,
)
from repro.obs import Observability


def ordered(spans):
    return sorted(spans, key=lambda span: (span[1], -span[2]))


def test_self_time_subtracts_direct_children_only():
    spans = ordered(
        [
            ("request", 0.0, 10.0, 1),
            ("engine.run", 1.0, 9.0, 1),
            ("serve.evaluate", 2.0, 6.0, 1),
            ("aggregate", 3.0, 4.0, 1),
            ("aggregate", 4.5, 5.0, 1),
            ("cache.add", 7.0, 8.0, 1),
        ]
    )
    parents = parent_indices(spans)
    names = [span[0] for span in spans]
    assert [names[p] if p >= 0 else None for p in parents] == [
        None,
        "request",
        "engine.run",
        "serve.evaluate",
        "serve.evaluate",
        "engine.run",
    ]
    selfs = dict(zip(names, self_times(spans, parents)))
    assert selfs["request"] == pytest.approx(2.0)
    assert selfs["engine.run"] == pytest.approx(3.0)  # 8 - 4 - 1
    assert selfs["serve.evaluate"] == pytest.approx(2.5)  # 4 - 1 - 0.5
    assert selfs["cache.add"] == pytest.approx(1.0)


def test_layers_partition_the_wall():
    spans = ordered(
        [
            ("timed", 0.0, 10.0, -1),
            ("request", 0.5, 9.5, 1),
            ("engine.run", 1.0, 9.0, 1),
            ("serve.purchase", 1.5, 5.0, 1),
            ("answers_many", 2.0, 3.0, 1),
            ("charge_values", 3.0, 3.5, 1),
            ("helper", 4.0, 4.5, 1),  # unknown: inherits engine
            ("serve.evaluate", 5.0, 8.0, 1),
            ("aggregate", 6.0, 7.0, 1),
        ]
    )
    tree = SpanTree(spans)
    layers = tree.layer_self()
    assert layers["generate"] == pytest.approx(1.0)
    assert layers["commit"] == pytest.approx(0.5)
    assert layers["agg"] == pytest.approx(1.0)
    assert layers["evaluate"] == pytest.approx(2.0)
    assert layers["engine"] == pytest.approx(8.0 - 1.0 - 0.5 - 3.0 - 0.0)
    assert layers[UNATTRIBUTED] == pytest.approx(2.0)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert tree.total("engine.run") == pytest.approx(8.0)
    assert tree.self_total("serve.evaluate") == pytest.approx(2.0)
    assert tree.count("aggregate", "answers_many") == 2
    assert tree.self_total("absent") == 0.0


def test_layer_self_can_be_limited_to_one_root():
    spans = ordered(
        [
            ("setup", 0.0, 2.0, -1),
            ("planner", 0.5, 1.5, -1),
            ("timed", 3.0, 5.0, -1),
            ("planner", 3.5, 4.0, -1),
        ]
    )
    tree = SpanTree(spans)
    assert tree.layer_self("setup")["planner"] == pytest.approx(1.0)
    assert tree.layer_self("timed")["planner"] == pytest.approx(0.5)
    assert tree.layer_self("timed")[UNATTRIBUTED] == pytest.approx(1.5)


def test_partial_overlap_is_refused():
    with pytest.raises(ValueError):
        parent_indices(ordered([("a", 0.0, 2.0, -1), ("b", 1.0, 3.0, -1)]))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Thing:
    def work(self, value):
        return value * 2


def test_wrap_times_calls_and_keeps_results():
    recorder = SpanRecorder(clock=FakeClock())
    thing = Thing()
    recorder.wrap(thing, "work", "work")
    recorder.wrap(thing, "work", "work")  # a second wrap is a no-op
    recorder.request = 7
    with recorder.span("request"):
        assert thing.work(21) == 42
    assert recorder.records() == [
        ("request", 1.0, 4.0, 7),
        ("work", 2.0, 3.0, 7),
    ]
    assert list(recorder.parents) == [-1, 0]
    other = Thing()
    recorder.wrap(other, "work", "other")  # each new instance is timed
    assert other.work(1) == 2
    assert [record[0] for record in recorder.records()][-1] == "other"
    assert "work" not in vars(Thing())  # only instances were wrapped


def test_program_spans_merge_by_containment(tmp_path):
    obs = Observability.collecting()
    recorder = SpanRecorder()
    recorder.request = 3

    def planner():
        with obs.tracer.span("preprocess"):
            with obs.tracer.span("dismantle"):
                pass

    with recorder.span("setup"):
        recorder.timed(planner, "planner")()
    tree = SpanTree(
        merge_program_spans(recorder.records(), flatten_tracer(obs.tracer))
    )
    names = [span[0] for span in tree.spans]
    assert names == ["setup", "planner", "preprocess", "dismantle"]
    assert tree.parents == [-1, 0, 1, 2]
    assert tree.layers == [UNATTRIBUTED, "planner", "planner", "planner"]

    path = tmp_path / "trace.json"
    tree.write_chrome_trace(path, {"workload": "test"})
    document = json.loads(path.read_text())
    events = document["traceEvents"]
    assert [event["name"] for event in events] == names
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
    # Program spans inherit the request id of their recorded ancestor.
    assert [event["args"]["request"] for event in events] == [3, 3, 3, 3]
    assert document["otherData"] == {"workload": "test"}
