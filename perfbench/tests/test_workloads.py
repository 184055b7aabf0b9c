"""Tiny passes of every workload: checks, shims and metric names.

Each workload runs at a few-hundred-millisecond size, untraced and
traced over the same epochs; the shims must leave the report bytes
unchanged, and the metrics the harness prints must be exactly the ones
``BENCHMARK.json`` declares.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

PLANNING = {"n1": 25, "b_prc_cents": 700.0}
TINY = {
    "cold_query": dict(PLANNING, n_objects=60, objects_per_request=5),
    "serve_scan": dict(PLANNING, table_objects=80, queries_per_batch=4),
    "serve_durable": dict(PLANNING, table_objects=80, queries_per_batch=4),
    "serve_hot": dict(
        PLANNING,
        table_objects=40,
        arrivals_per_batch=6.0,
        batches_per_epoch=3,
        degrade_depth=4,
    ),
}


#: Epochs giving each tiny run at least eleven latency samples, the
#: fewest with a tail percentile.
EPOCHS = {"cold_query": 12, "serve_scan": 6, "serve_durable": 6, "serve_hot": 4}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def declared(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_benchmark_json_names_every_workload():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_shims_leave_report_bytes_unchanged(name, tmp_path):
    workload = tiny(name)
    epochs = EPOCHS[name]
    untraced = harness.run_pass(
        workload, 5, tmp_path / "plain", keep_digest=True, setups=2, epochs=epochs
    )
    traced = harness.run_pass(
        workload, 5, tmp_path / "traced", traced=True, keep_digest=True, epochs=epochs
    )
    assert untraced.tally.epochs == traced.tally.epochs == epochs
    assert untraced.tally.attempted == traced.tally.attempted > 0
    assert traced.tally.digest == untraced.tally.digest

    e2e, notes = harness.end_to_end(untraced)
    assert {key: unit for key, (_, unit) in e2e.items()} == declared("end_to_end")
    assert all(value > 0 for value, _ in e2e.values())
    assert len(notes["setups_s"]) == 2

    layers, attribution, tree = harness.per_layer(untraced, traced)
    assert {key: unit for key, (_, unit) in layers.items()} == declared("per_layer")
    timed = attribution["timed"]
    assert sum(timed.values()) == pytest.approx(attribution["timed_wall_s"])
    assert all(seconds >= -1e-6 for seconds in timed.values())
    assert tree.count("engine.run") > 0
    if name == "cold_query":
        assert layers["catalog.fresh"][0] == layers["planner.plans"][0] > 0
    else:
        assert layers["catalog.hits"][0] == len(workload.targets)
    if name == "serve_hot":
        assert layers["agg.calls"][0] > 0
        assert layers["admission.degrade"][0] > 0
    if name == "serve_durable":
        assert layers["commit.journal_records"][0] == layers["generate.answers"][0] > 0
        assert layers["commit.checkpoint_bytes"][0] > 0


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        first, second = tiny(name).epochs(3), tiny(name).epochs(3)
        for _ in range(2):
            assert repr(next(first)) == repr(next(second))
    assert repr(next(tiny("serve_scan").epochs(3))) != repr(
        next(tiny("serve_scan").epochs(4))
    )


def test_run_exits_nonzero_without_the_program(tmp_path):
    """A checkout holding only the benchmark has nothing to measure."""
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    for source in (ROOT / "perfbench").glob("*.py"):
        (bare / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
