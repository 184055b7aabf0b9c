"""Byte pins for the serial wave path.

Two fixed serving configurations are hashed end to end: the report
(minus its wall-clock field), the ledger, the write-ahead journal and
the wave checkpoint.  The digests are committed constants, so any
change to how a wave generates, commits, journals, checkpoints or
evaluates — a reordered charge, a different float accumulation, a new
journal field — shows up here even when every statistical test still
passes.
"""

import hashlib
import json

import pytest

from repro.agg import ReliabilityModel, make_aggregator
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.faults import FaultProfile
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.serve import QueryRequest, ServeEngine
from repro.serve.engine import SERVE_CHECKPOINT, SERVE_JOURNAL

#: sha256 of the canonical digest document for each configuration.
PINNED = {
    "fault_free_uniform": (
        "925087eab6d36b3dce8f817248e38347c9e11e14559483b0f4971ba3672730fb"
    ),
    "faulted_reliability": (
        "de43bfa746aad50b798fb5ad3a277d4cf1c0fb634ecb50ad7ba96bb402461482"
    ),
}


def _plans() -> list[PreprocessingPlan]:
    """A two-term plan for ``target`` and a one-term plan for ``helper``."""
    target_budget = BudgetDistribution({"target": 3, "helper": 2})
    target_plan = PreprocessingPlan(
        query=Query.single("target"),
        attributes=("target", "helper"),
        budget=target_budget,
        formulas={
            "target": EstimationFormula(
                "target", {"target": 0.7, "helper": 0.25}, 0.1, target_budget
            )
        },
    )
    helper_budget = BudgetDistribution({"helper": 4})
    helper_plan = PreprocessingPlan(
        query=Query.single("helper"),
        attributes=("helper",),
        budget=helper_budget,
        formulas={
            "helper": EstimationFormula("helper", {"helper": 1.0}, 0.0, helper_budget)
        },
    )
    return [target_plan, helper_plan]


def _requests() -> list[tuple[QueryRequest, int]]:
    """Overlapping queries: ``(request, plan index)``."""
    return [
        (QueryRequest("q1", ("target",), tuple(range(0, 10))), 0),
        (QueryRequest("q2", ("helper",), tuple(range(5, 15))), 1),
        (QueryRequest("q3", ("target",), tuple(range(8, 20))), 0),
        (QueryRequest("q4", ("helper",), tuple(range(0, 6))), 1),
        (QueryRequest("q5", ("target",), tuple(range(14, 22))), 0),
    ]


def _digest(domain, directory, **engine_kwargs) -> str:
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    plans = _plans()
    with ServeEngine(
        platform, wave_size=2, checkpoint_dir=directory, **engine_kwargs
    ) as engine:
        for request, plan_index in _requests():
            engine.submit(request, plans[plan_index])
        report = engine.run()
    payload = report.to_dict()
    payload.pop("wall_seconds")
    # Reports from the thread-pool era also carried ``workers``; leaving
    # it out keeps the pins valid on both sides of its removal.
    payload.pop("workers", None)
    document = {
        "report": payload,
        "ledger": platform.ledger.snapshot(),
        "journal": (directory / SERVE_JOURNAL).read_text(),
        "checkpoint": (directory / SERVE_CHECKPOINT).read_text(),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.serve
class TestServeBytePin:
    def test_fault_free_uniform(self, tiny_domain, tmp_path):
        digest = _digest(tiny_domain, tmp_path)
        assert digest == PINNED["fault_free_uniform"]

    def test_faulted_reliability_with_checkpoints(self, tiny_domain, tmp_path):
        digest = _digest(
            tiny_domain,
            tmp_path,
            faults=FaultProfile.uniform(0.08),
            aggregator=make_aggregator("reliability", model=ReliabilityModel()),
        )
        assert digest == PINNED["faulted_reliability"]
