"""Unit tests for the admission layer (DESIGN.md §15).

Covers the policy ladder's arithmetic, validation, the synchronous
front door's depth accounting, rejected results landing in the report,
and cache-only degradation carrying the ``"admission"`` reason.
"""

import pytest

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.errors import ConfigurationError
from repro.serve import (
    DECISIONS,
    AdmissionPolicy,
    QueryRequest,
    ServeEngine,
    admit_and_serve,
)


def identity_plan(target: str, n_questions: int = 4) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


def make_engine(domain, **kwargs) -> tuple[ServeEngine, CrowdPlatform]:
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    return ServeEngine(platform, **kwargs), platform


class TestAdmissionPolicy:
    def test_defaults_admit_at_low_depth(self):
        policy = AdmissionPolicy()
        assert policy.decide(0) == "admit"
        assert policy.decide(policy.degrade_depth - 1) == "admit"

    def test_ladder_rungs(self):
        policy = AdmissionPolicy(
            reject_depth=8, degrade_depth=4, min_headroom_s=2.0
        )
        assert policy.decide(0) == "admit"
        assert policy.decide(4) == "degrade"  # depth pressure
        assert policy.decide(8) == "reject"  # hard ceiling
        assert policy.decide(100) == "reject"
        assert policy.decide(0, deadline_s=1.0) == "degrade"  # thin headroom
        assert policy.decide(0, deadline_s=2.0) == "admit"
        assert policy.decide(0, deadline_s=0.0) == "reject"  # unmeetable

    def test_degrade_before_reject_ordering(self):
        # Depth hits reject first even when headroom would only degrade.
        policy = AdmissionPolicy(
            reject_depth=4, degrade_depth=2, min_headroom_s=5.0
        )
        assert policy.decide(4, deadline_s=1.0) == "reject"
        assert policy.decide(3, deadline_s=1.0) == "degrade"

    def test_headroom_disabled_by_default(self):
        assert AdmissionPolicy().decide(0, deadline_s=0.001) == "admit"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(reject_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(degrade_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(reject_depth=4, degrade_depth=8)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(min_headroom_s=float("nan"))
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(min_headroom_s=-1.0)

    def test_decisions_tuple(self):
        assert DECISIONS == ("admit", "degrade", "reject")


class TestAdmitAndServe:
    def test_reject_lands_in_report(self, tiny_domain):
        plan = identity_plan("target")
        engine, platform = make_engine(tiny_domain)
        policy = AdmissionPolicy(reject_depth=1, degrade_depth=1)
        arrivals = [
            (QueryRequest("q1", ("target",), (0, 1)), plan),
            (QueryRequest("q2", ("target",), (2, 3)), plan),
        ]
        with engine:
            report, decisions = admit_and_serve(engine, arrivals, policy)
        # Depth 0 admits q1 cache-only (degrade rung == 1? no: depth 0 <
        # degrade_depth 1 admits); q2 then sees depth 1 == reject_depth.
        assert decisions["reject"] >= 1
        rejected = report.result("q2")
        assert rejected.status == "shed"
        assert rejected.shed_reason == "rejected"
        assert report.shed_by_reason("rejected") == decisions["reject"]
        assert len(report.results) == 2  # nothing silently dropped

    def test_degrade_serves_cache_only(self, tiny_domain):
        plan = identity_plan("target")

        # Warm a cache through a checkpointed run, then replay the same
        # query degraded: it must be served fully from cache for free.
        engine, platform = make_engine(tiny_domain)
        policy = AdmissionPolicy(
            reject_depth=100, degrade_depth=100, min_headroom_s=10.0
        )
        arrivals = [
            # No deadline: full admit, populates the cache.
            (QueryRequest("q1", ("target",), (0, 1)), plan),
            # Thin deadline: degraded to cache-only on arrival.
            (QueryRequest("q2", ("target",), (0, 1), deadline_s=1.0), plan),
            # Thin deadline, cold keys: cache-only finds nothing.
            (QueryRequest("q3", ("target",), (5, 6), deadline_s=1.0), plan),
        ]
        with engine:
            report, decisions = admit_and_serve(engine, arrivals, policy)
        assert decisions == {"admit": 1, "degrade": 2, "reject": 0}

        # q2's keys were warmed by q1 in the same wave: cache-only
        # service is *complete* — degradation only marks a shortfall.
        warmed = report.result("q2")
        assert warmed.status == "completed"
        assert warmed.fresh_answers == 0
        assert warmed.saved_answers == 8  # both keys fully cached by q1
        assert warmed.spent_cents == 0.0

        cold = report.result("q3")
        assert cold.status == "degraded"
        assert cold.degraded is not None
        assert "admission" in cold.degraded.reasons
        assert cold.fresh_answers == 0
        assert cold.saved_answers == 0
        assert cold.spent_cents == 0.0

    def test_admit_and_serve_tally_and_metrics(self, tiny_domain):
        from repro.obs import Observability

        plan = identity_plan("target")
        obs = Observability.collecting()
        platform = CrowdPlatform(
            tiny_domain, recorder=AnswerRecorder(), seed=3, obs=obs
        )
        arrivals = [
            (QueryRequest(f"q{i}", ("target",), (i,)), plan) for i in range(4)
        ]
        with ServeEngine(platform) as engine:
            report, decisions = admit_and_serve(engine, arrivals)
        assert decisions == {"admit": 4, "degrade": 0, "reject": 0}
        assert report.completed == 4
        assert obs.metrics.counter("serve.admission.admit") == 4

    def test_depth_counts_engine_queue_and_queued_arrivals(self, tiny_domain):
        plan = identity_plan("target")
        engine, _ = make_engine(tiny_domain)
        policy = AdmissionPolicy(reject_depth=3, degrade_depth=2)
        arrivals = [
            (QueryRequest(f"q{i}", ("target",), (i,)), plan) for i in range(1, 5)
        ]
        with engine:
            engine.submit(QueryRequest("q0", ("target",), (0,)), plan)
            report, decisions = admit_and_serve(engine, arrivals, policy)
        # Depths seen: 1 (the pre-queued q0), 2, 3, 3.
        assert decisions == {"admit": 1, "degrade": 1, "reject": 2}
        assert [report.result(f"q{i}").status for i in range(5)] == [
            "completed",
            "completed",
            "degraded",
            "shed",
            "shed",
        ]

    def test_duplicate_reject_id_raises(self, tiny_domain):
        engine, _ = make_engine(tiny_domain)
        request = QueryRequest("q1", ("target",), (0,))
        with engine:
            engine.reject(request)
            with pytest.raises(ConfigurationError):
                engine.reject(request)
            report = engine.run()
        assert report.shed == 1
