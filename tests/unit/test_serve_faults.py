"""Unit tests for the fault-injected serving purchase path.

Covers the purity contract of :class:`~repro.serve.faults.
ResilientValueStream` (call order, batch splits and worker exclusion
never change an answer), the engine's serial side-effect replay
(ledger, breaker, clock, metrics), loss-driven degradation, and the
fault state's checkpoint/resume round-trip.
"""

import pytest

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.faults import FaultProfile, RetryPolicy, SimulatedClock
from repro.crowd.platform import CrowdPlatform
from repro.crowd.quality import WorkerCircuitBreaker
from repro.crowd.recording import AnswerRecorder
from repro.durability.chaos import CrashInjector, SimulatedCrash
from repro.obs import Observability
from repro.serve import (
    DeterministicValueStream,
    QueryRequest,
    ResilientValueStream,
    ServeEngine,
)
from repro.serve.engine import SERVE_CHECKPOINT


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
    platform = CrowdPlatform(
        domain,
        recorder=AnswerRecorder(),
        seed=3,
        budget=kwargs.pop("budget", None),
        obs=kwargs.pop("obs", None),
    )
    return ServeEngine(platform, **kwargs), platform

#: Aggressive enough that every purchase sees faults, retries and (with
#: a small retry budget) losses — the stressed regime the degradation
#: layer exists for.
HARSH = FaultProfile.uniform(0.6, latency_mean=0.2)

#: Mild profile used where the test only needs the resilient code path,
#: not actual losses.
MILD = FaultProfile.uniform(0.1, latency_mean=0.05)

RETRY = RetryPolicy(
    max_retries=2,
    base_delay=0.01,
    multiplier=2.0,
    max_delay=0.1,
    jitter=0.0,
    question_timeout=0.5,
)


def make_stream(tiny_domain, profile=HARSH, policy=RETRY, seed=99):
    platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=3)
    return ResilientValueStream(
        DeterministicValueStream(platform, 3), profile, policy, seed
    )


NOBODY: frozenset[int] = frozenset()


class TestResilientValueStream:
    def test_purchase_is_pure_across_call_order(self, tiny_domain):
        stream = make_stream(tiny_domain)
        first = stream.purchase(0, "target", 0, 6, NOBODY)
        stream.purchase(7, "helper", 3, 5, NOBODY)  # interleaved noise
        again = stream.purchase(0, "target", 0, 6, NOBODY)
        assert again == first

    def test_purchase_independent_of_batch_split(self, tiny_domain):
        stream = make_stream(tiny_domain)
        whole = stream.purchase(1, "target", 0, 8, NOBODY)
        head = stream.purchase(1, "target", 0, 3, NOBODY)
        tail = stream.purchase(1, "target", 3, 5, NOBODY)
        assert head.answers + tail.answers == whole.answers
        assert head.lost + tail.lost == whole.lost
        assert head.attempts + tail.attempts == whole.attempts
        assert head.sim_seconds + tail.sim_seconds == pytest.approx(
            whole.sim_seconds
        )

    def test_blocked_workers_never_answer(self, tiny_domain):
        stream = make_stream(tiny_domain)
        baseline = stream.purchase(2, "target", 0, 10, NOBODY)
        drawn = {attempt.worker_id for attempt in baseline.attempts}
        assert drawn, "the purchase should have engaged workers"
        blocked = frozenset(sorted(drawn)[: len(drawn) // 2 + 1])
        redone = stream.purchase(2, "target", 0, 10, blocked)
        assert not {a.worker_id for a in redone.attempts} & blocked

    def test_fully_blocked_pool_degrades_to_normal_service(self, tiny_domain):
        stream = make_stream(tiny_domain, profile=FaultProfile.uniform(0.0, 0.01))
        everyone = frozenset(w.worker_id for w in stream.stream.workers)
        purchase = stream.purchase(0, "target", 0, 4, everyone)
        # Redraws are exhausted, the last draw serves anyway: no deadlock.
        assert len(purchase.answers) == 4
        assert purchase.lost == 0

    def test_accounting_is_internally_consistent(self, tiny_domain):
        stream = make_stream(tiny_domain)
        purchase = stream.purchase(3, "target", 0, 12, NOBODY)
        assert len(purchase.answers) + purchase.lost == 12
        # One attempt per answer obtained, plus one per fault observed.
        faulted = sum(1 for attempt in purchase.attempts if attempt.fault)
        assert len(purchase.attempts) == len(purchase.answers) + faulted
        assert faulted >= purchase.timeouts + purchase.abandons
        # Retries only happen after a faulted attempt.
        assert purchase.retries <= faulted
        assert purchase.sim_seconds > 0

    def test_harsh_profile_loses_answers_with_tiny_retry_budget(self, tiny_domain):
        no_retries = RetryPolicy(max_retries=0, question_timeout=0.5)
        stream = make_stream(tiny_domain, policy=no_retries)
        purchase = stream.purchase(0, "target", 0, 40, NOBODY)
        assert purchase.lost > 0
        assert purchase.retries == 0


def fault_engine(tiny_domain, **kwargs):
    kwargs.setdefault("faults", MILD)
    kwargs.setdefault("retry", RETRY)
    return make_engine(tiny_domain, **kwargs)


class TestEngineUnderFaults:
    def test_disabled_profile_is_byte_identical_to_no_profile(self, tiny_domain):
        def run(faults):
            engine, platform = make_engine(tiny_domain, faults=faults)
            engine.submit(
                QueryRequest("q1", ("target",), tuple(range(6))),
                identity_plan("target", 4),
            )
            report = engine.run()
            payload = report.to_dict()
            payload.pop("wall_seconds")
            return payload, platform.ledger.snapshot()

        assert run(FaultProfile.none()) == run(None)

    def test_lost_answers_degrade_with_faults_reason(self, tiny_domain):
        engine, platform = fault_engine(
            tiny_domain,
            faults=HARSH,
            retry=RetryPolicy(max_retries=0, question_timeout=0.5),
            obs=Observability.collecting(),
        )
        engine.submit(
            QueryRequest("q1", ("target",), tuple(range(10))),
            identity_plan("target", 4),
        )
        report = engine.run()
        result = report.result("q1")
        assert result.status == "degraded"
        assert result.degraded_reason == "faults"
        annotation = result.degraded
        assert annotation is not None
        assert annotation.answers_served < annotation.answers_demanded
        assert annotation.shortfalls
        # The money was there — losses come from the crowd, so the
        # budget-stop counter stays untouched while loss metrics tick.
        counters = platform.obs.metrics.counters()
        assert counters.get("serve.faults.lost", 0) > 0
        assert "serve.budget_stops" not in counters
        # Evaluation still delivered every object, with estimates.
        assert list(result.object_ids) == list(range(10))

    def test_side_effects_replayed_into_ledger_and_clock(self, tiny_domain):
        engine, platform = fault_engine(
            tiny_domain, faults=HARSH, obs=Observability.collecting()
        )
        engine.submit(
            QueryRequest("q1", ("target",), tuple(range(6))),
            identity_plan("target", 4),
        )
        engine.run()
        assert engine.fault_clock.now > 0.0
        retries = platform.ledger.retries_by_category.get("value", 0)
        assert retries > 0
        counters = platform.obs.metrics.counters()
        assert counters.get("serve.faults.retries", 0) == retries

    def test_lost_cursor_skips_consumed_indices(self, tiny_domain):
        # A second wave over the same key must continue past the indices
        # exhausted retries consumed, not re-draw them.
        engine, _ = fault_engine(
            tiny_domain,
            faults=HARSH,
            retry=RetryPolicy(max_retries=0, question_timeout=0.5),
        )
        engine.submit(
            QueryRequest("q1", ("target",), (0,)), identity_plan("target", 12)
        )
        engine.run()
        lost_before = dict(engine._lost)
        assert lost_before, "the harsh no-retry profile should lose answers"
        cached = engine.cache.count(0, "target")
        engine.submit(
            QueryRequest("q2", ("target",), (0,)), identity_plan("target", 12)
        )
        engine.run()
        # The rerun demands the same 12 answers; the shortfall purchase
        # starts at cache + lost, so previously-consumed indices stay
        # consumed and the cache grows by at most the shortfall.
        key = (0, "target")
        assert engine._lost[key] >= lost_before[key]
        assert engine.cache.count(0, "target") >= cached

    def test_quarantined_workers_excluded_from_generation(self, tiny_domain):
        breaker = WorkerCircuitBreaker(
            fault_threshold=0.5, window=4, min_observations=2, cooldown=1e9
        )
        clock = SimulatedClock()
        engine, _ = fault_engine(
            tiny_domain, faults=HARSH, breaker=breaker, fault_clock=clock
        )
        engine.submit(
            QueryRequest("q1", ("target",), tuple(range(12))),
            identity_plan("target", 4),
        )
        engine.run()
        quarantined = breaker.quarantined(clock.now)
        if not quarantined:
            pytest.skip("profile did not trip the breaker at this seed")
        # The next wave's purchases must avoid the quarantine snapshot.
        stream = engine.resilient
        assert stream is not None
        purchase = stream.purchase(50, "target", 0, 8, frozenset(quarantined))
        assert not {a.worker_id for a in purchase.attempts} & set(quarantined)

    def test_checkpoint_roundtrips_fault_state(self, tiny_domain, tmp_path):
        clock = SimulatedClock()
        engine, _ = fault_engine(
            tiny_domain,
            faults=HARSH,
            retry=RetryPolicy(max_retries=0, question_timeout=0.5),
            fault_clock=clock,
            checkpoint_dir=tmp_path,
        )
        engine.submit(
            QueryRequest("q1", ("target",), tuple(range(4))),
            identity_plan("target", 8),
        )
        engine.run()
        engine.close()
        assert clock.now > 0.0
        assert engine._lost

        resumed_clock = SimulatedClock()
        resumed, _ = fault_engine(
            tiny_domain,
            faults=HARSH,
            retry=RetryPolicy(max_retries=0, question_timeout=0.5),
            fault_clock=resumed_clock,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        resumed.close()
        assert resumed.resumed
        assert resumed_clock.now == pytest.approx(clock.now)
        assert resumed._lost == engine._lost
        assert resumed.breaker is not None and engine.breaker is not None
        assert resumed.breaker.state_dict() == engine.breaker.state_dict()


    def test_mid_wave_crash_restores_lost_cursor_from_journal(
        self, tiny_domain, tmp_path
    ):
        # A crash inside the commit loop leaves lost-answer records in
        # the journal that no checkpoint holds.  Resume must rebuild the
        # cursor from them, or the next purchase would re-draw stream
        # indices the crashed run's exhausted retries already consumed.
        retry = RetryPolicy(max_retries=0, question_timeout=0.5)
        crashed, _ = fault_engine(
            tiny_domain,
            faults=HARSH,
            retry=retry,
            checkpoint_dir=tmp_path,
            chaos=CrashInjector(at_interactions=6),
        )
        crashed.submit(
            QueryRequest("q1", ("target",), tuple(range(4))),
            identity_plan("target", 8),
        )
        with pytest.raises(SimulatedCrash):
            crashed.run()
        crashed.close()
        assert crashed._lost, "the crashed wave should have lost answers"
        assert not (tmp_path / SERVE_CHECKPOINT).exists()

        resumed, _ = fault_engine(
            tiny_domain,
            faults=HARSH,
            retry=retry,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        resumed.close()
        assert resumed._lost == crashed._lost
        # Every answer the crashed run paid for comes back from the
        # journal, the one whose charge the crash interrupted included.
        assert resumed.restored_answers == (
            crashed.platform.ledger.questions_by_category["value"]
        )

class TestFaultSeedDefaults:
    def test_fault_seed_decorrelated_from_answer_seed(self, tiny_domain):
        engine, _ = fault_engine(tiny_domain, seed=3)
        assert engine.resilient is not None
        assert engine.resilient.seed != 3

    def test_explicit_fault_seed_wins(self, tiny_domain):
        engine, _ = fault_engine(tiny_domain, fault_seed=123)
        assert engine.resilient is not None
        assert engine.resilient.seed == 123

    def test_default_fault_seed_keeps_the_batched_path(self, tiny_domain):
        # At platform seed 7 the engine's seed mix gives a fault seed
        # beyond 2**32.  The batched purchase must still cover the clean
        # keys: only keys with a fault (or a kernel rejection) are
        # replayed through the scalar purchase.
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=7)
        engine = ServeEngine(platform, faults=FaultProfile.uniform(0.08))
        assert engine.resilient is not None
        assert engine.resilient.seed >= 2**32
        replayed = []
        scalar_purchase = engine.resilient.purchase

        def counting_purchase(*args):
            replayed.append(args[:2])
            return scalar_purchase(*args)

        engine.resilient.purchase = counting_purchase
        plan = identity_plan("target", n_questions=5)
        for q in range(10):
            objects = tuple(range(10 * q, 10 * q + 10))
            engine.submit(QueryRequest(f"q{q}", ("target",), objects), plan)
        engine.run()
        shortfall_keys = 100  # ten disjoint 10-object windows, one attribute
        assert 0 < len(replayed) < shortfall_keys
