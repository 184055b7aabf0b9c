"""Platform-level resilience tests: retries, charging, fork, quarantine."""

from __future__ import annotations

import math

import pytest

from repro.crowd.faults import (
    FaultProfile,
    FaultRates,
    RetryPolicy,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.pricing import Budget
from repro.crowd.quality import WorkerCircuitBreaker
from repro.crowd.recording import AnswerRecorder
from repro.crowd.spam import ZScoreSpamFilter
from repro.errors import (
    BudgetExhaustedError,
    CrowdFaultError,
    CrowdTimeoutError,
    MalformedAnswerError,
)

pytestmark = pytest.mark.faults


def make_platform(domain, *, seed=3, **kwargs) -> CrowdPlatform:
    return CrowdPlatform(domain, recorder=AnswerRecorder(), seed=seed, **kwargs)


# ----------------------------------------------------------------------
# fork() seed propagation (regression)
# ----------------------------------------------------------------------


class TestForkSeed:
    def test_fork_inherits_parent_seed(self, tiny_domain):
        platform = make_platform(tiny_domain, seed=17)
        assert platform.fork()._seed == 17

    def test_fork_seed_override_wins(self, tiny_domain):
        platform = make_platform(tiny_domain, seed=17)
        assert platform.fork(seed=4)._seed == 4

    def test_fork_injector_streams_follow_the_seed(self, tiny_domain):
        # Two parents with different seeds must fault differently after
        # forking; before the fix every fork was silently re-seeded 0.
        profile = FaultProfile.uniform(0.3, latency_mean=1.0)
        draws = []
        for seed in (1, 2):
            fork = make_platform(tiny_domain, seed=seed, faults=profile).fork()
            draws.append(
                [
                    (o.kind, o.latency)
                    for o in (fork.faults.draw("value") for _ in range(30))
                ]
            )
        assert draws[0] != draws[1]

    def test_fork_carries_faults_and_retry_policy(self, tiny_domain):
        profile = FaultProfile.uniform(0.2)
        retry = RetryPolicy(max_retries=7)
        platform = make_platform(tiny_domain, faults=profile, retry=retry)
        fork = platform.fork()
        assert fork.faults is not None
        assert fork.faults.profile == profile
        assert fork.retry is retry
        # Fault counters and quarantine state are per-run, not shared.
        assert fork.faults is not platform.faults
        assert fork.breaker is not platform.breaker


# ----------------------------------------------------------------------
# Charging semantics
# ----------------------------------------------------------------------


class TestCharging:
    def test_unaffordable_batch_raises_before_any_answer(self, tiny_domain):
        platform = make_platform(tiny_domain, budget=Budget(1.0))
        before = platform.recorder.recorded_counts()
        with pytest.raises(BudgetExhaustedError):
            platform.ask_value(0, "target", 5)  # 5 * 0.4c = 2c > 1c
        assert platform.recorder.recorded_counts() == before
        assert platform.budget.spent == 0.0
        assert platform.ledger.total_spent == 0.0

    def test_failed_collection_charges_nothing(self, tiny_domain):
        # Workers always time out -> retries exhaust -> no charge, even
        # though the budget could have covered the question.
        profile = FaultProfile(default=FaultRates(timeout=1.0))
        platform = make_platform(
            tiny_domain,
            budget=Budget(100.0),
            faults=profile,
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(CrowdTimeoutError):
            platform.ask_value(0, "target", 1)
        assert platform.budget.spent == 0.0
        assert platform.ledger.total_spent == 0.0
        assert platform.ledger.questions_by_category["value"] == 0
        # The attempts still show up as (unpaid) retries.
        assert platform.ledger.retries_by_category["value"] == 2

    def test_successful_batch_is_charged_once(self, tiny_domain):
        platform = make_platform(tiny_domain, budget=Budget(100.0))
        platform.ask_value(0, "target", 3)
        assert platform.budget.spent == pytest.approx(3 * 0.4)
        assert platform.ledger.questions_by_category["value"] == 3


# ----------------------------------------------------------------------
# Retry behavior under injected faults
# ----------------------------------------------------------------------


class TestRetries:
    def test_moderate_faults_are_absorbed(self, tiny_domain):
        profile = FaultProfile.uniform(0.3, latency_mean=2.0)
        platform = make_platform(tiny_domain, faults=profile)
        answers = []
        for object_id in range(20):
            answers.extend(platform.ask_value(object_id, "target", 2))
        # All delivered answers are valid (garbage was retried away).
        low, high = tiny_domain.answer_range("target")
        margin = 5.0 * max(high - low, 1.0)
        assert all(math.isfinite(a) for a in answers)
        assert all(low - margin <= a <= high + margin for a in answers)
        report = platform.resilience_report()
        assert report.total_retries > 0
        assert report.simulated_seconds > 0.0

    def test_persistent_garbage_raises_malformed(self, tiny_domain):
        profile = FaultProfile(default=FaultRates(garbage=1.0))
        platform = make_platform(
            tiny_domain, faults=profile, retry=RetryPolicy(max_retries=1)
        )
        with pytest.raises(MalformedAnswerError):
            platform.ask_value(0, "target", 1)
        with pytest.raises(MalformedAnswerError):
            platform.ask_dismantle("target")
        with pytest.raises(MalformedAnswerError):
            platform.ask_verification_vote("target", "helper")
        with pytest.raises(MalformedAnswerError):
            platform.ask_example(("target",))

    def test_persistent_timeouts_raise_with_attempt_count(self, tiny_domain):
        profile = FaultProfile(default=FaultRates(timeout=1.0))
        platform = make_platform(
            tiny_domain,
            faults=profile,
            retry=RetryPolicy(max_retries=3, question_timeout=60.0, jitter=0.0),
        )
        with pytest.raises(CrowdTimeoutError) as excinfo:
            platform.ask_value(0, "target", 1)
        assert excinfo.value.attempts == 4
        # 4 timeouts + backoff 1 + 2 + 4 on the simulated clock.
        assert platform.clock.now == pytest.approx(4 * 60.0 + 7.0)

    def test_abandons_are_counted(self, tiny_domain):
        profile = FaultProfile(default=FaultRates(abandon=1.0))
        platform = make_platform(
            tiny_domain, faults=profile, retry=RetryPolicy(max_retries=2)
        )
        with pytest.raises(CrowdFaultError):
            platform.ask_value(0, "target", 1)
        assert platform.ledger.abandons_by_category["value"] == 3

    def test_only_valid_answers_reach_the_recorder(self, tiny_domain):
        profile = FaultProfile.uniform(0.3)
        recorder = AnswerRecorder()
        platform = CrowdPlatform(
            tiny_domain, recorder=recorder, seed=3, faults=profile
        )
        for object_id in range(10):
            platform.ask_value(object_id, "target", 2)
        assert recorder.recorded_counts()["value"] == 20
        # Replaying the recorded data on a fault-free platform yields
        # the identical answers: faults never enter the record.
        replay = CrowdPlatform(tiny_domain, recorder=recorder, seed=3)
        replayed = [a for oid in range(10) for a in replay.ask_value(oid, "target", 2)]
        assert all(math.isfinite(a) for a in replayed)


# ----------------------------------------------------------------------
# Quarantine integration
# ----------------------------------------------------------------------


class TestQuarantine:
    def test_faulting_workers_get_quarantined_and_routed_around(
        self, tiny_domain
    ):
        # A tiny pool plus guaranteed faults: the few workers quickly
        # cross the breaker threshold.
        profile = FaultProfile(default=FaultRates(timeout=1.0))
        pool = WorkerPool(size=3, seed=0)
        platform = CrowdPlatform(
            tiny_domain,
            pool=pool,
            recorder=AnswerRecorder(),
            seed=3,
            faults=profile,
            retry=RetryPolicy(max_retries=4),
            breaker=WorkerCircuitBreaker(
                fault_threshold=0.5, window=5, min_observations=2, cooldown=1e9
            ),
        )
        for _ in range(4):
            with pytest.raises(CrowdTimeoutError):
                platform.ask_value(0, "target", 1)
        report = platform.resilience_report()
        assert len(report.quarantined_workers) > 0
        assert set(report.quarantined_workers) <= {0, 1, 2}

    def test_disabled_faults_have_no_breaker(self, tiny_domain):
        platform = make_platform(tiny_domain)
        assert platform.faults is None
        assert platform.breaker is None
        assert platform.clock is None
        report = platform.resilience_report()
        assert report.total_retries == 0
        assert report.quarantined_workers == ()


# ----------------------------------------------------------------------
# Spam-rejection attribution (regression: keyed by answer value)
# ----------------------------------------------------------------------


class _ScriptedWorker:
    """A worker who always gives one scripted value answer."""

    fault_proneness = 1.0
    rng = None

    def __init__(self, worker_id: int, answer: float) -> None:
        self.worker_id = worker_id
        self._answer = float(answer)

    def answer_value(self, domain, object_id, attribute, rng) -> float:
        return self._answer


class _ScriptedPool:
    """Serves scripted workers in a fixed round-robin order."""

    def __init__(self, workers) -> None:
        self._workers = list(workers)
        self._next = 0

    def draw(self):
        worker = self._workers[self._next % len(self._workers)]
        self._next += 1
        return worker


#: Enables the fault machinery (so batch attribution runs) while value
#: questions themselves never fault — answers stay fully scripted.
_VALUE_CLEAN_PROFILE = FaultProfile(
    overrides=(("dismantle", FaultRates(garbage=0.5)),)
)


class TestSpamRejectionAttribution:
    """Regression: `_batch_workers` used to be keyed by ``float(answer)``,
    so two workers giving the same value collided in the dict and the
    spam-rejection fault landed on the wrong worker.  Attribution is now
    positional, aligned with ``rejected_indices``."""

    def test_duplicate_outliers_blame_their_producers(self, tiny_domain):
        low, high = tiny_domain.answer_range("target")
        # Workers 0 and 1 both give the identical outlier; 2-4 agree.
        pool = _ScriptedPool(
            [_ScriptedWorker(i, high if i < 2 else low) for i in range(5)]
        )
        breaker = WorkerCircuitBreaker(
            fault_threshold=0.5, window=5, min_observations=2, cooldown=1e9
        )
        platform = CrowdPlatform(
            tiny_domain,
            pool=pool,
            recorder=AnswerRecorder(),
            seed=3,
            spam_filter=ZScoreSpamFilter(),
            faults=_VALUE_CLEAN_PROFILE,
            breaker=breaker,
        )
        kept = platform.ask_value(0, "target", 5)
        assert kept == [low] * 3
        # Each outlier producer got one clean production outcome plus one
        # spam fault; under value-keyed attribution one of them would
        # have absorbed both faults and the other none.
        assert breaker.fault_rate(0) == pytest.approx(0.5)
        assert breaker.fault_rate(1) == pytest.approx(0.5)
        for worker_id in (2, 3, 4):
            assert breaker.fault_rate(worker_id) == 0.0
        assert set(platform.resilience_report().quarantined_workers) == {0, 1}

    def test_replayed_rejections_are_not_attributed(self, tiny_domain):
        low, high = tiny_domain.answer_range("target")
        recorder = AnswerRecorder()
        first = CrowdPlatform(
            tiny_domain,
            pool=_ScriptedPool(
                [_ScriptedWorker(i, high if i < 2 else low) for i in range(5)]
            ),
            recorder=recorder,
            seed=3,
            spam_filter=ZScoreSpamFilter(),
            faults=_VALUE_CLEAN_PROFILE,
        )
        first.ask_value(0, "target", 5)
        # A fresh platform replays the full batch: there is no live
        # worker behind any answer, so nobody can be blamed.
        breaker = WorkerCircuitBreaker()
        replay = CrowdPlatform(
            tiny_domain,
            pool=_ScriptedPool([_ScriptedWorker(9, low)]),
            recorder=recorder,
            seed=3,
            spam_filter=ZScoreSpamFilter(),
            faults=_VALUE_CLEAN_PROFILE,
            breaker=breaker,
        )
        kept = replay.ask_value(0, "target", 5)
        assert kept == [low] * 3  # same filtering as the live batch
        assert all(breaker.fault_rate(w) == 0.0 for w in range(10))
        assert breaker.quarantined(replay.clock.now) == ()

    def test_mixed_replay_and_fresh_blames_only_fresh_producer(
        self, tiny_domain
    ):
        low, high = tiny_domain.answer_range("target")
        recorder = AnswerRecorder()
        first = CrowdPlatform(
            tiny_domain,
            pool=_ScriptedPool([_ScriptedWorker(0, low), _ScriptedWorker(1, low)]),
            recorder=recorder,
            seed=3,
            faults=_VALUE_CLEAN_PROFILE,
        )
        first.ask_value(0, "target", 2)  # tape now holds [low, low]
        # Second platform extends the batch: positions 0-1 replay the
        # tape, 2-4 are fresh (worker 2 spams, workers 3-4 agree).
        breaker = WorkerCircuitBreaker()
        second = CrowdPlatform(
            tiny_domain,
            pool=_ScriptedPool(
                [
                    _ScriptedWorker(2, high),
                    _ScriptedWorker(3, low),
                    _ScriptedWorker(4, low),
                ]
            ),
            recorder=recorder,
            seed=3,
            spam_filter=ZScoreSpamFilter(),
            faults=_VALUE_CLEAN_PROFILE,
            breaker=breaker,
        )
        kept = second.ask_value(0, "target", 5)
        assert kept == [low] * 4
        # Rejected batch index 2 minus fresh base 2 -> fresh position 0,
        # i.e. worker 2.  Without the base offset, worker 2's fault
        # would land on the worker at raw position 2 (worker 4).
        assert breaker.fault_rate(2) == pytest.approx(0.5)
        assert breaker.fault_rate(3) == 0.0
        assert breaker.fault_rate(4) == 0.0


# ----------------------------------------------------------------------
# Disabled faults == byte-identical seed behavior
# ----------------------------------------------------------------------


class TestDisabledByteIdentity:
    def test_none_profile_matches_no_faults_argument(self, tiny_domain):
        batches = []
        for faults in (None, FaultProfile.none()):
            platform = CrowdPlatform(
                tiny_domain, recorder=AnswerRecorder(), seed=3, faults=faults
            )
            batch = [
                platform.ask_value(object_id, "target", 3)
                for object_id in range(5)
            ]
            batch.append(platform.ask_dismantle("target"))
            batch.append(platform.ask_example(("target",)))
            batches.append(batch)
        assert batches[0] == batches[1]
