"""Property-based tests for crowd substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dismantling import probability_of_new_answer
from repro.crowd.faults import FaultProfile, FaultRates
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget, PriceSchedule
from repro.crowd.quality import WorkerCircuitBreaker
from repro.crowd.recording import AnswerRecorder
from repro.crowd.spam import ZScoreSpamFilter, rejected_indices
from repro.crowd.verification import SequentialVerifier
from repro.domains.gaussian import GaussianDomain, GaussianDomainSpec


class TestPricingProperties:
    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=20),
    )
    def test_budget_accounting_consistent(self, total, charges):
        budget = Budget(total)
        spent = 0.0
        for charge in charges:
            if budget.can_afford(charge):
                budget.charge(charge)
                spent += charge
        assert budget.spent == __import__("pytest").approx(spent)
        assert budget.remaining == __import__("pytest").approx(total - spent)
        assert budget.remaining >= -1e-9

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_price_scaling_linear(self, factor):
        import pytest

        base = PriceSchedule()
        scaled = base.scaled(factor)
        assert scaled.dismantle == pytest.approx(base.dismantle * factor)
        assert scaled.example == pytest.approx(base.example * factor)


class TestRecorderProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
        st.integers(0, 1000),
    )
    def test_prefix_stability_across_request_patterns(self, request_sizes, seed):
        """However answers are requested (in chunks of any size), the
        concatenated stream for one key is a stable sequence."""
        rng = np.random.default_rng(seed)
        recorder = AnswerRecorder()
        stream = []
        position = 0
        for size in request_sizes:
            chunk = recorder.value_answers(
                0, "a", position, size, lambda: float(rng.normal())
            )
            stream.extend(chunk)
            position += size
        total = sum(request_sizes)
        replay = recorder.value_answers(0, "a", 0, total, lambda: -1.0)
        assert replay == stream

    @given(st.integers(0, 10_000))
    def test_round_trip_serialization(self, seed):
        rng = np.random.default_rng(seed)
        recorder = AnswerRecorder()
        recorder.value_answers(seed % 7, "x", 0, 5, lambda: float(rng.normal()))
        restored = AnswerRecorder.from_dict(recorder.to_dict())
        assert restored.to_dict() == recorder.to_dict()


class TestSpamFilterProperties:
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    def test_output_is_subset_and_nonempty(self, answers):
        kept = ZScoreSpamFilter().filter(answers)
        assert kept
        for value in kept:
            assert value in answers


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


#: One-attribute domain for attribution properties (workers are
#: scripted, so only the answer range matters).
_ATTRIBUTION_DOMAIN = GaussianDomain(
    GaussianDomainSpec(
        names=("t",),
        means=(10.0,),
        sigmas=(2.0,),
        correlation=np.array([[1.0]]),
        difficulties=(0.5,),
        binary=(False,),
    ),
    n_objects=20,
    seed=7,
    name="attribution",
)

#: Enables the fault machinery (so batch attribution runs) while value
#: questions never fault — the scripted answers arrive untouched.
_VALUE_CLEAN_PROFILE = FaultProfile(
    overrides=(("dismantle", FaultRates(garbage=0.5)),)
)


class TestSpamAttributionProperties:
    @given(
        st.lists(
            st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=3, max_size=12
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_positional_attribution_agrees_with_rejected_indices(
        self, fractions
    ):
        """Whatever the spam filter drops — including duplicated answer
        values — the workers blamed by the platform are exactly the ones
        at the positions ``rejected_indices`` reports."""
        low, high = _ATTRIBUTION_DOMAIN.answer_range("t")
        answers = [low + f * (high - low) for f in fractions]
        # One distinct worker per batch position, answering positionally.
        pool = _ScriptedPool(
            [_ScriptedWorker(i, a) for i, a in enumerate(answers)]
        )
        breaker = WorkerCircuitBreaker()  # defaults: never trips on 2 obs
        platform = CrowdPlatform(
            _ATTRIBUTION_DOMAIN,
            pool=pool,
            recorder=AnswerRecorder(),
            seed=3,
            spam_filter=ZScoreSpamFilter(),
            faults=_VALUE_CLEAN_PROFILE,
            breaker=breaker,
        )
        kept = platform.ask_value(0, "t", len(answers))
        expected = set(rejected_indices(answers, kept))
        blamed = {
            i for i in range(len(answers)) if breaker.fault_rate(i) > 0.0
        }
        assert blamed == expected
        # Sanity on the filter contract the attribution relies on: the
        # kept answers are a subsequence of the original batch.
        kept_iter = iter(answers)
        assert all(any(k == a for a in kept_iter) for k in kept)


class TestVerifierProperties:
    @given(st.integers(0, 2**31 - 1), st.floats(min_value=0.55, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_always_terminates_within_cap(self, seed, reliability):
        rng = np.random.default_rng(seed)
        verifier = SequentialVerifier(reliability=reliability, max_votes=20)
        result = verifier.verify(lambda: bool(rng.random() < 0.5))
        assert 1 <= result.votes_used <= 20

    @given(st.integers(0, 500))
    def test_probability_of_new_answer_valid(self, n):
        p = probability_of_new_answer(n)
        assert 0.0 < p <= 0.5
