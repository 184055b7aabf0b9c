"""Unit tests for the crowd platform facade."""

import numpy as np
import pytest

from repro.crowd.normalization import AttributeNormalizer, NormalizationMode
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.recording import AnswerRecorder
from repro.errors import BudgetExhaustedError, UnknownAttributeError


class TestPricingAndLedger:
    def test_value_question_charges_by_kind(self, tiny_platform):
        tiny_platform.ask_value(0, "target", 2)   # numeric: 0.4 x 2
        tiny_platform.ask_value(0, "flag_a", 3)   # binary: 0.1 x 3
        assert tiny_platform.ledger.spent_by_category["value"] == pytest.approx(1.1)
        assert tiny_platform.ledger.questions_by_category["value"] == 5

    def test_dismantle_and_example_prices(self, tiny_platform):
        tiny_platform.ask_dismantle("target")
        tiny_platform.ask_example(("target",))
        assert tiny_platform.ledger.spent_by_category["dismantle"] == pytest.approx(1.5)
        assert tiny_platform.ledger.spent_by_category["example"] == pytest.approx(5.0)

    def test_budget_enforced(self, tiny_domain):
        platform = CrowdPlatform(tiny_domain, budget=Budget(1.0), seed=0)
        platform.ask_value(0, "target", 2)  # 0.8
        with pytest.raises(BudgetExhaustedError):
            platform.ask_value(0, "target", 1)  # would exceed 1.0

    def test_zero_questions_cost_nothing(self, tiny_platform):
        assert tiny_platform.ask_value(0, "target", 0) == []
        assert tiny_platform.total_spent == 0.0


class TestAnswers:
    def test_value_answers_near_truth(self, tiny_platform, tiny_domain):
        answers = tiny_platform.ask_value(5, "target", 60)
        assert np.mean(answers) == pytest.approx(
            tiny_domain.true_value(5, "target"), abs=0.5
        )

    def test_fork_replays_recorded_value_answers(self, tiny_domain):
        recorder = AnswerRecorder()
        platform_a = CrowdPlatform(tiny_domain, recorder=recorder, seed=0)
        platform_b = platform_a.fork()
        answers = platform_a.ask_value(1, "target", 5)
        assert platform_b.ask_value(1, "target", 5) == answers

    def test_example_returns_true_values(self, tiny_platform, tiny_domain):
        object_id, values = tiny_platform.ask_example(("target", "helper"))
        assert values["target"] == tiny_domain.true_value(object_id, "target")

    def test_unknown_attribute_raises(self, tiny_platform):
        with pytest.raises(UnknownAttributeError):
            tiny_platform.ask_value(0, "no_such_attribute", 1)


class TestNormalization:
    def test_dismantle_answers_are_canonical_by_default(self, tiny_domain):
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        answers = {platform.ask_dismantle("flag_b") for _ in range(60)}
        assert "flagged" not in answers
        assert "marked" not in answers

    def test_disabled_normalizer_leaks_surface_forms(self, tiny_domain):
        platform = CrowdPlatform(
            tiny_domain,
            recorder=AnswerRecorder(),
            normalizer=AttributeNormalizer(tiny_domain, NormalizationMode.NONE),
            seed=0,
        )
        answers = {platform.ask_dismantle("flag_b") for _ in range(80)}
        assert answers & {"flagged", "marked"}

    def test_surface_forms_answerable_in_value_questions(self, tiny_domain):
        # Even unmerged, "flagged" must behave as the attribute it means.
        platform = CrowdPlatform(
            tiny_domain,
            recorder=AnswerRecorder(),
            normalizer=AttributeNormalizer(tiny_domain, NormalizationMode.NONE),
            seed=0,
        )
        answers = platform.ask_value(2, "flagged", 40)
        truth = tiny_domain.true_value(2, "flag_a")
        assert np.mean(answers) == pytest.approx(truth, abs=0.25)

    def test_surface_form_priced_as_canonical(self, tiny_domain):
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        assert platform.value_price("flagged") == platform.value_price("flag_a")


class TestReplay:
    def test_fork_replays_identical_answers(self, tiny_domain):
        recorder = AnswerRecorder()
        platform_a = CrowdPlatform(tiny_domain, recorder=recorder, seed=0)
        first = platform_a.ask_value(0, "target", 5)
        platform_b = platform_a.fork()
        replay = platform_b.ask_value(0, "target", 5)
        assert replay == first

    def test_within_run_requests_get_fresh_answers(self, tiny_platform):
        first = tiny_platform.ask_value(0, "target", 3)
        second = tiny_platform.ask_value(0, "target", 3)
        assert first != second

    def test_fork_has_fresh_ledger_and_budget(self, tiny_domain):
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        platform.ask_value(0, "target", 2)
        fork = platform.fork(budget=Budget(50.0))
        assert fork.total_spent == 0.0
        assert fork.budget.total == 50.0

    def test_verification_votes_replay(self, tiny_domain):
        recorder = AnswerRecorder()
        platform_a = CrowdPlatform(tiny_domain, recorder=recorder, seed=0)
        votes_a = [platform_a.ask_verification_vote("target", "helper") for _ in range(6)]
        votes_b = [
            platform_a.fork().ask_verification_vote("target", "helper")
            for _ in range(1)
        ]
        assert votes_b[0] == votes_a[0]


class TestVerifyCandidate:
    def test_related_candidate_accepted(self, tiny_platform):
        result = tiny_platform.verify_candidate("target", "helper")
        assert result.accepted

    def test_unrelated_candidate_rejected(self, tiny_platform):
        result = tiny_platform.verify_candidate("target", "flag_b")
        assert not result.accepted

    def test_votes_charged(self, tiny_platform):
        result = tiny_platform.verify_candidate("target", "helper")
        charged = tiny_platform.ledger.questions_by_category["verification"]
        assert charged == result.votes_used
