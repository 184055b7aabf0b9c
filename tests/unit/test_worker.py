"""Unit tests for the worker models."""

import numpy as np
import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.crowd.worker import BiasedWorker, HonestWorker, SpamWorker
from repro.domains.base import IRRELEVANT
from repro.serve.stream import DeterministicValueStream


@pytest.fixture
def honest(tiny_domain):
    return HonestWorker(worker_id=0, seed=42)


class TestHonestWorkerValues:
    def test_value_answer_is_noisy_truth(self, tiny_domain, honest):
        truth = tiny_domain.true_value(0, "target")
        answers = [
            honest.answer_value(tiny_domain, 0, "target", honest.rng)
            for _ in range(400)
        ]
        # Mean converges to the truth; spread matches the difficulty.
        assert np.mean(answers) == pytest.approx(truth, abs=0.2)
        assert np.std(answers) == pytest.approx(
            np.sqrt(tiny_domain.difficulty("target")), rel=0.25
        )

    def test_binary_answers_clipped_to_unit_interval(self, tiny_domain, honest):
        answers = [
            honest.answer_value(tiny_domain, 1, "flag_a", honest.rng)
            for _ in range(200)
        ]
        assert all(0.0 <= a <= 1.0 for a in answers)

    def test_skill_scales_noise(self, tiny_domain):
        sharp = HonestWorker(0, seed=1, skill=0.01)
        answers = [
            sharp.answer_value(tiny_domain, 3, "target", sharp.rng) for _ in range(50)
        ]
        assert np.std(answers) < 0.3

    def test_distinct_seeds_give_distinct_answers(self, tiny_domain):
        first = HonestWorker(0, seed=1)
        second = HonestWorker(1, seed=2)
        a = first.answer_value(tiny_domain, 0, "target", first.rng)
        b = second.answer_value(tiny_domain, 0, "target", second.rng)
        assert a != b


class TestHonestWorkerDismantle:
    def test_answers_follow_taxonomy(self, tiny_domain):
        worker = HonestWorker(0, seed=5, synonym_rate=0.0)
        answers = [worker.answer_dismantle(tiny_domain, "target") for _ in range(500)]
        frequencies = {name: answers.count(name) / len(answers) for name in set(answers)}
        # Taxonomy: helper 0.5, flag_a 0.3, irrelevant 0.2.
        assert frequencies.get("helper", 0) == pytest.approx(0.5, abs=0.08)
        assert frequencies.get("flag_a", 0) == pytest.approx(0.3, abs=0.08)

    def test_irrelevant_mass_lands_on_unrelated_attribute(self, tiny_domain):
        worker = HonestWorker(0, seed=5, synonym_rate=0.0)
        answers = {worker.answer_dismantle(tiny_domain, "target") for _ in range(500)}
        # flag_b is the only attribute unrelated to target (corr 0.1).
        assert "flag_b" in answers
        assert IRRELEVANT not in answers

    def test_synonyms_emitted_at_configured_rate(self, tiny_domain):
        worker = HonestWorker(0, seed=5, synonym_rate=1.0)
        answers = [worker.answer_dismantle(tiny_domain, "flag_b") for _ in range(100)]
        # flag_a is always phrased via a synonym at rate 1.0.
        assert "flag_a" not in answers
        assert any(a in ("flagged", "marked") for a in answers)


class TestHonestWorkerVerification:
    def test_reliability_controls_correctness(self, tiny_domain):
        worker = HonestWorker(0, seed=9, reliability=1.0)
        # target-helper really are related (corr 0.8).
        assert worker.answer_verification(tiny_domain, "target", "helper") is True
        # target-flag_b are not (corr 0.1 < threshold 0.2).
        assert worker.answer_verification(tiny_domain, "target", "flag_b") is False

    def test_unreliable_worker_flips_votes(self, tiny_domain):
        worker = HonestWorker(0, seed=9, reliability=0.51)
        votes = [
            worker.answer_verification(tiny_domain, "target", "helper")
            for _ in range(300)
        ]
        yes_rate = sum(votes) / len(votes)
        assert yes_rate == pytest.approx(0.51, abs=0.1)


class TestExamples:
    def test_examples_report_ground_truth(self, tiny_domain, honest):
        object_id, values = honest.provide_example(tiny_domain, ("target", "helper"))
        assert values["target"] == tiny_domain.true_value(object_id, "target")
        assert values["helper"] == tiny_domain.true_value(object_id, "helper")

    def test_examples_cover_many_objects(self, tiny_domain, honest):
        ids = {honest.provide_example(tiny_domain, ("target",))[0] for _ in range(100)}
        assert len(ids) > 20


class TestBiasedWorker:
    def test_bias_is_persistent_per_attribute(self, tiny_domain):
        worker = BiasedWorker(0, seed=3, bias_scale=5.0)
        truth = tiny_domain.true_value(0, "target")
        answers = [
            worker.answer_value(tiny_domain, 0, "target", worker.rng)
            for _ in range(300)
        ]
        # A strong persistent bias shifts the mean away from the truth.
        assert abs(np.mean(answers) - truth) > 0.5

    def test_bias_zero_scale_behaves_honestly(self, tiny_domain):
        worker = BiasedWorker(0, seed=3, bias_scale=0.0)
        truth = tiny_domain.true_value(0, "target")
        answers = [
            worker.answer_value(tiny_domain, 0, "target", worker.rng)
            for _ in range(300)
        ]
        assert np.mean(answers) == pytest.approx(truth, abs=0.25)

    def test_offline_and_stream_answers_share_the_bias(self, tiny_domain):
        # One strongly biased worker answers both the offline platform
        # (its own random stream) and the serving tier's per-coordinate
        # stream: both must carry the same per-attribute bias.
        pool = WorkerPool(size=1, seed=5)
        pool._workers[0] = BiasedWorker(0, seed=21, bias_scale=10.0)
        platform = CrowdPlatform(
            tiny_domain, pool=pool, recorder=AnswerRecorder(), seed=4
        )
        stream = DeterministicValueStream(platform)
        objects = range(0, 150)
        for attribute in ("target", "helper"):
            truth = np.array([tiny_domain.true_value(o, attribute) for o in objects])
            offline = np.array(
                [platform.ask_value(o, attribute, 2) for o in objects]
            )
            streamed = np.array([stream.answers(o, attribute, 0, 2) for o in objects])
            offline_bias = float(np.mean(offline - truth[:, None]))
            stream_bias = float(np.mean(streamed - truth[:, None]))
            noise_sd = np.sqrt(tiny_domain.difficulty(attribute))
            # The bias dwarfs the noise; the two means differ only by
            # noise averaged over 300 answers each.
            assert abs(offline_bias) > 2.0 * noise_sd
            assert offline_bias == pytest.approx(stream_bias, abs=0.4 * noise_sd)


class TestSpamWorker:
    def test_value_answers_uninformative(self, tiny_domain):
        worker = SpamWorker(0, seed=1)
        low, high = tiny_domain.answer_range("target")
        answers = [
            worker.answer_value(tiny_domain, 0, "target", worker.rng)
            for _ in range(200)
        ]
        assert all(low <= a <= high for a in answers)
        # Uniform over the range: variance far exceeds the honest noise.
        assert np.var(answers) > tiny_domain.difficulty("target")

    def test_dismantle_uniform_over_universe(self, tiny_domain):
        worker = SpamWorker(0, seed=1)
        answers = {worker.answer_dismantle(tiny_domain, "target") for _ in range(200)}
        assert answers == {"helper", "flag_a", "flag_b"}

    def test_verification_is_a_coin_flip(self, tiny_domain):
        worker = SpamWorker(0, seed=1)
        votes = [
            worker.answer_verification(tiny_domain, "target", "helper")
            for _ in range(400)
        ]
        assert 0.35 < sum(votes) / len(votes) < 0.65
