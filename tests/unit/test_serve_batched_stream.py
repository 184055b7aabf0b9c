"""Unit tests: the batched serve path is byte-identical to the scalar one.

:meth:`~repro.serve.stream.DeterministicValueStream.answers_many` (and
the batched fault path, :meth:`~repro.serve.faults.ResilientValueStream.
purchase_batch`) must give the same values, same bits, for any request
mix as the scalar per-coordinate oracle (``answers`` / ``purchase``) —
the engine's determinism rests on it.  These are the deterministic
fixed-seed checks; the randomized sweeps live in
``tests/property/test_property_serve_batched.py``.
"""

import numpy as np
import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.crowd.worker import HonestWorker
from repro.errors import ConfigurationError
from repro.serve import DeterministicValueStream
from repro.serve.faults import FaultProfile, ResilientValueStream, RetryPolicy
from repro.serve.stream import seed_words

REQUESTS = (
    (5, "target", 0, 6),
    (5, "target", 6, 3),  # contiguous continuation of the same key
    (9, "helper", 2, 4),
    (1, "flag_a", 0, 5),  # binary: exercises clipping
    (1, "flagged", 5, 2),  # synonym of flag_a
    (0, "flag_b", 0, 1),
    (7, "helper", 0, 0),  # empty span
)


def make_platform(tiny_domain, pool=None, seed=3):
    return CrowdPlatform(
        tiny_domain, pool=pool, recorder=AnswerRecorder(), seed=seed
    )


def assert_streams_agree(platform, requests=REQUESTS, seed=None):
    batched = DeterministicValueStream(platform, seed)
    scalar = DeterministicValueStream(platform, seed)
    results, _ = batched.answers_many(list(requests))
    assert len(results) == len(requests)
    for (object_id, attribute, start, count), got in zip(requests, results):
        expected = scalar.answers(object_id, attribute, start, count)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestBatchedValueStream:
    def test_matches_scalar_honest_pool(self, tiny_platform):
        assert_streams_agree(tiny_platform)

    def test_matches_scalar_mixed_pool(self, tiny_domain):
        pool = WorkerPool(
            size=40, seed=11, spam_fraction=0.25, biased_fraction=0.35
        )
        assert_streams_agree(make_platform(tiny_domain, pool))

    def test_matches_scalar_single_worker_pool(self, tiny_domain):
        # n == 1 consumes no worker draw at all; the batched tape must
        # skip that draw too or every later variate shifts.
        pool = WorkerPool(size=1, seed=5, biased_fraction=1.0)
        assert_streams_agree(make_platform(tiny_domain, pool))

    def test_large_seed_matches_scalar(self, tiny_domain, monkeypatch):
        # A seed beyond uint32 enters the entropy matrix as several
        # words and stays on the batched path: only kernel-rejected
        # lanes are replayed through the scalar answer.
        platform = make_platform(tiny_domain)
        lanes = sum(count for *_, count in REQUESTS)
        for seed in (2**32, 18_581_050_328, 2**40, 2**63 - 1):
            assert_streams_agree(platform, seed=seed)
            stream = DeterministicValueStream(platform, seed)
            replayed = []
            scalar_answer = stream.answer

            def counting_answer(*coordinate):
                replayed.append(coordinate)
                return scalar_answer(*coordinate)

            monkeypatch.setattr(stream, "answer", counting_answer)
            stream.answers_many(list(REQUESTS))
            assert len(replayed) < lanes // 4, seed

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 18_581_050_328, 2**70])
    def test_seed_words_match_seed_sequence(self, seed):
        coordinate = [seed, 17, 0xDEADBEEF, 3]
        words = np.array(seed_words(seed) + coordinate[1:], dtype=np.uint32)
        assert np.array_equal(
            np.random.SeedSequence(words).generate_state(4),
            np.random.SeedSequence(coordinate).generate_state(4),
        )

    def test_negative_seed_rejected(self, tiny_platform):
        with pytest.raises(ConfigurationError, match="non-negative"):
            DeterministicValueStream(tiny_platform, -1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            ResilientValueStream(
                DeterministicValueStream(tiny_platform),
                FaultProfile.uniform(0.1),
                RetryPolicy(),
                seed=-5,
            )

    def test_worker_subclass_falls_back_scalar(self, tiny_domain):
        class ShiftedWorker(HonestWorker):
            def answer_value(self, domain, object_id, attribute, rng):
                return super().answer_value(domain, object_id, attribute, rng) + 100.0

        pool = WorkerPool(size=8, seed=2)
        pool._workers[3] = ShiftedWorker(
            worker_id=pool.workers[3].worker_id, seed=123
        )
        platform = make_platform(tiny_domain, pool)
        assert_streams_agree(platform)
        # The override genuinely fired somewhere in a long span.
        answers, _ = DeterministicValueStream(platform).answers_many(
            [(5, "target", 0, 200)]
        )
        assert (answers[0] > 50.0).any()

    def test_empty_request_list(self, tiny_platform):
        stream = DeterministicValueStream(tiny_platform)
        assert stream.answers_many([]) == ([], [])

    def test_worker_ids_read_off_the_batched_draw(self, tiny_domain, monkeypatch):
        platform = make_platform(
            tiny_domain, WorkerPool(size=40, seed=11, spam_fraction=0.25)
        )
        scalar = DeterministicValueStream(platform)
        stream = DeterministicValueStream(platform)
        derived = []
        monkeypatch.setattr(
            stream, "worker_ids", lambda *span: derived.append(span)
        )
        answers, worker_ids = stream.answers_many(list(REQUESTS))
        assert derived == []
        for (object_id, attribute, start, count), got, ids in zip(
            REQUESTS, answers, worker_ids
        ):
            assert ids.tolist() == scalar.worker_ids(object_id, attribute, start, count)
            expected = scalar.answers(object_id, attribute, start, count)
            assert np.array_equal(got, expected)

    def test_rejected_worker_draws_rederive_scalar(self, tiny_domain, monkeypatch):
        # Lemire rejections are O(n / 2**32) rare: force every other
        # lane's worker draw to be rejected, with a wrong index there.
        from repro.serve import stream as stream_module

        draw = stream_module.lemire_integers

        def rejecting(raw, n):
            values, ok = draw(raw, n)
            values[::2] = (values[::2] + 1) % n
            ok[::2] = False
            return values, ok

        monkeypatch.setattr(stream_module, "lemire_integers", rejecting)
        platform = make_platform(tiny_domain, WorkerPool(size=40, seed=11))
        scalar = DeterministicValueStream(platform)
        stream = DeterministicValueStream(platform)
        answers, worker_ids = stream.answers_many(list(REQUESTS))
        for (object_id, attribute, start, count), got, ids in zip(
            REQUESTS, answers, worker_ids
        ):
            assert ids.tolist() == scalar.worker_ids(object_id, attribute, start, count)
            expected = scalar.answers(object_id, attribute, start, count)
            assert np.array_equal(got, expected)


class TestPurchaseBatch:
    CONFIGS = (
        # (fault rate, latency_mean, spam, biased, blocked, retries)
        (0.1, 0.05, 0.2, 0.3, frozenset(), 3),
        (0.3, 0.0, 0.0, 0.0, frozenset(), 0),
        (0.02, 0.1, 0.5, 0.5, frozenset({1, 5, 9}), 2),
        (0.0, 0.05, 0.0, 1.0, frozenset(), 3),
    )

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_scalar_purchase(self, tiny_domain, config):
        rate, latency, spam, biased, blocked, retries = config
        pool = WorkerPool(
            size=30, seed=7, spam_fraction=spam, biased_fraction=biased
        )
        platform = make_platform(tiny_domain, pool)
        profile = FaultProfile.uniform(rate, latency_mean=latency)
        policy = RetryPolicy(max_retries=retries, base_delay=0.01)
        requests = [r for r in REQUESTS if r[3]]

        def build():
            return ResilientValueStream(
                DeterministicValueStream(platform), profile, policy, seed=1234
            )

        batch = build().purchase_batch(requests, blocked)
        scalar_stream = build()
        for request, got in zip(requests, batch):
            expected = scalar_stream.purchase(*request, blocked)
            assert got.answers == expected.answers
            assert [np.signbit(a) for a in got.answers] == [
                np.signbit(a) for a in expected.answers
            ]
            assert got.lost == expected.lost
            assert got.attempts == expected.attempts
            assert got.retries == expected.retries
            assert got.timeouts == expected.timeouts
            assert got.abandons == expected.abandons
            assert got.garbage == expected.garbage
            assert got.sim_seconds == expected.sim_seconds

    def test_zero_count_keys(self, tiny_platform):
        resilient = ResilientValueStream(
            DeterministicValueStream(tiny_platform),
            FaultProfile.uniform(0.1),
            RetryPolicy(max_retries=1),
            seed=5,
        )
        batch = resilient.purchase_batch(
            [(1, "target", 0, 0), (2, "helper", 3, 0)], frozenset()
        )
        assert [p.answers for p in batch] == [[], []]
        assert all(p.lost == 0 and not p.attempts for p in batch)
