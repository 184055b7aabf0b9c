"""Unit tests for the worker pool."""

import numpy as np
import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.crowd.worker import (
    BiasedWorker,
    CollusionRingWorker,
    DriftingWorker,
    HonestWorker,
    SleeperWorker,
    SpamWorker,
)
from repro.errors import ConfigurationError
from repro.serve.stream import DeterministicValueStream


class TestPoolComposition:
    def test_default_pool_is_all_honest(self):
        pool = WorkerPool(size=50, seed=0)
        assert len(pool) == 50
        assert all(type(w) is HonestWorker for w in pool.workers)

    def test_spam_fraction_respected(self):
        pool = WorkerPool(size=100, seed=0, spam_fraction=0.2)
        spam = [w for w in pool.workers if isinstance(w, SpamWorker)]
        assert len(spam) == 20

    def test_biased_fraction_respected(self):
        pool = WorkerPool(size=100, seed=0, biased_fraction=0.3)
        biased = [w for w in pool.workers if isinstance(w, BiasedWorker)]
        assert len(biased) == 30

    def test_mixed_composition(self):
        pool = WorkerPool(size=100, seed=0, spam_fraction=0.1, biased_fraction=0.2)
        spam = sum(isinstance(w, SpamWorker) for w in pool.workers)
        biased = sum(isinstance(w, BiasedWorker) for w in pool.workers)
        assert (spam, biased) == (10, 20)

    def test_worker_ids_are_stable_and_unique(self):
        pool = WorkerPool(size=30, seed=0)
        assert [w.worker_id for w in pool.workers] == list(range(30))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(size=10, spam_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkerPool(size=10, spam_fraction=0.6, biased_fraction=0.6)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(size=0)

    def test_skill_spread_produces_heterogeneous_workers(self):
        pool = WorkerPool(size=50, seed=0, skill_spread=0.5)
        skills = {w.skill for w in pool.workers}
        assert len(skills) > 10


class TestAdversarialPersonas:
    def test_persona_fractions_respected(self):
        pool = WorkerPool(
            size=100,
            seed=0,
            colluding_fraction=0.1,
            drifting_fraction=0.2,
            sleeper_fraction=0.1,
        )
        ring = sum(isinstance(w, CollusionRingWorker) for w in pool.workers)
        drift = sum(isinstance(w, DriftingWorker) for w in pool.workers)
        sleep = sum(isinstance(w, SleeperWorker) for w in pool.workers)
        assert (ring, drift, sleep) == (10, 20, 10)

    def test_ring_shares_one_error_per_question(self, tiny_domain):
        pool = WorkerPool(size=10, seed=1, colluding_fraction=0.3)
        first, second, *_ = [
            w for w in pool.workers if isinstance(w, CollusionRingWorker)
        ]
        # Same (attribute, object) -> the same shared error for every
        # member; different objects -> different errors (zero-mean over
        # the database, so no fitted intercept can absorb the attack).
        assert first._ring_bias(tiny_domain, "target", 5) == second._ring_bias(
            tiny_domain, "target", 5
        )
        errors = {first._ring_bias(tiny_domain, "target", o) for o in range(6)}
        assert len(errors) == 6

    def test_ring_bias_enters_both_answer_paths(self, tiny_domain):
        ring = CollusionRingWorker(0, seed=11, ring_seed=99, bias_scale=2.0)
        twin = HonestWorker(0, seed=11)
        shared = ring._ring_bias(tiny_domain, "target", 3)
        # The worker's own stream (offline platform) and a fresh
        # per-coordinate stream (serving tier) both carry the error.
        for ring_rng, twin_rng in (
            (ring.rng, twin.rng),
            (np.random.default_rng(5), np.random.default_rng(5)),
        ):
            delta = ring.answer_value(
                tiny_domain, 3, "target", ring_rng
            ) - twin.answer_value(tiny_domain, 3, "target", twin_rng)
            assert delta == pytest.approx(shared)

    def test_ring_vectorized_path_matches_scalar_bias(self, tiny_domain):
        # Ring lanes have no array kernel: the batched stream replays
        # them through the scalar answer, shared error included.
        pool = WorkerPool(size=10, seed=1, colluding_fraction=0.5)
        platform = CrowdPlatform(
            tiny_domain, pool=pool, recorder=AnswerRecorder(), seed=3
        )
        requests = [(object_id, "target", 0, 12) for object_id in (0, 3, 7)]
        batched, _ = DeterministicValueStream(platform).answers_many(requests)
        scalar = DeterministicValueStream(platform)
        for (object_id, attribute, start, count), answers in zip(requests, batched):
            np.testing.assert_array_equal(
                answers, scalar.answers(object_id, attribute, start, count)
            )

    def test_drifting_worker_noise_grows_with_object_id(self, tiny_domain):
        worker = DriftingWorker(0, seed=2, drift_rate=0.5)
        early = worker._noise_sd(tiny_domain, 0, "target")
        late = worker._noise_sd(tiny_domain, 100, "target")
        assert late > early
        assert late == pytest.approx(early * np.sqrt(1 + 0.5 * 100))

    def test_sleeper_honest_below_patience_spam_after(self, tiny_domain):
        sleeper = SleeperWorker(0, seed=4, patience=10)
        twin = HonestWorker(0, seed=4)
        assert sleeper.answer_value(
            tiny_domain, 9, "target", np.random.default_rng(5)
        ) == twin.answer_value(
            tiny_domain, 9, "target", np.random.default_rng(5)
        )
        low, high = tiny_domain.answer_range("target")
        spam = sleeper.answer_value(
            tiny_domain, 10, "target", np.random.default_rng(5)
        )
        assert low <= spam <= high


class TestPoolSampling:
    def test_draw_returns_pool_members(self):
        pool = WorkerPool(size=10, seed=0)
        for _ in range(50):
            assert pool.draw() in pool.workers

    def test_draw_covers_population(self):
        pool = WorkerPool(size=10, seed=0)
        seen = {pool.draw().worker_id for _ in range(300)}
        assert seen == set(range(10))

    def test_draw_distinct_returns_unique_workers(self):
        pool = WorkerPool(size=20, seed=0)
        drawn = pool.draw_distinct(15)
        assert len({w.worker_id for w in drawn}) == 15

    def test_draw_distinct_beyond_population_falls_back(self):
        pool = WorkerPool(size=5, seed=0)
        drawn = pool.draw_distinct(12)
        assert len(drawn) == 12

    def test_same_seed_reproducible(self):
        ids_a = [WorkerPool(size=10, seed=4).draw().worker_id for _ in range(1)]
        ids_b = [WorkerPool(size=10, seed=4).draw().worker_id for _ in range(1)]
        assert ids_a == ids_b
