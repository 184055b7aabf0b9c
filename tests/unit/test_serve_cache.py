"""Unit tests for the answer cache, its sources and the answer stream."""

import numpy as np
import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.recording import AnswerRecorder
from repro.errors import BudgetExhaustedError
from repro.serve import (
    AnswerCache,
    CachedAnswerSource,
    CacheReadSource,
    DeterministicValueStream,
)


class TestAnswerCache:
    def test_shortfall_shrinks_as_answers_land(self):
        cache = AnswerCache()
        assert cache.shortfall(1, "a", 5) == 5
        cache.add(1, "a", [1.0, 2.0])
        assert cache.shortfall(1, "a", 5) == 3
        cache.add(1, "a", [3.0, 4.0, 5.0])
        assert cache.shortfall(1, "a", 5) == 0
        assert cache.shortfall(1, "a", 3) == 0

    def test_add_returns_append_position(self):
        cache = AnswerCache()
        assert cache.add(1, "a", [1.0]) == 0
        assert cache.add(1, "a", [2.0, 3.0]) == 1
        assert cache.answers(1, "a", 10).tolist() == [1.0, 2.0, 3.0]

    def test_keys_are_object_and_attribute(self):
        cache = AnswerCache()
        cache.add(1, "a", [1.0])
        cache.add(2, "a", [2.0])
        cache.add(1, "b", [3.0])
        assert cache.count(1, "a") == 1
        assert cache.count(2, "a") == 1
        assert cache.count(1, "b") == 1
        assert cache.total_answers == 3
        assert len(cache) == 3

    def test_snapshot_roundtrip(self):
        cache = AnswerCache()
        cache.add(1, "a", [1.5, 2.5])
        cache.add(7, "b", [0.25])
        cache.note_hits(3)
        cache.note_misses(2)
        restored = AnswerCache.from_snapshot(cache.snapshot())
        assert restored.answers(1, "a", 5).tolist() == [1.5, 2.5]
        assert restored.answers(7, "b", 5).tolist() == [0.25]
        assert restored.hits == 3
        assert restored.misses == 2


class TestDeterministicValueStream:
    def test_answers_are_pure_functions_of_index(self, tiny_platform):
        stream = DeterministicValueStream(tiny_platform)
        # Any access order, any batch split: identical values.
        forward = [stream.answer(5, "target", i) for i in range(6)]
        backward = [stream.answer(5, "target", i) for i in reversed(range(6))]
        assert forward == list(reversed(backward))
        assert stream.answers(5, "target", 0, 6).tolist() == forward
        assert stream.answers(5, "target", 2, 3).tolist() == forward[2:5]

    def test_streams_differ_across_keys(self, tiny_platform):
        stream = DeterministicValueStream(tiny_platform)
        assert stream.answer(1, "target", 0) != stream.answer(2, "target", 0)
        assert stream.answer(1, "target", 0) != stream.answer(1, "helper", 0)

    def test_synonyms_share_the_canonical_stream(self, tiny_platform):
        stream = DeterministicValueStream(tiny_platform)
        assert stream.answer(4, "flagged", 0) == stream.answer(4, "flag_a", 0)

    def test_answers_unbiased_around_truth(self, tiny_platform, tiny_domain):
        stream = DeterministicValueStream(tiny_platform)
        answers = stream.answers(9, "target", 0, 400)
        assert np.mean(answers) == pytest.approx(
            tiny_domain.true_value(9, "target"), abs=0.15
        )


class TestCachedAnswerSource:
    def test_buys_only_the_shortfall(self, tiny_platform):
        source = CachedAnswerSource(tiny_platform)
        first = source.fetch(1, "target", 4)
        spent_after_first = tiny_platform.ledger.total_spent
        again = source.fetch(1, "target", 4)
        assert np.array_equal(again, first)
        assert tiny_platform.ledger.total_spent == spent_after_first
        assert tiny_platform.ledger.total_saved_answers == 4
        more = source.fetch(1, "target", 6)
        assert np.array_equal(more[:4], first)
        # Only the 2 extra answers were purchased.
        assert tiny_platform.ledger.questions_by_category["value"] == 6

    def test_savings_recorded_in_cents(self, tiny_platform):
        source = CachedAnswerSource(tiny_platform)
        source.fetch(1, "target", 5)
        source.fetch(1, "target", 5)
        price = tiny_platform.value_price("target")
        assert tiny_platform.ledger.total_saved == pytest.approx(5 * price)

    def test_replay_determinism_across_instances(self, tiny_domain):
        def answers(n):
            platform = CrowdPlatform(
                tiny_domain, recorder=AnswerRecorder(), seed=11
            )
            return CachedAnswerSource(platform).fetch(2, "target", n)

        assert np.array_equal(answers(5), answers(5))
        assert np.array_equal(answers(8)[:5], answers(5))

    def test_budget_exhaustion_buys_nothing(self, tiny_domain):
        platform = CrowdPlatform(
            tiny_domain,
            recorder=AnswerRecorder(),
            seed=11,
            budget=Budget(1.0),  # 2 numeric answers at 0.4c each fit, 5 don't
        )
        source = CachedAnswerSource(platform)
        with pytest.raises(BudgetExhaustedError):
            source.fetch(1, "target", 5)
        assert source.cache.total_answers == 0
        assert platform.ledger.total_spent == 0
        # A smaller request still fits.
        assert len(source.fetch(1, "target", 2)) == 2


class TestCacheReadSource:
    def test_reads_never_purchase(self, tiny_platform):
        cache = AnswerCache()
        cache.add(1, "target", [1.0, 2.0])
        source = CacheReadSource(cache)
        assert source.fetch(1, "target", 2).tolist() == [1.0, 2.0]
        # Asking beyond the cache returns the prefix, buys nothing.
        assert source.fetch(1, "target", 9).tolist() == [1.0, 2.0]
        assert source.fetch(2, "target", 3).tolist() == []
        assert tiny_platform.ledger.total_spent == 0
