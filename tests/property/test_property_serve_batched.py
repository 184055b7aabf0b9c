"""Property tests: batched serve generation is byte-identical to scalar.

The serving engine's determinism story says the vectorized wave
generator (:meth:`~repro.serve.stream.DeterministicValueStream.
answers_many`, plus the batched fault path in
:class:`~repro.serve.faults.ResilientValueStream`) is a pure drop-in
for the scalar per-answer loop, and the worker ids it reads off its
batched draw equal the scalar provenance re-derivation.  These
properties quantify over the inputs the engine can actually produce —
random key spans, worker-pool compositions, stream and fault seeds
(including the multi-word seeds in ``[2**32, 2**63)`` the engine's
fault-seed mix produces) and fault profiles — and demand bit-for-bit
equality, sign of zero included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.domains.gaussian import GaussianDomain
from repro.serve.faults import FaultProfile, ResilientValueStream, RetryPolicy
from repro.serve.stream import DeterministicValueStream

from tests.conftest import make_tiny_spec

DOMAIN = GaussianDomain(make_tiny_spec(), n_objects=200, seed=7, name="tiny")

#: Canonical attributes plus synonym surface forms of flag_a.
ATTRIBUTES = ("target", "helper", "flag_a", "flag_b", "flagged", "marked")

#: Worker-pool compositions: all-honest, mixed, all-biased, all-spam,
#: and a single-worker pool (whose draw consumes no variate at all).
POOLS = (
    (30, 0.0, 0.0),
    (30, 0.2, 0.3),
    (30, 0.0, 1.0),
    (30, 1.0, 0.0),
    (1, 0.0, 1.0),
)

_platforms: dict[tuple, CrowdPlatform] = {}


def platform_for(pool_key: tuple, pool_seed: int) -> CrowdPlatform:
    key = (*pool_key, pool_seed)
    if key not in _platforms:
        size, spam, biased = pool_key
        _platforms[key] = CrowdPlatform(
            DOMAIN,
            pool=WorkerPool(
                size=size,
                seed=pool_seed,
                spam_fraction=spam,
                biased_fraction=biased,
            ),
            recorder=AnswerRecorder(),
            seed=3,
        )
    return _platforms[key]


requests_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=199),
        st.sampled_from(ATTRIBUTES),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=10,
)

#: One-word seeds and multi-word seeds up to the engine's 2**63 fault-seed
#: bound; both must stay on the batched path (and still match).
seed_strategy = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**63 - 1),
)


@settings(max_examples=40, deadline=None)
@given(
    pool_key=st.sampled_from(POOLS),
    pool_seed=st.integers(min_value=0, max_value=7),
    stream_seed=seed_strategy,
    requests=requests_strategy,
)
def test_batched_stream_matches_scalar(
    pool_key, pool_seed, stream_seed, requests
):
    platform = platform_for(pool_key, pool_seed)
    batched = DeterministicValueStream(platform, stream_seed)
    scalar = DeterministicValueStream(platform, stream_seed)
    results, _ = batched.answers_many(requests)
    assert len(results) == len(requests)
    for (object_id, attribute, start, count), got in zip(requests, results):
        expected = scalar.answers(object_id, attribute, start, count)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=40, deadline=None)
@given(
    pool_key=st.sampled_from(POOLS),
    pool_seed=st.integers(min_value=0, max_value=7),
    stream_seed=seed_strategy,
    requests=requests_strategy,
)
def test_batched_worker_ids_match_scalar(
    pool_key, pool_seed, stream_seed, requests
):
    platform = platform_for(pool_key, pool_seed)
    batched = DeterministicValueStream(platform, stream_seed)
    scalar = DeterministicValueStream(platform, stream_seed)
    answers, worker_ids = batched.answers_many(requests)
    assert len(worker_ids) == len(requests)
    for (object_id, attribute, start, count), got, ids in zip(
        requests, answers, worker_ids
    ):
        assert ids.dtype == np.int64
        assert ids.tolist() == scalar.worker_ids(object_id, attribute, start, count)
        expected = scalar.answers(object_id, attribute, start, count)
        assert np.array_equal(got, expected)


@pytest.mark.faults
@settings(max_examples=25, deadline=None)
@given(
    pool_key=st.sampled_from(POOLS),
    pool_seed=st.integers(min_value=0, max_value=3),
    fault_seed=seed_strategy,
    rate=st.sampled_from((0.0, 0.02, 0.1, 0.4, 0.8)),
    latency_mean=st.sampled_from((0.0, 0.05)),
    max_retries=st.integers(min_value=0, max_value=3),
    blocked=st.frozensets(
        st.integers(min_value=0, max_value=29), max_size=6
    ),
    requests=requests_strategy,
)
def test_batched_purchase_matches_scalar(
    pool_key,
    pool_seed,
    fault_seed,
    rate,
    latency_mean,
    max_retries,
    blocked,
    requests,
):
    platform = platform_for(pool_key, pool_seed)
    profile = FaultProfile.uniform(rate, latency_mean=latency_mean)
    policy = RetryPolicy(max_retries=max_retries, base_delay=0.01)

    def build() -> ResilientValueStream:
        return ResilientValueStream(
            DeterministicValueStream(platform), profile, policy, fault_seed
        )

    batch = build().purchase_batch(requests, blocked)
    scalar = build()
    assert len(batch) == len(requests)
    for request, got in zip(requests, batch):
        expected = scalar.purchase(*request, blocked)
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
