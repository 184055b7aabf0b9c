"""Property-based tests for the aggregation determinism contract.

The two load-bearing properties (DESIGN.md §16):

* a reliability aggregator whose learned precisions are all equal is
  *bitwise* identical to the historical uniform mean — this is what
  keeps an honest crowd's estimates byte-stable when the strategy flips;
* weighted aggregation with *unequal* weights is invariant under any
  permutation of the (value, worker) pairs — this is what keeps
  results independent of answer arrival order, because ``fsum`` is
  exactly rounded over the product multiset.

Plus the streaming model's split invariance: absorbing a tape in any
chunking yields the same state as absorbing it whole, which is the
crash-resume byte-identity argument for the serving engine.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.agg import (
    ReliabilityAggregator,
    ReliabilityModel,
    effective_sample_size,
    weighted_mean,
)

pytestmark = pytest.mark.agg

finite_values = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)

positive_weights = st.lists(
    st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestEqualPrecisionsBitwiseUniform:
    @given(finite_values, st.floats(0.1, 10.0))
    def test_equal_weights_fall_through_to_np_mean(self, values, weight):
        assert weighted_mean(values, [weight] * len(values)) == float(
            np.mean(np.asarray(values, dtype=np.float64))
        )

    @given(finite_values)
    def test_unobserved_model_is_bitwise_uniform(self, values):
        # Every worker unknown -> every weight exactly 1.0 -> the
        # equal-weights branch returns the historical arrival-order mean.
        aggregator = ReliabilityAggregator(ReliabilityModel())
        worker_ids = list(range(len(values)))
        assert aggregator.aggregate(values, worker_ids) == float(
            np.mean(np.asarray(values, dtype=np.float64))
        )

    @given(finite_values, st.floats(0.5, 4.0))
    def test_identically_observed_workers_bitwise_uniform(self, values, noise):
        # Workers with *identical* residual moments learn identical
        # precisions; identical precisions must aggregate bitwise like
        # uniform no matter what the shared precision value is.
        model = ReliabilityModel()
        for wid in range(len(values)):
            model._n[wid] = 10.0
            model._ss[wid] = 10.0 * noise
        aggregator = ReliabilityAggregator(model)
        assert aggregator.aggregate(values, list(range(len(values)))) == float(
            np.mean(np.asarray(values, dtype=np.float64))
        )


class TestPermutationInvariance:
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=2,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_weighted_mean_any_order(self, pairs, rand):
        values = [value for value, _ in pairs]
        weights = [weight for _, weight in pairs]
        # All-equal weights take the historical arrival-order np.mean
        # fast path, which is deliberately *not* permutation-invariant
        # (see weighted_mean's docstring); the fsum contract this test
        # pins only covers unequal weights.
        assume(any(w != weights[0] for w in weights))
        reference = weighted_mean(values, weights)
        shuffled = list(pairs)
        rand.shuffle(shuffled)
        permuted = weighted_mean(
            [value for value, _ in shuffled], [weight for _, weight in shuffled]
        )
        assert permuted == reference  # bitwise, not approx

    @given(positive_weights, st.randoms(use_true_random=False))
    def test_effective_sample_size_any_order(self, weights, rand):
        reference = effective_sample_size(weights)
        shuffled = list(weights)
        rand.shuffle(shuffled)
        assert effective_sample_size(shuffled) == reference

    @given(positive_weights)
    def test_ess_bounds(self, weights):
        ess = effective_sample_size(weights)
        assert 0.0 < ess <= len(weights) + 1e-9


class TestStreamingSplitInvariance:
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=2,
            max_size=16,
        ),
        st.data(),
    )
    @settings(max_examples=60)
    def test_any_chunking_matches_one_shot(self, tape, data):
        values = [value for value, _ in tape]
        workers = [worker for _, worker in tape]
        whole = ReliabilityModel()
        whole.observe(values, workers, start=0)
        split = data.draw(
            st.integers(min_value=1, max_value=len(values) - 1), label="split"
        )
        chunked = ReliabilityModel()
        chunked.observe(values[:split], workers[:split], start=0)
        chunked.observe(values, workers[split:], start=split)
        assert chunked.state_dict() == whole.state_dict()  # bitwise

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=10,
        )
    )
    def test_from_index_skips_absorbed_prefix(self, values):
        workers = [index % 3 for index in range(len(values))]
        once = ReliabilityModel()
        once.observe(values, workers, start=0)
        # Re-observing the same span with from_index is a no-op, the
        # idempotence the journal-tail merge relies on.
        recorded = once.observe(values, workers, start=0, from_index=len(values))
        assert recorded == 0
        again = ReliabilityModel()
        again.observe(values, workers, start=0)
        assert once.state_dict() == again.state_dict()


class TestPrecisionSanity:
    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_precisions_clamped_and_finite(self, values):
        model = ReliabilityModel()
        workers = [index % 4 for index in range(len(values))]
        model.observe(values, workers, start=0)
        for precision in model.precisions().values():
            assert model.floor <= precision <= model.ceil
            assert math.isfinite(precision)

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_gain_in_declared_range(self, values):
        model = ReliabilityModel()
        workers = [index % 4 for index in range(len(values))]
        model.observe(values, workers, start=0)
        assert 1.0 <= model.gain() <= model.gain_cap
        assert 1.0 <= model.gain(workers) <= model.gain_cap
