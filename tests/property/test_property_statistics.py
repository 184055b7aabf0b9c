"""Property-based tests for the statistics store invariants."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import (
    StatisticsStore,
    variance_estimate,
)


class TestVarianceEstimateProperties:
    @given(st.lists(st.floats(-1e4, 1e4), min_size=0, max_size=12))
    def test_nonnegative(self, answers):
        assert variance_estimate(answers) >= 0.0

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=12))
    def test_shift_invariant(self, answers):
        shifted = [a + 17.5 for a in answers]
        assert variance_estimate(shifted) == (
            __import__("pytest").approx(variance_estimate(answers), rel=1e-6, abs=1e-6)
        )

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=12),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_scale_quadratic(self, answers, scale):
        import pytest

        scaled = [a * scale for a in answers]
        assert variance_estimate(scaled) == pytest.approx(
            variance_estimate(answers) * scale**2, rel=1e-6, abs=1e-6
        )

    @given(st.floats(-1e3, 1e3), st.integers(min_value=2, max_value=10))
    def test_constant_answers_zero_variance(self, value, count):
        import pytest

        assert variance_estimate([value] * count) == pytest.approx(0.0, abs=1e-12)


@st.composite
def populated_store(draw):
    """A single-target store with 1-3 attributes of random crowd data."""
    seed = draw(st.integers(0, 10_000))
    n_attributes = draw(st.integers(1, 3))
    n_examples = draw(st.integers(5, 40))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(seed)
    store = StatisticsStore(("t",), k=k)
    pool = store.pool("t")
    target = rng.normal(0, 2, n_examples)
    for i in range(n_examples):
        pool.add_example(i, float(target[i]))
    for index in range(n_attributes):
        name = f"a{index}"
        mixing = rng.uniform(-1, 1)
        true = mixing * target + rng.normal(0, 1, n_examples)
        noise = rng.uniform(0.05, 2.0)
        batches = [
            [float(true[i] + rng.normal(0, np.sqrt(noise))) for _ in range(k)]
            for i in range(n_examples)
        ]
        store.register_attribute(name, {"t"})
        pool.record_answers(name, batches)
    return store


class TestStoreInvariants:
    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_scalar_statistics_nonnegative(self, store):
        for attribute in store.attributes:
            assert store.s_c(attribute) >= 0.0
            assert store.answer_variance(attribute) > 0.0
            # S_o is signed; only its magnitude is bounded by construction.
            s_o = store.s_o_measured("t", attribute)
            assert s_o is None or abs(s_o) < 1e6

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_s_a_symmetric(self, store):
        for a in store.attributes:
            for b in store.attributes:
                assert store.s_a_entry(a, b) == store.s_a_entry(b, a)

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_shrunk_never_exceeds_measured(self, store):
        for attribute in store.attributes:
            measured = store.s_o_measured("t", attribute)
            shrunk = store.s_o_shrunk("t", attribute)
            if measured is not None:
                assert abs(shrunk) <= abs(measured) + 1e-12
                assert shrunk * measured >= 0.0  # sign preserved (or zero)

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_assemble_consistency(self, store):
        attributes = list(store.attributes)
        s_o, s_a, s_c = store.assemble(attributes, "t")
        target_variance = store.target_variance("t")
        diag = np.diag(s_a)
        assert (diag > 0).all()
        assert np.allclose(s_a, s_a.T)
        # Cauchy-Schwarz after projection.
        cap = store.RHO_CAP
        for i in range(len(attributes)):
            assert abs(s_o[i]) <= cap * np.sqrt(diag[i] * target_variance) + 1e-9
            for j in range(len(attributes)):
                if i != j:
                    assert abs(s_a[i, j]) <= cap * np.sqrt(diag[i] * diag[j]) + 1e-9

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_rho_in_unit_interval(self, store):
        for attribute in store.attributes:
            rho = store.rho("t", attribute)
            if rho is not None:
                assert -1.0 <= rho <= 1.0


# -- the memo against a recompute ------------------------------------------

TARGETS = ("t", "u")
NAMES = ("t", "u", "a", "b", "c")
answers = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
operations = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(TARGETS), answers),
    st.tuples(
        st.just("record"),
        st.sampled_from(NAMES),
        st.sampled_from(TARGETS),
        st.lists(st.lists(answers, max_size=3), min_size=1, max_size=4),
    ),
    st.tuples(
        st.just("append"),
        st.sampled_from(NAMES),
        st.sampled_from(TARGETS),
        st.integers(0, 8),
        st.lists(answers, min_size=1, max_size=2),
    ),
    st.tuples(
        st.just("register"),
        st.sampled_from(NAMES),
        st.frozensets(st.sampled_from(TARGETS), min_size=1),
    ),
    st.tuples(st.just("drop"), st.sampled_from(NAMES[2:])),
    st.tuples(st.just("restore"), st.integers(0, 100)),
)


def apply(store: StatisticsStore, operation: tuple, snapshots: list[str]) -> None:
    kind, *args = operation
    if kind == "add":
        target, value = args
        pool = store.pool(target)
        pool.add_example(len(pool), value)
    elif kind == "record":
        attribute, target, batches = args
        pool = store.pool(target)
        room = len(pool) - pool.n_measured(attribute)
        if room > 0:
            pool.record_answers(attribute, batches[:room])
    elif kind == "append":
        attribute, target, index, extra = args
        pool = store.pool(target)
        if index < pool.n_measured(attribute):
            pool.append_to_batch(attribute, index, extra)
    elif kind == "register":
        attribute, targets = args
        store.register_attribute(attribute, set(targets))
    elif kind == "drop":
        store.drop_attribute(args[0])
    else:
        store.restore_state(json.loads(snapshots[args[0] % len(snapshots)]))


def every_statistic(store: StatisticsStore) -> list:
    """Every statistic the store serves, as exact bytes."""
    values: list = [store.target_variance(target) for target in TARGETS]
    for a in NAMES:
        values += [store.s_c(a), store.answer_variance(a), store._denoised_variance(a)]
        for target in TARGETS:
            values += [
                store.s_o_measured(target, a),
                store.s_o_shrunk(target, a),
                store.rho(target, a),
            ]
        for b in NAMES:
            values += [store.s_a_entry(a, b), store._s_a_shrunk(a, b)]
    exact = [None if v is None else float(v).hex() for v in values]
    for target in TARGETS:
        for fill in (None, lambda _store, _target, _attribute: 0.25):
            matrices = store.assemble(list(store.attributes), target, fill)
            exact += [matrix.tobytes() for matrix in matrices]
    return exact


class TestMemoMatchesRecompute:
    @given(st.lists(operations, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_rebuilt_store(self, script):
        store = StatisticsStore(TARGETS, k=2)
        snapshots = [json.dumps(store.state_dict())]
        every_statistic(store)  # memoize the empty store's statistics too
        for operation in script:
            apply(store, operation, snapshots)
            snapshot = json.dumps(store.state_dict())
            snapshots.append(snapshot)
            rebuilt = StatisticsStore(TARGETS, k=2)
            rebuilt.restore_state(json.loads(snapshot))
            assert every_statistic(store) == every_statistic(rebuilt), operation
