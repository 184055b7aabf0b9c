"""Unit tests for the statistics store (S_o, S_a, S_c estimation)."""

import numpy as np
import pytest

from repro.core.statistics import (
    ExamplePool,
    StatisticsStore,
    variance_estimate,
)
from repro.errors import ConfigurationError


class TestVarianceEstimate:
    def test_single_answer_is_zero(self):
        assert variance_estimate([5.0]) == 0.0
        assert variance_estimate([]) == 0.0

    def test_pair_formula(self):
        # Unbiased variance of two answers: (a-b)^2 / 2.
        assert variance_estimate([1.0, 3.0]) == pytest.approx(2.0)

    def test_matches_numpy_ddof1(self):
        answers = [1.0, 2.0, 4.0, 8.0]
        assert variance_estimate(answers) == pytest.approx(
            float(np.var(answers, ddof=1))
        )


class TestExamplePool:
    def test_add_and_measure(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        pool.add_example(2, 20.0)
        pool.record_answers("a", [[1.0, 3.0], [2.0, 4.0]])
        assert pool.n_measured("a") == 2
        assert list(pool.answer_means("a")) == [2.0, 3.0]
        assert list(pool.within_variances("a")) == [2.0, 2.0]

    def test_record_beyond_examples_rejected(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        with pytest.raises(ConfigurationError):
            pool.record_answers("a", [[1.0], [2.0]])

    def test_append_to_batch(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        pool.record_answers("a", [[1.0]])
        pool.append_to_batch("a", 0, [3.0])
        assert pool.batch("a", 0) == [1.0, 3.0]

    def test_append_to_missing_batch_rejected(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        with pytest.raises(ConfigurationError):
            pool.append_to_batch("a", 0, [1.0])

    def test_version_bumps_on_mutation(self):
        pool = ExamplePool("t")
        pool.add_example(1, 1.0)
        pool.add_example(2, 2.0)
        assert pool.target_version == 2
        pool.record_answers("a", [[1.0]])
        assert (pool.batch_version("a"), pool.batch_version("b")) == (1, 0)
        pool.record_answers("b", [[1.0], [2.0]])
        pool.append_to_batch("a", 0, [3.0])
        # Each mutation bumps only its own counter.
        assert pool.target_version == 2
        assert (pool.batch_version("a"), pool.batch_version("b")) == (2, 1)


def build_store(
    n: int = 400,
    k: int = 2,
    noise: float = 1.0,
    seed: int = 0,
    rho: float = 0.8,
) -> StatisticsStore:
    """A store over synthetic data with exactly known moments.

    Target ~ N(0, 4); attribute 'a' has true values correlated ``rho``
    with the target and unit variance; worker noise variance ``noise``.
    """
    rng = np.random.default_rng(seed)
    target = rng.normal(0, 2.0, n)
    a_true = rho * target / 2.0 + np.sqrt(1 - rho**2) * rng.normal(0, 1.0, n)
    store = StatisticsStore(("t",), k=k)
    pool = store.pool("t")
    for i in range(n):
        pool.add_example(i, float(target[i]))
    batches = [
        [float(a_true[i] + rng.normal(0, np.sqrt(noise))) for _ in range(k)]
        for i in range(n)
    ]
    store.register_attribute("a", {"t"})
    pool.record_answers("a", batches)
    return store


class TestStatisticsEstimation:
    def test_s_c_estimates_worker_noise(self):
        store = build_store(noise=1.5)
        assert store.s_c("a") == pytest.approx(1.5, rel=0.2)

    def test_denoised_variance_estimates_true_variance(self):
        store = build_store(noise=2.0)
        # True de-noised variance is Var(a_true) = 1.0.
        assert store.s_a_entry("a", "a") == pytest.approx(1.0, rel=0.35)

    def test_s_o_estimates_covariance(self):
        store = build_store(rho=0.8)
        # |Cov(a_true, target)| = rho * sigma_a * sigma_t = 0.8 * 1 * 2.
        assert store.s_o_measured("t", "a") == pytest.approx(1.6, rel=0.25)

    def test_target_variance(self):
        store = build_store()
        assert store.target_variance("t") == pytest.approx(4.0, rel=0.25)

    def test_answer_variance_combines_signal_and_noise(self):
        store = build_store(noise=1.0)
        assert store.answer_variance("a") == pytest.approx(2.0, rel=0.3)

    def test_rho_normalized(self):
        store = build_store(rho=0.8, noise=0.01)
        assert store.rho("t", "a") == pytest.approx(0.8, abs=0.1)

    def test_unmeasured_pair_is_none(self):
        store = build_store()
        store.register_attribute("ghost", set())
        assert store.s_o_measured("t", "ghost") is None
        assert store.s_a_entry("a", "ghost") is None

    def test_register_unknown_target_rejected(self):
        store = StatisticsStore(("t",), k=2)
        with pytest.raises(ConfigurationError):
            store.register_attribute("a", {"not_a_target"})

    def test_reregistration_merges_pairings(self):
        store = StatisticsStore(("t", "u"), k=2)
        store.register_attribute("a", {"t"})
        store.register_attribute("a", {"u"})
        assert store.pairings["a"] == {"t", "u"}
        assert store.attributes == ["a"]

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            StatisticsStore(("t",), k=0)


class TestShrinkageAndAssembly:
    def test_shrunk_s_o_below_measured(self):
        store = build_store()
        raw = store.s_o_measured("t", "a")
        shrunk = store.s_o_shrunk("t", "a")
        assert 0.0 <= abs(shrunk) < abs(raw)

    def test_weak_covariance_shrunk_to_zero(self):
        store = build_store(rho=0.0, n=80, seed=3)
        assert store.s_o_shrunk("t", "a") == pytest.approx(0.0, abs=0.1)

    def test_assemble_shapes(self):
        store = build_store()
        s_o, s_a, s_c = store.assemble(["a"], "t")
        assert s_o.shape == (1,) and s_a.shape == (1, 1) and s_c.shape == (1,)

    def test_assemble_respects_cauchy_schwarz(self):
        store = build_store(n=60, seed=5)
        s_o, s_a, _ = store.assemble(["a"], "t")
        bound = store.RHO_CAP * np.sqrt(s_a[0, 0] * store.target_variance("t"))
        assert abs(s_o[0]) <= bound + 1e-12

    def test_assemble_fills_missing_with_callback(self):
        store = build_store()
        store.register_attribute("ghost", set())
        s_o, _, _ = store.assemble(
            ["a", "ghost"], "t", s_o_fill=lambda st, t, a: 0.123
        )
        assert s_o[1] == pytest.approx(0.123)

    def test_assemble_missing_without_fill_is_zero(self):
        store = build_store()
        store.register_attribute("ghost", set())
        s_o, s_a, _ = store.assemble(["a", "ghost"], "t")
        assert s_o[1] == 0.0
        assert s_a[0, 1] == 0.0

    def test_cache_invalidation_on_new_data(self):
        store = build_store(n=50)
        before = store.s_c("a")
        pool = store.pool("t")
        pool.add_example(999, 0.0)
        pool.record_answers("a", [[100.0, -100.0]])
        after = store.s_c("a")
        assert after > before  # the huge-disagreement example must show up


class TestEmptyBatchAlignment:
    """Regression: an empty answer batch (fully spam-rejected) used to
    shift the pairing of every later example in the S_o/S_a covariance
    computations, because ``answer_means`` silently skips empty batches
    while the target/means arrays were sliced by plain prefix."""

    @staticmethod
    def pool_with_hole():
        pool = ExamplePool("t")
        for i, value in enumerate([10.0, 20.0, 30.0, 40.0]):
            pool.add_example(i, value)
        # Example 1's batch came back empty (e.g. all spam-rejected).
        pool.record_answers("a", [[1.0, 3.0], [], [3.0, 5.0], [4.0, 6.0]])
        return pool

    def test_aligned_answer_means_reports_indices(self):
        pool = self.pool_with_hole()
        indices, means = pool.aligned_answer_means("a")
        assert list(indices) == [0, 2, 3]
        assert list(means) == [2.0, 4.0, 5.0]

    def test_n_answered_counts_nonempty_only(self):
        pool = self.pool_with_hole()
        assert pool.n_answered("a") == 3
        assert pool.n_measured("a") == 4  # batches recorded, incl. empty

    def test_within_variances_skips_empty(self):
        pool = self.pool_with_hole()
        assert list(pool.within_variances("a")) == [2.0, 2.0, 2.0]

    def test_s_o_pairs_means_with_matching_targets(self):
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i, value in enumerate([10.0, 20.0, 30.0, 40.0]):
            pool.add_example(i, value)
        store.register_attribute("a", {"t"})
        pool.record_answers("a", [[1.0, 3.0], [], [3.0, 5.0], [4.0, 6.0]])
        # Correct pairing: means [2, 4, 5] vs targets [10, 30, 40] —
        # NOT the misaligned prefix [10, 20, 30].
        expected = float(
            np.cov([2.0, 4.0, 5.0], [10.0, 30.0, 40.0], ddof=1)[0, 1]
        )
        assert store.s_o_measured("t", "a") == pytest.approx(expected)

    def test_s_a_intersects_example_indices(self):
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i in range(4):
            pool.add_example(i, float(i))
        store.register_attribute("a", {"t"})
        store.register_attribute("b", {"t"})
        # 'a' is missing example 1, 'b' is missing example 3: only the
        # common examples {0, 2} may covary.
        pool.record_answers("a", [[1.0], [], [3.0], [5.0]])
        pool.record_answers("b", [[2.0], [4.0], [6.0], []])
        expected = float(np.cov([1.0, 3.0], [2.0, 6.0], ddof=1)[0, 1])
        assert store.s_a_entry("a", "b") == pytest.approx(expected)

    def test_no_common_examples_is_none(self):
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i in range(4):
            pool.add_example(i, float(i))
        store.register_attribute("a", {"t"})
        store.register_attribute("b", {"t"})
        pool.record_answers("a", [[1.0], [], [3.0], []])
        pool.record_answers("b", [[], [2.0], [], [4.0]])
        assert store.s_a_entry("a", "b") is None

    def test_s_a_shrinkage_counts_only_covaried_examples(self):
        # 8 examples; 'b' came back empty on 3 of them, so the
        # covariance is taken over 5 examples and its standard error
        # must use n=5, not the 8 recorded batches.
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i in range(8):
            pool.add_example(i, float(i))
        store.register_attribute("a", {"t"})
        store.register_attribute("b", {"t"})
        a = [[1.0, 2.0], [2.0, 2.0], [3.0, 5.0], [4.0, 3.0],
             [5.0, 6.0], [6.0, 6.0], [7.0, 8.0], [8.0, 7.0]]
        b = [[1.0, 1.0], [3.0, 2.0], [], [3.0, 4.0],
             [6.0, 4.0], [], [6.0, 7.0], []]
        pool.record_answers("a", a)
        pool.record_answers("b", b)
        kept = [0, 1, 3, 4, 6]
        entry = float(
            np.cov(
                [np.mean(a[i]) for i in kept], [np.mean(b[i]) for i in kept], ddof=1
            )[0, 1]
        )
        assert store.s_a_entry("a", "b") == pytest.approx(entry)
        var_a = store.s_a_entry("a", "a") + store.s_c("a") / 2
        var_b = store.s_a_entry("b", "b") + store.s_c("b") / 2

        def shrunk(n):
            return entry - np.sqrt((var_a * var_b + entry**2) / n)

        assert store._s_a_shrunk("a", "b") == pytest.approx(shrunk(5))
        assert store._s_a_shrunk("a", "b") == pytest.approx(2.036, abs=1e-3)
        assert shrunk(8) == pytest.approx(2.709, abs=1e-3)

    def test_no_empty_batches_matches_plain_path(self):
        # Sanity: with no holes the aligned computation is the old one.
        store = build_store(n=60, seed=11)
        pool = store.pool("t")
        means = pool.answer_means("a")
        expected = float(np.cov(means, pool.target_array(), ddof=1)[0, 1])
        assert store.s_o_measured("t", "a") == pytest.approx(expected)


class TestMultiPoolStatistics:
    def test_s_c_pooled_across_pools(self):
        store = StatisticsStore(("t", "u"), k=2)
        for target, values in (("t", [1.0, 2.0]), ("u", [3.0, 4.0])):
            pool = store.pool(target)
            for i, v in enumerate(values):
                pool.add_example(i, v)
        store.register_attribute("a", {"t", "u"})
        store.pool("t").record_answers("a", [[0.0, 2.0], [0.0, 2.0]])
        store.pool("u").record_answers("a", [[0.0, 4.0], [0.0, 4.0]])
        # VarEst: (2)^2/2=2 on pool t, (4)^2/2=8 on pool u -> mean 5.
        assert store.s_c("a") == pytest.approx(5.0)

    def test_s_a_requires_common_pool(self):
        store = StatisticsStore(("t", "u"), k=2)
        for target in ("t", "u"):
            pool = store.pool(target)
            for i in range(10):
                pool.add_example(i, float(i))
        store.register_attribute("a", {"t"})
        store.register_attribute("b", {"u"})
        store.pool("t").record_answers("a", [[float(i)] * 2 for i in range(10)])
        store.pool("u").record_answers("b", [[float(i)] * 2 for i in range(10)])
        assert store.s_a_entry("a", "b") is None


class TestIncrementalMemo:
    """The memo recomputes only the entries a mutation can change."""

    @staticmethod
    def measured_store(m: int, n: int = 30) -> StatisticsStore:
        rng = np.random.default_rng(5)
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i in range(n):
            pool.add_example(i, float(rng.normal()))
        for index in range(m):
            TestIncrementalMemo.measure(store, f"a{index}", rng)
        return store

    @staticmethod
    def measure(store: StatisticsStore, attribute: str, rng) -> None:
        pool = store.pool("t")
        store.register_attribute(attribute, {"t"})
        pool.record_answers(
            attribute, [list(rng.normal(size=2)) for _ in range(len(pool))]
        )

    @pytest.fixture
    def s_a_computations(self, monkeypatch):
        calls = []
        compute = StatisticsStore._compute_s_a_entry

        def counting(store, attribute_a, attribute_b):
            calls.append((attribute_a, attribute_b))
            return compute(store, attribute_a, attribute_b)

        monkeypatch.setattr(StatisticsStore, "_compute_s_a_entry", counting)
        return calls

    def test_new_attribute_computes_at_most_m_entries(self, s_a_computations):
        m = 6
        store = self.measured_store(m)
        store.assemble(list(store.attributes), "t")
        assert len(s_a_computations) == m * (m - 1) // 2
        s_a_computations.clear()
        self.measure(store, "new", np.random.default_rng(9))
        store.assemble(list(store.attributes), "t")
        assert 0 < len(s_a_computations) <= m
        assert all("new" in pair for pair in s_a_computations)

    def test_unchanged_store_computes_nothing(self, s_a_computations):
        store = self.measured_store(4)
        store.assemble(list(store.attributes), "t")
        s_a_computations.clear()
        store.assemble(list(store.attributes), "t")
        assert s_a_computations == []

    def test_topped_up_batch_recomputes_only_its_row(self, s_a_computations):
        m = 5
        store = self.measured_store(m)
        store.assemble(list(store.attributes), "t")
        s_a_computations.clear()
        store.pool("t").append_to_batch("a2", 0, [0.5])
        store.assemble(list(store.attributes), "t")
        assert len(s_a_computations) == m - 1
        assert all("a2" in pair for pair in s_a_computations)

    def test_new_example_recomputes_everything(self, s_a_computations):
        m = 4
        store = self.measured_store(m)
        store.assemble(list(store.attributes), "t")
        s_a_computations.clear()
        store.pool("t").add_example(999, 0.0)
        store.assemble(list(store.attributes), "t")
        assert len(s_a_computations) == m * (m - 1) // 2

    def test_restore_state_drops_the_memo(self):
        # A restored pool's counters restart at zero, so only dropping
        # the memo keeps the empty store's entries from being served.
        store = StatisticsStore(("t",), k=2)
        store.register_attribute("a0", {"t"})
        assert store.s_c("a0") == 0.0
        store.assemble(["a0"], "t")
        measured = self.measured_store(1)
        store.restore_state(measured.state_dict())
        assert store.s_c("a0") == measured.s_c("a0") > 0.0
        assert store.target_variance("t") == measured.target_variance("t")
        restored = store.assemble(["a0"], "t")
        for got, want in zip(restored, measured.assemble(["a0"], "t")):
            assert np.array_equal(got, want)
