"""Unit tests for reliability-weighted aggregation (repro.agg)."""

import numpy as np
import pytest

from repro.agg import (
    AGGREGATORS,
    HuberAggregator,
    ReliabilityAggregator,
    ReliabilityModel,
    TrimmedAggregator,
    UNATTRIBUTED,
    UniformAggregator,
    effective_sample_size,
    make_aggregator,
    weighted_mean,
)
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.errors import ConfigurationError
from repro.serve import QueryRequest, ServeEngine

pytestmark = pytest.mark.agg


class TestWeightedMean:
    def test_equal_weights_bitwise_uniform(self):
        values = [0.1, 0.2, 0.3, 0.7, 1.9]
        assert weighted_mean(values, [2.0] * 5) == float(np.mean(values))

    def test_unequal_weights_permutation_invariant(self):
        values = [0.1, 0.7, -3.2, 11.0]
        weights = [1.0, 0.25, 4.0, 0.5]
        reference = weighted_mean(values, weights)
        order = [3, 1, 0, 2]
        assert (
            weighted_mean([values[i] for i in order], [weights[i] for i in order])
            == reference
        )

    def test_down_weighting_moves_toward_trusted(self):
        assert weighted_mean([0.0, 10.0], [9.0, 1.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_mean([], [])


class TestEffectiveSampleSize:
    def test_equal_weights_is_n(self):
        assert effective_sample_size([3.0] * 7) == pytest.approx(7.0)

    def test_concentrated_weights_shrink(self):
        assert effective_sample_size([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_weights(self):
        assert effective_sample_size([0.0, 0.0]) == 0.0


class TestRobustAggregators:
    def test_uniform_matches_np_mean(self):
        values = [1.0, 2.0, 4.5]
        assert UniformAggregator().aggregate(values) == float(np.mean(values))

    def test_trimmed_ignores_outliers(self):
        values = [10.0, 10.2, 9.8, 10.1, 9.9, 500.0]
        agg = TrimmedAggregator(trim_fraction=0.2)
        assert agg.aggregate(values) == pytest.approx(10.0, abs=0.2)

    def test_trimmed_order_invariant(self):
        values = [3.0, 1.0, 99.0, 2.0, -50.0]
        agg = TrimmedAggregator(trim_fraction=0.2)
        assert agg.aggregate(values) == agg.aggregate(sorted(values))

    def test_trimmed_effective_count(self):
        agg = TrimmedAggregator(trim_fraction=0.25)
        assert agg.effective_count([0.0] * 8) == 4.0

    def test_huber_bounds_outlier_influence(self):
        honest = [10.0, 10.1, 9.9, 10.05, 9.95]
        spiked = honest + [1000.0]
        estimate = HuberAggregator().aggregate(spiked)
        assert abs(estimate - 10.0) < abs(float(np.mean(spiked)) - 10.0)
        assert estimate == pytest.approx(10.0, abs=1.0)

    def test_huber_degenerate_scale_returns_median(self):
        assert HuberAggregator().aggregate([5.0, 5.0, 5.0, 99.0]) == 5.0

    def test_empty_rejected(self):
        for aggregator in (TrimmedAggregator(), HuberAggregator()):
            with pytest.raises(ConfigurationError):
                aggregator.aggregate([])


class TestMakeAggregator:
    def test_all_names_construct(self):
        for name in AGGREGATORS:
            assert make_aggregator(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_aggregator("median")

    @pytest.mark.parametrize(
        "knobs",
        [
            {"trim_fraction": 0.5},
            {"trim_fraction": -0.1},
            {"trim_fraction": float("nan")},
            {"huber_delta": 0.0},
            {"huber_delta": float("inf")},
            {"em_iterations": 0},
        ],
    )
    def test_knobs_validated_for_every_strategy(self, knobs):
        # A bad knob fails loudly even when the chosen strategy would
        # never read it (CLI-typo protection).
        with pytest.raises(ConfigurationError):
            make_aggregator("uniform", **knobs)

    def test_shared_model_threads_through(self):
        model = ReliabilityModel()
        aggregator = make_aggregator("reliability", model=model)
        assert aggregator.model is model


class TestReliabilityModel:
    def test_unobserved_workers_aggregate_bitwise_uniform(self):
        values = [0.3, 0.1, 0.9, 0.7]
        aggregator = ReliabilityAggregator(ReliabilityModel())
        assert aggregator.aggregate(values, [5, 6, 7, 8]) == float(np.mean(values))

    def test_requires_worker_ids(self):
        with pytest.raises(ConfigurationError):
            ReliabilityAggregator(ReliabilityModel()).aggregate([1.0, 2.0])

    def test_observe_split_invariant(self):
        values = [1.0, 3.0, 2.0, 8.0, 2.5, 1.5]
        workers = [0, 1, 2, 0, 1, 2]
        whole = ReliabilityModel()
        whole.observe(values, workers, start=0)
        for split in range(1, len(values)):
            parts = ReliabilityModel()
            parts.observe(values[:split], workers[:split], start=0)
            parts.observe(values, workers[split:], start=split)
            assert parts.state_dict() == whole.state_dict()

    def test_noisy_worker_learns_low_precision(self):
        rng = np.random.default_rng(0)
        model = ReliabilityModel()
        for key in range(30):
            honest = rng.normal(0.0, 0.1, size=5)
            values = list(honest) + [float(rng.normal(0.0, 10.0))]
            # Rotate the honest workers so each takes a turn at tape
            # index 0 (which contributes no residual of its own).
            workers = [(key + i) % 5 for i in range(5)] + [9]
            model.observe(values, workers, start=0)
        precisions = model.precisions()
        assert precisions[9] < 0.5
        assert all(precisions[w] > precisions[9] for w in range(5))

    def test_unattributed_is_neutral(self):
        model = ReliabilityModel()
        model.observe([1.0, 2.0, 30.0], [0, 1, UNATTRIBUTED], start=0)
        assert UNATTRIBUTED not in model.precisions()
        assert model.weight(UNATTRIBUTED) == 1.0

    def test_fit_flags_spammer(self):
        rng = np.random.default_rng(3)
        groups = []
        for _ in range(25):
            honest = rng.normal(5.0, 0.2, size=4)
            values = list(honest) + [float(rng.uniform(-50, 50))]
            groups.append((values, [0, 1, 2, 3, 7]))
        model = ReliabilityModel()
        model.fit(groups)
        precisions = model.precisions()
        assert precisions[7] < min(precisions[w] for w in range(4))

    def test_gain_clamped_and_monotone(self):
        model = ReliabilityModel()
        assert model.gain() == 1.0  # nothing observed: neutral
        rng = np.random.default_rng(1)
        for _ in range(40):
            values = list(rng.normal(0, 0.1, size=3)) + [
                float(rng.normal(0, 8.0))
            ]
            model.observe(values, [0, 1, 2, 5], start=0)
        mixed = model.gain([0, 1, 2, 5])
        assert 1.0 < mixed <= model.gain_cap
        # A homogeneous slice of the crowd has (near-)equal precisions.
        assert model.gain([0, 0, 0]) == 1.0

    def test_state_roundtrip(self):
        model = ReliabilityModel()
        model.observe([1.0, 5.0, 2.0], [3, 1, 3], start=0)
        clone = ReliabilityModel()
        clone.restore_state(model.state_dict())
        assert clone.state_dict() == model.state_dict()
        assert clone.precisions() == model.precisions()

    def test_effective_count_at_most_n(self):
        model = ReliabilityModel()
        rng = np.random.default_rng(2)
        for key in range(30):
            values = list(rng.normal(0, 0.1, size=3)) + [
                float(rng.normal(0, 5.0))
            ]
            workers = [(key + i) % 3 for i in range(3)] + [6]
            model.observe(values, workers, start=0)
        aggregator = ReliabilityAggregator(model)
        values = [0.1, 0.2, 0.3, 9.9]
        workers = [0, 1, 2, 6]
        assert aggregator.effective_count(values, workers) < 4.0
        assert aggregator.effective_count(values, [0, 1, 2, 0]) == pytest.approx(
            4.0, rel=0.05
        )

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            ReliabilityModel(prior_strength=0.0)
        with pytest.raises(ConfigurationError):
            ReliabilityModel(floor=0.0)
        with pytest.raises(ConfigurationError):
            ReliabilityModel(gain_cap=0.5)


class TestPrecisionMemo:
    """Precisions are recomputed only after the model's state changes."""

    @staticmethod
    def observed_model() -> ReliabilityModel:
        rng = np.random.default_rng(4)
        model = ReliabilityModel()
        for key in range(20):
            values = list(rng.normal(0.0, 0.1, size=4)) + [
                float(rng.normal(0.0, 6.0))
            ]
            model.observe(values, [(key + i) % 4 for i in range(4)] + [8], start=0)
        return model

    @staticmethod
    def groups(seed: int) -> list[tuple[list[float], list[int]]]:
        rng = np.random.default_rng(seed)
        return [
            (list(rng.normal(2.0, 0.3, size=4)) + [float(rng.uniform(-9, 9))],
             [0, 1, 2, 3, 7])
            for _ in range(12)
        ]

    @staticmethod
    def read_everything(model: ReliabilityModel) -> None:
        aggregator = ReliabilityAggregator(model)
        values, workers = [0.1, 0.4, 0.2, 3.0], [0, 1, 2, 8]
        for _ in range(5):
            model.weights(workers)
            model.weight(8)
            model.gain()
            model.gain(workers)
            aggregator.aggregate(values, workers)
            aggregator.effective_count(values, workers)

    @pytest.fixture
    def recomputes(self, monkeypatch):
        calls = []
        compute = ReliabilityModel._compute_precisions

        def counting(model):
            calls.append(model)
            return compute(model)

        monkeypatch.setattr(ReliabilityModel, "_compute_precisions", counting)
        return calls

    def test_unchanged_model_recomputes_nothing(self, recomputes):
        model = self.observed_model()
        self.read_everything(model)
        assert len(recomputes) == 1
        recomputes.clear()
        self.read_everything(model)
        model.precisions()
        assert recomputes == []

    def test_recording_observe_forces_one_recompute(self, recomputes):
        model = self.observed_model()
        before = model.weights([0, 8])
        recomputes.clear()
        assert model.observe([0.0, 5.0], [0, 8], start=0) == 1
        self.read_everything(model)
        assert len(recomputes) == 1
        assert model.weights([0, 8]) != before

    @pytest.mark.parametrize(
        "values, workers",
        [([3.0], [8]), ([0.0, 9.0, -9.0], [UNATTRIBUTED] * 3)],
        ids=["index-0-only", "all-unattributed"],
    )
    def test_observe_recording_nothing_forces_none(self, recomputes, values, workers):
        model = self.observed_model()
        model.weights([0])
        recomputes.clear()
        assert model.observe(values, workers, start=0) == 0
        self.read_everything(model)
        assert recomputes == []

    def test_fit_recomputes_once_per_sweep(self, recomputes):
        model = self.observed_model()
        self.read_everything(model)
        recomputes.clear()
        fitted = model.fit(self.groups(5))
        # One map to center each sweep, one for the fitted result.
        assert len(recomputes) == model.em_iterations + 1
        recomputes.clear()
        self.read_everything(model)
        assert recomputes == []
        assert model.precisions() == fitted

    def test_fit_never_centers_with_stale_precisions(self):
        # A model read before its reset fit must learn exactly what a
        # fresh model learns from the same tapes.
        model = self.observed_model()
        self.read_everything(model)
        fresh = ReliabilityModel()
        assert model.fit(self.groups(5)) == fresh.fit(self.groups(5))
        assert model.state_dict() == fresh.state_dict()

    def test_restore_state_forces_one_recompute(self, recomputes):
        model = self.observed_model()
        model.weights([0])
        other = ReliabilityModel()
        other.fit(self.groups(6))
        recomputes.clear()
        model.restore_state(other.state_dict())
        self.read_everything(model)
        assert len(recomputes) == 1
        assert model.precisions() == other.precisions()

    def test_precisions_copy_is_detached(self):
        model = self.observed_model()
        workers = [0, 1, 8, 42]
        before = model.weights(workers)
        exposed = model.precisions()
        for wid in list(exposed):
            exposed[wid] = 1e9
        exposed[42] = 1e9
        assert model.weights(workers) == before
        assert model.weight(42) == 1.0
        assert model.precisions() != exposed

    def test_state_dict_carries_no_version(self):
        model = self.observed_model()
        model.weights([0])
        assert set(model.state_dict()) == {"n", "ss"}


def identity_plan(target: str, n_questions: int = 4) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


def reliability_engine(domain, **kwargs) -> tuple[ServeEngine, CrowdPlatform]:
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    aggregator = make_aggregator("reliability", model=ReliabilityModel())
    return ServeEngine(platform, aggregator=aggregator, **kwargs), platform


@pytest.mark.serve
class TestServeReliabilityDurability:
    """Reliability state must survive a crash bit-for-bit (DESIGN.md §16)."""

    def test_checkpoint_carries_model_state(self, tiny_domain, tmp_path):
        engine, _ = reliability_engine(tiny_domain, checkpoint_dir=tmp_path)
        engine.submit(QueryRequest("q1", ("target",), (0, 1, 2)), identity_plan("target"))
        engine.run()
        engine.close()
        payload = engine.checkpoints.load()
        assert "agg" in payload
        assert payload["agg"]["model"] == engine.aggregator.model.state_dict()
        assert payload["agg"]["seen"] == [
            [0, "target", 4], [1, "target", 4], [2, "target", 4]
        ]

    def test_fault_free_provenance_from_batched_draw(self, tiny_domain, tmp_path):
        # Fault-free waves take worker ids from the batched draw; they
        # must equal the stream's scalar provenance for every cached key.
        engine, _ = reliability_engine(tiny_domain, checkpoint_dir=tmp_path)
        scalar_spans = []
        scalar = engine.stream.worker_ids

        def counting(*span):
            scalar_spans.append(span)
            return scalar(*span)

        engine.stream.worker_ids = counting
        engine.submit(
            QueryRequest("q1", ("target",), tuple(range(12))),
            identity_plan("target", 6),
        )
        engine.run()
        engine.close()
        assert scalar_spans == []
        for object_id in range(12):
            cached = engine.cache.workers(object_id, "target", 6).tolist()
            assert cached == scalar(object_id, "target", 0, 6)

    def test_crash_resume_model_bitwise_identical(self, tiny_domain, tmp_path):
        plan = identity_plan("target")
        requests = [
            QueryRequest("q1", ("target",), (0, 1, 2)),
            QueryRequest("q2", ("target",), (3, 4, 5)),
        ]
        straight, straight_platform = reliability_engine(
            tiny_domain, wave_size=1, checkpoint_dir=tmp_path / "straight"
        )
        for request in requests:
            straight.submit(request, plan)
        reference = straight.run()
        straight.close()

        # Serve the first wave, checkpoint, then "crash" before q2.
        crashed, _ = reliability_engine(
            tiny_domain, wave_size=1, checkpoint_dir=tmp_path / "crash"
        )
        for request in requests:
            crashed.submit(request, plan)
        wave, crashed._queue = crashed._queue[:1], crashed._queue[1:]
        crashed._serve_wave(wave)
        crashed._checkpoint()
        crashed.close()

        resumed, resumed_platform = reliability_engine(
            tiny_domain, wave_size=1, checkpoint_dir=tmp_path / "crash", resume=True
        )
        assert resumed.resumed
        # Restored model state is exactly the checkpointed state.
        assert (
            resumed.aggregator.model.state_dict()
            == crashed.aggregator.model.state_dict()
        )
        for request in requests:
            resumed.submit(request, plan)
        report = resumed.run()
        resumed.close()
        assert report.result("q1").from_checkpoint
        # Bit-identical to the uninterrupted run: estimates, spend, and
        # the learned reliability state.
        assert (
            report.result("q2").estimates == reference.result("q2").estimates
        )
        assert (
            resumed.aggregator.model.state_dict()
            == straight.aggregator.model.state_dict()
        )
        assert (
            resumed_platform.ledger.total_spent
            == straight_platform.ledger.total_spent
        )

    def test_journal_tail_restores_worker_attribution(self, tiny_domain, tmp_path):
        # Crash after journaling a wave but before its checkpoint: the
        # resumed engine must recover the worker ids from the journal
        # and absorb the span into a fresh model.
        plan = identity_plan("target")
        crashed, _ = reliability_engine(tiny_domain, checkpoint_dir=tmp_path)
        crashed.submit(QueryRequest("q1", ("target",), (0, 1)), plan)
        wave, crashed._queue = crashed._queue[:1], crashed._queue[1:]
        crashed._serve_wave(wave)  # journaled, never checkpointed
        crashed.close()

        resumed, _ = reliability_engine(
            tiny_domain, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.restored_answers == 8
        workers = resumed.cache.workers(0, "target", 4)
        assert UNATTRIBUTED not in workers.tolist()
        assert (
            resumed.aggregator.model.state_dict()
            == crashed.aggregator.model.state_dict()
        )
        resumed.close()
