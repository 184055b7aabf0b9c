"""Integration tests for the DisQ planner (Algorithm 1 end-to-end)."""

import pytest

from repro.core.disq import DisQParams, DisQPlanner
from repro.core.model import Query
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.errors import ConfigurationError, PlanningError


@pytest.fixture
def params():
    return DisQParams(n1=25, max_rounds=60)


def make_planner(domain, b_obj=4.0, b_prc=1200.0, params=None, targets=("target",)):
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=0)
    query = Query(targets=targets)
    return DisQPlanner(platform, query, b_obj, b_prc, params)


class TestPlanShape:
    def test_plan_contains_all_pieces(self, tiny_domain, params):
        plan = make_planner(tiny_domain, params=params).preprocess()
        assert plan.query.targets == ("target",)
        assert "target" in plan.attributes
        assert plan.budget.total_questions > 0
        assert "target" in plan.formulas
        assert plan.preprocessing_cost > 0

    def test_online_budget_respected(self, tiny_domain, params):
        planner = make_planner(tiny_domain, b_obj=2.0, params=params)
        plan = planner.preprocess()
        cost = plan.budget.cost(
            {a: planner.platform.value_price(a) for a in plan.budget.attributes}
        )
        assert cost <= 2.0 + 1e-9

    def test_preprocessing_budget_respected(self, tiny_domain, params):
        planner = make_planner(tiny_domain, b_prc=900.0, params=params)
        plan = planner.preprocess()
        assert plan.preprocessing_cost <= 900.0 + 1e-9

    def test_dismantling_discovers_related_attributes(self, tiny_domain, params):
        plan = make_planner(tiny_domain, b_prc=1500.0, params=params).preprocess()
        assert "helper" in plan.attributes or "flag_a" in plan.attributes

    def test_discovery_log_records_rounds(self, tiny_domain, params):
        plan = make_planner(tiny_domain, b_prc=1500.0, params=params).preprocess()
        assert len(plan.discovery_log) == plan.dismantle_rounds
        for asked, answer, accepted in plan.discovery_log:
            assert asked in plan.attributes
            assert isinstance(accepted, bool)

    def test_max_rounds_cap(self, tiny_domain):
        params = DisQParams(n1=25, max_rounds=3)
        plan = make_planner(tiny_domain, b_prc=2000.0, params=params).preprocess()
        assert plan.dismantle_rounds <= 3

    def test_unrelated_attribute_rarely_admitted(self, tiny_domain, params):
        plan = make_planner(tiny_domain, b_prc=1500.0, params=params).preprocess()
        # flag_b has corr 0.1 with everything; verification should keep
        # it out (statistically it may slip in, but not in this seed).
        rejected = [
            answer
            for _, answer, accepted in plan.discovery_log
            if answer == "flag_b" and not accepted
        ]
        admitted = "flag_b" in plan.attributes
        assert rejected or not admitted


class TestMultiTarget:
    def test_two_target_plan(self, tiny_domain, params):
        plan = make_planner(
            tiny_domain, b_prc=2500.0, params=params, targets=("target", "helper")
        ).preprocess()
        assert set(plan.formulas) == {"target", "helper"}
        assert plan.budget.total_questions > 0

    def test_weights_influence_allocation(self, tiny_domain, params):
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        lopsided = Query(
            targets=("target", "flag_b"), weights={"target": 100.0, "flag_b": 0.001}
        )
        plan = DisQPlanner(platform, lopsided, 4.0, 2500.0, params).preprocess()
        # Nearly all the budget should serve 'target' (flag_b is cheap
        # but its weighted error contribution is negligible).
        target_like = plan.budget["target"] + plan.budget["helper"] + plan.budget["flag_a"]
        assert target_like >= plan.budget["flag_b"]


class TestDegradation:
    def test_budget_too_small_for_examples_raises(self, tiny_domain, params):
        with pytest.raises(PlanningError):
            make_planner(tiny_domain, b_prc=10.0, params=params).preprocess()

    def test_budget_just_for_examples_still_plans(self, tiny_domain):
        # Enough for the example pool and a bit of statistics, nothing
        # else: the planner must still emit a usable plan.
        params = DisQParams(n1=20, max_rounds=10)
        plan = make_planner(tiny_domain, b_prc=130.0, params=params).preprocess()
        assert plan.formulas["target"] is not None

    def test_invalid_budgets_rejected(self, tiny_domain, params):
        with pytest.raises(ConfigurationError):
            make_planner(tiny_domain, b_obj=0.0, params=params)
        with pytest.raises(ConfigurationError):
            make_planner(tiny_domain, b_prc=-5.0, params=params)


class TestParams:
    def test_invalid_candidate_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            DisQParams(candidate_policy="everything")

    def test_invalid_estimator_rejected(self):
        with pytest.raises(ConfigurationError):
            DisQParams(s_o_estimator="magic")

    def test_fill_factory(self):
        from repro.core.pairing import NaiveMeanEstimator, ZeroEstimator
        from repro.core.sograph import SoGraphEstimator

        assert isinstance(DisQParams(s_o_estimator="graph").make_fill(), SoGraphEstimator)
        assert isinstance(
            DisQParams(s_o_estimator="naive").make_fill(), NaiveMeanEstimator
        )
        assert isinstance(DisQParams(s_o_estimator="zero").make_fill(), ZeroEstimator)
