"""Unit tests for the Gaussian domain generator."""

import numpy as np
import pytest

from repro.domains.gaussian import (
    GaussianDomain,
    GaussianDomainSpec,
    nearest_correlation,
)
from repro.errors import ConfigurationError, UnknownAttributeError, UnknownObjectError
from tests.conftest import make_tiny_spec


class TestNearestCorrelation:
    def test_valid_matrix_unchanged(self):
        matrix = np.array([[1.0, 0.5], [0.5, 1.0]])
        result = nearest_correlation(matrix)
        assert np.allclose(result, matrix, atol=1e-6)

    def test_inconsistent_matrix_projected_to_psd(self):
        # corr(a,b)=corr(a,c)=0.9 but corr(b,c)=-0.9 is infeasible.
        matrix = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        result = nearest_correlation(matrix)
        eigenvalues = np.linalg.eigvalsh(result)
        assert eigenvalues.min() >= 0
        assert np.allclose(np.diag(result), 1.0)

    def test_result_symmetric(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(-1, 1, (5, 5))
        result = nearest_correlation(matrix)
        assert np.allclose(result, result.T)


class TestSpecValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianDomainSpec(
                names=("a", "a"),
                means=(0, 0),
                sigmas=(1, 1),
                correlation=np.eye(2),
                difficulties=(1, 1),
                binary=(False, False),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianDomainSpec(
                names=("a", "b"),
                means=(0,),
                sigmas=(1, 1),
                correlation=np.eye(2),
                difficulties=(1, 1),
                binary=(False, False),
            )

    def test_bad_correlation_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianDomainSpec(
                names=("a", "b"),
                means=(0, 0),
                sigmas=(1, 1),
                correlation=np.eye(3),
                difficulties=(1, 1),
                binary=(False, False),
            )

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianDomainSpec(
                names=("a",),
                means=(0,),
                sigmas=(0.0,),
                correlation=np.eye(1),
                difficulties=(1,),
                binary=(False,),
            )


class TestSampledDomain:
    def test_dimensions(self, tiny_domain):
        assert tiny_domain.n_objects() == 200
        assert len(tiny_domain.attributes()) == 4

    def test_binary_values_in_unit_interval(self, tiny_domain):
        values = tiny_domain.true_values("flag_a")
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_moments_match_spec(self):
        domain = GaussianDomain(make_tiny_spec(), n_objects=5000, seed=1)
        values = domain.true_values("target")
        assert values.mean() == pytest.approx(10.0, abs=0.2)
        assert values.std() == pytest.approx(2.0, abs=0.15)

    def test_correlations_match_spec(self):
        domain = GaussianDomain(make_tiny_spec(), n_objects=5000, seed=1)
        target = domain.true_values("target")
        helper = domain.true_values("helper")
        assert np.corrcoef(target, helper)[0, 1] == pytest.approx(0.8, abs=0.05)

    def test_same_seed_reproducible(self):
        a = GaussianDomain(make_tiny_spec(), n_objects=50, seed=3)
        b = GaussianDomain(make_tiny_spec(), n_objects=50, seed=3)
        assert a.true_value(0, "target") == b.true_value(0, "target")

    def test_different_seed_differs(self):
        a = GaussianDomain(make_tiny_spec(), n_objects=50, seed=3)
        b = GaussianDomain(make_tiny_spec(), n_objects=50, seed=4)
        assert a.true_value(0, "target") != b.true_value(0, "target")

    def test_unknown_attribute_raises(self, tiny_domain):
        with pytest.raises(UnknownAttributeError):
            tiny_domain.true_value(0, "nope")

    def test_unknown_object_raises(self, tiny_domain):
        with pytest.raises(UnknownObjectError):
            tiny_domain.true_value(10_000, "target")

    def test_relevance_cached_matches_definition(self, tiny_domain):
        target = tiny_domain.true_values("target")
        helper = tiny_domain.true_values("helper")
        expected = abs(np.corrcoef(target, helper)[0, 1])
        assert tiny_domain.relevance("target", "helper") == pytest.approx(expected)

    def test_relevance_symmetric_and_reflexive(self, tiny_domain):
        assert tiny_domain.relevance("target", "helper") == pytest.approx(
            tiny_domain.relevance("helper", "target")
        )
        assert tiny_domain.relevance("target", "target") == pytest.approx(1.0)

    def test_answer_range_pads_numeric(self, tiny_domain):
        low, high = tiny_domain.answer_range("target")
        values = tiny_domain.true_values("target")
        assert low < values.min() and high > values.max()

    def test_answer_range_binary_is_unit(self, tiny_domain):
        assert tiny_domain.answer_range("flag_a") == (0.0, 1.0)

    def test_with_taxonomy_shares_values(self, tiny_domain):
        from repro.domains.taxonomy import DismantleTaxonomy

        clone = tiny_domain.with_taxonomy(DismantleTaxonomy())
        assert clone.true_value(0, "target") == tiny_domain.true_value(0, "target")
        assert clone.dismantle_distribution("target") != (
            tiny_domain.dismantle_distribution("target")
        )

    def test_check_attribute_rejects_unknown_names(self, tiny_domain):
        for attribute in tiny_domain.attributes():
            tiny_domain.check_attribute(attribute)
        for attribute in ("nope", "", "Target"):
            with pytest.raises(UnknownAttributeError):
                tiny_domain.check_attribute(attribute)

    def test_irrelevant_candidates_keep_attribute_order(self, tiny_domain):
        # flag_b is the only attribute unrelated to target (corr 0.1),
        # and unrelated to every other attribute.
        assert tiny_domain.irrelevant_candidates("target") == ("flag_b",)
        assert tiny_domain.irrelevant_candidates("flag_b") == (
            "target",
            "helper",
            "flag_a",
        )

    def test_with_taxonomy_clone_computes_its_own_candidates(self, tiny_domain):
        from repro.domains.taxonomy import DismantleTaxonomy

        assert tiny_domain.irrelevant_candidates("target") == ("flag_b",)
        clone = tiny_domain.with_taxonomy(
            DismantleTaxonomy(edges={"target": {"flag_b": 0.5}})
        )
        # flag_b is now a legitimate answer on target, so no attribute
        # is irrelevant to it and every other attribute is a candidate.
        assert clone.irrelevant_candidates("target") == ("helper", "flag_a", "flag_b")
        assert tiny_domain.irrelevant_candidates("target") == ("flag_b",)

    def test_too_few_objects_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianDomain(make_tiny_spec(), n_objects=1)
