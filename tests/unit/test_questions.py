"""Unit tests for the ``with_params`` DisQParams override helper."""

import pytest


class TestWithParams:
    def test_overrides_applied_to_defaults(self):
        from repro.core.disq import DisQParams, with_params

        params = with_params(None, n1=33, dismantling=False)
        assert params.n1 == 33
        assert not params.dismantling
        assert params.k == 2  # untouched default

    def test_overrides_preserve_base(self):
        from repro.core.disq import DisQParams, with_params

        base = DisQParams(n1=77, rho_constant=0.3)
        derived = with_params(base, dismantling=False)
        assert derived.n1 == 77
        assert derived.rho_constant == 0.3
        assert base.dismantling  # base untouched

    def test_invalid_override_rejected(self):
        from repro.core.disq import with_params
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            with_params(None, candidate_policy="nonsense")
