"""Tests for the policy protocol, registry, and baseline placement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    BaselinePolicy,
    CPLX,
    PolicyNameError,
    UnknownPolicyError,
    assignment_from_counts,
    available_policies,
    contiguous_counts,
    get_policy,
    validate_assignment,
)
from repro.core.policy import PlacementResult

costs_strategy = st.lists(
    st.floats(0.01, 100.0, allow_nan=False), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs))


class TestRegistry:
    def test_all_policies_registered(self):
        names = set(available_policies())
        assert {"baseline", "lpt", "cdp", "cdp-full", "cdp-chunked", "cplx"} <= names

    def test_cplx_shorthand(self):
        p = get_policy("cplx:25")
        assert isinstance(p, CPLX)
        assert p.x_percent == 25.0
        assert p.label == "CPL25"

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown policy"):
            get_policy("does-not-exist")

    def test_unknown_policy_is_typed_and_unquoted(self):
        with pytest.raises(UnknownPolicyError) as exc:
            get_policy("does-not-exist")
        assert isinstance(exc.value, KeyError)
        assert exc.value.policy == "does-not-exist"
        assert str(exc.value).startswith("unknown policy 'does-not-exist'")

    @pytest.mark.parametrize(
        "name", ["cplx:abc", "cplx:", "hetero-cplx:150", "cplx:-1", "cplx:nan"]
    )
    def test_bad_shorthand_names_the_policy(self, name):
        with pytest.raises(PolicyNameError, match="X must") as exc:
            get_policy(name)
        assert exc.value.policy == name
        assert repr(name) in str(exc.value)

    def test_sweep_config_resolves_policies(self):
        from repro.service import spec_from_params

        with pytest.raises(PolicyNameError) as exc:
            spec_from_params("sedov", {"policies": ["baseline", "cplx:abc"]})
        assert exc.value.policy == "cplx:abc"
        with pytest.raises(KeyError, match="nope"):
            spec_from_params("sedov", {"policies": ["nope"]})
        with pytest.raises(PolicyNameError, match="cplx:120"):
            spec_from_params("scalebench", {"x_values": [50, 120]})
        with pytest.raises(KeyError, match="nope"):
            spec_from_params("resilience", {"policy": "nope"})


class TestPlaceValidation:
    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            BaselinePolicy().place(np.array([-1.0, 2.0]), 2)

    def test_bad_rank_count_rejected(self):
        with pytest.raises(ValueError):
            BaselinePolicy().place(np.ones(4), 0)

    def test_2d_costs_rejected(self):
        with pytest.raises(ValueError):
            BaselinePolicy().place(np.ones((2, 2)), 2)

    def test_result_metadata(self):
        r = BaselinePolicy().place(np.ones(10), 4)
        assert isinstance(r, PlacementResult)
        assert r.policy == "baseline"
        assert r.n_blocks == 10
        assert r.elapsed_s >= 0
        assert r.loads(np.ones(10), 4).sum() == 10

    def test_validate_assignment_errors(self):
        validate_assignment(np.array([0, 1, 1]), 3, 2)
        with pytest.raises(ValueError):
            validate_assignment(np.array([0, 2]), 2, 2)
        with pytest.raises(ValueError):
            validate_assignment(np.array([0, -1]), 2, 2)
        with pytest.raises(ValueError):
            validate_assignment(np.array([0.5, 1.0]), 2, 2)
        with pytest.raises(ValueError):
            validate_assignment(np.array([0, 1]), 3, 2)


class TestBaseline:
    def test_counts_ceil_floor(self):
        counts = contiguous_counts(10, 4)
        assert counts.tolist() == [3, 3, 2, 2]

    def test_counts_fewer_blocks_than_ranks(self):
        counts = contiguous_counts(2, 4)
        assert counts.tolist() == [1, 1, 0, 0]

    def test_assignment_expansion(self):
        a = assignment_from_counts(np.array([2, 0, 1]))
        assert a.tolist() == [0, 0, 2]

    @given(st.integers(0, 300), st.integers(1, 50))
    def test_counts_properties(self, n, r):
        counts = contiguous_counts(n, r)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1 if n else True
        # Non-increasing: ceil ranks first.
        assert (np.diff(counts) <= 0).all()

    @given(costs_strategy, st.integers(1, 16))
    def test_baseline_is_contiguous_and_ignores_costs(self, costs, r):
        a = BaselinePolicy().place(costs, r).assignment
        assert (np.diff(a) >= 0).all()  # contiguous == sorted rank ids
        b = BaselinePolicy().place(np.ones_like(costs), r).assignment
        assert np.array_equal(a, b)
