import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rumorlab.analytics import (
    FORMULAS,
    TheoryValue,
    diffusion_ft,
    exponential_integral,
    reg_inc_beta_half,
    reporting_centrality_constant,
    spy_ft_bound,
    trickle_ft_asymptotic,
    trickle_ft_lower_bound,
    trickle_ml_lower,
    trickle_ml_upper,
)
from oracles import (
    ei_quadrature,
    reg_inc_beta_half_quadrature,
    trickle_ft_integral,
    urn_simulate,
)


class TestExponentialIntegral:
    # Frozen from the quadrature oracle (ei_quadrature(1), ei_quadrature(-1)).
    def test_known_values(self):
        assert exponential_integral(1) == pytest.approx(1.8951178163559368, rel=1e-10)
        assert exponential_integral(-1) == pytest.approx(-0.21938393439552026, rel=1e-10)

    def test_sign_straddles_the_real_zero(self):
        assert exponential_integral(-5) < 0 < exponential_integral(5)

    def test_singular_at_zero(self):
        with pytest.raises(ValueError):
            exponential_integral(0)

    @pytest.mark.parametrize("x", [-50, -20, -5, -0.5, -1e-2, 1e-2, 0.5, 5, 20, 50, 80, 200, 700])
    def test_matches_quadrature_oracle(self, x):
        assert exponential_integral(x) == pytest.approx(ei_quadrature(x), rel=1e-8)

    def test_finite_past_the_overflow_of_exp_and_infinite_at_inf(self):
        # Ei(710) is below the largest double though e^710 is not; the
        # value is mpmath's.
        assert exponential_integral(710) == pytest.approx(3.1509156882062e305, rel=1e-12)
        assert exponential_integral(math.inf) == math.inf


class TestRegularizedIncompleteBeta:
    def test_symmetry_at_half(self):
        for a in (0.3, 1, 2.5, 7):
            assert reg_inc_beta_half(a, a) == pytest.approx(0.5, abs=1e-12)

    def test_beta_one_two(self):
        # Beta(1,2) CDF is 2x - x^2: value 3/4 at 1/2.
        assert reg_inc_beta_half(1, 2) == pytest.approx(0.75, abs=1e-12)

    def test_uniform(self):
        assert reg_inc_beta_half(1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reg_inc_beta_half(0, 1)
        with pytest.raises(ValueError):
            reg_inc_beta_half(1, -2)

    @pytest.mark.parametrize("a", [1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("b", [1e-2, 0.5, 1.5, 8.0])
    def test_matches_quadrature_oracle(self, a, b):
        assert reg_inc_beta_half(a, b) == pytest.approx(
            reg_inc_beta_half_quadrature(a, b), abs=1e-10
        )


class TestTrickleFirstTimestampBound:
    def test_matches_doubly_exponential_integral(self):
        assert trickle_ft_lower_bound(4, 1).value == pytest.approx(
            trickle_ft_integral(4, 1), abs=1e-6
        )

    def test_extra_taps_help_at_low_theta(self):
        # The bound rises with theta while theta stays small against d; for
        # larger theta the bound itself slackens (simultaneous reports are
        # discarded) and eventually decreases, so only the low end is tested.
        for d in (3, 4, 8, 16, 64):
            assert trickle_ft_lower_bound(d, 2).value > trickle_ft_lower_bound(d, 1).value

    def test_large_degree_tracks_asymptotic_shape(self):
        asym = math.log(100) / (100 * math.log(2))
        value = trickle_ft_lower_bound(100, 1).value
        assert abs(value - asym) / asym < 0.20

    def test_underflow_clamp_keeps_value_finite(self):
        value = trickle_ft_lower_bound(512, 1).value
        assert 0 < value < 1


class TestTrickleAsymptotic:
    def test_degree_two(self):
        assert trickle_ft_asymptotic(2).value == pytest.approx(0.5)

    def test_integer_only(self):
        with pytest.raises(ValueError):
            trickle_ft_asymptotic(math.e)

    def test_ratio_to_bound_approaches_one(self):
        ratio = trickle_ft_asymptotic(64).value / trickle_ft_lower_bound(64, 1).value
        assert ratio <= 1.25
        ratio_small = trickle_ft_asymptotic(8).value / trickle_ft_lower_bound(8, 1).value
        assert ratio <= ratio_small


class TestTrickleML:
    def test_upper_value(self):
        assert trickle_ml_upper(4, 1).value == pytest.approx(0.6)

    def test_lower_value(self):
        assert trickle_ml_lower(4, 1, 5).value == pytest.approx(0.6 - 0.8 ** 5)

    def test_lower_clamped_at_zero(self):
        assert trickle_ml_lower(4, 1, 1).value == 0.0

    @given(d=st.integers(2, 200), theta=st.integers(1, 50))
    def test_upper_always_exceeds_half(self, d, theta):
        assert trickle_ml_upper(d, theta).value > 0.5

    @given(d=st.integers(2, 40), theta=st.integers(1, 10), t=st.integers(1, 30))
    def test_lower_below_upper(self, d, theta, t):
        assert trickle_ml_lower(d, theta, t).value <= trickle_ml_upper(d, theta).value


class TestDiffusionFirstTimestamp:
    def test_values(self):
        assert diffusion_ft(3, 1).value == pytest.approx(math.log(2))
        assert diffusion_ft(4, 1).value == pytest.approx(0.5 * math.log(3))

    def test_limit_in_theta_is_one(self):
        assert diffusion_ft(4, 1e7).value == pytest.approx(1.0, abs=1e-6)

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            diffusion_ft(2, 1)

    def test_real_theta_accepted(self):
        assert 0 < diffusion_ft(5, 0.2).value < 1

    def test_diminishing_returns_in_theta(self):
        for d in (4, 8):
            vals = [diffusion_ft(d, th).value for th in range(1, 8)]
            diffs = [b - a for a, b in zip(vals, vals[1:])]
            assert all(x > 0 for x in diffs)
            assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_order_equal_to_trickle_asymptotic(self):
        d = 8
        while d <= 512:
            ratio = diffusion_ft(d, 1).value / trickle_ft_asymptotic(d).value
            assert 0.5 <= ratio <= 2.0
            d *= 2


class TestReportingCentralityConstant:
    def test_degree_three_closed_form(self):
        # 1 - 3 * (1 - 3/4) = 1/4 via the Beta(1, 2) CDF.
        assert reporting_centrality_constant(3).value == pytest.approx(0.25, abs=1e-10)

    def test_large_degree_limit(self):
        assert abs(reporting_centrality_constant(10_000).value - 0.307) <= 0.01

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            reporting_centrality_constant(2)


class TestSpyBound:
    def test_endpoints_and_interior(self):
        assert spy_ft_bound(0).value == 0
        assert spy_ft_bound(1).value == 1
        assert spy_ft_bound(0.3).value == pytest.approx(0.3)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            spy_ft_bound(1.2)


class TestFormulaDispatch:
    def test_known_ids(self):
        assert FORMULAS["diffusion_ft"](4, 1, None, None).value == pytest.approx(0.5493061443340549)
        assert FORMULAS["rc_constant"](3, None, None, None).value == pytest.approx(0.25)

    @given(d=st.integers(3, 64), theta=st.integers(1, 16))
    @settings(max_examples=40)
    def test_values_are_probabilities(self, d, theta):
        for fid in ("trickle_ft_lb", "trickle_ft_asym", "trickle_ml_ub", "diffusion_ft", "rc_constant"):
            tv = FORMULAS[fid](d, theta, 5, None)
            assert 0 <= tv.value <= 1

    def test_theory_value_validates_range(self):
        with pytest.raises(ValueError):
            TheoryValue("diffusion_ft", 1.5)


class TestUrn:
    def test_first_draw_is_forced_solid(self):
        traj = urn_simulate(4, 2, 1, random.Random(0))
        assert traj[0] == (1, 0)
        assert traj[1] == (3, 2)

    def test_solid_never_decreases_striped_multiple_of_theta(self):
        theta = 3
        traj = urn_simulate(5, theta, 3000, random.Random(1))
        for (s0, r0), (s1, r1) in zip(traj, traj[1:]):
            assert s1 >= s0
            assert r1 >= 0
            assert r1 % theta == 0

    def test_ratio_converges(self):
        traj = urn_simulate(4, 2, 50_000, random.Random(2))
        s, r = traj[-1]
        assert abs(r / s - 0.5) < 0.02

    def test_tail_trajectory_is_stable(self):
        # Standard deviation of striped/solid over the final decade of draws.
        traj = urn_simulate(5, 1, 40_000, random.Random(3))
        tail = [r / s for s, r in traj[-4000:]]
        mean = sum(tail) / len(tail)
        var = sum((x - mean) ** 2 for x in tail) / len(tail)
        assert math.sqrt(var) <= 0.02
        assert abs(mean - 1 / 4) < 0.05

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            urn_simulate(2, 1, 10, random.Random(0))
        with pytest.raises(ValueError):
            urn_simulate(4, 0, 10, random.Random(0))
