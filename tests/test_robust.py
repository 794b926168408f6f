import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semba.robust import KernelConfig, adaptive_alpha, barron_psi, barron_rho, irls_weight


class TestBarronRho:
    @pytest.mark.parametrize("r, alpha, expected", [
        (0.0, 1.3, 0.0),
        (1.0, 2.0, 0.5),
        (1.0, 1.0, np.sqrt(2.0) - 1.0),
        (1.0, 0.0, np.log(1.5)),
        (1.0, -2.0, 0.4),
    ])
    def test_reference_values(self, r, alpha, expected):
        assert barron_rho(r, alpha, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_continuity_at_limit_bands(self):
        # No jump when straddling the nominal 1e-3 boundaries ...
        r = np.linspace(0.1, 5.0, 40)
        for edge in (2.0, 0.0):
            for boundary in (edge + 1e-3, edge - 1e-3):
                below = barron_rho(r, boundary - 1e-9, 1.0)
                above = barron_rho(r, boundary + 1e-9, 1.0)
                assert np.abs(below - above).max() <= 1e-6
        # ... and none across the actual limit-switch band either.
        for edge in (2.0, 0.0):
            for sign in (1.0, -1.0):
                general = barron_rho(r, edge + sign * 2e-9, 1.0)
                limit = barron_rho(r, edge, 1.0)
                assert np.abs(general - limit).max() <= 1e-6

    @given(st.floats(-6.0, 6.0), st.floats(-4.0, 4.0))
    def test_nonnegative_zero_only_at_origin(self, r, alpha):
        val = barron_rho(r, alpha, 1.0)
        assert val >= 0.0
        if abs(r) > 1e-6:
            assert val > 0.0

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(-4.0, 4.0))
    def test_nondecreasing_in_magnitude(self, r1, r2, alpha):
        lo, hi = sorted((r1, r2))
        assert barron_rho(hi, alpha, 1.0) >= barron_rho(lo, alpha, 1.0) - 1e-12

    def test_nondecreasing_in_alpha(self):
        alphas = np.linspace(-6.0, 2.0, 120)
        for r in (0.3, 1.0, 2.5, 7.0):
            vals = barron_rho(np.full_like(alphas, r), alphas, 1.0)
            assert np.all(np.diff(vals) >= -1e-9)

    def test_scale_parameter(self):
        # rho depends on r only through r/c.
        assert barron_rho(2.0, -1.0, 2.0) == pytest.approx(barron_rho(1.0, -1.0, 1.0))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            barron_rho(1.0, 2.0, 0.0)


class TestBarronPsi:
    @pytest.mark.parametrize("r, alpha, expected", [
        (0.0, -1.0, 0.0),
        (1.0, 2.0, 1.0),
        (1.0, -2.0, 0.64),
    ])
    def test_reference_values(self, r, alpha, expected):
        assert barron_psi(r, alpha, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_rho_derivative(self):
        worst = 0.0
        for alpha in (-4.0, -2.0, 0.0, 1.0, 2.0):
            for r in np.linspace(0.05, 5.0, 60):
                fd = (barron_rho(r + 1e-6, alpha, 1.0) - barron_rho(r - 1e-6, alpha, 1.0)) / 2e-6
                worst = max(worst, abs(barron_psi(r, alpha, 1.0) - fd))
        assert worst < 1e-5

    def test_odd_in_r(self):
        assert barron_psi(-1.3, -2.0, 1.0) == pytest.approx(-barron_psi(1.3, -2.0, 1.0))


class TestIrlsWeight:
    def test_l2_weight_is_inverse_scale_squared(self):
        assert irls_weight(1.0, 2.0, 1.0) == pytest.approx(1.0)
        assert irls_weight(3.7, 2.0, 0.5) == pytest.approx(4.0)

    def test_geman_mcclure_like_value(self):
        assert irls_weight(1.0, -2.0, 1.0) == pytest.approx(0.64)

    def test_zero_residual_guard(self):
        # psi(r)/r -> 1/c^2 as r -> 0 for every shape; the weight must take that limit
        # and agree with psi(r)/r wherever the division is well defined.
        r = np.linspace(1e-3, 10.0, 200)
        for c in (0.5, 1.0, 2.0):
            for alpha in (2.0, 1.0, 0.0, -2.0, -10.0):
                w0 = irls_weight(0.0, alpha, c)
                assert w0 == 1.0 / c**2
                assert irls_weight(1e-12, alpha, c) == pytest.approx(w0, rel=1e-12, abs=0.0)
                np.testing.assert_allclose(irls_weight(r, alpha, c), barron_psi(r, alpha, c) / r,
                                           rtol=1e-12, atol=0.0)
        w = irls_weight(np.zeros(3), np.array([2.0, 0.0, -2.0]), 1.0)
        assert np.array_equal(w, np.ones(3))

    def test_never_exceeds_l2_weight_for_alpha_below_two(self):
        r = np.linspace(1e-6, 10.0, 200)
        for alpha in (-4.0, -2.0, 0.0, 1.0, 1.9, 2.0):
            w = irls_weight(r, alpha, 1.0)
            assert np.all(w <= 1.0 + 1e-9)

    def test_rejects_negative_residuals(self):
        with pytest.raises(ValueError):
            irls_weight(-1.0, 2.0, 1.0)


class TestAdaptiveAlpha:
    CFG = KernelConfig(alpha_static=2.0, alpha_dynamic=-2.0, kappa=0.5, tau=0.1)

    def test_midpoint(self):
        assert adaptive_alpha(0.5, self.CFG) == pytest.approx(0.0, abs=1e-12)

    def test_high_similarity(self):
        expected = 2.0 - 4.0 / (1.0 + np.exp(5.0))
        assert adaptive_alpha(1.0, self.CFG) == pytest.approx(expected, abs=1e-12)
        assert adaptive_alpha(1.0, self.CFG) == pytest.approx(1.9732285963028606, abs=1e-9)

    def test_low_similarity(self):
        expected = -4.0 / (1.0 + np.exp(-5.0)) + 2.0
        assert adaptive_alpha(0.0, self.CFG) == pytest.approx(expected, abs=1e-12)
        assert adaptive_alpha(0.0, self.CFG) == pytest.approx(-1.973228596302861, abs=1e-9)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert adaptive_alpha(lo, self.CFG) <= adaptive_alpha(hi, self.CFG) + 1e-12

    @given(st.floats(-1.0, 1.0))
    def test_range(self, cs):
        val = adaptive_alpha(cs, self.CFG)
        assert self.CFG.alpha_dynamic <= val <= self.CFG.alpha_static


class TestKernelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(c=0.0)
        with pytest.raises(ValueError):
            KernelConfig(tau=-1.0)
        with pytest.raises(ValueError):
            KernelConfig(alpha_static=0.0, alpha_dynamic=1.0)
        with pytest.raises(ValueError):
            KernelConfig(kappa=1.5)
