import math

import numpy as np
import pytest
from scipy import integrate

from rerand import dist
from rerand.dist import chi2_cdf, chi2_quantile, shrinkage_coeff


def _chi2_density(x, dof):
    half = dof / 2.0
    return x ** (half - 1.0) * math.exp(-x / 2.0) / (2.0**half * math.gamma(half))


def _quad_cdf(dof, x):
    # Independent oracle: adaptive quadrature of the density.
    value, err = integrate.quad(_chi2_density, 0.0, x, args=(dof,), limit=200)
    assert err < 1e-8
    return value


class TestChi2Cdf:
    def test_closed_form_dof2(self):
        for x in (0.1, 0.5, 2.0, 5.0, 20.0):
            assert chi2_cdf(2, x) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-14)
        assert chi2_cdf(2, 2.0) == pytest.approx(0.6321206, abs=1e-7)

    def test_closed_form_dof4(self):
        for x in (0.5, 2.0, 7.0):
            expected = 1.0 - math.exp(-x / 2.0) * (1.0 + x / 2.0)
            assert chi2_cdf(4, x) == pytest.approx(expected, abs=1e-14)
        assert chi2_cdf(4, 2.0) == pytest.approx(0.2642411, abs=1e-7)

    def test_quadrature_oracle(self):
        assert chi2_cdf(10, 3.940299) == pytest.approx(0.05, abs=1e-6)
        for dof, x in [(1, 0.3), (3, 2.0), (10, 3.940299), (50, 40.0), (182, 150.0)]:
            assert chi2_cdf(dof, x) == pytest.approx(_quad_cdf(dof, x), abs=1e-10)

    def test_accuracy_window(self):
        # abs error < 1e-12 for dof <= 1000, x <= 2000 (spot grid)
        from scipy import stats

        for dof in (1, 2, 7, 10, 100, 500, 1000):
            for x in (0.01, 1.0, 10.0, 100.0, 900.0, 2000.0):
                assert abs(chi2_cdf(dof, x) - stats.chi2.cdf(x, dof)) < 1e-12

    def test_monotone_and_boundary(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = [chi2_cdf(5, float(x)) for x in xs]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert chi2_cdf(5, math.inf) == 1.0

    def test_errors(self):
        for x in (-0.1, math.nan):
            with pytest.raises(ValueError):
                chi2_cdf(5, x)
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)
        with pytest.raises(ValueError):
            chi2_cdf(2.5, 1.0)


class TestChi2Quantile:
    def test_closed_form_dof2(self):
        assert chi2_quantile(2, 0.95) == pytest.approx(-2.0 * math.log(0.05), rel=1e-10)
        assert chi2_quantile(2, 0.05) == pytest.approx(-2.0 * math.log(0.95), rel=1e-10)
        assert chi2_quantile(2, 0.05) == pytest.approx(0.1025866, abs=1e-7)

    def test_matches_quadrature_inverse(self):
        q = chi2_quantile(10, 0.05)
        assert q == pytest.approx(3.9403, abs=1e-4)
        assert _quad_cdf(10, q) == pytest.approx(0.05, abs=1e-10)

    def test_round_trip(self):
        for dof in (1, 2, 3, 10, 50, 182):
            for x in (0.01, 0.1, 1.0, 5.0, 10.0, 30.0, 100.0):
                p = chi2_cdf(dof, x)
                if 0.0 < p < 1.0:
                    assert chi2_quantile(dof, p) == pytest.approx(x, rel=1e-8)

    def test_cdf_of_quantile_hits_p(self):
        for dof in (1, 4, 9, 100):
            for p in (1e-6, 0.01, 0.05, 0.5, 0.99, 1 - 1e-9):
                q = chi2_quantile(dof, p)
                assert chi2_cdf(dof, q) == pytest.approx(p, rel=1e-10)

    def test_huge_dof_matches_scipy(self):
        # near x = dof the series and the continued fraction need about
        # 9 sqrt(dof / 2) terms, far beyond the few hundred at working sizes
        from scipy import stats

        for dof in (10**5, 10**6):
            for p in (0.001, 0.05, 0.5):
                assert chi2_quantile(dof, p) == pytest.approx(stats.chi2.ppf(p, dof), rel=1e-11)

    def test_errors(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(3, p)


def test_unconverged_incomplete_gamma_raises(monkeypatch):
    # a capped loop must fail loudly, not return a truncated sum
    monkeypatch.setattr(dist, "_MAX_ITER", 5)
    with pytest.raises(RuntimeError, match="series"):
        chi2_cdf(100, 100.0)  # x/2 < dof/2 + 1: series
    with pytest.raises(RuntimeError, match="continued fraction"):
        chi2_cdf(100, 110.0)  # x/2 >= dof/2 + 1: continued fraction


class TestShrinkageCoeff:
    def test_frozen_hand_value(self):
        a = chi2_quantile(2, 0.05)
        closed = (1.0 - math.exp(-a / 2.0) * (1.0 + a / 2.0)) / (1.0 - math.exp(-a / 2.0))
        assert closed == pytest.approx(0.025427406636539876, rel=1e-10)
        assert shrinkage_coeff(2, a) == pytest.approx(closed, rel=1e-12)

    def test_open_unit_interval(self):
        # strictly below 1 in exact arithmetic; both CDFs saturate to 1.0
        # in floats once a is far into the right tail, so only the
        # unsaturated cells can assert the strict inequality
        for dof in (1, 2, 10, 50, 182):
            for a in (1e-8, 0.01, 1.0, 10.0, 200.0):
                v = shrinkage_coeff(dof, a)
                assert 0.0 < v <= 1.0
                if a <= 2.0 * dof:
                    assert v < 1.0

    def test_limit_at_infinity(self):
        assert shrinkage_coeff(3, 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_small_dof_shrinks_harder(self):
        v2 = shrinkage_coeff(2, chi2_quantile(2, 0.05))
        v10 = shrinkage_coeff(10, chi2_quantile(10, 0.05))
        assert v2 < v10

    def test_nondecreasing_in_dof_at_fixed_pa(self):
        for p in (0.01, 0.05, 0.2):
            prev = 0.0
            for k in range(1, 201):
                v = shrinkage_coeff(k, chi2_quantile(k, p))
                assert v >= prev - 1e-13
                prev = v

    def test_errors(self):
        with pytest.raises(ValueError):
            shrinkage_coeff(3, 0.0)
        with pytest.raises(ValueError):
            shrinkage_coeff(3, -1.0)
