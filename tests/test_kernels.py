import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hardyops.coupling import coupling_C, make_coupling
from hardyops.kernels import (DomainError, _log_envelope, diff_envelope,
                              diff_envelope_parts, dist, heat_envelope,
                              heat_exact_halfline, heat_exact_halfspace,
                              heat_images_halfline, master_regime_estimate,
                              master_time_integral, pt, riesz_envelope,
                              riesz_exact_halfline, riesz_s_max)


class TestHeatEnvelope:
    def test_all_factors_saturate_on_diagonal(self):
        cp = make_coupling(1, 1.5, coupling_C(1.5, 0.9))
        t = 0.3
        x = pt(2.0 * t ** (1.0 / 1.5))
        assert heat_envelope(cp, t, x, x) == pytest.approx(t ** (-1.0 / 1.5), rel=1e-14)

    def test_scaling_homogeneity(self):
        cp = make_coupling(1, 1.5, 1.0)
        t, x, y, r = 0.7, pt(0.5), pt(3.0), 1.9
        lhs = heat_envelope(cp, r ** 1.5 * t, pt(r * 0.5), pt(r * 3.0))
        assert lhs == pytest.approx(heat_envelope(cp, t, x, y) / r, rel=1e-12)

    def test_direct_formula_value(self):
        # independent reimplementation at (alpha=1.5, lambda=1, d=1, t=1)
        cp = make_coupling(1, 1.5, 1.0)
        x, y, t = 0.5, 3.0, 1.0
        expected = min(1.0, x / t ** (2 / 3)) ** cp.p \
            * min(1.0, y / t ** (2 / 3)) ** cp.p * t ** (-2 / 3) \
            * min(1.0, t ** (2 / 3) / abs(x - y)) ** 2.5
        assert heat_envelope(cp, t, pt(x), pt(y)) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_branch(self):
        cp = make_coupling(2, 2.0, 0.0)  # p = 1
        val = heat_envelope(cp, 2.0, pt(3.0, 0.0), pt(5.0, 1.0), c_exp=0.2)
        ref = min(1, 3 / math.sqrt(2)) * min(1, 5 / math.sqrt(2)) / 2.0 \
            * math.exp(-0.2 * 5.0 / 2.0)
        assert val == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("alpha, lam, t", [
        (0.5, 0.5, 1e-300), (0.5, -0.079, 1e300), (0.01, 0.5, 1e-4), (0.01, 0.5, 10.0),
    ])
    def test_times_where_t_to_the_one_over_alpha_leaves_the_double_range(self, alpha,
                                                                         lam, t):
        cp = make_coupling(1, alpha, lam)
        with mp.workdps(30):
            a, p, tt, x, y = (mp.mpf(v) for v in (alpha, cp.p, t, 1.0, 3.0))
            ta = tt ** (1 / a)
            ref = min(1, x / ta) ** p * min(1, y / ta) ** p * tt ** (-1 / a) \
                * min(1, ta / abs(x - y)) ** (1 + a)
        assert heat_envelope(cp, t, pt(1.0), pt(3.0)) == pytest.approx(float(ref),
                                                                        rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(alpha=0.005), r"alpha must lie in \[0.01, 2\]"),
        (dict(alpha=3.0), r"alpha must lie in \[0.01, 2\]"),
        (dict(d=1.5), "d must be"),
        (dict(d=0), "d must be"),
        (dict(c_exp=0.0), "c_exp must be"),
    ], ids=["alpha-below-min", "alpha-above-two", "d-fractional", "d-zero", "c-exp-zero"])
    def test_parameters_follow_the_coupling_rules(self, kwargs, match):
        # both envelopes take alpha and d from make_coupling's rules and check
        # c_exp where they are called
        args = {**dict(alpha=1.5, d=1, c_exp=0.25), **kwargs}
        for envelope in (heat_envelope, diff_envelope_parts):
            with pytest.raises(DomainError, match=match):
                envelope(make_coupling(args["d"], args["alpha"], 1.0), 1.0, pt(1.0),
                         pt(2.0), c_exp=args["c_exp"])


class TestExactKernel:
    def test_images_reduction(self):
        for t in np.logspace(-2, 2, 8):
            for r in np.logspace(-1, 1, 8):
                for s in np.logspace(-1, 1, 8):
                    a = heat_exact_halfline(0.0, float(t), float(r), float(s))
                    b = heat_images_halfline(float(t), float(r), float(s))
                    assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_symmetry(self):
        assert heat_exact_halfline(2.0, 0.7, 1.1, 0.4) == \
            heat_exact_halfline(2.0, 0.7, 0.4, 1.1)

    def test_semigroup_property(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            lam = rng.uniform(-0.2, 3.0)
            t, u = rng.uniform(0.2, 1.0, 2)
            r, s = rng.uniform(0.3, 2.0, 2)
            zmax = max(r, s) + 12.0 * math.sqrt(t + u) + 5.0
            val = quad(lambda z: heat_exact_halfline(lam, t, r, z)
                       * heat_exact_halfline(lam, u, z, s),
                       0.0, zmax, points=[r, s], limit=300, epsrel=1e-10)[0]
            assert val == pytest.approx(heat_exact_halfline(lam, t + u, r, s),
                                        rel=1e-7)

    def test_halfspace_factorization(self):
        lam, t = 1.5, 0.6
        assert heat_exact_halfspace(1, lam, t, pt(1.1), pt(0.7)) == \
            heat_exact_halfline(lam, t, 1.1, 0.7)
        x = pt(1.1, 0.3, -0.2)
        y = pt(0.7, 0.3, -0.2)
        assert heat_exact_halfspace(3, lam, t, x, y) == pytest.approx(
            heat_exact_halfline(lam, t, 1.1, 0.7) / (4.0 * math.pi * t), rel=1e-13)

    def test_submarkov_mass(self):
        # integral over y of the kernel is at most one for lam >= 0
        for lam in (0.0, 1.0):
            for (t, r) in ((0.5, 1.0), (2.0, 0.3)):
                zmax = r + 14.0 * math.sqrt(t) + 5.0
                mass = quad(lambda z: heat_exact_halfline(lam, t, r, z),
                            0.0, zmax, points=[r], limit=300, epsrel=1e-9)[0]
                assert mass <= 1.0 + 1e-8
                assert mass > 0.0

    def test_mpmath_closed_form_oracle(self):
        # sqrt(rs)/(2t) exp(-(r^2+s^2)/4t) I_mu(rs/2t) at 40 digits, over the
        # orders mu = sqrt(lam + 1/4) <= 10 the package uses; t down to 1e-12
        # takes rs/2t past 1.08e9, where scipy's ive returns NaN
        worst = 0.0
        with mp.workdps(40):
            for lam in (-0.25, 0.0, 0.5, 3.0, 100.0):
                mu = mp.sqrt(mp.mpf(lam) + mp.mpf(1) / 4)
                for t in np.logspace(-12, 2, 15):
                    for r in np.logspace(-2, 1.5, 6):
                        for s in np.logspace(-2, 1.5, 6):
                            T, R, S = (mp.mpf(float(v)) for v in (t, r, s))
                            ref = float(mp.sqrt(R * S) / (2 * T)
                                        * mp.exp(-(R * R + S * S) / (4 * T))
                                        * mp.besseli(mu, R * S / (2 * T)))
                            if ref < 1e-290:
                                continue
                            got = heat_exact_halfline(lam, float(t), float(r), float(s))
                            assert math.isfinite(got), (lam, t, r, s)
                            worst = max(worst, abs(got / ref - 1.0))
        assert worst <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            heat_exact_halfline(-0.3, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            heat_exact_halfline(0.0, -1.0, 1.0, 1.0)

    def test_point_dimensions_are_checked(self):
        with pytest.raises(DomainError, match="different dimensions"):
            dist(pt(1.0), pt(1.0, 0.5))
        for d in (0, 2):
            with pytest.raises(DomainError, match="point dimension does not match d"):
                heat_exact_halfspace(d, 0.0, 1.0, pt(1.0), pt(2.0))

    @pytest.mark.parametrize("t, r, s", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                         (1.0, 1.0, 0.0)])
    def test_images_reduction_domain(self, t, r, s):
        with pytest.raises(DomainError, match="t, r, s must be positive"):
            heat_images_halfline(t, r, s)

    def test_nan_coupling_rejected(self):
        with pytest.raises(DomainError, match="lambda"):
            heat_exact_halfline(math.nan, 1.0, 1.0, 1.0)

    def test_infinite_coupling_rejected(self):
        # mu = inf gave NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="lambda must be finite, got inf"):
                heat_exact_halfline(math.inf, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("lam", [-0.25, 0.0, 1.0, 100.0])
    def test_array_call_equals_scalar_calls(self, lam):
        # z = rs/2t runs from 1e-3 across the large-argument switch at
        # max(1e8, 1e6 mu^2) to 5e13
        z = np.logspace(-3.0, 13.7, 60)
        t = np.full_like(z, 0.5)
        r = np.sqrt(z)
        s = np.sqrt(z) * np.linspace(0.999, 1.001, z.size)
        got = heat_exact_halfline(lam, t, r, s)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        expected = [heat_exact_halfline(lam, float(a), float(b), float(c))
                    for a, b, c in zip(t, r, s)]
        assert all(isinstance(v, float) for v in expected)
        assert got.tolist() == expected
        assert np.sum(r * s / (2.0 * t) > max(1e8, 1e6 * (lam + 0.25))) >= 5

    def test_array_arguments_broadcast_and_are_checked(self):
        sig = np.array([[0.2], [0.7]])
        z = np.linspace(0.1, 3.0, 5)
        got = heat_exact_halfline(1.0, sig, z, 1.3)
        assert got.shape == (2, 5)
        assert got[1, 3] == heat_exact_halfline(1.0, 0.7, float(z[3]), 1.3)
        with pytest.raises(DomainError, match="positive"):
            heat_exact_halfline(1.0, sig, np.array([0.5, 0.0]), 1.3)
        with pytest.raises(DomainError, match="positive"):
            heat_exact_halfline(1.0, np.array([0.5, math.nan]), 1.0, 1.3)

    def test_halfspace_huge_transverse_gap_is_zero(self):
        # the squared gap and (4 pi t)^{-(d-1)/2} leave the double range
        assert heat_exact_halfspace(2, 0.0, 1.0, pt(1.0, 1e200), pt(1.0, -1e200)) == 0.0
        assert heat_exact_halfspace(3, 0.0, 1e-300, pt(1.0, 1e200, 0.0),
                                    pt(1.0, 0.0, 0.0)) == 0.0

    def test_distance_of_far_and_of_close_points(self):
        # |x - y| as the root of its square gave 0 and inf here
        assert dist(pt(2e-200), pt(1e-200)) == 1e-200
        assert dist(pt(1e200), pt(1e-200)) == 1e200
        assert dist(pt(1.0, 3e-200), pt(1.0, -1e-200)) == 4e-200
        assert dist(pt(1.0, 3.0), pt(5.0, 6.0)) == 5.0


class TestSandwich:
    def test_exact_kernel_between_envelopes(self):
        # measured constants over a (t, r, s) log-grid, d = 1
        for lam in (0.0, 1.0):
            cp = make_coupling(1, 2.0, lam)
            ratios_low, ratios_up = [], []
            for t in np.logspace(-2, 2, 6):
                for r in np.logspace(-2, 2, 6):
                    for s in np.logspace(-2, 2, 6):
                        e = heat_exact_halfline(lam, float(t), float(r), float(s))
                        if e == 0.0:
                            continue
                        ratios_low.append(e / heat_envelope(cp, t, pt(r), pt(s)))
                        ratios_up.append(e / heat_envelope(cp, t, pt(r), pt(s), 0.15))
            k1 = min(ratios_low)
            k2 = max(ratios_up)
            assert k1 > 0.0
            assert k2 / k1 < 1e3

    def test_long_time_ratio_stabilizes(self):
        # t -> infinity with x, y fixed: exact/envelope tends to a constant
        lam = 1.0
        cp = make_coupling(1, 2.0, lam)
        vals = []
        for t in (1e3, 1e4, 1e5):
            vals.append(heat_exact_halfline(lam, t, 1.3, 0.8)
                        / heat_envelope(cp, t, pt(1.3), pt(0.8)))
        assert vals[2] == pytest.approx(vals[1], rel=1e-3)


class TestRieszEnvelope:
    def test_second_order_is_product_form(self):
        cp = make_coupling(1, 2.0, 1.0)
        s = 0.7
        for (xd, yd) in ((0.1, 0.2), (0.05, 2.0), (3.0, 0.01)):
            r = abs(xd - yd)
            expected = r ** (s - 1.0) * min(1.0, xd / r) ** cp.p \
                * min(1.0, yd / r) ** cp.p
            assert riesz_envelope(cp, s, pt(xd), pt(yd)) == pytest.approx(
                expected, rel=1e-12)

    def test_scaling_homogeneity(self):
        cp = make_coupling(1, 0.8, 0.5)
        s = 0.9
        a, d = cp.alpha, cp.d
        lhs = riesz_envelope(cp, s, pt(2.0 * 0.3), pt(2.0 * 1.7))
        rhs = 2.0 ** (0.5 * a * s - d) * riesz_envelope(cp, s, pt(0.3), pt(1.7))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_large_coupling_far_regime_correction(self):
        # for p above the branch threshold the far regime carries the extra
        # power of |x-y| over the larger boundary distance; the far regime
        # |x-y| >= x_d v y_d needs a transverse gap, so d = 2 here
        cp = make_coupling(2, 0.8, 8.0)
        s = 0.4
        assert cp.p > 0.5 * 0.8 * (1.0 + 0.2)
        x, y = pt(0.01, 0.0), pt(0.02, 1.0)
        r = dist(x, y)
        base = r ** (0.5 * 0.8 * s - 2.0) * (x.xd * y.xd / r ** 2) ** cp.p
        extra = (r / 0.02) ** (2.0 * cp.p - 0.8 * (1.0 + 0.5 * s))
        assert riesz_envelope(cp, s, x, y) == pytest.approx(base * extra, rel=1e-12)

    def test_regime_continuity(self):
        cp = make_coupling(1, 1.5, 0.5)
        s = 0.6
        lo = riesz_envelope(cp, s, pt(1.0), pt(2.0 - 1e-9))
        hi = riesz_envelope(cp, s, pt(1.0), pt(2.0 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_negative_exponent_near_the_boundary_and_far_apart(self):
        # p < 0: n/|x-y| underflows to 0, and |x-y|^2 overflows, yet the
        # near-regime shape |x-y|^{as/2-d} (n/|x-y|)^p is a normal double
        cp = make_coupling(1, 0.5, -0.079)
        s = 0.5
        assert cp.p < 0.0
        for x, y in ((5e-324, 2.0), (1e300, 1.0), (1e200, 1e-200), (5e-324, 1e300)):
            with mp.workdps(30):
                r, n, p = abs(mp.mpf(x) - mp.mpf(y)), mp.mpf(min(x, y)), mp.mpf(cp.p)
                ref = r ** (mp.mpf(0.25) * s - 1) * (n / r) ** p
            assert riesz_envelope(cp, s, pt(x), pt(y)) == pytest.approx(float(ref),
                                                                        rel=1e-12, abs=0.0)

    def test_exact_kernel_diagonal_is_infinite(self):
        assert riesz_exact_halfline(0.5, 0.5, 1.3, 1.3) == math.inf

    def test_s_window(self):
        cp = make_coupling(1, 1.5, 0.5)
        with pytest.raises(DomainError):
            riesz_envelope(cp, riesz_s_max(1.5, 1, cp.p) + 0.01, pt(1.0), pt(2.0))


class TestMasterTimeIntegral:
    def test_symmetric_in_TS(self):
        v1 = master_time_integral(1.2, 1, 0.8, 0.5, 3.0, 2.0)
        v2 = master_time_integral(1.2, 1, 0.8, 0.5, 2.0, 3.0)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_small_scales_comparable_to_one(self):
        val = master_time_integral(1.2, 1, 0.8, 0.5, 0.7, 0.9)
        assert 0.1 < val / master_regime_estimate(1.2, 1, 0.8, 0.5, 0.7, 0.9) < 10.0

    def test_large_scale_regime_with_strong_coupling(self):
        alpha, d, p, s = 1.2, 1, 1.1, 0.5
        for T in (10.0, 1e3):
            ratio = master_time_integral(alpha, d, p, s, T, 4.0) \
                / master_regime_estimate(alpha, d, p, s, T, 4.0)
            assert 1.0 / 50.0 < ratio < 50.0

    def test_against_direct_quadrature_oracle(self):
        # brute-force lattice quadrature of the same integrand
        alpha, d, p, s, T, S = 1.5, 1, 0.7, 0.6, 2.0, 1.5
        val = master_time_integral(alpha, d, p, s, T, S)

        def f(tau):
            bulk = min(1.0, tau ** (1.0 / alpha + 1.0))
            return tau ** (-2.0 - 0.5 * s) * bulk \
                * min(1.0, (tau / T) ** (1 / alpha)) ** p \
                * min(1.0, (tau / S) ** (1 / alpha)) ** p

        taus = np.logspace(-8, 10, 300001)
        ref = np.trapezoid([f(t) for t in taus], taus)
        assert val == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("s, T, S, match", [
        (0.5, 0.0, 1.0, "T, S must be positive"), (0.5, 1.0, -1.0, "T, S must be positive"),
        (0.0, 1.0, 1.0, "s outside the convergence window"),
        (1.7, 1.0, 1.0, "s outside the convergence window")])
    def test_domain(self, s, T, S, match):
        # riesz_s_max(1.2, 1, 0.8) = 5/3
        with pytest.raises(DomainError, match=match):
            master_time_integral(1.2, 1, 0.8, s, T, S)

    def test_pair_constraint(self):
        with pytest.raises(DomainError):
            master_time_integral(1.2, 1, 0.8, 0.5, 1e-6, 1.0)

    @pytest.mark.parametrize("alpha, d, p, s, T, S, c_exp", [
        *[(1.2, 1, p, 0.5, T, S, 1.0) for p in (0.5, 0.75, 1.1)
          for T, S in ((0.7, 0.9), (3.0, 2.0), (1e3, 4.0), (0.01, 0.0098))],
        (0.6, 2, -0.1, 1.5, 50.0, 1.5, 1.0),
        (0.6, 2, -0.1, 0.5, 1e-3, 1e-3, 1.0),
        (0.3, 1, 0.75, 1.95, 1e4, 1.0, 1.0),
        (0.6, 2, 0.75, 1.95, 1e4, 1e4, 1.0),
        (1.5, 1, 0.7, 0.6, 2.0, 1.5, 1.0),
        (2.0, 1, 1.618, 0.7, 0.3, 0.1255, 1.0),
        (2.0, 1, 1.618, 0.7, 1e3, 10.0, 0.25),
        (2.0, 1, 1.618, 0.7, 10.0, 10.0, 0.25),
        (2.0, 1, 1.618033988749895, 0.7, 1e5, 10.0, 1.0),
        (2.0, 2, 0.5, 1.5, 1e-4, 9.85e-5, 1.0),
        (2.0, 2, 2.5, 0.05, 1e-3, 1e-3, 0.25),
    ])
    def test_mpmath_piecewise_oracle(self, alpha, d, p, s, T, S, c_exp):
        # 30-digit mp.quad of the same integrand, split at {1, T, S}, where
        # every min() switches branch; p = 0.75 at alpha = 1.2, s = 0.5 makes
        # one piece tau^-1, adaptive quadrature was 3.9e-8 off at s = 1.95,
        # T = 1e4 and 2.9e-4 at criterion 7's alpha = 2, T = 1e5, S = 10, and
        # the last case has a piece whose mass is a difference of upper
        # incomplete Gamma tails near one
        with mp.workdps(30):
            a, c = mp.mpf(alpha), mp.mpf(c_exp)

            def f(tau):
                if alpha == 2.0:
                    bulk = tau ** (d / a + 1) * mp.exp(-c * tau)
                else:
                    bulk = min(1, tau ** (d / a + 1))
                return tau ** (-2 - mp.mpf(s) / 2) * bulk \
                    * min(1, (tau / T) ** (1 / a)) ** p * min(1, (tau / S) ** (1 / a)) ** p

            ref = mp.quad(f, sorted({0, 1, T, S}) + [mp.inf])
        got = master_time_integral(alpha, d, p, s, T, S, c_exp)
        assert type(got) is float
        assert got == pytest.approx(float(ref), rel=1e-10, abs=0.0)


class TestDifferenceEnvelope:
    def test_indicator_regions(self):
        alpha, t = 1.5, 1.0
        cp = make_coupling(1, alpha, coupling_C(alpha, 0.9))
        # far from boundary, points apart: bulk piece vanishes
        J, M = diff_envelope_parts(cp, t, pt(3.0), pt(8.0))
        assert M == 0.0 and J > 0.0
        # far from boundary, points together: boundary piece vanishes
        J, M = diff_envelope_parts(cp, t, pt(3.0), pt(3.2))
        assert J == 0.0 and M > 0.0
        # close to boundary: boundary piece active
        J, M = diff_envelope_parts(cp, 10.0 ** alpha, pt(3.0), pt(3.2))
        assert J > 0.0 and M == 0.0

    def test_direct_value_and_difference_domination(self):
        # alpha=2, lambda=1: |exact_0 - exact_lam| <= C (J + M) with a
        # single fitted constant over a small grid
        lam = 1.0
        cp = make_coupling(1, 2.0, lam)
        worst = 0.0
        for t in np.logspace(-1, 1, 4):
            for x in np.logspace(-1, 0.7, 5):
                for y in np.logspace(-1, 0.7, 5):
                    d0 = heat_images_halfline(float(t), float(x), float(y))
                    dl = heat_exact_halfline(lam, float(t), float(x), float(y))
                    env = diff_envelope(cp, float(t), pt(x), pt(y), c_exp=0.15)
                    worst = max(worst, abs(d0 - dl) / env)
        assert worst < 1e3

    def test_specific_entry(self):
        val = diff_envelope(make_coupling(1, 2.0, 2.0), 1.0, pt(3.0), pt(3.2))  # p = 2
        # region x ^ y >= t^{1/2}, |x-y| <= min/2: only the M piece
        ref = 1.0 / 3.2 ** 2 * math.exp(-0.25 * 0.2 ** 2)
        assert val == pytest.approx(ref, rel=1e-10)


class TestSemigroupImage:
    def test_interior_value_at_short_time(self):
        # the semigroup image of a bump reproduces the bump away from the
        # boundary once t is small
        def bump(y):
            s = (y - 1.25) / 0.75
            return math.exp(1.0 - 1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0

        val = quad(lambda y: heat_exact_halfline(1.0, 0.002, 1.25, y) * bump(y),
                   0.5, 2.0, points=[1.25], limit=400, epsrel=1e-9)[0]
        assert val == pytest.approx(bump(1.25), rel=2e-2)


class TestRieszExact:
    def test_ratio_to_envelope_bounded(self):
        lam, s = 1.0, 0.7
        cp = make_coupling(1, 2.0, lam)
        ratios = []
        for (r, rho) in ((1.0, 1.2), (0.05, 2.0), (0.3, 0.4), (2.0, 0.01)):
            ratios.append(riesz_exact_halfline(lam, s, r, rho)
                          / riesz_envelope(cp, s, pt(r), pt(rho)))
        assert max(ratios) / min(ratios) < 1e2

    def test_symmetry(self):
        v1 = riesz_exact_halfline(0.5, 0.6, 0.7, 1.4)
        v2 = riesz_exact_halfline(0.5, 0.6, 1.4, 0.7)
        assert v1 == pytest.approx(v2, rel=1e-8)

    def test_s_window(self):
        with pytest.raises(DomainError):
            riesz_exact_halfline(1.0, 1.2, 1.0, 2.0)

    @pytest.mark.parametrize("lam, match", [(-1.0, "below the sharp constant -0.25"),
                                            (math.nan, "lambda must be finite"),
                                            (math.inf, "lambda must be finite")])
    def test_inadmissible_coupling_rejected(self, lam, match):
        # lam = -1 gave the lam = -1/4 value 0.28077
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                riesz_exact_halfline(lam, 0.5, 1.0, 2.0)

    def test_mpmath_oracle(self):
        # away from the diagonal at lam <= 2 and the ends of the s window, the
        # 20-digit time integral of the heat kernel checks the closed form;
        # everywhere, down to |r - rho| = 1e-6 r where time quadrature returned
        # NaN, mpmath's 40-digit 2F1 of the same closed form checks its
        # double-precision evaluation
        pairs = ((1.0, 1.2), (0.05, 2.0), (0.3, 0.4), (2.0, 0.01),
                 (1.0, 1.001), (5.0, 4.995), (1.0, 1.000001))
        worst = 0.0
        with mp.workdps(40):
            for lam in (-0.25, 0.0, 1.0, 3.0, 100.0):
                mu = mp.sqrt(mp.mpf(lam) + mp.mpf(1) / 4)
                for s in (0.01, 0.5, 0.7, 0.99):
                    S = mp.mpf(s)
                    for r, rho in pairs:
                        R, P = mp.mpf(r), mp.mpf(rho)
                        M = max(R, P)
                        q = min(R, P) / M
                        refs = [2 ** (1 - S) * M ** (S - 1) * q ** (mu + 0.5)
                                * mp.gamma(mu + 1 - S / 2) / (mp.gamma(S / 2) * mp.gamma(mu + 1))
                                * mp.hyp2f1(mu + 1 - S / 2, 1 - S / 2, mu + 1, q * q)]
                        if lam <= 2.0 and s in (0.01, 0.99) and abs(r - rho) > 1e-2 * r:
                            def heat(t):
                                return mp.sqrt(R * P) / (2 * t) * t ** (S / 2 - 1) \
                                    * mp.exp(-(R * R + P * P) / (4 * t)) \
                                    * mp.besseli(mu, R * P / (2 * t))
                            with mp.workdps(20):
                                refs.append(mp.quad(heat, sorted({0, (R - P) ** 2, R * P})
                                                    + [mp.inf]) / mp.gamma(S / 2))
                        got = riesz_exact_halfline(lam, s, r, rho)
                        assert math.isfinite(got), (lam, s, r, rho)
                        worst = max([worst] + [abs(got / float(ref) - 1.0) for ref in refs])
        assert worst <= 1e-10


# (d, alpha, lambda, times, x_d, y_d, transverse coordinates): every
# combination is one sample.  lambda = -0.079 at alpha = 0.5 gives p < 0, and
# t^{1/alpha} leaves the double range at alpha = 0.01 for t = 1e-4 and 1e4;
# each case holds points on the diagonal, where the Riesz envelope is inf, and
# the huge and tiny coordinates of the float tests above
ARRAY_CASES = {
    "p-negative": (1, 0.5, -0.079, (1e-300, 1e-4, 1.0, 1e300), (5e-324, 1.0, 1e300),
                   (2.0, 1e-200, 1e300, 1.0), ()),
    "t-root-out-of-range": (1, 0.01, 0.5, (1e-4, 10.0, 1e4), (1.0, 3.0), (3.0, 1e-200), ()),
    "fractional": (1, 1.5, 1.0, (0.01, 0.5, 7.0), (0.3, 1.0, 2.0), (0.3, 0.31, 5.0), ()),
    "half-plane": (2, 2.0, 1.0, (1e-300, 0.01, 0.5, 100.0), (1e-200, 1.0, 1e200),
                   (2e-200, 1.0, 5e199), (0.0, 3e-200, -1e-200, 1e200)),
    "half-plane-critical": (2, 2.0, -0.25, (0.03, 2.0), (0.1, 1.0), (1.0, 3.0), (0.0, 0.3)),
}
ARRAY_FUNCTIONS = {
    "dist": lambda cp, t, x, y: dist(x, y),
    "_log_envelope": lambda cp, t, x, y: _log_envelope(cp.alpha, cp.d, cp.p, 0.2, t, x, y),
    "heat_envelope": lambda cp, t, x, y: heat_envelope(cp, t, x, y, 0.2),
    "diff_envelope_parts": lambda cp, t, x, y: diff_envelope_parts(cp, t, x, y, 0.2),
    "diff_envelope": lambda cp, t, x, y: diff_envelope(cp, t, x, y, 0.2),
    # called at s = s_max t/(2 + 2t), inside the window for every t > 0
    "riesz_envelope": lambda cp, s, x, y: riesz_envelope(cp, s, x, y),
    "heat_exact_halfspace": lambda cp, t, x, y: heat_exact_halfspace(cp.d, cp.lam, t, x, y),
}


def _within_ulps(got, expected, ulps=4):
    if got == expected or (math.isnan(got) and math.isnan(expected)):
        return True
    return abs(got - expected) <= ulps * math.ulp(expected)


class TestArrayCalls:
    # the exact heat kernel is the alpha = 2 kernel
    @pytest.mark.parametrize("case, func", [
        (case, func) for case, spec in ARRAY_CASES.items() for func in ARRAY_FUNCTIONS
        if spec[1] == 2.0 or func != "heat_exact_halfspace"])
    def test_array_call_equals_the_float_calls(self, case, func):
        d, alpha, lam, times, xs, ys, gaps = ARRAY_CASES[case]
        cp = make_coupling(d, alpha, lam)
        axes = [times, xs, ys] + [gaps] * 2 * (d - 1)
        t, xd, yd, *g = (v.ravel() for v in np.meshgrid(*axes, indexing="ij"))
        if func == "riesz_envelope":
            t = 0.5 * riesz_s_max(alpha, d, cp.p) * t / (1.0 + t)
        fn = ARRAY_FUNCTIONS[func]
        got = fn(cp, t, pt(xd, *g[:d - 1]), pt(yd, *g[d - 1:]))
        got = np.stack(got) if isinstance(got, tuple) else got[None, :]
        assert isinstance(got, np.ndarray) and got.shape[1] == t.size
        for i in range(t.size):
            value = fn(cp, float(t[i]), pt(xd[i], *(c[i] for c in g[:d - 1])),
                       pt(yd[i], *(c[i] for c in g[d - 1:])))
            values = value if isinstance(value, tuple) else (value,)
            assert all(type(v) is float for v in values)
            for k, v in enumerate(values):
                assert _within_ulps(float(got[k, i]), v), (func, case, i, got[k, i], v)
        if func == "riesz_envelope":  # its singular diagonal
            diag = (xd == yd) & np.all([a == b for a, b in zip(g[:d - 1], g[d - 1:])], axis=0)
            assert np.any(diag) and np.all(got[0, diag] == math.inf)

    def test_huge_and_tiny_coordinates_as_arrays(self):
        # the float cases of test_distance_of_far_and_of_close_points and
        # test_halfspace_huge_transverse_gap_is_zero, each as one array call
        x = pt([2e-200, 1e200, 1.0, 1.0], [0.0, 0.0, 3e-200, 3.0])
        y = pt([1e-200, 1e-200, 1.0, 5.0], [0.0, 0.0, -1e-200, 6.0])
        assert dist(x, y).tolist() == [1e-200, 1e200, 4e-200, 5.0]
        got = heat_exact_halfspace(2, 0.0, 1.0, pt([1.0, 1.0], [1e200, 0.3]),
                                   pt([1.0, 0.7], [-1e200, 0.0]))
        assert got[0] == 0.0
        assert got[1] == heat_exact_halfspace(2, 0.0, 1.0, pt(1.0, 0.3), pt(0.7, 0.0))
        got = heat_exact_halfspace(3, 0.0, np.array([1e-300, 1.0]),
                                   pt(1.0, [1e200, 0.3], 0.0), pt(1.0, 0.0, 0.0))
        assert got[0] == 0.0
        assert got[1] == heat_exact_halfspace(3, 0.0, 1.0, pt(1.0, 0.3, 0.0), pt(1.0, 0.0, 0.0))

    def test_array_points_are_checked_by_the_float_rules(self):
        cp = make_coupling(1, 1.5, 1.0)
        with pytest.raises(DomainError, match=r"xd must be positive, got -2\.0"):
            pt(np.array([1.0, -2.0, 0.0]))
        with pytest.raises(DomainError, match=r"t must be positive and finite, got nan"):
            heat_envelope(cp, np.array([1.0, math.nan]), pt(1.0), pt(2.0))
        with pytest.raises(DomainError, match=r"s must lie in \(0, .*\), got 0\.0"):
            riesz_envelope(cp, np.array([0.5, 0.0]), pt(1.0), pt(2.0))
