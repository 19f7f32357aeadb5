import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hardyops.coupling import make_coupling
from hardyops.kernels import (DomainError, KernelEnvelope, diff_envelope,
                              diff_envelope_parts, dist, heat_envelope,
                              heat_exact_halfline, heat_exact_halfspace,
                              heat_images_halfline, master_regime_estimate,
                              master_time_integral, pt, riesz_envelope,
                              riesz_exact_halfline, riesz_s_max)


class TestHeatEnvelope:
    def test_all_factors_saturate_on_diagonal(self):
        env = KernelEnvelope(alpha=1.5, d=1, p=0.9)
        t = 0.3
        x = pt(2.0 * t ** (1.0 / 1.5))
        assert heat_envelope(env, t, x, x) == pytest.approx(t ** (-1.0 / 1.5), rel=1e-14)

    def test_scaling_homogeneity(self):
        cp = make_coupling(1, 1.5, 1.0)
        env = KernelEnvelope(alpha=1.5, d=1, p=cp.p)
        t, x, y, r = 0.7, pt(0.5), pt(3.0), 1.9
        lhs = heat_envelope(env, r ** 1.5 * t, pt(r * 0.5), pt(r * 3.0))
        assert lhs == pytest.approx(heat_envelope(env, t, x, y) / r, rel=1e-12)

    def test_direct_formula_value(self):
        # independent reimplementation at (alpha=1.5, lambda=1, d=1, t=1)
        cp = make_coupling(1, 1.5, 1.0)
        env = KernelEnvelope(alpha=1.5, d=1, p=cp.p)
        x, y, t = 0.5, 3.0, 1.0
        expected = min(1.0, x / t ** (2 / 3)) ** cp.p \
            * min(1.0, y / t ** (2 / 3)) ** cp.p * t ** (-2 / 3) \
            * min(1.0, t ** (2 / 3) / abs(x - y)) ** 2.5
        assert heat_envelope(env, t, pt(x), pt(y)) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_branch(self):
        env = KernelEnvelope(alpha=2.0, d=2, p=1.0, c_exp=0.2)
        val = heat_envelope(env, 2.0, pt(3.0, 0.0), pt(5.0, 1.0))
        ref = min(1, 3 / math.sqrt(2)) * min(1, 5 / math.sqrt(2)) / 2.0 \
            * math.exp(-0.2 * 5.0 / 2.0)
        assert val == pytest.approx(ref, rel=1e-13)


class TestExactKernel:
    def test_images_reduction(self):
        for t in np.logspace(-2, 2, 8):
            for r in np.logspace(-1, 1, 8):
                for s in np.logspace(-1, 1, 8):
                    a = heat_exact_halfline(0.0, float(t), float(r), float(s))
                    b = heat_images_halfline(float(t), float(r), float(s))
                    assert a == pytest.approx(b, rel=1e-12)

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

    def test_nan_coupling_rejected(self):
        with pytest.raises(DomainError, match="lambda"):
            heat_exact_halfline(math.nan, 1.0, 1.0, 1.0)


class TestSandwich:
    def test_exact_kernel_between_envelopes(self):
        # measured constants over a (t, r, s) log-grid, d = 1
        for lam in (0.0, 1.0):
            cp = make_coupling(1, 2.0, lam)
            low = KernelEnvelope(alpha=2.0, d=1, p=cp.p, c_exp=0.25)
            up = KernelEnvelope(alpha=2.0, d=1, p=cp.p, c_exp=0.15)
            ratios_low, ratios_up = [], []
            for t in np.logspace(-2, 2, 6):
                for r in np.logspace(-2, 2, 6):
                    for s in np.logspace(-2, 2, 6):
                        e = heat_exact_halfline(lam, float(t), float(r), float(s))
                        if e == 0.0:
                            continue
                        ratios_low.append(e / heat_envelope(low, t, pt(r), pt(s)))
                        ratios_up.append(e / heat_envelope(up, t, pt(r), pt(s)))
            k1 = min(ratios_low)
            k2 = max(ratios_up)
            assert k1 > 0.0
            assert k2 / k1 < 1e3

    def test_long_time_ratio_stabilizes(self):
        # t -> infinity with x, y fixed: exact/envelope tends to a constant
        lam = 1.0
        cp = make_coupling(1, 2.0, lam)
        env = KernelEnvelope(alpha=2.0, d=1, p=cp.p, c_exp=0.25)
        vals = []
        for t in (1e3, 1e4, 1e5):
            vals.append(heat_exact_halfline(lam, t, 1.3, 0.8)
                        / heat_envelope(env, t, pt(1.3), pt(0.8)))
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
        alpha, d, p, t = 1.5, 1, 0.9, 1.0
        # far from boundary, points apart: bulk piece vanishes
        J, M = diff_envelope_parts(alpha, d, p, t, pt(3.0), pt(8.0))
        assert M == 0.0 and J > 0.0
        # far from boundary, points together: boundary piece vanishes
        J, M = diff_envelope_parts(alpha, d, p, t, pt(3.0), pt(3.2))
        assert J == 0.0 and M > 0.0
        # close to boundary: boundary piece active
        J, M = diff_envelope_parts(alpha, d, p, 10.0 ** alpha, pt(3.0), pt(3.2))
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
                    env = diff_envelope(2.0, 1, cp.p, float(t), pt(x), pt(y),
                                        c_exp=0.15)
                    worst = max(worst, abs(d0 - dl) / env)
        assert worst < 1e3

    def test_specific_entry(self):
        val = diff_envelope(2.0, 1, 2.0, 1.0, pt(3.0), pt(3.2))
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
