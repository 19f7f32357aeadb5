import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest

from hardyops.coupling import (ALPHA_MIN, LAMBDA_SLACK, DomainError, branch_upper,
                               coupling_C, exponent_p, gamma_closed,
                               gamma_integral, lambda_star, lambda_zero,
                               make_coupling, normalization_A, require_lambda)

mp.mp.dps = 40


def mp_A(d, alpha):
    a = mp.mpf(alpha)
    return float(a / (2 ** (1 - a) * mp.pi ** (mp.mpf(d) / 2))
                 * mp.gamma((d + a) / 2) / mp.gamma(1 - a / 2))


class TestNormalization:
    def test_one_dimensional_anchor(self):
        assert normalization_A(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_reduced_form_agreement(self):
        for alpha in (0.5, 1.0, 1.3, 1.9):
            reduced = math.sin(0.5 * math.pi * alpha) * math.gamma(alpha + 1.0) / math.pi
            assert normalization_A(1, alpha) == pytest.approx(reduced, rel=1e-12)

    def test_higher_dimension_oracle(self):
        assert normalization_A(3, 1.5) == pytest.approx(mp_A(3, 1.5), rel=1e-12)
        assert normalization_A(1, 0.5) == pytest.approx(mp_A(1, 0.5), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            normalization_A(1, 2.0)
        with pytest.raises(DomainError):
            normalization_A(0, 1.0)


class TestLambdaStar:
    def test_anchors(self):
        assert abs(lambda_star(1.0)) <= 1e-12
        assert lambda_star(2.0) == -0.25
        assert lambda_star(0.5) < 0.0
        assert lambda_star(1.7) < 0.0

    def test_oracle(self):
        a = mp.mpf("0.5")
        g = mp.gamma((1 + a) / 2)
        ref = float(-(g / mp.pi) * (g - 2 ** (a - 1) * mp.sqrt(mp.pi)
                                    / mp.gamma(1 - a / 2)))
        assert lambda_star(0.5) == pytest.approx(ref, rel=1e-13)


class TestCouplingFunction:
    def test_second_order_closed_form(self):
        for p in np.linspace(-0.99, 5.99, 400):
            assert abs(coupling_C(2.0, p) - p * (p - 1.0)) <= 1e-11

    def test_second_order_large_p(self):
        # a log-Gamma difference for Gamma(1+p)/Gamma(p-1) cancels here
        for p in (10.0, 1e5, 1e8, 1e12, 1e20, 1e150):
            assert coupling_C(2.0, p) == pytest.approx(p * (p - 1.0), rel=1e-15)

    def test_order_one_cotangent_form(self):
        for p in (-0.7, -0.2, 0.3, 0.76, 0.93):
            ref = (1.0 - math.pi * p / math.tan(math.pi * p)) / math.pi
            assert coupling_C(1.0, p) == pytest.approx(ref, rel=1e-12)
        assert abs(coupling_C(1.0, 1e-13)) <= 1e-12

    def test_zeros(self):
        for alpha in (0.7, 1.6):
            assert abs(coupling_C(alpha, 0.0)) <= 1e-12
            assert abs(coupling_C(alpha, alpha - 1.0)) <= 1e-12

    def test_minimum_is_sharp_constant(self):
        for alpha in (0.5, 1.5):
            assert coupling_C(alpha, 0.5 * (alpha - 1.0)) == pytest.approx(
                lambda_star(alpha), abs=1e-12)

    def test_symmetry_property(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            alpha = rng.uniform(0.05, 2.0)
            M = branch_upper(alpha)
            p = rng.uniform(0.5 * (alpha - 1.0), min(M, 6.0) - 1e-3)
            q = alpha - 1.0 - p
            if not -1.0 < q < M:
                continue
            assert abs(coupling_C(alpha, p) - coupling_C(alpha, q)) <= 1e-10

    def test_monotone_and_divergent(self):
        for alpha in (0.4, 1.0, 1.7):
            grid = np.linspace(0.5 * (alpha - 1.0), alpha - 1e-3, 200)
            vals = [coupling_C(alpha, p) for p in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert coupling_C(alpha, alpha - 1e-3) > 1e2 * abs(lambda_star(alpha))

    def test_domain(self):
        with pytest.raises(DomainError):
            coupling_C(1.5, 1.5)
        with pytest.raises(DomainError):
            coupling_C(1.5, -1.0)


class TestGammaFunctionOfP:
    def test_trivial_zeros(self):
        for alpha in (0.8, 1.5):
            assert abs(gamma_integral(alpha, 0.0)) <= 1e-10
            assert abs(gamma_integral(alpha, alpha - 1.0)) <= 1e-10
        assert abs(gamma_closed(1.5, 0.0)) <= 1e-12

    def test_integral_against_fixed_quadrature_oracle(self):
        alpha, p = mp.mpf("0.8"), mp.mpf("0.3")
        ref = float(mp.quad(lambda t: (t ** p - 1) * (1 - t ** (alpha - p - 1))
                            / (1 - t) ** (1 + alpha), [0, 1]))
        assert gamma_integral(0.8, 0.3) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("fn", [gamma_integral, gamma_closed])
    @pytest.mark.parametrize("p", [-1.0, 1.5, 2.0])
    def test_exponent_window(self, fn, p):
        with pytest.raises(DomainError, match=re.escape(f"p must lie in (-1, alpha), "
                                                        f"got {p!r}")):
            fn(1.5, p)

    def test_closed_matches_integral(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            alpha = rng.uniform(0.05, 1.95)
            if abs(alpha - 1.0) < 5e-2:
                continue
            p = rng.uniform(0.5 * (alpha - 1.0), alpha - 1e-2)
            assert gamma_closed(alpha, p) == pytest.approx(
                gamma_integral(alpha, p), abs=1e-8)
        with pytest.raises(DomainError):
            gamma_closed(1.0, 0.3)

    def test_normalized_identity_with_coupling(self):
        # C(p) = A(1,-alpha) gamma(alpha, p)
        val = coupling_C(0.6, 0.25) / normalization_A(1, 0.6)
        assert gamma_closed(0.6, 0.25) == pytest.approx(val, rel=1e-11)
        rng = np.random.default_rng(2)
        for _ in range(60):
            alpha = rng.uniform(0.05, 1.95)
            if abs(alpha - 1.0) < 1e-3:
                continue
            p = rng.uniform(0.5 * (alpha - 1.0), alpha - 1e-2)
            lhs = normalization_A(1, alpha) * gamma_integral(alpha, p)
            assert lhs == pytest.approx(coupling_C(alpha, p), abs=1e-8)
        # at alpha = 1 compare against the cotangent form instead
        for p in (0.2, 0.6):
            lhs = normalization_A(1, 1.0 - 1e-9) * gamma_integral(1.0 - 1e-9, p)
            ref = (1.0 - math.pi * p / math.tan(math.pi * p)) / math.pi
            assert lhs == pytest.approx(ref, abs=1e-6)


class TestExponentInversion:
    def test_second_order_closed_form(self):
        # the lambda grid of acceptance criterion 1
        lams = np.concatenate([np.linspace(-0.25, 100.0, 401), [-0.25, 0.0, 2.0]])
        for lam in lams:
            ref = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * lam))
            assert exponent_p(2.0, float(lam)) == pytest.approx(ref, abs=1e-13)

    def test_second_order_near_sharp_constant(self):
        # C is flat at the branch start, so a residual-based stop leaves
        # errors of the size of the square root of its tolerance here
        for gap in (1e-4, 1e-6, 1e-8, 1e-10):
            lam = -0.25 + gap
            ref = 0.5 + math.sqrt(lam + 0.25)
            assert exponent_p(2.0, lam) == pytest.approx(ref, abs=1e-11)

    def test_rounding_above_sharp_constant(self):
        # lambda_star and C(p_lo) agree only to rounding; couplings between
        # them must still map to the branch start, not fail to bracket
        for alpha in np.linspace(0.02, 2.0, 100):
            alpha = float(alpha)
            p_lo = 0.5 * (alpha - 1.0)
            lam = lambda_star(alpha)
            for _ in range(8):
                lam = math.nextafter(lam, math.inf)
                assert p_lo <= exponent_p(alpha, lam) <= p_lo + 1e-6

    def test_zero_coupling(self):
        for alpha in (0.5, 1.7):
            assert exponent_p(alpha, 0.0) == pytest.approx(
                max(alpha - 1.0, 0.0), abs=1e-9)

    def test_sharp_constant_maps_to_branch_start(self):
        for alpha in (0.5, 1.2, 2.0):
            assert exponent_p(alpha, lambda_star(alpha)) == 0.5 * (alpha - 1.0)

    def test_round_trip_property(self):
        for alpha in (0.5, 1.0, 1.4, 2.0):
            lo = lambda_star(alpha)
            for lam in np.linspace(lo, 50.0, 200):
                p = exponent_p(alpha, float(lam))
                resid = abs(coupling_C(alpha, p) - lam)
                assert resid <= 1e-10 * max(1.0, abs(lam))

    def test_round_trip_at_the_smallest_order(self):
        # the residual bound holds down to ALPHA_MIN; below about 4e-3 it fails
        for alpha in (ALPHA_MIN, 0.015):
            for lam in np.concatenate([lambda_star(alpha) + np.logspace(-6, 0, 20),
                                       np.logspace(0, 3, 20)]):
                p = exponent_p(alpha, float(lam))
                assert abs(coupling_C(alpha, p) - lam) <= 1e-10 * max(1.0, abs(lam))

    @pytest.mark.parametrize("alpha", [5e-324, 1e-17, 1e-7, 0.009])
    def test_order_below_minimum_rejected(self, alpha):
        # exponent_p missed C(p) = 1 by 4e-9 at alpha = 1e-7 and 1.5 from 1e-17
        with pytest.raises(DomainError, match=r"alpha must lie in \[0.01, 2\]"):
            exponent_p(alpha, 1.0)

    def test_below_sharp_rejected(self):
        with pytest.raises(DomainError):
            exponent_p(1.5, lambda_star(1.5) - 1e-6)


class TestRequireLambda:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_returns_the_sharp_constant_within_the_slack(self, alpha):
        lstar = lambda_star(alpha)
        assert require_lambda(alpha, lstar - 0.5 * LAMBDA_SLACK) == lstar
        assert require_lambda(alpha, 1e6) == lstar
        with pytest.raises(DomainError, match=re.escape(f"below the sharp constant {lstar!r}")):
            require_lambda(alpha, lstar - 2.0 * LAMBDA_SLACK)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(DomainError, match="lambda must be finite"):
            require_lambda(1.5, lam)

    def test_every_caller_keeps_the_one_rule(self):
        # exponent_p, the exact second-order kernels and discretize all
        # accept the same couplings at alpha = 2
        from hardyops import cli
        from hardyops.kernels import heat_exact_halfline, riesz_exact_halfline

        def discretize(lam):
            args = cli.build_parser().parse_args(["discretize", "--alpha", "2", "--N", "16",
                                                  "--count", "1", "--lambda", repr(lam)])
            return args.func(args)
        calls = [lambda lam: exponent_p(2.0, lam),
                 lambda lam: heat_exact_halfline(lam, 1.0, 1.0, 2.0),
                 lambda lam: riesz_exact_halfline(lam, 0.5, 1.0, 2.0), discretize]
        for call in calls:
            call(-0.25 - 0.5 * LAMBDA_SLACK)
            with pytest.raises(DomainError):
                call(-0.25 - 2.0 * LAMBDA_SLACK)


class TestLambdaZero:
    def test_one_dimensional_closed_form(self):
        assert lambda_zero(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
        ref = math.sin(math.pi / 4.0) * math.gamma(0.5) / math.pi
        assert lambda_zero(1, 0.5) == pytest.approx(ref, rel=1e-12)

    def test_defining_integral_quadrature(self):
        # A(1,-a) int_{-inf}^0 |1 - y|^{-1-a} dy must equal lambda_zero
        for alpha in (0.6, 1.3):
            ref = float(normalization_A(1, alpha)
                        * mp.quad(lambda y: (1 - y) ** (-1 - mp.mpf(alpha)),
                                  [-mp.inf, 0]))
            assert lambda_zero(1, alpha) == pytest.approx(ref, rel=1e-10)

    def test_dimension_independence_and_d2_quadrature(self):
        # reduction to the Beta-type integral is d-independent
        assert lambda_zero(2, 1.2) == pytest.approx(lambda_zero(1, 1.2), rel=1e-12)
        alpha = mp.mpf("1.2")
        inner = mp.quad(lambda u: 1 / (1 + u ** 2) ** ((2 + alpha) / 2),
                        [0, mp.inf])
        outer = mp.quad(lambda h: h ** (-1 - alpha), [1, mp.inf])
        ref = float(mp_A(2, 1.2) * 2 * inner * outer)
        assert lambda_zero(2, 1.2) == pytest.approx(ref, rel=1e-10)

    def test_positive(self):
        for alpha in (0.2, 1.0, 1.9):
            assert lambda_zero(1, alpha) > 0.0


class TestCouplingParams:
    def test_construction_and_invariants(self):
        cp = make_coupling(1, 1.5, 1.0)
        cp.check()
        assert cp.p0 == 0.5
        assert cp.q == min(cp.p, 0.5)
        assert cp.r >= 0.0
        assert cp.lambda_zero is not None and cp.lambda_zero > 0.0

    def test_check_accepts_roots_near_the_pole(self):
        # at lam = 1e6 one ulp of p moves C by more than 1e-10 lam; a p off
        # by 1e-9 relative must still be rejected there and at lam = 1
        for alpha in (0.5, 1.0, 1.5, 1.9, 1.98):
            for lam in (1.0, 1e6):
                cp = make_coupling(1, alpha, lam)
                cp.check()
                for shift in (1.0 - 1e-9, 1.0 + 1e-9):
                    with pytest.raises(DomainError):
                        dataclasses.replace(cp, p=cp.p * shift).check()

    def test_check_rejects_coupling_below_sharp_constant(self):
        # p at the branch start (alpha - 1)/2, where C(p) = lambda_star
        cp = make_coupling(1, 1.5, lambda_star(1.5))
        low = dataclasses.replace(cp, lam=cp.lambda_star - 1.0, p=0.25)
        with pytest.raises(DomainError, match="below the sharp constant"):
            low.check()

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_check_rejects_non_finite_coupling(self, lam):
        # inf passed: its residual tolerance 1e-10 |lam| was inf too
        cp = dataclasses.replace(make_coupling(1, 1.5, 1.0), lam=lam)
        with pytest.raises(DomainError, match="lambda must be finite"):
            cp.check()

    def test_second_order_has_no_comparison_constant(self):
        cp = make_coupling(1, 2.0, 0.3)
        assert cp.lambda_zero is None

    def test_derived_exponent_window(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = rng.uniform(0.05, 2.0)
            lam = rng.uniform(lambda_star(alpha), 20.0)
            cp = make_coupling(1, min(alpha, 2.0), lam)
            assert cp.q <= cp.p + 1e-12
            assert 0.0 <= cp.r < 0.5
