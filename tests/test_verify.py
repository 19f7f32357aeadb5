import dataclasses
import json
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hardyops import coupling, kernels
from hardyops import verify as V
from hardyops.cli import dump_json, main
from hardyops.discrete import build_grid
from hardyops.kernels import heat_exact_halfline
from hardyops.specfun import DomainError

FAST = dict(X=10.0, N=400, g=2.0)


class TestDecompositionCache:
    def test_cached_arrays_are_read_only(self):
        # every later caller with the same key gets these arrays
        from hardyops.discrete import build_grid
        dec = V.get_dec(1.5, 0.0, build_grid(5.0, 60, 2.0))
        op = dec.operator
        for arr in (dec.unit_eigenvalues, dec.eigenvectors, op.stiffness, op.hardy,
                    op.mass):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_one_decomposition_serves_every_scale(self):
        # a key no other test uses; the spectrum at X is a dilate of X = 1
        from hardyops.discrete import build_grid
        before = V._decompose.cache_info()
        decs = [V.get_dec(1.5, 0.37, build_grid(X, 64, 2.0)) for X in (10.0, 30.0, 500.0)]
        after = V._decompose.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 2
        assert [d.operator.grid.X for d in decs] == [10.0, 30.0, 500.0]

    def test_cache_hit_allocates_no_matrix(self):
        # a hit rebinds the grid of the cached unit decomposition: the n x n
        # arrays are shared, not copied or scanned
        from hardyops.discrete import build_grid
        cached = V.get_dec(1.0, 0.0, build_grid(1.0, 2000, 2.0))
        tracemalloc.start()
        try:
            decs = [V.get_dec(1.0, 0.0, build_grid(X, 2000, 2.0)) for X in (3.0, 40.0)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        for dec in decs:
            assert np.shares_memory(dec.eigenvectors, cached.eigenvectors)
            assert np.shares_memory(dec.operator.stiffness, cached.operator.stiffness)

    def test_couplings_share_one_assembled_form(self, monkeypatch):
        # lam is a scalar of the form: a key (alpha, N, g) no other test uses
        # is assembled once for both couplings, and both hold that stiffness
        from hardyops import discrete
        calls = []
        build = discrete._nonlocal_stiffness
        monkeypatch.setattr(discrete, "_nonlocal_stiffness",
                            lambda *a: calls.append(a) or build(*a))
        grid = build_grid(10.0, 77, 2.0)
        decs = [V.get_dec(1.5, lam, grid) for lam in (0.0, 1.0)]
        assert len(calls) == 1
        assert np.shares_memory(decs[0].operator.stiffness, decs[1].operator.stiffness)
        assert [d.operator.lam for d in decs] == [0.0, 1.0]

    @pytest.mark.parametrize("alpha, X", [(2.0, 1e200), (1.5, 1e250)])
    def test_underflowing_spectrum_is_domain_error(self, alpha, X):
        # X^{-alpha} times the unit spectrum leaves the normal range: an error
        # naming X, never a spectrum of zeros
        from hardyops.discrete import build_grid
        from hardyops.specfun import DomainError
        with pytest.raises(DomainError, match=re.escape(f"X={X!r}, N=200, g=2.0 underflows")):
            V.get_dec(alpha, 0.0, build_grid(X, 200, 2.0))


class TestEquivalence:
    def test_below_threshold_bounded(self):
        r = V.check_equivalence(2.0, 1.0, 1.3, grid_cfg=FAST)
        assert r.verdict
        assert r.measured["identity_s1_err"] <= 1e-10
        assert r.measured["identity_s2_err"] <= 1e-10
        assert r.measured["family_spread"] <= 10.0

    def test_above_threshold_growth(self):
        r = V.check_equivalence(2.0, -0.24, 1.5, grid_cfg=FAST)
        assert r.verdict
        assert r.measured["n_monotone_growth"] >= 4

    def test_fractional_is_flagged(self):
        r = V.check_equivalence(1.5, 1.0, 1.0, grid_cfg=FAST)
        assert r.verdict
        assert "spectral calculus" in r.notes

    def test_coarse_grid_has_no_bump_family(self):
        # a uniform grid of step 10/16 resolves none of the scales eps <= 0.2
        with pytest.raises(DomainError, match="grid too coarse for the requested bump family"):
            V.eps_family(build_grid(10.0, 16, 1.0), 1.0)


@pytest.fixture
def clear_caches():
    # a test that patches the assembly must neither read nor leave cached forms
    for cache in (V._form, V._decompose):
        cache.cache_clear()
    yield
    for cache in (V._form, V._decompose):
        cache.cache_clear()


class TestIdentitiesUseTheOperatorsHardyTerm:
    @pytest.mark.parametrize("alpha, lam", [(1.5, 1.0), (2.0, 1.0), (2.0, -0.2)])
    def test_identities_hold_for_a_rescaled_hardy_term(self, monkeypatch, clear_caches,
                                                       alpha, lam):
        # the s = 1 and s = 2 identities read the Hardy term from the
        # operator, so a form assembled with another Hardy weight keeps them;
        # re-deriving x^{-alpha} in verify read 0.08 to 0.5 here
        assemble = V.assemble_form

        def scaled(a, lam, grid):
            op = assemble(a, lam, grid)
            return dataclasses.replace(op, hardy=1.5 * op.hardy)
        monkeypatch.setattr(V, "assemble_form", scaled)
        grid = build_grid(**FAST)
        assert np.array_equal(V.get_dec(alpha, lam, grid).operator.hardy,
                              1.5 * assemble(alpha, 0.0, grid).hardy)
        reports = [V.check_equivalence(alpha, lam, 1.0, grid_cfg=FAST),
                   V.check_reversed_hardy(alpha, lam, 1.3, grid_cfg=FAST)]
        for r in reports:
            for key in ("identity_s1_err", "identity_s2_err"):
                if key in r.measured:
                    assert r.measured[key] <= 1e-10, (r.check_name, key, r.measured[key])


class TestGeneralizedHardy:
    def test_below_threshold(self):
        r = V.check_generalized_hardy(2.0, 0.0, 0.8, grid_cfg=FAST)
        assert r.verdict
        assert r.measured["sup_ratio"] <= 1e3

    def test_small_s_ratio_near_one(self):
        # weight and operator power both converge to the identity as s -> 0
        # for mass concentrated where the weight is ~ 1
        r = V.check_generalized_hardy(2.0, 0.5, 0.05, grid_cfg=FAST)
        assert r.verdict

    def test_blowup_slope(self):
        r = V.check_generalized_hardy(2.0, 0.0, 1.6, grid_cfg=FAST)
        assert r.verdict
        assert r.measured["slope_err"] <= 0.2


class TestReversedHardy:
    def test_bounded_and_identity(self):
        r = V.check_reversed_hardy(2.0, 1.0, 1.3, grid_cfg=FAST)
        assert r.verdict
        assert r.measured["n_family"] >= 30

    def test_zero_coupling_difference_vanishes(self):
        r = V.check_reversed_hardy(2.0, 0.0, 1.3, grid_cfg=FAST)
        assert r.verdict
        assert r.measured["sup_ratio"] <= 1e-9

    def test_s2_exact(self):
        r = V.check_reversed_hardy(2.0, 2.0, 2.0, grid_cfg=FAST)
        assert r.measured["identity_s2_err"] <= 1e-10


class TestKernelChecks:
    def test_heat_envelope_fit(self):
        r = V.check_heat_envelope(lams=(0.0, 1.0), n_log=5)
        assert r.verdict
        for lam in (0.0, 1.0):
            assert r.measured[f"c_upper_lam{lam:g}"] < 0.25
            assert r.measured[f"k1_lam{lam:g}"] > 0.0

    @pytest.mark.parametrize("lams, n_log", [((0.0, 1.0), 5), ((-0.24, 0.0, 1.0, 5.0), 7)],
                             ids=["campaign", "criterion-5"])
    def test_heat_envelope_matches_the_per_point_loop(self, lams, n_log):
        r = V.check_heat_envelope(lams=lams, n_log=n_log)
        for lam, (k1, k21, c_up) in _per_point_heat_envelope(lams, n_log).items():
            assert r.measured[f"k1_lam{lam:g}"] == pytest.approx(k1, rel=1e-12, abs=0.0)
            assert r.measured[f"k2_over_k1_lam{lam:g}"] == pytest.approx(k21, rel=1e-12,
                                                                         abs=0.0)
            assert r.measured[f"c_upper_lam{lam:g}"] == c_up

    def test_heat_envelope_reports_its_dropped_samples(self):
        # the exact kernel underflows to 0 at small t and far-apart points
        r = V.check_heat_envelope(lams=(0.0, 1.0), n_log=5)
        assert "dropped of 375: lam=0: 90, lam=1: 90" in r.notes
        with pytest.raises(DomainError, match="heat_envelope: at lam=1e[+]300 the exact "
                                              "kernel is 0 or not finite at every sample"):
            V.check_heat_envelope(lams=(0.0, 1e300), n_log=3)

    def test_checks_evaluate_each_kernel_table_in_one_call(self, monkeypatch):
        # one kernel call per coupling and Gaussian constant, not one per point;
        # each binding the checks may call through is counted
        calls = {}
        for module in (V, kernels):
            for name in ("heat_envelope", "heat_exact_halfspace", "diff_envelope_parts"):
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                        calls[_name] = calls.get(_name, 0) + 1
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        lams = (-0.24, 0.0, 1.0, 5.0)
        V.check_heat_envelope(lams=lams, n_log=7)
        assert 0 < calls["heat_envelope"] <= 6 * len(lams)
        assert 0 < calls["heat_exact_halfspace"] <= len(lams)
        V.check_difference_bound(lams=(0.5, 2.0), n_duhamel=1)
        assert 0 < calls["diff_envelope_parts"] <= 3 * 2

    def test_difference_bound(self):
        r = V.check_difference_bound(lams=(0.5,), n_duhamel=1, seed=5)
        assert r.verdict
        assert r.measured["duhamel_max_err"] <= 0.05

    def test_pointwise_bounds(self):
        r = V.check_pointwise_bounds(lam=1.0, t=0.5)
        assert r.verdict

    @pytest.mark.parametrize("lam, t", [(-0.25, 0.01), (1e3, 0.01), (-0.25, 1e3), (1e3, 1e3)])
    def test_pointwise_bounds_at_the_corners_of_its_range(self, lam, t):
        # at t = 0.01 the Gaussian majorant underflows from about x = 8 on, where
        # the ratios are not taken
        r = V.check_pointwise_bounds(lam=lam, t=t)
        assert r.verdict and all(math.isfinite(v) for v in r.measured.values())

    @pytest.mark.parametrize("lam, t, key", [(1.0, 1e-3, "t"), (1.0, 1e-300, "t"),
                                             (1.0, 2e3, "t"), (1e6, 0.5, "lam")])
    def test_pointwise_bounds_rejects_an_unresolved_window(self, lam, t, key):
        with pytest.raises(DomainError, match=f"pointwise_bounds: {key} ="):
            V.check_pointwise_bounds(lam=lam, t=t)


def _per_point_heat_envelope(lams, n_log):
    """k1, k2/k1 and the upper constant per coupling from one kernel call per
    sample point, the form check_heat_envelope had before the kernels took
    arrays."""
    d = 2
    tvals = np.logspace(-2.0, 2.0, n_log)
    xvals = np.logspace(-2.0, 2.0, n_log)
    gaps = [0.0, 0.3, 3.0]
    c_candidates = (0.05, 0.1, 0.15, 0.2, 0.24)
    samples = [(t, kernels.pt(xd, 0.0), kernels.pt(yd, gap))
               for t in tvals for xd in xvals for yd in xvals for gap in gaps]
    out = {}
    for lam in lams:
        cp = coupling.make_coupling(d, 2.0, lam)
        exact = [kernels.heat_exact_halfspace(d, lam, *s) for s in samples]
        pts = [s for s, e in zip(samples, exact) if 0.0 < e < math.inf]
        exact = np.array([e for e in exact if 0.0 < e < math.inf])
        k1 = float(np.min(exact / np.array([kernels.heat_envelope(cp, *s) for s in pts])))
        ratios = [float(np.max(exact / np.array([kernels.heat_envelope(cp, *s, c)
                                                 for s in pts]))) / k1
                  for c in c_candidates]
        out[lam] = (k1, min(ratios), c_candidates[ratios.index(min(ratios))])
    return out


def _old_duhamel_rhs(lam, t, x, y):
    """The nested scalar quad form the batched Duhamel integral replaced."""
    zhi = max(x, y) + 8.0 * math.sqrt(t) + 4.0

    def inner(sig):
        return quad(lambda z: heat_exact_halfline(0.0, t - sig, x, z) * z ** (-2.0)
                    * heat_exact_halfline(lam, sig, z, y), 0.0, zhi, points=[x, y],
                    limit=200, epsabs=1e-13, epsrel=1e-8)[0]
    return lam * quad(inner, 1e-6 * t, (1.0 - 1e-6) * t,
                      points=[0.25 * t, 0.5 * t, 0.75 * t], limit=100, epsrel=1e-6)[0]


def _old_lemma_lhs(N, beta, r, s, delta):
    """The scalar quad form the batched lemma integral replaced."""
    L = 60.0 * max(r, s, delta, 1.0)
    if N == 1:
        return quad(lambda x: (r * s) ** beta / ((r ** (1 + beta) + abs(x) ** (1 + beta))
                                                 * (s ** (1 + beta)
                                                    + abs(x - delta) ** (1 + beta))),
                    -L, L, points=[0.0, delta], limit=300, epsabs=1e-13, epsrel=1e-8)[0]
    nb = N + beta

    def radial(rho):
        def g(th):
            d2 = delta * delta + rho * rho - 2.0 * delta * rho * math.cos(th)
            return (1.0 if N == 2 else math.sin(th)) / (s ** nb + d2 ** (0.5 * nb))
        ang = quad(g, 0.0, math.pi, limit=200, epsabs=1.49e-8, epsrel=1e-7)[0]
        sphere = 2.0 if N == 2 else 2.0 * math.pi
        return rho ** (N - 1) * ang * sphere / (r ** nb + rho ** nb)
    return (r * s) ** beta * quad(radial, 0.0, L, points=[r, max(delta, 1e-6)], limit=200,
                                  epsabs=1.49e-8, epsrel=1e-6)[0]


def _tight_lemma_lhs(N, beta, r, s, delta):
    """The lemma integral by nested scalar quads, purely relative at 1e-12
    (1e-11 for the radial one), split at widths 2^j, j = 0..16, of each bell
    as well as at its center, so that no bell falls between quad's nodes."""
    L = 60.0 * max(r, s, delta, 1.0)
    widths = 2.0 ** np.arange(17)
    bells = np.concatenate([[r, delta], r * widths, delta - s * widths, delta + s * widths])
    if N == 1:
        points = np.unique(np.concatenate([bells, -r * widths, [0.0]]))
        return quad(lambda x: (r * s) ** beta / ((r ** (1 + beta) + abs(x) ** (1 + beta))
                                                 * (s ** (1 + beta)
                                                    + abs(x - delta) ** (1 + beta))),
                    -L, L, points=points[np.abs(points) < L], limit=2000, epsabs=0.0,
                    epsrel=1e-12)[0]
    nb = N + beta

    def radial(rho):
        def g(th):
            d2 = delta * delta + rho * rho - 2.0 * delta * rho * math.cos(th)
            return (1.0 if N == 2 else math.sin(th)) / (s ** nb + d2 ** (0.5 * nb))
        angles = np.unique(s / rho * widths)
        ang = quad(g, 0.0, math.pi, points=angles[angles < math.pi], limit=2000, epsabs=0.0,
                   epsrel=1e-12)[0]
        sphere = 2.0 if N == 2 else 2.0 * math.pi
        return rho ** (N - 1) * ang * sphere / (r ** nb + rho ** nb)
    points = np.unique(bells)
    return (r * s) ** beta * quad(radial, 0.0, L, points=points[(points > 0.0) & (points < L)],
                                  limit=2000, epsabs=0.0, epsrel=1e-11)[0]


def _old_bump_integral(lam, t, x, tight=False):
    """The scalar quad form of pointwise_bounds' bump integrals; tight runs
    it purely relative at 1e-12 instead."""
    def f(y):
        s = (y - 1.25) / 0.75
        bump = math.exp(1.0 - 1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0
        return heat_exact_halfline(lam, t, x, y) * bump
    return quad(f, 0.5, 2.0, limit=200 if tight else 100, epsabs=0.0 if tight else 1e-13,
                epsrel=1e-12 if tight else 1e-8)[0]


def _old_log_line_integral(f, x, epsrel):
    """The scalar quad form of schur_prop's integrals over (0, inf): the
    middle split at x/2, x, 2x, and both ends by quad after y = x u, x/u."""
    mid = quad(f, x * 1e-4, x * 1e4, points=[0.5 * x, x, 2.0 * x], limit=400,
               epsabs=1e-14, epsrel=epsrel)[0]
    head = quad(lambda u: f(x * u) * x, 0.0, 1e-4, limit=100, epsrel=10.0 * epsrel)[0]
    tail = quad(lambda u: f(x / u) * x / (u * u), 0.0, 1e-4, limit=100,
                epsrel=10.0 * epsrel)[0]
    return mid + head + tail


def _old_schur_row(alpha, r, x):
    def f(y):
        hi, lo = max(x, y), min(x, y)
        return (x / y) ** 0.5 * ((hi / math.sqrt(x * y)) ** (2.0 * r) * hi ** alpha
                                 / max(abs(x - y), lo) ** (1.0 + alpha))
    return _old_log_line_integral(f, x, 1e-8)


def _old_schur_scale(alpha, r):
    def f(t):
        return t ** (-0.5 - r) * max(1.0, t) ** (alpha + 2.0 * r) \
            / max(abs(1.0 - t), min(1.0, t)) ** (1.0 + alpha)
    return _old_log_line_integral(f, 1.0, 1e-9)


def _record_relative_tolerance(monkeypatch) -> list:
    """Wrap the batched rule: (size, failures) per call, where an integral
    fails unless it is nonnegative, as the purely relative rule assumes, and
    its summed error is within epsrel |value|.  (The rule itself raises past
    its panel cap.)"""
    batches = []

    def recording_gk(*args, _gk=V._gauss_kronrod, **kwargs):
        val, err = _gk(*args, **kwargs)
        ok = (val >= 0.0) & (err <= kwargs["epsrel"] * np.abs(val))
        batches.append((val.size, int(np.sum(~ok))))
        return val, err
    monkeypatch.setattr(V, "_gauss_kronrod", recording_gk)
    return batches


class TestGaussKronrod:
    def test_rule_integrates_polynomials_exactly(self):
        # K21 is exact to degree 31 on [-1, 1], G10 to degree 19
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert np.dot(V._GK_WK, V._GK_X ** k) == pytest.approx(exact, abs=1e-15)
            if k < 20:
                assert np.dot(V._GK_WG, V._GK_X ** k) == pytest.approx(exact, abs=1e-15)

    def test_panels_split_at_break_points(self):
        idx, a, b = V._panels([0.0, -1.0], [2.0, 1.0], [1.0, -1.0], 0.5)
        assert idx.tolist() == [0, 0, 0, 1, 1]
        assert a.tolist() == [0.0, 0.5, 1.0, -1.0, 0.5]
        assert b.tolist() == [0.5, 1.0, 2.0, 0.5, 1.0]

    def test_non_integrable_integrand_raises(self):
        with pytest.raises(DomainError, match=r"x\^-1 on \(0, 1\) does not converge within "
                                              r"50 Gauss-Kronrod panels"):
            V._gauss_kronrod(lambda i, x: 1.0 / x, *V._panels(0.0, 1.0),
                             epsrel=1e-8, limit=50, what=lambda i: "x^-1 on (0, 1)")

    def test_endpoint_singularities_converge(self):
        # x^-1/2 and -ln x on (0, 1), both 2 and 1, with one regular integral
        fs = (lambda x: x ** -0.5, lambda x: -np.log(x), np.cos)

        def f(i, x):
            return np.choose(i[:, None], [fn(x) for fn in fs])
        val, err = V._gauss_kronrod(f, *V._panels(np.zeros(3), 1.0),
                                    epsrel=1e-10, limit=200, what=str)
        assert val == pytest.approx([2.0, 1.0, math.sin(1.0)], rel=1e-10)
        assert np.all(err <= 1e-10 * np.abs(val))

    def test_rows_per_call_are_bounded(self):
        rows = []

        def f(i, x):
            rows.append(x.shape[0])
            return np.ones_like(x)
        n = 2 * V._GK_ROWS + 7
        val, _ = V._gauss_kronrod(f, *V._panels(np.zeros(n), 2.0, 1.0),
                                  epsrel=1e-12, limit=2, what=str)
        assert np.all(val == pytest.approx(2.0, rel=1e-14))
        assert max(rows) == V._GK_ROWS and sum(rows) == 2 * n

    def test_zero_integral_is_done_in_one_round(self):
        # an integrand that is 0 everywhere, next to a nonzero one: one call,
        # no bisection (limit=1 raises on any), and exactly 0 with zero error
        calls = []

        def f(i, x):
            calls.append(i.size)
            return np.where(i[:, None] == 0, 0.0, x * x)
        val, err = V._gauss_kronrod(f, *V._panels(np.zeros(2), 1.0), epsrel=1e-10,
                                    limit=1, what=str)
        assert calls == [2]
        assert val[0] == 0.0 and err[0] == 0.0
        assert val[1] == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("lam, t, x, y", [(0.5, 0.8, 1.2, 0.6), (2.0, 0.4, 0.5, 2.1),
                                              (-0.2, 1.1, 0.9, 1.4)])
    def test_duhamel_matches_the_old_quad_form(self, lam, t, x, y):
        assert V._duhamel_rhs(lam, t, x, y) == pytest.approx(_old_duhamel_rhs(lam, t, x, y),
                                                             rel=1e-5)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_lemma_matches_the_old_quad_form(self, N):
        samples = [(0.5, 0.3, 2.0, 1.5), (1.0, 4.0, 0.2, 0.0), (2.0, 0.15, 0.4, 30.0)]
        got = V._lemma_lhs(N, *np.array(samples).T)
        old = [_old_lemma_lhs(N, *sample) for sample in samples]
        assert got == pytest.approx(old, rel=1e-7 if N == 1 else 1e-5, abs=0.0)
        assert V._lemma_lhs(N, *samples[0]) == pytest.approx(got[0], rel=1e-14)

    @pytest.mark.parametrize("N, sample, expected", [
        # criterion 12, N = 2, seed 2: the old radial quad missed the second
        # bell beyond delta and returned 3.217e-7 ("probably divergent")
        (2, (2.0, 1.685215143103623, 0.3722761475954037, 70.38495427191977), 5.99548e-7),
        # far below the old epsabs = 1e-13; the bell of width r = 0.3 at a
        # panel end lay between Kronrod nodes, which gave 49% too little
        (1, (8.0, 0.3, 0.5, 80.0), 6.04201e-20),
        # likewise for the second bell, 43% to 48% too little without the
        # break points at its widths
        (2, (8.0, 3.0, 0.5, 50.0), 2.25971e-13), (2, (16.0, 3.0, 0.5, 50.0), 3.63376e-23),
        (2, (32.0, 3.0, 0.5, 50.0), 1.02070e-42), (3, (8.0, 3.0, 0.5, 50.0), 6.38995e-15),
        (3, (16.0, 3.0, 0.5, 50.0), 9.88914e-25), (3, (32.0, 3.0, 0.5, 50.0), 2.73247e-44),
    ], ids=["N2-criterion-12-seed-2", "N1-beta-8", "N2-beta-8", "N2-beta-16", "N2-beta-32",
            "N3-beta-8", "N3-beta-16", "N3-beta-32"])
    def test_lemma_holds_its_relative_tolerance_on_tiny_values(self, N, sample, expected):
        tight = _tight_lemma_lhs(N, *sample)
        assert tight == pytest.approx(expected, rel=1e-5, abs=0.0)
        assert V._lemma_lhs(N, *sample) == pytest.approx(tight, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("lam, t", [(1.0, 0.5), (-0.25, 0.05), (30.0, 5.0)])
    def test_pointwise_bump_integrals_match_the_old_quad_form(self, monkeypatch, lam, t):
        batches = []

        def recording(*args, _gk=V._gauss_kronrod, **kwargs):
            out = _gk(*args, **kwargs)
            batches.append(out[0])
            return out
        monkeypatch.setattr(V, "_gauss_kronrod", recording)
        V.check_pointwise_bounds(lam=lam, t=t)
        xs = np.concatenate([np.logspace(-4, 0, 25), np.linspace(1.2, 12.0, 25)])
        old = [_old_bump_integral(lam, t, x) for x in xs]
        assert len(batches) == 1
        assert batches[0] == pytest.approx(old, rel=1e-7, abs=2e-13)

    @pytest.mark.parametrize("lam, t", [(3.0, 2.0), (-0.25, 0.05), (1e3, 1e3)])
    def test_pointwise_bounds_match_a_tight_quad(self, monkeypatch, lam, t):
        # the boundary values fall far below any fixed absolute tolerance
        # here: an absolute 1e-13 put these measures 29%, 4.6% and 6.6e-5 off
        got = V.check_pointwise_bounds(lam=lam, t=t).measured
        xs = np.concatenate([np.logspace(-4, 0, 25), np.linspace(1.2, 12.0, 25)])
        ref = np.array([_old_bump_integral(lam, t, x, tight=True) for x in xs])
        monkeypatch.setattr(V, "_gauss_kronrod", lambda *a, **k: (ref, np.zeros(ref.size)))
        want = V.check_pointwise_bounds(lam=lam, t=t).measured
        for key in ("sup_ratio", "boundary_limit_spread", "far_ratio"):
            assert got[key] == pytest.approx(want[key], rel=1e-7, abs=0.0), key

    @pytest.mark.parametrize("alpha", [0.01, 1.2, 1.99])
    def test_schur_rows_match_the_old_quad_form(self, alpha):
        # rows at x = 0.01, 1, 100 for three r, then the scale values, among
        # them the trend point r = 0.49, whose ends have c = 0.01
        r = np.array([0.0, 0.2, 0.45] * 3)
        x = np.repeat([0.01, 1.0, 100.0], 3)
        rows = V._schur_rows(alpha, r, x, 1e-8)
        assert rows == pytest.approx([_old_schur_row(alpha, *rx) for rx in zip(r, x)], rel=1e-9)
        scale = V._schur_rows(alpha, np.array([0.0, 0.49]), 1.0, 1e-9)
        assert scale == pytest.approx([_old_schur_scale(alpha, ri) for ri in (0.0, 0.49)],
                                      rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.01, 1.2, 1.99])
    @pytest.mark.parametrize("c", [0.5, 0.01, 1e-6])
    def test_schur_ends_match_mpmath(self, alpha, c):
        with mp.workdps(40):
            eps = mp.mpf(1e-4)
            ref = eps ** c / c * mp.hyp2f1(1 + mp.mpf(alpha), c, c + 1, eps)
            # the defining integral after u = eps v^(1/c), which is smooth
            direct = eps ** c / c * mp.quad(lambda v: (1 - eps * v ** (1 / mp.mpf(c)))
                                            ** (-1 - mp.mpf(alpha)), [0, 1])
            assert abs(direct / ref - 1) < 1e-20
        assert V._schur_end(c, alpha) == pytest.approx(float(ref), rel=1e-14)


class TestLemmaAndSchur:
    @pytest.mark.parametrize("N", [2, 3])
    def test_lemma_peak_memory_is_bounded(self, N):
        # the angular integrals are batched per block of radial rows; one
        # batch per radial round peaked at 12.6 (N=2) and 14.6 MiB (N=3)
        tracemalloc.start()
        try:
            V.check_lemma_integral(N=N, nsamples=96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 << 20, peak

    def test_lemma_dimension_one(self):
        r = V.check_lemma_integral(N=1, betas=(0.7,), nsamples=40, seed=3)
        assert r.verdict
        assert r.measured["max_over_median_beta0.7"] <= 10.0

    def test_lemma_dimension_two(self):
        r = V.check_lemma_integral(N=2, betas=(1.0,), nsamples=16, seed=4)
        assert r.verdict

    def test_lemma_symmetric_center(self):
        # a = b, r = s: both sides comparable to one
        lhs = V._lemma_lhs(1, 1.0, 1.0, 1.0, 0.0)
        rhs = 2.0 ** 1.0 / 2.0 ** 2.0
        assert 0.1 < lhs / rhs < 10.0

    def test_lemma_tail_regime(self):
        # |a-b| >> r+s: both sides decay at the same power
        vals = [V._lemma_lhs(1, 0.7, 1.0, 1.0, delta)
                * (2.0 ** (1.7) + delta ** 1.7) / 2.0 ** 0.7
                for delta in (50.0, 200.0)]
        assert vals[1] == pytest.approx(vals[0], rel=0.2)

    def test_schur(self):
        r = V.check_schur_prop(alpha=1.2, r_values=(0.0, 0.4), n_x=4)
        assert r.verdict
        assert r.measured["trend_r049"] > r.measured["trend_r04"]

    @pytest.mark.parametrize("kwargs, key", [
        # from r = 1/2 on the weight window (r, 1 - r) is empty: at 0.5 the
        # rows diverge, at 0.6 their integrand stays positive
        (dict(r_values=(0.5,)), "r_values"), (dict(r_values=(0.0, 0.6)), "r_values"),
        (dict(r_values=(-0.1,)), "r_values"), (dict(r_values=(1e300,)), "r_values"),
        (dict(alpha=2.0), "alpha"), (dict(alpha=1e-3), "alpha"), (dict(alpha=-1e300), "alpha"),
    ])
    def test_schur_rejects_inputs_outside_its_window(self, kwargs, key):
        with pytest.raises(DomainError, match=key):
            V.check_schur_prop(**kwargs)


class TestCommutator:
    def test_slopes_fast(self):
        r = V.check_commutator_scaling(1.5, 0.0, N=800, X_R=250.0)
        assert r.verdict
        assert set(r.tolerances.values()) == {V.SLOPE_TOL}
        assert r.measured["interior_flat_ratio"] <= 0.05

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_second_order_holds_local_rate(self, lam):
        # the local alpha = 2 commutator decays at -alpha - 5/2, not at the
        # fractional -alpha - 1/2; the verdict asserts the local rate
        r = V.check_commutator_scaling(2.0, lam, N=2000)
        assert r.verdict
        assert r.measured["slope_R_local_err"] <= 0.15
        assert r.measured["slope_R_err"] > 1.5


class TestReportsAndCampaign:
    def test_report_serialization(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("[schur_prop]\nalpha = 1.2\nr_values = 0.2\nn_x = 3\n"
                       "[lemma_integral]\nN = 1\nbetas = 0.5\nnsamples = 10\n")
        jpath = tmp_path / "reports.json"
        cpath = tmp_path / "summary.csv"
        main(["verify", "--config", str(cfg), "--seed", "0", "--out", str(jpath),
              "--summary", str(cpath)])
        capsys.readouterr()
        data = json.loads(jpath.read_text())
        assert isinstance(data, list) and len(data) == 2
        assert data[0]["verdict"] in ("pass", "fail")
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].startswith("check_name,")
        assert len(lines) > 2

    def test_non_finite_values_are_json_null(self, tmp_path):
        report = V.VerificationReport(
            check_name="equivalence", params={"alpha": 1.5},
            measured={"ratio_max": float("nan"),
                      "ratio_curve": [[0.2, float("inf")], [0.1, 2.0]]},
            tolerances={"ratio_max": 1e3}, verdict=False)
        jpath = tmp_path / "reports.json"
        with open(jpath, "w", encoding="utf-8") as fh:
            dump_json([report.as_dict()], fh)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        data = json.loads(jpath.read_text(), parse_constant=reject)
        assert data[0]["measured"] == {"ratio_max": None,
                                       "ratio_curve": [[0.2, None], [0.1, 2.0]]}

    def test_determinism_under_seed(self):
        a = V.check_lemma_integral(N=1, betas=(0.5,), nsamples=15, seed=11)
        b = V.check_lemma_integral(N=1, betas=(0.5,), nsamples=15, seed=11)
        assert a.measured == b.measured

    def test_run_all_with_config(self):
        config = {
            "lemma_integral": {"n": "1", "betas": "0.5", "nsamples": "10"},
            "schur_prop:midwindow": {"alpha": "1.2", "r_values": "0.2",
                                     "n_x": "3"},
        }
        # keys are lowercase through configparser; map N manually
        config["lemma_integral"] = {"betas": "0.5", "nsamples": "10"}
        reports = V.run_all(config, seed=1)
        assert len(reports) == 2
        assert all(r.verdict for r in reports)

    def test_unknown_check_rejected(self):
        from hardyops.specfun import DomainError
        with pytest.raises(DomainError):
            V.run_all({"no_such_check": {}})

    def test_default_campaign_quadratures_converge(self, monkeypatch):
        # no scalar quad runs: every integral is on the batched rule
        calls = []
        for mod in (coupling, kernels, V):
            def recording(*args, _quad=mod.quad, _name=mod.__name__, **kwargs):
                calls.append(_name)
                return _quad(*args, **kwargs)
            monkeypatch.setattr(mod, "quad", recording)
        batches = _record_relative_tolerance(monkeypatch)
        V.run_all(seed=0)
        assert calls == []
        assert batches and sum(n for n, _ in batches) > 300
        assert sum(bad for _, bad in batches) == 0

    def test_benchmark_quadratures_hold_their_relative_tolerance(self, monkeypatch):
        # the verify calls of the benchmark's quadrature workload
        batches = _record_relative_tolerance(monkeypatch)
        V.check_difference_bound(lams=(0.5, 2.0), n_duhamel=5, seed=0)
        for seed in (0, 1, 2):
            V.check_lemma_integral(N=1, nsamples=150, seed=seed)
        V.check_lemma_integral(N=2, nsamples=96, seed=2)
        V.check_schur_prop(1.2)
        assert sum(n for n, _ in batches) > 1000
        assert sum(bad for _, bad in batches) == 0
