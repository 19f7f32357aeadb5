import json
import re
import tracemalloc

import numpy as np
import pytest

from hardyops import coupling, kernels
from hardyops import verify as V

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

    def test_difference_bound(self):
        r = V.check_difference_bound(lams=(0.5,), n_duhamel=1, seed=5)
        assert r.verdict
        assert r.measured["duhamel_max_err"] <= 0.05

    def test_pointwise_bounds(self):
        r = V.check_pointwise_bounds(lam=1.0, t=0.5)
        assert r.verdict


class TestLemmaAndSchur:
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


class TestCommutator:
    def test_slopes_fast(self):
        r = V.check_commutator_scaling(1.5, 0.0, N=800, X_R=250.0, slope_tol=0.35)
        assert r.verdict
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
    def test_report_serialization(self, tmp_path):
        reports = [V.check_schur_prop(alpha=1.2, r_values=(0.2,), n_x=3),
                   V.check_lemma_integral(N=1, betas=(0.5,), nsamples=10, seed=0)]
        jpath = tmp_path / "reports.json"
        cpath = tmp_path / "summary.csv"
        V.write_reports_json(reports, str(jpath))
        V.write_reports_csv(reports, str(cpath))
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
        V.write_reports_json([report], str(jpath))

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
        # with full_output=1, quad appends a message exactly when ier != 0
        calls, unconverged = [], []
        for mod in (coupling, kernels, V):
            def recording(*args, _quad=mod.quad, _name=mod.__name__, **kwargs):
                out = _quad(*args, **kwargs)
                calls.append(_name)
                if kwargs.get("full_output") and len(out) > 3:
                    unconverged.append((_name, out[0], out[1], out[-1]))
                return out
            monkeypatch.setattr(mod, "quad", recording)
        V.run_all(seed=0)
        assert calls
        assert unconverged == []
