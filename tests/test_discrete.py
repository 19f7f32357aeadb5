import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from hardyops.coupling import lambda_star, lambda_zero, normalization_A
from hardyops import discrete
from hardyops.discrete import (DENSE_SOLVER_CAP, DomainError, _antider, _exterior_bands,
                               _local_bands, _nonlocal_stiffness, assemble_form,
                               boundary_bump, build_grid, commutator_norm,
                               commutator_with_multiplier, cutoff_product, dilate,
                               eigendecompose, hardy_quotient_min, heat_apply,
                               interior_bump, mass_norm, power_apply,
                               singular_profile, sobolev_norm)
from hardyops.kernels import heat_exact_halfline, riesz_exact_halfline


class TestGrid:
    def test_uniform_mesh_weights(self):
        g = build_grid(1.0, 16, 1.0)
        assert np.allclose(g.weights, 1.0 / 16.0)
        assert np.allclose(g.nodes, np.arange(1, 16) / 16.0)

    def test_quadratic_grading(self):
        g = build_grid(1.0, 64, 2.0)
        k = np.arange(1, 64)
        assert np.allclose(g.nodes, (k / 64.0) ** 2)
        assert np.all(np.diff(np.diff(g.vertices)) > 0)  # spacing increases

    def test_weights_sum_to_domain(self):
        g = build_grid(10.0, 2000, 2.0)
        assert np.sum(g.weights) == pytest.approx(10.0, rel=2e-3)

    def test_parameter_errors(self):
        with pytest.raises(DomainError):
            build_grid(-1.0, 100, 2.0)
        with pytest.raises(DomainError):
            build_grid(1.0, 8, 2.0)
        with pytest.raises(DomainError):
            build_grid(1.0, 100, 0.5)


def banded(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_stiffness(op):
    """K = op.stiffness + op.lam * diag(op.hardy) as an n x n matrix: the
    stiffness is the lambda = 0 form, and at alpha = 2 it is stored as its
    (2, n) upper bands, row 0 the off-diagonal after one pad, row 1 the
    diagonal."""
    K0 = op.stiffness if op.alpha != 2.0 else banded(op.stiffness[1], op.stiffness[0, 1:])
    return K0 + op.lam * np.diag(op.hardy)


def oneshot_fullline_form(alpha, grid):
    """The whole-line form from full (N+1)^2 cell-pair arrays, in the same
    elementwise operations as the row blocks of _nonlocal_stiffness."""
    v, h = grid.vertices, grid.cell_lengths
    Pphi = _antider(np.abs(v[:, None] - v[None, :]), alpha, 2)
    P = Pphi[1:, :-1] + Pphi[:-1, 1:] - Pphi[:-1, :-1] - Pphi[1:, 1:]
    mid = 0.5 * (v[:-1] + v[1:])
    D = np.abs(mid[:, None] - mid[None, :])
    hh = np.outer(h, h)
    far = D > np.maximum(300.0 * np.sqrt(hh), 6.0 * (h[:, None] + h[None, :]))
    Df = D[far]
    corr = (h[:, None] ** 2 + h[None, :] ** 2)[far] / 24.0
    P[far] = hh[far] * (_antider(Df, alpha, 0) + corr * Df ** (-1.0 - alpha))
    P /= hh
    K = P[:-1, :-1] + P[1:, 1:]
    K -= P[1:, :-1] + P[:-1, 1:]
    return normalization_A(1, alpha) * K


def regional_form(alpha, grid):
    """Regional form on (0, X): the whole-line form plus the exterior bands,
    from the private pieces evaluated on grid itself (at its X)."""
    return _nonlocal_stiffness(alpha, grid) \
        + normalization_A(1, alpha) * banded(*_exterior_bands(grid, alpha))


def form_at_X(alpha, lam, grid):
    """The whole stiffness from the private pieces on grid itself, at its X."""
    if alpha == 2.0:
        K = banded(*_local_bands(grid))
    else:
        kill = normalization_A(1, alpha) / alpha * (grid.X - grid.nodes) ** (-alpha)
        K = regional_form(alpha, grid) + np.diag(grid.weights * kill)
    return K + lam * np.diag(grid.weights * grid.nodes ** (-alpha))


class TestAssembly:
    def test_classical_tridiagonal(self):
        g = build_grid(1.0, 16, 1.0)
        K = dense_stiffness(assemble_form(2.0, 0.0, g))
        h = 1.0 / 16.0
        assert K[3, 3] == pytest.approx(2.0 / h, rel=1e-14)
        assert K[3, 4] == pytest.approx(-1.0 / h, rel=1e-14)
        assert K[3, 5] == 0.0

    def test_symmetry(self):
        grid = build_grid(5.0, 60, 2.0)
        unit = build_grid(1.0, 60, 2.0)  # every form is assembled on it
        for alpha in (0.5, 1.0, 1.5, 2.0):
            op = assemble_form(alpha, 0.3, grid)
            K = dense_stiffness(op)
            # eigendecompose hands LAPACK one triangle, so K must be exactly symmetric
            assert np.array_equal(K, K.T)
            # diagonal terms are added in place: same entries as the dense sums
            base = dense_stiffness(assemble_form(alpha, 0.0, grid))
            assert np.array_equal(K, base + 0.3 * np.diag(op.hardy))
            # the base is a dense part plus three bands, added in place
            if alpha < 2.0:
                A = normalization_A(1, alpha)
                kill = A / alpha * (unit.X - unit.nodes) ** (-alpha)
                diag, off = _exterior_bands(unit, alpha)
                dense = _nonlocal_stiffness(alpha, unit) \
                    + banded(A * diag + unit.weights * kill, A * off)
            else:
                dense = banded(*_local_bands(unit))
            assert np.array_equal(base, dense)

    @pytest.mark.parametrize("N", [16, 300, 1000])
    @pytest.mark.parametrize("g", [1.0, 2.0, 6.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_row_blocks_match_oneshot_form(self, monkeypatch, alpha, g, N):
        # one block, blocks of one row, and blocks of 4 rows, which divide
        # none of n = 15, 299, 999: every seam gives the same bits.  At
        # N = 1000 each block leaves columns right of its exact-formula
        # window, which take the Taylor value without the per-pair far test
        grid = build_grid(10.0, N, g)
        ref = oneshot_fullline_form(alpha, grid)
        for block_bytes in (discrete._BLOCK_BYTES, 8 * N, 4 * 8 * N):
            monkeypatch.setattr(discrete, "_BLOCK_BYTES", block_bytes)
            K = _nonlocal_stiffness(alpha, grid)
            assert np.array_equal(K, ref), (block_bytes, np.max(np.abs(K - ref)))
            assert np.array_equal(K, K.T)

    def test_alpha2_assembles_no_dense_matrix(self):
        # the alpha = 2 form is stored as its bands: O(N) memory, where a
        # dense stiffness at N = 4000 takes 128 MB
        grid = build_grid(10.0, 4000, 2.0)
        tracemalloc.start()
        try:
            op = assemble_form(2.0, 1.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.stiffness.shape == (2, grid.N - 1) and op.stiffness[0, 0] == 0.0
        assert peak < 1 << 20, peak
        # matvec is the dense product of the bands, on vectors and on columns
        K = dense_stiffness(op)
        U = np.random.default_rng(0).standard_normal((grid.N - 1, 3))
        for u in (U[:, 0], U):
            want = K @ u
            assert np.max(np.abs(op.matvec(u) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_assembly_memory_is_output_plus_blocks(self):
        grid = build_grid(10.0, 2000, 2.0)
        tracemalloc.start()
        try:
            K = _nonlocal_stiffness(1.5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * K.nbytes, peak / K.nbytes

    def test_positivity_fractional(self):
        dec = eigendecompose(assemble_form(0.5, 0.0, build_grid(1.0, 200, 1.0)))
        assert dec.eigenvalues[0] > 0.0

    def test_positivity_at_graded_acceptance_scales(self):
        from scipy.linalg import eigh
        # grading 4 puts cells of 1e-11 next to the boundary, where the
        # min-variable cell integrals must not lose the digits of X/h
        for g in (2.0, 4.0):
            for alpha in (0.5, 1.0, 1.5):
                K = assemble_form(alpha, 0.0, build_grid(10.0, 1000, g)).stiffness
                low = eigh(K, eigvals_only=True, subset_by_index=[0, 0])[0]
                assert low > 0.0, (g, alpha, low)

    def test_reflection_symmetry(self):
        # on a uniform grid the regional form is symmetric under x -> X - x:
        # the min-variable piece is the max-variable piece seen from X
        grid = build_grid(3.0, 64, 1.0)
        for alpha in (0.5, 1.0, 1.5):
            K = regional_form(alpha, grid)
            assert np.max(np.abs(K - K[::-1, ::-1])) <= 1e-12 * np.max(np.abs(K))

    def test_continuous_across_alpha_one(self):
        # the alpha = 1 log branch is the limit of the power-law kernel piece
        grid = build_grid(10.0, 400, 2.0)
        delta = 1e-3
        for form in (regional_form, _nonlocal_stiffness):
            K1 = form(1.0, grid)
            for alpha in (1.0 - delta, 1.0 + delta):
                diff = np.max(np.abs(form(alpha, grid) - K1))
                assert diff <= 2e-2 * np.max(np.abs(K1)), (form, alpha, diff)

    def test_converges_to_second_order_as_alpha_tends_to_two(self):
        # the alpha < 2 form tends to the alpha = 2 bands linearly in 2 - alpha;
        # a wrong constant in normalization_A leaves the gap at O(1)
        grid = build_grid(10.0, 400, 2.0)
        K2 = dense_stiffness(assemble_form(2.0, 0.0, grid))
        gaps = np.array([1e-2, 1e-3, 1e-4])
        errs = [np.max(np.abs(assemble_form(2.0 - g, 0.0, grid).stiffness - K2))
                / np.max(np.abs(K2)) for g in gaps]
        slope = np.polyfit(np.log(gaps), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05), errs

    def test_exterior_bands_quadrature_oracle(self):
        # regional minus whole-line form: -(1/alpha) int phi_i phi_j
        # (x^{-alpha} + (X - x)^{-alpha}), integrated cell by cell; hat i
        # rises on cell i and falls on cell i + 1
        for X, N, g in ((1.0, 16, 1.0), (10.0, 40, 2.0), (10.0, 40, 4.0)):
            grid = build_grid(X, N, g)
            v = grid.vertices
            for alpha in (0.5, 1.0, 1.5):
                def cell(c, rise_i, rise_j):
                    a, b = v[c], v[c + 1]

                    def f(x):
                        pi = x - a if rise_i else b - x
                        pj = x - a if rise_j else b - x
                        return pi * pj / (b - a) ** 2 * (x ** -alpha + (X - x) ** -alpha)
                    return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]

                ref_diag = np.array([cell(i, True, True) + cell(i + 1, False, False)
                                     for i in range(N - 1)]) / -alpha
                ref_off = np.array([cell(i + 1, False, True) for i in range(N - 2)]) / -alpha
                diag, off = _exterior_bands(grid, alpha)
                scale = np.max(np.abs(ref_diag))
                assert np.max(np.abs(diag - ref_diag)) <= 1e-13 * scale, (X, g, alpha)
                assert np.max(np.abs(off - ref_off)) <= 1e-13 * scale, (X, g, alpha)

    def test_base_is_fullline_form_off_the_bands(self):
        # the exterior pieces vanish exactly on hats with disjoint supports
        grid = build_grid(10.0, 200, 2.0)
        far = np.abs(np.subtract.outer(np.arange(199), np.arange(199))) > 1
        for alpha in (0.5, 1.0, 1.5):
            base = assemble_form(alpha, 0.0, grid).stiffness
            diff = base - _nonlocal_stiffness(alpha, build_grid(1.0, grid.N, grid.grading))
            assert np.all(diff[far] == 0.0), (alpha, np.max(np.abs(diff[far])))

    # the dense part and the bands in double against the same code run on the
    # same vertices in long double, relative to the largest entry: this finds
    # rounding and cancellation, not a wrong formula (the quad oracles do that)
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is double precision on this platform")
    @pytest.mark.parametrize("N, g, alpha, dense_tol, band_tol", [
        (2000, 2.0, 0.5, 2.2e-9, 1.7e-13), (2000, 2.0, 1.0, 2e-10, 4.5e-14),
        (2000, 2.0, 1.5, 1.2e-12, 2.1e-15), (300, 4.0, 0.5, 1.1e-9, 4e-14),
        (300, 4.0, 1.0, 2e-9, 5e-14), (300, 4.0, 1.5, 2.2e-12, 5.2e-16)],
        ids=[f"N{N}-g{g}-alpha{a}" for N, g in ((2000, 2), (300, 4)) for a in (0.5, 1, 1.5)])
    def test_long_double_assembly_oracle(self, N, g, alpha, dense_tol, band_tol):
        grid = build_grid(10.0, N, g)
        v = grid.vertices.astype(np.longdouble)
        wide = replace(grid, vertices=v, nodes=v[1:-1], weights=0.5 * (v[2:] - v[:-2]))
        K = _nonlocal_stiffness(alpha, wide)
        bands = np.concatenate(_exterior_bands(wide, alpha))
        assert K.dtype == bands.dtype == np.longdouble
        dense_err = np.max(np.abs(_nonlocal_stiffness(alpha, grid) - K)) / np.max(np.abs(K))
        band_err = (np.max(np.abs(np.concatenate(_exterior_bands(grid, alpha)) - bands))
                    / np.max(np.abs(bands)))
        assert dense_err <= dense_tol and band_err <= band_tol, (dense_err, band_err)

    def test_operators_are_independent(self):
        grid = build_grid(5.0, 60, 2.0)
        for alpha in (1.5, 2.0):
            op = assemble_form(alpha, 0.0, grid)
            again = assemble_form(alpha, 0.0, grid)
            ref = assemble_form(alpha, 0.0, grid)
            for mine, theirs in ((op.stiffness, again.stiffness), (op.hardy, again.hardy)):
                assert mine is not theirs and not np.shares_memory(mine, theirs)
                assert mine.flags.writeable
            op.stiffness[:] = 0.0
            op.hardy[:] = 0.0
            later = assemble_form(alpha, 0.0, grid)
            assert np.array_equal(later.stiffness, ref.stiffness)
            assert np.array_equal(later.hardy, ref.hardy)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_brute_force_quadrature_oracle(self):
        # hat-pair entries of the regional form against adaptive 2D quadrature
        grid = build_grid(1.0, 16, 1.0)
        v = grid.vertices

        def hat(i):
            # np.interp on the knots (v_i, 0), (v_{i+1}, 1), (v_{i+2}, 0), in
            # its arithmetic (slope times offset plus left value) on floats
            a, b, c = (float(t) for t in v[i:i + 3])
            up, down = 1.0 / (b - a), -1.0 / (c - b)

            def f(x):
                if x <= a or x >= c:
                    return 0.0
                return up * (x - a) if x < b else down * (x - b) + 1.0
            return f

        for alpha in (0.5, 1.0, 1.5):
            op = assemble_form(alpha, 0.0, grid)
            kill = normalization_A(1, alpha) / alpha \
                * (grid.X - grid.nodes) ** (-alpha) * grid.weights
            K_regional = op.stiffness - np.diag(kill)
            A = normalization_A(1, alpha)
            for (i, j) in ((0, 0), (0, 1), (0, 5), (3, 3), (7, 14)):
                fi, fj = hat(i), hat(j)

                def inner(y, x):
                    d = abs(x - y)
                    if d < 1e-13:
                        return 0.0
                    return (fi(x) - fi(y)) * (fj(x) - fj(y)) * d ** (-1 - alpha)

                # split at the hat kinks, and the diagonal cells along x = y,
                # so every piece is smooth up to its boundary
                cuts = np.unique(np.concatenate(([0.0, 1.0], v[i:i + 3], v[j:j + 3])))
                val = 0.0
                for a0, b0 in zip(cuts[:-1], cuts[1:]):
                    for c0, d0 in zip(cuts[:-1], cuts[1:]):
                        if a0 != c0:
                            val += integrate.dblquad(inner, a0, b0, c0, d0,
                                                     epsabs=1e-11, epsrel=1e-9)[0]
                            continue
                        for lo, hi in ((c0, lambda x: x), (lambda x: x, d0)):
                            val += integrate.dblquad(inner, a0, b0, lo, hi,
                                                     epsabs=1e-11, epsrel=1e-9)[0]
                assert K_regional[i, j] == pytest.approx(0.5 * A * val,
                                                         rel=2e-5, abs=1e-10)


def _heat_semigroup_error(N, g, lam, t):
    grid = build_grid(10.0, N, g)
    heat = heat_apply(eigendecompose(assemble_form(2.0, lam, grid)), t, interior_bump(grid))
    idx = [int(np.argmin(np.abs(grid.nodes - x))) for x in (0.05, 0.3, 1.0, 2.0, 3.0, 4.5)]

    def u(y):  # the bump off the grid, supported on [0.5, 3.5]
        return float(interior_bump(SimpleNamespace(nodes=np.array([y])))[0])
    exact = np.array([integrate.quad(lambda y: heat_exact_halfline(lam, t, grid.nodes[i], y)
                                     * u(y), 0.5, 3.5, epsrel=1e-11, limit=200)[0]
                      for i in idx])
    return float(np.max(np.abs(heat[idx] - exact)) / np.max(np.abs(exact)))


@pytest.fixture(scope="module")
def dec():
    return eigendecompose(assemble_form(2.0, 1.0, build_grid(6.0, 300, 2.0)))


class TestSpectralCalculus:

    def test_dirichlet_spectrum(self):
        g = build_grid(math.pi, 400, 1.0)
        dec = eigendecompose(assemble_form(2.0, 0.0, g))
        assert np.allclose(dec.eigenvalues[:3], [1.0, 4.0, 9.0], rtol=1e-2)

    def test_residual_invariant(self, dec):
        assert dec.residual() <= 1e-8

    def test_orthonormality(self, dec):
        V = dec.eigenvectors
        G = V.T @ (dec.operator.mass[:, None] * V)
        assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-10

    def test_zero_power_is_mass_norm(self, dec):
        u = boundary_bump(dec.operator.grid, 0.1, 1.5)
        assert sobolev_norm(dec, 0.0, u) == pytest.approx(
            mass_norm(dec.operator, u), rel=1e-10)

    def test_full_power_matches_matrix_application(self, dec):
        u = boundary_bump(dec.operator.grid, 0.1, 1.5)
        spec = sobolev_norm(dec, 2.0, u)
        direct = mass_norm(dec.operator, dec.operator.apply(u))
        assert spec == pytest.approx(direct, rel=1e-8)

    def test_interpolation_inequality(self, dec):
        u = boundary_bump(dec.operator.grid, 0.1, 1.5)
        for s in (0.4, 1.0, 1.7):
            lhs = sobolev_norm(dec, s, u)
            rhs = mass_norm(dec.operator, u) ** (1.0 - 0.5 * s) \
                * sobolev_norm(dec, 2.0, u) ** (0.5 * s)
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_heat_identity_and_semigroup(self, dec):
        u = boundary_bump(dec.operator.grid, 0.1, 1.5)
        assert np.allclose(heat_apply(dec, 0.0, u), u, atol=1e-11)
        two = heat_apply(dec, 0.3, heat_apply(dec, 0.7, u))
        one = heat_apply(dec, 1.0, u)
        assert np.max(np.abs(two - one)) <= 1e-10 * np.max(np.abs(one))

    def test_heat_kernel_against_exact(self):
        # e^{-tL} of the interior bump against its integral with the exact
        # half-line kernel, at the nodes nearest six points, relative to the
        # largest value; truncation at X costs about e^{-(X - 3.5)^2/4t} < 1e-9
        for g in (2.0, 3.0):
            for lam, t in ((0.0, 0.5), (1.0, 0.5), (3.0, 0.1)):
                err = _heat_semigroup_error(2000, g, lam, t)
                assert err <= 5e-6, (g, lam, t, err)

    @pytest.mark.xfail(strict=True, reason="at g = 4 the alpha = 2 decomposition is "
                                           "wrong and heat_apply returns 0 (ROADMAP item 5)")
    def test_heat_kernel_against_exact_on_a_strongly_graded_mesh(self):
        assert _heat_semigroup_error(1000, 4.0, 1.0, 0.5) <= 5e-6

    def test_riesz_entry_against_continuum(self):
        lam, s = 1.0, 0.7
        grid = build_grid(12.0, 1200, 2.0)
        dec = eigendecompose(assemble_form(2.0, lam, grid))
        V = dec.eigenvectors / math.sqrt(grid.X)  # at X
        ratios = []
        for (a, b) in ((1.0, 1.5), (0.5, 2.0), (0.8, 0.9)):
            i = int(np.argmin(np.abs(grid.nodes - a)))
            j = int(np.argmin(np.abs(grid.nodes - b)))
            disc = float(np.sum(dec.eigenvalues ** (-0.5 * s) * V[i] * V[j]))
            cont = riesz_exact_halfline(lam, s, grid.nodes[i], grid.nodes[j])
            ratios.append(disc / cont)
        # truncation at X shifts the low modes; bounded ratio is the claim
        assert max(ratios) / min(ratios) < 1.5
        assert 0.3 < min(ratios) <= max(ratios) < 3.0

    def test_negative_heat_time_is_domain_error(self, dec):
        with pytest.raises(DomainError, match="t >= 0"):
            heat_apply(dec, -1e-3, boundary_bump(dec.operator.grid, 0.1, 1.5))

    def test_power_apply_inverse(self, dec):
        u = boundary_bump(dec.operator.grid, 0.1, 1.5)
        v = power_apply(dec, -1.2, power_apply(dec, 1.2, u))
        assert np.max(np.abs(v - u)) <= 1e-8 * np.max(np.abs(u))


@pytest.fixture(scope="module")
def unit_decs():
    """One decomposition at X = 1 per alpha: alpha = 2 has the band
    stiffness, alpha = 1.5 the dense one."""
    return {alpha: eigendecompose(assemble_form(alpha, 1.0, build_grid(1.0, 200, 2.0)))
            for alpha in (1.5, 2.0)}


def _bump_block(grid):
    """Four nodal test functions as the columns of one (n, 4) array."""
    return np.column_stack([boundary_bump(grid, 0.1 * grid.X, 1.5),
                            boundary_bump(grid, 0.02 * grid.X, 2.5),
                            interior_bump(grid, 0.2 * grid.X, 0.1 * grid.X),
                            singular_profile(grid, 0.7)])


# name -> (call on a decomposition and one nodal argument, returns a float)
BLOCK_CALLS = {
    "matvec": (lambda dec, u: dec.operator.matvec(u), False),
    "apply": (lambda dec, u: dec.operator.apply(u), False),
    "coefficients": (lambda dec, u: dec.coefficients(u), False),
    "synthesize": (lambda dec, u: dec.synthesize(u), False),
    "heat_apply": (lambda dec, u: heat_apply(dec, 0.01, u), False),
    "power_apply": (lambda dec, u: power_apply(dec, -1.3, u), False),
    "sobolev_norm": (lambda dec, u: sobolev_norm(dec, 1.3, u), True),
    "mass_norm": (lambda dec, u: mass_norm(dec.operator, u), True),
    # the nodal argument is the multiplier
    "commutator_with_multiplier": (lambda dec, m: commutator_with_multiplier(
        dec.operator, interior_bump(dec.operator.grid, 0.3 * dec.operator.grid.X,
                                    0.2 * dec.operator.grid.X), m), True),
}


class TestBlockConvention:
    """Every function of the spectral calculus takes (n,) or (n, k): a block
    call gives the k column calls, and a 1-D call keeps its return type."""

    @pytest.mark.parametrize("name", list(BLOCK_CALLS))
    @pytest.mark.parametrize("X", [1.0, 10.0])
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_block_equals_column_calls(self, unit_decs, alpha, X, name):
        dec = dilate(unit_decs[alpha], build_grid(X, 200, 2.0))
        call, gives_float = BLOCK_CALLS[name]
        U = _bump_block(dec.operator.grid)
        block = call(dec, U)
        cols = [call(dec, np.ascontiguousarray(U[:, j])) for j in range(U.shape[1])]
        if gives_float:
            assert all(type(c) is float for c in cols)
            assert isinstance(block, np.ndarray) and block.shape == (U.shape[1],)
            for got, want in zip(block, cols):
                assert abs(got - want) <= 1e-13 * abs(want)
        else:
            assert all(c.shape == (U.shape[0],) for c in cols)
            assert block.shape == U.shape
            for got, want in zip(block.T, cols):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestDilation:
    """Every form is assembled and decomposed at X = 1; X is a scalar."""

    @pytest.mark.parametrize("g", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_direct_decomposition(self, alpha, lam, g):
        from scipy.linalg import eigh
        unit_grid = build_grid(1.0, 300, g)
        unit = eigendecompose(assemble_form(alpha, lam, unit_grid))
        pieces = [lambda gr: banded(*_local_bands(gr))] if alpha == 2.0 else [
            lambda gr: _nonlocal_stiffness(alpha, gr),
            lambda gr: banded(*_exterior_bands(gr, alpha))]
        for X in (0.37, 10.0, 500.0):
            grid = build_grid(X, 300, g)
            # homogeneity: each private piece on the grid at X is X^{1-alpha}
            # times the same piece on the unit grid
            for piece in pieces:
                want = X ** (1.0 - alpha) * piece(unit_grid)
                assert np.max(np.abs(piece(grid) - want)) <= 1e-8 * np.max(np.abs(want))
            # the X images of the unit eigenpairs against dense eigh at X
            K = form_at_X(alpha, lam, grid)
            rw = np.sqrt(grid.weights)
            vals, Y = eigh(K / rw[:, None] / rw[None, :])
            V = Y / rw[:, None]
            moved = dilate(unit, grid)
            assert np.max(np.abs(moved.eigenvalues[:10] / vals[:10] - 1.0)) <= 1e-9
            u = np.exp(-((grid.nodes / X - 0.3) / 0.1) ** 2)
            t = 0.01 * X ** alpha
            for image, f in ((lambda d: heat_apply(d, t, u), lambda v: np.exp(-t * v)),
                             (lambda d: power_apply(d, 1.3, u), lambda v: v ** 0.65)):
                want = V @ (f(vals) * (V.T @ (grid.weights * u)))
                err = mass_norm(moved.operator, image(moved) - want) \
                    / mass_norm(moved.operator, want)
                assert err <= 1e-9, (X, err)
            K_moved = X ** (1.0 - alpha) * dense_stiffness(moved.operator)
            assert np.max(np.abs(K_moved - K)) <= 1e-8 * np.max(np.abs(K))

    def test_dilate_copies_no_array(self):
        unit = eigendecompose(assemble_form(1.5, 0.0, build_grid(1.0, 40, 2.0)))
        moved = dilate(unit, build_grid(7.0, 40, 2.0))
        assert moved.operator.grid.X == 7.0
        for name in ("unit_eigenvalues", "eigenvectors"):
            assert getattr(moved, name) is getattr(unit, name)
        for name in ("stiffness", "hardy", "mass"):
            assert getattr(moved.operator, name) is getattr(unit.operator, name)

    def test_mesh_mismatch_is_domain_error(self):
        unit = eigendecompose(assemble_form(2.0, 0.0, build_grid(1.0, 40, 2.0)))
        for grid in (build_grid(3.0, 41, 2.0), build_grid(3.0, 40, 3.0)):
            with pytest.raises(DomainError, match="cannot dilate"):
                dilate(unit, grid)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_extreme_scale_is_domain_error(self, alpha):
        # c^{-alpha} overflows: the usual non-finite message, not OverflowError
        unit = eigendecompose(assemble_form(alpha, 1.0, build_grid(1.0, 40, 2.0)))
        with pytest.raises(DomainError, match="not finite in double precision"):
            dilate(unit, build_grid(1e-300, 40, 2.0))

    @pytest.mark.parametrize("method, alpha, X, scale", [
        ("apply", 1.5, 1e-300, "X**-1.5 = inf"), ("apply", 1.5, 1e300, "X**-1.5 = 0.0"),
        ("form", 2.0, 1e-310, "X**-1 = inf"), ("commutator", 2.0, 1e-250, "X**-1.5 = inf"),
    ])
    def test_operator_scale_outside_double_range_is_domain_error(self, method, alpha, X,
                                                                 scale):
        # X^{-alpha}, X^{1-alpha} or X^{1/2-alpha} leaves the normal doubles
        op = assemble_form(alpha, 0.0, build_grid(X, 100, 2.0))
        u = np.ones(99)
        call = {"apply": lambda: op.apply(u), "form": lambda: op.form(u),
                "commutator": lambda: commutator_with_multiplier(op, u, u)}[method]
        with pytest.raises(DomainError, match=re.escape(
                f"alpha={alpha}, X={X}, N=100, g=2.0 needs {scale}, outside")):
            call()
        # the mass norm's X^{1/2} stays in range, and the Hardy quotient is X-free
        assert mass_norm(op, u) == pytest.approx(math.sqrt(X) * math.sqrt(np.sum(op.mass)),
                                                 rel=1e-14, abs=0.0)
        assert hardy_quotient_min(alpha, op.grid) == \
            hardy_quotient_min(alpha, build_grid(1.0, 100, 2.0))


class TestSpectralGuarantees:
    def test_trivial_two_by_two_eigenpairs(self):
        # hand-built diagonal operator: analytic eigenpairs
        grid = build_grid(1.0, 16, 1.0)
        from hardyops.discrete import DiscreteOperator
        K = np.array([[0.0, 0.0], [2.0, 6.0]])  # the bands of diag(2, 6)
        mass = np.array([1.0, 2.0])
        op = DiscreteOperator(alpha=2.0, lam=0.0, grid=grid, stiffness=K,
                              hardy=mass.copy(), mass=mass)
        dec = eigendecompose(op)
        assert np.allclose(dec.eigenvalues, [2.0, 3.0])
        assert abs(dec.eigenvectors[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_form_nonnegative_at_sharp_constant(self):
        for alpha in (1.5, 2.0):
            grid = build_grid(10.0, 400, 2.0)
            op = assemble_form(alpha, lambda_star(alpha), grid)
            dec = eigendecompose(op)
            assert dec.eigenvalues[0] >= -1e-10

    def test_spectral_positivity_above_sharp_constant(self):
        grid = build_grid(10.0, 400, 2.0)
        dec = eigendecompose(assemble_form(2.0, -0.24, grid))
        assert dec.eigenvalues[0] > 0.0


class TestLowestEigenvalues:
    @pytest.mark.parametrize("alpha, lam, N", [
        (alpha, lam, N) for alpha in (0.5, 1.0, 1.5, 2.0) for lam in (0.0, 1.0, -0.05)
        for N in (250, 2000) if lam >= lambda_star(alpha)])
    def test_matches_the_full_spectrum_on_g2(self, alpha, lam, N):
        # the full eigendecompose the routine replaced in discretize's
        # spectrum table, accurate on g = 2 meshes
        grid = build_grid(10.0, N, 2.0)
        ref = eigendecompose(assemble_form(alpha, lam, grid)).eigenvalues[:20]
        assert discrete.lowest_eigenvalues(alpha, lam, grid, 20) == pytest.approx(
            ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("count", [3, 98, 99])
    def test_keeps_relative_digits_at_huge_coupling(self, count):
        # unscaled, the Ritz values fell below eps^(2/3), where the test of
        # ARPACK turns absolute: the lowest two came out 3.7e-7 and 5e-5 off.
        # At count = n the top of C^T C loses eps times its condition, 2e-12
        from scipy.linalg import eigh
        grid = build_grid(10.0, 100, 2.0)
        op = assemble_form(1.5, 1e100, grid)
        rw = np.sqrt(op.mass)
        B = (op.stiffness * 1e-100 + np.diag(op.hardy)) / rw[:, None] / rw[None, :]
        ref = 1e100 * 10.0 ** -1.5 * eigh(B, eigvals_only=True)[:count]
        got = discrete.lowest_eigenvalues(1.5, 1e100, grid, count)
        assert got == pytest.approx(ref, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    @pytest.mark.parametrize("count", [0, -1, 100, 3.0])
    def test_count_outside_one_to_n_minus_one_is_rejected_before_assembly(
            self, monkeypatch, alpha, count):
        # the library owns the count: no SciPy error or ARPACK warning reaches
        # the caller
        def no_work(*args, **kwargs):
            raise AssertionError("assembled before the count was checked")
        monkeypatch.setattr(discrete, "assemble_form", no_work)
        with pytest.raises(DomainError, match=re.escape(
                f"count must be an integer between 1 and N-1 = 99, the number of "
                f"eigenvalues, got {count!r}")):
            discrete.lowest_eigenvalues(alpha, 0.0, build_grid(10.0, 100, 2.0), count)


class TestHardyQuotient:
    def test_second_order_trend(self):
        vals = [hardy_quotient_min(2.0, build_grid(10.0, N, 2.0))
                for N in (250, 500, 1000)]
        assert vals[0] > vals[1] > vals[2] > 0.25
        assert vals[2] == pytest.approx(0.25, rel=0.15)

    def test_order_one_small(self):
        assert abs(hardy_quotient_min(1.0, build_grid(10.0, 500, 2.0))) < 0.06

    def test_fractional_above_target(self):
        val = hardy_quotient_min(1.5, build_grid(10.0, 500, 2.0))
        assert val > abs(lambda_star(1.5))

    def test_dense_solver_cap(self):
        # the cap is checked before assembly, so the oversized grid costs nothing
        with pytest.raises(DomainError, match="dense solver capped"):
            hardy_quotient_min(1.5, build_grid(10.0, DENSE_SOLVER_CAP + 1, 2.0))

    @pytest.mark.parametrize("alpha, N, g", [
        *[(alpha, 2000, g) for alpha in (0.5, 1.0, 1.5) for g in (2.0, 4.0, 6.0)],
        (1.5, 4000, 2.0)])
    def test_matches_dense_eigh(self, alpha, N, g):
        # the dense subset eigensolve the Cholesky-Lanczos path replaced
        from scipy.linalg import eigh
        grid = build_grid(10.0, N, g)
        op = assemble_form(alpha, 0.0, grid)
        rw = np.sqrt(op.hardy)
        B = op.stiffness / rw[:, None] / rw[None, :]
        ref = eigh(0.5 * (B + B.T), eigvals_only=True, subset_by_index=[0, 0])[0]
        del op, B
        assert hardy_quotient_min(alpha, grid) == pytest.approx(ref, rel=1e-9)

    def test_factors_the_only_copy(self):
        # the form is assembled into one array and factored in place there
        grid = build_grid(10.0, 2000, 2.0)
        n = grid.N - 1
        tracemalloc.start()
        try:
            hardy_quotient_min(1.5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * 8 * n * n, peak / (8 * n * n)

    def test_non_finite_minimum_is_domain_error(self, monkeypatch):
        monkeypatch.setattr(discrete, "eigsh", lambda *a, **k: np.zeros(1))
        with pytest.raises(DomainError, match="Hardy minimum .* not finite"):
            hardy_quotient_min(1.5, build_grid(10.0, 100, 2.0))

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_ignores_X(self, alpha):
        # computed on build_grid(1, N, g) whatever X: bitwise the same minimum,
        # also where the form at X itself would underflow (X = 1e-130)
        vals = [hardy_quotient_min(alpha, build_grid(X, 100, 2.0)) for X in (1e-130, 1.0, 20.0)]
        assert vals[0] == vals[1] == vals[2]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_scale_invariant(self, alpha):
        # the quotient is dilation-invariant, so the minimum cannot depend on X
        vals = [hardy_quotient_min(alpha, build_grid(X, 2000, 2.0))
                for X in (1.0, 10.0, 20.0, 500.0)]
        assert (max(vals) - min(vals)) / min(vals) <= 1e-11

    @pytest.mark.parametrize("alpha, g", [(0.5, 8.0), (1.0, 10.0)])
    def test_indefinite_form_is_domain_error(self, alpha, g):
        # the lambda = 0 form is positive; on these over-graded meshes the
        # assembly loses it (cancellation in _diag_singular_pairs), and the
        # minimum must not come back negative.  Once the assembly keeps these
        # forms positive, they should give a positive minimum instead.
        with pytest.raises(DomainError, match="not positive definite") as info:
            hardy_quotient_min(alpha, build_grid(10.0, 300, g))
        for part in (f"alpha={alpha}", "X=10.0", "N=300", f"g={g}"):
            assert part in str(info.value)

    def test_deep_grid_converges_to_sharp_constant(self):
        # with a boundary-resolving grading and the consistent Hardy pairing
        # the quotient lands on the sharp constant; this isolates the
        # log-window effect from any assembly error
        from scipy.linalg import eigh
        grid = build_grid(10.0, 700, 6.0)
        alpha = 2.0
        K = grid.X ** (1.0 - alpha) * dense_stiffness(assemble_form(alpha, 0.0, grid))  # at X
        v = grid.vertices
        n = grid.N - 1
        H = np.zeros((n, n))
        for i in range(n):
            a, b, c = v[i], v[i + 1], v[i + 2]
            up = integrate.quad(lambda x: ((x - a) / (b - a)) ** 2 * x ** -alpha,
                                a, b, epsrel=1e-10)[0]
            dn = integrate.quad(lambda x: ((c - x) / (c - b)) ** 2 * x ** -alpha,
                                b, c, epsrel=1e-10)[0]
            H[i, i] = up + dn
            if i < n - 1:
                cr = integrate.quad(lambda x: ((c - x) / (c - b))
                                    * ((x - b) / (c - b)) * x ** -alpha,
                                    b, c, epsrel=1e-10)[0]
                H[i, i + 1] = H[i + 1, i] = cr
        nu = eigh(K, H, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert nu == pytest.approx(0.25, rel=0.05)


class TestTridiagonalPath:
    """The alpha = 2 solvers against dense eigh on the same matrices."""

    @pytest.mark.parametrize("lam", [-0.24, 0.0, 1.0, 3.0])
    def test_decomposition_matches_dense(self, lam):
        from scipy.linalg import eigh
        from hardyops.discrete import SpectralDecomposition
        grid = build_grid(10.0, 2000, 2.0)
        op = assemble_form(2.0, lam, grid)
        dec = eigendecompose(op)
        rw = np.sqrt(op.mass)
        vals, Y = eigh(dense_stiffness(op) / rw[:, None] / rw[None, :])
        ref = SpectralDecomposition(unit_eigenvalues=vals, eigenvectors=Y / rw[:, None],
                                    operator=op)
        assert np.max(np.abs(dec.unit_eigenvalues - vals) / np.abs(vals)) <= 1e-10
        u = boundary_bump(grid, 0.1, 1.5)
        for got, want in ((heat_apply(dec, 0.1, u), heat_apply(ref, 0.1, u)),
                          (power_apply(dec, 1.3, u), power_apply(ref, 1.3, u)),
                          (power_apply(dec, -1.3, u), power_apply(ref, -1.3, u))):
            assert mass_norm(op, got - want) <= 1e-10 * mass_norm(op, want)
        assert sobolev_norm(dec, 1.3, u) == pytest.approx(sobolev_norm(ref, 1.3, u),
                                                          rel=1e-10)
        assert dec.residual() <= 1e-8

    @pytest.mark.parametrize("N", [250, 1000, 4000])
    def test_hardy_min_matches_dense(self, N):
        from scipy.linalg import eigh
        grid = build_grid(10.0, N, 2.0)
        op = assemble_form(2.0, 0.0, grid)
        rw = np.sqrt(op.hardy)
        ref = eigh(dense_stiffness(op) / rw[:, None] / rw[None, :], eigvals_only=True,
                   subset_by_index=[0, 0])[0]
        assert hardy_quotient_min(2.0, grid) == pytest.approx(ref, rel=1e-8)

    def test_hardy_min_runs_past_dense_cap(self):
        vals = [hardy_quotient_min(2.0, build_grid(10.0, N, 2.0))
                for N in (DENSE_SOLVER_CAP + 1, 250000)]
        assert vals[0] > vals[1] > 0.25

    def test_hardy_min_past_dense_cap_matches_shift_invert(self):
        # sparse shift-invert Lanczos on the same pencil; bisection with the
        # default absolute tolerance eps * ||T||_1 misses this by 7e-7
        from scipy.sparse import diags
        from scipy.sparse.linalg import eigsh
        grid = build_grid(10.0, 64000, 2.0)
        h = grid.cell_lengths
        K = diags([-1.0 / h[1:-1], 1.0 / h[:-1] + 1.0 / h[1:], -1.0 / h[1:-1]],
                  [-1, 0, 1], format="csc")
        H = diags(grid.weights * grid.nodes ** -2.0, format="csc")
        ref = eigsh(K, k=1, M=H, sigma=0.0, which="LM", tol=1e-14)[0][0]
        assert hardy_quotient_min(2.0, grid) == pytest.approx(ref, rel=1e-9)


class TestFormIdentities:
    def test_wholeline_equals_regional_plus_comparison_potential(self):
        # zero-extension identity: whole-line energy equals the truncated
        # half-line form plus the comparison-constant potential
        for alpha in (0.5, 1.2):
            grid = build_grid(10.0, 400, 2.0)
            op0 = assemble_form(alpha, 0.0, grid)
            K_full = _nonlocal_stiffness(alpha, build_grid(1.0, grid.N, grid.grading))
            u = boundary_bump(grid, 0.2, 1.0)
            scale = grid.X ** (1.0 - alpha)  # unit-scale arrays to X
            lhs = scale * float(u @ (K_full @ u))
            rhs = op0.form(u) + lambda_zero(alpha) \
                * scale * float(np.sum(op0.hardy * u * u))
            assert lhs == pytest.approx(rhs, rel=2e-2)

    def test_lambda_monotonicity_identity(self):
        grid = build_grid(10.0, 300, 2.0)
        alpha, lam = 1.5, 2.0
        op0 = assemble_form(alpha, 0.0, grid)
        opl = assemble_form(alpha, lam, grid)
        u = boundary_bump(grid, 0.1, 1.2)
        lhs = opl.form(u) - op0.form(u)
        rhs = lam * grid.X ** (1.0 - alpha) * float(np.sum(op0.hardy * u * u))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestCommutator:
    def test_flat_cutoff_commutes(self):
        grid = build_grid(30.0, 600, 2.0)
        op = assemble_form(1.5, 0.0, grid)
        u = interior_bump(grid, center=1.0, halfwidth=0.5)
        val = commutator_norm(op, u, 0.05, 10.0)
        scale = mass_norm(op, op.apply(u))
        assert val <= 0.05 * scale

    def test_resolution_guard(self):
        grid = build_grid(30.0, 100, 1.0)
        op = assemble_form(1.5, 0.0, grid)
        u = interior_bump(grid)
        with pytest.raises(DomainError):
            commutator_norm(op, u, 1e-4, 10.0)

    @pytest.mark.parametrize("r, R", [(0.0, 2.0), (1.5, 2.0), (0.5, 0.5), (0.5, 15.0)])
    def test_cutoff_window_guard(self, r, R):
        grid = build_grid(30.0, 100, 1.0)
        op = assemble_form(2.0, 0.0, grid)
        with pytest.raises(DomainError, match=f"need 0 < r <= 1 <= R < X/2, got r={r!r}, "
                                              f"R={R!r}"):
            commutator_norm(op, interior_bump(grid), r, R)

    def test_multiplier_form(self):
        grid = build_grid(30.0, 400, 2.0)
        op = assemble_form(2.0, 0.0, grid)
        u = singular_profile(grid, 1.0)
        m = cutoff_product(grid, 0.2, 8.0)
        K, mass = grid.X ** (1.0 - 2.0) * dense_stiffness(op), grid.X * op.mass  # at X
        direct = K @ (m * u) - m * (K @ u)
        assert commutator_with_multiplier(op, u, m) == pytest.approx(
            math.sqrt(np.sum(direct ** 2 / mass)), rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_hardy_term_is_left_out(self, alpha):
        # lam * x^{-alpha} commutes with m, so every lam gives the lambda = 0
        # commutator bit for bit, not after a cancellation
        grid = build_grid(30.0, 700, 2.0)
        u = singular_profile(grid, 1.0)
        m = np.column_stack([cutoff_product(grid, r, R) for r, R in ((0.2, 8.0), (0.5, 3.0))])
        norms = [commutator_with_multiplier(assemble_form(alpha, lam, grid), u, m)
                 for lam in (0.0, 1.0)]
        assert np.array_equal(norms[0], norms[1])


class TestCouplingAsScalar:
    """lam is a scalar of the operator: the stiffness holds the lambda = 0
    form, and the solvers add lam times the Hardy diagonal themselves."""

    @pytest.mark.parametrize("alpha, lam", [
        *[(alpha, lam) for alpha in (0.5, 1.0, 1.5) for lam in (-0.1, 1.0, 3.0)],
        *[(2.0, lam) for lam in (-0.24, 1.0, 3.0)]])
    def test_eigenpairs_equal_the_summed_form(self, alpha, lam):
        # bit for bit the eigenpairs of the matrix with lam * hardy summed in:
        # dense eigh of the mass-scaled sum, or MRRR on its scaled bands
        from scipy.linalg import eigh, eigh_tridiagonal
        op = assemble_form(alpha, lam, build_grid(10.0, 300, 2.0))
        dec = eigendecompose(op)
        rw = np.sqrt(op.mass)
        if alpha == 2.0:
            diag, off = op.stiffness[1] + lam * op.hardy, op.stiffness[0, 1:]
            vals, Y = eigh_tridiagonal(diag / rw / rw, off / rw[:-1] / rw[1:],
                                       lapack_driver="stemr")
        else:
            vals, Y = eigh(dense_stiffness(op) / rw[:, None] / rw[None, :])
        assert np.array_equal(dec.unit_eigenvalues, vals)
        assert np.array_equal(dec.eigenvectors, Y / rw[:, None])

    @pytest.mark.parametrize("alpha, cap", [(1.5, 2.1), (2.0, 1.1)])
    def test_eigendecompose_memory(self, alpha, cap):
        # below alpha = 2 one scaled copy, which eigh overwrites, and the
        # eigenvectors; at alpha = 2 the eigenvectors alone, scaled in place
        op = assemble_form(alpha, 1.0, build_grid(10.0, 1000, 2.0))
        n = op.mass.size
        tracemalloc.start()
        try:
            eigendecompose(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap * 8 * n * n, peak / (8 * n * n)
