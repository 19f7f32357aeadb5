"""Theorem-to-check harness.

Each main inequality or kernel bound becomes a named check returning a
VerificationReport with measured ratios, fitted constants and slopes, and a
verdict against declared tolerances.  Comparability statements carry
unspecified constants, so checks fit and cap constants rather than asserting
exact values.  Only the s = 1 and s = 2 identities demand rounding-level
agreement; they read the Hardy term from the operator (DiscreteOperator.form,
.potential), never from x^{-alpha}.  Every fitted constant is held to the one
cap CAP = 1e3; the verdict bounds are constants of their checks, not parameters.

All checks are deterministic given their parameters; the two that draw random
sample points (difference_bound, lemma_integral) take them from a seed.  The
fractional-order norm-equivalence checks run purely through the discrete
spectral calculus (no closed-form fractional kernels exist); every such
report says so in its notes.  Checks return reports and write no file; the
command line (hardyops.cli) writes them as JSON and a CSV summary.

Every integral of difference_bound (Duhamel), pointwise_bounds,
lemma_integral and schur_prop runs on one batched adaptive G10-K21
Gauss-Kronrod rule, _gauss_kronrod: every round evaluates the open panels of
all integrals in array calls of at most _GK_ROWS panels, and an integral
that would pass its panel cap raises DomainError naming it.  They keep the
epsrel, break points and caps of the scalar quads they replaced, and every
one is purely relative: each integrand is nonnegative, and a fixed epsabs
cost small values, such as pointwise_bounds' boundary values, their digits.
schur_prop's two infinite ends are closed forms (see _schur_rows).
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np
# unused, but bench/tracer.py wraps this module's ``quad`` binding by name
from scipy.integrate import quad  # noqa: F401
from scipy.special import hyp2f1

from hardyops import discrete as dm
from hardyops.coupling import CouplingParams, _check_alpha, exponent_p, make_coupling
from hardyops.discrete import (Grid1D, assemble_form, boundary_bump,
                               build_grid, commutator_norm, decay_profile,
                               eigendecompose, heat_apply, interior_bump,
                               mass_norm, power_apply, sobolev_norm)
from hardyops.kernels import (diff_envelope_parts, heat_envelope, heat_exact_halfline,
                              heat_exact_halfspace, pt)
from hardyops.specfun import DomainError

DEFAULT_GRID = dict(X=10.0, N=2000, g=2.0)
FAST_GRID = dict(X=10.0, N=400, g=2.0)
# cap on every fitted comparability constant
CAP = 1e3
# bound on each commutator_scaling slope error
SLOPE_TOL = 0.15
# largest difference_bound coupling: above it the Duhamel integrand's mass
# sits at times s ~ y^2/lam that the check trims (s < 1e-6 t)
DUHAMEL_LAM_MAX = 1e3
# largest lemma_integral exponent (the lemma takes beta > 0): with r, s <= 10
# and delta <= 100, every power in the N = 1 integrand's product stays below
# the double range
LEMMA_BETA_MAX = 32.0
# pointwise_bounds times and couplings: outside them its boundary window
# x <= 1e-2 leaves the layer x << sqrt(t) (t = 1e-3) or underflows (t = 1e-4)
POINTWISE_T_RANGE = (1e-2, 1e3)
POINTWISE_LAM_MAX = 1e3


@dataclass
class VerificationReport:
    """Outcome of one named check.

    verdict is True iff measured[k] <= tolerances[k] for every declared k;
    measured may carry extra diagnostic entries with no declared bound.
    """

    check_name: str
    params: dict
    measured: dict
    tolerances: dict
    verdict: bool
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "params": self.params,
            "measured": self.measured,
            "tolerances": self.tolerances,
            "verdict": "pass" if self.verdict else "fail",
            "notes": self.notes,
        }


def _finalize(name, params, measured, tolerances, notes="") -> VerificationReport:
    if not tolerances:
        raise DomainError(f"{name} has no bound to check")
    ok = all(measured[k] <= tolerances[k] for k in tolerances)
    clean = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
             for k, v in measured.items()}
    return VerificationReport(check_name=name, params=params, measured=clean,
                              tolerances=dict(tolerances), verdict=bool(ok),
                              notes=notes)


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _form(alpha: float, N: int, g: float) -> dm.DiscreteOperator:
    # the lambda = 0 form, shared, read-only, by the decompositions at every lam
    op = assemble_form(alpha, 0.0, build_grid(1.0, N, g))
    for arr in (op.stiffness, op.hardy, op.mass):
        arr.flags.writeable = False
    return op


@functools.lru_cache(maxsize=8)
def _decompose(alpha: float, lam: float, N: int, g: float) -> dm.SpectralDecomposition:
    # shared, read-only, by every later caller with the same key, at any X
    dec = eigendecompose(dm._couple(_form(alpha, N, g), lam))
    for arr in (dec.unit_eigenvalues, dec.eigenvectors):
        arr.flags.writeable = False
    return dec


def get_dec(alpha: float, lam: float, grid: Grid1D) -> dm.SpectralDecomposition:
    """Decomposition of the (alpha, lam) operator on grid, read-only.

    Every decomposition holds unit-scale arrays (see discrete.DiscreteOperator),
    so the cache holds one per (alpha, lam, N, g), and each call rebinds it to
    grid with discrete.dilate, which copies no array.  Those of one (alpha,
    N, g) share one read-only lambda = 0 form (_form), lam being a scalar.  A
    plain public function around the cache: the benchmark tracer
    (bench/tracer.py) times it and counts a miss for each eigendecompose it
    reaches.  A failed decomposition is not cached; it is repeated on grid
    itself, so that its DomainError names the caller's X, not the unit grid's.
    """
    try:
        dec = _decompose(alpha, lam, grid.N, grid.grading)
    except DomainError:
        eigendecompose(assemble_form(alpha, lam, grid))
        raise
    return dm.dilate(dec, grid)


def weighted_norm(grid: Grid1D, u: np.ndarray, power: float) -> float | np.ndarray:
    """|| x^{power/2} u || in the lumped mass norm, of u or of each column of u (n, k)."""
    return dm._norms(grid.weights * grid.nodes ** power, u)


def eps_family(grid: Grid1D, gamma_exp: float) -> tuple[list[float], np.ndarray]:
    """Boundary-bump family over eight halved concentration scales from 0.2:
    the scales, and the bumps as the columns of one (n, k) array."""
    scales = []
    eps = 0.2
    for _ in range(8):
        h_local = np.min(np.diff(grid.vertices[grid.vertices <= 2 * eps]),
                         initial=np.inf)
        if not np.isfinite(h_local) or h_local > eps / 3.0:
            break
        scales.append(eps)
        eps *= 0.5
    if len(scales) < 4:
        raise DomainError("grid too coarse for the requested bump family")
    return scales, np.column_stack([boundary_bump(grid, eps, gamma_exp) for eps in scales])


def _norm(check: str, grid: Grid1D, whats: list[str], norms) -> np.ndarray:
    """norms, of the test functions whats that check divides by: shape (k,),
    or (k, m) for m norms of each, in the order they are divided by.

    Test functions live at fixed scales (bumps at eps <= 0.2, a taper to 2,
    interior bumps out to 3.5), so on a grid far smaller or larger than those
    one can vanish on every node or leave double precision.  A norm whose
    square is not a finite normal double (zero, subnormal or overflowing)
    keeps too few digits for the ratios and identities built on it, so
    DomainError names the first, row by row.
    """
    norms = np.asarray(norms, dtype=float)
    sq = norms * norms
    bad = np.argwhere(~((np.finfo(float).tiny <= sq) & (sq < math.inf)))
    if bad.size:
        raise _unresolved(check, grid, f"the test function {whats[bad[0, 0]]} has norm "
                                       f"{float(norms[tuple(bad[0])])!r}")
    return norms


def _unresolved(check: str, grid: Grid1D, what: str) -> DomainError:
    return DomainError(f"{check}: {what} on the grid X={grid.X}, N={grid.N}, "
                       f"g={grid.grading}, which does not resolve its scale")


def _require_count(key: str, n: int) -> None:
    if n < 1:
        raise DomainError(f"{key} must be at least 1, got {n}")


def _slope(check: str, key: str, grid: Grid1D, xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of ln(ys) against ln(xs), the measured value key of
    check.  A y that is not a positive normal double (a norm that vanished or
    underflowed on grid) has no logarithm to fit, so DomainError names the
    check and the key."""
    bad = ~((ys >= np.finfo(float).tiny) & (ys < math.inf))
    if bad.any():
        raise _unresolved(check, grid, f"{key} would fit the logarithm of the "
                                       f"norm {float(ys[bad][0])!r}")
    lx, ly = np.log(xs), np.log(ys)
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


# The G10-K21 pair of QUADPACK's qk21 (Piessens et al. 1983): the Kronrod
# nodes of [0, 1] from the outside in, their weights, and the weights of the
# ten Gauss nodes, which are the Kronrod nodes of odd index.
_KRONROD_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_KRONROD_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GAUSS_W = np.zeros(11)
_GAUSS_W[1:10:2] = [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                    0.295524224714752870173892994651338]
# the same on [-1, 1], in increasing order
_GK_X = np.concatenate([-_KRONROD_X[:-1], _KRONROD_X[::-1]])
_GK_WK = np.concatenate([_KRONROD_W[:-1], _KRONROD_W[::-1]])
_GK_WG = np.concatenate([_GAUSS_W[:-1], _GAUSS_W[::-1]])
# panels evaluated per call of an integrand: 2 MB of nodes, whatever the batch
_GK_ROWS = (2 << 20) // (8 * _GK_X.size)


def _panels(lo, hi, *points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels (index, a, b) of the integrals over (lo_i, hi_i), split at break
    points clipped to [lo_i, hi_i]; each argument is a scalar or an array, and
    repeated points leave no empty panel."""
    lo, hi, *points = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                            for v in (lo, hi, *points)))
    edges = np.sort(np.clip(np.column_stack([lo, *points, hi]), lo[:, None], hi[:, None]), 1)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    idx = np.repeat(np.arange(lo.size), len(points) + 1)
    keep = b > a
    return idx[keep], a[keep], b[keep]


def _gauss_kronrod(f, idx: np.ndarray, a: np.ndarray, b: np.ndarray, *, epsrel: float,
                   limit: int, what) -> tuple[np.ndarray, np.ndarray]:
    """Many integrals at once, by adaptive G10-K21 panels.

    Integral i is the sum of int_a^b f over its panels (i, a, b), as _panels
    makes them.  f(i, x) takes the integral index of each row (shape (m,)) and
    the nodes x (shape (m, 21)) and returns f there.  Each round evaluates
    the 21 nodes of every open panel, _GK_ROWS panels per call, and takes
    |K21 - G10| as a panel's error.  With tol_i = epsrel |I_i|, I_i the
    current estimate, an integral is done once its summed error is at most
    tol_i: f >= 0 here, so |I_i| bounds each panel's part, and an integral
    that is 0 is 0 at every node, done in one round with zero error.  Until
    then a panel is kept when its error is at most its length's share of
    tol_i / 2, and bisected otherwise; the other half of tol_i is left for
    panels at an integrable endpoint singularity, whose error falls slower
    than their length.  Returns each integral's K21 value and its summed
    error.  An integral that would need more than limit
    panels, the counterpart of quad's limit, raises DomainError with what(i),
    which names the integral and its parameters.
    """
    n = int(idx.max()) + 1 if idx.size else 0
    half_share = 0.5 / np.bincount(idx, b - a, n)
    used = np.bincount(idx, minlength=n)
    val, err = np.zeros(n), np.zeros(n)
    while idx.size:
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        k, g = np.empty(idx.size), np.empty(idx.size)
        for lo in range(0, idx.size, _GK_ROWS):
            rows = slice(lo, lo + _GK_ROWS)
            fx = f(idx[rows], c[rows, None] + h[rows, None] * _GK_X)
            k[rows], g[rows] = fx @ _GK_WK, fx @ _GK_WG
        k, e = h * k, h * np.abs(k - g)
        tol = epsrel * np.abs(val + np.bincount(idx, k, n))
        finished = err + np.bincount(idx, e, n) <= tol
        keep = finished[idx] | (e <= tol[idx] * (b - a) * half_share[idx])
        val += np.bincount(idx[keep], k[keep], n)
        err += np.bincount(idx[keep], e[keep], n)
        idx, a, b, c = idx[~keep], a[~keep], b[~keep], c[~keep]
        used += np.bincount(idx, minlength=n)
        if idx.size and used.max() > limit:
            raise DomainError(f"{what(int(np.argmax(used)))} does not converge "
                              f"within {limit} Gauss-Kronrod panels")
        idx, a, b = np.concatenate([idx, idx]), np.concatenate([a, c]), np.concatenate([c, b])
    return val, err


# ---------------------------------------------------------------------------
# Norm-equivalence and Hardy checks (discrete spectral calculus)
# ---------------------------------------------------------------------------

def _norm_setup(alpha: float, lam: float, s: float,
                grid_cfg: dict | None) -> tuple[dict, Grid1D, CouplingParams]:
    """Grid config (DEFAULT_GRID if None), its grid and the check's coupling."""
    cfg = dict(DEFAULT_GRID if grid_cfg is None else grid_cfg)
    grid = build_grid(**cfg)
    if not (0.0 < s <= 2.0):
        raise DomainError("s must lie in (0, 2]")
    return cfg, grid, make_coupling(1, alpha, lam)


def _s2_residual(op_l: dm.DiscreteOperator, op_0: dm.DiscreteOperator, u) -> float:
    """||L_lam u - L_0 u - lam V u|| / ||L_lam u||, V u = op_l.potential(u)."""
    v_l = op_l.apply(u)
    return mass_norm(op_l, v_l - op_0.apply(u) - op_l.lam * op_l.potential(u)) \
        / max(mass_norm(op_l, v_l), 1e-30)


def check_equivalence(alpha: float, lam: float, s: float,
                      grid_cfg: dict | None = None) -> VerificationReport:
    """Comparability of the two fractional Sobolev norms, plus the s = 1, 2 identities.

    Below the threshold (1 + 2q)/alpha, q = min(p, p0), the ratio curve over the
    boundary-concentration family must stay within a spread of 10; when lam < 0
    and s exceeds (1+2p)/alpha, the inverse ratio must instead grow
    monotonically (domain-gap probe through a mollified inverse-power seed).
    """
    cfg, grid, cp = _norm_setup(alpha, lam, s, grid_cfg)
    p = cp.p
    norm = functools.partial(_norm, "equivalence", grid)
    dec_l = get_dec(alpha, lam, grid)
    dec_0 = get_dec(alpha, 0.0, grid)
    measured: dict = {"p": p}
    tol: dict = {}
    notes = []
    if alpha < 2.0:
        notes.append("fractional order: discrete spectral calculus only, "
                     "no exact-kernel oracle exists")

    # s = 1 identity: the squared spectral ratio is the ratio of the two forms
    u = boundary_bump(grid, 0.05, p + 0.51)
    n0, nl = norm(["boundary bump eps=0.05"],
                  [[sobolev_norm(dec_0, 1.0, u), sobolev_norm(dec_l, 1.0, u)]])[0]
    rhs = dec_l.operator.form(u) / dec_0.operator.form(u)
    measured["identity_s1_err"] = abs((nl / n0) ** 2 - rhs) / max(1.0, abs(rhs))
    tol["identity_s1_err"] = 1e-10
    measured["identity_s2_err"] = _s2_residual(dec_l.operator, dec_0.operator, u)
    tol["identity_s2_err"] = 1e-10

    threshold = (1.0 + 2.0 * cp.q) / alpha
    measured["threshold"] = threshold
    if s < threshold:
        scales, U = eps_family(grid, p + 0.51)
        nl, n0 = norm([f"boundary bump eps={eps:g}" for eps in scales],
                      np.column_stack([sobolev_norm(dec_l, s, U),
                                       sobolev_norm(dec_0, s, U)])).T
        ratios = nl / n0
        measured["ratio_curve"] = [[eps, float(r)] for eps, r in zip(scales, ratios)]
        measured["ratio_max"] = float(np.max(np.maximum(ratios, 1.0 / ratios)))
        measured["family_spread"] = float(np.max(ratios) / np.min(ratios))
        tol["ratio_max"] = CAP
        tol["family_spread"] = 10.0
    elif lam < 0.0:
        # above-threshold domain-gap probe: the critical boundary profile x^p
        # is adapted to L_lam (its image under L_lam is supported away from
        # the boundary), so the lam-norm of its semigroup mollifications stays
        # bounded while the comparison norm picks the singular content up
        seed_vec = dm.singular_profile(grid, p)
        eps_list = [0.2 * 2.0 ** (-j) for j in range(8)]
        U = np.column_stack([heat_apply(dec_l, eps ** alpha, seed_vec) for eps in eps_list])
        n0, nl = norm([f"heat image t={eps ** alpha:g} of the singular profile"
                       for eps in eps_list],
                      np.column_stack([sobolev_norm(dec_0, s, U),
                                       sobolev_norm(dec_l, s, U)])).T
        inv_ratios = n0 / nl
        measured["ratio_curve"] = [[eps, float(r)] for eps, r in zip(eps_list, inv_ratios)]
        run = best = 0
        for dv in np.diff(inv_ratios):
            run = run + 1 if dv > 0.0 else 0
            best = max(best, run)
        measured["n_monotone_growth"] = int(best)
        measured["monotone_deficit"] = float(max(0, 4 - best))
        measured["growth_factor"] = float(inv_ratios[-1] / inv_ratios[0])
        tol["monotone_deficit"] = 0.0
        notes.append("above-threshold probe: inverse ratio over semigroup-"
                     "mollified critical boundary profile")
    params = dict(alpha=alpha, lam=lam, s=s, **cfg)
    return _finalize("equivalence", params, measured, tol, "; ".join(notes))


def check_generalized_hardy(alpha: float, lam: float, s: float,
                            grid_cfg: dict | None = None) -> VerificationReport:
    """Weighted-norm bound below threshold; windowed blow-up rate above it."""
    cfg, grid, cp = _norm_setup(alpha, lam, s, grid_cfg)
    p = cp.p
    norm = functools.partial(_norm, "generalized_hardy", grid)
    d = 1
    threshold = min((1.0 + 2.0 * p) / alpha, 2.0 * d / alpha)
    dec = get_dec(alpha, lam, grid)
    measured: dict = {"p": p, "threshold": threshold}
    tol: dict = {}
    notes = []
    if s < threshold:
        scales, U = eps_family(grid, p + 0.51)
        num, den = norm([f"boundary bump eps={eps:g}" for eps in scales],
                        np.column_stack([weighted_norm(grid, U, -alpha * s),
                                         sobolev_norm(dec, s, U)])).T
        measured["sup_ratio"] = float(np.max(num / den))
        tol["sup_ratio"] = CAP
    else:
        # necessity probe: u = L^{-s/2} phi behaves like x^p at the boundary;
        # windowed weighted norms against the fixed denominator ||phi|| grow
        # like eps^{-(alpha s/2 - p - 1/2)}
        phi = interior_bump(grid)
        n_phi, = norm(["interior bump at 2"], [mass_norm(dec.operator, phi)])
        u = power_apply(dec, -s, phi)
        measured["riesz_seed_resid"] = abs(sobolev_norm(dec, s, u) - n_phi) / n_phi
        tol["riesz_seed_resid"] = 1e-8
        # boundary amplitude for the closed-form window oracle
        fit_mask = (grid.nodes >= 1e-3) & (grid.nodes <= 0.05)
        if not np.any(fit_mask):
            raise _unresolved("generalized_hardy", grid,
                              "the amplitude fit window [1e-3, 0.05] holds no node")
        amp = np.abs(u[fit_mask])
        if not np.all(amp >= np.finfo(float).tiny):
            raise _unresolved("generalized_hardy", grid,
                              f"slope: the Riesz image is {float(np.min(amp))!r} "
                              f"on the amplitude fit window [1e-3, 0.05]")
        c_fit = float(np.exp(np.mean(np.log(amp) - p * np.log(grid.nodes[fit_mask]))))
        expo = 2.0 * p - alpha * s
        # the windows [eps, 2 eps) before the first that holds no node
        eps_list = 0.05 * 2.0 ** -np.arange(8.0)
        wins = (grid.nodes[:, None] >= eps_list) & (grid.nodes[:, None] < 2.0 * eps_list)
        eps_used = eps_list[:np.logical_and.accumulate(wins.any(axis=0)).sum()]
        if eps_used.size < 2:
            raise _unresolved("generalized_hardy", grid,
                              "fewer than two windows [eps, 2 eps) hold a node")
        vals = weighted_norm(grid, u[:, None] * wins[:, :eps_used.size], -alpha * s)
        oracle = c_fit * np.sqrt(((2.0 * eps_used) ** (expo + 1.0)
                                  - eps_used ** (expo + 1.0)) / (expo + 1.0))
        rate = alpha * s / 2.0 - p - 0.5
        slope = _slope("generalized_hardy", "slope", grid, 1.0 / eps_used, vals)
        measured["slope"] = slope
        measured["analytic_rate"] = rate
        measured["slope_err"] = abs(slope - rate)
        measured["oracle_spread"] = float(np.max(vals / oracle) / np.min(vals / oracle))
        ups = np.sum(np.diff(vals) > 0.0) if rate > 0 else 4
        measured["monotone_deficit"] = float(max(0, 4 - ups))
        tol["slope_err"] = 0.2
        tol["monotone_deficit"] = 0.0
        notes.append("necessity probe: windowed weighted norms of the "
                     "inverse-power image of an interior bump")
    params = dict(alpha=alpha, lam=lam, s=s, **cfg)
    return _finalize("generalized_hardy", params, measured, tol, "; ".join(notes))


def _reversed_family(grid: Grid1D, p: float,
                     dec: dm.SpectralDecomposition) -> tuple[list[str], np.ndarray]:
    """Names and (n, k) columns of ~40 test functions: boundary bumps at three
    decay rates, dilates, interior translates and semigroup mollifications."""
    fam = []
    for gamma_exp in (p + 0.51, p + 1.1, p + 2.0):
        scales, U = eps_family(grid, gamma_exp)
        fam += [(f"boundary bump eps={eps:g}, exponent {gamma_exp:g}", u)
                for eps, u in zip(scales, U.T)]
    for R in (0.5, 0.8, 1.2, 1.8, 2.4):
        if 3.5 * R < grid.X:
            fam.append((f"dilated bump R={R:g}", interior_bump(grid, 2.0 * R, 1.5 * R)))
    for c in (1.0, 1.5, 2.0, 2.5, 3.0):
        fam.append((f"interior bump at {c:g}",
                    interior_bump(grid, center=c, halfwidth=0.4 * c)))
    base = boundary_bump(grid, 0.05, p + 0.51)
    for t in (1e-3, 1e-2, 0.1):
        fam.append((f"heat image t={t:g} of the boundary bump eps=0.05",
                    heat_apply(dec, t, base)))
    fam.append(("heat image t=0.05 of the interior bump at 2",
                heat_apply(dec, 0.05, interior_bump(grid))))
    whats, cols = zip(*fam)
    return list(whats), np.column_stack(cols)


def check_reversed_hardy(alpha: float, lam: float, s: float,
                         grid_cfg: dict | None = None) -> VerificationReport:
    """|| (L_lam^{s/2} - L_0^{s/2}) u || controlled by the Hardy-weight norm."""
    cfg, grid, cp = _norm_setup(alpha, lam, s, grid_cfg)
    p = cp.p
    norm = functools.partial(_norm, "reversed_hardy", grid)
    dec_l = get_dec(alpha, lam, grid)
    dec_0 = get_dec(alpha, 0.0, grid)
    measured: dict = {"p": p}
    tol: dict = {}
    whats, U = _reversed_family(grid, p, dec=dec_l)
    den = norm(whats, weighted_norm(grid, U, -alpha * s))
    num = mass_norm(dec_l.operator, power_apply(dec_l, s, U) - power_apply(dec_0, s, U))
    measured["sup_ratio"] = float(np.max(num / den))
    measured["n_family"] = len(whats)
    tol["sup_ratio"] = CAP
    # s = 2 reduction: the difference is exactly lam times the Hardy term
    measured["identity_s2_err"] = _s2_residual(dec_l.operator, dec_0.operator,
                                               boundary_bump(grid, 0.05, p + 0.51))
    tol["identity_s2_err"] = 1e-10
    params = dict(alpha=alpha, lam=lam, s=s, **cfg)
    return _finalize("reversed_hardy", params, measured, tol,
                     "discrete spectral calculus; the exact-kernel side of "
                     "the difference mechanism is exercised by "
                     "difference_bound")


# ---------------------------------------------------------------------------
# Exact-kernel checks (second-order operator)
# ---------------------------------------------------------------------------

def check_heat_envelope(lams=(-0.24, 0.0, 1.0, 5.0), n_log: int = 7) -> VerificationReport:
    """Sandwich the exact kernel between envelopes with Gaussian constants.

    Lower envelope uses the exact constant 1/4; the upper constant is fitted
    below 1/4.  Reports k2/k1 per coupling over a log-grid of
    (t, x_d, y_d, transverse gap) in the half-plane, d = 2, on the samples
    where the exact kernel is a positive finite double.
    """
    _require_count("n_log", n_log)
    d = 2
    vals = np.logspace(-2.0, 2.0, n_log)
    t, xd, yd, gap = (v.ravel() for v in np.meshgrid(vals, vals, vals, [0.0, 0.3, 3.0],
                                                      indexing="ij"))
    x, y = pt(xd, 0.0), pt(yd, gap)
    c_candidates = (0.05, 0.1, 0.15, 0.2, 0.24)
    measured: dict = {}
    tol: dict = {}
    dropped = []
    for lam in lams:
        cp = make_coupling(d, 2.0, lam)
        exact = heat_exact_halfspace(d, lam, t, x, y)
        keep = (0.0 < exact) & (exact < math.inf)
        if not np.any(keep):
            raise DomainError(f"heat_envelope: at lam={lam!r} the exact kernel is 0 or "
                              f"not finite at every sample")
        dropped.append(f"lam={lam:g}: {keep.size - np.count_nonzero(keep)}")
        exact = exact[keep]
        k1 = float(np.min(exact / heat_envelope(cp, t, x, y)[keep]))
        # the upper constant of least k2/k1, the first of equals
        ratios = [float(np.max(exact / heat_envelope(cp, t, x, y, c)[keep])) / k1
                  for c in c_candidates]
        best = min(ratios)
        key = f"k2_over_k1_lam{lam:g}"
        measured.update({key: best, f"c_upper_lam{lam:g}": c_candidates[ratios.index(best)],
                         f"k1_lam{lam:g}": k1})
        tol[key] = CAP
    params = dict(lams=list(lams), d=d, n_log=n_log)
    return _finalize("heat_envelope", params, measured, tol,
                     "lower envelope at the exact Gaussian constant 1/4; upper constant "
                     f"fitted below 1/4; samples where the exact kernel is 0 or not "
                     f"finite, dropped of {t.size}: {', '.join(dropped)}")


def _duhamel_rhs(lam: float, t: float, x: float, y: float) -> float:
    """lam * double integral of exact_0(t-s, x, z) z^-2 exact_lam(s, z, y).

    The outer s integral and, for all its nodes of a round at once, the
    inner z integrals run on the batched Gauss-Kronrod rule.
    """
    zhi = max(x, y) + 8.0 * math.sqrt(t) + 4.0
    where = (f"difference_bound: the Duhamel integral at lam={lam!r}, t={t!r}, "
             f"x={x!r}, y={y!r}")

    def inner(_, sig: np.ndarray) -> np.ndarray:
        sig_i = sig.ravel()

        def f(i: np.ndarray, z: np.ndarray) -> np.ndarray:
            si = sig_i[i, None]
            return heat_exact_halfline(0.0, t - si, x, z) * z ** (-2.0) \
                * heat_exact_halfline(lam, si, z, y)
        val = _gauss_kronrod(f, *_panels(np.zeros(sig_i.size), zhi, x, y), epsrel=1e-8,
                             limit=200, what=lambda i: f"{where}, inner z integral "
                                                       f"at s={float(sig_i[i])!r}")[0]
        return val.reshape(sig.shape)

    # the inner integral extends continuously to both endpoints, so the
    # trimmed slivers contribute O(1e-6 t) relative weight
    lo, hi = 1e-6 * t, (1.0 - 1e-6) * t
    val = _gauss_kronrod(inner, *_panels(lo, hi, 0.25 * t, 0.5 * t, 0.75 * t),
                         epsrel=1e-6, limit=100, what=lambda i: where)[0]
    return lam * float(val[0])


def check_difference_bound(lams=(0.5, 2.0), n_duhamel: int = 5,
                           seed: int = 0) -> VerificationReport:
    """Difference of exact kernels against the two-piece majorant (d = 1)."""
    _require_count("n_duhamel", n_duhamel)
    if not lams:
        raise DomainError("lams must hold at least one coupling")
    for lam in lams:
        if lam > DUHAMEL_LAM_MAX:
            raise DomainError(f"difference_bound: lams holds {lam!r}, above "
                              f"{DUHAMEL_LAM_MAX:g}: the Duhamel integrand's mass at "
                              f"s ~ y^2/lam falls into the trimmed s < 1e-6 t")
    rng = np.random.default_rng(seed)
    xvals = np.logspace(-1.5, 1.0, 7)
    t, xd, yd = (v.ravel() for v in np.meshgrid(np.logspace(-1.0, 1.0, 5), xvals, xvals,
                                                 indexing="ij"))
    measured: dict = {}
    tol: dict = {}
    for lam in lams:
        cp = make_coupling(1, 2.0, lam)
        # the kernel differences do not depend on the Gaussian constant
        diffs = np.abs(heat_exact_halfline(0.0, t, xd, yd)
                       - heat_exact_halfline(lam, t, xd, yd))
        measured[f"C_lam{lam:g}"] = min(
            float(np.max(diffs / np.add(*diff_envelope_parts(cp, t, pt(xd), pt(yd), c))))
            for c in (0.1, 0.15, 0.2))
        tol[f"C_lam{lam:g}"] = CAP
    # Duhamel spot checks
    worst = 0.0
    for _ in range(n_duhamel):
        lam = float(rng.choice(lams))
        t = float(rng.uniform(0.3, 1.2))
        x = float(rng.uniform(0.4, 2.5))
        y = float(rng.uniform(0.4, 2.5))
        k0 = heat_exact_halfline(0.0, t, x, y)
        lhs = k0 - heat_exact_halfline(lam, t, x, y)
        rhs = _duhamel_rhs(lam, t, x, y)
        # the difference carries the kernels' rounding, about 1e-14 k0: at a
        # coupling such as 1e-300 it is that rounding and nothing else
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12 * k0))
    measured["duhamel_max_err"] = worst
    tol["duhamel_max_err"] = 0.05
    params = dict(lams=list(lams), n_duhamel=n_duhamel, seed=seed)
    return _finalize("difference_bound", params, measured, tol)


def check_pointwise_bounds(lam: float = 1.0, t: float = 0.5) -> VerificationReport:
    """Semigroup image of a bump against its boundary/Gaussian majorant."""
    t_min, t_max = POINTWISE_T_RANGE
    if not t_min <= t <= t_max:
        raise DomainError(f"pointwise_bounds: t = {t!r} is outside [{t_min:g}, {t_max:g}], "
                          f"where the boundary window x <= 1e-2 is resolved")
    if not lam <= POINTWISE_LAM_MAX:
        raise DomainError(f"pointwise_bounds: lam = {lam!r} is above {POINTWISE_LAM_MAX:g}, "
                          f"where the boundary window's heat image underflows")
    p = exponent_p(2.0, lam)
    sup_y = 2.0
    xs = np.concatenate([np.logspace(-4, 0, 25), np.linspace(1.2, 12.0, 25)])

    def f(i: np.ndarray, y: np.ndarray) -> np.ndarray:
        return heat_exact_halfline(lam, t, xs[i, None], y) * dm._bump((y - 1.25) / 0.75)
    vals = _gauss_kronrod(f, *_panels(np.full(xs.size, 0.5), sup_y), epsrel=1e-8, limit=100,
                          what=lambda i: f"pointwise_bounds: the bump integral at "
                                         f"x={float(xs[i])!r}, lam={lam!r}, t={t!r}")[0]
    maj = np.minimum(1.0, xs / math.sqrt(t)) ** p \
        * np.exp(-0.2 * np.maximum(0.0, xs - sup_y) ** 2 / t)
    # ratios where the majorant is a normal double: at small t its Gaussian
    # factor underflows far out, and the image with it
    normal = maj >= np.finfo(float).tiny
    ratio = vals[normal] / maj[normal]
    measured = {"sup_ratio": float(np.max(ratio))}
    tol = {"sup_ratio": CAP}
    # x -> 0 boundary exponent: psi/x^p stabilizes
    lead = (vals / xs ** p)[xs <= 1e-2]
    measured["boundary_limit_spread"] = float(np.max(lead) / np.min(lead) - 1.0)
    tol["boundary_limit_spread"] = 0.1
    # far field: Gaussian decay beats any polynomial majorant
    measured["far_ratio"] = float(ratio[-1] / np.max(ratio))
    params = dict(lam=lam, t=t)
    return _finalize("pointwise_bounds", params, measured, tol)


# ---------------------------------------------------------------------------
# Convolution lemma and weighted-row (Schur) checks
# ---------------------------------------------------------------------------

def _lemma_lhs(N: int, beta, r, s, delta):
    """Convolution of two off-center power bells, reduced by symmetry.

    The arguments broadcast as arrays, one integral per element, all on the
    batched Gauss-Kronrod rule; floats give a float.  The value can lie far
    below the old scalar quads' absolute tolerances (1e-13 at N = 1, 1.49e-8
    at N = 2, 3), under which a panel that missed the second bell passed.  Break
    points at 4^j bell widths keep a bell at a panel end from falling between
    Kronrod nodes, which missed up to 96% of it at large beta.
    """
    scalar = all(np.ndim(v) == 0 for v in (beta, r, s, delta))
    beta, r, s, delta = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                              for v in (beta, r, s, delta)))
    L = 60.0 * np.maximum.reduce([r, s, delta, np.ones_like(r)])
    widths = 4.0 ** np.arange(9)[:, None]
    bell2 = (*(delta - s * widths), *(delta + s * widths))

    def what(i: int) -> str:
        return (f"lemma_integral: the N={N} convolution integral at "
                f"beta={float(beta[i])!r}, r={float(r[i])!r}, s={float(s[i])!r}, "
                f"delta={float(delta[i])!r}")

    if N == 1:
        def f(i: np.ndarray, x: np.ndarray) -> np.ndarray:
            b1, ri, si, di = 1.0 + beta[i, None], r[i, None], s[i, None], delta[i, None]
            return (ri * si) ** beta[i, None] / ((ri ** b1 + np.abs(x) ** b1)
                                                 * (si ** b1 + np.abs(x - di) ** b1))
        val = _gauss_kronrod(f, *_panels(-L, L, 0.0, delta, *(-r * widths), *(r * widths),
                                         *bell2), epsrel=1e-8, limit=300, what=what)[0]
    else:
        flat = N == 2
        # by the angle to the second center: 2 dtheta on S^1, 2 pi sin dtheta on S^2
        sphere = 2.0 if flat else 2.0 * math.pi

        def angular(i: np.ndarray, rho: np.ndarray) -> np.ndarray:
            # angular average of the second factor at radius rho around the first center
            i_rho, rho_i = np.repeat(i, rho.shape[1]), rho.ravel()

            def g(j: np.ndarray, th: np.ndarray) -> np.ndarray:
                k = i_rho[j, None]
                nb, dk, rk = N + beta[k], delta[k], rho_i[j, None]
                d2 = dk * dk + rk * rk - 2.0 * dk * rk * np.cos(th)
                return (1.0 if flat else np.sin(th)) / (s[k] ** nb + d2 ** (0.5 * nb))
            ang = _gauss_kronrod(g, *_panels(np.zeros(rho_i.size), math.pi,
                                             *(s[i_rho] / rho_i * widths)),
                                 epsrel=1e-7, limit=60,
                                 what=lambda j: f"{what(i_rho[j])}, angular integral "
                                                f"at rho={float(rho_i[j])!r}")[0]
            return ang.reshape(rho.shape)

        def radial(i: np.ndarray, rho: np.ndarray) -> np.ndarray:
            # one angular batch per block of rows: its first round has <= _GK_ROWS panels
            step = max(1, _GK_ROWS // (rho.shape[1] * (widths.size + 1)))
            ang = np.concatenate([angular(i[k:k + step], rho[k:k + step])
                                  for k in range(0, i.size, step)])
            nb = N + beta[i, None]
            return (rho if flat else rho * rho) * sphere * ang \
                / (r[i, None] ** nb + rho ** nb)
        val = (r * s) ** beta * _gauss_kronrod(
            radial, *_panels(0.0, L, r, np.maximum(delta, 1e-6), *(r * widths), *bell2),
            epsrel=1e-6, limit=200, what=what)[0]
    return float(val[0]) if scalar else val


def check_lemma_integral(N: int = 1, betas=(0.5, 1.0, 2.0), nsamples: int = 200,
                         seed: int = 0) -> VerificationReport:
    """Convolution bound: LHS/RHS ratios finite and tightly clustered."""
    if N not in (1, 2, 3):
        raise DomainError("N must be 1, 2 or 3")
    _require_count("nsamples", nsamples)
    for beta in betas:
        if not 0.0 < beta <= LEMMA_BETA_MAX:
            raise DomainError(f"lemma_integral: betas holds {beta!r}, outside "
                              f"(0, {LEMMA_BETA_MAX:g}], the exponents of the lemma "
                              f"whose bells' powers stay in double range")
    rng = np.random.default_rng(seed)
    measured: dict = {}
    tol: dict = {}
    n = nsamples if N == 1 else max(12, nsamples // 8)
    # every sample is drawn first, in the order of one integral per draw,
    # and all of them are integrated in one batch
    draws, rhs = [], []
    for beta in betas:
        for _ in range(n):
            r = float(10.0 ** rng.uniform(-1.0, 1.0))
            s = float(10.0 ** rng.uniform(-1.0, 1.0))
            delta = float(10.0 ** rng.uniform(-2.0, 2.0)) if rng.uniform() > 0.15 else 0.0
            draws.append((beta, r, s, delta))
            rhs.append((r + s) ** beta / ((r + s) ** (N + beta) + delta ** (N + beta)))
    lhs = _lemma_lhs(N, *np.array(draws).reshape(-1, 4).T)
    for beta, ratios in zip(betas, (lhs / np.array(rhs)).reshape(len(betas), n)):
        measured[f"ratio_max_beta{beta:g}"] = float(np.max(ratios))
        measured[f"ratio_median_beta{beta:g}"] = float(np.median(ratios))
        measured[f"max_over_median_beta{beta:g}"] = float(np.max(ratios)
                                                          / np.median(ratios))
        tol[f"max_over_median_beta{beta:g}"] = 10.0
    params = dict(N=N, betas=list(betas), nsamples=n, seed=seed)
    return _finalize("lemma_integral", params, measured, tol)


def _schur_end(c, alpha: float):
    """int_0^1e-4 u^{c-1} (1-u)^{-1-alpha} du for c > 0, the incomplete beta
    function B(1e-4; c, -alpha) (DLMF 8.17.8)."""
    return 1e-4 ** c / c * hyp2f1(1.0 + alpha, c, c + 1.0, 1e-4)


def _schur_rows(alpha: float, r: np.ndarray, x, epsrel: float) -> np.ndarray:
    """Row integrals over y in (0, inf) of the reduced kernel at the weight
    exponent 1/2, one per element of r, at the matching x or one x for all.

    Under y = t x each is the scale-variable integral, so a row at x = 1 is a
    scale value.  (x 1e-4, x 1e4) runs on the batched rule, split at x/2, x,
    2x; both ends (y = x u, x/u, u < 1e-4) are _schur_end at c = 1/2 - r,
    exact where the rule, having no extrapolation, fails near c = 0.
    """
    x = np.broadcast_to(x, r.shape)

    def f(i: np.ndarray, y: np.ndarray) -> np.ndarray:
        xi = x[i, None]
        hi, lo = np.maximum(xi, y), np.minimum(xi, y)
        return (xi / y) ** 0.5 * ((hi / np.sqrt(xi * y)) ** (2.0 * r[i, None]) * hi ** alpha
                                  / np.maximum(np.abs(xi - y), lo) ** (1.0 + alpha))
    mid = _gauss_kronrod(f, *_panels(x * 1e-4, x * 1e4, 0.5 * x, x, 2.0 * x),
                         epsrel=epsrel, limit=400,
                         what=lambda i: f"schur_prop: the row integral at alpha={alpha!r}, "
                                        f"r={float(r[i])!r}, x={float(x[i])!r}")[0]
    return mid + 2.0 * _schur_end(0.5 - r, alpha)


def check_schur_prop(alpha: float = 1.2, r_values=(0.0, 0.2, 0.4),
                     n_x: int = 7) -> VerificationReport:
    """Row integrals of the reduced kernel: finite suprema, scale-free rows.

    The weight exponent beta sits at the midpoint of its admissible window
    (r, 1-r), i.e. beta = 1/2, for r in [0, 1/2).  Both weighted row integrals
    coincide with the single scale-variable integral by the change of
    variables; the measured deviation quantifies that identity numerically.
    """
    _check_alpha(alpha, include_two=False)
    _require_count("n_x", n_x)
    for rr in r_values:
        if not 0.0 <= rr < 0.5:
            raise DomainError(f"schur_prop: r_values holds {rr!r}, outside [0, 1/2): "
                              f"from r = 1/2 on the weight window (r, 1 - r) is empty")
    xs = np.logspace(-2.0, 2.0, n_x)
    all_rows = _schur_rows(alpha, np.repeat(r_values, n_x), np.tile(xs, len(r_values)), 1e-8)
    # the scale values (rows at x = 1) of each r and of three trend points
    scale = _schur_rows(alpha, np.array([*r_values, 0.40, 0.45, 0.49]), 1.0, 1e-9)
    measured: dict = {}
    tol: dict = {}
    for rr, rows, scale_val in zip(r_values, all_rows.reshape(-1, n_x), scale):
        measured[f"sup_row_r{rr:g}"] = float(np.max(rows))
        measured[f"row_spread_r{rr:g}"] = float(np.max(rows) / np.min(rows) - 1.0)
        measured[f"scale_identity_dev_r{rr:g}"] = float(
            np.max(np.abs(rows / scale_val - 1.0)))
        tol[f"sup_row_r{rr:g}"] = CAP
        tol[f"row_spread_r{rr:g}"] = 1e-5
        tol[f"scale_identity_dev_r{rr:g}"] = 1e-5
    # divergence trend toward r = 1/2 (the beta window closes)
    trend = scale[-3:].tolist()
    measured.update(zip(("trend_r04", "trend_r045", "trend_r049"), trend))
    measured["trend_deficit"] = float(max(0, 2 - np.sum(np.diff(trend) > 0)))
    tol["trend_deficit"] = 0.0
    params = dict(alpha=alpha, r_values=list(r_values))
    return _finalize("schur_prop", params, measured, tol)


# ---------------------------------------------------------------------------
# Commutator scaling (cutoff machinery)
# ---------------------------------------------------------------------------

def check_commutator_scaling(alpha: float, lam: float, N: int = 2000,
                             X_R: float = 500.0) -> VerificationReport:
    """Cutoff-commutator norms against the predicted r- and R-rates.

    The boundary rate p - alpha + 1/2 is probed on a fine grid (the theta
    cutoff must resolve scales r << 1); the radial rate -alpha - 1/2 on a
    wide grid, fitted over the asymptotic window R in [X/40, X/5].  The
    radial rate is the nonlocal far-tail mechanism, so the alpha < 2 probe
    uses a short-time heat image (fat polynomial tails, small transition-zone
    amplitude).  For alpha = 2 the commutator is local and the decay-class-
    saturating profile exhibits the steeper local rate -alpha - 5/2, which
    is what the check asserts there (``slope_R_local_err``); ``slope_R_err``
    against the fractional rate is still reported at every alpha.  Each
    asserted slope error is bounded by SLOPE_TOL.
    """
    X_r, g, t_r, t_R = 30.0, 2.0, 0.25, 0.02
    p = exponent_p(alpha, lam)
    measured: dict = {"p": p}
    tol: dict = {}
    # boundary-cutoff rate, isolated on the theta factor alone
    grid_r = build_grid(X_r, N, g)
    dec_r = get_dec(alpha, lam, grid_r)
    psi = heat_apply(dec_r, t_r, interior_bump(grid_r, center=1.25, halfwidth=0.75))
    r_list = np.array([0.25 * 2.0 ** (-j) for j in range(5)])
    norms_r = dm.commutator_with_multiplier(
        dec_r.operator, psi, np.column_stack([dm.boundary_cutoff(grid_r, r) for r in r_list]))
    slope_r = _slope("commutator_scaling", "slope_r", grid_r, r_list, norms_r)
    measured["slope_r"] = slope_r
    measured["rate_r"] = p - alpha + 0.5
    measured["slope_r_err"] = abs(slope_r - (p - alpha + 0.5))
    tol["slope_r_err"] = SLOPE_TOL
    # radial-cutoff rate on the chi factor, wide grid
    grid_R = build_grid(X_R, N, g)
    dec_R = get_dec(alpha, lam, grid_R)
    op_R = dec_R.operator
    if alpha < 2.0:
        u_far = heat_apply(dec_R, t_R,
                           interior_bump(grid_R, center=1.25, halfwidth=0.75))
    else:
        u_far = decay_profile(grid_R, p, alpha)
    R_list = X_R / np.array([40.0, 20.0, 10.0, 5.0])
    norms_R = dm.commutator_with_multiplier(
        op_R, u_far, np.column_stack([dm.radial_cutoff(grid_R, R) for R in R_list]))
    slope_R = _slope("commutator_scaling", "slope_R", grid_R, R_list, norms_R)
    measured["slope_R"] = slope_R
    measured["rate_R"] = -alpha - 0.5
    measured["rate_R_local"] = -alpha - 2.5
    measured["slope_R_err"] = abs(slope_R - (-alpha - 0.5))
    if alpha < 2.0:
        tol["slope_R_err"] = SLOPE_TOL
    else:
        measured["slope_R_local_err"] = abs(slope_R - (-alpha - 2.5))
        tol["slope_R_local_err"] = SLOPE_TOL
    # combined-cutoff norm at the extremes (the corollary's actual object)
    measured["combined_small_r"] = commutator_norm(dec_r.operator, psi,
                                                   float(r_list[-1]), 10.0)
    # commutator with a cutoff identically one on the support: ~ 0
    probe = interior_bump(grid_r, center=1.0, halfwidth=0.5)
    op_r = dec_r.operator
    base = commutator_norm(op_r, probe, 0.05, 10.0)
    flat = base / mass_norm(op_r, op_r.apply(probe))
    measured["interior_flat_ratio"] = flat
    params = dict(alpha=alpha, lam=lam, N=N, X_r=X_r, X_R=X_R, g=g,
                  t_r=t_r, t_R=t_R)
    return _finalize("commutator_scaling", params, measured, tol)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

CHECKS = {
    "equivalence": check_equivalence,
    "generalized_hardy": check_generalized_hardy,
    "reversed_hardy": check_reversed_hardy,
    "heat_envelope": check_heat_envelope,
    "difference_bound": check_difference_bound,
    "pointwise_bounds": check_pointwise_bounds,
    "lemma_integral": check_lemma_integral,
    "schur_prop": check_schur_prop,
    "commutator_scaling": check_commutator_scaling,
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _coerce(section: str, params, key: str, raw: str):
    """Typed value of one config entry, from the check's signature."""
    if key not in params:
        raise DomainError(f"[{section}] unknown key {key!r}; "
                          f"accepted keys: {', '.join(params)}")
    param = params[key]
    try:
        if key == "grid_cfg":
            X, N, g = raw.split()
            return dict(X=float(X), N=int(N), g=float(g))
        if isinstance(param.default, tuple):
            return tuple(_finite(v) for v in raw.split())
        return {"int": int, "float": _finite}[param.annotation](raw)
    except ValueError as exc:
        raise DomainError(f"[{section}] {key} = {raw!r}: {exc}") from None


def default_campaign() -> list[tuple[str, dict]]:
    """Representative fast campaign used when no config file is given."""
    fg = dict(FAST_GRID)
    return [
        ("equivalence", dict(alpha=2.0, lam=1.0, s=1.3, grid_cfg=fg)),
        ("equivalence", dict(alpha=1.5, lam=1.0, s=1.0, grid_cfg=fg)),
        ("generalized_hardy", dict(alpha=2.0, lam=0.0, s=1.2, grid_cfg=fg)),
        ("reversed_hardy", dict(alpha=2.0, lam=1.0, s=1.3, grid_cfg=fg)),
        ("heat_envelope", dict(lams=(0.0, 1.0), n_log=5)),
        ("difference_bound", dict(lams=(0.5,), n_duhamel=2)),
        ("pointwise_bounds", dict(lam=1.0, t=0.5)),
        ("lemma_integral", dict(N=1, betas=(0.7,), nsamples=60)),
        ("schur_prop", dict(alpha=1.2, r_values=(0.0, 0.2, 0.4), n_x=5)),
        ("commutator_scaling", dict(alpha=1.5, lam=0.0, N=800, X_R=250.0)),
    ]


def run_all(config: dict | None = None, seed: int = 0) -> list[VerificationReport]:
    """Execute a campaign: either the parsed config sections or the default.

    config maps section names (check name, optionally suffixed ':tag') to
    flat key=value parameter dicts.  seed goes to the checks that take one.
    """
    jobs: list[tuple[str, dict]]
    if config:
        jobs = []
        for section, raw in config.items():
            name = section.split(":")[0].strip()
            if name not in CHECKS:
                raise DomainError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
            params = inspect.signature(CHECKS[name]).parameters
            kwargs = {k: _coerce(section, params, k, v) for k, v in raw.items()}
            missing = [k for k, p in params.items()
                       if p.default is p.empty and k not in kwargs]
            if missing:
                raise DomainError(f"[{section}] missing keys: {', '.join(missing)}")
            jobs.append((name, kwargs))
    else:
        jobs = default_campaign()
    reports = []
    for name, kwargs in jobs:
        if "seed" in inspect.signature(CHECKS[name]).parameters:
            kwargs.setdefault("seed", seed)
        reports.append(CHECKS[name](**kwargs))
    return reports
