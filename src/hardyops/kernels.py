"""Heat and Riesz kernels on the half-space: exact forms and envelopes.

The second-order operator has explicit half-line heat (Bessel) and Riesz
(hypergeometric) kernels, extended to the half-space by separation of
variables; everything else is handled through two-sided envelope formulas
whose implied constants are deliberately NOT baked in (all comparisons
downstream fit and report constants instead).  The envelopes take the
operator's CouplingParams and sum their powers as logarithms, so that no
ratio such as t^{1/alpha} or x_d/|x-y| overflows.  dist, the envelopes and
the exact heat kernels take times and point coordinates that are floats or
broadcasting arrays, with one formula for both; a float call returns a float.
The layer evaluates formulas and integrates nothing.  The exact heat kernel
is evaluated in exponentially scaled form so that large rs/t never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# unused, but bench/tracer.py wraps this module's ``quad`` binding by name
from scipy.integrate import quad  # noqa: F401
from scipy.special import gammainc, gammaincc, gammaln, hyp2f1, ive

from hardyops.coupling import CouplingParams, require_lambda
from hardyops.specfun import DomainError


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point (x', x_d) with x_d > 0, x' empty in dimension one; float or array coordinates."""

    xd: float | np.ndarray
    xprime: tuple = ()

    def __post_init__(self):
        _require(self.xd > 0.0, self.xd, "xd must be positive")


def pt(xd, *xprime) -> HalfSpacePoint:
    c = [float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float) for v in (xd, *xprime)]
    return HalfSpacePoint(xd=c[0], xprime=tuple(c[1:]))


def _require(ok, values, what: str) -> None:
    """DomainError naming the first of the broadcast values where ok fails."""
    if np.count_nonzero(np.logical_not(ok)):
        first = np.broadcast_to(values, np.shape(ok))[np.logical_not(ok)].flat[0]
        raise DomainError(f"{what}, got {float(first)!r}")


def _out(v):
    """A float for a scalar result, the array otherwise."""
    return float(v) if np.ndim(v) == 0 else v


def dist(x: HalfSpacePoint, y: HalfSpacePoint) -> float | np.ndarray:
    if len(x.xprime) != len(y.xprime):
        raise DomainError("points live in different dimensions")
    # hypot, not the root of a sum of squares: the squares of gaps below
    # 1e-154 underflow to 0 and those above 1e154 overflow to inf
    with np.errstate(all="ignore"):
        r = np.abs(np.subtract(x.xd, y.xd))
        for a, b in zip(x.xprime, y.xprime):
            r = np.hypot(r, np.subtract(a, b))
    return _out(r)


def _check_time_and_c_exp(t: float | np.ndarray, c_exp: float) -> None:
    _require((0.0 < t) & (t < math.inf), t, "t must be positive and finite")
    _require(0.0 < c_exp < math.inf, c_exp, "c_exp must be positive and finite")


def heat_envelope(params: CouplingParams, t: float | np.ndarray, x: HalfSpacePoint,
                  y: HalfSpacePoint, c_exp: float = 0.25) -> float | np.ndarray:
    """Boundary-decay factors times the free bulk kernel shape.

    alpha < 2: (1 ^ x_d/t^{1/a})^p (1 ^ y_d/t^{1/a})^p t^{-d/a}
               (1 ^ t^{1/a}/|x-y|)^{d+a}
    alpha = 2: same boundary factors, Gaussian bulk exp(-c|x-y|^2/t) t^{-d/2}
               with free constant c = c_exp.
    """
    _check_time_and_c_exp(t, c_exp)
    with np.errstate(all="ignore"):
        return _out(np.exp(_log_envelope(params.alpha, params.d, params.p, c_exp, t, x, y)))


def _log_envelope(a: float, d: int, p: float, c_exp: float, t: float | np.ndarray,
                  x: HalfSpacePoint, y: HalfSpacePoint) -> float | np.ndarray:
    """Logarithm of heat_envelope's shape from plain parameters, unchecked;
    t^{1/a} leaves the double range at a = 0.01 already for t = 1e4 or 1e-4."""
    with np.errstate(all="ignore"):
        lt = np.log(t)
        lta = lt / a
        lv = p * (np.minimum(0.0, np.log(x.xd) - lta) + np.minimum(0.0, np.log(y.xd) - lta))
        r = dist(x, y)
        if a == 2.0:
            return _out(lv - 0.5 * d * lt - c_exp * r * r / t)
        lr = np.log(r)
        # t^{-d/a} (t^{1/a}/r)^{d+a} = t r^{-d-a} where t^{1/a} < r; never at r = 0
        return _out(lv + np.where(lta < lr, lt - (d + a) * lr, -d * lta))


def heat_exact_halfline(lam: float, t, r, s):
    """Exact half-line kernel of the second-order Hardy operator.

    (2t)^{-1} (rs)^{1/2} exp(-(r-s)^2/4t) * [e^{-z} I_mu(z)] with z = rs/2t
    and mu = sqrt(lam + 1/4); overflow-safe for all argument sizes.  t, r and
    s broadcast as arrays, and floats give a float.  As in float arithmetic,
    a value past the double range is inf or NaN, never an error or a warning.
    """
    require_lambda(2.0, lam)
    # floats stay floats: float calls skip the cost of converting to arrays
    if np.count_nonzero(np.logical_not((t > 0.0) & (r > 0.0) & (s > 0.0))):
        raise DomainError("t, r, s must be positive")
    mu = math.sqrt(max(lam + 0.25, 0.0))
    with np.errstate(all="ignore"):
        z = r * s / (2.0 * t)
        scaled = ive(mu, z)
        big = z > max(1e8, 1e6 * mu * mu)
        if np.count_nonzero(big):
            # ive is NaN from z ~ 1.08e9; three terms of DLMF 10.40.1 leave a
            # relative error below 1e-19 here
            m, u = 4.0 * mu * mu, 0.125 / z
            scaled = np.where(big, (1.0 - (m - 1.0) * u * (1.0 - 0.5 * (m - 9.0) * u))
                              / np.sqrt(2.0 * math.pi * z), scaled)
        out = 0.5 / t * np.sqrt(r * s) * np.exp(-((r - s) * (r - s)) / (4.0 * t)) * scaled
    return float(out) if out.ndim == 0 else out


def heat_images_halfline(t: float, r: float, s: float) -> float:
    """lambda = 0 reduction: difference of on- and off-image Gaussians.

    Written as exp(-(r-s)^2/4t) * (1 - exp(-rs/t)) / sqrt(4 pi t) to stay
    fully accurate when rs >> t.
    """
    if not (t > 0.0 and r > 0.0 and s > 0.0):
        raise DomainError("t, r, s must be positive")
    return -math.expm1(-r * s / t) * math.exp(-((r - s) * (r - s)) / (4.0 * t)) \
        / math.sqrt(4.0 * math.pi * t)


def heat_exact_halfspace(lam: float, t: float | np.ndarray, x: HalfSpacePoint,
                         y: HalfSpacePoint) -> float | np.ndarray:
    """Separated form: free Gaussian transverse factor times the half-line kernel."""
    if len(x.xprime) != len(y.xprime):
        raise DomainError("points live in different dimensions")
    k = heat_exact_halfline(lam, t, x.xd, y.xd)
    # one exponential of summed logarithms, so that no factor leaves the double range
    with np.errstate(all="ignore"):
        gap2 = sum(np.square(np.subtract(a, b)) for a, b in zip(x.xprime, y.xprime))
        log_trans = -0.5 * len(x.xprime) * np.log(4.0 * math.pi * t) - gap2 / (4.0 * t)
        return _out(np.exp(log_trans) * k)


def riesz_s_max(alpha: float, d: int, p: float) -> float:
    return min(2.0 * d / alpha, 2.0 * (d + 2.0 * p) / alpha)


def riesz_envelope(params: CouplingParams, s: float | np.ndarray, x: HalfSpacePoint,
                   y: HalfSpacePoint) -> float | np.ndarray:
    """Envelope shape for the kernel of the inverse power L^{-s/2}.

    Near regime (|x-y| <= x_d v y_d): |x-y|^{as/2-d} (1 ^ (x_d^y_d)/|x-y|)^p.
    Far regime: the product boundary form with the fractional correction
    bracket (constant / logarithmic / power growth depending on how p
    compares with (a/2)(1+s/2)); plain product form for alpha = 2.
    """
    a, d, p = params.alpha, params.d, params.p
    s_max = riesz_s_max(a, d, p)
    _require((0.0 < s) & (s < s_max), s, f"s must lie in (0, {s_max})")
    with np.errstate(all="ignore"):
        r = dist(x, y)
        m = np.maximum(x.xd, y.xd)
        lr = np.log(r)
        lv = (0.5 * a * s - d) * lr
        near = lv + p * np.minimum(0.0, np.log(np.minimum(x.xd, y.xd)) - lr)
        far = lv + p * (np.log(x.xd) + np.log(y.xd) - 2.0 * lr)
        if a == 2.0:
            far = np.exp(far)
        else:
            lm = lr - np.log(m)
            thr = 0.5 * a * (1.0 + 0.5 * s)
            far = np.where(np.abs(p - thr) <= 1e-12, np.exp(far) * lm,
                           np.exp(np.where(p < thr, far, far + 2.0 * (p - thr) * lm)))
        # the net power of r is negative in the s-window, so r = inf gives 0
        return _out(np.where(r == 0.0, math.inf, np.where(
            r == math.inf, 0.0, np.where(r <= m, np.exp(near), far))))


def _check_master_args(alpha: float, d: int, p: float, s: float, T: float, S: float) -> None:
    """The domain shared by the master time integral and its regime estimate."""
    if not (T > 0.0 and S > 0.0):
        raise DomainError("T, S must be positive")
    if not (0.0 < s < riesz_s_max(alpha, d, p)):
        raise DomainError(f"s outside the convergence window (0, {riesz_s_max(alpha, d, p)})")
    if abs(T ** (-1.0 / alpha) - S ** (-1.0 / alpha)) > 1.0 + 1e-9:
        raise DomainError("pair (T, S) violates |T^(-1/a) - S^(-1/a)| <= 1")


def master_time_integral(alpha: float, d: int, p: float, s: float,
                         T: float, S: float, c_exp: float = 1.0) -> float:
    """Rescaled time integral behind the Riesz kernel bounds.

    integral over tau of tau^{-2-s/2} * B(tau) * (1 ^ (tau/T)^{1/a})^p
    * (1 ^ (tau/S)^{1/a})^p, with B the fractional plateau 1 ^ tau^{d/a+1}
    for alpha < 2 and tau^{d/2+1} e^{-c tau} for alpha = 2, summed in closed
    form over the pieces between the regime boundaries {1, T, S}.
    """
    _check_master_args(alpha, d, p, s, T, S)

    # On each interval between consecutive points of {0, 1, T, S, inf} every
    # min() keeps one branch, so the integrand is c tau^(e-1) there, times
    # e^(-c_exp tau) at alpha = 2: integrate each piece exactly.
    pts = sorted({0.0, 1.0, T, S, math.inf})
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        below = [v for v in (T, S) if hi <= v]
        e = -1.0 - 0.5 * s + len(below) * p / alpha
        log_c = -p / alpha * sum(math.log(v) for v in below)
        if alpha == 2.0 or hi <= 1.0:
            e += d / alpha + 1.0
        if alpha == 2.0:
            # the window s < d at alpha = 2 makes every e positive; the smaller
            # incomplete Gamma tail keeps the digits of a piece's mass
            a, b = c_exp * lo, c_exp * hi
            mass = (gammainc(e, b) - gammainc(e, a) if b < e
                    else gammaincc(e, a) - gammaincc(e, b))
            total += math.exp(log_c + gammaln(e) - e * math.log(c_exp)) * float(mass)
        elif lo == 0.0:
            total += math.exp(log_c + e * math.log(hi)) / e
        else:
            x = math.log(hi / lo)
            total += math.exp(log_c + e * math.log(lo)) * (math.expm1(e * x) / e if e else x)
    return total


def master_regime_estimate(alpha: float, d: int, p: float, s: float,
                           T: float, S: float) -> float:
    """Claimed comparable value for the master time integral, by regime."""
    _check_master_args(alpha, d, p, s, T, S)
    lo, hi = min(T, S), max(T, S)
    if lo <= 1.0:
        return min(1.0, T ** (-1.0 / alpha), S ** (-1.0 / alpha)) ** p
    val = (T * S) ** (-p / alpha)
    if alpha == 2.0:
        return val
    thr = 0.5 * alpha * (1.0 + 0.5 * s)
    if abs(p - thr) <= 1e-12:
        return val * math.log(lo)
    if p > thr:
        return val * lo ** (2.0 * p / alpha - 1.0 - 0.5 * s)
    return val


def diff_envelope_parts(params: CouplingParams, t: float | np.ndarray, x: HalfSpacePoint,
                        y: HalfSpacePoint, c_exp: float = 0.25) -> tuple:
    """The two difference-kernel majorant pieces (boundary part, bulk part).

    The first is the heat envelope's shape at exponent q = min(p, (a-1)_+)
    and lives where either point is within t^{1/a} of the boundary or the
    points are far apart; the second carries the t/(x_d v y_d)^a damping on
    the complementary near-diagonal region.
    """
    _check_time_and_c_exp(t, c_exp)
    alpha, d = params.alpha, params.d
    with np.errstate(all="ignore"):
        # the region tests use t^{1/a} itself (inf past the double range) to split ties
        ta = np.power(t, 1.0 / alpha)
        r = dist(x, y)
        m = np.maximum(x.xd, y.xd)
        half_n = 0.5 * np.minimum(x.xd, y.xd)
        J = np.where((m <= ta) | (r >= half_n),
                     np.exp(_log_envelope(alpha, d, params.q, c_exp, t, x, y)), 0.0)
        M = np.where((m >= ta) & (r <= half_n),
                     np.exp(np.log(t) - alpha * np.log(m)
                            + _log_envelope(alpha, d, 0.0, c_exp, t, x, y)), 0.0)
    return _out(J), _out(M)


def diff_envelope(params: CouplingParams, t: float | np.ndarray, x: HalfSpacePoint,
                  y: HalfSpacePoint, c_exp: float = 0.25) -> float | np.ndarray:
    return _out(np.add(*diff_envelope_parts(params, t, x, y, c_exp)))


def riesz_exact_halfline(lam: float, s: float, r: float, rho: float) -> float:
    """Riesz kernel of the half-line second-order operator in closed form.

    (1/Gamma(s/2)) * integral of t^{s/2-1} times the exact heat kernel, a
    Laplace transform of I_mu (DLMF 10.43, 15.8); with M = r v rho, q = (r ^ rho)/M:
    2^{1-s} M^{s-1} q^{mu+1/2} Gamma(mu+1-s/2) / (Gamma(s/2) Gamma(mu+1))
    * 2F1(mu+1-s/2, 1-s/2; mu+1; q^2), for s in (0, min(1, 1 + 2p)).
    """
    require_lambda(2.0, lam)
    mu = math.sqrt(max(lam + 0.25, 0.0))
    p = mu + 0.5
    if not (0.0 < s < min(1.0, 1.0 + 2.0 * p)):
        raise DomainError(f"s must lie in (0, {min(1.0, 1.0 + 2.0 * p)}), got {s!r}")
    if not (0.0 < r < math.inf and 0.0 < rho < math.inf):
        raise DomainError(f"r, rho must be positive and finite, got {r!r}, {rho!r}")
    if r == rho:
        return math.inf  # kernel is diagonally singular for s < 2d/alpha
    # the argument q^2 keeps near-diagonal digits that (2 r rho/(r^2+rho^2))^2 loses
    m = max(r, rho)
    q = min(r, rho) / m
    a = mu + 1.0 - 0.5 * s
    log_pre = ((1.0 - s) * math.log(2.0) + (s - 1.0) * math.log(m) + p * math.log(q)
               + gammaln(a) - gammaln(0.5 * s) - gammaln(mu + 1.0))
    return math.exp(log_pre) * float(hyp2f1(a, 1.0 - 0.5 * s, mu + 1.0, q * q))
