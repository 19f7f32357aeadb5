"""Heat and Riesz kernels on the half-space: exact forms and envelopes.

The second-order operator has explicit half-line heat (Bessel) and Riesz
(hypergeometric) kernels, extended to the half-space by separation of
variables; everything else is handled through two-sided envelope formulas
whose implied constants are deliberately NOT baked in (all comparisons
downstream fit and report constants instead).  The layer evaluates formulas
and integrates nothing.  The exact heat kernel is evaluated in exponentially
scaled form so that large rs/t never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# unused, but bench/tracer.py wraps this module's ``quad`` binding by name
from scipy.integrate import quad  # noqa: F401
from scipy.special import gammainc, gammaincc, gammaln, hyp2f1, ive

from hardyops.coupling import CouplingParams, _check_d
from hardyops.specfun import DomainError


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point (x', x_d) with x_d > 0; x' empty in dimension one."""

    xd: float
    xprime: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.xd > 0.0:
            raise DomainError(f"xd must be positive, got {self.xd!r}")


def pt(xd: float, *xprime: float) -> HalfSpacePoint:
    return HalfSpacePoint(xd=float(xd), xprime=tuple(float(c) for c in xprime))


def dist(x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    if len(x.xprime) != len(y.xprime):
        raise DomainError("points live in different dimensions")
    gap2 = sum((a - b) ** 2 for a, b in zip(x.xprime, y.xprime))
    return math.sqrt(gap2 + (x.xd - y.xd) ** 2)


@dataclass(frozen=True)
class KernelEnvelope:
    """Two-sided heat-kernel comparison shape with free Gaussian constant."""

    alpha: float
    d: int
    p: float
    c_exp: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0 and self.d >= 1
                and 0.0 < self.c_exp < math.inf):
            raise DomainError(f"invalid envelope parameters: alpha={self.alpha!r}, "
                              f"d={self.d!r}, c_exp={self.c_exp!r}")


def heat_envelope(env: KernelEnvelope, t: float, x: HalfSpacePoint,
                  y: HalfSpacePoint) -> float:
    """Boundary-decay factors times the free bulk kernel shape.

    alpha < 2: (1 ^ x_d/t^{1/a})^p (1 ^ y_d/t^{1/a})^p t^{-d/a}
               (1 ^ t^{1/a}/|x-y|)^{d+a}
    alpha = 2: same boundary factors, Gaussian bulk exp(-c|x-y|^2/t) t^{-d/2}.
    """
    if not t > 0.0:
        raise DomainError("t must be positive")
    return _envelope(env.alpha, env.d, env.p, env.c_exp, t, x, y)


def _envelope(a: float, d: int, p: float, c_exp: float, t: float,
              x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """heat_envelope's shape from plain parameters, unchecked."""
    ta = t ** (1.0 / a)
    bnd = min(1.0, x.xd / ta) ** p * min(1.0, y.xd / ta) ** p
    r = dist(x, y)
    if a == 2.0:
        bulk = t ** (-0.5 * d) * math.exp(-c_exp * r * r / t)
    else:
        off = 1.0 if r == 0.0 else min(1.0, ta / r) ** (d + a)
        bulk = t ** (-d / a) * off
    return bnd * bulk


def heat_exact_halfline(lam: float, t: float, r: float, s: float) -> float:
    """Exact half-line kernel of the second-order Hardy operator.

    (2t)^{-1} (rs)^{1/2} exp(-(r-s)^2/4t) * [e^{-z} I_mu(z)] with z = rs/2t
    and mu = sqrt(lam + 1/4); overflow-safe for all argument sizes.
    """
    if not lam >= -0.25 - 1e-12:
        raise DomainError(f"lambda must be >= -1/4, got {lam!r}")
    if not (t > 0.0 and r > 0.0 and s > 0.0):
        raise DomainError("t, r, s must be positive")
    mu = math.sqrt(max(lam + 0.25, 0.0))
    z = r * s / (2.0 * t)
    gauss = math.exp(-((r - s) ** 2) / (4.0 * t))
    if z > max(1e8, 1e6 * mu * mu):
        # ive is NaN from z ~ 1.08e9; three terms of DLMF 10.40.1 leave a
        # relative error below 1e-19 here
        m, u = 4.0 * mu * mu, 0.125 / z
        scaled = (1.0 - (m - 1.0) * u * (1.0 - 0.5 * (m - 9.0) * u)) \
            / math.sqrt(2.0 * math.pi * z)
    else:
        scaled = float(ive(mu, z))
    return 0.5 / t * math.sqrt(r * s) * gauss * scaled


def heat_images_halfline(t: float, r: float, s: float) -> float:
    """lambda = 0 reduction: difference of on- and off-image Gaussians.

    Written as exp(-(r-s)^2/4t) * (1 - exp(-rs/t)) / sqrt(4 pi t) to stay
    fully accurate when rs >> t.
    """
    if not (t > 0.0 and r > 0.0 and s > 0.0):
        raise DomainError("t, r, s must be positive")
    return -math.expm1(-r * s / t) * math.exp(-((r - s) ** 2) / (4.0 * t)) \
        / math.sqrt(4.0 * math.pi * t)


def heat_exact_halfspace(d: int, lam: float, t: float, x: HalfSpacePoint,
                         y: HalfSpacePoint) -> float:
    """Separated form: free Gaussian transverse factor times the half-line kernel."""
    if d < 1 or len(x.xprime) != d - 1 or len(y.xprime) != d - 1:
        raise DomainError("point dimension does not match d")
    gap2 = sum((a - b) ** 2 for a, b in zip(x.xprime, y.xprime))
    trans = (4.0 * math.pi * t) ** (-0.5 * (d - 1)) * math.exp(-gap2 / (4.0 * t))
    return trans * heat_exact_halfline(lam, t, x.xd, y.xd)


def riesz_s_max(alpha: float, d: int, p: float) -> float:
    return min(2.0 * d / alpha, 2.0 * (d + 2.0 * p) / alpha)


def riesz_envelope(params: CouplingParams, s: float, x: HalfSpacePoint,
                   y: HalfSpacePoint) -> float:
    """Envelope shape for the kernel of the inverse power L^{-s/2}.

    Near regime (|x-y| <= x_d v y_d): |x-y|^{as/2-d} (1 ^ (x_d^y_d)/|x-y|)^p.
    Far regime: the product boundary form with the fractional correction
    bracket (constant / logarithmic / power growth depending on how p
    compares with (a/2)(1+s/2)); plain product form for alpha = 2.
    """
    a, d, p = params.alpha, params.d, params.p
    if not (0.0 < s < riesz_s_max(a, d, p)):
        raise DomainError(f"s must lie in (0, {riesz_s_max(a, d, p)}), got {s!r}")
    r = dist(x, y)
    if r == 0.0:
        return math.inf
    m = max(x.xd, y.xd)
    n = min(x.xd, y.xd)
    base = r ** (0.5 * a * s - d)
    if r <= m:
        return base * min(1.0, n / r) ** p
    base *= (x.xd * y.xd / (r * r)) ** p
    if a == 2.0:
        return base
    thr = 0.5 * a * (1.0 + 0.5 * s)
    if abs(p - thr) <= 1e-12:
        return base * math.log(r / m)
    if p < thr:
        return base
    return base * (r / m) ** (2.0 * p - a * (1.0 + 0.5 * s))


def master_time_integral(alpha: float, d: int, p: float, s: float,
                         T: float, S: float, c_exp: float = 1.0) -> float:
    """Rescaled time integral behind the Riesz kernel bounds.

    integral over tau of tau^{-2-s/2} * B(tau) * (1 ^ (tau/T)^{1/a})^p
    * (1 ^ (tau/S)^{1/a})^p, with B the fractional plateau 1 ^ tau^{d/a+1}
    for alpha < 2 and tau^{d/2+1} e^{-c tau} for alpha = 2, summed in closed
    form over the pieces between the regime boundaries {1, T, S}.
    """
    if not (T > 0.0 and S > 0.0):
        raise DomainError("T, S must be positive")
    if not (0.0 < s < riesz_s_max(alpha, d, p)):
        raise DomainError(f"s outside the convergence window (0, {riesz_s_max(alpha, d, p)})")
    if abs(T ** (-1.0 / alpha) - S ** (-1.0 / alpha)) > 1.0 + 1e-9:
        raise DomainError("pair (T, S) violates |T^(-1/a) - S^(-1/a)| <= 1")

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


def diff_envelope_parts(alpha: float, d: int, p: float, t: float,
                        x: HalfSpacePoint, y: HalfSpacePoint,
                        c_exp: float = 0.25) -> tuple[float, float]:
    """The two difference-kernel majorant pieces (boundary part, bulk part).

    The first is the heat envelope's shape at exponent q = min(p, (a-1)_+)
    and lives where either point is within t^{1/a} of the boundary or the
    points are far apart; the second carries the t/(x_d v y_d)^a damping on
    the complementary near-diagonal region.
    """
    if not t > 0.0:
        raise DomainError("t must be positive")
    _check_d(d)
    if not 0.0 < c_exp < math.inf:
        raise DomainError(f"c_exp must be positive and finite, got {c_exp!r}")
    q = min(p, max(alpha - 1.0, 0.0))
    ta = t ** (1.0 / alpha)
    r = dist(x, y)
    m = max(x.xd, y.xd)
    n = min(x.xd, y.xd)
    J = 0.0
    if m <= ta or r >= 0.5 * n:
        J = _envelope(alpha, d, q, c_exp, t, x, y)
    M = 0.0
    if m >= ta and r <= 0.5 * n:
        M = t / m ** alpha * _envelope(alpha, d, 0.0, c_exp, t, x, y)
    return J, M


def diff_envelope(alpha: float, d: int, p: float, t: float, x: HalfSpacePoint,
                  y: HalfSpacePoint, c_exp: float = 0.25) -> float:
    J, M = diff_envelope_parts(alpha, d, p, t, x, y, c_exp)
    return J + M


def riesz_exact_halfline(lam: float, s: float, r: float, rho: float) -> float:
    """Riesz kernel of the half-line second-order operator in closed form.

    (1/Gamma(s/2)) * integral of t^{s/2-1} times the exact heat kernel, a
    Laplace transform of I_mu (DLMF 10.43, 15.8); with M = r v rho, q = (r ^ rho)/M:
    2^{1-s} M^{s-1} q^{mu+1/2} Gamma(mu+1-s/2) / (Gamma(s/2) Gamma(mu+1))
    * 2F1(mu+1-s/2, 1-s/2; mu+1; q^2), for s in (0, min(1, 1 + 2p)).
    """
    mu = math.sqrt(max(lam + 0.25, 0.0))
    p = mu + 0.5
    if not (0.0 < s < min(1.0, 1.0 + 2.0 * p)):
        raise DomainError(f"s must lie in (0, {min(1.0, 1.0 + 2.0 * p)}), got {s!r}")
    if r == rho:
        return math.inf  # kernel is diagonally singular for s < 2d/alpha
    # the argument q^2 keeps near-diagonal digits that (2 r rho/(r^2+rho^2))^2 loses
    m = max(r, rho)
    q = min(r, rho) / m
    a = mu + 1.0 - 0.5 * s
    log_pre = ((1.0 - s) * math.log(2.0) + (s - 1.0) * math.log(m) + p * math.log(q)
               + gammaln(a) - gammaln(0.5 * s) - gammaln(mu + 1.0))
    return math.exp(log_pre) * float(hyp2f1(a, 1.0 - 0.5 * s, mu + 1.0, q * q))
