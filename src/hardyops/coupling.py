"""Coupling-constant layer for half-space Hardy operators.

Parameterizes the operator family by the boundary-decay exponent p: the
coupling function C(p), its inverse p(lambda), the sharp Hardy constant
lambda_star, the nonlocal-form normalization A(d, -alpha), the comparison
constant lambda_zero, and the integral gamma(alpha, p) by quadrature; its closed
form is C(p)/A(1, -alpha), that is coupling_C(alpha, p) / normalization_A(1, alpha).

Conventions: alpha in [ALPHA_MIN, 2] is the operator order, lambda the
coupling.  The principal branch of C is the increasing one on [(alpha-1)/2, M)
with M = alpha for alpha < 2 and M = +inf for alpha = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import poch

from hardyops.specfun import DomainError, _sinpi

# Coupling values computed by callers incur rounding near lambda_star; accept
# them within this absolute slack instead of rejecting.
LAMBDA_SLACK = 1e-12
# Smallest accepted order: below about 4e-3 exponent_p's residual |C(p) - lam|
# exceeds 1e-10 max(1, |lam|) (README, "Numerical notes").
ALPHA_MIN = 0.01


def branch_upper(alpha: float) -> float:
    """Upper end M of the principal exponent branch."""
    return alpha if alpha < 2.0 else math.inf


def _check_alpha(alpha: float, include_two: bool) -> None:
    hi_ok = alpha <= 2.0 if include_two else alpha < 2.0
    if not (ALPHA_MIN <= alpha and hi_ok):
        rng = f"[{ALPHA_MIN}, 2]" if include_two else f"[{ALPHA_MIN}, 2)"
        raise DomainError(f"alpha must lie in {rng}, got {alpha!r}")


def _check_d(d: int) -> None:
    if d < 1 or d != int(d):
        raise DomainError(f"d must be a positive integer, got {d!r}")


def normalization_A(d: int, alpha: float) -> float:
    """Normalization constant A(d, -alpha) of the nonlocal quadratic form."""
    _check_d(d)
    _check_alpha(alpha, include_two=False)
    log_val = (
        math.log(alpha)
        - (1.0 - alpha) * math.log(2.0)
        - 0.5 * d * math.log(math.pi)
        + math.lgamma(0.5 * (d + alpha))
        - math.lgamma(1.0 - 0.5 * alpha)
    )
    return math.exp(log_val)


def lambda_star(alpha: float) -> float:
    """Sharp Hardy constant; depends on alpha only.  Exactly -1/4 at alpha=2."""
    _check_alpha(alpha, include_two=True)
    if alpha == 2.0:
        return -0.25
    g = math.gamma(0.5 * (1.0 + alpha))
    return -(g / math.pi) * (g - 2.0 ** (alpha - 1.0) * math.sqrt(math.pi)
                             / math.gamma(1.0 - 0.5 * alpha))


def require_lambda(alpha: float, lam: float) -> float:
    """lambda_star(alpha), once lam is checked finite and >= lambda_star - LAMBDA_SLACK."""
    lstar = lambda_star(alpha)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    if lam < lstar - LAMBDA_SLACK:
        raise DomainError(f"lambda={lam!r} below the sharp constant {lstar!r}")
    return lstar


def coupling_C(alpha: float, p: float) -> float:
    """Coupling function C(p) on the branch domain (-1, M).

    The product Gamma(alpha-p) * sin(pi(2p-alpha)/2) is rewritten through the
    reflection formula whenever alpha - p < 1/2; that removes the pole/zero
    pairs exactly (in particular the alpha = 2 line, where C(p) = p(p-1)).
    There Gamma(1+p)/Gamma(1-alpha+p) is the Pochhammer symbol, which a
    log-Gamma difference would lose to cancellation at large p.
    """
    _check_alpha(alpha, include_two=True)
    if not (-1.0 < p < branch_upper(alpha)):
        raise DomainError(f"p must lie in (-1, M) with M={branch_upper(alpha)}, got {p!r}")
    first = math.gamma(alpha) * _sinpi(0.5 * alpha)
    if alpha - p >= 0.5:
        second = math.exp(math.lgamma(1.0 + p) + math.lgamma(alpha - p)) \
            * _sinpi(p - 0.5 * alpha)
    else:
        s_num = _sinpi(p - 0.5 * alpha)
        s_den = _sinpi(alpha - p)
        if s_den == 0.0:
            # Only reachable for alpha = 2 at integer p: removable, ratio -> 1.
            ratio = 1.0
        else:
            ratio = s_num / s_den
        second = math.pi * poch(1.0 - alpha + p, alpha) * ratio
    return (first + second) / math.pi


def gamma_integral(alpha: float, p: float) -> float:
    """gamma(alpha, p) as a quadrature of its defining integral on (0, 1).

    Uses the substitution t = 1 - u; the integrand is O(u^{1-alpha}) at u = 0,
    which the adaptive rule integrates directly.  Absolute error <= 1e-9.
    """
    _check_alpha(alpha, include_two=False)
    if not (-1.0 < p < alpha):
        raise DomainError(f"p must lie in (-1, alpha), got {p!r}")
    b = alpha - p - 1.0

    def f_t(t: float) -> float:
        # original variable, singular only at t -> 0 (when p < 0 or b < 0)
        return (t ** p - 1.0) * (1.0 - t ** b) / (1.0 - t) ** (1.0 + alpha)

    def f_u(u: float) -> float:
        # t = 1 - u; the factors vanish like u at u -> 0, so evaluate them
        # through expm1 to keep the O(u^{1-alpha}) integrand noise-free
        lw = math.log1p(-u)
        return -math.expm1(p * lw) * math.expm1(b * lw) / u ** (1.0 + alpha)

    # full_output=1 accepts the extrapolated value when QAGS reports that the
    # requested tolerance sits below the attainable roundoff floor; achieved
    # accuracy (~1e-12, budget 1e-9) is pinned down by the oracle tests.
    lower = quad(f_t, 0.0, 0.5, limit=200, epsabs=1e-11, epsrel=1e-11, full_output=1)[0]
    upper = quad(f_u, 0.0, 0.5, limit=200, epsabs=1e-11, epsrel=1e-11, full_output=1)[0]
    return lower + upper


def exponent_p(alpha: float, lam: float) -> float:
    """Unique p in [(alpha-1)/2, M) with C(p) = lam, on the increasing branch.

    At alpha = 2, C(p) = p(p-1), so p = 1/2 + sqrt(lam + 1/4) in closed form.
    For alpha < 2 the root is bracketed between the branch start and a point
    below the pole at alpha where C >= lam, then found by Brent's method
    (scipy.optimize.brentq) to |dp| <= 1e-15 + 4 eps |p|.  C is flat at the
    branch start, so just above lambda_star p carries about the square root
    of the rounding in C.  Residual |C(p) - lam| <= 1e-10 max(1,|lam|) for
    lam <= 1e3.  Beyond that p nears the pole (alpha - p ~ 2e-8 at
    lam = 1e6), where the residual is within C's change over four ulps of p.
    """
    lstar = require_lambda(alpha, lam)
    p_lo = 0.5 * (alpha - 1.0)
    # C(p_lo) equals lambda_star only up to rounding; above both values the
    # residual at p_lo is negative, which the root bracket needs.
    if lam <= max(lstar, coupling_C(alpha, p_lo)):
        return p_lo
    if alpha == 2.0:
        return 0.5 + math.sqrt(lam + 0.25)
    # Geometric bracket growth until C exceeds lam.
    gap = min(1e-3, 0.05 * (alpha + 1.0))
    p_hi = alpha - gap
    while coupling_C(alpha, p_hi) < lam:
        gap /= 16.0
        p_hi = alpha - gap
        if not p_hi < alpha:
            raise DomainError(f"lambda={lam!r} is too large at alpha={alpha!r}: its "
                              f"p lies within rounding of the pole at p = alpha")
    return brentq(lambda p: coupling_C(alpha, p) - lam, p_lo, p_hi,
                  xtol=1e-15, rtol=4.0 * math.ulp(1.0))


def lambda_zero(alpha: float) -> float:
    """Comparison constant lambda_0 > 0 for alpha in (0, 2).

    Defined through the exterior integral of the nonlocal kernel over the
    reflected half-space.  The transverse directions integrate out, so it is
    independent of the dimension: A(1, -alpha)/alpha = sin(pi alpha/2) Gamma(alpha)/pi.
    """
    return normalization_A(1, alpha) / alpha


@dataclass(frozen=True)
class CouplingParams:
    """Validated parameter triple (d, alpha, lambda) with derived quantities."""

    d: int
    alpha: float
    lam: float
    p: float
    lambda_star: float
    lambda_zero: float | None

    @property
    def p0(self) -> float:  # exponent of the lambda = 0 comparison operator
        return max(self.alpha - 1.0, 0.0)

    @property
    def q(self) -> float:  # min(p, p0), the difference-kernel exponent
        return min(self.p, self.p0)

    @property
    def r(self) -> float:  # -min(q, 0) >= 0
        return max(0.0, -self.q)


def make_coupling(d: int, alpha: float, lam: float) -> CouplingParams:
    """Build CouplingParams from the raw triple, solving for p."""
    _check_d(d)
    p = exponent_p(alpha, lam)
    lz = lambda_zero(alpha) if alpha < 2.0 else None
    return CouplingParams(d=d, alpha=alpha, lam=lam, p=p,
                          lambda_star=lambda_star(alpha), lambda_zero=lz)
