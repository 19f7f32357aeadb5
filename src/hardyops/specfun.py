"""The package's error type and the one special-function helper it keeps.

Gamma and log-Gamma come from ``math`` and the exponentially scaled Bessel
function e^{-z} I_mu(z) from ``scipy.special.ive``; what stays here is the
exception every layer raises for out-of-domain arguments and sin(pi x) with
exact zeros, which the coupling layer needs to cancel pole/zero pairs.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """The package's parameter error: an argument outside the domain of the
    operator family or of a function evaluated for it."""


def _sinpi(x: float) -> float:
    """sin(pi*x) reduced to |r| <= 1/2, fully accurate near every zero."""
    n = math.floor(x + 0.5)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (int(n) % 2) else s
