"""Suite-wide guard on pytest.approx.

pytest.approx adds an absolute tolerance of 1e-12 unless abs is given, so an
expected value below about 1e-10 is compared to within 1% or worse whatever
rel says: a lemma value 49% low once passed that way.  Every approx call with
a nonzero expected value below SMALL in magnitude must therefore state abs
(abs=0.0 for a purely relative comparison); the call fails the test otherwise.
"""

import numpy as np
import pytest

SMALL = 1e-10
_approx = pytest.approx


def _magnitudes(expected) -> np.ndarray:
    """|v| for every number in expected: a number, a sequence, an array or
    the values of a mapping; an empty array where none is numeric."""
    if isinstance(expected, dict):
        expected = list(expected.values())
    try:
        return np.abs(np.asarray(expected, dtype=complex)).ravel()
    except (TypeError, ValueError):
        return np.empty(0)


def _guarded_approx(expected, rel=None, abs=None, nan_ok=False):
    if abs is None:
        mags = _magnitudes(expected)
        tiny = mags[(mags > 0.0) & (mags < SMALL)]
        if tiny.size:
            pytest.fail(f"pytest.approx of {float(tiny[0])!r} without abs: its default "
                        f"abs=1e-12 hides relative errors there; state abs explicitly")
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _guarded_approx
