"""Mutation checks of the default `hardyops verify` campaign.

A verdict that no plausible wrong program can flip proves nothing.  Each
mutant here patches one function of the discrete operator in-process and
reruns the campaign entries that rest on it; some verdict must then fail.
"""

from dataclasses import replace

import pytest

from hardyops import discrete
from hardyops import verify as V

# the default-campaign entries that run on the discrete operator
DISCRETE_CHECKS = {"equivalence", "generalized_hardy", "reversed_hardy",
                   "commutator_scaling"}


def _discrete_reports() -> list[V.VerificationReport]:
    V._form.cache_clear()
    V._decompose.cache_clear()
    reports = [V.CHECKS[name](**kwargs) for name, kwargs in V.default_campaign()
               if name in DISCRETE_CHECKS]
    V._form.cache_clear()
    V._decompose.cache_clear()
    return reports


def _hardy_weight_zero(monkeypatch):
    assemble = V.assemble_form

    def mutant(*args):
        op = assemble(*args)
        return replace(op, hardy=0 * op.hardy)
    monkeypatch.setattr(V, "assemble_form", mutant)


def _normalization_a_times_1_5(monkeypatch):
    normalization_A = discrete.normalization_A
    monkeypatch.setattr(discrete, "normalization_A",
                        lambda d, alpha: 1.5 * normalization_A(d, alpha))


@pytest.fixture(scope="module")
def unmutated() -> list[V.VerificationReport]:
    return _discrete_reports()


@pytest.mark.xfail(raises=AssertionError,
                   reason="no default-campaign verdict sees either mutant yet "
                          "(ROADMAP items 13 and 14)")
@pytest.mark.parametrize("mutate", [_hardy_weight_zero, _normalization_a_times_1_5],
                         ids=["hardy-weight-x0", "normalization-A-x1.5"])
def test_mutant_flips_a_discrete_verdict(monkeypatch, unmutated, mutate):
    assert len(unmutated) == 5 and all(r.verdict for r in unmutated)
    mutate(monkeypatch)
    reports = _discrete_reports()
    if [r.measured for r in reports] == [r.measured for r in unmutated]:
        pytest.fail("the mutant moves no measured value, so it does not reach the checks")
    assert not all(r.verdict for r in reports), \
        f"every verdict passes: {[(r.check_name, r.measured) for r in reports]}"
