import pytest


@pytest.mark.parametrize("expected", [1e-13, -3e-11, [1.0, 2e-12], {"a": 5e-20}])
def test_small_expected_value_needs_abs(expected):
    with pytest.raises(pytest.fail.Exception, match="without abs"):
        pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("expected", [0.0, 1e-10, [0.0, 1.0], "text"])
def test_other_expected_values_pass_through(expected):
    assert pytest.approx(expected) == expected


def test_explicit_abs_is_accepted():
    assert 1.3e-13 != pytest.approx(1e-13, rel=1e-6, abs=0.0)
    assert 1e-13 == pytest.approx(1e-13, rel=1e-6, abs=0.0)
