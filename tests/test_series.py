from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowalg.errors import InputError
from flowalg.series import QSeries, psi_series

F = Fraction


def test_psi_alpha_zero():
    s = psi_series(0, 1, 4)
    assert s.terms == ((F(0), 1), (F(1), 2), (F(4), 2))


def test_psi_half():
    s = psi_series(F(1, 2), 1, 3)
    assert s.terms == ((F(1, 4), 2), (F(9, 4), 2))


def test_psi_integer_alpha_shifts_away():
    for w in (1, 2, 5):
        assert psi_series(3, w, 20) == psi_series(0, w, 20)
        assert psi_series(-2, w, 20) == psi_series(0, w, 20)


@settings(max_examples=60, deadline=None)
@given(num=st.integers(min_value=-40, max_value=40),
       den=st.integers(min_value=1, max_value=12),
       w=st.integers(min_value=1, max_value=30),
       bound=st.integers(min_value=0, max_value=30))
def test_psi_invariant_under_integer_shift(num, den, w, bound):
    alpha = F(num, den)
    assert psi_series(alpha + 1, w, bound) == psi_series(alpha, w, bound)


def test_psi_rejects_bad_weight():
    with pytest.raises(InputError):
        psi_series(0, 0, 4)


@pytest.mark.parametrize("alpha, w, message", [
    # Fraction(0.1) would give exponents over 2^110
    (0.1, 1, "translation 0.1 is not an int or a Fraction"),
    (0, 1.5, "weight 1.5 is not a positive int"),
])
def test_psi_refuses_inexact_input(alpha, w, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        psi_series(alpha, w, 4)


def test_qseries_drops_zero_coefficients():
    s = QSeries.from_dict({F(1): 5, F(2): 0}, 9)
    assert s.terms == ((F(1), 5),)


def test_qseries_is_a_value():
    s = QSeries.from_dict({F(2): 1, F(1, 2): 3}, 9)
    assert s == QSeries(((F(1, 2), 3), (F(2), 1)), F(9))
    assert s != QSeries.from_dict({F(2): 1, F(1, 2): 3}, 8)
    assert hash(s) == hash(QSeries.from_dict({F(1, 2): 3, F(2): 1}, 9))
    assert repr(s) == ("QSeries(terms=((Fraction(1, 2), 3), "
                       "(Fraction(2, 1), 1)), bound=Fraction(9, 1))")
    with pytest.raises(AttributeError):
        s.bound = F(3)


def test_qseries_rejects_negative_exponent():
    with pytest.raises(InputError):
        QSeries.from_dict({F(-1): 1}, 4)


def test_first_difference():
    a = QSeries.from_dict({F(0): 1, F(2): 4, F(3): 1}, 10)
    b = QSeries.from_dict({F(0): 1, F(2): 4, F(3): 2}, 10)
    assert a.first_difference(b) == 3
    assert a.first_difference(a) is None
