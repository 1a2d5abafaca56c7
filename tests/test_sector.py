"""Sector validation, label ranges, and scalar constants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micz9 import coeffs, interbasis, wavefield
from micz9.errors import (
    EmptySector,
    IndexOutOfRange,
    LambdaOutOfRange,
    NegativeQuantumNumber,
    NonpositiveCharge,
    ParityMismatch,
)
from micz9.sector import (
    HalfInt,
    alpha_scale,
    energy,
    enumerate_sectors,
    lambda_index,
    lambda_range,
    m9_parabolic_eigenvalue,
    np_index,
    np_range,
    validate_sector,
)


def test_validate_examples():
    s = validate_sector(1, 0, 0, 0, 1)
    assert s.size == 2
    assert [l.fraction for l in lambda_range(s)] == [0, 1]
    s = validate_sector(0, 0, 0, 0, 1)
    assert s.size == 1 and [l.fraction for l in lambda_range(s)] == [0]
    with pytest.raises(ParityMismatch):
        validate_sector(0, 0, 1, 0, 1)


def test_validate_errors():
    with pytest.raises(NegativeQuantumNumber):
        validate_sector(-1, 0, 0, 0, 1)
    with pytest.raises(NonpositiveCharge):
        validate_sector(1, 0, 0, 0, 0)
    with pytest.raises(NonpositiveCharge):
        validate_sector(1, 0, 0, 0, Fraction(-1, 2))
    with pytest.raises(EmptySector):
        validate_sector(0, 0, 2, 2, 1)


def test_lambda_range_examples():
    assert [l.fraction for l in lambda_range(validate_sector(2, 0, 0, 2, 1))] == [1, 2]
    assert [l.fraction for l in lambda_range(validate_sector(0, 2, 1, 1, 1))] == [1]
    # odd monopole charge: half-odd-integer ladder
    assert [str(l) for l in lambda_range(validate_sector(1, 1, 0, 1, 1))] == ["1/2", "3/2"]


def test_np_range_examples():
    assert np_range(validate_sector(1, 0, 0, 0, 1)) == [0, 1]
    assert np_range(validate_sector(0, 0, 0, 0, 1)) == [0]
    assert np_range(validate_sector(3, 0, 1, 1, 1)) == [0, 1, 2]  # N = 3 - 1 + 1


def test_energy_examples():
    assert energy(validate_sector(0, 0, 0, 0, 1)) == Fraction(-1, 32)
    assert energy(validate_sector(1, 0, 0, 0, 1)) == Fraction(-1, 50)
    assert energy(validate_sector(0, 2, 0, 0, 2)) == Fraction(-2, 25)
    assert energy(validate_sector(2, 0, 0, 2, 1)) == Fraction(-1, 72)


def test_alpha_examples():
    assert alpha_scale(validate_sector(1, 0, 0, 0, 1)) == Fraction(2, 5)
    assert alpha_scale(validate_sector(0, 0, 0, 0, 1)) == Fraction(1, 2)


def test_m9_parabolic_examples():
    s = validate_sector(1, 0, 0, 0, 1)
    assert m9_parabolic_eigenvalue(s, 0).fraction == 1
    assert m9_parabolic_eigenvalue(s, 1).fraction == -1
    assert m9_parabolic_eigenvalue(validate_sector(2, 0, 0, 2, 1), 0).fraction == 0
    with pytest.raises(IndexOutOfRange):
        m9_parabolic_eigenvalue(s, 2)


def test_ranges_same_size():
    for s in enumerate_sectors(3, 3, 3):
        assert len(lambda_range(s)) == len(np_range(s)) == s.size


def test_trace_matches_m9_matrix():
    for s in enumerate_sectors(3, 3, 3):
        tr = sum(
            (coeffs.m9_diag(s, lam) for lam in lambda_range(s)), Fraction(0)
        )
        eig_sum = sum(
            (m9_parabolic_eigenvalue(s, k).fraction for k in np_range(s)), Fraction(0)
        )
        assert tr == eig_sum, s


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 20), Q=st.integers(0, 10), Z=st.fractions(
    min_value=Fraction(1, 5), max_value=Fraction(9), max_denominator=7))
def test_energy_monotone_in_n(n, Q, Z):
    L, J = Q % 2, 0
    e1 = energy(validate_sector(n, Q, L, J, Z))
    e2 = energy(validate_sector(n + 1, Q, L, J, Z))
    assert e1 < e2 < 0


def test_alpha_energy_identity():
    for s in enumerate_sectors(3, 3, 3, Z=Fraction(3, 2)):
        assert alpha_scale(s) ** 2 == -8 * energy(s)


def test_halfint():
    assert str(HalfInt(3)) == "3/2" and str(HalfInt(4)) == "2"
    assert HalfInt(2) < HalfInt(3)


def test_enumerate_sweep_bounds():
    sectors = list(enumerate_sectors(4, 4, 4))
    assert len(sectors) == len(set(sectors))
    for s in sectors:
        assert s.m.fraction <= 4 and s.Q <= 4 and s.L <= 4 and s.J <= 4
        assert 1 <= s.size <= 6


def test_lambda_index():
    s = validate_sector(2, 1, 1, 0, 1)  # lambda = 1/2 .. 5/2
    assert lambda_index(s, HalfInt(5)) == (Fraction(5, 2), 2)
    assert lambda_index(s, Fraction(1, 2)) == (Fraction(1, 2), 0)
    # below, above, off the ladder, not a number
    for bad in (Fraction(-1, 2), Fraction(7, 2), 1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(LambdaOutOfRange):
            lambda_index(s, bad)
    # the one check behind every lambda-indexed entry point, still an index error
    assert issubclass(LambdaOutOfRange, IndexOutOfRange)
    for call in (
        lambda: coeffs.m9_diag(s, 3),
        lambda: interbasis.w_coefficient(s, 3, 0),
        lambda: interbasis.w_coefficient(s, float("nan"), 0),
        lambda: interbasis.w_coefficient(s, float("inf"), 0),
    ):
        with pytest.raises(LambdaOutOfRange):
            call()


S1 = validate_sector(1, 0, 0, 0, 1)  # lambda = 0, 1; n_p = 0, 1


def test_np_index():
    assert np_index(S1, 1) == 1 and np_index(S1, Fraction(0)) == 0
    for bad in (-1, 2, 0.5, Fraction(1, 2), float("nan")):
        with pytest.raises(IndexOutOfRange):
            np_index(S1, bad)


@pytest.mark.parametrize(
    "fn, args",
    [
        (interbasis.w_coefficient, (1, 0.5)),
        (wavefield.psi_parabolic, (0.5, 1, 1)),
        (m9_parabolic_eigenvalue, (2,)),
    ],
    ids=["w_coefficient", "psi_parabolic", "m9_parabolic_eigenvalue"],
)
def test_bad_parabolic_or_lambda_label_is_an_index_error(fn, args):
    # the one check behind every n_p-indexed entry point: exit 2, never a wrong value
    with pytest.raises(IndexOutOfRange) as exc:
        fn(S1, *args)
    assert exc.value.exit_code == 2
