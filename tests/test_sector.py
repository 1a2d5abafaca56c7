"""Sector validation, label ranges, and scalar constants."""

from fractions import Fraction

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micz9 import cli, coeffs, interbasis
from micz9.errors import (
    EmptySector,
    IndexOutOfRange,
    LambdaOutOfRange,
    NegativeQuantumNumber,
    NonpositiveCharge,
    ParityMismatch,
    ValidationError,
)
from micz9.sector import (
    MAX_BLOCK,
    alpha_scale,
    energy,
    enumerate_sectors,
    lambda_index,
    lambda_range,
    np_index,
    validate_sector,
)


def test_validate_examples():
    s = validate_sector(1, 0, 0, 0, 1)
    assert s.size == 2
    assert lambda_range(s) == [0, 1]
    s = validate_sector(0, 0, 0, 0, 1)
    assert s.size == 1 and lambda_range(s) == [0]
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
    with pytest.raises(ValidationError, match="n must be an integer, got 1.0"):
        validate_sector(1.0, 0, 0, 0)
    # a charge that is not a finite rational is named, not a bare ValueError or OverflowError
    for Z in (float("nan"), float("inf"), "x"):
        with pytest.raises(ValidationError, match=f"Z = {Z!r}"):
            validate_sector(1, 0, 0, 0, Z)
    with pytest.raises(ValidationError, match="Z = nan"):
        list(enumerate_sectors(Z=float("nan")))


@pytest.mark.parametrize("Z", ["1_0", "1_000/3", "1.5_0", "1_0e-1_0", "_1"])
def test_a_charge_with_an_underscore_is_refused_on_every_python(Z, capsys):
    # Fraction reads "1_0" as 10 from Python 3.11 only; the 3.10 grammar refuses it
    with pytest.raises(ValidationError, match=rf"^cannot parse Z = {Z!r} as a rational$"):
        validate_sector(1, 0, 0, 0, Z)
    assert cli.main(["states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", Z]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"ValidationError: cannot parse Z = {Z!r} as a rational\n"


def test_a_block_above_max_block_is_refused(capsys):
    assert validate_sector(MAX_BLOCK - 1, 0, 0, 0).size == MAX_BLOCK == 1024
    with pytest.raises(ValidationError, match=r"^sector dimension N = 1025 is above MAX_BLOCK = 1024$"):
        validate_sector(MAX_BLOCK, 0, 0, 0)
    # N has more digits than str() of an int allows
    with pytest.raises(ValidationError, match=r"N = 1\.00000e\+5000 "):
        validate_sector(10**5000, 0, 0, 0)
    argv = ["states", "--n", "99999999999999999999", "--Q", "0", "--L", "0", "--J", "0"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ValidationError: sector dimension N = 1.00000e+20 is above MAX_BLOCK = 1024\n"


def test_lambda_range_examples():
    assert lambda_range(validate_sector(2, 0, 0, 2, 1)) == [1, 2]
    assert lambda_range(validate_sector(0, 2, 1, 1, 1)) == [1]
    # odd monopole charge: half-odd-integer ladder
    assert [str(l) for l in lambda_range(validate_sector(1, 1, 0, 1, 1))] == ["1/2", "3/2"]


def test_np_range_examples(capsys):
    # the parabolic labels 0 .. N-1 that states prints
    for nQLJ, want in (((1, 0, 0, 0), [0, 1]), ((0, 0, 0, 0), [0]), ((3, 0, 1, 1), [0, 1, 2])):
        flags = [x for name, v in zip("nQLJ", nQLJ) for x in (f"--{name}", str(v))]
        assert cli.main(["states", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["np_range"] == want


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
    assert list(coeffs.m9_twice_eigenvalues(s)) == [2, -2]  # mu_p = 1, -1
    assert coeffs.m9_twice_eigenvalues(validate_sector(2, 0, 0, 2, 1))[0] == 0


def test_ranges_same_size():
    for s in enumerate_sectors(3, 3, 3):
        assert len(lambda_range(s)) == len(coeffs.m9_twice_eigenvalues(s)) == s.size


def test_trace_matches_m9_matrix():
    for s in enumerate_sectors(3, 3, 3):
        tr = sum(coeffs.m9_tridiagonal(s)[0], Fraction(0))
        eig_sum = Fraction(sum(coeffs.m9_twice_eigenvalues(s)), 2)
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


def test_a_sectors_charge_takes_no_part_in_its_equality():
    # every exact layer depends on (n, Q, L, J) alone, so one cache entry serves every charge
    one, other = validate_sector(2, 1, 1, 0, 1), validate_sector(2, 1, 1, 0, Fraction(2, 5))
    assert one == other and hash(one) == hash(other) and other.Z == Fraction(2, 5)
    assert one != validate_sector(2, 1, 0, 1, 1)


def test_enumerate_sweep_bounds():
    sectors = list(enumerate_sectors(4, 4, 4))
    assert len(sectors) == len(set(sectors))
    for s in sectors:
        assert 2 * s.n + s.Q <= 8 and s.Q <= 4 and s.L <= 4 and s.J <= 4
        assert 1 <= s.size <= 6


def test_lambda_index():
    s = validate_sector(2, 1, 1, 0, 1)  # lambda = 1/2 .. 5/2
    assert lambda_index(s, 2.5) == (Fraction(5, 2), 2)
    assert lambda_index(s, Fraction(1, 2)) == (Fraction(1, 2), 0)
    # below, above, off the ladder, not a number
    for bad in (Fraction(-1, 2), Fraction(7, 2), 1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(LambdaOutOfRange):
            lambda_index(s, bad)
    # the one check behind every lambda-indexed entry point, still an index error
    assert issubclass(LambdaOutOfRange, IndexOutOfRange)
    for call in (
        lambda: coeffs.k_diag(s, 3, 0),
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
        (coeffs.k_offdiag, (2, 1)),
    ],
    ids=["w_coefficient", "k_offdiag"],
)
def test_bad_parabolic_or_lambda_label_is_an_index_error(fn, args):
    # the one check behind every n_p- or lambda-indexed entry point: exit 2, never a wrong value
    with pytest.raises(IndexOutOfRange) as exc:
        fn(S1, *args)
    assert exc.value.exit_code == 2
