"""Exact Q(i) arithmetic, the wire grammar and the lattice predicates."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from painstrata.exactnum import (
    ComplexRational,
    Lattice,
    ParameterParseError,
    format_cgauss,
    lattice_member,
    parse_cgauss,
)

CR = ComplexRational


fractions = st.fractions(min_value=-100, max_value=100, max_denominator=64)
cgauss = st.builds(CR, fractions, fractions)


class TestParse:
    @pytest.mark.parametrize("text,re_,im", [
        ("1/2", Fraction(1, 2), 0),
        ("-2i", 0, -2),
        ("3/2+1/3i", Fraction(3, 2), Fraction(1, 3)),
        ("3", 3, 0),
        ("-7/3", Fraction(-7, 3), 0),
        ("0", 0, 0),
        ("2-1i", 2, -1),
        ("-1/2+5i", Fraction(-1, 2), 5),
        ("+4", 4, 0),
    ])
    def test_literals(self, text, re_, im):
        assert parse_cgauss(text) == CR(Fraction(re_), Fraction(im))

    @pytest.mark.parametrize("text", [
        "", "bogus", "1/2/3", "1 + 2i", "i", "2-i", "1..5", "2+", "2+3",
    ])
    def test_malformed(self, text):
        with pytest.raises(ParameterParseError):
            parse_cgauss(text)

    def test_zero_denominator_names_token(self):
        with pytest.raises(ParameterParseError, match="1/0"):
            parse_cgauss("1/0")
        with pytest.raises(ParameterParseError, match="3/0"):
            parse_cgauss("2+3/0i")

    @pytest.mark.parametrize("text", [
        "\u0661",          # Arabic-Indic one
        "\uff13/2",        # fullwidth three
        "1/\u0662",
        "1+\u0663i",
    ])
    def test_ascii_digits_only(self, text):
        with pytest.raises(ParameterParseError, match="malformed"):
            parse_cgauss(text)

    @pytest.mark.parametrize("text", [
        "1" * 5000, "-1/" + "3" * 5000, "2+" + "9" * 5000 + "i",
    ], ids=["integer", "denominator", "imaginary"])
    def test_oversized_integer(self, text):
        with pytest.raises(ParameterParseError, match="5000 digits"):
            parse_cgauss(text)

    @pytest.mark.parametrize("text", ["3", "-2i", "3/2+1/3i", "0", "+4", "2-1i"])
    def test_parts_are_fractions(self, text):
        z = parse_cgauss(text)
        assert type(z.re) is Fraction and type(z.im) is Fraction

    @given(cgauss)
    def test_round_trip(self, z):
        assert parse_cgauss(format_cgauss(z)) == z

    def test_canonical_strings(self):
        assert format_cgauss(CR(Fraction(0), Fraction(-2))) == "-2i"
        assert format_cgauss(CR(Fraction(3, 2), Fraction(1, 3))) == "3/2+1/3i"
        assert format_cgauss(CR(Fraction(1, 2), Fraction(-3))) == "1/2-3i"
        assert format_cgauss(CR()) == "0"


class TestArithmetic:
    def test_field_ops(self):
        a = CR(Fraction(1), Fraction(2))
        b = CR(Fraction(3), Fraction(-1))
        assert a * b == CR(Fraction(5), Fraction(5))
        assert a + b == CR(Fraction(4), Fraction(1))
        assert (a / b) * b == a
        assert -a + a == CR()

    def test_int_coercion(self):
        a = CR(Fraction(1, 3))
        assert a + 1 == CR(Fraction(4, 3))
        assert 2 * a == CR(Fraction(2, 3))
        assert 1 - a == CR(Fraction(2, 3))

    @given(cgauss, cgauss)
    def test_results_have_fraction_parts(self, a, b):
        # coordinates are canonical when built: nothing re-wraps them later
        results = [a + b, a - b, a * b, -a, a + 1, 1 - a, 2 * a, a / 3, 3 - a]
        if b:
            results += [a / b, 1 / b]
        for z in results:
            assert type(z.re) is Fraction and type(z.im) is Fraction

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            CR(Fraction(1)) / CR()

    def test_as_fraction_requires_real(self):
        with pytest.raises(ValueError):
            CR(Fraction(1), Fraction(1)).as_fraction()
        assert CR(Fraction(5, 2)).as_fraction() == Fraction(5, 2)


class TestLattice:
    @pytest.mark.parametrize("z,lattice,expected", [
        (CR(Fraction(3)), Lattice.INTEGERS, True),
        (CR(Fraction(1, 2)), Lattice.HALF_PLUS_INTEGERS, True),
        (CR(Fraction(2), Fraction(1)), Lattice.TWO_INTEGERS, False),
        (CR(Fraction(4)), Lattice.TWO_INTEGERS, True),
        (CR(Fraction(3)), Lattice.TWO_INTEGERS, False),
        (CR(Fraction(-5, 2)), Lattice.HALF_PLUS_INTEGERS, True),
        (CR(Fraction(1, 3)), Lattice.HALF_PLUS_INTEGERS, False),
        (CR(Fraction(0), Fraction(1, 2)), Lattice.HALF_PLUS_INTEGERS, False),
    ])
    def test_membership(self, z, lattice, expected):
        assert lattice_member(z, lattice) is expected

    @given(cgauss)
    def test_two_integers_implies_integers(self, z):
        if lattice_member(z, Lattice.TWO_INTEGERS):
            assert lattice_member(z, Lattice.INTEGERS)

    @given(cgauss)
    def test_half_coset_identity(self, z):
        assert lattice_member(z, Lattice.HALF_PLUS_INTEGERS) == \
            lattice_member(2 * z - 1, Lattice.TWO_INTEGERS)
