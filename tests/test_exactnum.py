"""Exact Q(i) values and the wire grammar; the Q(i) arithmetic that builds
expected values is the ``oracles.QI`` type."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from painstrata.exactnum import (
    ComplexRational,
    ParameterParseError,
    format_cgauss,
    parse_cgauss,
)

import oracles
from oracles import QI, qi

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
        # each part is an int numerator over a positive int denominator, in
        # the lowest terms a Fraction of it has
        z = parse_cgauss(text)
        for n, d in ((z.rn, z.rd), (z.jn, z.jd)):
            assert type(n) is int and type(d) is int and d > 0
            assert (Fraction(n, d).numerator, Fraction(n, d).denominator) == (n, d)

    @given(cgauss)
    def test_round_trip(self, z):
        assert parse_cgauss(format_cgauss(z)) == z

    def test_canonical_strings(self):
        assert format_cgauss(CR(Fraction(0), Fraction(-2))) == "-2i"
        assert format_cgauss(CR(Fraction(3, 2), Fraction(1, 3))) == "3/2+1/3i"
        assert format_cgauss(CR(Fraction(1, 2), Fraction(-3))) == "1/2-3i"
        assert format_cgauss(CR()) == "0"


class TestArithmetic:
    """The oracle's Q(i) arithmetic, which the tests build expected values in,
    on package values: each result equals the package value of the same
    number, and reads back into it exactly."""

    def test_field_ops(self):
        a = qi(CR(Fraction(1), Fraction(2)))
        b = CR(Fraction(3), Fraction(-1))
        assert a * b == CR(Fraction(5), Fraction(5))
        assert a + b == CR(Fraction(4), Fraction(1))
        assert (a / b) * b == a
        assert -a + a == CR()

    def test_int_coercion(self):
        a = qi(CR(Fraction(1, 3)))
        assert a + 1 == CR(Fraction(4, 3))
        assert 2 * a == CR(Fraction(2, 3))
        assert 1 - a == CR(Fraction(2, 3))

    @given(cgauss, cgauss)
    def test_results_have_fraction_parts(self, a, b):
        a = qi(a)
        results = [a + b, a - b, a * b, -a, a + 1, 1 - a, 2 * a, a / 3, 3 - a]
        if b:
            results += [a / b, 1 / qi(b)]
        for z in results:
            assert type(z.re) is Fraction and type(z.im) is Fraction
            assert qi(z.exact()) == z == z.exact()

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            QI(Fraction(1)) / CR()


def digits(rng: random.Random, n: int) -> str:
    return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))


def rational_text(rng: random.Random, signed: bool = True) -> tuple[str, str]:
    """A spelling of a rational and its kind: leading zeros, explicit signs,
    unreduced fractions, zero and zero denominators, 20-40-digit parts, and
    parts at the 4,300-digit limit and just past it."""
    draw = rng.random()
    if draw < 0.5:
        kind, num, den = "small", str(rng.randint(0, 60)), str(rng.randint(1, 24))
    elif draw < 0.8:
        kind, num, den = "long", digits(rng, rng.randint(20, 40)), digits(rng, rng.randint(20, 40))
    elif draw < 0.85:
        kind = "limit"
        num, den = digits(rng, rng.randint(4290, 4310)), digits(rng, rng.randint(1, 4310))
    elif draw < 0.95:
        kind, num, den = "zeros", "0" * rng.randint(1, 3) + str(rng.randint(0, 99)), \
            "0" * rng.randint(0, 3) + str(rng.randint(1, 99))
    else:
        kind, num, den = "zero-den", str(rng.randint(0, 9)), "0" * rng.randint(1, 3)
    text = num if rng.random() < 0.3 and kind != "zero-den" else f"{num}/{den}"
    if signed:
        text = rng.choice(("", "", "+", "-")) + text
    return kind, text


def wire_token(rng: random.Random) -> tuple[str, str]:
    """A seeded wire token and its kind: real, imaginary, both parts, or
    malformed, with surrounding blanks now and then."""
    form = rng.random()
    kind, text = rational_text(rng)
    if form < 0.3:
        token = text
    elif form < 0.5:
        token, kind = f"{text}i", f"imag-{kind}"
    elif form < 0.9:
        im_kind, im = rational_text(rng, signed=False)
        token, kind = f"{text}{rng.choice('+-')}{im}i", f"full-{kind}-{im_kind}"
    else:
        token = rng.choice(("", " ", "i", "2-i", "1..5", "1 + 2i", "2+", "1/2/3",
                            "\u0661", "1/-2", "--1", "1e3", "0x10", "1_0"))
        token, kind = token + rng.choice(("", text, "i")), "malformed"
    return kind, rng.choice(("", " ", "\t")) + token + rng.choice(("", " "))


class TestFractionOracle:
    """The parser and the printer on reduced integer parts against the
    ``Fraction`` parser and printer they replaced (``oracles.fraction_parse``
    and ``oracles.fraction_format``): the same value, the same canonical text
    and the same error, message included."""

    CASES = ("4/6", "-0", "+3", "007/014", "-0i", "1-0i", "-2/4i", "0/5", "+0/7i",
             "1/0", "0/0", "2+3/0i", "-5/00i", "1/2i", "2/4i", "3/6+9/12i",
             "-12/8-0/3i", "1" * 4300, "1" * 4301, "2/" + "3" * 4300, "2/" + "3" * 4301,
             # malformed: one grammar match must refuse each of these
             "i", "+i", "1i2", "1+2", "1+2i3", "1/2/3", "1//2", "+-1", "1+-2i", "2i+1",
             # a zero denominator is refused before the numerator is read, and
             # the real part before the imaginary part
             "9" * 4301 + "/0", "1/0+" + "9" * 4301 + "i", "-" + "9" * 4301 + "/0i")

    @staticmethod
    def outcome(function, token):
        try:
            return function(token)
        except ParameterParseError as err:
            return ("error", str(err))

    def test_tokens_agree(self):
        rng = random.Random(20)
        tokens = [(text, "case") for text in self.CASES]
        tokens += [(token, kind) for kind, token in (wire_token(rng) for _ in range(2400))]
        kinds = Counter()
        for token, kind in tokens:
            got = self.outcome(parse_cgauss, token)
            expected = self.outcome(oracles.fraction_parse, token)
            if isinstance(expected, tuple) and expected[0] == "error":
                assert got == expected, token
                kinds["error"] += 1
            else:
                re_part, im_part = expected
                assert (got.rn, got.rd, got.jn, got.jd) == (
                    re_part.numerator, re_part.denominator,
                    im_part.numerator, im_part.denominator), token
                assert got == CR(re_part, im_part) and qi(got) == QI(*expected)
                assert format_cgauss(got) == oracles.fraction_format(*expected), token
                kinds["value"] += 1
            kinds[kind.split("-")[0]] += 1
            kinds[kind] += 1
        assert kinds["error"] > 300 and kinds["value"] > 1500, kinds
        assert {"imag", "full", "malformed", "zeros", "long", "limit", "zero-den",
                "full-long-long", "imag-limit"} <= kinds.keys(), kinds

    @given(cgauss)
    def test_printer_agrees(self, z):
        assert format_cgauss(z) == oracles.fraction_format(qi(z).re, qi(z).im)
        assert math.gcd(z.rn, z.rd) == 1 == math.gcd(z.jn, z.jd)
