"""Parser, the derivation along a field and the verifiers built on it."""

import collections
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from painstrata import ratfunc
from painstrata.ratfunc import DivisionByZeroExpression, RationalFunction, Var
from painstrata.exactnum import ConstraintError
from painstrata.symbolic import (
    ExprSyntaxError,
    T,
    UnsupportedExponentError,
    derive,
    quotient_of_partials,
    rf,
    verify_first_integral,
    verify_subvariety,
)

import oracles

Y, Y1, Y2 = Var(True, "y"), Var(True, "y", 1), Var(True, "y", 2)
X = Var(True, "x")
A = Var(False, "a")


def second_order_field(target: RationalFunction) -> dict:
    """The first-order field {y: y1, y1: target} of  y'' = target, with the
    target's y' renamed to the order-zero variable y1."""
    y1 = RationalFunction.variable(Var(True, "y1"))
    return {"y": y1, "y1": target.substitute({Y1: y1})}


def primed(f: RationalFunction) -> RationalFunction:
    """f derived along the field v -> v' on its differential variables."""
    return derive(f, {v: RationalFunction.variable(Var(True, v.name, v.order + 1))
                      for v in f.variables() if v.differential})


class TestParser:
    def test_polynomial_leaves(self):
        assert rf("2*y^3 + t*y + a", params=["a"]).variables() == {Y, A, T}

    def test_primes(self):
        assert Y1 in rf("y' - y^2 - t/2").variables()
        assert rf("y''").variables() == {Y2}

    def test_juxtaposition_rejected(self):
        with pytest.raises(ExprSyntaxError) as err:
            rf("y(y-1)/x")
        assert err.value.pos == 1

    def test_unknown_symbol_with_whitelist(self):
        with pytest.raises(ExprSyntaxError, match="unknown symbol 'z'"):
            rf("z + 1", variables=["x", "y"])
        assert rf("x + 1", variables=["x", "y"]).variables() == {X}

    def test_symbolic_exponent(self):
        with pytest.raises(UnsupportedExponentError, match="log-relation"):
            rf("y^c*(y-1)/x", params=["c"])

    def test_negative_exponent(self):
        with pytest.raises(ExprSyntaxError, match="division"):
            rf("y^-2")

    def test_prime_on_t_and_params(self):
        with pytest.raises(ExprSyntaxError):
            rf("t'")
        with pytest.raises(ExprSyntaxError):
            rf("a'", params=["a"])

    def test_error_positions(self):
        with pytest.raises(ExprSyntaxError) as err:
            rf("y + * 2")
        assert err.value.pos == 4

    def test_unary_minus_chain(self):
        assert rf("--y") == rf("y")
        assert rf("-y + y") == RationalFunction.constant(0)

    @pytest.mark.parametrize("text", [
        "2*y^3 + t*y + a",
        "(y + 1)^2/(t - 3)",
        "-y'/(2*t) + 1/2",
        "y''*y - t^4",
    ])
    def test_printer_round_trip(self, text):
        f = rf(text, params=["a"])
        assert rf(str(f), params=["a"]) == f

    @pytest.mark.parametrize("text", ["y +", "", "  ", "(y -", "y * -"])
    def test_missing_operand(self, text, within):
        with within(2), pytest.raises(ExprSyntaxError, match="expected"):
            rf(text)

    @pytest.mark.parametrize("text, pos", [
        ("y^\u00b2", 2),           # superscript two
        ("y + \u0661", 4),         # Arabic-Indic one
        ("\uff59 + 1", 0),         # fullwidth y
        ("y\u00e9", 1),            # a name stops at the first non-ASCII letter
        ("y +\u00a01", 3),         # no-break space
    ])
    def test_grammar_is_ascii(self, text, pos):
        with pytest.raises(ExprSyntaxError) as err:
            rf(text)
        assert err.value.pos == pos

    def test_oversized_integer(self):
        with pytest.raises(ExprSyntaxError, match="5000 digits") as err:
            rf("y + " + "7" * 5000)
        assert err.value.pos == 4

    def test_long_chains(self):
        assert rf(" + ".join(["y"] * 3000)) == rf("3000*y")
        assert rf("*".join(["y"] * 3000) + "/" + "/".join(["y"] * 2998)) == rf("y^2")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ExprSyntaxError, match="nests too deeply"):
            rf("(" * 5000 + "y" + ")" * 5000)

    def test_power_size_bound(self):
        # an n-term base squared predicts comb(n+1, 2) terms: 496 for 31, 528 for 32
        rf("(" + " + ".join(f"y^{k}" for k in range(31)) + ")^2")
        text = "(" + " + ".join(f"y^{k}" for k in range(32)) + ")^2"
        with pytest.raises(ExprSyntaxError, match="too large") as err:
            rf(text)
        assert err.value.pos == len(text) - 1
        # 3^e has e*log10(3) digits: 999.6 at e = 2095, 1000.1 at 2096
        rf("3^2095*x")
        with pytest.raises(ExprSyntaxError, match="too large"):
            rf("3^2096*x")
        # a monomial power stays one term with coefficient one
        assert str(rf("y^100000")) == "y^100000"

    def test_syntax_error_precedes_arithmetic(self, within):
        # expanding the power alone would take far longer than the bound
        with within(2), pytest.raises(ExprSyntaxError) as err:
            rf("(x+y+1)^100000 + )")
        assert err.value.pos == 17


class TestPolynomialPath:
    """A division-free sub-expression is parsed as a polynomial, and a
    quotient of two polynomials takes one gcd; the size bounds refuse the
    same inputs at the same positions on both paths."""

    F = "(2*x^2 + x*y - 2*y + 1)"
    BIG = "(3^1100*y + 1)"   # height about 10^525: two of them pass 1000 digits

    @staticmethod
    def count_gcds(monkeypatch) -> list:
        calls = []
        gcd = ratfunc.poly_gcd
        monkeypatch.setattr(ratfunc, "poly_gcd", lambda f, g: calls.append(1) or gcd(f, g))
        return calls

    def test_gcd_counts(self, monkeypatch):
        calls = self.count_gcds(monkeypatch)
        product = rf(f"y^2*(y-1)*{self.F}^2")
        assert not calls
        assert product.den.is_one()
        quotient = rf(f"y^2*(y-1)*{self.F}^2/(x*{self.F}^2)")
        assert len(calls) == 1
        assert quotient == rf("y^2*(y-1)/x")

    @pytest.mark.parametrize("text", [
        f"{BIG}*{BIG}",          # two polynomials
        f"{BIG}/x*{BIG}",        # the left operand holds a quotient
        f"{BIG}*({BIG}/x)",      # the right operand does
    ])
    def test_product_bound(self, text):
        with pytest.raises(ExprSyntaxError, match="'\\*' forms a product too large") as err:
            rf(text)
        assert err.value.pos == text.rindex("*(")

    def test_long_sum_forms_no_product(self):
        # 600 terms with 846-digit coefficients: checked as products, the
        # partial sums would pass the 1000-digit bound
        text = " + ".join(f"7^1000*x^{i}*y^{j}" for i in range(25) for j in range(24))
        assert len(rf(text).num.terms) == 600

    def test_quotient_power_bound(self):
        # squared, 31 terms predict 496 terms and 32 terms 528, in the
        # numerator or the denominator alike
        fits, grows = (" + ".join(f"y^{k}" for k in range(n)) for n in (31, 32))
        for num, den in ((fits, "x"), ("x", fits)):
            rf(f"(({num})/({den}))^2")
        for text in (f"(({grows})/x)^2", f"(x/({grows}))^2"):
            with pytest.raises(ExprSyntaxError, match="power too large") as err:
                rf(text)
            assert err.value.pos == len(text) - 1


def _wrap(template):
    return lambda ab: template.format(*ab)


def grammar_texts(leaves):
    """Grammar text built from the given leaves; every operand is
    parenthesized, so the parse follows the generated tree."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda children: st.one_of(
            st.tuples(children, children).map(_wrap("({}) + ({})")),
            st.tuples(children, children).map(_wrap("({}) - ({})")),
            st.tuples(children, children).map(_wrap("({})*({})")),
            st.tuples(children, children).map(_wrap("({})/({})")),
            children.map(lambda a: f"({a})^2"),
            children.map(lambda a: f"-({a})"),
        ),
        max_leaves=8,
    )


def with_quotients(texts):
    return st.one_of(texts, st.tuples(texts, texts).map(_wrap("({})/({})")))


texts = grammar_texts(["2", "(-1/2)", "3", "t", "a", "y", "y'", "x"])
plane_texts = grammar_texts(["2", "(-1/2)", "3", "0", "t", "a", "y", "x"])


def _rf_or_reject(text, **kw):
    try:
        return rf(text, **kw)
    except ExprSyntaxError as exc:
        assert "identically-zero" in str(exc)
        assume(False)


class TestDerivation:
    def test_rules(self):
        assert primed(rf("t")) == RationalFunction.constant(1)
        assert primed(rf("a", params=["a"])).is_zero()
        assert primed(rf("y^2 + t/2")) == rf("2*y*y' + 1/2")
        assert primed(rf("y'")) == rf("y''")

    def test_quotient_rule(self):
        assert primed(rf("y/t")) == rf("(y'*t - y)/t^2")

    @given(with_quotients(texts), with_quotients(texts))
    def test_leibniz(self, a, b):
        fa, fb = _rf_or_reject(a, params=["a"]), _rf_or_reject(b, params=["a"])
        assert primed(fa * fb) == fa * primed(fb) + fb * primed(fa)

    @given(with_quotients(texts), with_quotients(texts))
    def test_additive(self, a, b):
        fa, fb = _rf_or_reject(a, params=["a"]), _rf_or_reject(b, params=["a"])
        assert primed(fa + fb) == primed(fa) + primed(fb)

    def test_along_a_field(self):
        field = {X: rf("3*y - 2"), Y: rf("y*(y-1)/x")}
        assert derive(rf("x*y + t^2"), field) == rf("(3*y - 2)*y + y*(y-1) + 2*t")
        assert derive(rf("a*t", params=["a"]), {}) == rf("a", params=["a"])

    def test_no_gcd_against_the_squared_denominator(self, within):
        # reducing this derivative by gcd(numerator, d^2) ran past 20 s
        f = rf("(t^2*x^4*y'^4 - 2*t*x^4*y'^5 + x^4*y'^6 + t^2*y'^2 - 2*t*y*y'^2"
               " + y^2*y'^2 + t^3 - 2*t^2*y - t^2*y' + t*y^2 + 2*t*y*y' - y^2*y')"
               "/(t^2*y'^6 - 2*t*y'^7 + y'^8 + t^3*y'^4 - 3*t^2*y'^5 + 3*t*y'^6 - y'^7)")
        with within(5):
            df = primed(f)
        # d = y'^4 (y'-t)^2 (y'^2-y'+t): each factor gains one power
        assert df.den == rf("1/(y'^5*(y'-t)^3*(y'^2-y'+t)^2)").den

    def test_missing_component_is_named_in_variable_order(self):
        # x'' sorts before y' whatever order the set of variables is in
        with pytest.raises(ConstraintError, match="supplied for x''$"):
            derive(rf("y' + x''"), {})
        with pytest.raises(ConstraintError, match="supplied for y'$"):
            derive(rf("y' + x''"), {Var(True, "x", 2): rf("1")})

    def test_curve_check_with_parameter_heavy_target(self, within):
        # the gcd on the curve ran past 120 s under the primitive PRS
        rhs = rf("3/11*a^3*t^2*y + 4*t^3 + 6/5*t", params=["a"])
        target = rf("(-5/18*a^4*t*y^2*y'^4 + 4/9*a^5*t^2*y' + 5/18)/(a^5*y^5*y')",
                    params=["a"])
        with within(2):
            residual = verify_subvariety(second_order_field(target), "y1", rhs)
        assert residual == oracles.subvariety_residual("y", rhs, target)

    def test_curve_check_matches_two_step_oracle(self):
        # raise the primes, then substitute y' -> rhs: the route the
        # derivation along the curve replaces
        seen = collections.Counter()
        for seed in range(300):
            rhs, target = oracles.random_curve_case(random.Random(f"curve:{seed}"))
            expected = oracles.subvariety_residual("y", rhs, target)
            assert verify_subvariety(second_order_field(target), "y1", rhs) == expected, seed
            seen["y'"] += Y1 in target.variables()
            seen["y' below"] += Y1 in target.den.variables()
            seen["terms below"] += max(len(rhs.den.terms), len(target.den.terms)) > 1
        assert seen["y'"] >= 100 and seen["y' below"] >= 50 and seen["terms below"] >= 50, seen

    def test_sympy_field_oracle(self):
        sympy = pytest.importorskip("sympy")
        pool = [T, A, X, Y]

        def quotient(rng):
            # a polynomial, or about half the time one over a single term
            num = oracles.random_polynomial(rng, pool, rng.randint(1, 3))
            den = oracles.random_polynomial(rng, pool, 1)
            return RationalFunction(num, den) if den.terms and rng.random() < 0.5 \
                else RationalFunction(num)
        for seed in range(40):
            rng = random.Random(f"field:{seed}")
            f, fx, fy = quotient(rng), quotient(rng), quotient(rng)
            field = {X: fx, Y: fy}
            s = {name: sympy.Symbol(name) for name in ("t", "a", "x", "y")}
            sf, sx, sy = (sympy.sympify(str(g), locals=s) for g in (f, *field.values()))
            expected = (sympy.diff(sf, s["x"]) * sx + sympy.diff(sf, s["y"]) * sy
                        + sympy.diff(sf, s["t"]))
            got = sympy.sympify(str(derive(f, field)), locals=s)
            assert sympy.cancel(got - expected) == 0, seed


class TestCanonicalForm:
    @given(with_quotients(texts))
    def test_printer_round_trip_random(self, text):
        f = _rf_or_reject(text, params=["a"])
        assert rf(str(f), params=["a"]) == f

    @given(with_quotients(plane_texts))
    def test_sympy_oracle(self, text):
        sympy = pytest.importorskip("sympy")
        f = _rf_or_reject(text, params=["a"])
        assert sympy.cancel(sympy.S(text) - sympy.S(str(f))) == 0


# the partials are derive along the unit fields in x and in y
D_X = {X: rf("1"), Y: rf("0")}
D_Y = {X: rf("0"), Y: rf("1")}


class TestPartials:
    # expected values frozen from the quotient rule by hand, then spot
    # checked against central finite differences below
    def test_frozen(self):
        F = rf("y^2*(y-1)/x")
        assert derive(F, D_X) == rf("-y^2*(y-1)/x^2")
        assert derive(F, D_Y) == rf("y*(3*y-2)/x")
        assert derive(rf("5"), D_X).is_zero()

    def test_finite_difference_oracle(self):
        F = rf("y^2*(y-1)/x")
        fx = derive(F, D_X)
        h = 1e-6
        for x0, y0 in [(1.3, 0.4), (0.7, 2.1), (-1.1, 0.9)]:
            def val(f, x, y):
                return float(f.substitute({X: Fraction(x), Y: Fraction(y)}).num.terms.get((), 0))
            numeric = (val(F, x0 + h, y0) - val(F, x0 - h, y0)) / (2 * h)
            exact = val(fx, x0, y0)
            assert abs(numeric - exact) < 1e-5 * max(1.0, abs(exact))


class TestCanonicalEqual:
    def test_examples(self):
        assert rf("(y+1)^2") == rf("y^2 + 2*y + 1")
        assert rf("y'*x") == rf("x*y'")
        assert rf("y^3") != rf("y*y*y + 1")

    def test_division_by_zero_expression(self):
        with pytest.raises(ExprSyntaxError, match="identically-zero") as err:
            rf("1/(y - y)")
        assert err.value.pos == 1
        with pytest.raises(ExprSyntaxError) as err:
            rf("x + y/(x - x)^2")
        assert err.value.pos == 5


class TestSubvariety:
    def residual(self, g, target):
        return verify_subvariety(second_order_field(rf(target)), "y1", rf(g))

    def test_plus_contained(self):
        assert self.residual("y^2 + t/2", "2*y^3 + t*y + 1/2").is_zero()

    def test_minus_contained(self):
        assert self.residual("-y^2 - t/2", "2*y^3 + t*y - 1/2").is_zero()

    def test_crossed_residual_one(self):
        out = self.residual("y^2 + t/2", "2*y^3 + t*y - 1/2")
        assert out == RationalFunction.constant(1)

    def test_target_may_use_first_derivative(self):
        # y1 = y  is invariant under  y'' = y'
        assert self.residual("y", "y'").is_zero()

    def test_rejects_foreign_variables(self):
        # a variable without a field component, as the curve's or in g
        with pytest.raises(ConstraintError, match="no component for q"):
            verify_subvariety({"y": rf("y")}, "q", rf("y"))
        with pytest.raises(ConstraintError, match="supplied for q"):
            verify_subvariety({"y": rf("y")}, "y", rf("q"))

    def test_curve_invariant_rejects_higher_order(self):
        # g may not involve the curve's own variable, nor a primed one
        with pytest.raises(ConstraintError, match="involves y1"):
            verify_subvariety(second_order_field(rf("y")), "y1", rf("y1 + 1"))
        with pytest.raises(ConstraintError, match="supplied for y'"):
            verify_subvariety(second_order_field(rf("y")), "y1", rf("y'"))

    def test_restricts_before_deriving(self):
        # x' = y1 - x, y1' = ..., curve y1 = x: derive(x) on the curve is 0
        field = {"x": rf("y1 - x"), "y1": rf("t*x")}
        assert verify_subvariety(field, "y1", rf("x")) == rf("-t*x")

    def test_substitution_pole_names_factor(self):
        # the target's denominator vanishes identically on the curve
        with pytest.raises(DivisionByZeroExpression, match="vanishes"):
            self.residual("y^2 + t/2", "1/(y' - y^2 - t/2)")


class TestFirstIntegral:
    FIELD = {"x": rf("3*y - 2"), "y": rf("y*(y-1)/x")}

    def test_conserved(self):
        out = verify_first_integral(rf("y^2*(y-1)/x"), self.FIELD)
        assert out.is_zero()

    def test_not_conserved(self):
        out = verify_first_integral(rf("y"), self.FIELD)
        assert out == rf("y*(y-1)/x")

    def test_missing_component(self):
        with pytest.raises(ConstraintError, match="field component"):
            verify_first_integral(rf("z"), self.FIELD)

    def test_non_autonomous_candidate(self):
        with pytest.raises(ConstraintError, match="autonomous"):
            verify_first_integral(rf("y + t"), self.FIELD)

    @pytest.mark.parametrize("text", ["1", "2/3 - 1", "x - x"])
    def test_constant_candidate(self, text):
        # a constant is conserved along every field and certifies nothing
        with pytest.raises(ConstraintError, match="nonconstant candidate"):
            verify_first_integral(rf(text), self.FIELD)


class TestQuotientOfPartials:
    @pytest.mark.parametrize("c", range(1, 6))
    def test_identity_family(self, c):
        # c*y + y - c  =  (c+1)*y - c, so both spellings must match exactly
        F = rf(f"y^{c}*(y-1)/x")
        expected = rf(f"y*(y-1)/(x*({c + 1}*y - {c}))")
        spelled = rf(f"y*(y-1)/(x*({c}*y + y - {c}))")
        assert expected == spelled
        assert quotient_of_partials(F) == expected

    def test_direct_partials(self):
        assert quotient_of_partials(rf("x*y")) == rf("-y/x")

    def test_frozen_cubic(self):
        assert quotient_of_partials(rf("y^3*(y-1)/x")) == rf("y*(y-1)/(x*(4*y-3))")

    def test_requires_two_plane_variables(self):
        # canonical form drops y entirely, so the plane precondition trips
        with pytest.raises(ConstraintError):
            quotient_of_partials(rf("x + y - y"))
        with pytest.raises(ConstraintError):
            quotient_of_partials(rf("x*y*z"))
        # t is no plane variable, and a slope at fixed t is no first integral
        with pytest.raises(ConstraintError, match="autonomous"):
            quotient_of_partials(rf("t*x*y"))


class TestLowering:
    def test_parse_cancels_common_factor(self):
        f = rf("(y^2 - 1)/(y - 1)")
        assert f == rf("y + 1")
        assert str(f) == "y + 1"

    def test_params_stay_symbolic(self):
        f = rf("a*y + a", params=["a"])
        assert A in f.variables()
