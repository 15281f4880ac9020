"""Systems, transformation groups, the fundamental region and orbit search."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from painstrata import models
from painstrata.exactnum import ComplexRational
from painstrata.ratfunc import Var
from painstrata.models import (
    BudgetExceededError,
    ConstraintError,
    Family,
    FamilyInstance,
    GroupWord,
    MAX_REDUCTION_STEPS,
    MAX_WORD_LENGTH,
    P3Generator,
    P4Generator,
    Related,
    SpecialValue,
    Unknown,
    apply_word,
    in_fundamental_region_p4,
    orbit_search,
    reduce_to_fundamental_region_p4,
    riccati_curve,
    system_rhs,
    xc_first_integral,
)
from painstrata.strata import classify
from painstrata.symbolic import derive, rf, verify_subvariety

import oracles
from oracles import QI, qi

CR = ComplexRational


def crs(*values) -> tuple:
    return tuple(CR(Fraction(v)) for v in values)


def apply_generator(g, v) -> tuple:
    """One generator, applied as a one-letter word."""
    family = Family.PIII if isinstance(g, P3Generator) else Family.PIV
    return apply_word(GroupWord(family, (g,)), v)


class TestFamilyInstance:
    def test_arity_check(self):
        with pytest.raises(ConstraintError):
            FamilyInstance(Family.PII, crs(1, 2))
        with pytest.raises(ConstraintError):
            FamilyInstance(Family.PVI, crs(0, 0, 0))

    def test_sum_zero_planes(self):
        FamilyInstance(Family.PIV, crs(Fraction(1, 3), Fraction(-1, 3), 0))
        with pytest.raises(ConstraintError):
            FamilyInstance(Family.PIV, crs(1, 1, 1))
        with pytest.raises(ConstraintError):
            FamilyInstance(Family.PV, crs(1, 0, 0, 0))

    def test_xc_coupling_must_be_real(self):
        FamilyInstance(Family.XC, crs(2))
        FamilyInstance(Family.XC, (SpecialValue.NON_RATIONAL,))
        with pytest.raises(ConstraintError):
            FamilyInstance(Family.XC, (CR(Fraction(0), Fraction(1)),))

    def test_from_strings(self):
        inst = FamilyInstance.from_strings("p3", ["1/2", "3/2"])
        assert inst.params == crs(Fraction(1, 2), Fraction(3, 2))
        inst = FamilyInstance.from_strings("p2", ["generic"])
        assert inst.params == (SpecialValue.GENERIC,)


class TestSystems:
    def test_p2_fiber(self):
        sys = system_rhs(FamilyInstance(Family.PII, crs(Fraction(-1, 2))))
        assert sys.variables == ("y", "y1")
        assert sys.rhs[0] == rf("y1", variables=("y", "y1"))
        assert sys.rhs[1] == rf("2*y^3 + t*y - 1/2", variables=("y",))

    def test_p3_origin(self):
        sys = system_rhs(FamilyInstance(Family.PIII, crs(0, 0)))
        assert sys.rhs[0] == rf("(2*q^2*p - q^2 + t)/t", variables=("q", "p"))
        assert sys.rhs[1] == rf("(-2*q*p^2 + 2*q*p)/t", variables=("q", "p"))
        assert sys.t_singularities == (Fraction(0),)

    def test_p4_origin(self):
        sys = system_rhs(FamilyInstance(Family.PIV, crs(0, 0, 0)))
        assert sys.rhs[0] == rf("2*p*q - q^2 - 2*t*q", variables=("q", "p"))
        assert sys.rhs[1] == rf("2*p*q - p^2 + 2*t*p", variables=("q", "p"))

    def test_p5_symbolic(self):
        inst = FamilyInstance(Family.PV, (SpecialValue.GENERIC,) * 4)
        sys = system_rhs(inst)
        assert sys.free_parameters() == {"v1", "v2", "v3", "v4"}
        assert sys.t_singularities == (Fraction(0),)

    def test_xc_instances(self):
        sys = system_rhs(FamilyInstance(Family.XC, crs(2)))
        assert sys.rhs[0] == rf("3*y - 2", variables=("x", "y"))
        assert sys.rhs[1] == rf("y*(y-1)/x", variables=("x", "y"))

    def test_p6_unavailable(self):
        with pytest.raises(ConstraintError, match="sixth family"):
            system_rhs(FamilyInstance(Family.PVI, crs(0, 0, 0, 0)))

    def test_complex_parameter_rejected(self):
        inst = FamilyInstance(Family.PIII, (CR(Fraction(0), Fraction(1)), CR()))
        with pytest.raises(ConstraintError):
            system_rhs(inst)

    def test_generic_stays_symbolic(self):
        inst = FamilyInstance(Family.PII, (SpecialValue.GENERIC,))
        sys = system_rhs(inst)
        assert sys.free_parameters() == {"a"}


PARAMS = ("v1", "v2", "v3", "v4")


def generic_system(family: str):
    """The shipped system with every parameter left symbolic."""
    n = models.PARAM_COUNT[Family(family)]
    return system_rhs(FamilyInstance.from_strings(family, ["generic"] * n))


def field_of(system) -> dict:
    return {Var(True, name): f for name, f in system.as_map().items()}


class TestInvariantCurves:
    """The order-one invariant curves on the reflection walls: each curve's
    residual on the shipped field depends only on the parameters and t, so
    the curve is invariant exactly where it vanishes."""

    @pytest.mark.parametrize("family, variable, curve, residual", [
        ("p4", "q", "0", "-2*v1 + 2*v2"),
        ("p4", "p", "0", "-2*v1 + 2*v3"),
        ("p4", "p", "q + 2*t", "-2*v2 + 2*v3 + 2"),
        ("p5", "q", "0", "(v1 - v2)/t"),
        ("p5", "q", "1", "(v3 - v4)/t"),
        ("p5", "p", "0", "v1 - v3"),
        ("p5", "p", "-t", "v2 - v4 - 1"),
        ("p3", "p", "0", "-(v1 + v2)/(2*t)"),
        ("p3", "p", "1", "(v1 - v2)/(2*t)"),
    ])
    def test_wall_residuals(self, family, variable, curve, residual):
        system = generic_system(family)
        g = rf(curve, variables=system.variables)
        assert verify_subvariety(system.as_map(), variable, g) == \
            rf(residual, params=PARAMS, variables=())

    def test_shifted_curve_is_not_invariant(self):
        system = generic_system("p4")
        out = verify_subvariety(system.as_map(), "p", rf("q + 2*t + 1"))
        assert out == rf("2*q + 2*t - 2*v2 + 2*v3 + 3", params=PARAMS)


class TestScalarEquations:
    """The shipped (q, p) systems imply the scalar Painleve equations: the
    second derivative along the field minus the scalar right side, with the
    first derivative replaced by the field's, is zero on the phase space."""

    def test_p4(self):
        system = generic_system("p4")
        dq = system.rhs[0]
        rhs = rf("q'^2/(2*q) + 3/2*q^3 + 4*t*q^2 + 2*(t^2 - alpha)*q + beta/q",
                 params=("alpha", "beta"))
        rhs = rhs.substitute({Var(False, "alpha"): rf("1 - v1 - v2 + 2*v3", params=PARAMS),
                              Var(False, "beta"): rf("-2*(v1 - v2)^2", params=PARAMS),
                              Var(True, "q", 1): dq})
        assert derive(dq, field_of(system)) == rhs

    @staticmethod
    def p5_residual(field, v1, v2, v3, v4, gamma_shift=0):
        """derive(y') minus P_V's right side, for y = 1 - 1/q along the field
        and alpha, beta, gamma, delta as the v's map to them."""
        y = rf("1 - 1/q")
        dy = derive(y, field)
        rhs = rf("(1/(2*y) + 1/(y - 1))*y'^2 - y'/t + (y - 1)^2/t^2*(alpha*y + beta/y)"
                 " + gamma*y/t + delta*y*(y + 1)/(y - 1)",
                 params=("alpha", "beta", "gamma", "delta"))
        rhs = rhs.substitute({Var(False, "alpha"): (v1 - v2) ** 2 / 2,
                              Var(False, "beta"): -(v3 - v4) ** 2 / 2,
                              Var(False, "gamma"): 1 - 2 * (v1 + v2) + gamma_shift,
                              Var(False, "delta"): Fraction(-1, 2),
                              Var(True, "y"): y, Var(True, "y", 1): dy})
        return derive(dy, field) - rhs

    @pytest.mark.parametrize("v", [("1/3", "-2/5", "7/4", "-101/60"),
                                   ("2", "1/7", "-1", "-8/7")])
    def test_p5(self, v):
        # y = 1 - 1/q satisfies P_V with delta = -1/2
        field = field_of(system_rhs(FamilyInstance.from_strings("p5", v)))
        assert self.p5_residual(field, *(Fraction(c) for c in v)).is_zero()

    @pytest.mark.parametrize("gamma_shift, holds", [(0, True), (1, False)])
    def test_p5_symbolic(self, within, gamma_shift, holds):
        # the same map with v symbolic on the plane v1 + v2 + v3 + v4 = 0
        v1, v2, v3 = (rf(name, params=PARAMS) for name in PARAMS[:3])
        v4 = -v1 - v2 - v3
        on_plane = {Var(False, "v4"): v4}
        field = {v: f.substitute(on_plane) for v, f in field_of(generic_system("p5")).items()}
        with within(10):
            residual = self.p5_residual(field, v1, v2, v3, v4, gamma_shift)
        assert residual.is_zero() == holds


class TestDivergence:
    """Each Hamiltonian system has dF_q/dq + dF_p/dp = 0."""

    @pytest.mark.parametrize("family", [
        "p2",
        pytest.param("p3", marks=pytest.mark.xfail(
            strict=True, reason="the shipped p3 field has divergence -2*v1/t, "
                                "so it is not Hamiltonian (ROADMAP item 1)")),
        "p4",
        "p5",
    ])
    def test_divergence_free(self, family):
        system = generic_system(family)
        div = sum((oracles.partial(f, Var(True, name))
                   for name, f in system.as_map().items()), rf("0"))
        assert div.is_zero(), div


class TestHamiltonian:
    """The p2, p4 and p5 rows each hold one H: with the parameters symbolic,
    (dH/dp, -dH/dq) for the pair (q, p) or (y, y1) is exactly the field the
    oracles write out, and an H with one sign flipped gives another field."""

    @staticmethod
    def written_out(family):
        variables, names, _, _ = models._SYSTEM_TEMPLATES[family]
        return tuple(rf(text, params=names, variables=variables)
                     for text in oracles.HAMILTONIAN_FIELDS[family])

    @pytest.mark.parametrize("family", oracles.HAMILTONIAN_FIELDS, ids=lambda f: f.value)
    def test_field_from_hamiltonian(self, family):
        assert generic_system(family.value).rhs == self.written_out(family)

    @pytest.mark.parametrize("family, flipped", [
        (Family.PII, "y1^2/2 - y^4/2 + t*y^2/2 - a*y"),
        (Family.PIV, "p^2*q - p*q^2 - 2*t*p*q + 2*(v1 - v2)*p + 2*(v1 - v3)*q"),
        (Family.PV, "(q^2*p^2 - q*p^2 + t*q^2*p - t*q*p + (v1 - v2 - v3 + v4)*q*p"
                    " + (v2 - v1)*p - (v1 - v3)*t*q)/t"),
    ], ids=["p2", "p4", "p5"])
    def test_flipped_sign_gives_another_field(self, monkeypatch, family, flipped):
        variables, names, _, sing = models._SYSTEM_TEMPLATES[family]
        monkeypatch.setitem(models._SYSTEM_TEMPLATES, family, (variables, names, flipped, sing))
        models._field.cache_clear()
        try:
            assert generic_system(family.value).rhs != self.written_out(family)
        finally:
            models._field.cache_clear()


class TestSpecialSolutions:
    """Exact rational solutions of the shipped p2 and p4 systems."""

    @staticmethod
    def solves(family, params, solution) -> bool:
        """Whether the field along ``solution`` is its derivative exactly."""
        system = system_rhs(FamilyInstance.from_strings(family, params))
        return all((f.substitute(solution) - derive(solution[Var(True, v)], {})).is_zero()
                   for v, f in system.as_map().items())

    @staticmethod
    def yablonskii_vorobev(n):
        """Q_0 = 1, Q_1 = t and Q_{k+1}*Q_{k-1} = t*Q_k^2 - 4*(Q_k*Q_k'' - Q_k'^2)."""
        qs = [rf("1"), rf("t")]
        while len(qs) <= n:
            q, dq = qs[-1], derive(qs[-1], {})
            qs.append((rf("t") * q ** 2 - 4 * (q * derive(dq, {}) - dq ** 2)) / qs[-2])
        return qs

    def test_yablonskii_vorobev(self, within):
        # y_n = Q_{n-1}'/Q_{n-1} - Q_n'/Q_n solves P_II at a = n, and (-y_n, -n) too
        with within(2):
            qs = self.yablonskii_vorobev(8)
            assert all(q.den.is_one() for q in qs)
            assert qs[2:4] == [rf("t^3 + 4"), rf("t^6 + 20*t^3 - 80")]
            curves = []
            for n in range(1, 9):
                y = derive(qs[n - 1], {}) / qs[n - 1] - derive(qs[n], {}) / qs[n]
                curves.append({Var(True, "y"): y, Var(True, "y1"): derive(y, {})})
                assert self.solves("p2", [str(n)], curves[-1]), n
                assert not self.solves("p2", [str(n + 1)], curves[-1]), n
            assert self.solves("p2", ["-3"], {v: -f for v, f in curves[2].items()})

    def test_backlund_along_the_chain(self, within):
        # Gromak's map y -> -y - (2a+1)/(2y' + 2y^2 + t) at a = n sends y_n to
        # y_{n+1}; with +(2a+1) it sends none of them there
        with within(2):
            qs = self.yablonskii_vorobev(9)
            ys = [derive(qs[n - 1], {}) / qs[n - 1] - derive(qs[n], {}) / qs[n]
                  for n in range(1, 10)]
            for n, (y, following) in enumerate(zip(ys, ys[1:]), start=1):
                shift = (2 * n + 1) / (2 * derive(y, {}) + 2 * y ** 2 + rf("t"))
                assert -y - shift == following, n
                assert -y + shift != following, n

    def test_p4_seed(self):
        seed = {Var(True, "q"): rf("-2*t"), Var(True, "p"): rf("0")}
        on_seed = ["-1/3", "2/3", "-1/3"]
        assert self.solves("p4", on_seed, seed)
        for moved in (["2/3", "-1/3", "-1/3"], ["-2/15", "7/15", "-1/3"]):
            assert not self.solves("p4", moved, seed), moved
        found = classify(FamilyInstance.from_strings("p4", on_seed))
        assert (found.stratum, found.morley_degree) == ("D", {"exact": 3})


class TestCrossRatio:
    """Four solutions a, b, c, d of one Riccati curve, P_II's y' = +-(y^2 + t/2)
    or P_IV's on a wall, have a constant cross-ratio; moving one copy off the
    curve breaks it."""

    CROSS_RATIO = rf("(a - c)*(b - d)/((a - d)*(b - c))")

    @staticmethod
    def copies(sign, shift=0):
        """The curve's field for each of a, b, c, d, with ``shift`` added to a's."""
        g = riccati_curve(sign)
        field = {Var(True, name): g.substitute({Var(True, "y"): rf(name)}) for name in "abcd"}
        field[Var(True, "a")] += shift
        return field

    @pytest.mark.parametrize("sign, unit", [("plus", 1), ("minus", -1)])
    def test_cross_ratio_is_constant(self, sign, unit):
        assert derive(self.CROSS_RATIO, self.copies(sign)).is_zero()
        assert derive(rf("(a - c)/(b - c)"), self.copies(sign)) == \
            unit * rf("(a^2 - a*b - a*c + b*c)/(b - c)")
        assert not derive(self.CROSS_RATIO, self.copies(sign, shift=1)).is_zero()

    def test_p4_wall(self):
        # on v2 = v1 the curve q = 0 is invariant, and p' on it is a Riccati field
        wall = {Var(True, "q"): 0, Var(False, "v2"): rf("v1", params=PARAMS)}
        g = generic_system("p4").as_map()["p"].substitute(wall)
        assert g == rf("-p^2 + 2*t*p + 2*(v1 - v3)", params=PARAMS)
        field = {Var(True, name): g.substitute({Var(True, "p"): rf(name)}) for name in "abcd"}
        assert derive(self.CROSS_RATIO, field).is_zero()
        assert derive(rf("(a - c)/(b - c)"), field) == rf("(-a^2 + a*b + a*c - b*c)/(b - c)")
        field[Var(True, "a")] += 1
        assert not derive(self.CROSS_RATIO, field).is_zero()


class TestGenerators:
    def test_printed_maps(self):
        assert apply_generator(P3Generator.S3, crs(1, 1)) == crs(2, 0)
        assert apply_generator(P3Generator.S2, crs(1, 2)) == crs(-2, -1)
        assert apply_generator(P4Generator.TMINUS, crs(0, 0, 0)) == \
            crs(Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3))

    def test_s0_closed_form_regression(self):
        # the composite reduces to (v1, v3 + 1, v2 - 1); frozen once here
        rng = random.Random(5)
        for _ in range(50):
            v = oracles.p4_sum_zero_sample(rng)
            assert apply_generator(P4Generator.S0, v) == (v[0], qi(v[2]) + 1, qi(v[1]) - 1)

    def test_s0_is_the_conjugated_composite(self):
        # s0 = tminus^-1 s1 s2 s1 tminus, built from the other generators
        word = GroupWord(Family.PIV, (P4Generator.TMINUS, P4Generator.S1,
                                      P4Generator.S2, P4Generator.S1))
        shift = apply_generator(P4Generator.TMINUS, crs(0, 0, 0))
        rng = random.Random(17)
        for _ in range(200):
            v = tuple(CR(qi(oracles.rational_coord(rng)).re,
                         Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
                      for _ in range(3))
            composite = tuple(qi(c) - s for c, s in zip(apply_word(word, v), shift))
            assert apply_generator(P4Generator.S0, v) == composite

    def test_s0_fixes_its_wall(self):
        v = crs(Fraction(1, 5), Fraction(-3, 5), Fraction(-3, 5) - 1 + 1)
        # v3 - v2 + 1 = 0 on this wall
        v = (v[0], v[1], (qi(v[1]) - 1).exact())
        assert apply_generator(P4Generator.S0, v) == v

    def test_p4_permutation_maps(self):
        v = crs(1, 2, -3)
        assert apply_generator(P4Generator.S1, v) == crs(2, 1, -3)
        assert apply_generator(P4Generator.S2, v) == crs(-3, 2, 1)

    def test_involutions(self):
        rng = random.Random(9)
        for _ in range(40):
            v3 = oracles.p3_sample(rng)
            for g in P3Generator:
                assert apply_generator(g, apply_generator(g, v3)) == v3
            v4 = oracles.p4_sum_zero_sample(rng)
            for g in (P4Generator.S0, P4Generator.S1, P4Generator.S2):
                assert apply_generator(g, apply_generator(g, v4)) == v4

    def test_p4_images_stay_sum_zero(self):
        rng = random.Random(13)
        zero = CR()
        for _ in range(40):
            v = oracles.p4_sum_zero_sample(rng)
            for g in P4Generator:
                image = apply_generator(g, v)
                assert sum(image, QI()) == zero

    def test_word_application_order(self):
        word = GroupWord(Family.PIII, (P3Generator.S3, P3Generator.S2))
        # s3 first: (1,1) -> (2,0); then s2: -> (0,-2)
        assert apply_word(word, crs(1, 1)) == crs(0, -2)

    def test_word_family_consistency(self):
        with pytest.raises(ConstraintError):
            GroupWord(Family.PIII, (P4Generator.S0,))

    def test_generic_rejected(self):
        with pytest.raises(ConstraintError):
            apply_generator(P3Generator.S1, (SpecialValue.GENERIC, CR()))


class TestFundamentalRegion:
    def test_membership(self):
        assert in_fundamental_region_p4(crs(0, 0, 0)) is True
        assert in_fundamental_region_p4(crs(1, -1, 0)) is False
        # second wall value v1 - v3 = -1/3 is negative here
        assert in_fundamental_region_p4(
            crs(Fraction(-1, 3), Fraction(1, 3), 0)) is False

    def test_membership_requires_sum_zero(self):
        with pytest.raises(ConstraintError):
            in_fundamental_region_p4(crs(1, 0, 0))

    def test_imaginary_tie_break(self):
        # v2 - v1 = i fails only through the imaginary tie-break
        i, two_i, minus_three_i = (CR(0, Fraction(k)) for k in (1, 2, -3))
        v = (i, two_i, minus_three_i)
        assert in_fundamental_region_p4(v) is True
        w = (two_i, i, minus_three_i)
        assert in_fundamental_region_p4(w) is False

    def test_reduce_identity(self):
        out, word = reduce_to_fundamental_region_p4(crs(0, 0, 0))
        assert out == crs(0, 0, 0) and len(word) == 0

    def test_reduce_frozen_example(self):
        v = crs(Fraction(-1, 3), Fraction(1, 3), 0)
        out, word = reduce_to_fundamental_region_p4(v)
        assert word.names() == ["s2"]
        assert out == crs(0, Fraction(1, 3), Fraction(-1, 3))
        assert in_fundamental_region_p4(out)

    def test_reduce_contract_random(self):
        rng = random.Random(3)
        for _ in range(60):
            v = oracles.p4_sum_zero_sample(rng)
            out, word = reduce_to_fundamental_region_p4(v)
            assert in_fundamental_region_p4(out)
            assert apply_word(word, v) == out

    def test_budget_error_carries_word(self):
        far = crs(30, -30, 0)
        with pytest.raises(BudgetExceededError) as err:
            reduce_to_fundamental_region_p4(far, max_steps=2)
        assert len(err.value.partial_word) == 2
        assert str(err.value).endswith("; partial word ['s1', 's2']")

    def test_step_bound(self, within):
        far = crs(3000000, -3000000, 0)
        with pytest.raises(ConstraintError, match="between 1 and 10000, got 10001"):
            reduce_to_fundamental_region_p4(far, MAX_REDUCTION_STEPS + 1)
        with within(5):   # a far point descended to the bound
            with pytest.raises(BudgetExceededError) as err:
                reduce_to_fundamental_region_p4(far, MAX_REDUCTION_STEPS)
        assert len(err.value.partial_word) == MAX_REDUCTION_STEPS

    def test_far_descent_is_fast(self, within):
        far = crs(3000000, -3000000, 0)
        with within(1):
            with pytest.raises(BudgetExceededError) as err:
                reduce_to_fundamental_region_p4(far, MAX_REDUCTION_STEPS)
        assert len(err.value.partial_word) == MAX_REDUCTION_STEPS


class TestOrbitSearch:
    def test_witness(self):
        out = orbit_search(crs(1, 1), crs(2, 0), Family.PIII, 1)
        assert isinstance(out, Related)
        assert out.word.names() == ["s3"]
        assert apply_word(out.word, crs(1, 1)) == crs(2, 0)

    def test_identity(self):
        out = orbit_search(crs(1, 1), crs(1, 1), Family.PIII, 5)
        assert isinstance(out, Related) and len(out.word) == 0

    def test_unknown_off_lattice(self):
        # the generators preserve integrality, so the half-integer target is
        # unreachable; the search must answer unknown, never "not related"
        for g in P3Generator:
            image = apply_generator(g, crs(0, 0))
            assert all(c.rd == 1 and c.jn == 0 for c in image)
        out = orbit_search(crs(0, 0), crs(Fraction(1, 2), Fraction(1, 2)),
                           Family.PIII, 3)
        assert isinstance(out, Unknown)

    def test_word_length_bound(self, within):
        with pytest.raises(ConstraintError, match="between 0 and 100, got 101"):
            orbit_search(crs(1, 1), crs(2, 0), Family.PIII, MAX_WORD_LENGTH + 1)
        with within(5):   # an unrelated pair searched to the bound
            out = orbit_search(crs(Fraction(1, 3), Fraction(1, 7), Fraction(-10, 21)),
                               crs(Fraction(2, 5), Fraction(3, 11), Fraction(-37, 55)),
                               Family.PIV, MAX_WORD_LENGTH)
        assert isinstance(out, Unknown)

    def test_p4_search(self):
        v = crs(Fraction(-1, 3), Fraction(1, 3), 0)
        target = apply_generator(P4Generator.S0, apply_generator(P4Generator.S1, v))
        out = orbit_search(v, target, Family.PIV, 2)
        assert isinstance(out, Related)
        assert apply_word(out.word, v) == target

    def test_unrelated_p3_search_is_fast(self, within):
        # a generic p3 point has a trivial stabiliser, so the search holds
        # about 2n^2 values at word length n; b is over a's denominators, but
        # its v1 - v2 has no imaginary part, so no image of a reaches it
        a = (CR(Fraction(1, 3), Fraction(1, 5)), CR(Fraction(2, 7)))
        b = crs(Fraction(2, 3), Fraction(1, 7))
        with within(1):
            out = orbit_search(a, b, Family.PIII, MAX_WORD_LENGTH)
        assert out == Unknown()

    def test_target_off_the_orbit_lattice(self, within):
        # the images of a keep a's denominators, so a target over a
        # denominator a lacks is unknown at once, without a search over
        # integers the size of both endpoints' common denominator
        d1, d2 = big_denominators(random.Random(7))
        a = (CR(Fraction(1, d1), Fraction(1, d1 + 2)), CR(Fraction(2, d1)))
        b = (CR(Fraction(1, d2)), CR(Fraction(1, d1), Fraction(-1, d1 + 2)))
        with within(1):
            out = orbit_search(a, b, Family.PIII, MAX_WORD_LENGTH)
        assert out == Unknown()
        assert oracles.orbit_bfs(a, b, Family.PIII, 4) == Unknown()

    def test_unrelated_p4_search_is_fast(self, within):
        # the pair of test_word_length_bound, and a target over the source's
        # denominators whose 2/3 is no coordinate of it modulo 1, so the
        # search runs to the bound
        a = crs(Fraction(1, 3), Fraction(1, 7), Fraction(-10, 21))
        for b in (crs(Fraction(2, 5), Fraction(3, 11), Fraction(-37, 55)),
                  crs(Fraction(2, 3), Fraction(-1, 7), Fraction(-11, 21))):
            with within(1):
                out = orbit_search(a, b, Family.PIV, MAX_WORD_LENGTH)
            assert out == Unknown()

    @staticmethod
    def search_peak(a, b) -> int:
        tracemalloc.start()
        try:
            assert orbit_search(a, b, Family.PIII, MAX_WORD_LENGTH) == Unknown()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_parts_scaled_apart(self):
        # real parts are scaled by the lcm of the real denominators and
        # imaginary parts by the lcm of theirs, so a generic p3 pair over four
        # coprime 300-digit denominators (two real, two imaginary, shared by
        # both endpoints) is searched on 600-digit ints; a pair with all four
        # parts over their 1,200-digit product, as one denominator for both
        # parts would scale the first, holds twice the digits
        rng = random.Random(20)
        dens = []
        while len(dens) < 4:
            d = rng.randrange(10 ** 299, 10 ** 300)
            if all(math.gcd(d, e) == 1 for e in dens):
                dens.append(d)

        def part(d):
            while math.gcd(n := rng.randrange(1, d), d) != 1:
                pass
            return Fraction(n, d)

        def pair(d1, d2, d3, d4):
            return (CR(part(d1), part(d3)), CR(part(d2), part(d4)))

        product = math.prod(dens)
        apart = self.search_peak(pair(*dens), pair(*dens))
        shared = self.search_peak(pair(*[product] * 4), pair(*[product] * 4))
        assert apart <= 0.6 * shared, (apart, shared)


def big_denominators(rng: random.Random) -> tuple[int, int]:
    """Two coprime denominators of 20 to 40 digits."""
    while True:
        d1, d2 = (rng.randint(10 ** 19, 10 ** rng.randint(20, 40) - 1)
                  for _ in range(2))
        if math.gcd(d1, d2) == 1:
            return d1, d2


def group_coord(rng: random.Random, den: int = 0, scale: int = 1) -> CR:
    """A Q(i) value with an imaginary part half the time: a small fraction,
    or parts over den with numerators up to scale * den (1 * den for Im)."""
    def part(bound):
        if den:
            return Fraction(rng.randint(-bound * den, bound * den), den)
        return Fraction(rng.randint(-4 * bound, 4 * bound), rng.choice((1, 1, 2, 3, 4, 6, 7)))
    return CR(part(scale), part(1) if rng.random() < 0.5 else Fraction(0))


def p4_vector(rng: random.Random, den: int = 0, scale: int = 1) -> tuple:
    a, b = group_coord(rng, den, scale), group_coord(rng, den, scale)
    return (a, b, (-(qi(a) + b)).exact())


def p4_tie(rng: random.Random, wall: int) -> tuple:
    """A sum-zero vector whose given wall has real part zero, so that its
    imaginary part decides the wall (v2-v1, v1-v3 or v3-v2+1)."""
    r = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5)))
    re = {0: (r, r, -2 * r), 1: (r, -2 * r, r), 2: (1 - 2 * r, r, r - 1)}[wall]
    im1, im2 = (Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(2))
    return tuple(CR(x, y) for x, y in zip(re, (im1, im2, -im1 - im2)))


def random_word(rng: random.Random, family: Family, gens, n: int) -> GroupWord:
    return GroupWord(family, tuple(rng.choice(gens) for _ in range(n)))


class TestFractionOracle:
    """The integer-coordinate group actions against the Q(i) arithmetic they
    replaced (`oracles.greedy_reduce_p4`, `oracles.orbit_bfs`,
    `oracles.fraction_word`), on seeded cases: the same outputs and words,
    the same verdicts, and the same budget errors."""

    @staticmethod
    def outcome(function, *args):
        try:
            return function(*args)
        except BudgetExceededError as err:
            return ("budget", str(err), err.partial_word)

    def reduce_cases(self, rng):
        far = crs(3000000, -3000000, 0)
        yield "budget-10000", far, MAX_REDUCTION_STEPS
        for _ in range(1000):
            draw = rng.random()
            if draw < 0.45:
                wall = rng.randrange(3)
                kind, v = f"tie-{wall}", p4_tie(rng, wall)
            elif draw < 0.6:
                kind, v = "region", oracles.greedy_reduce_p4(p4_vector(rng), 10_000)[0]
            elif draw < 0.8:
                d1, d2 = big_denominators(rng)
                kind, v = "big", (group_coord(rng, d1, 20), group_coord(rng, d2, 20))
                v = (*v, (-(qi(v[0]) + v[1])).exact())
            else:
                kind, v = "far", p4_vector(rng, scale=rng.choice((10, 40)))
            yield kind, v, rng.choice((1, 200, MAX_REDUCTION_STEPS))

    def orbit_cases(self, rng):
        p4_gens = (P4Generator.S0, P4Generator.S1, P4Generator.S2)
        for _ in range(1000):
            family = rng.choice((Family.PIII, Family.PIV))
            big = rng.random() < 0.3
            d1, d2 = big_denominators(rng) if big else (0, 0)
            if family is Family.PIII:
                a = (group_coord(rng, d1), group_coord(rng, d1))
                gens = tuple(P3Generator)
            else:
                a = p4_vector(rng, d1)
                gens = p4_gens
            if rng.random() < 0.5:
                b = oracles.fraction_word(random_word(rng, family, gens,
                                                      rng.randint(0, 5)), a)
                kind = "related"
            elif family is Family.PIII:
                b, kind = (group_coord(rng, d2), group_coord(rng, d2)), "unrelated"
            else:
                b, kind = p4_vector(rng, d2), "unrelated"
            n = rng.choice((0, 1, 2, 3, 4, 5, 6))
            yield f"{kind}-{family.value}-{'big' if big else 'small'}-{n == 0}", a, b, family, n

    def test_reduce_agrees(self):
        rng = random.Random(19)
        kinds = Counter()
        for kind, v, steps in self.reduce_cases(rng):
            got = self.outcome(reduce_to_fundamental_region_p4, v, steps)
            assert got == self.outcome(oracles.greedy_reduce_p4, v, steps), (v, steps)
            assert in_fundamental_region_p4(v) is oracles.in_region_p4(v)
            if kind == "region":
                assert got == (v, GroupWord(Family.PIV))
            kinds[kind] += 1
            kinds[f"steps-{steps}-{got[0] == 'budget'}"] += 1
        assert {"tie-0", "tie-1", "tie-2", "region", "big", "far",
                "steps-1-True", "steps-200-True", "steps-10000-True",
                "steps-200-False", "steps-10000-False"} <= kinds.keys(), kinds

    def test_orbit_agrees(self):
        rng = random.Random(23)
        kinds = Counter()
        for kind, a, b, family, n in self.orbit_cases(rng):
            got = orbit_search(a, b, family, n)
            assert got == oracles.orbit_bfs(a, b, family, n), (a, b, n)
            kinds[kind] += 1
            kinds[type(got).__name__] += 1
        # every kind of pair, on p3 and p4, with small and big denominators,
        # searched to length 0 and beyond, and both verdicts
        assert len(kinds) == 2 * 2 * 2 * 2 + 2 and kinds["Related"] > 300, kinds

    def test_words_agree(self):
        # words over all four p4 generators, tminus (a shift by thirds)
        # included, and the round trip s0 tminus = tminus s1 s2 s1
        rng = random.Random(29)
        all_gens = tuple(P4Generator)
        for _ in range(300):
            v = p4_vector(rng, big_denominators(rng)[0] if rng.random() < 0.3 else 0)
            word = random_word(rng, Family.PIV, all_gens, rng.randint(1, 8))
            assert apply_word(word, v) == oracles.fraction_word(word, v)
            p3 = (group_coord(rng), group_coord(rng))
            word = random_word(rng, Family.PIII, tuple(P3Generator), rng.randint(1, 8))
            assert apply_word(word, p3) == oracles.fraction_word(word, p3)
            left = GroupWord(Family.PIV, (P4Generator.S0, P4Generator.TMINUS))
            right = GroupWord(Family.PIV, (P4Generator.TMINUS, P4Generator.S1,
                                           P4Generator.S2, P4Generator.S1))
            assert apply_word(left, v) == apply_word(right, v)


class TestTextEquivalence:
    """The shipped equations against a fresh parse of their texts: the
    templates parsed and then substituted, and the texts the slope field and
    the first integral were once printed from."""

    FAMILIES = (Family.PII, Family.PIII, Family.PIV, Family.PV, Family.XC)

    @staticmethod
    def vector(rng, family):
        n = models.PARAM_COUNT[family]
        v = [rng.choice(tuple(SpecialValue)) if rng.random() < 0.25
             else CR(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(n)]
        if family in (Family.PIV, Family.PV) and all(isinstance(c, CR) for c in v):
            v[-1] = (-sum(v[:-1], QI())).exact()
        return FamilyInstance(family, tuple(v))

    @staticmethod
    def fresh(inst):
        variables, names, texts, _ = models._SYSTEM_TEMPLATES[inst.family]
        texts = oracles.HAMILTONIAN_FIELDS.get(inst.family, texts)
        env = {Var(False, name): qi(c).re for name, c in zip(names, inst.params)
               if isinstance(c, CR)}
        return tuple(rf(text, params=names, variables=variables).substitute(env)
                     for text in texts)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_system_rhs_matches_fresh_parse(self, family):
        rng = random.Random(f"system-{family.value}")
        tagged = 0
        for _ in range(30):
            inst = self.vector(rng, family)
            tagged += any(isinstance(c, SpecialValue) for c in inst.params)
            assert system_rhs(inst).rhs == self.fresh(inst), inst
        assert tagged

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_cached_forms_unaltered(self, family):
        rng = random.Random(f"order-{family.value}")
        first, second = self.vector(rng, family), self.vector(rng, family)
        models._parsed.cache_clear()
        models._field.cache_clear()
        forward = [system_rhs(first).rhs, system_rhs(second).rhs]
        models._parsed.cache_clear()
        models._field.cache_clear()
        backward = [system_rhs(second).rhs, system_rhs(first).rhs]
        assert forward == backward[::-1] == [self.fresh(first), self.fresh(second)]

    def test_slope_field(self):
        for c in range(-5, 46):
            dx, dy = system_rhs(FamilyInstance(Family.XC, crs(c))).rhs
            assert dy / dx == rf(f"y*(y-1)/(x*({c}*y + y - {c}))",
                                 variables=("x", "y")), c

    def test_first_integral(self):
        for c in range(46):
            for convention, numerator in (("y_minus_one", "(y - 1)"),
                                          ("one_minus_y", "(1 - y)")):
                text = f"y^{c}*{numerator}/x" if c else f"{numerator}/x"
                assert xc_first_integral(c, convention) == \
                    rf(text, variables=("x", "y")), (c, convention)


class TestFixtures:
    def test_riccati_signs(self):
        assert riccati_curve("plus") == rf("y^2 + t/2", variables=("y",))
        assert riccati_curve("minus") == rf("-y^2 - t/2", variables=("y",))
        with pytest.raises(ValueError):
            riccati_curve("up")

    def test_first_integral_conventions(self):
        assert xc_first_integral(2) == rf("y^2*(y-1)/x")
        assert xc_first_integral(2, "one_minus_y") == rf("y^2*(1-y)/x")
        assert xc_first_integral(0) == rf("(y-1)/x")
        with pytest.raises(ConstraintError):
            xc_first_integral(-1)
        with pytest.raises(ValueError):
            xc_first_integral(2, "sideways")
