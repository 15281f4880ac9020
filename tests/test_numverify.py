"""Integrator accuracy and bit identity with the reference loop, the
generated field and its template cache, drift checks, events and CSV
export."""

import collections
import hashlib
import io
import math
import random
from fractions import Fraction

import pytest

from painstrata import numverify
from painstrata.exactnum import ComplexRational, ConstraintError
from painstrata.models import Family, FamilyInstance, SystemRHS, riccati_curve, \
    system_rhs, xc_first_integral
from painstrata.numverify import (
    BLOWUP,
    DEFAULT_BLOWUP_THRESHOLD,
    IntegrationSpec,
    POLE_PROXIMITY,
    PoleOnTrajectory,
    RegionViolation,
    SingularInitialState,
    Trajectory,
    conservation_drift,
    export_csv,
    integrate,
    log_relation_drift,
)
from painstrata.ratfunc import Polynomial, Var
from painstrata.symbolic import rf

import oracles

CR = ComplexRational


def one_dim(text: str) -> SystemRHS:
    return SystemRHS(Family.XC, ("y",), (rf(text, variables=("y",)),))


def xc_system(c) -> SystemRHS:
    return system_rhs(FamilyInstance(Family.XC, (CR(Fraction(c)),)))


def reference(case, counts=None) -> str:
    """The reference loop's outcome on a ``random_ivp_case`` tuple: the repr
    of its samples, events and error estimate, or the exception's name."""
    rhs, variables, t0, t1, init, tol, threshold = case

    def field(state, t):
        return oracles.evaluate_terms(rhs, variables, state, t)
    try:
        return repr(oracles.dormand_prince(field, t0, t1, init, tol, tol, threshold, counts))
    except (ZeroDivisionError, OverflowError):
        return "SingularInitialState"


def integrated(case) -> str:
    """``integrate``'s outcome on the same tuple, in the same form."""
    rhs, variables, t0, t1, init, tol, threshold = case
    spec = IntegrationSpec(SystemRHS(Family.XC, variables, rhs), t0, t1, init,
                           tol=tol, blowup_threshold=threshold)
    try:
        traj = integrate(spec)
    except SingularInitialState:
        return "SingularInitialState"
    return repr((traj.samples, [(e.kind, e.t) for e in traj.events], traj.error_estimate))


class TestIntegrator:
    def test_exponential_oracle(self):
        traj = integrate(IntegrationSpec(one_dim("y"), 0.0, 1.0, (1.0,)))
        assert traj.completed
        assert abs(traj.terminal_state[0] - math.e) < 1e-8

    def test_logistic_style_oracle(self):
        # y' = -y^2 from y(0) = 1 solves to 1/(1+t)
        traj = integrate(IntegrationSpec(one_dim("-y^2"), 0.0, 0.5, (1.0,)))
        assert abs(traj.terminal_state[0] - 1 / 1.5) < 1e-9

    def test_xc_standard_window_completes(self):
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (1.0, 0.5)))
        assert traj.completed
        assert traj.samples[0] == (0.0, (1.0, 0.5))
        ts = [t for t, _ in traj.samples]
        assert ts == sorted(ts)

    # each shipped system beside its field written out by hand
    @pytest.mark.parametrize("family,params,field,init,window", [
        ("xc", ("2",), lambda t, s: (3 * s[1] - 2, s[1] * (s[1] - 1) / s[0]),
         (1.0, 0.5), (0.0, 0.3)),
        ("p2", ("1/2",), lambda t, s: (s[1], 2 * s[0] ** 3 + t * s[0] + 0.5),
         (0.3, -0.2), (0.0, 1.0)),
        ("p4", ("1/2", "-1/3", "-1/6"),
         lambda t, s: (2 * s[1] * s[0] - s[0] ** 2 - 2 * t * s[0] + 5 / 3,
                       2 * s[1] * s[0] - s[1] ** 2 + 2 * t * s[1] + 4 / 3),
         (0.2, -0.1), (0.0, 0.4)),
    ])
    def test_scipy_rk45_oracle(self, family, params, field, init, window):
        # scipy's RK45 is also Dormand-Prince 5(4): every sample must sit on
        # its dense output
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        system = system_rhs(FamilyInstance.from_strings(family, params))
        traj = integrate(IntegrationSpec(system, *window, init, tol=1e-11))
        ref = solve_ivp(field, window, init, method="RK45", rtol=1e-12,
                        atol=1e-12, dense_output=True)
        assert traj.completed and ref.success
        assert len(traj.samples) > 10
        for t, state in traj.samples:
            for a, b in zip(state, ref.sol(t)):
                assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_first_same_as_last(self):
        # an accepted step's last stage f(t+h, y5) is the next step's first,
        # so no field evaluation repeats a point, and every attempted step
        # (rejected ones included) costs six after the initial probe; counted
        # on the reference loop, which the integrator matches bit for bit
        system, calls = xc_system(2), []

        def counted(state, t):
            calls.append((t, tuple(state)))
            return oracles.evaluate_terms(system.rhs, system.variables, state, t)
        ref = oracles.dormand_prince(counted, 0.0, 0.3, (1.0, 0.5), 1e-12, 1e-12,
                                     DEFAULT_BLOWUP_THRESHOLD)
        assert integrated((system.rhs, system.variables, 0.0, 0.3, (1.0, 0.5), 1e-12,
                           DEFAULT_BLOWUP_THRESHOLD)) == repr(ref)
        assert len(set(calls)) == len(calls)
        assert (len(calls) - 1) % 6 == 0
        assert len(calls) >= 1 + 6 * (len(ref[0]) - 1)

    def test_bit_identical_to_reference_loop(self):
        # samples, events and error estimate, by repr, on curves and plane
        # systems that reject steps, blow up, meet poles, overflow a stage
        # state or divide by zero at a stage
        counts, events, dims = collections.Counter(), collections.Counter(), set()
        for seed in range(1000):
            case = oracles.random_ivp_case(random.Random(f"ivp:{seed}"))
            outcomes = {}
            expected = reference(case, counts=outcomes)
            assert integrated(case) == expected, seed
            counts.update(outcomes.keys())
            events.update(kind for kind in ("BlowUp", "PoleProximity",
                                            "SingularInitialState") if kind in expected)
            dims.add(len(case[1]))
        assert dims == {1, 2}
        for outcome in ("accepted", "rejected", "vanishing denominator", "stage overflow"):
            assert counts[outcome] >= 20, (outcome, counts)
        for kind in ("BlowUp", "PoleProximity", "SingularInitialState"):
            assert events[kind] >= 20, (kind, events)

    # (family, params, init, t0, t1, tol): a completing window per family,
    # a P_II blow-up at the tightest documented tol, and a pole approach
    # that rejects steps
    PINNED = [
        ("p2", ("1/2",), (0.3, -0.2), 0.0, 1.0, 1e-10),
        ("p3", ("1/3", "-2"), (0.5, 0.1), 1.0, 1.5, 1e-10),
        ("p4", ("1/2", "-1/3", "-1/6"), (0.2, -0.1), 0.0, 0.5, 1e-10),
        ("p5", ("1/2", "-1/3", "-1/6", "0"), (0.4, 0.1), 1.0, 1.5, 1e-10),
        ("xc", ("2",), (1.0, 0.5), 0.0, 0.3, 1e-10),
        ("p2", ("0",), (2.0, 0.0), 0.0, 2.0, 1e-12),
        ("xc", ("2",), (0.05, 0.5), 0.0, 2.0, 1e-8),
    ]
    # recorded from the step that summed each row with the builtin ``sum``,
    # under Python 3.11, whose ``sum`` of floats is the same left-to-right
    # chain from 0.0 that the step now writes out
    PINNED_SHA256 = "a6964c8d95b41012248843cf12f5d01c0b93a0c155f2c3b5a193e5775b24fd13"

    def test_trajectory_bits_pinned(self, monkeypatch):
        sources = []

        def recording(source, namespace):
            sources.append(source)
            exec(source, namespace)
        numverify._template.cache_clear()
        monkeypatch.setattr(numverify, "exec", recording, raising=False)
        outcomes, kinds = [], []
        for family, params, init, t0, t1, tol in self.PINNED:
            system = system_rhs(FamilyInstance.from_strings(family, params))
            traj = integrate(IntegrationSpec(system, t0, t1, init, tol=tol))
            events = [(e.kind, e.t) for e in traj.events]
            outcomes.append(repr((traj.samples, events, traj.error_estimate)))
            kinds.append([kind for kind, _ in events])
        assert kinds == [[]] * 5 + [[BLOWUP], [POLE_PROXIMITY, BLOWUP]]
        # the last case rejects steps, as counted on the reference loop
        counts = {}
        reference(
            (system.rhs, system.variables, t0, t1, init, tol, DEFAULT_BLOWUP_THRESHOLD),
            counts)
        assert counts["rejected"] > 0
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.PINNED_SHA256
        # the rounding is the code's own, not the interpreter's ``sum``
        assert sources and not any("sum(" in source for source in sources)

    def test_riccati_window_completes(self):
        traj = integrate(IntegrationSpec(one_dim("-y^2 - t/2"), 0.0, 0.5, (1.0,)))
        assert traj.completed

    def test_p2_blowup_event(self):
        sys = system_rhs(FamilyInstance(Family.PII, (CR(Fraction(0)),)))
        traj = integrate(IntegrationSpec(sys, 0.0, 2.0, (2.0, 0.0)))
        assert traj.events and traj.events[-1].kind == BLOWUP
        assert traj.events[-1].t < 2.0

    def test_blowup_time_stable_under_tolerance_halving(self):
        sys = system_rhs(FamilyInstance(Family.PII, (CR(Fraction(0)),)))
        a = integrate(IntegrationSpec(sys, 0.0, 2.0, (2.0, 0.0)))
        b = integrate(IntegrationSpec(sys, 0.0, 2.0, (2.0, 0.0), tol=5e-11))
        assert abs(a.events[-1].t - b.events[-1].t) < 1e-3

    def test_self_consistency_estimate(self):
        spec = IntegrationSpec(one_dim("-y^2 - t/2"), 0.0, 0.5, (1.0,))
        traj = integrate(spec)
        half = integrate(IntegrationSpec(one_dim("-y^2 - t/2"), 0.0, 0.5, (1.0,),
                                         tol=5e-11))
        diff = abs(traj.terminal_state[0] - half.terminal_state[0])
        assert diff < 10 * traj.error_estimate

    def test_time_reversal_sanity(self):
        sys = xc_system(2)
        fwd = integrate(IntegrationSpec(sys, 0.0, 0.3, (1.0, 0.5)))
        negated = SystemRHS(sys.family, sys.variables, tuple(-f for f in sys.rhs))
        back = integrate(IntegrationSpec(negated, 0.0, 0.3, fwd.terminal_state))
        assert fwd.completed and back.completed
        assert max(abs(a - b) for a, b in
                   zip(back.terminal_state, (1.0, 0.5))) < 1e-7

    def test_collapse_after_failed_steps_keeps_error_estimate(self):
        # near the pole of y' = y^2 the stages overflow until the step
        # collapses; the accepted steps before that still count
        traj = integrate(IntegrationSpec(one_dim("y^2"), 0.0, 2e-140, (1e140,),
                                         blowup_threshold=1e300))
        assert len(traj.samples) > 1
        assert traj.events[-1].kind == BLOWUP
        assert traj.error_estimate > 0

    def test_pole_approach_is_event_not_error(self):
        # x' < 0 while y < 2/3 drives x toward 0 where y' blows up
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 2.0, (0.05, 0.5)))
        assert traj.events
        assert {e.kind for e in traj.events} <= {BLOWUP, POLE_PROXIMITY}

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the first step is a hundredth "
                       "of the window and h_min = 1e-13 * window, so a smooth start "
                       "reports BlowUp at t0")
    def test_long_window_starts_smoothly(self):
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 1e300, (1.0, 0.5)))
        assert not traj.events or traj.events[0].t > 0.0

    def test_singular_initial_state(self):
        with pytest.raises(SingularInitialState):
            integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (0.0, 0.5)))

    def test_window_may_not_contain_fixed_singularity(self):
        sys = system_rhs(FamilyInstance(Family.PIII, (CR(Fraction(0)),) * 2))
        with pytest.raises(ConstraintError, match="singularity"):
            IntegrationSpec(sys, -1.0, 1.0, (1.0, 1.0))
        IntegrationSpec(sys, 0.5, 1.0, (1.0, 1.0))  # fine

    def test_free_parameters_rejected(self):
        from painstrata.models import SpecialValue
        sys = system_rhs(FamilyInstance(Family.PII, (SpecialValue.GENERIC,)))
        with pytest.raises(ConstraintError) as err:
            IntegrationSpec(sys, 0.0, 1.0, (1.0, 0.0))
        assert str(err.value) == ("system still has symbolic parameters ['a']; "
                                  "substitute concrete values before integrating")

    def test_tolerance_validation(self):
        with pytest.raises(ConstraintError, match="^the tolerance must be positive and finite$"):
            IntegrationSpec(one_dim("y"), 0.0, 1.0, (1.0,), tol=0.0)
        with pytest.raises(ConstraintError, match="^the tolerance must be at least "):
            IntegrationSpec(one_dim("y"), 0.0, 1.0, (1.0,), tol=1e-30)
        with pytest.raises(ConstraintError):
            IntegrationSpec(one_dim("y"), 1.0, 0.0, (1.0,))

    @pytest.mark.parametrize("field, value, match", [
        ("t1", math.inf, "finite"),
        ("t0", -math.inf, "finite"),
        ("t1", math.nan, "finite"),
        ("initial_state", (math.nan,), "finite"),
        ("initial_state", (math.inf,), "finite"),
        ("tol", 1e-30, "at least"),
        ("tol", math.nan, "finite"),
        ("tol", math.inf, "finite"),
        ("blowup_threshold", -1.0, "blow-up threshold"),
        ("blowup_threshold", 0.0, "blow-up threshold"),
        ("blowup_threshold", math.nan, "blow-up threshold"),
        ("blowup_threshold", math.inf, "blow-up threshold must be finite"),
    ])
    def test_numeric_input_validation(self, field, value, match):
        spec = {"t0": 0.0, "t1": 1.0, "initial_state": (1.0,)}
        spec[field] = value
        with pytest.raises(ConstraintError, match=match):
            IntegrationSpec(one_dim("y"), **spec)

    def test_tolerance_floor_admits_the_documented_range(self):
        for tol in (1e-8, 1e-12, 2.3e-14):
            IntegrationSpec(one_dim("y"), 0.0, 1.0, (1.0,), tol=tol)


def outcome(evaluate):
    """The repr of an evaluator's floats, or the name of what it raised."""
    try:
        return repr(evaluate())
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


class TestCompiledField:
    def test_matches_term_by_term_evaluation(self):
        # bit for bit, and the same exception where one is raised: sums in
        # the same order from 0.0, powers by ** left to right
        for seed in range(2000):
            rhs, variables, points = oracles.random_field_case(
                random.Random(f"field:{seed}"))
            field = numverify.compile_rf(rhs, variables)
            for state, t in points:
                assert outcome(lambda: field(state, t)) == outcome(
                    lambda: oracles.evaluate_terms(rhs, variables, state, t)), \
                    (seed, state, t)

    def test_long_sum(self):
        # more terms than the compiler can nest in one expression
        y = Var(True, "y")
        rhs = (oracles.raw_quotient(Polynomial({((y, k),): k for k in range(1, 3001)}),
                                    Polynomial({(): 1})),)
        field = numverify.compile_rf(rhs, ("y",))
        assert repr(field([0.999], 0.0)) == repr(
            oracles.evaluate_terms(rhs, ("y",), [0.999], 0.0))

    def test_variable_names_do_not_reach_the_source(self):
        # names that would shadow the generated code's own locals
        variables = ("state", "n", "d", "f0")
        rhs = tuple(rf(text, variables=variables)
                    for text in ("state*n - d", "f0/(n + 1)", "t*state^2"))
        field = numverify.compile_rf(rhs, variables)
        assert field([2.0, 3.0, 0.5, 4.0], 1.5) == [5.5, 1.0, 6.0]

    def test_coefficient_beyond_float_range(self):
        huge = rf(f"y + {10 ** 400}", variables=("y",))
        with pytest.raises(ConstraintError, match=f"coefficient {10 ** 400} "):
            numverify.compile_rf((huge,), ("y",))


def numbers_in(key):
    """The floats and Fractions anywhere in a nested cache key."""
    if isinstance(key, (float, Fraction)):
        return [key]
    if isinstance(key, tuple):
        return [x for part in key for x in numbers_in(part)]
    return []


class TestTemplateCache:
    @pytest.fixture
    def cache(self, monkeypatch):
        """From a cold cache: the shape of every template ``compile_rf`` asks
        for, and the cache's ``cache_info``."""
        template, asked = numverify._template, []

        def recording(shape):
            asked.append(shape)
            return template(shape)
        template.cache_clear()
        monkeypatch.setattr(numverify, "_template", recording)
        yield asked, template.cache_info
        template.cache_clear()

    def test_one_template_serves_every_parameter_vector_of_a_shape(self, cache):
        shapes, info = cache
        # x' = (c+1)*y - c: neither coefficient is 1.0 at c = 2 or c = 3
        a = integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (1.0, 0.5)))
        b = integrate(IntegrationSpec(xc_system(3), 0.0, 0.3, (1.0, 0.5)))
        assert shapes[0] == shapes[1]
        assert info().misses == 1
        assert a.samples != b.samples
        # at c = 0 the coefficient of y is 1.0, which the template leaves out
        integrate(IntegrationSpec(xc_system(0), 0.0, 0.3, (1.0, 0.5)))
        assert info().misses == 2

    def test_keys_hold_no_numbers(self, cache):
        shapes, _ = cache
        for family, params, init, t0 in (("p2", ("1/2",), (0.3, -0.2), 0.0),
                                         ("p3", ("1/3", "-2"), (0.5, 0.1), 1.0),
                                         ("p4", ("1/2", "-1/3", "-1/6"), (0.2, -0.1), 0.0),
                                         ("p5", ("1/2", "-1/3", "-1/6", "0"), (0.4, 0.1), 1.0),
                                         ("xc", ("7/4",), (1.0, 0.5), 0.0)):
            system = system_rhs(FamilyInstance.from_strings(family, params))
            integrate(IntegrationSpec(system, t0, t0 + 0.3, init))
        conservation_drift(integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (1.0, 0.5))),
                           xc_first_integral(2))
        for shape in shapes:
            assert numbers_in(shape) == [], shape

    def test_step_follows_from_the_shape(self, cache):
        # y' = y and the candidate y on (y,) share one template: whether it
        # holds a step follows from the shape alone
        _, info = cache
        traj = integrate(IntegrationSpec(one_dim("y"), 0.0, 0.3, (1.0,)))
        conservation_drift(traj, rf("y", variables=("y",)))
        assert info().misses == 1

    def test_bounded(self, cache):
        shapes, info = cache
        bound = numverify._MAX_TEMPLATES
        for k in range(1, bound + 11):
            field = numverify.compile_rf((rf(f"x^{k}*y - 3", variables=("x", "y")),),
                                         ("x", "y"))
            assert field([2.0, 0.5], 0.0) == [2.0 ** k * 0.5 - 3.0]
        assert len(set(shapes)) == bound + 10
        assert info().currsize == bound


def riccati_drift(sign: str, fiber: Fraction) -> tuple[float, Trajectory]:
    """The drift of y1 - g along the (y, y1) system at alpha = fiber, started
    on the ``sign`` curve y1 = g at (t, y) = (0, 1), over [0, 1/2]."""
    g = riccati_curve(sign)
    system = system_rhs(FamilyInstance(Family.PII, (CR(fiber),)))
    start = (1.0, 1.0 if sign == "plus" else -1.0)
    traj = integrate(IntegrationSpec(system, 0.0, 0.5, start))
    assert traj.completed
    return conservation_drift(traj, rf("y1") - g), traj


class TestResiduals:
    def test_matched_residual_small(self):
        drift, traj = riccati_drift("minus", Fraction(-1, 2))
        assert drift < 1e-8
        assert traj.drifts[0] == 0.0
        assert max(traj.drifts) == drift

    def test_crossed_fiber_drifts(self):
        assert riccati_drift("minus", Fraction(1, 2))[0] > 0.1
        assert riccati_drift("plus", Fraction(-1, 2))[0] > 0.1

    def test_plus_branch_matches_its_fiber(self):
        assert riccati_drift("plus", Fraction(1, 2))[0] < 1e-8

    def test_trajectory_must_match_curve(self):
        # y1 - g names a variable the plane trajectory does not have
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (1.0, 0.5)))
        with pytest.raises(ValueError, match="unbound variable y1"):
            conservation_drift(traj, rf("y1") - riccati_curve("minus"))


class TestDrift:
    def test_conserved_candidate(self):
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (1.0, 0.5)))
        F = xc_first_integral(2)
        env = {Var(True, "x"): Fraction(1), Var(True, "y"): Fraction(1, 2)}
        assert F.substitute(env) == rf("-1/8")
        assert conservation_drift(traj, F) < 1e-6

    def test_non_conserved_candidate(self):
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (1.0, 0.5)))
        drift = conservation_drift(traj, rf("y", variables=("x", "y")))
        assert drift > 1e-3  # y moves away from 1/2 on this window

    def test_pole_on_trajectory(self):
        traj = Trajectory(("x", "y"), [(0.0, (1.0, 0.5)), (0.1, (0.0, 0.4))])
        with pytest.raises(PoleOnTrajectory):
            conservation_drift(traj, xc_first_integral(2))

    def test_overflowing_candidate(self):
        # x^400 overflows at x = 10: a typed error, not a bare OverflowError
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (10.0, 0.5)))
        with pytest.raises(PoleOnTrajectory, match="candidate is not finite at t = 0.0"):
            conservation_drift(traj, rf("x^400", variables=("x", "y")))
        assert traj.drifts is None

    def test_log_relation_not_finite(self):
        traj = Trajectory(("x", "y"), [(0.0, (1.0, 1e-300))])
        with pytest.raises(PoleOnTrajectory, match="log relation is not finite"):
            log_relation_drift(traj, 1e306)

    def test_log_relation_integer_agreement(self):
        for c in range(1, 6):
            sys = xc_system(c)
            t1 = integrate(IntegrationSpec(sys, 0.0, 0.3, (1.0, 0.5)))
            t2 = integrate(IntegrationSpec(sys, 0.0, 0.3, (1.0, 0.5)))
            assert conservation_drift(t1, xc_first_integral(c)) < 1e-6
            assert log_relation_drift(t2, float(c)) < 1e-6

    def test_log_relation_irrational(self):
        c = math.sqrt(2)
        traj = integrate(IntegrationSpec(xc_system(c), 0.0, 0.3, (1.0, 0.5)))
        assert log_relation_drift(traj, c) < 1e-6

    def test_region_violation(self):
        traj = Trajectory(("x", "y"), [(0.0, (1.0, 2.0))])
        with pytest.raises(RegionViolation):
            log_relation_drift(traj, 2.0)
        traj = Trajectory(("x", "y"), [(0.0, (-1.0, 0.5))])
        with pytest.raises(RegionViolation):
            log_relation_drift(traj, 2.0)


class TestExport:
    def test_csv_layout(self):
        traj = integrate(IntegrationSpec(xc_system(2), 0.0, 0.3, (1.0, 0.5)))
        conservation_drift(traj, xc_first_integral(2))
        buf = io.StringIO()
        export_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x,y,residual,drift"
        assert len(lines) == 1 + len(traj.samples)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert first[3] == ""  # residual never computed
        assert float(first[4]) == 0.0

    def test_csv_event_comment(self):
        sys = system_rhs(FamilyInstance(Family.PII, (CR(Fraction(0)),)))
        traj = integrate(IntegrationSpec(sys, 0.0, 2.0, (2.0, 0.0)))
        buf = io.StringIO()
        export_csv(traj, buf)
        tail = buf.getvalue().splitlines()[-1]
        assert tail.startswith("# event BlowUp t=")
