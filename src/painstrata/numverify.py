"""Floating-point trajectory checks: residuals, conservation drift, blow-up.

The integrator is an adaptive Dormand-Prince 5(4) embedded pair.  Blow-up is
an expected event, not an error: trajectories of these systems have movable
poles, and detecting them (threshold crossing or step-size collapse) is part
of the contract.  All integration is real-valued on windows inside smooth
real regions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Sequence

from .exactnum import ConstraintError
from .models import SystemRHS
from .ratfunc import RationalFunction, Var
from .symbolic import FirstOrderCurve, T, total_derivative_rf

BLOWUP = "BlowUp"
POLE_PROXIMITY = "PoleProximity"

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-10
DEFAULT_BLOWUP_THRESHOLD = 1e8

# step-size collapse bound, relative to the window length
_MIN_STEP_FACTOR = 1e-13
# the smallest relative tolerance an RK45 step can honour in double precision
# (the floor scipy's RK45 applies)
_MIN_REL_TOL = 100 * sys.float_info.epsilon


class SingularInitialState(ValueError):
    """The right-hand side cannot be evaluated at the initial state."""


class PoleOnTrajectory(ValueError):
    """A candidate function hits a pole at a trajectory sample."""


class RegionViolation(ValueError):
    """A sample leaves the region where every logarithm is real."""


@dataclass(frozen=True)
class Event:
    kind: str
    t: float


@dataclass
class Trajectory:
    variables: tuple[str, ...]
    samples: list[tuple[float, tuple[float, ...]]]
    events: list[Event] = field(default_factory=list)
    error_estimate: float = 0.0
    residuals: list[float] | None = None
    drifts: list[float] | None = None

    @property
    def completed(self) -> bool:
        return not self.events

    @property
    def terminal_time(self) -> float:
        return self.samples[-1][0]

    @property
    def terminal_state(self) -> tuple[float, ...]:
        return self.samples[-1][1]


@dataclass(frozen=True)
class IntegrationSpec:
    system: SystemRHS
    t0: float
    t1: float
    initial_state: tuple[float, ...]
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "initial_state",
                           tuple(float(x) for x in self.initial_state))
        if not _finite((self.t0, self.t1, *self.initial_state)):
            raise ConstraintError("the window and the initial state must be finite")
        if not (_finite((self.rel_tol, self.abs_tol)) and self.abs_tol > 0):
            raise ConstraintError("tolerances must be positive and finite")
        if self.rel_tol < _MIN_REL_TOL:
            raise ConstraintError(f"relative tolerance must be at least {_MIN_REL_TOL!r}")
        if not self.blowup_threshold > 0:
            raise ConstraintError("the blow-up threshold must be positive")
        if math.isinf(self.blowup_threshold):
            raise ConstraintError("the blow-up threshold must be finite")
        if not self.t1 > self.t0:
            raise ConstraintError("need t1 > t0")
        if not math.isfinite(self.t1 - self.t0):
            raise ConstraintError("the window length t1 - t0 must be finite")
        if len(self.initial_state) != len(self.system.variables):
            raise ConstraintError("initial state does not match the system arity")
        free = self.system.free_parameters()
        if free:
            raise ConstraintError(f"system still has symbolic parameters {sorted(free)}; "
                                  "substitute concrete values before integrating")
        for s in self.system.t_singularities:
            if self.t0 <= float(s) <= self.t1:
                raise ConstraintError(f"window contains the fixed singularity t = {s}")


# terms per generated line: the compiler recurses once per ``+`` of a line
_TERMS_PER_LINE = 64


def compile_rf(rhs: Sequence[RationalFunction], variables: Sequence[str]) -> Callable:
    """Generate one float evaluator ``field(state, t) -> list[float]``.

    The source holds only float literals, the names ``y0..yn`` (the state
    in ``variables`` order) and ``t``, and integer exponents.  It computes
    what a term-by-term interpreter would, bit for bit: each polynomial is
    ``0.0`` plus its terms in dict order, each term multiplies its
    coefficient by ``base ** exp`` left to right (a coefficient of 1.0, an
    exponent of 1 and a denominator of 1 are left out, all exact), and the
    components are evaluated in order, so the first ``ZeroDivisionError``
    or ``OverflowError`` is the same one too.
    """
    state = [f"y{i}" for i in range(len(variables))]
    names = {T: "t", **{Var(True, name): y for name, y in zip(variables, state)}}
    lines = ["def field(state, t):"]
    if state:
        lines.append(f"    {', '.join(state)}, = state")
    for i, f in enumerate(rhs):
        lines += _sum_lines("n", f.num, names)
        if f.den.is_one():
            lines.append(f"    f{i} = n")
        else:
            lines += _sum_lines("d", f.den, names)
            lines.append(f"    f{i} = n / d")
    lines.append(f"    return [{', '.join(f'f{i}' for i in range(len(rhs)))}]")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["field"]


def _sum_lines(var: str, poly, names) -> list[str]:
    """Lines setting ``var`` to ``0.0 + term + term ...``, added left to right."""
    terms = [_term(mono, coeff, names) for mono, coeff in poly.terms.items()]
    lines, acc = [], "0.0"
    for i in range(0, len(terms), _TERMS_PER_LINE):
        lines.append(f"    {var} = {' + '.join([acc, *terms[i:i + _TERMS_PER_LINE]])}")
        acc = var
    return lines or [f"    {var} = 0.0"]


def _term(mono, coeff, names) -> str:
    try:
        c = float(coeff)
    except OverflowError:
        raise ConstraintError(f"the coefficient {coeff} does not fit a float") from None
    factors = [] if c == 1.0 and mono else [repr(c)]
    for var, exp in mono:
        if var not in names:
            raise ValueError(f"unbound variable {var} in numeric evaluation")
        factors.append(names[var] if exp == 1 else f"{names[var]}**{exp}")
    return " * ".join(factors)


# Dormand-Prince 5(4) tableau.  The last row of _A is also the fifth-order
# weights (the seventh weight is zero), so the last stage state is y5 and the
# last stage f(t+h, y5) is the next step's first ("first same as last").
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


# (c_s, a_s) of each stage after the first
_STAGES = tuple(zip(_C[1:], _A[1:]))


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def integrate(spec: IntegrationSpec) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration with event detection.

    A BlowUp event is declared when any state magnitude reaches the blow-up
    threshold or the step size collapses below ``1e-13 * (t1 - t0)``; when
    the collapse is caused by a vanishing denominator at moderate state size,
    a PoleProximity event is recorded as well.  Events terminate sampling.

    Each stage state is ``y + h * sum(a_s[j] * k_j)`` per component, summed
    by the builtin ``sum`` over the stage's whole row, zeros included: the
    builtin is compensated from Python 3.12 on, so a chain of ``+`` would
    round differently there and move every trajectory.
    """
    evaluate = compile_rf(spec.system.rhs, spec.system.variables)

    def deriv(t, y):
        out = evaluate(y, t)
        if not _finite(out):
            raise ZeroDivisionError("right-hand side is not finite")
        return out

    t, y = spec.t0, spec.initial_state
    try:
        k1 = deriv(t, y)
    except (ZeroDivisionError, OverflowError) as exc:
        raise SingularInitialState(
            f"cannot evaluate the field at the initial state: {exc}") from exc

    window = spec.t1 - spec.t0
    h_min = _MIN_STEP_FACTOR * window
    h = window / 100.0
    traj = Trajectory(spec.system.variables, [(t, y)])
    err_total = 0.0
    pole_suspect = False

    while t < spec.t1:
        h = min(h, spec.t1 - t)
        failed = False
        try:
            k = [k1]
            for c, row in _STAGES:
                ys = [yi + h * sum(map(mul, row, col)) for yi, col in zip(y, zip(*k))]
                if not _finite(ys):
                    raise OverflowError("stage state overflow")
                k.append(deriv(t + c * h, ys))
        except (ZeroDivisionError, OverflowError) as exc:
            failed = True
            pole_suspect = isinstance(exc, ZeroDivisionError)
        if not failed:
            y5 = ys
            y4 = [yi + h * sum(map(mul, _B4, col)) for yi, col in zip(y, zip(*k))]
            if not _finite(y4):
                failed = True
                pole_suspect = False
        if failed:
            h *= 0.5
            if h < h_min:
                if pole_suspect and max(map(abs, y)) < spec.blowup_threshold:
                    traj.events.append(Event(POLE_PROXIMITY, t))
                traj.events.append(Event(BLOWUP, t))
                return traj
            continue

        err = max(abs(a - b) / (spec.abs_tol + spec.rel_tol * max(abs(yi), abs(a)))
                  for yi, a, b in zip(y, y5, y4))
        if err <= 1.0:
            t += h
            y, k1 = tuple(y5), k[6]
            traj.samples.append((t, y))
            err_total += max(abs(a - b) for a, b in zip(y5, y4))
            if max(map(abs, y)) >= spec.blowup_threshold:
                traj.events.append(Event(BLOWUP, t))
                break
            factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < h_min:
                if max(map(abs, y)) < spec.blowup_threshold:
                    traj.events.append(Event(POLE_PROXIMITY, t))
                traj.events.append(Event(BLOWUP, t))
                break
    traj.error_estimate = err_total
    return traj


def residual_second_order(traj: Trajectory, curve: FirstOrderCurve,
                          target_rhs: RationalFunction) -> float:
    """Max residual of the implied second derivative against a target.

    The trajectory must come from integrating the curve as a one-dimensional
    system; the second derivative along it is the total derivative of the
    curve's right side, as in ``verify_subvariety``, and the first derivative
    is substituted from the curve there and in the target.
    """
    if traj.variables != (curve.variable,):
        raise ValueError("trajectory was not produced by this curve")
    on_curve = {Var(True, curve.variable, 1): curve.rhs}
    both = compile_rf((total_derivative_rf(curve.rhs).substitute(on_curve),
                       target_rhs.substitute(on_curve)), traj.variables)
    residuals = []
    for t, state in traj.samples:
        try:
            implied, target = both(state, t)
            residuals.append(abs(implied - target))
        except ZeroDivisionError as exc:
            raise PoleOnTrajectory(f"residual has a pole at t = {t}") from exc
    traj.residuals = residuals
    return max(residuals)


def conservation_drift(traj: Trajectory, f: RationalFunction) -> float:
    """Max deviation of a candidate first integral from its initial value."""
    fn = compile_rf((f,), traj.variables)
    drifts = []
    base = None
    for t, state in traj.samples:
        try:
            value, = fn(state, t)
        except ZeroDivisionError as exc:
            raise PoleOnTrajectory(f"candidate has a pole at t = {t}") from exc
        if not math.isfinite(value):
            raise PoleOnTrajectory(f"candidate is not finite at t = {t}")
        if base is None:
            base = value
        drifts.append(abs(value - base))
    traj.drifts = drifts
    return max(drifts)


def log_relation_drift(traj: Trajectory, c: float) -> float:
    """Max drift of  c*log(y) + log(1-y) - log(x)  along a plane trajectory.

    Valid for arbitrary real c (the route for non-integer coupling, where no
    exact candidate exists); requires x > 0 and 0 < y < 1 at every sample.
    """
    if len(traj.variables) != 2:
        raise ValueError("expected a plane trajectory")
    drifts = []
    base = None
    for t, (x, y) in traj.samples:
        if not (x > 0 and 0 < y < 1):
            raise RegionViolation(
                f"sample at t = {t} leaves the region x > 0, 0 < y < 1")
        value = c * math.log(y) + math.log(1 - y) - math.log(x)
        if base is None:
            base = value
        drifts.append(abs(value - base))
    traj.drifts = drifts
    return max(drifts)


def export_csv(traj: Trajectory, stream) -> None:
    """Write samples as CSV; events become trailing comment lines."""
    header = ["t", *traj.variables, "residual", "drift"]
    stream.write(",".join(header) + "\n")
    for i, (t, state) in enumerate(traj.samples):
        row = [repr(t), *(repr(v) for v in state)]
        row.append(repr(traj.residuals[i]) if traj.residuals else "")
        row.append(repr(traj.drifts[i]) if traj.drifts else "")
        stream.write(",".join(row) + "\n")
    for event in traj.events:
        stream.write(f"# event {event.kind} t={event.t!r}\n")
