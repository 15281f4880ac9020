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
from typing import Callable, Sequence

from .exactnum import ConstraintError
from .models import SystemRHS
from .ratfunc import RationalFunction
from .symbolic import DiffVar, FirstOrderCurve, T_NAME, total_derivative_rf

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


def compile_rf(f: RationalFunction, variables: Sequence[str]) -> Callable:
    """Compile a rational function to a float evaluator over (state, t)."""
    index = {DiffVar(name, 0): i for i, name in enumerate(variables)}

    def pack(poly):
        terms = []
        for mono, coeff in poly.terms.items():
            factors = []
            for var, exp in mono:
                if var == T_NAME:
                    factors.append((-1, exp))
                elif var in index:
                    factors.append((index[var], exp))
                else:
                    raise ValueError(f"unbound variable {var} in numeric evaluation")
            terms.append((float(coeff), tuple(factors)))
        return tuple(terms)

    num_terms = pack(f.num)
    den_terms = pack(f.den)

    def evaluate(state, t):
        num = 0.0
        for c, factors in num_terms:
            for i, e in factors:
                c *= (t if i < 0 else state[i]) ** e
            num += c
        den = 0.0
        for c, factors in den_terms:
            for i, e in factors:
                c *= (t if i < 0 else state[i]) ** e
            den += c
        return num / den

    return evaluate


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


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def integrate(spec: IntegrationSpec) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration with event detection.

    A BlowUp event is declared when any state magnitude reaches the blow-up
    threshold or the step size collapses below ``1e-13 * (t1 - t0)``; when
    the collapse is caused by a vanishing denominator at moderate state size,
    a PoleProximity event is recorded as well.  Events terminate sampling.
    """
    fs = [compile_rf(f, spec.system.variables) for f in spec.system.rhs]
    n = len(fs)

    def deriv(t, y):
        out = [f(y, t) for f in fs]
        if not _finite(out):
            raise ZeroDivisionError("right-hand side is not finite")
        return out

    t, y = spec.t0, tuple(spec.initial_state)
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
            for stage in range(1, 7):
                ts = t + _C[stage] * h
                ys = tuple(
                    y[i] + h * sum(_A[stage][j] * k[j][i] for j in range(stage))
                    for i in range(n))
                if not _finite(ys):
                    raise OverflowError("stage state overflow")
                k.append(deriv(ts, ys))
        except (ZeroDivisionError, OverflowError) as exc:
            failed = True
            pole_suspect = isinstance(exc, ZeroDivisionError)
        if not failed:
            y5 = ys
            y4 = tuple(y[i] + h * sum(_B4[j] * k[j][i] for j in range(7))
                       for i in range(n))
            if not _finite(y4):
                failed = True
                pole_suspect = False
        if failed:
            h *= 0.5
            if h < h_min:
                if pole_suspect and max(abs(v) for v in y) < spec.blowup_threshold:
                    traj.events.append(Event(POLE_PROXIMITY, t))
                traj.events.append(Event(BLOWUP, t))
                return traj
            continue

        err = max(abs(a - b) / (spec.abs_tol + spec.rel_tol * max(abs(y[i]), abs(a)))
                  for i, (a, b) in enumerate(zip(y5, y4)))
        if err <= 1.0:
            t += h
            y, k1 = y5, k[6]
            traj.samples.append((t, y))
            err_total += max(abs(a - b) for a, b in zip(y5, y4))
            if max(abs(v) for v in y) >= spec.blowup_threshold:
                traj.events.append(Event(BLOWUP, t))
                break
            factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < h_min:
                if max(abs(v) for v in y) < spec.blowup_threshold:
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
    on_curve = {DiffVar(curve.variable, 1): curve.rhs}
    implied = compile_rf(total_derivative_rf(curve.rhs).substitute(on_curve),
                         traj.variables)
    target = compile_rf(target_rhs.substitute(on_curve), traj.variables)
    residuals = []
    for t, state in traj.samples:
        try:
            residuals.append(abs(implied(state, t) - target(state, t)))
        except ZeroDivisionError as exc:
            raise PoleOnTrajectory(f"residual has a pole at t = {t}") from exc
    traj.residuals = residuals
    return max(residuals)


def conservation_drift(traj: Trajectory, f: RationalFunction) -> float:
    """Max deviation of a candidate first integral from its initial value."""
    fn = compile_rf(f, traj.variables)
    drifts = []
    base = None
    for t, state in traj.samples:
        try:
            value = fn(state, t)
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
