"""Floating-point trajectory checks: conservation drift and blow-up.

The integrator is an adaptive Dormand-Prince 5(4) embedded pair.  Blow-up is
an expected event, not an error: trajectories of these systems have movable
poles, and detecting them (threshold crossing or step-size collapse) is part
of the contract.  All integration is real-valued on windows inside smooth
real regions.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .exactnum import (ConstraintError, PoleOnTrajectory, RegionViolation,
                       SingularInitialState, printable)
from .models import DEFAULT_BLOWUP_THRESHOLD, DEFAULT_TOL, SystemRHS
from .ratfunc import RationalFunction, Var
from .symbolic import T

BLOWUP = "BlowUp"
POLE_PROXIMITY = "PoleProximity"

# step-size collapse bound, relative to the window length
_MIN_STEP_FACTOR = 1e-13
# the smallest relative tolerance an RK45 step can honour in double precision
# (the floor scipy's RK45 applies)
_MIN_TOL = 100 * sys.float_info.epsilon


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
    tol: float = DEFAULT_TOL
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "initial_state",
                           tuple(float(x) for x in self.initial_state))
        if not _finite((self.t0, self.t1, *self.initial_state)):
            raise ConstraintError("the window and the initial state must be finite")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConstraintError("the tolerance must be positive and finite")
        if self.tol < _MIN_TOL:
            raise ConstraintError(f"the tolerance must be at least {_MIN_TOL!r}")
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
# compiled templates kept at once, least recently used dropped first: the
# shipped systems at the parameters in use have a few dozen shapes
_MAX_TEMPLATES = 64


def compile_rf(rhs: Sequence[RationalFunction], variables: Sequence[str]) -> Callable:
    """A float evaluator ``field(state, t) -> list[float]`` of ``rhs``.

    The code is generated once per *shape* and kept in a bounded cache: the
    variables, each polynomial's monomials in dict order, which terms have a
    coefficient of exactly 1.0 (left out of the product) and which
    denominators are 1 (left out).  The float coefficients are bound to the
    shape's template on each call, so a shape compiled once serves every
    parameter vector that has it, and no cache key holds a number.

    The evaluator computes what a term-by-term interpreter would, bit for
    bit: each polynomial is ``0.0`` plus its terms in dict order, each term
    multiplies its coefficient by ``base ** exp`` left to right, and the
    components are evaluated in order, so the first ``ZeroDivisionError``
    or ``OverflowError`` is the same one too.

    With one right side per variable the field also carries
    ``field.step(t, y, k1, h, tol)``: one Dormand-Prince step
    with the field inlined at each stage, whose rows are sums of the same
    form, ``0.0`` plus their products left to right (see ``integrate``).
    """
    coeffs = []
    shape = [tuple(variables)]
    for f in rhs:
        shape.append((_support(f.num, coeffs),
                      None if f.den.is_one() else _support(f.den, coeffs)))
    return _template(tuple(shape))(coeffs)


def _support(poly, coeffs: list) -> tuple:
    """``poly``'s monomials in dict order, each paired with whether its term
    multiplies by a coefficient; those coefficients go to ``coeffs``."""
    support = []
    for mono, coeff in poly.terms.items():
        try:
            c = float(coeff)
        except OverflowError:
            raise ConstraintError(
                f"the coefficient {printable(coeff)} does not fit a float") from None
        scaled = not (c == 1.0 and mono)
        if scaled:
            coeffs.append(c)
        support.append((mono, scaled))
    return tuple(support)


@functools.lru_cache(maxsize=_MAX_TEMPLATES)
def _template(shape) -> Callable:
    """Compile ``bind(coeffs)`` for one shape.

    The source holds only float literals of the tableau, the names
    ``c0..`` (coefficients), ``y0..``/``s0..`` (state and stage state),
    ``t``/``ts``, ``k<stage>_<i>`` and a few temporaries, and integer
    exponents: never a variable name or user text.
    """
    variables, *parts = shape
    dim = len(variables)
    state = [f"y{i}" for i in range(dim)]
    n_coeffs = sum(scaled for part in parts for poly in part if poly
                   for _, scaled in poly)
    lines = ["def bind(coeffs):"]
    if n_coeffs:
        lines.append(f"    {', '.join(f'c{j}' for j in range(n_coeffs))}, = coeffs")
    lines.append("    def field(state, t):")
    if state:
        lines.append(f"        {', '.join(state)}, = state")
    outputs = [f"f{i}" for i in range(len(parts))]
    lines += _field_lines(parts, variables, state, "t", outputs)
    lines.append(f"        return [{', '.join(outputs)}]")
    if len(parts) == dim:
        lines += _step_lines(parts, variables)
        lines.append("    field.step = step")
    lines.append("    return field")
    namespace = {"isfinite": math.isfinite}
    exec("\n".join(lines), namespace)
    return namespace["bind"]


def _field_lines(parts, variables, state, time, outputs) -> list[str]:
    """Lines setting each name of ``outputs`` to its component of the field
    at (``state``, ``time``), one component after the other."""
    names = {T: time, **{Var(True, name): y for name, y in zip(variables, state)}}
    coeffs = itertools.count()
    lines = []
    for out, (num, den) in zip(outputs, parts):
        if den is None:
            lines += _sum_lines(out, num, names, coeffs)
        else:
            lines += _sum_lines("n", num, names, coeffs)
            lines += _sum_lines("d", den, names, coeffs)
            lines.append(f"        {out} = n / d")
    return lines


def _sum_lines(var: str, support, names, coeffs) -> list[str]:
    """Lines setting ``var`` to ``0.0 + term + term ...``, added left to right."""
    terms = [_term(mono, scaled, names, coeffs) for mono, scaled in support]
    lines, acc = [], "0.0"
    for i in range(0, len(terms), _TERMS_PER_LINE):
        lines.append(f"        {var} = {' + '.join([acc, *terms[i:i + _TERMS_PER_LINE]])}")
        acc = var
    return lines or [f"        {var} = 0.0"]


def _term(mono, scaled, names, coeffs) -> str:
    factors = [f"c{next(coeffs)}"] if scaled else []
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


def _step_lines(parts, variables) -> list[str]:
    """The source of ``step(t, y, k1, h, tol)``, nested in ``bind``.

    It computes the six stages after the first, each stage state followed
    by the field inlined at it, then y4 and the error norm, and returns
    ``(y5, k7, err, max|y5 - y4|)``.  It fails only by raising: a stage
    state or y4 that is not finite raises ``OverflowError``, a field output
    that is not finite ``ZeroDivisionError``, as ``n / 0.0`` does.

    Each component of a stage state and of y4 is one expression,
    ``y + h * (0.0 + w1 * k1 + w2 * k2 ...)``, added left to right, with
    the row's zero weights left out.  That changes no bit: the sum starts
    at +0.0, so it is never -0.0; every k is finite, so ``0.0 * k`` is
    ±0.0; and adding ±0.0 to such a sum leaves it as it was.
    """
    idx = range(len(variables))
    stage = [f"s{i}" for i in idx]

    def all_finite(names) -> str:
        return " and ".join(f"isfinite({name})" for name in names)

    def combination(i, weights) -> str:
        products = [f"{w!r} * k{j}_{i}" for j, w in enumerate(weights, 1) if w]
        return f"y{i} + h * ({' + '.join(['0.0', *products])})"

    def largest(items) -> str:
        return items[0] if len(items) == 1 else f"max({', '.join(items)})"

    lines = ["    def step(t, y, k1, h, tol):",
             f"        {''.join(f'y{i}, ' for i in idx)}= y",
             f"        {''.join(f'k1_{i}, ' for i in idx)}= k1"]
    autonomous = all(var != T for part in parts for poly in part if poly
                     for mono, _ in poly for var, _ in mono)
    for s, (c, row) in enumerate(_STAGES, 2):
        k = [f"k{s}_{i}" for i in idx]
        lines += [f"        {stage[i]} = {combination(i, row)}" for i in idx]
        lines += [f"        if not ({all_finite(stage)}):",
                  '            raise OverflowError("stage state overflow")',
                  *([] if autonomous else [f"        ts = t + {c!r} * h"]),
                  *_field_lines(parts, variables, stage, "ts", k),
                  f"        if not ({all_finite(k)}):",
                  '            raise ZeroDivisionError("right-hand side is not finite")']
    # the last stage state is y5; w is y4 and e is |y5 - y4|
    lines += [f"        w{i} = {combination(i, _B4)}" for i in idx]
    lines += [f"        if not ({all_finite(f'w{i}' for i in idx)}):",
              '            raise OverflowError("embedded state overflow")']
    lines += [f"        e{i} = abs(s{i} - w{i})" for i in idx]
    err = [f"e{i} / (tol + tol * max(abs(y{i}), abs(s{i})))" for i in idx]
    lines.append(f"        return ({''.join(f's{i}, ' for i in idx)}), "
                 f"[{', '.join(f'k7_{i}' for i in idx)}], "
                 f"{largest(err)}, {largest([f'e{i}' for i in idx])}")
    return lines


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def integrate(spec: IntegrationSpec) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration with event detection.

    A BlowUp event is declared when any state magnitude reaches the blow-up
    threshold, or when the step size collapses: below ``1e-13 * (t1 - t0)``,
    or so small that ``t + h == t``.  When a collapse below the bound is
    caused by a vanishing denominator at moderate state size, a
    PoleProximity event is recorded as well.  Events terminate sampling.

    ``compile_rf`` gives the field and its step, bound to this system's
    coefficients; the loop here passes the tolerance to each step, halves
    h when a step raises, accepts or rejects, sets the next step size and
    records events.  Each stage state is ``y + h * (0.0 + a_s1 * k_1 + ...)``
    per component, plain float additions in a fixed order: through Python
    3.11 the builtin ``sum`` of the row adds exactly so, and from 3.12 on
    it compensates its rounding, so the step writes the chain out and every
    trajectory has the same bits on every Python.
    """
    field = compile_rf(spec.system.rhs, spec.system.variables)
    step, tol = field.step, spec.tol
    t, y = spec.t0, spec.initial_state
    try:
        k1 = field(y, t)
        if not _finite(k1):
            # from a finite state, only an overflow gives inf or nan
            raise OverflowError
    except ArithmeticError as exc:
        cause = ("a division by zero" if isinstance(exc, ZeroDivisionError)
                 else "an overflow")
        raise SingularInitialState(
            f"cannot evaluate the field at the initial state: {cause}") from exc

    t1, threshold = spec.t1, spec.blowup_threshold
    window = t1 - spec.t0
    h_min = _MIN_STEP_FACTOR * window
    h = window / 100.0
    traj = Trajectory(spec.system.variables, [(t, y)])
    samples, events = traj.samples, traj.events
    err_total = 0.0

    while t < t1:
        h = min(h, t1 - t)
        if t + h == t:
            events.append(Event(BLOWUP, t))
            break
        try:
            y5, k7, err, difference = step(t, y, k1, h, tol)
        except ArithmeticError as exc:
            h *= 0.5
            pole_suspect = isinstance(exc, ZeroDivisionError)
        else:
            if err <= 1.0:
                t += h
                y, k1 = y5, k7
                samples.append((t, y))
                err_total += difference
                if max(map(abs, y)) >= threshold:
                    events.append(Event(BLOWUP, t))
                    break
                h *= 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                continue
            h *= max(0.2, 0.9 * err ** -0.2)
            pole_suspect = True   # rejected on its error estimate
        # a step that failed or was rejected: a collapse below h_min ends the run
        if h < h_min:
            if pole_suspect and max(map(abs, y)) < threshold:
                events.append(Event(POLE_PROXIMITY, t))
            events.append(Event(BLOWUP, t))
            break
    traj.error_estimate = err_total
    return traj


def _along(traj: Trajectory, what: str, evaluate: Callable) -> list[float]:
    """The drift of ``evaluate(state, t)``: its distance at each sample from
    the first sample's value.  A ``ZeroDivisionError`` there is a pole of
    ``what``; an ``OverflowError``, or a value or drift that is not finite,
    makes ``what`` not finite.  Both raise ``PoleOnTrajectory``."""
    drifts, base = [], None
    for t, state in traj.samples:
        try:
            value = evaluate(state, t)
        except ZeroDivisionError as exc:
            raise PoleOnTrajectory(f"{what} has a pole at t = {t}") from exc
        except OverflowError:
            value = math.inf
        base = value if base is None else base
        if not math.isfinite(drift := abs(value - base)):
            raise PoleOnTrajectory(f"{what} is not finite at t = {t}")
        drifts.append(drift)
    return drifts


def conservation_drift(traj: Trajectory, f: RationalFunction) -> float:
    """Max deviation of a candidate first integral from its initial value."""
    fn = compile_rf((f,), traj.variables)
    traj.drifts = _along(traj, "candidate", lambda s, t: fn(s, t)[0])
    return max(traj.drifts)


def log_relation_drift(traj: Trajectory, c: float) -> float:
    """Max drift of  c*log(y) + log(1-y) - log(x)  along a plane trajectory.

    Valid for arbitrary real c (the route for non-integer coupling, where no
    exact candidate exists); requires x > 0 and 0 < y < 1 at every sample.
    """
    if len(traj.variables) != 2:
        raise ValueError("expected a plane trajectory")

    def relation(state, t):
        x, y = state
        if not (x > 0 and 0 < y < 1):
            raise RegionViolation(f"sample at t = {t} leaves the region x > 0, 0 < y < 1")
        return c * math.log(y) + math.log(1 - y) - math.log(x)
    traj.drifts = _along(traj, "log relation", relation)
    return max(traj.drifts)


def export_csv(traj: Trajectory, stream) -> None:
    """Write samples as CSV; events become trailing comment lines.  The
    ``residual`` column is kept in the header for readers of the layout, and
    its cells are always empty."""
    header = ["t", *traj.variables, "residual", "drift"]
    stream.write(",".join(header) + "\n")
    for i, (t, state) in enumerate(traj.samples):
        row = [repr(t), *(repr(v) for v in state), ""]
        row.append(repr(traj.drifts[i]) if traj.drifts else "")
        stream.write(",".join(row) + "\n")
    for event in traj.events:
        stream.write(f"# event {event.kind} t={event.t!r}\n")
