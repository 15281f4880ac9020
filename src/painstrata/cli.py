"""Command-line front end; every document printed on stdout is JSON.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 parse
error, 3 constraint violation, 4 numeric event (blow-up, pole, budget).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from .exactnum import (ConstraintError, ExprSyntaxError, ParameterParseError, PoleOnTrajectory,
                       RegionViolation, SingularInitialState, gaussian)
from .models import (
    BudgetExceededError,
    DEFAULT_BLOWUP_THRESHOLD,
    DEFAULT_TOL,
    Family,
    FamilyInstance,
    Related,
    _deferred,
    coord_to_str,
    in_fundamental_region_p4,
    orbit_search,
    parse_coord,
    reduce_to_fundamental_region_p4,
    riccati_curve,
    system_rhs,
    xc_first_integral,
)
from .strata import classify, classify_xc

# ``classify`` and ``sweep`` load no dynamics: each name below loads its module
# on first call.  The benchmark's trace hooks rebind all but ``IntegrationSpec``
# here by name; its stand-in spares each call an import statement.
rf = _deferred(".symbolic", "rf")
verify_subvariety = _deferred(".symbolic", "verify_subvariety")
verify_first_integral = _deferred(".symbolic", "verify_first_integral")
quotient_of_partials = _deferred(".symbolic", "quotient_of_partials")
integrate = _deferred(".numverify", "integrate")
export_csv = _deferred(".numverify", "export_csv")
log_relation_drift = _deferred(".numverify", "log_relation_drift")
IntegrationSpec = _deferred(".numverify", "IntegrationSpec")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_NUMERIC = 4

STANDARD_WINDOW = (0.0, 0.3)
STANDARD_START = (1.0, 0.5)
DEFAULT_DRIFT_BOUND = 1e-6
DEFAULT_MAX_STEPS = 200
MAX_COUPLING_DIGITS = 1000   # as many as a coefficient of a parsed expression

# The errors a user's input can cause: (classes, document kind, exit code).
# Any other exception is a bug and propagates.
ERRORS = (
    ((ParameterParseError, ExprSyntaxError, UnicodeDecodeError), "parse", EXIT_PARSE),
    ((ConstraintError,), "constraint", EXIT_CONSTRAINT),
    ((BudgetExceededError, SingularInitialState, PoleOnTrajectory, RegionViolation),
     "numeric", EXIT_NUMERIC),
)
_USER_ERRORS = tuple(cls for classes, _, _ in ERRORS for cls in classes)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _emit_error(exc: Exception, line: int | None = None) -> int:
    """Print the error document of a user error; return its exit code."""
    kind, code = next((kind, code) for classes, kind, code in ERRORS
                      if isinstance(exc, classes))
    body = {"kind": kind, "message": str(exc)}
    if line is not None:
        body["line"] = line
    _emit({"error": body})
    return code


def _split_params(text: str) -> list:
    return [parse_coord(tok) for tok in text.split(",")]


def _split_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite floats, got {text!r}") from None


def _params_json(params) -> list[str]:
    return [coord_to_str(p) for p in params]


def _event_json(events) -> list[dict]:
    return [{"kind": e.kind, "t": e.t} for e in events]


def _verdict(check: str, holds: bool, words: tuple[str, str], **fields) -> int:
    """Print a check's verdict document, ``words`` naming the verdict when the
    check holds and when it fails; return its exit code."""
    _emit({"check": check, "verdict": words[not holds], **fields})
    return EXIT_OK if holds else EXIT_NEGATIVE


def _xc_system(c):
    """The planar field at coupling c, an ``int`` or a finite ``float``, read exactly."""
    return system_rhs(FamilyInstance(Family.XC, (gaussian(*c.as_integer_ratio(), 0, 1),)))


def _xc_candidate(args, convention: str = "y_minus_one"):
    """The candidate of ``integral`` and ``qop``: ``--expr`` in x and y, or
    the shipped first integral at ``--c``.  The checks print c + 1 and its
    products with the candidate's coefficients; a bound on c keeps each
    printable."""
    if args.expr is not None:
        candidate = rf(args.expr, variables=("x", "y"))
    else:
        candidate = xc_first_integral(args.c, convention)
    if abs(args.c) >= 10 ** MAX_COUPLING_DIGITS:
        raise ConstraintError(f"--c must have at most {MAX_COUPLING_DIGITS} digits")
    return candidate


# --------------------------------------------------------------------------
# Subcommand handlers.
# --------------------------------------------------------------------------

def _classify_instance(inst: FamilyInstance) -> dict:
    if inst.family is Family.XC:
        return classify_xc(inst.params[0]).to_json_dict()
    return classify(inst).to_json_dict()


def cmd_classify(args) -> int:
    inst = FamilyInstance.from_strings(args.family, args.params.split(","))
    _emit(_classify_instance(inst))
    return EXIT_OK


def _path_error(verb: str, path: str, exc: OSError) -> ParameterParseError:
    """A file the user named that cannot be read or written, as a parse error."""
    return ParameterParseError(f"cannot {verb} {path!r}: {exc.strerror}")


def _sweep_input(infile: str):
    """The binary stream ``sweep`` reads, as a context manager."""
    if infile == "-":
        return contextlib.nullcontext(sys.stdin.buffer)
    try:
        return open(infile, "rb")
    except OSError as exc:
        raise _path_error("read", infile, exc) from None


def cmd_sweep(args) -> int:
    with _sweep_input(args.infile) as stream:
        # one line at a time, each ending at b"\n" and decoded on its own
        for i, raw in enumerate(stream, start=1):
            try:
                pieces = raw.decode("utf-8").split()
                if len(pieces) != 2:
                    raise ParameterParseError(
                        "expected '<family> <p1,p2,...>' on each line")
                inst = FamilyInstance.from_strings(pieces[0], pieces[1].split(","))
                _emit(_classify_instance(inst))
            except _USER_ERRORS as exc:
                _emit_error(exc, line=i)
    return EXIT_OK


_RICCATI_FIBER = {"plus": gaussian(1, 2, 0, 1), "minus": gaussian(-1, 2, 0, 1)}
_CONTAINED = ("contained", "not_contained")


def cmd_verify_riccati(args) -> int:
    signs = ("plus", "minus") if args.sign == "both" else (args.sign,)
    # the (y, y1) field of each fiber; the curve y1 = g of ``sign`` checked in it
    fields = {fiber: system_rhs(FamilyInstance(Family.PII, (alpha,))).as_map()
              for fiber, alpha in _RICCATI_FIBER.items()}

    def residual_in(sign, fiber):
        return verify_subvariety(fields[fiber], "y1", riccati_curve(sign))
    residuals = {sign: residual_in(sign, sign) for sign in signs}
    results = [{"sign": sign, "fiber": str(_RICCATI_FIBER[sign]),
                "verdict": _CONTAINED[not residual.is_zero()], "residual": str(residual)}
               for sign, residual in residuals.items()]
    crossed = {}
    for sign, other in (("plus", "minus"), ("minus", "plus")):
        residual = residual_in(sign, other)
        crossed[f"{sign}_curve_in_{other}_fiber"] = str(residual)
    return _verdict("riccati", all(r.is_zero() for r in residuals.values()), _CONTAINED,
                    results=results, crossed_residuals=crossed,
                    settings={"signs": list(signs)})


def cmd_verify_integral(args) -> int:
    convention = "one_minus_y" if args.convention == "1-y" else "y_minus_one"
    candidate = _xc_candidate(args, convention)
    residual = verify_first_integral(candidate, _xc_system(args.c).as_map())
    return _verdict("integral", residual.is_zero(), ("conserved", "not_conserved"),
                    residual=str(residual),
                    settings={"c": args.c, "convention": convention,
                              "candidate": str(candidate)})


def cmd_verify_qop(args) -> int:
    candidate = _xc_candidate(args)
    slope = quotient_of_partials(candidate)
    dx, dy = _xc_system(args.c).rhs
    expected = dy / dx
    residual = slope - expected
    return _verdict("qop", residual.is_zero(), ("holds", "fails"),
                    residual=str(residual),
                    settings={"c": args.c, "candidate": str(candidate),
                              "expected_slope": str(expected)})


def cmd_verify_log_relation(args) -> int:
    if not math.isfinite(args.c):
        raise ParameterParseError(f"--c must be a finite number, got {args.c!r}")
    if not (math.isfinite(args.max_drift) and args.max_drift > 0):
        raise ParameterParseError(
            f"--max-drift must be a finite positive number, got {args.max_drift!r}")
    settings = {
        "c": args.c,
        "t0": args.t0,
        "t1": args.t1,
        "init": list(args.init),
        "rel_tol": args.tol,
        "abs_tol": args.tol,
        "max_drift_allowed": args.max_drift,
    }
    spec = IntegrationSpec(_xc_system(args.c), args.t0, args.t1, args.init, tol=args.tol)
    traj = integrate(spec)
    if traj.events:
        _emit({
            "check": "log-relation",
            "verdict": "event",
            "events": _event_json(traj.events),
            "settings": settings,
        })
        return EXIT_NUMERIC
    drift = log_relation_drift(traj, args.c)
    return _verdict("log-relation", drift < args.max_drift,
                    ("within_tolerance", "exceeds_tolerance"),
                    residual=drift, settings=settings)


def cmd_simulate(args) -> int:
    inst = FamilyInstance.from_strings(args.family, args.params.split(","))
    system = system_rhs(inst)
    spec = IntegrationSpec(system, args.t0, args.t1, args.init, tol=args.tol,
                           blowup_threshold=args.blowup_threshold)
    traj = integrate(spec)
    if args.out:
        try:   # opening, writing and closing the file alike
            with open(args.out, "w", encoding="utf-8") as fh:
                export_csv(traj, fh)
        except OSError as exc:
            raise _path_error("write", args.out, exc) from None
    _emit({
        "family": inst.family.value,
        "params": _params_json(inst.params),
        "samples": len(traj.samples),
        "terminal_time": traj.terminal_time,
        "terminal_state": list(traj.terminal_state),
        "events": _event_json(traj.events),
        "error_estimate": traj.error_estimate,
        "csv": args.out,
        "settings": {"t0": args.t0, "t1": args.t1, "init": list(args.init),
                     "rel_tol": args.tol, "abs_tol": args.tol,
                     "blowup_threshold": args.blowup_threshold},
    })
    return EXIT_NUMERIC if traj.events else EXIT_OK


def cmd_reduce_p4(args) -> int:
    params = _split_params(args.params)
    reduced, word = reduce_to_fundamental_region_p4(params, args.max_steps)
    _emit({
        "input": _params_json(params),
        "output": _params_json(reduced),
        "word": word.names(),
        "steps": len(word),
        "in_region": in_fundamental_region_p4(reduced),
        "settings": {"max_steps": args.max_steps},
    })
    return EXIT_OK


def cmd_orbit(args) -> int:
    family = Family(args.family)
    a = _split_params(args.from_params)
    b = _split_params(args.to_params)
    outcome = orbit_search(a, b, family, args.max_len)
    related = isinstance(outcome, Related)
    _emit({
        "family": family.value,
        "from": _params_json(a),
        "to": _params_json(b),
        "verdict": "related" if related else "unknown",
        "word": outcome.word.names() if related else None,
        "settings": {"max_word_length": args.max_len},
    })
    return EXIT_OK if related else EXIT_NEGATIVE


# --------------------------------------------------------------------------
# Parser wiring.
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that hands argv naming one of its subcommands
    straight to that subcommand's parser: argparse's own pass does the same
    after a scan for ``-h`` in which no token after the name can act."""

    _commands = None   # the action ``add_subparsers`` returned, if any

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        sub = self._commands
        if namespace is None and sub and args and args[0] in sub.choices:
            namespace, extras = sub.choices[args[0]].parse_known_args(args[1:])
            setattr(namespace, sub.dest, args[0])
            return namespace, extras
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """A fresh top-level parser over the tree built once per process.

    The new object shares the tree's attributes: argparse does not mutate a
    parser while parsing, and a caller may rebind an attribute such as
    ``parse_args`` on it without touching the tree.
    """
    tree = _parser()
    parser = object.__new__(type(tree))
    parser.__dict__.update(tree.__dict__)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Handlers are named, not bound, so that ``main`` sees a rebound
    # ``cmd_*`` even after the tree is built.
    parser = _Parser(
        prog="painstrata",
        description="Classify parameter strata and verify the underlying "
                    "differential-algebraic identities.")
    sub = parser._commands = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one parameter vector")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family])
    p.add_argument("--params", required=True,
                   help="comma-separated parameter strings, e.g. 1/2,3/2 or "
                        "generic; values starting with a dash need the "
                        "--params=-1/2 form")
    p.set_defaults(handler="cmd_classify")

    p = sub.add_parser("sweep", help="classify a batch, one instance per line")
    p.add_argument("--in", dest="infile", required=True,
                   help="input file, or - for stdin; lines read "
                        "'<family> <p1,p2,...>'")
    p.set_defaults(handler="cmd_sweep")

    verify = sub.add_parser("verify", help="run one verification check")
    vsub = verify._commands = verify.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("riccati", help="order-one curve containment in the "
                                        "half-integer second-family fibers")
    p.add_argument("--sign", choices=["plus", "minus", "both"], default="both")
    p.set_defaults(handler="cmd_verify_riccati")

    p = vsub.add_parser("integral", help="exact conservation of the shipped "
                                         "first integral")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--expr", help="candidate in x, y (defaults to the shipped "
                                  "first integral)")
    p.add_argument("--convention", choices=["y-1", "1-y"], default="y-1")
    p.set_defaults(handler="cmd_verify_integral")

    p = vsub.add_parser("qop", help="slope field as a quotient of partials")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--expr", help="candidate in x, y")
    p.set_defaults(handler="cmd_verify_qop")

    p = vsub.add_parser("log-relation", help="numeric log relation for "
                                             "arbitrary real coupling")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t0", type=float, default=STANDARD_WINDOW[0])
    p.add_argument("--t1", type=float, default=STANDARD_WINDOW[1])
    p.add_argument("--init", type=_split_floats, default=STANDARD_START,
                   help="comma-separated x,y start (default 1,0.5)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-drift", type=float, default=DEFAULT_DRIFT_BOUND)
    p.set_defaults(handler="cmd_verify_log_relation")

    p = sub.add_parser("simulate", help="integrate a system and export CSV")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family if f is not Family.PVI])
    p.add_argument("--params", required=True)
    p.add_argument("--init", type=_split_floats, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--blowup-threshold", type=float,
                   default=DEFAULT_BLOWUP_THRESHOLD)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(handler="cmd_simulate")

    p = sub.add_parser("reduce-p4", help="reduce into the fundamental region")
    p.add_argument("--params", required=True)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.set_defaults(handler="cmd_reduce_p4")

    p = sub.add_parser("orbit", help="breadth-first orbit search")
    p.add_argument("--family", required=True, choices=["p3", "p4"])
    p.add_argument("--from", dest="from_params", required=True)
    p.add_argument("--to", dest="to_params", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(handler="cmd_orbit")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except _USER_ERRORS as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
