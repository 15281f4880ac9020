"""Independent correctness check, run after the timed loop.

Each distinct output of each operation is checked once:

- every document against ``src/painstrata/schema.json``;
- classifications against the coset predicates written out here, and p6
  strata against the rank of the integral roots found by enumerating all 24
  roots and their integer minors;
- verify verdicts against how each candidate was built;
- ``reduce-p4`` words replayed with ``apply_word`` and the result checked
  with ``in_fundamental_region_p4``; an exhausted step budget only where
  more than ``REDUCE_BUDGET`` reflections are needed (``reduction_length``);
  ``orbit`` words replayed likewise;
- trajectories against scipy ``solve_ivp(method="RK45")``: terminal states
  of completed runs within ``SIM_REL_TOL_FACTOR * tol``, and the BlowUp
  event (its time within ``BLOWUP_T_TOL`` of the window) for runs that
  blow up.

An operation *fails*, and makes the run incorrect, when its output is not
schema-valid, disagrees with the reference, or gives no result (a traceback,
or a step budget exhausted where a word within the budget exists).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from fractions import Fraction

from workloads import BLOWUP_THRESHOLD, PARAM_COUNT, fmt_value

# Completed trajectories: |y - y_ref| <= SIM_REL_TOL_FACTOR * tol * (1 + |y_ref|).
SIM_REL_TOL_FACTOR = 1e3
# Blow-up time agreement, as a share of the window.
BLOWUP_T_TOL = 1e-3
LOG_DRIFT_BOUND = 1e-6
# The step budget of `reduce-p4` (the CLI default; the pool does not set it).
REDUCE_BUDGET = 200

FAMILIES = ("p2", "p3", "p4", "p5", "p6", "xc")
SPECIAL = ("generic", "nonrational")
_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_FULL = re.compile(rf"(?P<re>{_RAT})(?:(?P<sign>[+-])(?P<im>[0-9]+(?:/[0-9]+)?)i)?")
_IMAG = re.compile(rf"(?P<im>{_RAT})i")


class _ParseError(Exception):
    pass


class _ConstraintError(Exception):
    pass


def _rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise _ParseError(text)
    return Fraction(int(num), int(den or 1))


def parse_value(token: str):
    token = token.strip().lower()
    if token in SPECIAL:
        return token
    m = _IMAG.fullmatch(token)
    if m:
        return (Fraction(0), _rat(m["im"]))
    m = _FULL.fullmatch(token)
    if not m:
        raise _ParseError(token)
    im = _rat(m["im"]) if m["im"] else Fraction(0)
    return (_rat(m["re"]), -im if m["sign"] == "-" else im)


def parse_line(line: str):
    """(family, values), or raise the error the line must be reported as."""
    pieces = line.split()
    if len(pieces) != 2 or pieces[0] not in FAMILIES:
        raise _ParseError(line)
    family = pieces[0]
    values = [parse_value(t) for t in pieces[1].split(",")]
    if len(values) != PARAM_COUNT[family]:
        raise _ConstraintError(line)
    concrete = [v for v in values if not isinstance(v, str)]
    if family in ("p4", "p5") and len(concrete) == len(values):
        if sum(v[0] for v in values) != 0 or sum(v[1] for v in values) != 0:
            raise _ConstraintError(line)
    if family == "xc" and concrete and concrete[0][1] != 0:
        raise _ConstraintError(line)
    return family, values


# Coset predicates; a special value is in no lattice.
def _in_z(v) -> bool:
    return not isinstance(v, str) and v[1] == 0 and v[0].denominator == 1


def _in_2z(v) -> bool:
    return _in_z(v) and v[0].numerator % 2 == 0


def _in_half_z(v) -> bool:
    return not isinstance(v, str) and v[1] == 0 and v[0].denominator == 2


def _comb(a, b, sign):
    if isinstance(a, str) or isinstance(b, str):
        return "generic"
    return (a[0] + sign * b[0], a[1] + sign * b[1])


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def p6_rank(values) -> int:
    """Rank of the span of the roots +-e_i +-e_j with integral inner product."""
    roots = []
    for i, j in itertools.combinations(range(4), 2):
        for sj in (1, -1):
            if _in_z(_comb(values[i], values[j], sj)):
                root = [0, 0, 0, 0]
                root[i], root[j] = 1, sj
                roots.append(root)   # the negated root spans the same line
    for k in (4, 3, 2, 1):
        for combo in itertools.combinations(roots, k):
            for cols in itertools.combinations(range(4), k):
                if _det([[r[c] for c in cols] for r in combo]):
                    return k
    return 0


_OUT = "outside_paper_scope"
_P6 = {0: ("generic", {"exact": 1}), 2: ("P_minus_L", {"exact": 3}),
       3: ("L_minus_D", {"conflict": [3, 4]}), 4: ("D", {"exact": 5})}


def expected_document(family, values) -> dict:
    """The fields of the classification document the line must produce."""
    params = [fmt_value(v) for v in values]
    if family == "xc":
        c = values[0]
        if isinstance(c, str):
            kind, rank = "non_rational_constant", 1
        else:
            kind, rank = "rational", (_OUT if c == (Fraction(-1), 0) else 2)
        return {"family": "xc", "c": params[0], "c_kind": kind,
                "fiber_lascar": rank, "fiber_morley": rank}
    rank = 1
    if family == "p2":
        if _in_half_z(values[0]):
            stratum, degree = "half_plus_integer", {"exact": 2}
        else:
            stratum, degree, rank = _OUT, _OUT, _OUT
    elif family == "p3":
        v1, v2 = values
        s, d = _comb(v1, v2, 1), _comb(v1, v2, -1)
        if _in_z(v1) and _in_z(v2) and _in_2z(s):
            stratum, degree = "D1", {"exact": 3}
        elif _in_2z(s) or _in_2z(d):
            stratum, degree = "W1_minus_D1", {"exact": 2}
        else:
            stratum, degree = "generic", {"exact": 1}
    elif family == "p4":
        v1, v2, v3 = values
        hits = [_in_z(_comb(a, b, -1)) for a, b in ((v1, v2), (v3, v2), (v1, v3))]
        stratum, degree = (("D", {"exact": 3}) if all(hits) else
                           ("W_minus_D", {"exact": 2}) if any(hits) else
                           ("generic", {"exact": 1}))
    elif family == "p5":
        if any(_in_z(_comb(a, b, -1)) for a, b in itertools.combinations(values, 2)):
            stratum, degree = "W", {"range": [2, 4]}
        else:
            stratum, degree = "generic", {"exact": 1}
    else:
        r = p6_rank(values)
        if r == 1:
            v1, v2, v3, v4 = values
            four = _in_half_z(_comb(v1, v2, -1)) and _in_z(_comb(v3, v4, -1))
            stratum, degree = "M_minus_P", {"exact": 4 if four else 2}
        else:
            stratum, degree = _P6[r]
    return {"family": family, "params": params, "stratum": stratum,
            "morley_rank": rank, "morley_degree": degree}


def expected_line(line: str, number: int):
    """(document fields, property label) for one sweep input line."""
    try:
        family, values = parse_line(line)
    except (_ParseError, ValueError):
        return {"error": {"kind": "parse", "line": number}}, "parse_error"
    except _ConstraintError:
        return {"error": {"kind": "constraint", "line": number}}, "constraint_error"
    doc = expected_document(family, values)
    if family == "p6":
        return doc, f"p6_rank{p6_rank(values)}"
    return doc, family


def _matches(doc, expected) -> bool:
    if "error" in expected:
        err = doc.get("error")
        return isinstance(err, dict) and all(err.get(k) == v
                                             for k, v in expected["error"].items())
    return all(doc.get(k) == v for k, v in expected.items())


# --------------------------------------------------------------------------
# Trajectories.
# --------------------------------------------------------------------------

def _field(family, params):
    p = [float(Fraction(x)) for x in params]
    if family == "p2":
        a, = p
        return lambda t, y: [y[1], 2 * y[0] ** 3 + t * y[0] + a]
    if family == "p3":
        v1, v2 = p
        return lambda t, y: [
            (2 * y[0] ** 2 * y[1] - y[0] ** 2 - v1 * y[0] + t) / t,
            (-2 * y[0] * y[1] ** 2 + 2 * y[0] * y[1] - v1 * y[1] + (v1 + v2) / 2) / t]
    if family == "p4":
        v1, v2, v3 = p
        return lambda t, y: [
            2 * y[1] * y[0] - y[0] ** 2 - 2 * t * y[0] + 2 * (v1 - v2),
            2 * y[1] * y[0] - y[1] ** 2 + 2 * t * y[1] + 2 * (v1 - v3)]
    if family == "p5":
        v1, v2, v3, v4 = p
        s = v1 - v2 - v3 + v4
        return lambda t, y: [
            (2 * y[0] ** 2 * y[1] - 2 * y[0] * y[1] + t * y[0] ** 2 - t * y[0]
             + s * y[0] + v2 - v1) / t,
            (-2 * y[0] * y[1] ** 2 + y[1] ** 2 - 2 * t * y[1] * y[0] + t * y[1]
             - s * y[1] + (v3 - v1) * t) / t]
    c, = p
    return lambda t, y: [c * y[1] + y[1] - c, y[1] * (y[1] - 1) / y[0]]


def reference_trajectory(meta):
    """('complete', state) or ('blowup', t) from scipy RK45 at a tight tolerance."""
    from scipy.integrate import solve_ivp

    def crossing(t, y):
        return max(abs(v) for v in y) - BLOWUP_THRESHOLD
    crossing.terminal = True
    crossing.direction = 1
    tol = min(meta["tol"], 1e-11)
    sol = solve_ivp(_field(meta["family"], meta["params"]), (meta["t0"], meta["t1"]),
                    list(meta["init"]), method="RK45", rtol=tol, atol=tol,
                    events=crossing)
    if sol.status == 1:
        return "blowup", float(sol.t_events[0][0])
    if sol.status == -1:
        return "blowup", float(sol.t[-1])
    return "complete", [float(v) for v in sol.y[:, -1]]


def reduction_length(values) -> int:
    """Length of the shortest word that takes a real p4 point into the
    closed fundamental region.

    It is the number of hyperplanes <alpha, v> = k, k an integer and alpha
    one of v2-v1, v1-v3, v2-v3, that strictly separate the point from the
    alcove 0 < v2-v1, 0 < v1-v3, v2-v3 < 1.  Each generator reflects in one
    wall of the alcove (s1 in v2-v1 = 0, s2 in v1-v3 = 0, s0 in v2-v3 = 1),
    so it changes that number by at most one.
    """
    v1, v2, v3 = values
    return sum(math.ceil(t) - 1 if t > 1 else math.ceil(-t) if t < 0 else 0
               for t in (v2 - v1, v1 - v3, v2 - v3))


# --------------------------------------------------------------------------
# The checker.
# --------------------------------------------------------------------------

def _eval_candidate(text: str, x: Fraction, y: Fraction) -> Fraction:
    """Exact value of a printed candidate (grammar: + - * / ^ ( ) x y ints)."""
    if not re.fullmatch(r"[xy0-9+\-*/^() ]*", text):
        raise ValueError(f"unexpected candidate text {text!r}")
    code = re.sub(r"[0-9]+", r"F(\g<0>)", text).replace("^", "**")
    return eval(code, {"__builtins__": {}}, {"F": Fraction, "x": x, "y": y})


_POINTS = ((Fraction(3, 7), Fraction(5, 11)), (Fraction(-13, 5), Fraction(2, 9)))


class Checker:
    """Checks (op, exit code, stdout, traceback) outcomes; caches per op."""

    def __init__(self, root: str):
        from jsonschema import Draft202012Validator
        with open(os.path.join(root, "src", "painstrata", "schema.json"),
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        self.validator = Draft202012Validator(schema)
        self._line_cache = {}
        self._traj_cache = {}
        self.properties = {}

    def _count(self, key, n=1):
        self.properties[key] = self.properties.get(key, 0) + n

    def _docs(self, text):
        docs = []
        for raw in text.splitlines():
            try:
                doc = json.loads(raw)
            except ValueError:
                doc = None
            docs.append(doc if doc is not None and self.validator.is_valid(doc) else None)
        return docs

    def check(self, op, code, text, exc):
        """(units failed, first problem or None)."""
        if exc is not None:
            return op.units, f"traceback: {exc.splitlines()[-1]}"
        docs = self._docs(text)
        if op.kind == "sweep":
            return self._check_sweep(op, docs)
        if len(docs) != 1 or docs[0] is None:
            return 1, f"expected one schema-valid document, got {text[:200]!r}"
        problem = getattr(self, f"_check_{op.kind}")(op, code, docs[0])
        return (1, problem) if problem else (0, None)

    def _check_sweep(self, op, docs):
        failed = 0
        problem = None
        for number, line in enumerate(op.meta["lines"], start=1):
            if (line, number) not in self._line_cache:
                self._line_cache[line, number] = expected_line(line, number)
            expected, _ = self._line_cache[line, number]
            doc = docs[number - 1] if number <= len(docs) else None
            if doc is None or not _matches(doc, expected):
                failed += 1
                problem = problem or f"line {number} {line!r}: got {doc}, want {expected}"
        if len(docs) != len(op.meta["lines"]):
            problem = problem or f"{len(docs)} documents for {len(op.meta['lines'])} lines"
            failed = max(failed, 1)
        return failed, problem

    def record_sweep_properties(self, op):
        for number, line in enumerate(op.meta["lines"], start=1):
            self._count("lines")
            self._count("line." + expected_line(line, number)[1])

    # --- simulate ---------------------------------------------------------

    def _reference(self, op):
        key = tuple(op.argv)
        if key not in self._traj_cache:
            self._traj_cache[key] = reference_trajectory(op.meta)
        return self._traj_cache[key]

    def _check_simulate(self, op, code, doc):
        meta = op.meta
        kind, value = self._reference(op)
        kinds = [e["kind"] for e in doc.get("events", [])]
        if kind == "complete":
            if code != 0 or kinds or doc["terminal_time"] != meta["t1"]:
                return f"scipy completes the window, program reports {kinds}"
            for got, want in zip(doc["terminal_state"], value):
                if abs(got - want) > SIM_REL_TOL_FACTOR * meta["tol"] * (1 + abs(want)):
                    return f"terminal state {doc['terminal_state']} vs scipy {value}"
        else:
            window = meta["t1"] - meta["t0"]
            if code != 4 or "BlowUp" not in kinds:
                return f"scipy blows up at t={value}, program reports {kinds}"
            t_event = next(e["t"] for e in doc["events"] if e["kind"] == "BlowUp")
            if abs(t_event - value) > BLOWUP_T_TOL * window:
                return f"BlowUp at t={t_event}, scipy at t={value}"
        if meta["csv"]:
            return self._check_csv(meta["csv"], doc)
        return None

    @staticmethod
    def _check_csv(path, doc):
        try:
            with open(path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()
        except OSError as exc:
            return f"CSV not written: {exc}"
        data = [r for r in rows[1:] if not r.startswith("#")]
        if len(data) != doc["samples"]:
            return f"CSV has {len(data)} rows for {doc['samples']} samples"
        last = [float(x) for x in data[-1].split(",")[1:1 + len(doc["terminal_state"])]]
        if last != doc["terminal_state"]:
            return f"CSV last row {last} vs terminal state {doc['terminal_state']}"
        return None

    def record_simulate_properties(self, op):
        self._count("commands")
        if op.kind == "log_relation":
            self._count("command.log_relation")
            return
        self._count("trajectories")
        if self._reference(op)[0] == "blowup":
            self._count("trajectories_blowup")
        if op.meta["csv"]:
            self._count("commands_csv")

    def _check_log_relation(self, op, code, doc):
        if code != 0 or doc.get("verdict") != "within_tolerance":
            return f"log relation verdict {doc.get('verdict')}"
        if not doc["residual"] < LOG_DRIFT_BOUND:
            return f"log relation drift {doc['residual']}"
        return None

    # --- exact ops --------------------------------------------------------

    def _check_riccati(self, op, code, doc):
        verdicts = [r["verdict"] for r in doc.get("results", [])]
        crossed = doc.get("crossed_residuals", {}).values()
        if (code != 0 or doc["verdict"] != "contained"
                or set(verdicts) != {"contained"}
                or any(r in ("0", None) for r in crossed) or len(crossed) != 2):
            return f"riccati report {doc}"
        return None

    def _check_candidate(self, op, code, doc, check, good, bad):
        meta = op.meta
        want = good if meta["c"] == meta["expr_c"] else bad
        if doc.get("check") != check or doc.get("verdict") != want:
            return f"{check} verdict {doc.get('verdict')}, built to be {want}"
        if code != (0 if want == good else 1):
            return f"exit code {code} for verdict {want}"
        c = meta["expr_c"]
        for x, y in _POINTS:
            if _eval_candidate(doc["settings"]["candidate"], x, y) != y ** c * (y - 1) / x:
                return f"candidate {doc['settings']['candidate']} != y^{c}*(y-1)/x"
        return None

    def _check_integral(self, op, code, doc):
        return self._check_candidate(op, code, doc, "integral", "conserved", "not_conserved")

    def _check_qop(self, op, code, doc):
        return self._check_candidate(op, code, doc, "qop", "holds", "fails")

    def _check_reduce(self, op, code, doc):
        from painstrata.models import (Family, GroupWord, P4Generator, apply_word,
                                       coord_to_str, in_fundamental_region_p4,
                                       parse_coord)
        if code == 4 and "within" in doc.get("error", {}).get("message", ""):
            self._count("reductions_budget_exceeded")
            needed = reduction_length(op.meta["params"])
            if needed <= REDUCE_BUDGET:
                return f"step budget exhausted, but {needed} reflections reach the region"
            return None
        params = [parse_coord(fmt_value((v, 0))) for v in op.meta["params"]]
        word = GroupWord(Family.PIV, tuple(P4Generator(g) for g in doc.get("word", [])))
        image = apply_word(word, params)
        if (code != 0 or [coord_to_str(v) for v in image] != doc["output"]
                or not in_fundamental_region_p4(image) or doc["steps"] != len(word)
                or doc["input"] != [fmt_value((v, 0)) for v in op.meta["params"]]):
            return f"reduce-p4 report {doc}"
        return None

    def _check_orbit(self, op, code, doc):
        from painstrata.models import (Family, GroupWord, P3Generator, P4Generator,
                                       apply_word, coord_to_str, parse_coord)
        meta = op.meta
        want = "related" if meta["related"] else "unknown"
        if doc.get("verdict") != want or code != (0 if meta["related"] else 1):
            return f"orbit verdict {doc.get('verdict')}, built to be {want}"
        if meta["related"]:
            family = Family(meta["family"])
            gen = P3Generator if family is Family.PIII else P4Generator
            word = GroupWord(family, tuple(gen(g) for g in doc["word"]))
            image = apply_word(word, [parse_coord(str(v)) for v in meta["src"]])
            if [coord_to_str(v) for v in image] != [str(v) for v in meta["dst"]]:
                return f"orbit word {doc['word']} does not map from to to"
        return None

    def record_exact_properties(self, op):
        self._count("commands")
        self._count("command." + op.kind)
        if op.kind == "reduce":
            self._count("reductions")

    def record(self, workload, op):
        if op.kind == "sweep":
            self.record_sweep_properties(op)
        elif workload == "simulate":
            self.record_simulate_properties(op)
        else:
            self.record_exact_properties(op)


def shares(counts: dict) -> dict:
    """Workload properties as shares of their base, with the base."""
    out = {}
    for base, prefix in (("lines", "line."), ("trajectories", "trajectories_"),
                         ("commands", "command"), ("reductions", "reductions_")):
        total = counts.get(base, 0)
        if not total:
            continue
        for key, n in sorted(counts.items()):
            if key.startswith(prefix) and key != base:
                out[f"{key}_share"] = round(n / total, 6)
        out[base] = total
    return out

