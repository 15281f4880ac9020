"""Spans around the calls into each painstrata layer, and the per-layer metrics.

The benchmark installs the spans from its own files, by rebinding the names
the calling modules look up at call time (``cli.classify``,
``ratfunc.poly_gcd`` and so on); ``src/`` is not changed.  A span is
``(name, start, end, parent, op, extra, error)``: ``parent`` indexes the
enclosing span, ``op`` is the operation (one sweep line, or one command) it
belongs to, ``extra`` is a count read off the result (integrator steps, CSV
bytes, reduction steps).  Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0

    def wrap(self, name, fn, tag=None, extra=None):
        """``fn`` with a span around each call.

        ``tag(args)`` appends a suffix to the span name; ``extra(args,
        result, exc)`` gives the span's count.
        """
        stack = self.stack

        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            op = self.op
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name + tag(args) if tag else name, start, end,
                                parent, op,
                                extra(args, result, exc) if extra else None,
                                type(exc).__name__ if exc else None)
        return traced

    def reset(self):
        self.spans = []
        self.stack.clear()


def _steps(args, result, exc):
    if exc is not None:
        return len(getattr(exc, "partial_word", ()))
    return len(result[1])


def _trajectory(args, result, exc):
    if result is None:
        return None
    return [len(result.samples) - 1,
            sum(1 for e in result.events if e.kind == "BlowUp")]


def _unknown(args, result, exc):
    return int(result is not None and type(result).__name__ == "Unknown")


def _csv_bytes(args, result, exc):
    return args[1].tell()


def install(tracer: Tracer, cli, models, strata, ratfunc, numverify) -> list:
    """Rebind the traced names; returns the (owner, name, original) list."""
    undo = []

    def patch(owner, name, span, **kw):
        original = owner.__dict__[name]
        undo.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(tracer.wrap(span, original.__func__, **kw)))
        else:
            setattr(owner, name, tracer.wrap(span, original, **kw))

    real_build_parser = cli.build_parser

    def build_parser():
        # one span from building the parser to the end of parse_args
        start = perf_counter()
        parser = real_build_parser()
        parse = parser.parse_args

        def parse_args(argv=None):
            try:
                return parse(argv)
            finally:
                tracer.spans.append(("cli.argparse", start, perf_counter(),
                                     -1, tracer.op, None, None))
        parser.parse_args = parse_args
        return parser
    undo.append((cli, "build_parser", real_build_parser))
    cli.build_parser = build_parser

    patch(cli, "cmd_sweep", "cli.sweep")
    patch(cli, "_emit", "cli.emit")
    patch(strata.Classification, "to_json_dict", "cli.to_json_dict")
    patch(strata.XcReport, "to_json_dict", "cli.to_json_dict")
    patch(models, "parse_cgauss", "exactnum.parse_cgauss")
    patch(models.FamilyInstance, "from_strings", "models.instance")
    patch(cli, "classify", "strata.classify", tag=lambda a: "." + a[0].family.value)
    patch(cli, "classify_xc", "strata.classify_xc")
    patch(strata, "p6_stratum", "strata.p6_stratum")
    patch(strata, "integral_roots", "strata.integral_roots")
    patch(cli, "system_rhs", "models.system_rhs")
    patch(cli, "reduce_to_fundamental_region_p4", "models.reduce_p4", extra=_steps)
    patch(cli, "orbit_search", "models.orbit_search", extra=_unknown)
    patch(cli, "rf", "symbolic.rf")
    patch(models, "rf", "symbolic.rf")
    for name in ("verify_subvariety", "verify_first_integral", "quotient_of_partials"):
        patch(cli, name, f"symbolic.{name}")
    patch(ratfunc, "poly_gcd", "ratfunc.poly_gcd")
    patch(numverify, "compile_rf", "numverify.compile_rf")
    patch(cli, "integrate", "numverify.integrate", extra=_trajectory)
    patch(cli, "export_csv", "numverify.export_csv", extra=_csv_bytes)
    patch(cli, "log_relation_drift", "numverify.log_relation_drift")
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def write_spans(path: str, phases: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for workload, spans in phases.items():
            for i, (name, start, end, parent, op, extra, err) in enumerate(spans):
                fh.write(json.dumps({"workload": workload, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "op": op, "extra": extra, "error": err}) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics.
# --------------------------------------------------------------------------

class Phase:
    """The spans of one traced workload, and how many ops its prefix holds.

    Counts are taken over the ops of the fixed prefix (op id < ``prefix_ops``)
    so that they repeat exactly for a seed; timings use every span, scaled
    to reference speed by the phase's median speed factor ``speed``.
    """

    def __init__(self, spans, prefix_ops, speed=1.0):
        self.spans = spans
        self.prefix_ops = prefix_ops
        self.speed = speed

    def named(self, name):
        return [s for s in self.spans if s[0] == name]

    def durations(self, name):
        return [(s[2] - s[1]) * self.speed for s in self.spans if s[0] == name]

    def in_prefix(self, name):
        return [s for s in self.spans if s[0] == name and s[4] < self.prefix_ops]

    def self_times(self, name):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [(s[2] - s[1] - child[i]) * self.speed
                for i, s in enumerate(self.spans) if s[0] == name]

    def per_op(self, names):
        total = {}
        for s in self.spans:
            if s[0] in names:
                total[s[4]] = total.get(s[4], 0.0) + (s[2] - s[1]) * self.speed
        return list(total.values())


def _p50(values, scale):
    if not values:
        raise ValueError("no samples for a per-layer metric")
    return statistics.median(values) * scale


US, MS = 1e6, 1e3

# name: (unit, better, workloads whose spans it reads, value, what it moves).
# A value of None marks a metric that run.py measures outside the spans.
LAYER_METRICS = {
    "cli.import_ms": (
        "ms", "lower", (), None, "cold_start_ms and setup_s on every workload"),
    "cli.argparse_us_p50": (
        "us", "lower", ("simulate", "exact_ops"),
        lambda p: _p50(p.durations("cli.argparse"), US),
        "op_ms_p50 on simulate and exact_ops; nothing on the sweeps"),
    "cli.emit_us_p50": (
        "us", "lower", ("sweep_light",),
        lambda p: _p50(p.per_op({"cli.to_json_dict", "cli.emit"}), US),
        "ops_per_s on sweep_light"),
    "cli.sweep_self_ms": (
        "ms", "lower", ("sweep_p6", "sweep_light"),
        lambda p: _p50(p.self_times("cli.sweep"), MS),
        "ops_per_s and peak_rss_mb on both sweeps"),
    "exactnum.parse_cgauss_us_p50": (
        "us", "lower", ("sweep_light",),
        lambda p: _p50(p.durations("exactnum.parse_cgauss"), US),
        "ops_per_s on sweep_light"),
    "exactnum.parse_cgauss_calls": (
        "count", "lower", ("sweep_light",),
        lambda p: len(p.in_prefix("exactnum.parse_cgauss")),
        "ops_per_s on sweep_light"),
    "models.instance_us_p50": (
        "us", "lower", ("sweep_light",),
        lambda p: _p50(p.durations("models.instance"), US),
        "ops_per_s on sweep_light"),
    "models.system_rhs_ms_p50": (
        "ms", "lower", ("simulate", "exact_ops"),
        lambda p: _p50(p.durations("models.system_rhs"), MS),
        "op_ms_p50 on simulate and exact_ops"),
    "models.reduce_p4_us_p50": (
        "us", "lower", ("exact_ops",),
        lambda p: _p50(p.durations("models.reduce_p4"), US),
        "op_ms_tail on exact_ops"),
    "models.reduce_p4_steps": (
        "count", "lower", ("exact_ops",),
        lambda p: sum(s[5] for s in p.in_prefix("models.reduce_p4")),
        "op_ms_tail on exact_ops"),
    "models.reduce_p4_budget_exceeded": (
        "count", "lower", ("exact_ops",),
        lambda p: sum(1 for s in p.in_prefix("models.reduce_p4")
                      if s[6] == "BudgetExceededError"),
        "op_ms_tail on exact_ops"),
    "models.orbit_search_ms_p50": (
        "ms", "lower", ("exact_ops",),
        lambda p: _p50(p.durations("models.orbit_search"), MS),
        "ops_per_s, op_ms_p50 and op_ms_tail on exact_ops"),
    "models.orbit_search_unknown": (
        "count", "lower", ("exact_ops",),
        lambda p: sum(s[5] or 0 for s in p.in_prefix("models.orbit_search")),
        "ops_per_s, op_ms_p50 and op_ms_tail on exact_ops"),
    **{f"strata.classify_us_p50.{fam}": (
        "us", "lower", ("sweep_light",),
        (lambda fam: lambda p: _p50(p.durations(f"strata.classify.{fam}"), US))(fam),
        "ops_per_s on sweep_light") for fam in ("p2", "p3", "p4", "p5")},
    "strata.classify_xc_us_p50": (
        "us", "lower", ("sweep_light",),
        lambda p: _p50(p.durations("strata.classify_xc"), US),
        "ops_per_s on sweep_light"),
    "strata.classify_us_p50.p6": (
        "us", "lower", ("sweep_p6",),
        lambda p: _p50(p.durations("strata.classify.p6"), US),
        "ops_per_s and op_ms_tail on sweep_p6; nothing on sweep_light"),
    "strata.p6_stratum_us_p50": (
        "us", "lower", ("sweep_p6",),
        lambda p: _p50(p.durations("strata.p6_stratum"), US),
        "ops_per_s and op_ms_tail on sweep_p6; nothing on sweep_light"),
    "strata.integral_roots_us_p50": (
        "us", "lower", ("sweep_p6",),
        lambda p: _p50(p.durations("strata.integral_roots"), US),
        "ops_per_s and op_ms_tail on sweep_p6; nothing on sweep_light"),
    "symbolic.rf_us_p50": (
        "us", "lower", ("exact_ops",),
        lambda p: _p50(p.durations("symbolic.rf"), US),
        "exact_ops metrics, and simulate a little"),
    **{f"symbolic.{name}_ms_p50": (
        "ms", "lower", ("exact_ops",),
        (lambda name: lambda p: _p50(p.durations(f"symbolic.{name}"), MS))(name),
        "op_ms_p50 and op_ms_tail on exact_ops")
       for name in ("verify_subvariety", "verify_first_integral", "quotient_of_partials")},
    "ratfunc.poly_gcd_us_p50": (
        "us", "lower", ("exact_ops",), None, "op_ms_tail on exact_ops"),
    "ratfunc.canonicalise_us_p50": (
        "us", "lower", ("exact_ops",), None, "op_ms_tail on exact_ops"),
    "ratfunc.poly_gcd_calls": (
        "count", "lower", ("exact_ops",),
        lambda p: len(p.in_prefix("ratfunc.poly_gcd")),
        "op_ms_tail on exact_ops"),
    "numverify.compile_rf_us_p50": (
        "us", "lower", ("simulate",),
        lambda p: _p50(p.durations("numverify.compile_rf"), US),
        "op_ms_p50 and op_ms_tail on simulate only"),
    "numverify.integrate_ms_p50": (
        "ms", "lower", ("simulate",),
        lambda p: _p50(p.durations("numverify.integrate"), MS),
        "op_ms_p50 and op_ms_tail on simulate only"),
    "numverify.steps_accepted": (
        "count", "lower", ("simulate",),
        lambda p: sum(s[5][0] for s in p.in_prefix("numverify.integrate") if s[5]),
        "op_ms_p50 and op_ms_tail on simulate only"),
    "numverify.us_per_step": (
        "us", "lower", ("simulate",),
        lambda p: US * p.speed * sum(s[2] - s[1] for s in p.named("numverify.integrate") if s[5])
        / max(1, sum(s[5][0] for s in p.named("numverify.integrate") if s[5])),
        "op_ms_p50 and op_ms_tail on simulate only"),
    "numverify.export_csv_ms_p50": (
        "ms", "lower", ("simulate",),
        lambda p: _p50(p.durations("numverify.export_csv"), MS),
        "op_ms_tail on simulate"),
    "numverify.csv_bytes": (
        "bytes", "lower", ("simulate",),
        lambda p: sum(s[5] for s in p.in_prefix("numverify.export_csv")),
        "op_ms_tail on simulate"),
    "numverify.log_relation_drift_us_p50": (
        "us", "lower", ("simulate",),
        lambda p: _p50(p.durations("numverify.log_relation_drift"), US),
        "op_ms_p50 on simulate"),
    "numverify.blowup_events": (
        "count", "lower", ("simulate",),
        lambda p: sum(s[5][1] for s in p.in_prefix("numverify.integrate") if s[5]),
        "op_ms_p50 and op_ms_tail on simulate"),
    "trace.overhead_pct": (
        "%", "lower", (), None,
        "nothing: the ops_per_s gap between the traced and the untraced run"),
}


def _pooled(phases) -> Phase:
    """One phase holding the spans of several, parents re-indexed and
    times scaled by each phase's own speed factor."""
    spans, offset = [], 0
    for phase in phases:
        spans.extend((s[0], s[1] * phase.speed, s[2] * phase.speed,
                      s[3] + offset if s[3] >= 0 else -1, s[4], s[5], s[6])
                     for s in phase.spans)
        offset += len(phase.spans)
    return Phase(spans, 0)


def layer_metrics(phases: dict) -> dict:
    """Every span-derived per-layer metric, from the phases it reads."""
    out = {}
    for name, (_, _, homes, value, _) in LAYER_METRICS.items():
        if value is not None:
            out[name] = value(_pooled([phases[h] for h in homes])
                              if len(homes) > 1 else phases[homes[0]])
    return out
