"""The benchmark's trace hooks still find the functions they wrap.

``perfbench/tracing.py`` rebinds module names (``strata.p6_stratum``,
``cli.rf`` and so on) to time each layer; a renamed function, or one the
commands no longer call, would leave a per-layer metric without samples.
"""

import pathlib
import sys

from painstrata import cli, models, numverify, ratfunc, strata

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

# Every span name that a per-layer metric in ``tracing.LAYER_METRICS`` reads.
SPANS = ("cli.argparse", "cli.emit", "cli.to_json_dict", "cli.sweep",
         "exactnum.parse_cgauss", "models.instance", "models.system_rhs",
         "models.reduce_p4", "models.orbit_search",
         *(f"strata.classify.{fam}" for fam in ("p2", "p3", "p4", "p5", "p6")),
         "strata.classify_xc", "strata.p6_stratum", "strata.integral_roots",
         "symbolic.rf", "symbolic.verify_subvariety", "symbolic.verify_first_integral",
         "symbolic.quotient_of_partials", "ratfunc.poly_gcd",
         "numverify.compile_rf", "numverify.integrate", "numverify.export_csv",
         "numverify.log_relation_drift")

BATCH = """p2 1/2
p3 1,1
p4 1/3,-1/3,0
p5 1,-1,1/2,-1/2
p6 1/2,-1/2,1/7,1/11
xc 2
"""


def test_trace_hooks_record_every_layer(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(BATCH, encoding="utf-8")
    commands = (
        ["sweep", "--in", str(batch)],
        ["reduce-p4", "--params", "2,-1,-1"],
        ["orbit", "--family", "p3", "--from", "1,1", "--to", "2,0", "--max-len", "1"],
        ["verify", "integral", "--c", "2", "--expr", "y^2*(y-1)/x"],
        ["verify", "riccati"],
        ["verify", "qop", "--c", "2"],
        ["verify", "log-relation", "--c", "1.5"],
        ["simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
         "--t0", "0", "--t1", "0.3", "--out", str(tmp_path / "t.csv")],
    )
    # the benchmark's warm-up runs commands before the hooks go in, so the
    # CLI must see names rebound after its parser exists
    assert cli.main(["classify", "--family", "p3", "--params", "1,1"]) == 0
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, cli, models, strata, ratfunc, numverify)
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv
    finally:
        tracing.uninstall(undo)
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert set(SPANS) <= recorded, sorted(set(SPANS) - recorded)
    # one parse span per command: the parse_args hooks do not stack
    assert sum(1 for span in tracer.spans if span[0] == "cli.argparse") == len(commands)
    # and every span-derived metric has samples to read
    phase = tracing.Phase(tracer.spans, prefix_ops=1)
    homes = {h for _, _, hs, _, _ in tracing.LAYER_METRICS.values() for h in hs}
    metrics = tracing.layer_metrics({h: phase for h in homes})
    assert len(metrics) == sum(1 for spec in tracing.LAYER_METRICS.values()
                               if spec[3] is not None)
    assert strata.p6_stratum.__module__ == "painstrata.strata"


def test_every_modular_gcd_runs_inside_a_gcd_span(monkeypatch, capsys):
    # derive and the RationalFunction operators reach the modular gcd only
    # through the traced name, so ratfunc.poly_gcd's span counts every gcd;
    # the square in the denominator gives derive a gcd past the monomials
    commands = (
        (["verify", "integral", "--c", "2", "--expr", "y^2*(y-1)*(x^2+x*y+1)/(x*(x^2+x*y+1))"], 0),
        (["verify", "integral", "--c", "2", "--expr", "y^2*(y-1)/(x*(x+y+1)^2)"], 1),
        (["verify", "qop", "--c", "2"], 0),
        (["verify", "riccati"], 0),
    )
    tracer = tracing.Tracer()
    monkeypatch.setattr(ratfunc, "_brown", tracer.wrap("ratfunc._brown", ratfunc._brown))
    undo = tracing.install(tracer, cli, models, strata, ratfunc, numverify)
    try:
        for argv, code in commands:
            assert cli.main(argv) == code, argv
    finally:
        tracing.uninstall(undo)
    capsys.readouterr()
    spans = tracer.spans
    browns = [span for span in spans if span[0] == "ratfunc._brown"]
    assert browns
    outside = [span for span in browns if span[3] < 0 or spans[span[3]][0] != "ratfunc.poly_gcd"]
    assert not outside, [spans[span[3]][0] if span[3] >= 0 else None for span in outside]
