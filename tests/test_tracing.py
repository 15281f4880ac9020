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

SPANS = ("strata.p6_stratum", "strata.integral_roots", "strata.classify.p6",
         "cli.argparse", "models.reduce_p4", "models.orbit_search", "symbolic.rf")


def test_trace_hooks_record_every_layer(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("p6 1/2,-1/2,1/7,1/11\np4 1/3,-1/3,0\n", encoding="utf-8")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, cli, models, strata, ratfunc, numverify)
    try:
        assert cli.main(["sweep", "--in", str(batch)]) == 0
        assert cli.main(["reduce-p4", "--params", "2,-1,-1"]) == 0
        assert cli.main(["orbit", "--family", "p3", "--from", "1,1",
                         "--to", "2,0", "--max-len", "1"]) == 0
        assert cli.main(["verify", "integral", "--c", "2"]) == 0
    finally:
        tracing.uninstall(undo)
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert set(SPANS) <= recorded, sorted(set(SPANS) - recorded)
    assert strata.p6_stratum.__module__ == "painstrata.strata"
