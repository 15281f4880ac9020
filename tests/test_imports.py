"""The classification path loads no dynamics.

``classify`` and ``sweep`` import only ``exactnum``, ``models`` and
``strata``; ``ratfunc``, ``symbolic`` and ``numverify`` load on the first call
that needs them, and no record class is a dataclass.  The tests that watch
modules load run a fresh interpreter, because this one has loaded the whole
package.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from painstrata import exactnum, numverify, symbolic
from test_tracing import BATCH, SPANS

ROOT = pathlib.Path(__file__).resolve().parents[1]
DYNAMICS = ("painstrata.ratfunc", "painstrata.symbolic", "painstrata.numverify")
# standard modules whose import costs a classification's cold start some 8 ms,
# and ``copy``, which the front end no longer needs; ``site`` loads none of them
STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "copy")

# Runs each argv of the JSON list in sys.argv[1] through ``cli.main`` and
# prints, per command, its exit code and the dynamics modules then loaded.
LOADED = """
import contextlib, io, json, sys
from painstrata import cli
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    runs.append([code, sorted(m for m in sys.modules if m in sys.argv[2:])])
print(json.dumps(runs))
"""

# Runs ``classify``, installs the benchmark's trace hooks as its traced run
# does, then runs the commands of sys.argv[1] twice; prints, per pass, the
# exit codes and the names of the spans recorded.
TRACED = """
import contextlib, io, json, sys
sys.path.insert(0, "perfbench")
import tracing
from painstrata import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["classify", "--family", "p3", "--params", "1,1"]) == 0
    from painstrata import models, numverify, ratfunc, strata
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, cli, models, strata, ratfunc, numverify)
    passes = []
    for _ in range(2):
        tracer.reset()
        codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
        passes.append([codes, sorted({span[0] for span in tracer.spans})])
    tracing.uninstall(undo)
print(json.dumps(passes))
"""


def fresh(script: str, *args: str):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def sweep_argv(tmp_path) -> list[str]:
    batch = tmp_path / "batch.txt"
    batch.write_text(BATCH, encoding="utf-8")
    return ["sweep", "--in", str(batch)]


@pytest.mark.parametrize("argv, loads", [
    (["simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
      "--t0", "0", "--t1", "0.3"], DYNAMICS),
    (["verify", "integral", "--c", "2", "--expr", "y^2*(y-1)/x"], DYNAMICS[:2]),
], ids=["simulate", "verify-integral"])
def test_classification_loads_no_dynamics(tmp_path, argv, loads):
    commands = [["classify", "--family", "p3", "--params", "1,1"], sweep_argv(tmp_path), argv]
    runs = fresh(LOADED, json.dumps(commands), *DYNAMICS)
    assert runs == [[0, []], [0, []], [0, sorted(loads)]]


def test_classification_loads_no_dataclasses_or_fractions(tmp_path):
    commands = [["classify", "--family", "p3", "--params", "1,1"], sweep_argv(tmp_path)]
    assert fresh(LOADED, json.dumps(commands), *STDLIB) == [[0, []], [0, []]]


def test_no_module_imports_dataclasses():
    for path in sorted((ROOT / "src" / "painstrata").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}, line {node.lineno}"


def test_moved_error_classes_keep_their_import_paths():
    assert symbolic.ExprSyntaxError is exactnum.ExprSyntaxError
    assert issubclass(symbolic.UnsupportedExponentError, exactnum.ExprSyntaxError)
    for name in ("SingularInitialState", "PoleOnTrajectory", "RegionViolation"):
        assert getattr(numverify, name) is getattr(exactnum, name)


def test_trace_hooks_record_dynamics_first_called_under_them(tmp_path):
    # the benchmark's traced run installs the hooks after warm-ups that ran
    # only ``classify``; a stand-in that rebound its name on first call would
    # leave the hook only for the first pass
    commands = (
        sweep_argv(tmp_path),
        ["reduce-p4", "--params", "2,-1,-1"],
        ["orbit", "--family", "p3", "--from", "1,1", "--to", "2,0", "--max-len", "1"],
        ["verify", "integral", "--c", "2", "--expr", "y^2*(y-1)/x"],
        ["verify", "riccati"],
        ["verify", "qop", "--c", "2"],
        ["verify", "log-relation", "--c", "1.5"],
        ["simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
         "--t0", "0", "--t1", "0.3", "--out", str(tmp_path / "t.csv")],
    )
    passes = fresh(TRACED, json.dumps(commands))
    assert len(passes) == 2
    for codes, recorded in passes:
        assert codes == [0] * len(commands)
        assert set(SPANS) <= set(recorded), sorted(set(SPANS) - set(recorded))
