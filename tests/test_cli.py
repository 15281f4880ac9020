"""CLI surface: subcommands, exit codes, batch mode and schema validation."""

import argparse
import contextlib
import errno
import fractions
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from painstrata import cli
from painstrata.cli import (
    EXIT_CONSTRAINT,
    EXIT_NEGATIVE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
)

import importlib.resources

SCHEMA = json.loads(
    importlib.resources.files("painstrata").joinpath("schema.json").read_text())
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def strict_docs(out):
    """The schema-valid documents of an output, one per line; NaN and
    Infinity, which ``json.dumps`` would print, are rejected."""
    docs = [json.loads(line, parse_constant=_reject_constant)
            for line in out.strip().splitlines()]
    for doc in docs:
        VALIDATOR.validate(doc)
    return docs


def run(capsys, argv):
    code = cli.main(argv)
    return code, strict_docs(capsys.readouterr().out)


class TestClassify:
    def test_p3_lemma_branch(self, capsys):
        code, (doc,) = run(capsys, ["classify", "--family", "p3",
                                    "--params", "1,1"])
        assert code == EXIT_OK
        assert doc["stratum"] == "D1"
        assert doc["morley_degree"] == {"exact": 3}

    def test_p6_origin(self, capsys):
        code, (doc,) = run(capsys, ["classify", "--family", "p6",
                                    "--params", "0,0,0,0"])
        assert code == EXIT_OK
        assert doc["morley_degree"] == {"exact": 5}

    def test_constraint_violation(self, capsys):
        code, (doc,) = run(capsys, ["classify", "--family", "p4",
                                    "--params", "1,1,1"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["kind"] == "constraint"

    def test_parse_error(self, capsys):
        code, (doc,) = run(capsys, ["classify", "--family", "p2",
                                    "--params", "0.5"])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"

    def test_xc_report(self, capsys):
        code, (doc,) = run(capsys, ["classify", "--family", "xc",
                                    "--params", "2"])
        assert code == EXIT_OK
        assert doc["c_kind"] == "rational"
        assert doc["fiber_morley"] == 2
        code, (doc,) = run(capsys, ["classify", "--family", "xc",
                                    "--params", "nonrational"])
        assert code == EXIT_OK
        assert doc["fiber_morley"] == 1

    def test_outside_scope_wire_format(self, capsys):
        code, (doc,) = run(capsys, ["classify", "--family", "p2",
                                    "--params", "1/3"])
        assert code == EXIT_OK
        assert doc["morley_degree"] == "outside_paper_scope"
        assert doc["morley_rank"] == "outside_paper_scope"


# sweep input lines: arbitrary bytes (non-UTF-8 included), blank lines, and
# family tags with parameter tokens, some thousands of digits long
_TOKEN = st.one_of(
    st.sampled_from([b"0", b"1/2", b"-1/3", b"1+2i", b"generic", b"nonrational", b"1/0"]),
    st.integers(1000, 5000).map(lambda n: b"7" * n))
_SWEEP_LINE = st.one_of(
    st.binary(max_size=30).map(lambda b: b.replace(b"\n", b"")),
    st.sampled_from([b"", b" \t\r"]),
    st.builds(lambda family, tokens: family + b" " + b",".join(tokens),
              st.sampled_from([b"p2", b"p3", b"p4", b"p5", b"p6", b"xc", b"p7"]),
              st.lists(_TOKEN, min_size=1, max_size=5)))


class TestSweep:
    def test_line_counts_and_inline_errors(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text(
            "p3 1,1\n"
            "p2 oops\n"
            "p4 1,1,1\n"
            "p6 1/5,1/7,1/11,1/13\n"
            "xc 2\n")
        code, docs = run(capsys, ["sweep", "--in", str(batch)])
        assert code == EXIT_OK
        assert len(docs) == 5
        assert docs[0]["stratum"] == "D1"
        assert docs[1]["error"]["kind"] == "parse"
        assert docs[1]["error"]["line"] == 2
        assert docs[2]["error"]["kind"] == "constraint"
        assert docs[3]["morley_degree"] == {"exact": 1}
        assert docs[4]["c_kind"] == "rational"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"p3 1,0\n")))
        code, docs = run(capsys, ["sweep", "--in", "-"])
        assert code == EXIT_OK
        assert docs[0]["stratum"] == "generic"

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_input(self, capsys, tmp_path, where):
        path = tmp_path / "missing.txt" if where == "missing" else tmp_path
        code, (doc,) = run(capsys, ["sweep", "--in", str(path)])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"
        assert str(path) in doc["error"]["message"]

    def test_non_utf8_byte_fails_only_its_line(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_bytes(b"p3 1,1\np2 1/2\xff\np3 1,0\n")
        code, docs = run(capsys, ["sweep", "--in", str(batch)])
        assert code == EXIT_OK
        assert len(docs) == 3
        assert docs[0]["stratum"] == "D1"
        assert docs[1]["error"]["kind"] == "parse"
        assert docs[1]["error"]["line"] == 2
        assert "utf-8" in docs[1]["error"]["message"]
        assert docs[2]["stratum"] == "generic"

    def test_lines_end_at_newline_only(self, capsys, tmp_path):
        # a line separator other than \n does not start a line: the first
        # line has four fields, and the next one is line 2
        batch = tmp_path / "batch.txt"
        batch.write_bytes("p3 1,1\u2028p3 1,0\r\np3 1,0\n".encode())
        code, docs = run(capsys, ["sweep", "--in", str(batch)])
        assert code == EXIT_OK
        assert [d.get("error", {}).get("line") for d in docs] == [1, None]
        assert docs[1]["stratum"] == "generic"

    def test_builds_no_fraction(self, capsys, tmp_path):
        # tokens are parsed, tested and printed as integer parts, errors and
        # the sum-zero message included
        batch = tmp_path / "batch.txt"
        batch.write_text("p6 1/2,1/3,5/6,7\np6 1+2i,3-2i,-2/4i,generic\n"
                         "p5 1/3,1/5,2/15,-2/3\np4 1/2,1/3,1/7\np3 1/2,3/2i\n"
                         "p2 -7/2\nxc -1\nxc 3/4\nxc nonrational\np6 1/0,1,1,1\n")
        with mock.patch.object(fractions.Fraction, "__new__",
                               wraps=fractions.Fraction.__new__) as new:
            code, docs = run(capsys, ["sweep", "--in", str(batch)])
        assert code == EXIT_OK and len(docs) == 10
        assert docs[3]["error"]["message"] == \
            "p4 parameters must sum to zero exactly (got 41/42)"
        assert new.call_count == 0

    # ``within`` holds no state between examples
    @settings(suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_SWEEP_LINE, max_size=8))
    def test_any_bytes_one_document_per_line(self, within, lines):
        stdin = io.TextIOWrapper(io.BytesIO(b"".join(line + b"\n" for line in lines)))
        out = io.StringIO()
        with within(10), mock.patch.object(sys, "stdin", stdin), \
                contextlib.redirect_stdout(out):
            code = cli.main(["sweep", "--in", "-"])
        docs = strict_docs(out.getvalue())
        assert code == EXIT_OK
        assert len(docs) == len(lines)
        assert all(doc["error"]["line"] == i
                   for i, doc in enumerate(docs, start=1) if "error" in doc)


class TestVerify:
    def test_riccati_default_both(self, capsys):
        code, (doc,) = run(capsys, ["verify", "riccati"])
        assert code == EXIT_OK
        assert doc["verdict"] == "contained"
        assert {r["sign"] for r in doc["results"]} == {"plus", "minus"}
        assert doc["crossed_residuals"]["plus_curve_in_minus_fiber"] == "1"
        assert doc["crossed_residuals"]["minus_curve_in_plus_fiber"] == "-1"

    def test_riccati_single_sign(self, capsys):
        code, (doc,) = run(capsys, ["verify", "riccati", "--sign", "minus"])
        assert code == EXIT_OK
        assert doc["results"][0]["fiber"] == "-1/2"

    @pytest.mark.parametrize("c", [0, 1, 2, 3, 4, 5])
    def test_integral(self, capsys, c):
        code, (doc,) = run(capsys, ["verify", "integral", "--c", str(c)])
        assert code == EXIT_OK
        assert doc["verdict"] == "conserved"
        assert doc["residual"] == "0"

    def test_integral_negative_verdict(self, capsys):
        code, (doc,) = run(capsys, ["verify", "integral", "--c", "2",
                                    "--expr", "y/x"])
        assert code == EXIT_NEGATIVE
        assert doc["verdict"] == "not_conserved"
        assert doc["residual"] != "0"

    def test_integral_dense_bivariate_candidate(self, capsys, within):
        # the candidate's gcd ran past 100 s while the PRS kept rational scalars
        with within(10):
            code, (doc,) = run(capsys, ["verify", "integral", "--c", "2", "--expr",
                                        "(x^8+y^8+1)/((x+y+1)^4)"])
        assert code == EXIT_NEGATIVE
        assert doc["verdict"] == "not_conserved"
        assert doc["residual"] != "0"

    # Each document's SHA-256 as the primitive PRS printed it.  Every gcd
    # under a large --c holds y^c; the dense candidate's took 4.4 s.
    @pytest.mark.parametrize("argv, code, digest", [
        (["integral", f"--c={10 ** 999}"], EXIT_OK,
         "959d7dc8a45a028749d4481c64d3f72c151b80757afaa1f011a4cdff3b92e187"),
        (["qop", f"--c={10 ** 999}"], EXIT_OK,
         "45bb4255cafd7e3b763e5c6bca0adf3d1f9593a3f8a6a17111e6f2d6c6a9a8f2"),
        (["integral", "--c=10000000"], EXIT_OK,
         "8ba68fb8c9d8538b58ed049803eff94bb442c9294de707ecfb71d86624c544b7"),
        (["qop", "--c=10000000"], EXIT_OK,
         "b9532f7438fb6baee34534b7bf1c103854e5b162820c41821a31473cab704bc1"),
        (["integral", "--c", "2", "--expr", "(x^14+y^14+1)/((x+y+1)^7)"], EXIT_NEGATIVE,
         "c3b94eb32f47333871ab4d4c9ebaf2dfce294cd53dc7e3e60ab4e2f01ef9d289"),
    ], ids=["integral-c1000digits", "qop-c1000digits", "integral-c1e7", "qop-c1e7",
            "integral-dense"])
    def test_document_bytes_pinned(self, capsys, within, argv, code, digest):
        with within(2):
            assert cli.main(["verify", *argv]) == code
        out = capsys.readouterr().out
        strict_docs(out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_integral_symbolic_exponent_redirects(self, capsys):
        code, (doc,) = run(capsys, ["verify", "integral", "--c", "2",
                                    "--expr", "y^c*(y-1)/x"])
        assert code == EXIT_PARSE
        assert "log-relation" in doc["error"]["message"]

    def test_integral_one_minus_y_convention(self, capsys):
        code, (doc,) = run(capsys, ["verify", "integral", "--c", "2",
                                    "--convention", "1-y"])
        assert code == EXIT_OK
        assert doc["settings"]["convention"] == "one_minus_y"

    @pytest.mark.parametrize("c", [0, 1, 2, 3, 4, 5])
    def test_qop(self, capsys, c):
        code, (doc,) = run(capsys, ["verify", "qop", "--c", str(c)])
        assert code == EXIT_OK
        assert doc["verdict"] == "holds"

    def test_log_relation_irrational(self, capsys):
        code, (doc,) = run(capsys, ["verify", "log-relation",
                                    "--c", "1.4142135623730951"])
        assert code == EXIT_OK
        assert doc["verdict"] == "within_tolerance"
        assert doc["residual"] < 1e-6
        assert doc["settings"]["max_drift_allowed"] == 1e-6

    def test_log_relation_region_violation(self, capsys):
        code, (doc,) = run(capsys, ["verify", "log-relation", "--c", "2",
                                    "--init", "1,2"])
        assert code == EXIT_NUMERIC
        assert doc["error"]["kind"] == "numeric"

    def test_log_relation_event(self, capsys):
        # the flow from x = 0.1 reaches the pole line x = 0 before t1
        code, (doc,) = run(capsys, ["verify", "log-relation", "--c", "2",
                                    "--init", "0.1,0.5", "--t1", "1"])
        assert code == EXIT_NUMERIC
        assert doc["verdict"] == "event"
        assert doc["events"]

    def test_log_relation_not_finite(self, capsys):
        # c*log(y) overflows to -inf at the first sample; the drift was NaN
        code, (doc,) = run(capsys, ["verify", "log-relation", "--c", "1e306",
                                    "--init", "1,1e-300", "--t1", "1e-320"])
        assert code == EXIT_NUMERIC
        assert doc["error"] == {"kind": "numeric",
                                "message": "log relation is not finite at t = 0.0"}


class TestSimulate:
    def test_smooth_window(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, (doc,) = run(capsys, [
            "simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
            "--t0", "0", "--t1", "0.3", "--out", str(out)])
        assert code == EXIT_OK
        assert doc["events"] == []
        header = out.read_text().splitlines()[0]
        assert header == "t,x,y,residual,drift"

    def test_blowup_exit_code(self, capsys):
        code, (doc,) = run(capsys, [
            "simulate", "--family", "p2", "--params", "0", "--init", "2,0",
            "--t0", "0", "--t1", "2"])
        assert code == EXIT_NUMERIC
        assert doc["events"][0]["kind"] == "BlowUp"
        assert doc["events"][0]["t"] < 2.0

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, where):
        path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        code, (doc,) = run(capsys, [
            "simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
            "--t0", "0", "--t1", "0.3", "--out", str(path)])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"
        assert doc["error"]["message"].startswith(f"cannot write {str(path)!r}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("t1", ["0.3", "30"], ids=["fails-on-close", "fails-on-write"])
    def test_out_device_full(self, capsys, t1):
        # the CSV opens; its first 469 bytes fail when the file is closed,
        # its first 10,066 bytes already fill the write buffer
        code, (doc,) = run(capsys, [
            "simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
            "--t0", "0", "--t1", t1, "--out", "/dev/full"])
        assert code == EXIT_PARSE
        assert doc == {"error": {"kind": "parse", "message":
                                 f"cannot write '/dev/full': {os.strerror(errno.ENOSPC)}"}}

    def test_p6_not_simulatable(self, capsys):
        with pytest.raises(SystemExit):
            # argparse rejects p6 for simulate: no system is shipped
            cli.main(["simulate", "--family", "p6", "--params", "0,0,0,0",
                      "--init", "1,1", "--t0", "0", "--t1", "1"])
        capsys.readouterr()


class TestReduceAndOrbit:
    def test_reduce(self, capsys):
        code, (doc,) = run(capsys, ["reduce-p4", "--params", "1,-1,0"])
        assert code == EXIT_OK
        assert doc["output"] == ["0", "0", "0"]
        assert doc["word"] == ["s1", "s2", "s0"]
        assert doc["in_region"] is True

    def test_reduce_budget(self, capsys):
        code, (doc,) = run(capsys, ["reduce-p4", "--params", "30,-30,0",
                                    "--max-steps", "2"])
        assert code == EXIT_NUMERIC
        assert doc["error"]["kind"] == "numeric"

    def test_reduce_step_bound(self, capsys, within):
        with within(5):
            code, (doc,) = run(capsys, ["reduce-p4", "--params=3000000,-3000000,0",
                                        "--max-steps", "10001"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"] == {"kind": "constraint", "message":
                                "max_steps must be between 1 and 10000, got 10001"}

    def test_orbit_related(self, capsys):
        code, (doc,) = run(capsys, ["orbit", "--family", "p3",
                                    "--from", "1,1", "--to", "2,0",
                                    "--max-len", "1"])
        assert code == EXIT_OK
        assert doc["verdict"] == "related"
        assert doc["word"] == ["s3"]

    def test_orbit_unknown(self, capsys):
        code, (doc,) = run(capsys, ["orbit", "--family", "p3",
                                    "--from", "0,0", "--to", "1/2,1/2",
                                    "--max-len", "3"])
        assert code == EXIT_NEGATIVE
        assert doc["verdict"] == "unknown"
        assert doc["word"] is None

    def test_orbit_negative_length(self, capsys):
        code, (doc,) = run(capsys, ["orbit", "--family", "p3",
                                    "--from", "1,1", "--to", "2,0",
                                    "--max-len", "-1"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["kind"] == "constraint"

    def test_orbit_length_bound(self, capsys, within):
        with within(5):
            code, (doc,) = run(capsys, ["orbit", "--family", "p3",
                                        "--from", "1/3,1/7", "--to", "2/5,3/11",
                                        "--max-len", "4000"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"] == {"kind": "constraint", "message":
                                "the maximum word length must be between 0 and 100, "
                                "got 4000"}

    @pytest.mark.parametrize("src,dst", [("1,1,1", "1,2,0"), ("1,2,-3", "1,1,1")])
    def test_orbit_p4_off_plane(self, capsys, src, dst):
        code, (doc,) = run(capsys, ["orbit", "--family", "p4", "--from", src,
                                    "--to", dst, "--max-len", "3"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"] == {"kind": "constraint", "message":
                                "parameter vector must lie on the sum-zero plane"}


class TestErrorTable:
    """A user error maps to its document through ``cli.ERRORS``; any other
    exception is a bug and propagates out of ``main``.  The tests that patch
    a name run ``main`` once first, so the name is patched after the parser
    tree is built, and ``main`` must still look it up."""

    @staticmethod
    def broken(*args):
        raise ValueError("internal fault")

    def test_unexpected_value_error_propagates(self, capsys, monkeypatch):
        cli.main(["classify", "--family", "p3", "--params", "1,1"])
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_classify", self.broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["classify", "--family", "p3", "--params", "1,1"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["reduce-p4", "--params", "1,-1,0", "--max-steps", "0"],
        ["verify", "integral", "--c=-1"],
        ["verify", "integral", "--c", "1", "--expr", "x'"],
        ["verify", "qop", "--c", "1", "--expr", "x*y'"],
        ["simulate", "--family", "p2", "--params", "generic", "--init", "0,0",
         "--t0", "0", "--t1", "1"],
        ["simulate", "--family", "p3", "--params", "1,1", "--init", "1,1",
         "--t0=-1", "--t1", "1"],
        ["verify", "integral", f"--c={10 ** 1000}"],
        ["verify", "qop", f"--c={10 ** 1000}"],
        ["simulate", "--family", "p2", "--params=1/2", "--init", "0,0,0",
         "--t0=0", "--t1=1"],
    ])
    def test_constraint_raise_sites(self, capsys, argv):
        code, (doc,) = run(capsys, argv)
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["kind"] == "constraint"

    def test_unexpected_value_error_propagates_from_sweep(self, capsys, monkeypatch,
                                                          tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("p3 1,1\n")
        cli.main(["sweep", "--in", str(batch)])
        capsys.readouterr()
        monkeypatch.setattr(cli, "classify", self.broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["sweep", "--in", str(batch)])
        assert capsys.readouterr().out == ""


class TestParserReuse:
    """One process, one parser tree: no default, handler or stdin carries
    over from one ``main`` call to the next, whatever their order."""

    # (argv, stdin); the default-valued commands also run after ones that
    # set the same options
    COMMANDS = (
        (["classify", "--family", "p3", "--params", "1,1"], b""),
        (["verify", "riccati", "--sign", "plus"], b""),
        (["verify", "riccati"], b""),
        (["sweep", "--in", "-"], b"p3 1,1\np2 oops\nxc 2\n"),
        (["verify", "log-relation", "--c", "2", "--init", "1,0.25",
          "--tol", "1e-9", "--max-drift", "1e-3"], b""),
        (["--help"], b""),
        (["verify", "log-relation", "--c", "2"], b""),
        (["verify", "integral", "--c", "1.5"], b""),
        (["simulate", "--family", "p2", "--params", "0", "--init", "2,0",
          "--t0", "0", "--t1", "2"], b""),
        (["reduce-p4", "--params", "1,-1,0", "--max-steps", "3"], b""),
        (["reduce-p4", "--params", "1,-1,0"], b""),
        (["sweep", "--in", "-"], b"p6 1/2,-1/2,1/7,1/11\np4 1,1,1\n"),
        (["--help"], b""),
    )

    @staticmethod
    def outcome(argv, stdin):
        """(exit code, stdout) of one ``main`` call."""
        out = io.StringIO()
        with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin))), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def test_outcomes_do_not_depend_on_order(self):
        forward = [self.outcome(*cmd) for cmd in self.COMMANDS]
        backward = [self.outcome(*cmd) for cmd in reversed(self.COMMANDS)][::-1]
        assert forward == backward
        (classify, riccati_plus, riccati, sweep_a, _, help_1, log_relation,
         usage, simulate, _, reduce_p4, sweep_b, help_2) = forward
        assert help_1 == help_2 and help_1[0] == 0
        assert help_1[1].startswith("usage: painstrata")
        assert usage == (EXIT_PARSE, "")
        assert json.loads(classify[1])["stratum"] == "D1"
        assert json.loads(riccati_plus[1])["settings"]["signs"] == ["plus"]
        assert json.loads(riccati[1])["settings"]["signs"] == ["plus", "minus"]
        assert json.loads(log_relation[1])["settings"] == {
            "c": 2.0, "t0": 0.0, "t1": 0.3, "init": [1.0, 0.5],
            "rel_tol": 1e-10, "abs_tol": 1e-10, "max_drift_allowed": 1e-6}
        assert simulate[0] == EXIT_NUMERIC
        assert json.loads(reduce_p4[1])["settings"] == {"max_steps": 200}
        assert [len(strict_docs(out)) for _, out in (sweep_a, sweep_b)] == [3, 2]


def _joined(argv):
    """``argv`` with each ``--opt value`` pair written as ``--opt=value``."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


class TestParserShortcut:
    """argv that names a subcommand goes straight to that subcommand's
    parser; the result must be argparse's own two-pass parse, byte for byte."""

    SUBCOMMANDS = (   # each option once, in its ``--opt value`` form
        ["classify", "--family", "p3", "--params", "1,1"],
        ["sweep", "--in", "-"],
        ["verify", "riccati", "--sign", "plus"],
        ["verify", "integral", "--c", "2", "--expr", "y", "--convention", "1-y"],
        ["verify", "qop", "--c", "2", "--expr", "y"],
        ["verify", "log-relation", "--c", "1.5", "--t0", "0", "--t1", "1",
         "--init", "1,0.5", "--tol", "1e-9", "--max-drift", "1e-3"],
        ["simulate", "--family", "p2", "--params", "0", "--init", "2,0", "--t0", "0",
         "--t1", "2", "--tol", "1e-9", "--blowup-threshold", "1e6", "--out", "t.csv"],
        ["reduce-p4", "--params", "1,-1,0", "--max-steps", "3"],
        ["orbit", "--family", "p3", "--from", "1,1", "--to", "2,0", "--max-len", "3"],
    )
    LEVELS = ([], ["classify"], ["sweep"], ["verify"], ["verify", "riccati"],
              ["verify", "integral"], ["verify", "qop"], ["verify", "log-relation"],
              ["simulate"], ["reduce-p4"], ["orbit"])
    OTHERS = (
        [], ["nope"], ["classify", "--family", "p3"],
        ["classify", "--family", "p9", "--params", "1"],
        ["verify"], ["verify", "nope"], ["verify", "--c", "2", "integral"],
        ["--family", "p3", "classify"], ["-h", "classify"],
        ["--", "classify", "--family", "p3", "--params", "1,1"],
        ["classify", "--", "--family", "p3", "--params", "1,1"],
        ["classify", "--family", "p3", "--params", "1,1", "extra", "--bogus"],
        ["verify", "riccati", "extra"],
        ["classify", "--fam", "p3", "--par", "1,1"],
        ["verify", "log-relation", "--c", "1", "--max", "1e-3"],
        ["simulate", "--t", "0"],
        ["classify", "--family", "p2", "--family", "p3", "--params", "1,1"],
        ["classify", "--family", "p4", "--params", "-1,1,0"],
        ["classify", "--family", "p4", "--params=-1,1,0"],
        ["classify", "--family", "p3", "--help", "--params", "1,1"],
    )
    CORPUS = (
        [argv for argv, _ in TestParserReuse.COMMANDS]
        + list(SUBCOMMANDS)
        + [_joined(argv) for argv in SUBCOMMANDS]
        + [level + ["--help"] for level in LEVELS]
        + list(OTHERS)
    )

    @staticmethod
    def parse(parser, argv):
        """(namespace vars or exit code, stdout, stderr) of one parse."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    def test_same_parse_as_argparse_alone(self, monkeypatch):
        # the reference tree: the same ``_parser`` with plain ArgumentParsers
        monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
        reference = cli._parser.__wrapped__()
        monkeypatch.undo()
        shipped = cli.build_parser()
        assert type(reference) is argparse.ArgumentParser
        assert type(shipped) is cli._Parser
        for argv in self.CORPUS:
            assert self.parse(shipped, argv) == self.parse(reference, argv), argv

    def test_one_argparse_pass_per_command(self, monkeypatch):
        passes = []
        real = argparse.ArgumentParser._parse_known_args

        def spy(parser, *args, **kwargs):
            passes.append(parser.prog)
            return real(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", spy)
        for argv, prog in (
                (self.SUBCOMMANDS[6], "painstrata simulate"),
                (["verify", "integral", "--c", "2"], "painstrata verify integral")):
            passes.clear()
            cli.build_parser().parse_args(argv)
            assert passes == [prog]


class TestEntryPoint:
    def test_console_script_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "painstrata.cli", "classify",
             "--family", "p3", "--params", "1,1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, SCHEMA)
        assert doc["stratum"] == "D1"

    @pytest.mark.parametrize("expr, message", [
        ("x'' + y'", "no field component supplied for x''"),
        ("x' + t", "first-integral check expects an autonomous candidate"),
    ])
    def test_derivation_error_independent_of_hash_seed(self, expr, message):
        # a candidate's variables form a set, whose order follows the string
        # hash; which error is reported must not
        outputs = {subprocess.run(
            [sys.executable, "-m", "painstrata.cli", "verify", "integral",
             "--c", "1", "--expr", expr],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1", "3")}
        assert [json.loads(out) for out in outputs] == [
            {"error": {"kind": "constraint", "message": message}}]

    def test_argparse_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "painstrata.cli", "verify", "integral",
             "--c", "1.5"],
            capture_output=True, text=True)
        assert proc.returncode == 2


class TestInputValidation:
    """Inputs outside the grammars or the numeric domain: each yields one
    typed document with the documented exit code, never a traceback, a hang
    or a meaningless result."""

    def test_division_by_zero_expression(self, capsys):
        code, (doc,) = run(capsys, ["verify", "integral", "--c", "1",
                                    "--expr", "1/(y-y)"])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"
        assert "identically-zero" in doc["error"]["message"]
        assert "position 1" in doc["error"]["message"]

    def test_expression_parsed_before_coupling_bound(self, capsys):
        code, (doc,) = run(capsys, ["verify", "qop", f"--c={10 ** 1000}",
                                    "--expr", "y +"])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"

    def test_missing_operand(self, capsys, within):
        with within(5):
            code, (doc,) = run(capsys, ["verify", "qop", "--c", "1", "--expr", "y +"])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"

    @pytest.mark.parametrize("expr,pos", [
        ("(x+y+1)^200", 8),
        ("2^20000*x", 2),
    ])
    def test_oversized_power(self, capsys, within, expr, pos):
        with within(5):
            code, (doc,) = run(capsys, ["verify", "integral", "--c", "2",
                                        "--expr", expr])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"
        assert f"position {pos}" in doc["error"]["message"]

    @pytest.mark.parametrize("factors", [2, 3])
    def test_oversized_product(self, capsys, within, factors):
        # each power fits the bound, but the first product would have 861 terms
        expr = "*".join(["(x+y+1)^20"] * factors)
        with within(5):
            code, (doc,) = run(capsys, ["verify", "integral", "--c", "2",
                                        "--expr", expr])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"
        assert "position 10" in doc["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["classify", "--family", "p2", "--params", "١"],
        ["classify", "--family", "p3", "--params", "1,２"],
        ["verify", "integral", "--c", "1", "--expr", "y^²"],
        ["verify", "qop", "--c", "1", "--expr", "x*y + ١"],
    ])
    def test_non_ascii_digits(self, capsys, argv):
        code, (doc,) = run(capsys, argv)
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"

    def test_sweep_oversized_token_fails_only_its_line(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text(f"p2 {'1' * 5000}\np3 1,1\n")
        code, docs = run(capsys, ["sweep", "--in", str(batch)])
        assert code == EXIT_OK
        assert len(docs) == 2
        assert docs[0]["error"]["kind"] == "parse"
        assert docs[0]["error"]["line"] == 1
        assert docs[1]["stratum"] == "D1"

    def test_simulate_infinite_window(self, capsys, within):
        with within(5):
            code, (doc,) = run(capsys, [
                "simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
                "--t0", "0", "--t1", "inf"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["kind"] == "constraint"

    @pytest.mark.parametrize("t0,t1", [("0", "5e-324"), ("1e20", "1.0000000000000001e20")])
    def test_simulate_step_cannot_move_t(self, capsys, within, tmp_path, t0, t1):
        # a step below the spacing of floats at t is a collapse: a BlowUp
        # at t0, not a hang or a run of samples that all sit at t0
        out = tmp_path / "t.csv"
        with within(5):
            code, (doc,) = run(capsys, [
                "simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
                f"--t0={t0}", f"--t1={t1}", f"--out={out}"])
        assert code == EXIT_NUMERIC
        assert doc["events"] == [{"kind": "BlowUp", "t": float(t0)}]
        times = [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()[1:]
                 if not line.startswith("#")]
        assert len(times) == len(set(times)) == doc["samples"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--family", "p2", "--params", "1", "--init", "0,0"],
        ["verify", "log-relation", "--c", "2"],
    ])
    def test_window_length_overflow(self, capsys, within, argv):
        # both ends are finite, but t1 - t0 overflows to inf
        with within(5):
            code, (doc,) = run(capsys, argv + ["--t0=-1e308", "--t1=1e308"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["kind"] == "constraint"

    @pytest.mark.parametrize("family,params,init,t0", [
        ("p2", "1" + "0" * 400, "0,0", "0"),
        ("xc", "1" + "0" * 400, "1,0.5", "0"),
        ("p4", f"1{'0' * 400},-1{'0' * 400},0", "1,1", "0"),
        ("p3", "1" + "0" * 400 + ",1", "1,1", "1"),
        ("p5", f"1{'0' * 400},-1{'0' * 400},1,-1", "1,1", "1"),
    ], ids=["p2", "xc", "p4", "p3", "p5"])
    def test_simulate_coefficient_beyond_float_range(self, capsys, family, params,
                                                     init, t0):
        code, (doc,) = run(capsys, ["simulate", "--family", family, f"--params={params}",
                                    f"--init={init}", f"--t0={t0}", "--t1=2"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["kind"] == "constraint"
        assert doc["error"]["message"].startswith("the coefficient ")
        assert doc["error"]["message"].endswith(" does not fit a float")

    @pytest.mark.parametrize("family,params", [
        ("p4", f"{'9' * 4300},-{'9' * 4300},0"),
        ("p5", f"{'9' * 4300},{'9' * 4300},-{'9' * 4300},-{'9' * 4300}"),
    ], ids=["p4", "p5"])
    def test_simulate_coefficient_past_print_limit(self, capsys, family, params):
        # the coefficient 2*(v1 - v2) has more digits than str() converts
        code, (doc,) = run(capsys, ["simulate", "--family", family, f"--params={params}",
                                    "--init=1,1", "--t0=1", "--t1=2"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["message"] == (
            f"the coefficient <a number of more than {sys.get_int_max_str_digits()} "
            f"digits> does not fit a float")

    @staticmethod
    def unit_fractions(seed: int, n: int) -> str:
        """n unit fractions over random 4,290-digit denominators: each parses,
        and their sum's denominator is far past the 4,300-digit limit."""
        rng = random.Random(seed)
        return ",".join(f"1/{rng.randint(10 ** 4289, 10 ** 4290 - 1)}" for _ in range(n))

    @pytest.mark.parametrize("family,n", [("p4", 3), ("p5", 4)])
    def test_sum_zero_message_past_print_limit(self, capsys, tmp_path, family, n):
        params = self.unit_fractions(n, n)
        message = (f"{family} parameters must sum to zero exactly (got <a number "
                   f"of more than {sys.get_int_max_str_digits()} digits>)")
        code, (doc,) = run(capsys, ["classify", "--family", family, f"--params={params}"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"] == {"kind": "constraint", "message": message}
        # in a batch the line fails alone, and the next one is classified
        batch = tmp_path / "batch.txt"
        batch.write_text(f"{family} {params}\np3 1,1\n")
        code, docs = run(capsys, ["sweep", "--in", str(batch)])
        assert code == EXIT_OK
        assert docs[0]["error"] == {"kind": "constraint", "message": message, "line": 1}
        assert docs[1]["stratum"] == "D1"

    @pytest.mark.parametrize("extra", [
        ["--init", "nan,0.5"],
        ["--tol", "1e-30"],
        ["--blowup-threshold", "-1"],
    ])
    def test_simulate_numeric_inputs(self, capsys, extra):
        argv = ["simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
                "--t0", "0", "--t1", "0.3"]
        code, (doc,) = run(capsys, argv + extra)
        assert code == EXIT_CONSTRAINT
        assert doc["error"]["kind"] == "constraint"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--family", "p2", "--params", "0", "--t0", "0", "--t1", "1"],
        ["verify", "log-relation", "--c", "2"],
    ], ids=["simulate", "log-relation"])
    def test_init_not_floats(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--init=0.1,x"])
        assert exc.value.code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: painstrata ")
        assert err.endswith("error: argument --init: expected comma-separated finite "
                            "floats, got '0.1,x'\n")

    @pytest.mark.parametrize("family,params,init,cause", [
        ("p2", "1/2", "1e308,1e308", "an overflow"),       # y**3 raises
        ("p2", "1/2", "5.5e102,0", "an overflow"),         # 2 * y**3 is inf
        ("xc", "2", "0,0.5", "a division by zero"),        # .../x
    ])
    def test_simulate_initial_state_cause(self, capsys, family, params, init, cause):
        code, (doc,) = run(capsys, ["simulate", "--family", family, f"--params={params}",
                                    f"--init={init}", "--t0=0", "--t1=1"])
        assert code == EXIT_NUMERIC
        assert doc["error"] == {"kind": "numeric", "message":
                                f"cannot evaluate the field at the initial state: {cause}"}

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_log_relation_non_finite_coupling(self, capsys, c):
        code, (doc,) = run(capsys, ["verify", "log-relation", f"--c={c}"])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"
        assert "--c" in doc["error"]["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_log_relation_max_drift(self, capsys, value):
        code, (doc,) = run(capsys, ["verify", "log-relation", "--c", "2",
                                    f"--max-drift={value}"])
        assert code == EXIT_PARSE
        assert doc["error"]["kind"] == "parse"
        assert "--max-drift" in doc["error"]["message"]

    @pytest.mark.parametrize("value,message", [
        ("inf", "the blow-up threshold must be finite"),
        ("nan", "the blow-up threshold must be positive"),
        ("0", "the blow-up threshold must be positive"),
    ])
    def test_simulate_blowup_threshold(self, capsys, value, message):
        code, (doc,) = run(capsys, [
            "simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
            "--t0", "0", "--t1", "0.3", f"--blowup-threshold={value}"])
        assert code == EXIT_CONSTRAINT
        assert doc["error"] == {"kind": "constraint", "message": message}
