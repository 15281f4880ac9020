"""One SHA-256 per benchmark workload over what its operations print.

Runs every operation of a workload's pools at seeds 1-3 (built by
``perfbench/workloads.py``) through ``painstrata.cli.main`` in one process,
in order, and hashes each operation's argv, exit code, stdout and the bytes
of its ``--out`` CSV, if it writes one.  The pools are built in a fresh
temporary directory under the same relative name every run, so the paths
that reach stdout, and so the digest, do not depend on where the checkout
lives.  Two checkouts whose integrator, parser and printer behave the same
give the same digests:

    python3 scripts/pool_digest.py simulate,exact_ops
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
WORKDIR = "work"   # relative to the temporary directory the pools run in


def _load():
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from painstrata import cli
    import workloads
    return cli, workloads


def digest(workload: str, seeds=SEEDS) -> str:
    """The hex SHA-256 over every operation of the workload's pools."""
    cli, workloads = _load()
    sha = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            os.mkdir(WORKDIR)
            for seed in seeds:
                for op in workloads.build(workload, seed, WORKDIR):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = cli.main(op.argv)
                        except SystemExit as exc:
                            code = exc.code
                    csv = next((arg[len("--out="):] for arg in op.argv
                                if arg.startswith("--out=")), None)
                    data = pathlib.Path(csv).read_bytes() \
                        if csv and os.path.isfile(csv) else b""
                    for part in (repr(op.argv), repr(code), out.getvalue()):
                        sha.update(part.encode("utf-8") + b"\0")
                    sha.update(data + b"\0")
        finally:
            os.chdir(cwd)
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", help="comma-separated workload names")
    args = parser.parse_args(argv)
    _, workloads = _load()
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(workloads.WORKLOADS)}")
    for name in names:
        print(f"{name} {digest(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
