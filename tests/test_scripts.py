"""Smoke runs of the experiment scripts, which build coordinates and
instances directly rather than through the wire parser."""

import importlib.resources
import importlib.util
import json
import pathlib

import jsonschema
import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
SCHEMA = json.loads(
    importlib.resources.files("painstrata").joinpath("schema.json").read_text())


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classification_atlas(tmp_path, capsys):
    out = tmp_path / "atlas.jsonl"
    assert load("classification_atlas").main(["--out", str(out)]) == 0
    docs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert {doc["family"] for doc in docs} == {"p2", "p3", "p4", "p5", "p6"}
    validator = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
    for doc in docs:
        validator.validate(doc)
    assert "p6: 512 points" in capsys.readouterr().out


def test_xc_portrait(tmp_path, capsys):
    assert load("xc_portrait").main(["--c", "2", "--t1", "0.05",
                                     "--outdir", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("xc_c2_start*.csv"))
    assert len(paths) == 4
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,x,y,residual,drift"
        assert len(lines) > 1
    assert "worst conservation drift" in capsys.readouterr().out


def test_xc_portrait_refuses_negative_c(tmp_path, capsys):
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        load("xc_portrait").main(["--c", "2", "-1", "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert "c >= 0" in capsys.readouterr().err
    assert not outdir.exists()


def test_pool_digest_repeats(capsys):
    digest = load("pool_digest")
    first = digest.digest("simulate")
    assert len(first) == 64
    assert digest.digest("simulate") == first
    assert digest.main(["simulate"]) == 0
    assert capsys.readouterr().out == f"simulate {first}\n"


def test_pool_digests_pinned():
    # the bytes every benchmark operation prints; a change that moves one
    # says which operations moved and why, and pins the new digest here
    digest = load("pool_digest")
    assert {w: digest.digest(w) for w in ("simulate", "exact_ops", "sweep_p6", "sweep_light")} == {
        "simulate": "7efebbee0213c9d77cba988d9c8fd2fe4dd39ebe70f55781dd96eb074ecc0bab",
        "exact_ops": "73297394e32064618f881e58f88dba1ec140853f348eacee5b3f31f206d9a5c9",
        "sweep_p6": "26d436438d60341b78bbd01935cd8fd89fbccda93c6616341b2ffdf0d1615555",
        "sweep_light": "cec5c8938aac28530fc4a977ad317b3c8cf3c23bd346bbc039014d1436603a68",
    }
