"""CLI output stays byte-identical to the implementations it replaced.

The expected digests in ``golden_classify_outputs.json`` were captured from the
implementation that built a Theta lattice for every row; they cover the README
invocations, a near-singular grid (1 + alpha down to 0.0031), rational alphas
where several lattice points tie, and a phase diagram at n = 2 with alpha < 0.
Those in ``golden_deficiency_outputs.json`` were captured from the deficiency
oracle that integrated each mode and sign on its own; they cover the README
``deficiency`` invocations in JSON and CSV.  Those in
``golden_boundary_outputs.json`` were captured before the unused options of
the curvature, extension, frobenius and bessel modules were removed; they
cover ``curvature --metric``, ``extension build/verify/greens-check``,
``frobenius`` and ``bessel eval``, each with its exit code and the input
files it reads.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from grushin.cli import main


def _cases(file: str) -> dict:
    return json.loads(pathlib.Path(__file__).with_name(file).read_text())["cases"]


CASES = _cases("golden_classify_outputs.json")
DEFICIENCY_CASES = _cases("golden_deficiency_outputs.json")
BOUNDARY_CASES = _cases("golden_boundary_outputs.json")


def _digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_per_row_classifier(name, tmp_path, monkeypatch, capsys):
    case = CASES[name]
    argv = case["argv"]
    monkeypatch.setenv("GRUSHIN_OUTDIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", ["grushin", *argv])  # the SVG records the command line
    assert main(argv) == 0
    if argv[0] == "phase-diagram":
        got = {p.name: _digest(p.read_text(encoding="utf-8")) for p in sorted(tmp_path.iterdir())}
    else:
        got = {"stdout": _digest(capsys.readouterr().out)}
    assert got == case["outputs"]


@pytest.mark.parametrize("name", sorted(DEFICIENCY_CASES))
def test_deficiency_output_matches_per_mode_oracle(name, capsys):
    case = DEFICIENCY_CASES[name]
    assert main(case["argv"]) == 0
    assert {"stdout": _digest(capsys.readouterr().out)} == case["outputs"]


def run_boundary_case(case: dict, workdir: pathlib.Path, capsys) -> dict:
    """Exit code and stdout digest of ``case``, run in ``workdir`` beside its input files."""
    for file, text in case.get("files", {}).items():
        (workdir / file).write_text(text, encoding="utf-8")
    code = main(case["argv"])
    return {"exit": code, "stdout": _digest(capsys.readouterr().out)}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_boundary_output_matches_captured(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_boundary_case(BOUNDARY_CASES[name], tmp_path, capsys) == BOUNDARY_CASES[name]["outputs"]
