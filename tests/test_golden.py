"""classify and phase-diagram output stays byte-identical to the per-row classifier.

The expected digests in ``golden_classify_outputs.json`` were captured from the
implementation that built a Theta lattice for every row; they cover the README
invocations, a near-singular grid (1 + alpha down to 0.0031), rational alphas
where several lattice points tie, and a phase diagram at n = 2 with alpha < 0.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from grushin.cli import main

CASES = json.loads((pathlib.Path(__file__).with_name("golden_classify_outputs.json")).read_text())["cases"]


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
