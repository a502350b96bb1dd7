import json
import os
import subprocess
import sys
import time

import pytest

from grushin import cli
from grushin.cli import main, parse_grid
from grushin.deficiency import UnsupportedConfigurationError
from grushin.extensions import CheckFailedError
from grushin.frobenius import CertificateError, ResonantCaseError
from grushin.indexset_lang import ParseError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid():
    assert parse_grid("2.0") == [2.0]
    assert parse_grid("0.25:1.0:0.25") == pytest.approx([0.25, 0.5, 0.75, 1.0])
    # inclusive endpoint within 1e-12
    assert parse_grid("0:0.3:0.1")[-1] == pytest.approx(0.3)
    with pytest.raises(Exception):
        parse_grid("1:0:0.1")


def test_classify_verdict_flip(capsys):
    code, out, _ = run_cli(["classify", "--alpha", "0.25:3:0.25", "--n", "1", "--c", "0"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    by_alpha = {round(r["alpha"], 6): r["verdict"] for r in rows}
    assert by_alpha[0.75] == "NotESA_InfiniteDeficiency"
    assert by_alpha[1.0] == "Critical_Mu4_Indeterminate"
    assert by_alpha[1.25] == "EssentiallySelfAdjoint"


def test_classify_single_point_csv(capsys):
    code, out, _ = run_cli(
        ["classify", "--alpha", "2", "--n", "1", "--c", "0", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("alpha,")
    assert "EssentiallySelfAdjoint" in lines[1]


def test_classify_deterministic(capsys):
    args = ["classify", "--alpha", "0:1:0.37", "--n", "1:3:1", "--c", "-0.5:0.5:0.5"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_classify_critical_on_curve(capsys):
    from grushin.params import forbidden_c

    c0 = forbidden_c(2.0, 1)
    code, out, _ = run_cli(["classify", "--alpha", "2", "--n", "1", "--c", repr(c0)], capsys)
    rows = json.loads(out)["rows"]
    assert rows[0]["verdict"] == "Critical_Mu4_Indeterminate"


def test_phase_diagram(tmp_path, capsys):
    svg = tmp_path / "phase.svg"
    csv = tmp_path / "phase.csv"
    code, _, _ = run_cli(
        [
            "phase-diagram",
            "--alpha", "0.2:3:0.2",
            "--c=-1:1:0.2",
            "--n", "1",
            "--out-svg", str(svg),
            "--out-csv", str(csv),
        ],
        capsys,
    )
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "<metadata>" in text and "command" in text
    assert "polyline" in text  # the critical curve passes through (1, 0)
    import xml.etree.ElementTree as ET

    ET.fromstring(text)  # schema-valid XML
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "alpha,n,c,mu,verdict,regime"
    assert len(lines) == 1 + 15 * 11


def test_phase_diagram_deterministic(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        csv = tmp_path / f"{tag}.csv"
        run_cli(
            ["phase-diagram", "--alpha", "0.5:1.5:0.5", "--c=0:0.5:0.25", "--n", "1",
             "--out-svg", str(svg), "--out-csv", str(csv)],
            capsys,
        )
        outs.append((svg.read_bytes(), csv.read_bytes()))
    assert outs[0] == outs[1]


def test_phase_diagram_degenerate_cell(tmp_path, capsys):
    svg = tmp_path / "one.svg"
    csv = tmp_path / "one.csv"
    code, _, _ = run_cli(
        ["phase-diagram", "--alpha", "2", "--c", "0", "--n", "1",
         "--out-svg", str(svg), "--out-csv", str(csv)],
        capsys,
    )
    assert code == 0
    import xml.etree.ElementTree as ET

    ET.fromstring(svg.read_text())


def test_phase_diagram_alpha_where_mu_ignores_c(tmp_path, capsys):
    # at alpha = -2/(1+n) the cross term of mu vanishes, so that alpha has no
    # point on the critical curve and is skipped like alpha = 0
    svg = tmp_path / "p.svg"
    csv = tmp_path / "p.csv"
    code, _, _ = run_cli(
        ["phase-diagram", "--alpha=-0.5:-0.5:0.1", "--c=-1:1:0.5", "--n", "3",
         "--out-svg", str(svg), "--out-csv", str(csv)],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in csv.read_text().strip().split("\n")[1:]]
    assert len(rows) == 5 and {r[3] for r in rows} == {repr(0.25)}  # mu = (1 - 1.5)^2 for every c
    assert "polyline" not in svg.read_text()


def test_indexset_cli(capsys):
    code, out, _ = run_cli(["indexset", "eu({(0,0)};{(0,0)})"], capsys)
    assert code == 0
    assert out.strip() == "{(0,0),(0,1)}"
    code, out, _ = run_cli(["indexset", "compose([Empty;Empty;(0,0)+N0];[Empty;Empty;(0,0)+N0];1;1)"], capsys)
    assert code == 0
    assert out.strip().startswith("[Empty;Empty;")
    code, _, err = run_cli(["indexset", "eu({(0,0)}"], capsys)
    assert code == 2


def test_extension_build_and_verify(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    code, out, _ = run_cli(
        ["extension", "build", "--family", "5", "--Gamma", "0,0,0,0", "--out", str(spec_file)],
        capsys,
    )
    assert code == 0
    spec = json.loads(spec_file.read_text())
    U = spec["U"]
    assert U[0][0]["re"] == pytest.approx(-1.0)
    assert U[1][1]["re"] == pytest.approx(-1.0)
    assert U[0][1]["re"] == 0.0

    code, out, _ = run_cli(
        [
            "extension", "verify",
            "--spec", str(spec_file),
            "--alpha", "0.5", "--n", "1", "--c", "0",
            "--trials", "50",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["isotropy_worst_relative"] < 1e-10


def test_extension_greens_check_cli(capsys):
    code, out, _ = run_cli(
        ["extension", "greens-check", "--alpha", "1", "--n", "1", "--c", "1", "--mode", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relative_error"] < 1e-4


def test_deficiency_cli(capsys):
    code, out, _ = run_cli(
        ["deficiency", "--alpha", "0.5", "--n", "1", "--c", "0", "--kmax", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregate"] == "infinite"
    assert len(payload["per_mode"]) == 3


def test_frobenius_cli(capsys):
    code, out, _ = run_cli(
        ["frobenius", "--alpha", "1", "--n", "1", "--c", "0", "--root", "plus", "--mode", "1",
         "--cutoff", "6"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_certificate"]["passed"]
    thetas = [t["theta"] for t in payload["expansion"]["terms"]]
    assert 4.0 in thetas


def test_bessel_cli(capsys):
    code, out, _ = run_cli(
        ["bessel", "eval", "--kind", "I", "--x", "1", "--nu", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.2660658777520084)
    code, out, _ = run_cli(
        ["bessel", "eval", "--kind", "Ktilde", "--x", "1", "--nu", "1"], capsys
    )
    assert code == 0


def test_curvature_cli(tmp_path, capsys):
    code, out, _ = run_cli(["curvature", "--alpha", "1", "--n", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["flat_scalar_coefficient"] == pytest.approx(-4.0)
    assert payload["frame_form_coefficient"] == pytest.approx(-4.0)

    metric = {
        "conformal_factor": {
            "terms": [
                {"x_power": 0, "mode": 0, "cos": 1.0},
                {"x_power": 1, "mode": 0, "cos": 1.0},
            ]
        }
    }
    mfile = tmp_path / "metric.json"
    mfile.write_text(json.dumps(metric))
    code, out, _ = run_cli(
        ["curvature", "--alpha", "1", "--n", "1", "--metric", str(mfile)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["asymptotic_check"]["relative_error"] < 0.01



def test_curvature_cli_two_term_factor(tmp_path, capsys):
    # an x and an x^2 term together: both remainder powers must be fitted to meet the 1% bound
    metric = {
        "conformal_factor": {
            "terms": [
                {"x_power": 0, "mode": 0, "cos": 1.0},
                {"x_power": 1, "mode": 1, "cos": 0.25},
                {"x_power": 2, "mode": 1, "sin": -0.3},
            ]
        }
    }
    mfile = tmp_path / "metric.json"
    mfile.write_text(json.dumps(metric))
    code, out, _ = run_cli(
        ["curvature", "--alpha", "1", "--n", "2", "--metric", str(mfile)], capsys
    )
    assert code == 0
    assert json.loads(out)["asymptotic_check"]["relative_error"] < 1e-4

def test_usage_exit_codes(tmp_path, capsys):
    assert main(["classify", "--alpha", "bad:grid", "--n", "1", "--c", "0"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["classify", "--alpha", "-2", "--n", "1", "--c", "0"]) == 2  # alpha <= -1
    assert main(["classify", "--alpha=-1.5:0:0.5", "--n", "1", "--c", "0"]) == 2  # first alpha <= -1
    assert main(["classify", "--alpha=-1", "--n", "1", "--c", "0"]) == 2
    assert main(["classify", "--alpha", "nan", "--n", "1", "--c", "0"]) == 2
    assert main(["classify", "--alpha", "2", "--n", "1.5", "--c", "0"]) == 2  # not truncated to 1
    assert main(["classify", "--alpha", "2", "--n", "1:2:0.5", "--c", "0"]) == 2
    assert main(["classify", "--alpha", "2", "--n", "0", "--c", "0"]) == 2  # n < 1
    assert main(["classify", "--alpha", "2", "--n", "nan", "--c", "0"]) == 2
    assert main(["classify", "--alpha", "2", "--n", "1", "--c", "nan"]) == 2
    assert main(["phase-diagram", "--alpha=-1:0:0.5", "--c", "0", "--n", "1",
                 "--out-svg", "p.svg", "--out-csv", "p.csv"]) == 2
    assert main(["phase-diagram", "--alpha", "1", "--c", "0", "--n", "0",
                 "--out-svg", "p.svg", "--out-csv", "p.csv"]) == 2
    # non-finite alpha or c is rejected, not run through to NaN / Infinity tokens
    assert main(["frobenius", "--alpha", "1", "--n", "1", "--c", "nan", "--root", "plus"]) == 2
    assert main(["curvature", "--alpha", "inf", "--n", "1"]) == 2
    assert main(["deficiency", "--alpha", "1", "--n", "1", "--c", "nan", "--kmax", "1"]) == 2
    # a missing input file, a missing field or a field that is no number: one line on
    # stderr, no traceback
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "no_u.json").write_text(json.dumps({"regime": "mu_neg"}))
    term = {"x_power": "a", "mode": 0, "cos": 1.0}
    (tmp_path / "bad_term.json").write_text(json.dumps({"conformal_factor": {"terms": [term]}}))
    capsys.readouterr()
    for name, argv in [
        ("nofile.json", ["curvature", "--alpha", "1", "--n", "1", "--metric"]),
        ("empty.json", ["curvature", "--alpha", "1", "--n", "1", "--metric"]),
        ("bad_term.json", ["curvature", "--alpha", "1", "--n", "1", "--metric"]),
        ("nofile.json", ["extension", "verify", "--alpha", "1", "--n", "1", "--c", "1", "--spec"]),
        ("no_u.json", ["extension", "verify", "--alpha", "1", "--n", "1", "--c", "1", "--spec"]),
    ]:
        code, out, err = run_cli([*argv, str(tmp_path / name)], capsys)
        assert (code, out) == (2, ""), (argv, name)
        assert "error:" in err and err.count("\n") == 1, (argv, name, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["extension", "build", "--family", "1", "--gamma", "nan"],
        ["extension", "build", "--family", "5", "--Gamma", "inf,1,0,0"],
        ["curvature", "--alpha", "1", "--n", "1", "--metric", "m.json", "--y", "nan"],
        ["bessel", "eval", "--kind", "K", "--x", "2", "--nu", "inf"],
        ["classify", "--alpha", "1", "--n", "1", "--c", "0", "--out", "missing/x.json"],
        ["phase-diagram", "--alpha", "1", "--c", "0", "--n", "1",
         "--out-svg", "missing/p.svg", "--out-csv", "p.csv"],
    ],
    ids=["gamma-nan", "Gamma-inf", "y-nan", "nu-inf", "out", "out-svg"],
)
def test_non_finite_options_and_unwritable_outputs_are_usage_errors(argv, tmp_path, monkeypatch,
                                                                    capsys):
    # a NaN or infinite option is rejected, not run through, and an output that cannot be
    # written is invalid input: exit 2 with one line on stderr, no traceback, no output
    metric = {"conformal_factor": {"terms": [{"x_power": 1, "mode": 0, "cos": 1.0}]}}
    (tmp_path / "m.json").write_text(json.dumps(metric))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRUSHIN_OUTDIR", raising=False)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert err.startswith("usage error:") and err.count("\n") == 1, err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("spec", ["0:1:nan", "nan:1:0.1", "0:inf:1", "0:1:1e-300"])
def test_grids_that_never_end_are_usage_errors(spec, capsys):
    # unguarded, each of these grows the list of grid values until memory runs out
    start = time.perf_counter()
    code, out, err = run_cli(["classify", f"--alpha={spec}", "--n", "1", "--c", "0"], capsys)
    assert (code, out) == (2, "") and "usage error: bad grid" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "error,code",
    [
        (cli.UsageError("bad"), 2),
        (ParseError("bad"), 2),
        (ValueError("bad"), 2),
        (ResonantCaseError("limit"), 3),
        (UnsupportedConfigurationError("limit"), 3),
        (CertificateError("failed"), 1),
        (CheckFailedError("failed"), 1),
        (RuntimeError("diverged"), 3),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_table(monkeypatch, capsys, error, code):
    def raising(args):
        raise error

    monkeypatch.setattr(cli, "cmd_indexset", raising)
    assert main(["indexset", "Empty"]) == code



REUSE_SEQUENCE = [
    ["bessel", "eval", "--kind", "Ktilde", "--x", "2.0", "--nu", "1.5", "--scaled"],
    ["bessel", "eval", "--kind", "Ktilde", "--x", "2.0", "--nu", "1.5"],
    ["classify", "--alpha", "0.5:1.5:0.5", "--n", "1", "--c", "0", "--format", "csv"],
    ["classify", "--alpha", "0.5:1.5:0.5", "--n", "1", "--c", "0"],
    ["bessel", "eval", "--kind", "Q", "--x", "1", "--nu", "1"],
    ["indexset", "eu({(0,0)};{(1,1)})"],
]


def test_parser_reuse_matches_fresh_parsers(capsys):
    # main() builds its parser once per process: consecutive calls with other
    # subcommands and options, and a call after a usage error, must give the
    # exit codes and bytes that a freshly built parser gives for each call
    reused = [run_cli(argv, capsys) for argv in REUSE_SEQUENCE]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]
    assert reused == fresh


def test_deficiency_limit_point_cli():
    # mu = 9 > 4: limit point at 0, so every mode counts 0 (cold run, well under 2 s)
    proc = subprocess.run(
        [sys.executable, "-m", "grushin.cli", "deficiency", "--alpha", "2", "--n", "1", "--c", "0",
         "--kmax", "8"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert [(m["count_plus"], m["count_minus"]) for m in payload["per_mode"]] == [(0, 0)] * 8
    assert payload["aggregate"] == "zero"

def test_light_subcommands_do_not_import_scipy(tmp_path):
    # only bessel needs scipy; the other subcommands must not pay its import
    code = """
import contextlib, io, sys
from grushin.cli import main
argvs = [
    ["classify", "--alpha", "0.25:3:0.25", "--n", "1", "--c", "0"],
    ["phase-diagram", "--alpha", "0.5:1.5:0.5", "--c=0:0.5:0.25", "--n", "1",
     "--out-svg", "p.svg", "--out-csv", "p.csv"],
    ["indexset", "eu({(0,0)};{(0,0)})"],
    ["frobenius", "--alpha", "1", "--n", "1", "--c", "0", "--root", "plus"],
    ["extension", "build", "--family", "5", "--Gamma", "0,0,0,0"],
    ["extension", "greens-check", "--alpha", "1", "--n", "1", "--c", "1"],
    ["curvature", "--alpha", "1", "--n", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, GRUSHIN_OUTDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0] []"


def _loaded_scipy_modules(argv, tmp_path):
    code = f"""
import contextlib, io, json, sys
from grushin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    env = dict(os.environ, GRUSHIN_OUTDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def test_deficiency_does_not_import_scipy(tmp_path):
    # the deficiency oracle integrates with numpy alone
    argv = ["deficiency", "--alpha", "2", "--n", "1", "--c", "0", "--kmax", "8"]
    assert _loaded_scipy_modules(argv, tmp_path) == (0, [])


def test_bessel_series_route_does_not_import_scipy_integrate(tmp_path):
    # only the quadrature route integrates; the series route needs scipy.special alone
    code, modules = _loaded_scipy_modules(
        ["bessel", "eval", "--kind", "Ktilde", "--x", "2.0", "--nu", "1.5"], tmp_path)
    assert code == 0
    assert "scipy.special" in modules
    assert not [m for m in modules if m.startswith("scipy.integrate")]


def test_no_bessel_route_imports_scipy_integrate(tmp_path):
    # K at imaginary order right of the 2x = pi nu line (x < 400) is a numpy trapezoid: a
    # bessel eval there, an imaginary-order membership oracle (its probe at Bessel argument
    # 60) and u, u', u'' up to argument 20 all run on scipy.special alone
    code = """
import contextlib, io, json, sys
import numpy as np
from grushin.bessel import BesselModelOp, kernel_solutions, weighted_L2_membership_oracle
from grushin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["bessel", "eval", "--kind", "Ktilde", "--x", "30", "--nu", "5"])
op = BesselModelOp(a=1.0, b=4.0, h=0.5, beta=0.8)  # imaginary order nu = 2.5
verdict = weighted_L2_membership_oracle(op, "u2")
pair = kernel_solutions(op)
for which in ("u1", "u2"):
    for x in (np.geomspace(0.1, 50.0, 9), 30.0):
        pair.u(which, x), pair.du(which, x), pair.ddu(which, x)
print(json.dumps([code, verdict, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    env = dict(os.environ, GRUSHIN_OUTDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, verdict, modules = json.loads(proc.stdout)
    assert code == 0 and verdict in ("true", "false")
    assert "scipy.special" in modules
    assert not [m for m in modules if m.startswith("scipy.integrate")]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grushin.cli", "classify", "--alpha", "2", "--n", "1", "--c", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "EssentiallySelfAdjoint" in proc.stdout
