"""The benchmark's checks pass real outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py

Each test runs one operation of a workload through the worker's executor,
confirms its check accepts the output, then corrupts the output the way a
wrong program would and confirms the check rejects it.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from worker import execute  # noqa: E402
from workloads import Workload, warmup_round  # noqa: E402


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench_out"))


def _op(workload, kind, outdir, seed=7):
    """A real operation of the given kind and its result; earlier ops of the round run first."""
    ops = warmup_round(workload) if workload == "confinement_sweep" else \
        Workload(workload, seed).next_round()
    for spec in ops:
        result = execute(spec, outdir)
        if spec["kind"] == kind:
            assert checks.check(spec, result) == (False, []), spec
            return spec, result
    raise AssertionError(f"no {kind} operation in a {workload} round")


def _rejected(spec, result):
    failed, errors = checks.check(spec, result)
    return failed or bool(errors)


def _edit_json(result, edit):
    bad = copy.deepcopy(result)
    data = json.loads(bad["out"])
    edit(data)
    bad["out"] = json.dumps(data)
    return bad


FLIP = {"EssentiallySelfAdjoint": "NotESA_InfiniteDeficiency",
        "NotESA_InfiniteDeficiency": "EssentiallySelfAdjoint",
        "Critical_Mu4_Indeterminate": "EssentiallySelfAdjoint"}


def test_flipped_classify_verdict_is_rejected(outdir):
    spec, result = _op("classify_grid", "classify_json_near", outdir)
    bad = _edit_json(result, lambda d: d["rows"][37].update(verdict=FLIP[d["rows"][37]["verdict"]]))
    assert _rejected(spec, bad)


def test_flipped_resonance_and_moved_root_are_rejected(outdir):
    spec, result = _op("classify_grid", "classify_json_bulk", outdir)
    bad = _edit_json(result, lambda d: d["rows"][5].update(resonant=not d["rows"][5]["resonant"]))
    assert _rejected(spec, bad)
    bad = _edit_json(result, lambda d: d["rows"][9]["lambda_plus"].update(re=d["rows"][9]["lambda_plus"]["re"] + 1e-6))
    assert _rejected(spec, bad)


def test_flipped_csv_verdict_is_rejected(outdir):
    spec, result = _op("classify_grid", "classify_csv_bulk", outdir)
    lines = result["out"].splitlines()
    cells = lines[11].split(",")
    cells[4] = FLIP[cells[4]]
    bad = dict(result, out="\n".join(lines[:11] + [",".join(cells)] + lines[12:]) + "\n")
    assert _rejected(spec, bad)


def test_phase_diagram_cell_colour_and_curve_are_checked(outdir):
    spec, result = _op("classify_grid", "phase_diagram", outdir)
    svg_name = spec["read"][0]
    svg = result["files"][svg_name]
    colours = sorted({part.split('"')[0] for part in svg.split('fill="')[1:] if part[0] == "#"})
    assert len(colours) >= 2
    bad = copy.deepcopy(result)
    bad["files"][svg_name] = svg.replace(f'fill="{colours[0]}"', f'fill="{colours[1]}"', 1)
    assert _rejected(spec, bad)
    bad["files"][svg_name] = svg.replace('points="', 'points="3.00,3.00 ', 1)
    assert _rejected(spec, bad)


def test_wrong_deficiency_count_is_rejected(outdir):
    for kind in ("deficiency_limit_circle", "deficiency_limit_point"):
        spec, result = _op("confinement_sweep", kind, outdir)
        bad = _edit_json(result, lambda d: d["per_mode"][0].update(count_minus=1))
        assert _rejected(spec, bad)
        csv_spec = copy.deepcopy(spec)
        csv_spec["meta"]["format"] = "csv"
        csv_spec["argv"][-1] = "csv"
        csv_result = execute(csv_spec, outdir)
        assert checks.check(csv_spec, csv_result) == (False, [])
        lines = csv_result["out"].splitlines()
        lines[1] = "1,1,1"
        assert _rejected(csv_spec, dict(csv_result, out="\n".join(lines)))


def test_flipped_oracle_verdict_is_rejected_and_inconclusive_fails(outdir):
    for kind in ("oracle_real", "oracle_imaginary"):
        spec, result = _op("kernel_oracle", kind, outdir)
        flipped = {"true": "false", "false": "true"}[result["out"]]
        assert checks.check(spec, dict(result, out=flipped))[1]
        assert checks.check(spec, dict(result, out="inconclusive")) == (True, [])


def test_perturbed_kernel_values_are_rejected(outdir):
    for kind in ("kernel_real", "kernel_imaginary"):
        spec, result = _op("kernel_oracle", kind, outdir)
        bad = copy.deepcopy(result)
        bad["out"]["u2"][4][2] *= 1.0 + 1e-6  # u'' breaks the ODE residual
        assert _rejected(spec, bad)
        bad = copy.deepcopy(result)
        bad["out"]["u1"][3][1] *= 1.0 + 1e-6  # u' breaks the Wronskian
        assert _rejected(spec, bad)


@pytest.mark.parametrize("route", ["series", "quadrature", "asymptotic", "real_order"])
def test_perturbed_bessel_value_is_rejected(outdir, route):
    spec, result = _op("kernel_oracle", f"bessel_{route}", outdir)
    bad = _edit_json(result, lambda d: d.update(value=d["value"] * (1.0 + 1e-7)))
    assert _rejected(spec, bad)


def test_frobenius_coefficients_are_checked(outdir):
    for kind in ("frobenius_resonant_minus", "frobenius_nonresonant_plus", "frobenius_bessel_plus"):
        spec, result = _op("boundary_mix", kind, outdir)

        def nudge(d):
            coeffs = d["expansion"]["terms"][1]["coefficients"]
            idx = max(range(len(coeffs)), key=lambda i: abs(coeffs[i]["re"]))
            coeffs[idx]["re"] *= 1.0 + 1e-6

        assert _rejected(spec, _edit_json(result, nudge))


def test_perturbed_green_pairing_is_rejected(outdir):
    for kind in ("greens_mu_neg", "greens_mu_pos"):
        spec, result = _op("boundary_mix", kind, outdir)
        bad = _edit_json(result, lambda d: d["numeric"].update(im=d["numeric"]["im"] + 1e-2))
        assert _rejected(spec, bad)


def test_wrong_gluing_unitary_is_rejected(outdir):
    spec, result = _op("boundary_mix", "build_mu_pos", outdir)
    name = spec["read"][0]
    data = json.loads(result["files"][name])
    data["U"][0], data["U"][1] = data["U"][1], data["U"][0]  # still unitary, wrong relations
    bad = copy.deepcopy(result)
    bad["files"][name] = json.dumps(data)
    assert _rejected(spec, bad)


def test_wrong_compose_face_is_rejected(outdir):
    spec, result = _op("boundary_mix", "indexset_compose", outdir)
    faces = result["out"].strip()[1:-1].split(";")
    faces[2] = faces[2].replace(",0)", ",1)", 1)
    assert _rejected(spec, dict(result, out="[" + ";".join(faces) + "]\n"))
    faces = result["out"].strip()[1:-1].split(";")
    faces[0] = "Empty"
    assert _rejected(spec, dict(result, out="[" + ";".join(faces) + "]\n"))


def test_curvature_limit_off_by_more_than_one_percent_is_rejected(outdir):
    spec, result = _op("boundary_mix", "curvature_n2", outdir)
    bad = _edit_json(result, lambda d: d["asymptotic_check"].update(
        limit=d["asymptotic_check"]["expected"] * 1.011))
    assert _rejected(spec, bad)


def test_nonzero_exit_counts_as_failed(outdir):
    spec, result = _op("boundary_mix", "verify_mu_neg", outdir)
    assert checks.check(spec, dict(result, rc=1)) == (True, [])
