"""Command-line front end: classification tables, phase diagrams, module drivers.

Machine-readable output first: every subcommand emits JSON (or CSV where
tabular) with a ``schema_version`` field, printed to stdout or written via
--out.  Identical invocations produce byte-identical output: floats are
rendered by ``repr`` (shortest round trip), row order is the input order,
and nothing timestamps itself.  Exit codes: 0 ok, 1 a numerical cross-check
failed, 2 usage, 3 numerics did not converge or reached a numerical limit
(``ResonantCaseError``, ``UnsupportedConfigurationError``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import curvature as curvature_mod
from .deficiency import UnsupportedConfigurationError, aggregate_deficiency
from .extensions import (
    BoundaryJet,
    CheckFailedError,
    ExtensionSpec,
    asymmetry_form,
    extension_hypotheses,
    greens_identity_check,
    lagrangian_from_unitary,
    maximality_witness,
    named_family,
    realize_jet,
)
from .frobenius import (
    CertificateError,
    ResonantCaseError,
    expand,
    flat_model_series_data,
    residual_certificate,
)
from .indexset_lang import ParseError, format_value, parse
from .params import REGIMES, VERDICTS, GrushinParams, classify_grid, complex_to_json, forbidden_c

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3

#: most steps a 'start:stop:step' grid may span
MAX_GRID_VALUES = 10**6


class UsageError(ValueError):
    pass


def parse_grid(spec: str) -> List[float]:
    """'v' or 'start:stop:step', endpoints inclusive within 1e-12.

    A grid spans at most MAX_GRID_VALUES steps, and its start, stop and step are finite.
    """
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise UsageError(f"grid must be 'v' or 'start:stop:step', got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"bad grid {spec!r}: start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid {spec!r}: need step > 0 and stop >= start")
    if (stop - start) / step > MAX_GRID_VALUES:
        raise UsageError(f"bad grid {spec!r}: more than {MAX_GRID_VALUES} values")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        out.append(v)
        k += 1
    return out


def _out_path(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    outdir = os.environ.get("GRUSHIN_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def emit(text: str, out: Optional[str]):
    """Write ``text`` to stdout, or to the file ``out``; a file that cannot be written is a usage error."""
    target = _out_path(out)
    if target is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc.strerror}") from exc


def to_json(payload: dict) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2)


def to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"
    return str(v)


_REGIME_NAMES = np.array([r.value for r in REGIMES])
_VERDICT_NAMES = np.array([v.value for v in VERDICTS])


def cmd_classify(args) -> int:
    grid = np.meshgrid(parse_grid(args.alpha), parse_grid(args.n), parse_grid(args.c), indexing="ij")
    g = classify_grid(*grid)
    alpha, c, mu = (v.ravel().tolist() for v in (grid[0], grid[2], g.mu))
    n = grid[1].ravel().astype(int).tolist()
    verdict = _VERDICT_NAMES[g.regime.ravel()].tolist()
    regime = _REGIME_NAMES[g.regime.ravel()].tolist()
    resonant = g.resonant.ravel().tolist()
    if args.format == "csv":
        header = ["alpha", "n", "c", "mu", "verdict", "regime", "resonant"]
        emit(to_csv(header, list(zip(alpha, n, c, mu, verdict, regime, resonant))), args.out)
        return EXIT_OK
    rows = [
        {
            "alpha": a,
            "n": nn,
            "c": cc,
            "mu": m,
            "lambda_plus": {"re": lp.real, "im": lp.imag},
            "lambda_minus": {"re": lm.real, "im": lm.imag},
            "verdict": v,
            "regime": r,
            "resonant": res,
            "resonance_witness": wit if res else None,
        }
        for a, nn, cc, m, lp, lm, v, r, res, wit in zip(
            alpha, n, c, mu, g.lambda_plus.ravel().tolist(), g.lambda_minus.ravel().tolist(),
            verdict, regime, resonant, g.witness.reshape(-1, 2).tolist(),
        )
    ]
    emit(to_json({"rows": rows}), args.out)
    return EXIT_OK


_REGIME_COLORS = {
    "mu_gt_4": "#4f8fd9",
    "mu_eq_4": "#222222",
    "mu_in_0_4": "#e8b23d",
    "mu_neg": "#d95f4f",
}


def _svg_phase_diagram(alphas, cs, regimes, curve, cmdline) -> str:
    cell = 8
    width = max(len(alphas) * cell, 1)
    height = max(len(cs) * cell, 1)
    pieces = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<metadata><command>{_xml_escape(cmdline)}</command></metadata>",
    ]
    for j, _ in enumerate(cs):
        for i, _ in enumerate(alphas):
            color = _REGIME_COLORS[regimes[j][i]]
            # SVG y axis points down; row 0 is the smallest c, drawn at the bottom
            ypix = (len(cs) - 1 - j) * cell
            pieces.append(
                f'<rect x="{i * cell}" y="{ypix}" width="{cell}" height="{cell}" '
                f'fill="{color}"/>'
            )
    if len(curve) >= 2 and len(alphas) > 1 and len(cs) > 1:
        a0, a1 = alphas[0], alphas[-1]
        c0, c1 = cs[0], cs[-1]
        pts = []
        for a, c in curve:
            px = (a - a0) / (a1 - a0) * (width - cell) + cell / 2
            py = (1 - (c - c0) / (c1 - c0)) * (height - cell) + cell / 2
            pts.append(f"{px:.2f},{py:.2f}")
        pieces.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="#111111" stroke-width="1.5"/>'
        )
    pieces.append("</svg>")
    return "\n".join(pieces) + "\n"


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def cmd_phase_diagram(args) -> int:
    alphas = parse_grid(args.alpha)
    cs = parse_grid(args.c)
    n = args.n
    c_grid, a_grid = np.meshgrid(cs, alphas, indexing="ij")
    g = classify_grid(a_grid, n, c_grid)
    verdict, regime = _VERDICT_NAMES[g.regime], _REGIME_NAMES[g.regime]
    rows = [
        [a, n, c, mu, v, r]
        for a, c, mu, v, r in zip(*(x.ravel().tolist() for x in (a_grid, c_grid, g.mu, verdict, regime)))
    ]
    curve = []
    for a in alphas:
        try:
            c0 = forbidden_c(a, n)
        except ValueError:  # alpha = 0 or -2/(1+n): mu does not depend on c, no critical point
            continue
        if cs[0] - 1e-12 <= c0 <= cs[-1] + 1e-12:
            curve.append((a, c0))
    cmdline = "grushin " + " ".join(sys.argv[1:]) if sys.argv[0] else "grushin"
    svg = _svg_phase_diagram(alphas, cs, regime.tolist(), curve, cmdline)
    emit(svg, args.out_svg)
    emit(to_csv(["alpha", "n", "c", "mu", "verdict", "regime"], rows), args.out_csv)
    return EXIT_OK


def cmd_deficiency(args) -> int:
    p = GrushinParams(args.alpha, args.n, args.c)
    report = aggregate_deficiency(p, args.kmax)
    if args.format == "csv":
        rows = [[k, cp, cm] for k, cp, cm in report.per_mode]
        rows.append(["aggregate", report.aggregate, report.classification_at_zero.kind])
        emit(to_csv(["k", "count_plus", "count_minus"], rows), args.out)
    else:
        emit(to_json(report.to_json_dict()), args.out)
    return EXIT_OK


def cmd_frobenius(args) -> int:
    p = GrushinParams(args.alpha, args.n, args.c)
    data = flat_model_series_data(p, K=max(abs(args.mode), 1))
    seed = data.unit_seed((args.mode,) if p.n == 1 else tuple([args.mode] + [0] * (p.n - 1)))
    exp = expand(data, args.root, seed, cutoff=args.cutoff)
    grid = np.geomspace(args.grid_min, 0.5, args.grid_points)
    cert = residual_certificate(exp, data, grid)
    payload = {
        "params": p.to_json_dict(),
        "root": args.root,
        "mode": args.mode,
        "expansion": exp.to_json_dict(),
        "residual_certificate": cert.to_json_dict(),
    }
    emit(to_json(payload), args.out)
    return EXIT_OK if cert.passed else EXIT_CHECK_FAILED


def _parse_complex(s: str) -> complex:
    return complex(s.replace(" ", "").replace("i", "j"))


def _parse_gamma_matrix(s: str) -> np.ndarray:
    vals = [float(v) for v in s.split(",")]
    if len(vals) != 4 or not all(map(math.isfinite, vals)):
        raise UsageError(f"--Gamma takes four finite numbers 'h11,h22,re12,im12', got {s!r}")
    h11, h22, re12, im12 = vals
    z = complex(re12, im12)
    return np.array([[h11, z], [np.conj(z), h22]])


def cmd_extension_build(args) -> int:
    kwargs = {}
    if args.gamma is not None:
        kwargs["gamma"] = args.gamma
    if args.b is not None:
        kwargs["b"] = _parse_complex(args.b)
    if args.Gamma is not None:
        kwargs["Gamma"] = _parse_gamma_matrix(args.Gamma)
    spec = named_family(args.family, regime=args.regime, **kwargs)
    emit(to_json(spec.to_json_dict()), args.out)
    return EXIT_OK


def _read_input(path: str, build):
    """``build`` applied to the JSON in file ``path``; a missing file or field is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except (KeyError, TypeError) as exc:
        raise UsageError(f"{path}: missing or malformed field {exc}") from exc


def cmd_extension_verify(args) -> int:
    spec = _read_input(args.spec, ExtensionSpec.from_json_dict)
    p = GrushinParams(args.alpha, args.n, args.c)
    rng = np.random.default_rng(args.seed)
    constraint = lagrangian_from_unitary(spec)
    modes = [(k,) for k in range(-args.kmax, args.kmax + 1)]
    worst = 0.0
    for _ in range(args.trials):
        u = constraint.random_jet(modes, rng)
        v = constraint.random_jet(modes, rng)
        scale = float(np.max(np.abs(u.coeffs)) * np.max(np.abs(v.coeffs))) + 1e-300
        worst = max(worst, abs(asymmetry_form(u, v, p)) / scale)
    witnesses_ok = 0
    for _ in range(args.trials):
        v = BoundaryJet.zero(modes)
        v.coeffs[:] = rng.normal(size=v.coeffs.shape) + 1j * rng.normal(size=v.coeffs.shape)
        if constraint.satisfied(v):
            continue
        u = maximality_witness(spec, v)
        if abs(asymmetry_form(u, v, p)) > 1e-8:
            witnesses_ok += 1
    ok = worst < 1e-10 and witnesses_ok > 0
    payload = {
        "params": p.to_json_dict(),
        "hypotheses": extension_hypotheses(p),
        "isotropy_worst_relative": worst,
        "maximality_witnesses_verified": witnesses_ok,
        "passed": ok,
    }
    emit(to_json(payload), args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_extension_greens_check(args) -> int:
    p = GrushinParams(args.alpha, args.n, args.c)
    rng = np.random.default_rng(args.seed)
    modes = [(args.mode,)]
    u_jet = BoundaryJet.zero(modes)
    v_jet = BoundaryJet.zero(modes)
    u_jet.coeffs[:] = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
    v_jet.coeffs[:] = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
    u = realize_jet(p, u_jet, cutoff=args.cutoff)
    v = realize_jet(p, v_jet, cutoff=args.cutoff)
    eps = np.geomspace(args.eps_min, args.eps_max, args.eps_count)
    numeric, closed, rel = greens_identity_check(p, u, v, eps)
    payload = {
        "params": p.to_json_dict(),
        "numeric": complex_to_json(numeric),
        "closed_form": complex_to_json(closed),
        "relative_error": rel,
        "passed": rel < 1e-4,
    }
    emit(to_json(payload), args.out)
    return EXIT_OK if rel < 1e-4 else EXIT_CHECK_FAILED


def cmd_indexset(args) -> int:
    value = parse(args.expression)
    emit(format_value(value), args.out)
    return EXIT_OK


def _metric_from_file(path: str, alpha: float, n: int) -> curvature_mod.WarpedMetric:
    """The warped metric whose conformal factor f(x, y_1) has the terms in file ``path``."""
    terms = _read_input(path, lambda data: [
        tuple(map(float, (t["x_power"], t["mode"], t.get("cos", 0.0), t.get("sin", 0.0))))
        for t in data["conformal_factor"]["terms"]])

    def f(x, y):
        total, y0 = 0.0, float(np.atleast_1d(y)[0])
        for m, k, a, b in terms:
            total += x**m * (a * math.cos(k * y0) + b * math.sin(k * y0))
        return total

    return curvature_mod.conformal_metric(f, alpha, n)


def cmd_curvature(args) -> int:
    p = GrushinParams(args.alpha, args.n, 0.0)
    payload = {
        "params": {"alpha": args.alpha, "n": args.n},
        "flat_scalar_coefficient": curvature_mod.flat_model_scalar(p),
        "frame_form_coefficient": curvature_mod.flat_model_scalar_frame_form(p),
    }
    if args.metric is not None:
        metric = _metric_from_file(args.metric, args.alpha, args.n)
        grid = parse_grid(args.x_grid)
        report = curvature_mod.asymptotic_check(metric, grid, y=np.full(args.n, args.y))
        payload["asymptotic_check"] = report.to_json_dict()
        ok = report.relative_error < 0.01
    else:
        ok = True
    emit(to_json(payload), args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_bessel(args) -> int:
    from . import bessel as bessel_mod  # imports scipy

    plain, scaled, imaginary = {
        "I": (bessel_mod.bessel_I, bessel_mod.bessel_I_scaled, False),
        "K": (bessel_mod.bessel_K, bessel_mod.bessel_K_scaled, False),
        "Itilde": (bessel_mod.bessel_I_tilde, bessel_mod.bessel_I_scaled, True),
        "Ktilde": (bessel_mod.bessel_K_tilde, bessel_mod.bessel_K_scaled, True),
    }[args.kind]
    value = scaled(args.x, args.nu, imaginary_order=imaginary) if args.scaled else plain(args.x, args.nu)
    payload = {"kind": args.kind, "x": args.x, "nu": args.nu, "scaled": args.scaled, "value": value}
    emit(to_json(payload), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Each subcommand names its ``cmd_*`` handler, which ``main`` looks up in
    this module when it runs, so a replaced or wrapped handler is the one
    called.
    """
    parser = argparse.ArgumentParser(
        prog="grushin",
        description="Spectral toolkit for curvature Laplacians on alpha-Grushin manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification table over a parameter grid")
    p.add_argument("--alpha", required=True, help="value or start:stop:step")
    p.add_argument("--n", required=True, help="value or start:stop:step")
    p.add_argument("--c", required=True, help="value or start:stop:step")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(handler="cmd_classify")

    p = sub.add_parser("phase-diagram", help="(alpha, c) regime map with the critical curve")
    p.add_argument("--alpha", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-svg", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(handler="cmd_phase_diagram")

    p = sub.add_parser("deficiency", help="per-mode deficiency counts and aggregate verdict")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(handler="cmd_deficiency")

    p = sub.add_parser("frobenius", help="boundary series expansion and residual certificate")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--root", choices=["plus", "minus"], required=True)
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--cutoff", type=float, default=10.0)
    p.add_argument("--grid-min", type=float, default=0.01)
    p.add_argument("--grid-points", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(handler="cmd_frobenius")

    p = sub.add_parser("extension", help="self-adjoint extension tools")
    esub = p.add_subparsers(dest="ext_command", required=True)

    pb = esub.add_parser("build", help="construct a named-family gluing unitary")
    pb.add_argument("--family", type=int, required=True, choices=[1, 2, 3, 4, 5])
    pb.add_argument("--gamma", type=float)
    pb.add_argument("--b", help="complex like '1-0.5i'")
    pb.add_argument("--Gamma", help="Hermitian 2x2 as 'h11,h22,re12,im12'")
    pb.add_argument("--regime", choices=["mu_pos", "mu_neg"], default="mu_pos")
    pb.add_argument("--out")
    pb.set_defaults(handler="cmd_extension_build")

    pv = esub.add_parser("verify", help="isotropy and maximality checks on random jets")
    pv.add_argument("--spec", required=True)
    pv.add_argument("--alpha", type=float, required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--c", type=float, required=True)
    pv.add_argument("--trials", type=int, default=200)
    pv.add_argument("--kmax", type=int, default=3)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out")
    pv.set_defaults(handler="cmd_extension_verify")

    pg = esub.add_parser("greens-check", help="boundary-pairing quadrature cross-check")
    pg.add_argument("--alpha", type=float, required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--c", type=float, required=True)
    pg.add_argument("--mode", type=int, default=1)
    pg.add_argument("--cutoff", type=float, default=12.0)
    pg.add_argument("--eps-min", type=float, default=0.02)
    pg.add_argument("--eps-max", type=float, default=0.12)
    pg.add_argument("--eps-count", type=int, default=6)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out")
    pg.set_defaults(handler="cmd_extension_greens_check")

    p = sub.add_parser("indexset", help="evaluate an index-set expression")
    p.add_argument("expression")
    p.add_argument("--out")
    p.set_defaults(handler="cmd_indexset")

    p = sub.add_parser("curvature", help="scalar-curvature closed forms and asymptotics")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--metric", help="JSON file with conformal_factor terms")
    p.add_argument("--x-grid", default="0.02:0.4:0.05")
    p.add_argument("--y", type=float, default=0.8)
    p.add_argument("--out")
    p.set_defaults(handler="cmd_curvature")

    p = sub.add_parser("bessel", help="modified Bessel evaluation")
    bsub = p.add_subparsers(dest="bessel_command", required=True)
    pe = bsub.add_parser("eval")
    pe.add_argument("--kind", choices=["I", "K", "Itilde", "Ktilde"], required=True)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--nu", type=float, required=True)
    pe.add_argument("--scaled", action="store_true")
    pe.add_argument("--out")
    pe.set_defaults(handler="cmd_bessel")

    return parser


def _check_finite(args):
    """Every float option is finite: NaN or an infinity is a usage error, never run through."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_finite(args)
        return globals()[args.handler](args)
    except (UsageError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResonantCaseError, UnsupportedConfigurationError) as exc:
        print(f"numerical limit: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificateError, CheckFailedError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except RuntimeError as exc:
        print(f"numerics did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT


if __name__ == "__main__":
    sys.exit(main())
