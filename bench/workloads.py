"""Seeded inputs for the four workloads.

A workload is an endless sequence of rounds; every round holds the same
operation kinds in the same order, so each run attempts whole rounds of the
same operations.  ``Workload(name, seed).next_round()`` draws the next round
from a generator seeded by ``--seed`` alone.

An operation spec is a JSON-able dict:

* ``kind``  -- the operation kind (the unit of warm-up and of per-kind labels);
* ``argv``  -- for a CLI operation, the arguments of ``grushin.cli.main``;
  ``{outdir}`` stands for the worker's output directory;
* ``write`` -- input files the worker writes before the timed call;
* ``read``  -- output files the worker reads back after the timed call;
* ``call``/``args`` -- for a library operation, the call and its keywords;
* ``meta``  -- what the checks and the per-layer metrics need to know.

Nothing here imports the program.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("classify_grid", "confinement_sweep", "kernel_oracle", "boundary_mix")


def grid_spec(start: float, step: float, count: int) -> str:
    """A 'start:stop:step' grid holding exactly ``count`` values."""
    stop = start + (count - 1) * step + step / 2.0
    return f"{start!r}:{stop!r}:{step!r}"


def grid_values(spec: str) -> list:
    """The values the CLI grid syntax denotes: endpoints inclusive within 1e-12."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    start, stop, step = (float(p) for p in parts)
    out, k = [], 0
    while start + k * step <= stop + 1e-12:
        out.append(start + k * step)
        k += 1
    return out


def _r(x: float, digits: int = 4) -> float:
    return round(float(x), digits)


# ---------------------------------------------------------------------------
# classify_grid

BULK_SHAPE = (30, 4, 20)  # alpha x n x c values per classify request: 2400 rows
PHASE_SHAPE = (50, 50)  # alpha x c cells per phase diagram: 2500 cells
NEAR_SHAPE = (8, 3, 8)  # alpha x n x c values per near-singular request: 192 rows


def _classify_bulk(rng, fmt: str) -> dict:
    # the cost of a row grows with mu and with 1/(1 + alpha); every bulk request
    # spans the same alpha and c ranges, with a seeded offset, so costs match
    na, nn, nc = BULK_SHAPE
    alpha = grid_spec(_r(rng.uniform(0.02, 0.08), 4), 0.09, na)
    c = grid_spec(_r(rng.uniform(-1.02, -0.98), 4), 0.1, nc)
    argv = ["classify", f"--alpha={alpha}", f"--n=1:{nn}:1", f"--c={c}", "--format", fmt]
    return {"kind": f"classify_{fmt}_bulk", "argv": argv,
            "meta": {"rows": na * nn * nc, "band": "bulk"}}


def _classify_near(rng, fmt: str) -> dict:
    na, nn, nc = NEAR_SHAPE
    # the smallest 1 + alpha sets the cost of a near-singular row; keep it in
    # a narrow band so every request costs about the same
    start = _r(-1.0 + rng.uniform(0.0030, 0.0032), 6)
    alpha = grid_spec(start, (-0.99 - start) / (na - 1), na)
    c = grid_spec(_r(rng.uniform(-0.52, -0.48), 4), 0.1, nc)
    argv = ["classify", f"--alpha={alpha}", f"--n=1:{nn}:1", f"--c={c}", "--format", fmt]
    return {"kind": f"classify_{fmt}_near", "argv": argv,
            "meta": {"rows": na * nn * nc, "band": "near_singular"}}


def _phase_diagram(rng) -> dict:
    na, nc = PHASE_SHAPE
    n = 2
    alpha = grid_spec(_r(rng.uniform(0.02, 0.08), 4), 0.05, na)
    c = grid_spec(_r(rng.uniform(-1.02, -0.98), 4), 0.04, nc)
    svg, csv = "phase.svg", "phase.csv"
    argv = ["phase-diagram", f"--alpha={alpha}", f"--c={c}", "--n", str(n),
            "--out-svg", "{outdir}/" + svg, "--out-csv", "{outdir}/" + csv]
    return {"kind": "phase_diagram", "argv": argv, "read": [svg, csv],
            "meta": {"rows": na * nc, "band": "bulk", "n": n, "alpha": alpha, "c": c}}


# ---------------------------------------------------------------------------
# confinement_sweep

LIMIT_CIRCLE = ((1.0, 1.0 / 3.0), (1.0, 2.0 / 3.0), (1.0, 1.0), (0.5, 0.0))
LIMIT_POINT = ((0.5, -1.0), (0.25, -3.0))
# A round of seven: alpha = 1, c = 2/3 runs twice.  Its cost lies between the
# cheaper and the dearer points, so the median of a run falls inside its samples
# instead of on the gap between two points' costs.
CONFINEMENT_ROUND = LIMIT_CIRCLE + ((1.0, 2.0 / 3.0),)


def _deficiency(alpha: float, c: float, kmax: int, regime: str, fmt: str) -> dict:
    argv = ["deficiency", "--alpha", repr(alpha), "--n", "1", f"--c={c!r}",
            "--kmax", str(kmax), "--format", fmt]
    return {"kind": f"deficiency_{regime}", "argv": argv,
            "meta": {"alpha": alpha, "n": 1, "c": c, "kmax": kmax, "regime": regime,
                     "format": fmt}}


# ---------------------------------------------------------------------------
# kernel_oracle


MIN_IMAGINARY_NU = 0.1  # below about 0.05 the oracle answers "inconclusive" (CHANGES.md)


def _model_op(rng, order: str) -> dict:
    """A random model operator T = x^2 d^2 + a x d + b - h x^{2 beta} of the given order kind."""
    while True:
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        h, beta = 10 ** rng.uniform(-1.0, 1.0), rng.uniform(0.4, 2.5)
        mu_op = (a - 1.0) ** 2 - 4.0 * b
        nu = math.sqrt(abs(mu_op)) / (2.0 * beta)
        real = mu_op >= 0.0
        if nu <= 12.0 and real == (order == "real") and (real or nu >= MIN_IMAGINARY_NU):
            return {"a": float(a), "b": float(b), "h": float(h), "beta": float(beta)}


def _oracle(rng, order: str) -> dict:
    op = _model_op(rng, order)
    mu_op = (op["a"] - 1.0) ** 2 - 4.0 * op["b"]
    re_sqrt = math.sqrt(mu_op) if mu_op >= 0 else 0.0
    delta_star = (1.0 - op["a"]) / 2.0 - re_sqrt / 2.0 + 0.5
    side = float(rng.choice([-1.0, 1.0]))
    op["delta"] = float(delta_star + side * rng.uniform(0.25, 1.25))
    return {"kind": f"oracle_{order}", "call": "oracle", "args": op, "meta": {"order": order}}


KERNEL_XS = tuple(float(x) for x in np.geomspace(0.1, 5.0, 9))


def _kernel(rng, order: str) -> dict:
    op = _model_op(rng, order)
    return {"kind": f"kernel_{order}", "call": "kernel", "args": dict(op, xs=list(KERNEL_XS)),
            "meta": {"order": order}}


def _bessel(rng, route: str) -> dict:
    scaled = False
    if route == "series":
        # Ktilde left of the 2x = pi nu line runs the reflected ascending series
        nu = rng.uniform(1.0, 10.0)
        kind, x = "Ktilde", rng.uniform(0.05, 0.95) * math.pi * nu / 2.0
    elif route == "quadrature":
        nu = rng.uniform(0.5, 10.0)
        kind, x = "Ktilde", rng.uniform(1.05 * math.pi * nu / 2.0, 60.0)
    elif route == "asymptotic":
        nu = rng.uniform(0.5, 10.0)
        kind, x = str(rng.choice(["Itilde", "Ktilde"])), rng.uniform(400.0, 650.0)
        scaled = bool(rng.integers(0, 2))
    else:
        nu = rng.uniform(0.0, 10.0)
        kind, x = str(rng.choice(["I", "K"])), 10 ** rng.uniform(-1.0, math.log10(50.0))
    argv = ["bessel", "eval", "--kind", kind, "--x", repr(float(x)), "--nu", repr(float(nu))]
    if scaled:
        argv.append("--scaled")
    return {"kind": f"bessel_{route}", "argv": argv,
            "meta": {"route": route, "kind": kind, "x": float(x), "nu": float(nu),
                     "scaled": scaled}}


# ---------------------------------------------------------------------------
# boundary_mix

VERIFY_TRIALS = 60
# params of the two extension regimes: mu = 2.25 in (0, 4), and mu = -12 < 0
REGIME_PARAMS = {"mu_pos": (0.5, 0.0), "mu_neg": (1.0, 1.0)}


def _frobenius(alpha, c, root, mode, case, cutoff=None) -> dict:
    argv = ["frobenius", "--alpha", repr(alpha), "--n", "1", f"--c={c!r}",
            "--root", root, "--mode", str(mode)]
    if cutoff is not None:
        argv += ["--cutoff", repr(cutoff)]
    return {"kind": f"frobenius_{case}_{root}", "argv": argv,
            "meta": {"alpha": alpha, "n": 1, "c": c, "root": root, "mode": mode,
                     "case": case, "cutoff": 10.0 if cutoff is None else cutoff}}


def _greens(rng, regime: str) -> dict:
    alpha, c = REGIME_PARAMS[regime]
    seed, mode = int(rng.integers(0, 2**31)), int(rng.integers(1, 4))
    argv = ["extension", "greens-check", "--alpha", repr(alpha), "--n", "1", f"--c={c!r}",
            "--mode", str(mode), "--seed", str(seed)]
    return {"kind": f"greens_{regime}", "argv": argv,
            "meta": {"alpha": alpha, "n": 1, "c": c, "regime": regime, "seed": seed}}


def _family_args(rng, family: int) -> dict:
    draw = {}
    if family in (2, 3, 4):
        draw["gamma"] = _r(rng.normal(), 6)
    if family == 4:
        draw["b"] = [_r(rng.normal(), 6), _r(rng.normal(), 6)]
    if family == 5:
        draw["Gamma"] = [_r(v, 6) for v in rng.normal(size=4)]
    return draw


def _build_verify(rng, regime: str) -> list:
    family = int(rng.integers(1, 6))
    draw = _family_args(rng, family)
    argv = ["extension", "build", "--family", str(family), "--regime", regime]
    if "gamma" in draw:
        argv.append(f"--gamma={draw['gamma']!r}")
    if "b" in draw:
        re, im = draw["b"]
        argv.append(f"--b={re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i")
    if "Gamma" in draw:
        argv.append("--Gamma=" + ",".join(repr(v) for v in draw["Gamma"]))
    spec_file = f"spec-{regime}.json"
    alpha, c = REGIME_PARAMS[regime]
    build = {"kind": f"build_{regime}", "argv": argv + ["--out", "{outdir}/" + spec_file],
             "read": [spec_file],
             "meta": {"family": family, "regime": regime, **draw}}
    verify = {"kind": f"verify_{regime}",
              "argv": ["extension", "verify", "--spec", "{outdir}/" + spec_file,
                       "--alpha", repr(alpha), "--n", "1", f"--c={c!r}",
                       "--trials", str(VERIFY_TRIALS), "--seed", str(int(rng.integers(0, 2**31)))],
              "meta": {"alpha": alpha, "n": 1, "c": c, "regime": regime,
                       "trials": VERIFY_TRIALS}}
    return [build, verify]


def _face(rng, lo: int) -> list:
    m = int(rng.integers(1, 4))
    return sorted({(int(rng.integers(lo, lo + 5)), int(rng.integers(0, 2))) for _ in range(m)})


def _fmt_face(points) -> str:
    return "{" + ",".join(f"({s},{p})" for s, p in points) + "}"


def _compose(rng) -> dict:
    # E01 and F10 start at 3, so Re(E01 + F10) >= 6 > (1 + alpha) n for the draws below
    E = [_face(rng, 3), _face(rng, 3), _face(rng, 0)]
    F = [_face(rng, 3), _face(rng, 3), _face(rng, 0)]
    alpha, n = float(rng.choice([0.25, 0.5, 0.75])), int(rng.integers(1, 3))
    expr = ("compose([" + ";".join(_fmt_face(f) for f in E) + "];["
            + ";".join(_fmt_face(f) for f in F) + f"];{alpha!r};{n})")
    return {"kind": "indexset_compose", "argv": ["indexset", expr],
            "meta": {"E": E, "F": F, "alpha": alpha, "n": n}}


def _curvature(rng, n: int) -> dict:
    # one perturbation term of order x or x^2: the asymptotic fit models a
    # single remainder power (see CHANGES.md for mixed-order perturbations).
    # alpha >= 0.5 and |eps| <= 0.3 keep the fit's worst error near 0.3%: at
    # alpha = 0.25 and eps = -0.5 an x sin(2y) term misses the 1% bound.
    alpha = _r(rng.uniform(0.5, 1.5), 4)
    power, mode = int(rng.integers(1, 3)), int(rng.integers(0, 3))
    trig = "cos" if mode == 0 else str(rng.choice(["cos", "sin"]))
    eps = _r(rng.uniform(0.1, 0.3) * rng.choice([-1.0, 1.0]), 4)
    metric = {"conformal_factor": {"terms": [
        {"x_power": 0, "mode": 0, "cos": 1.0},
        {"x_power": power, "mode": mode, trig: eps},
    ]}}
    name = f"metric-n{n}.json"
    return {"kind": f"curvature_n{n}",
            "argv": ["curvature", "--alpha", repr(alpha), "--n", str(n),
                     "--metric", "{outdir}/" + name],
            "write": {name: metric}, "meta": {"alpha": alpha, "n": n}}


# ---------------------------------------------------------------------------


class Workload:
    """The seeded round generator of one workload."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = np.random.default_rng(seed)

    def next_round(self) -> list:
        rng = self.rng
        if self.name == "classify_grid":
            return [_classify_bulk(rng, "json"), _classify_bulk(rng, "csv"),
                    _phase_diagram(rng), _classify_near(rng, "json"),
                    _classify_near(rng, "csv")]
        if self.name == "confinement_sweep":
            ops = [_deficiency(a, c, 8, "limit_circle", str(rng.choice(["json", "csv"])))
                   for a, c in CONFINEMENT_ROUND]
            ops += [_deficiency(a, c, 2, "limit_point", str(rng.choice(["json", "csv"])))
                    for a, c in LIMIT_POINT]
            return [ops[j] for j in rng.permutation(len(ops))]
        if self.name == "kernel_oracle":
            return [_oracle(rng, "real"), _oracle(rng, "imaginary"), _oracle(rng, "real"),
                    _oracle(rng, "imaginary"), _kernel(rng, "real"), _kernel(rng, "imaginary"),
                    _bessel(rng, "series"), _bessel(rng, "quadrature"),
                    _bessel(rng, "asymptotic"), _bessel(rng, "real_order")]
        alpha_nr, c_nr = _r(rng.uniform(0.3, 0.8), 4), _r(rng.uniform(0.05, 0.4), 4)
        modes = [int(m) for m in rng.integers(1, 4, size=5)]
        return [
            _frobenius(0.5, 0.0, "plus", modes[0], "resonant"),
            _frobenius(0.5, 0.0, "minus", modes[1], "resonant"),
            _frobenius(alpha_nr, c_nr, "plus", modes[2], "nonresonant"),
            _frobenius(alpha_nr, c_nr, "minus", modes[3], "nonresonant"),
            _frobenius(1.0, 0.0, "plus", modes[4], "bessel", cutoff=36.5),
            _greens(rng, "mu_neg"),
            _greens(rng, "mu_pos"),
            *_build_verify(rng, "mu_pos"),
            *_build_verify(rng, "mu_neg"),
            _compose(rng),
            _compose(rng),
            _curvature(rng, 1),
            _curvature(rng, 2),
        ]


def warmup_round(name: str) -> list:
    """One small, fixed call of each operation kind of the workload."""
    if name == "confinement_sweep":
        return [_deficiency(1.0, 1.0, 1, "limit_circle", "json"),
                _deficiency(0.5, -1.0, 1, "limit_point", "json")]
    ops = Workload(name, 0).next_round()
    if name == "classify_grid":
        for op in ops:  # shrink each request to a single c value
            op["argv"] = [a if not a.startswith("--c=") else "--c=0.1" for a in op["argv"]]
    seen, out = set(), []
    for op in ops:
        if op["kind"] not in seen:
            seen.add(op["kind"])
            out.append(op)
    return out
