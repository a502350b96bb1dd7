"""Checks of the program's outputs against computations done apart from it.

Nothing here imports ``grushin``.  Each check takes an operation spec (see
``workloads.py``) and the worker's result for it, and returns
``(failed, errors)``: ``failed`` is true when the operation did not complete
(a nonzero exit code, a crash, or an oracle that would not decide), and
``errors`` lists every way a completed operation's output is wrong.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import xml.etree.ElementTree as ET

import mpmath as mp
import numpy as np

from workloads import grid_values

# ---------------------------------------------------------------------------
# closed forms of the indicial data


def mu_of(alpha, n, c):
    """Discriminant of p(l) = l^2 - (1 + a n) l + c a n (a n + a + 2)."""
    an = alpha * n
    return (1.0 + an) ** 2 - 4.0 * c * an * (an + alpha + 2.0)


def is_critical(mu):
    return abs(mu - 4.0) < 1e-9 * max(1.0, abs(mu))


def expected_verdict(mu) -> str:
    if is_critical(mu):
        return "Critical_Mu4_Indeterminate"
    return "EssentiallySelfAdjoint" if mu > 4.0 else "NotESA_InfiniteDeficiency"


def expected_regime(mu) -> str:
    if is_critical(mu):
        return "mu_eq_4"
    if mu > 4.0:
        return "mu_gt_4"
    return "mu_neg" if mu < 0.0 else "mu_in_0_4"


def resonance_matches(alpha, mu):
    """All (i, j) in N0^2 with (1 + alpha) i + j = sqrt(mu) within 1e-9 max(1, sqrt(mu))."""
    if mu < 0.0:
        return []
    gap = math.sqrt(mu)
    step = 1.0 + alpha
    tol = 1e-9 * max(1.0, gap)
    i = np.arange(int(math.floor((gap + tol) / step)) + 1)
    rest = gap - step * i
    j = np.rint(rest)
    hit = (j >= 0) & (np.abs(rest - j) <= tol)
    return [(int(a), int(b)) for a, b in zip(i[hit], j[hit])]


def witness_ok(alpha, mu, witness) -> bool:
    if not (isinstance(witness, list) and len(witness) == 2):
        return False
    i, j = witness
    gap = math.sqrt(mu)
    return (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0
            and abs((1.0 + alpha) * i + j - gap) <= 1e-9 * max(1.0, gap))


def _close(got, want, rel) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# classify_grid


def _grid(spec_argv, flag):
    """The values of a ``--flag=start:stop:step`` argument."""
    (arg,) = [a for a in spec_argv if a.startswith(flag + "=")]
    return grid_values(arg.split("=", 1)[1])


def _classify_rows(spec, result):
    """Rows of a classify request as dicts, from its JSON or CSV output."""
    if "--format" in spec["argv"] and spec["argv"][spec["argv"].index("--format") + 1] == "csv":
        lines = result["out"].splitlines()
        if lines[0] != "alpha,n,c,mu,verdict,regime,resonant":
            raise ValueError(f"unexpected CSV header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            a, n, c, mu, verdict, regime, res = line.split(",")
            if res not in ("True", "False"):
                raise ValueError(f"resonant must be True or False, got {res!r}")
            rows.append({"alpha": float(a), "n": int(n), "c": float(c), "mu": float(mu),
                         "verdict": verdict, "regime": regime, "resonant": res == "True"})
        return rows, False
    return json.loads(result["out"])["rows"], True


def check_classify(spec, result):
    errors = []
    rows, full = _classify_rows(spec, result)
    grid = [(a, int(n), c) for a in _grid(spec["argv"], "--alpha")
            for n in _grid(spec["argv"], "--n") for c in _grid(spec["argv"], "--c")]
    if len(rows) != len(grid) or len(rows) != spec["meta"]["rows"]:
        return [f"{len(rows)} rows for a grid of {len(grid)}"]
    for (a, n, c), row in zip(grid, rows):
        where = f"row (alpha={a!r}, n={n}, c={c!r})"
        if (row["alpha"], row["n"], row["c"]) != (a, n, c):
            errors.append(f"{where}: reported as ({row['alpha']}, {row['n']}, {row['c']})")
            continue
        mu = mu_of(a, n, c)
        if not _close(row["mu"], mu, 1e-12):
            errors.append(f"{where}: mu {row['mu']!r}, closed form {mu!r}")
        if row["verdict"] != expected_verdict(mu):
            errors.append(f"{where}: verdict {row['verdict']} at mu = {mu!r}")
        if row["regime"] != expected_regime(mu):
            errors.append(f"{where}: regime {row['regime']} at mu = {mu!r}")
        matches = resonance_matches(a, mu)
        if row["resonant"] != bool(matches):
            errors.append(f"{where}: resonant {row['resonant']}, integer search finds {matches}")
        if full:
            errors += _check_roots(where, a, n, c, mu, row)
            wit = row["resonance_witness"]
            if (wit is not None) != bool(matches) or (wit is not None and not witness_ok(a, mu, wit)):
                errors.append(f"{where}: witness {wit}, integer search finds {matches}")
        if len(errors) > 20:
            break
    return errors


def _check_roots(where, a, n, c, mu, row):
    lp = complex(row["lambda_plus"]["re"], row["lambda_plus"]["im"])
    lm = complex(row["lambda_minus"]["re"], row["lambda_minus"]["im"])
    b, c0 = 1.0 + a * n, c * a * n * (a * n + a + 2.0)
    errors = []
    for lam in (lp, lm):
        scale = abs(lam) ** 2 + abs(b * lam) + abs(c0) + 1.0
        if abs(lam * lam - b * lam + c0) > 1e-9 * scale:
            errors.append(f"{where}: {lam} is not a root of p")
    if abs(lp + lm - b) > 1e-9 * (1.0 + abs(b)):
        errors.append(f"{where}: roots {lp}, {lm} do not sum to 1 + alpha n")
    if mu >= 0.0 and not (lp.imag == 0.0 and lm.imag == 0.0 and lp.real >= lm.real):
        errors.append(f"{where}: real roots must be ordered lambda_plus >= lambda_minus")
    if mu < 0.0 and not (lp.imag > 0.0 and lm == lp.conjugate()):
        errors.append(f"{where}: complex roots must be conjugate with Im lambda_plus > 0")
    return errors


_SVG = "{http://www.w3.org/2000/svg}"


def check_phase_diagram(spec, result):
    errors = []
    meta = spec["meta"]
    svg_name, csv_name = spec["read"]
    alphas, cs, n = grid_values(meta["alpha"]), grid_values(meta["c"]), meta["n"]
    if svg_name not in result["files"] or csv_name not in result["files"]:
        return ["phase diagram files missing"]
    # the CSV: one row per cell, c outer and alpha inner
    lines = result["files"][csv_name].splitlines()
    if lines[0] != "alpha,n,c,mu,verdict,regime" or len(lines) - 1 != len(alphas) * len(cs):
        return [f"CSV has header {lines[0]!r} and {len(lines) - 1} rows"]
    cells = [(a, c) for c in cs for a in alphas]
    for (a, c), line in zip(cells, lines[1:]):
        ra, rn, rc, rmu, verdict, regime = line.split(",")
        mu = mu_of(a, n, c)
        if (float(ra), int(rn), float(rc)) != (a, n, c):
            errors.append(f"CSV cell ({a!r}, {c!r}) reported as ({ra}, {rn}, {rc})")
        elif not _close(float(rmu), mu, 1e-12) or verdict != expected_verdict(mu) \
                or regime != expected_regime(mu):
            errors.append(f"CSV cell ({a!r}, {c!r}): {rmu} {verdict} {regime} at mu = {mu!r}")
    # the SVG: one rect per cell, one colour per regime, and the critical curve
    root = ET.fromstring(result["files"][svg_name])
    cell = 8
    width, height = len(alphas) * cell, len(cs) * cell
    if (root.get("width"), root.get("height")) != (str(width), str(height)):
        errors.append(f"SVG is {root.get('width')}x{root.get('height')}, want {width}x{height}")
    rects = root.findall(_SVG + "rect")
    if len(rects) != len(cells):
        return errors + [f"SVG has {len(rects)} cells for {len(cells)} grid points"]
    colour_of, regime_of, seen = {}, {}, set()
    for rect in rects:
        i, y = int(rect.get("x")) // cell, int(rect.get("y")) // cell
        j = len(cs) - 1 - y
        seen.add((i, j))
        regime, colour = expected_regime(mu_of(alphas[i], n, cs[j])), rect.get("fill")
        if colour_of.setdefault(regime, colour) != colour or regime_of.setdefault(colour, regime) != regime:
            errors.append(f"SVG cell ({alphas[i]!r}, {cs[j]!r}) of regime {regime} is {colour}")
            break
    if len(seen) != len(cells):
        errors.append("SVG cells do not cover the grid")
    errors += _check_curve(root, alphas, cs, n, width, height, cell)
    return errors


def _check_curve(root, alphas, cs, n, width, height, cell):
    """Every alpha whose critical coupling c0 (mu(alpha, n, c0) = 4) lies in range is drawn."""
    want = []
    for a in alphas:
        an = a * n
        if a == 0.0:
            continue
        c0 = ((1.0 + an) ** 2 - 4.0) / (4.0 * an * (an + a + 2.0))
        if cs[0] - 1e-12 <= c0 <= cs[-1] + 1e-12:
            px = (a - alphas[0]) / (alphas[-1] - alphas[0]) * (width - cell) + cell / 2
            py = (1 - (c0 - cs[0]) / (cs[-1] - cs[0])) * (height - cell) + cell / 2
            want.append((px, py))
    lines = root.findall(_SVG + "polyline")
    if len(want) < 2:
        return [] if not lines else ["SVG draws a critical curve where none lies in range"]
    if len(lines) != 1:
        return [f"SVG has {len(lines)} critical curves"]
    got = [tuple(float(v) for v in p.split(",")) for p in lines[0].get("points").split()]
    if len(got) != len(want):
        return [f"critical curve has {len(got)} points, want {len(want)}"]
    for (gx, gy), (wx, wy) in zip(got, want):
        if abs(gx - wx) > 0.006 or abs(gy - wy) > 0.006:
            return [f"critical curve point ({gx}, {gy}), want ({wx:.3f}, {wy:.3f})"]
    return []


# ---------------------------------------------------------------------------
# confinement_sweep


def check_deficiency(spec, result):
    """Per-mode counts follow the Weyl alternative at 0 read off nu^2 = mu/4."""
    meta = spec["meta"]
    mu = mu_of(meta["alpha"], meta["n"], meta["c"])
    limit_circle = mu / 4.0 < 1.0
    count = 2 if limit_circle else 0  # one L2 solution per half-line in the limit-circle case
    kind = "limit_circle" if limit_circle else "limit_point"
    aggregate = "infinite" if limit_circle else "zero"
    want_rows = [(k, count, count) for k in range(1, meta["kmax"] + 1)]
    errors = []
    if meta["format"] == "csv":
        lines = result["out"].splitlines()
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:-1]]
        if lines[0] != "k,count_plus,count_minus":
            errors.append(f"unexpected CSV header {lines[0]!r}")
        if lines[-1] != f"aggregate,{aggregate},{kind}":
            errors.append(f"aggregate line {lines[-1]!r}, want aggregate,{aggregate},{kind}")
    else:
        data = json.loads(result["out"])
        rows = [(r["k"], r["count_plus"], r["count_minus"]) for r in data["per_mode"]]
        at_zero = data["classification_at_zero"]
        if data["params"] != {"alpha": meta["alpha"], "n": meta["n"], "c": meta["c"]}:
            errors.append(f"params echoed as {data['params']}")
        if at_zero["kind"] != kind or at_zero["critical"]:
            errors.append(f"endpoint 0 classified {at_zero['kind']}, Weyl alternative says {kind}")
        if not _close(at_zero["nu_squared"], mu / 4.0, 1e-12):
            errors.append(f"nu^2 = {at_zero['nu_squared']!r}, mu/4 = {mu / 4.0!r}")
        if data["aggregate"] != aggregate:
            errors.append(f"aggregate {data['aggregate']}, want {aggregate}")
    if rows != want_rows:
        errors.append(f"per-mode counts {rows}, Weyl alternative gives {count} for every mode")
    return errors


# ---------------------------------------------------------------------------
# kernel_oracle


def _principal_sqrt(v: float) -> complex:
    return complex(math.sqrt(v)) if v >= 0 else 1j * math.sqrt(-v)


def kernel_predicate(a, b, delta) -> bool:
    """T has kernel in x^delta L2 iff Re((1 - a)/2 - delta - sqrt(mu_op)/2) > -1/2."""
    mu_op = (a - 1.0) ** 2 - 4.0 * b
    return ((1.0 - a) / 2.0 - delta - _principal_sqrt(mu_op) / 2.0).real > -0.5


def check_oracle(spec, result):
    args = spec["args"]
    want = "true" if kernel_predicate(args["a"], args["b"], args["delta"]) else "false"
    if result["out"] not in ("true", "false"):
        return [f"verdict {result['out']!r} is not a verdict"]
    if result["out"] != want:
        return [f"oracle says {result['out']}, closed-form predicate says {want}"]
    return []


def check_kernel(spec, result):
    """ODE residual T u = 0 and the Wronskian u1 u2' - u1' u2 = -beta x^-a on the grid."""
    a, b, h, beta = (spec["args"][k] for k in ("a", "b", "h", "beta"))
    errors = []
    out = result["out"]
    for idx, x in enumerate(spec["args"]["xs"]):
        for which in ("u1", "u2"):
            u, du, ddu = out[which][idx]
            terms = (x * x * ddu, a * x * du, (b - h * x ** (2.0 * beta)) * u)
            scale = sum(abs(t) for t in terms)
            if not math.isfinite(scale) or abs(sum(terms)) > 1e-8 * scale:
                errors.append(f"{which} at x = {x!r}: residual {sum(terms)!r} of scale {scale!r}")
        (u1, du1, _), (u2, du2, _) = out["u1"][idx], out["u2"][idx]
        wronskian, want = u1 * du2 - du1 * u2, -beta * x ** (-a)
        if abs(wronskian - want) > 1e-8 * (abs(u1 * du2) + abs(du1 * u2)):
            errors.append(f"Wronskian {wronskian!r} at x = {x!r}, closed form {want!r}")
    return errors


def bessel_reference(kind: str, x: float, nu: float, scaled: bool):
    """(value, scale) from mpmath at 30 digits; scale is the size errors are measured against.

    Re I_{i nu} and K_{i nu} oscillate for x < nu, so their errors are
    measured against the modulus of I_{i nu} (times pi / sinh(pi nu) for K,
    by K_{i nu} = -pi Im I_{i nu} / sinh(pi nu)) rather than against values
    that pass through zero.
    """
    with mp.workdps(30):
        xm = mp.mpf(x)
        if kind in ("I", "K"):
            value = mp.besseli(nu, xm) if kind == "I" else mp.besselk(nu, xm)
            scale = abs(value)
        elif nu == 0.0:
            value = mp.besseli(0, xm) if kind == "Itilde" else mp.besselk(0, xm)
            scale = abs(value)
        elif kind == "Itilde":
            full = mp.besseli(1j * nu, xm)
            value, scale = mp.re(full), abs(full)
        else:
            value = mp.re(mp.besselk(1j * nu, xm))
            scale = abs(value)
            if x < nu:
                scale = max(scale, mp.pi * abs(mp.besseli(1j * nu, xm)) / mp.sinh(mp.pi * nu))
        if scaled:
            factor = mp.exp(-xm) if kind in ("I", "Itilde") else mp.exp(xm)
            value, scale = value * factor, scale * factor
        return float(value), float(scale)


def check_bessel(spec, result):
    meta = spec["meta"]
    data = json.loads(result["out"])
    echo = (data["kind"], data["x"], data["nu"], data["scaled"])
    if echo != (meta["kind"], meta["x"], meta["nu"], meta["scaled"]):
        return [f"request echoed as {echo}"]
    want, scale = bessel_reference(meta["kind"], meta["x"], meta["nu"], meta["scaled"])
    got = data["value"]
    if not isinstance(got, float) or abs(got - want) > 1e-9 * scale:
        return [f"{meta['kind']}(x={meta['x']!r}, nu={meta['nu']!r}) = {got!r}, mpmath {want!r}"]
    return []


# ---------------------------------------------------------------------------
# boundary_mix


def _cplx(d) -> complex:
    return complex(d["re"], d["im"])


def _roots(alpha, n, c):
    mu = mu_of(alpha, n, c)
    b = 1.0 + alpha * n
    root = cmath.sqrt(mu) if mu < 0 else math.sqrt(mu)
    return (b + root) / 2.0, (b - root) / 2.0


def check_frobenius(spec, result):
    """Solved grades cancel when the flat-model operator is applied to the series.

    The flat model acts on x^s e^{iky} as p(s) x^s plus the coupling
    -|k|^2 x^{s + 2(1 + alpha)}, and on x^s log x adds p'(s) x^s.
    """
    meta = spec["meta"]
    alpha, n, c = meta["alpha"], meta["n"], meta["c"]
    data = json.loads(result["out"])
    exp = data["expansion"]
    errors = []
    lam = _cplx(exp["lambda"])
    want = _roots(alpha, n, c)[0 if meta["root"] == "plus" else 1]
    if abs(lam - want) > 1e-12 * max(1.0, abs(want)):
        errors.append(f"lambda {lam}, closed-form root {want}")
    if not data["residual_certificate"]["passed"]:
        errors.append("residual certificate did not pass")
    modes = [tuple(k) for k in exp["modes"]]
    symbol = np.array([-float(sum(v * v for v in k)) for k in modes])
    b, c0 = 1.0 + alpha * n, c * alpha * n * (alpha * n + alpha + 2.0)
    step = 2.0 * (1.0 + alpha)
    applied = {}

    def add(theta, power, vec):
        for key in applied:
            if key[1] == power and abs(key[0] - theta) <= 1e-9:
                applied[key] += vec
                return
        applied[(theta, power)] = vec.copy()

    largest = 0.0
    for term in exp["terms"]:
        theta, power = term["theta"], term["log_power"]
        vec = np.array([_cplx(z) for z in term["coefficients"]])
        s = lam + theta
        for t, pw, v in ((theta, power, (s * s - b * s + c0) * vec),
                         (theta + step, power, symbol * vec)):
            add(t, pw, v)
            largest = max(largest, float(np.max(np.abs(v))))
        if power == 1:
            add(theta, 0, (2.0 * s - b) * vec)
    for (theta, power), vec in applied.items():
        if theta <= exp["order_cutoff"] + 1e-9 and np.max(np.abs(vec)) > 1e-9 * max(1.0, largest):
            errors.append(f"grade {theta} (log power {power}) does not cancel: {np.max(np.abs(vec))!r}")
    seed = [t for t in exp["terms"] if t["theta"] == 0.0 and t["log_power"] == 0]
    unit = np.zeros(len(modes))
    unit[modes.index((meta["mode"],))] = 1.0
    if not seed or not np.array_equal(np.array([_cplx(z) for z in seed[0]["coefficients"]]), unit):
        errors.append(f"grade-0 coefficient is not the unit seed at mode {meta['mode']}")
    if meta["case"] == "bessel":
        errors += _check_bessel_series(exp, modes.index((meta["mode"],)), meta["mode"])
    return errors


def _check_bessel_series(exp, idx, k):
    """alpha = 1, c = 0: a_{4m} = (k/4)^{2m} Gamma(3/2) / (m! Gamma(m + 3/2)), the I_{1/2} series."""
    got = {round(t["theta"] / 4.0): _cplx(t["coefficients"][idx]) for t in exp["terms"]
           if t["log_power"] == 0}
    nu = 0.5
    for m in range(int(exp["order_cutoff"] // 4) + 1):
        ref = (k / 4.0) ** (2 * m) * math.gamma(nu + 1) / (math.factorial(m) * math.gamma(nu + m + 1))
        if m not in got or abs(got[m] - ref) > 1e-10 * abs(ref):
            return [f"coefficient of x^(lambda + {4 * m}) is {got.get(m)}, Bessel series {ref!r}"]
    return []


def _jet(rng):
    return rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))


def asymmetry(u, v, mu) -> complex:
    """The boundary pairing from jet columns (r+, r-, l+, l-), conjugate-linear in u."""
    plus, minus = [0, 2], [1, 3]
    if mu < 0:
        s = np.sum(np.conj(u[:, plus]) * v[:, plus]) - np.sum(np.conj(u[:, minus]) * v[:, minus])
        return 1j * math.sqrt(-mu) * complex(s)
    return complex(np.sum(np.conj(u[:, minus]) * v[:, plus]) - np.sum(np.conj(u[:, plus]) * v[:, minus]))


def check_greens(spec, result):
    """The Green pairing matches the asymmetry form of the jets the seed draws.

    In 0 <= mu < 4 plain Fourier coefficients carry the flat weight h = sqrt(mu).
    """
    meta = spec["meta"]
    data = json.loads(result["out"])
    mu = mu_of(meta["alpha"], meta["n"], meta["c"])
    rng = np.random.default_rng(meta["seed"])
    u, v = _jet(rng), _jet(rng)
    want = asymmetry(u, v, mu) * (math.sqrt(mu) if mu >= 0 else 1.0)
    numeric, closed = _cplx(data["numeric"]), _cplx(data["closed_form"])
    errors = []
    if abs(numeric - want) > 1e-4 * max(abs(want), abs(numeric)):
        errors.append(f"Green pairing {numeric}, asymmetry form {want}")
    if abs(closed - want) > 1e-12 * max(1.0, abs(want)):
        errors.append(f"reported closed form {closed}, asymmetry form {want}")
    if not data["passed"]:
        errors.append("greens-check reports failure")
    return errors


def relation_unitary(meta) -> np.ndarray:
    """The U with A2 = U A1 on the graph of the family's boundary relations.

    A basis of solutions of the catalogued relations gives columns (a+, a-)
    stacked as (right, left); A1 = a+ + i a-, A2 = a+ - i a-.
    """
    family, g = meta["family"], meta.get("gamma")
    if family == 1:  # a^r_- = a^l_- = 0
        a_plus, a_minus = np.eye(2), np.zeros((2, 2))
    elif family == 2:  # a^l_- = 0, a^r_+ = g a^r_-
        a_plus, a_minus = np.array([[g, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])
    elif family == 3:  # a^r_- = 0, a^l_+ = g a^l_-
        a_plus, a_minus = np.array([[0.0, 1.0], [g, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    elif family == 4:  # a^r_- = b a^l_-, a^l_+ + conj(b) a^r_+ = g a^l_-
        bb = complex(*meta["b"])
        a_plus = np.array([[0.0, 1.0], [g, -bb.conjugate()]])
        a_minus = np.array([[bb, 0.0], [1.0, 0.0]])
    else:  # a_+ = Gamma a_-
        h11, h22, re12, im12 = meta["Gamma"]
        a_plus = np.array([[h11, complex(re12, im12)], [complex(re12, -im12), h22]])
        a_minus = np.eye(2)
    A1, A2 = a_plus + 1j * a_minus, a_plus - 1j * a_minus
    return A2 @ np.linalg.inv(A1)


def check_build(spec, result):
    meta = spec["meta"]
    name = spec["read"][0]
    if name not in result["files"]:
        return ["extension spec file missing"]
    data = json.loads(result["files"][name])
    U = np.array([[_cplx(z) for z in row] for row in data["U"]])
    errors = []
    if data["regime"] != meta["regime"] or data["origin"]["family"] != meta["family"]:
        errors.append(f"spec for regime {data['regime']}, family {data['origin']['family']}")
    if np.max(np.abs(U.conj().T @ U - np.eye(2))) > 1e-12:
        errors.append("U is not unitary to 1e-12")
    want = relation_unitary(meta)
    if np.max(np.abs(U - want)) > 1e-10:
        errors.append(f"U = {U.tolist()}, boundary relations give {want.tolist()}")
    return errors


def check_verify(spec, result):
    meta = spec["meta"]
    data = json.loads(result["out"])
    mu = mu_of(meta["alpha"], meta["n"], meta["c"])
    hyp = data["hypotheses"]
    errors = []
    if not (data["passed"] and data["isotropy_worst_relative"] < 1e-10
            and data["maximality_witnesses_verified"] > 0):
        errors.append(f"verification failed: isotropy {data['isotropy_worst_relative']!r}, "
                      f"witnesses {data['maximality_witnesses_verified']}")
    if not _close(hyp["mu"], mu, 1e-12) or hyp["mu_in_0_4"] != (0.0 < mu < 4.0):
        errors.append(f"hypotheses report mu = {hyp['mu']!r}, closed form {mu!r}")
    if hyp["resonant_gap"] != bool(resonance_matches(meta["alpha"], mu)):
        errors.append(f"resonant_gap {hyp['resonant_gap']} disagrees with the integer search")
    return errors


_POINT = re.compile(r"\((-?[0-9.e+-]+),([0-9]+)\)")


def parse_face(text: str) -> set:
    """A finite index set printed as Empty or {(s,p),...}."""
    if text == "Empty":
        return set()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a finite index set: {text!r}")
    points = _POINT.findall(text)
    if ",".join(f"({s},{p})" for s, p in points) != text[1:-1]:
        raise ValueError(f"cannot read index set {text!r}")
    return {(float(s), int(p)) for s, p in points}


def _eu(A, B):
    out = set(A) | set(B)
    out |= {(s, p + q + 1) for s, p in A for t, q in B if s == t}
    return out


def _msum(A, B):
    return {(s + t, p + q) for s, p in A for t, q in B}


def brute_compose(E, F):
    """The composition law, face by face: G10, G01, G11."""
    return (_eu(_msum(E[2], F[0]), E[0]),
            _eu(_msum(E[1], F[2]), F[1]),
            _eu(_msum(E[2], F[2]), _msum(E[0], F[1])))


def check_compose(spec, result):
    text = result["out"].strip()
    if not (text.startswith("[") and text.endswith("]")) or text.count(";") != 2:
        return [f"not an index family: {text[:80]!r}"]
    got = [parse_face(face) for face in text[1:-1].split(";")]
    E = [{(float(s), p) for s, p in face} for face in spec["meta"]["E"]]
    F = [{(float(s), p) for s, p in face} for face in spec["meta"]["F"]]
    want = brute_compose(E, F)
    return [f"face {name}: {sorted(g)}, brute force {sorted(w)}"
            for name, g, w in zip(("10", "01", "11"), got, want) if g != w]


def check_curvature(spec, result):
    """x^2 S tends to -alpha n (alpha n + alpha + 2) whatever the conformal factor."""
    meta = spec["meta"]
    an = meta["alpha"] * meta["n"]
    limit = -an * (an + meta["alpha"] + 2.0)
    data = json.loads(result["out"])
    check = data["asymptotic_check"]
    errors = []
    for key in ("flat_scalar_coefficient", "frame_form_coefficient"):
        if not _close(data[key], limit, 1e-12):
            errors.append(f"{key} {data[key]!r}, closed form {limit!r}")
    if not _close(check["expected"], limit, 1e-12):
        errors.append(f"expected limit {check['expected']!r}, closed form {limit!r}")
    if abs(check["limit"] - limit) >= 0.01 * abs(limit):
        errors.append(f"fitted limit {check['limit']!r} is not within 1% of {limit!r}")
    return errors


# ---------------------------------------------------------------------------

CHECKS = {
    "classify": check_classify,
    "phase": check_phase_diagram,
    "deficiency": check_deficiency,
    "oracle": check_oracle,
    "kernel": check_kernel,
    "bessel": check_bessel,
    "frobenius": check_frobenius,
    "greens": check_greens,
    "build": check_build,
    "verify": check_verify,
    "indexset": check_compose,
    "curvature": check_curvature,
}


def check(spec: dict, result: dict):
    """(failed, errors) for one operation."""
    if result["rc"] != 0 or result.get("error"):
        return True, []
    if spec["kind"].startswith("oracle") and result["out"] == "inconclusive":
        return True, []  # the oracle declined to decide at a margin of 0.25 or more
    try:
        return False, CHECKS[spec["kind"].split("_", 1)[0]](spec, result)
    except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return False, [f"malformed output: {type(exc).__name__}: {exc}"]
