"""Flat-model spectral oracles: per-mode 1D operators and numerical deficiency counts.

After the unitary transform u -> |x|^{alpha n/2} u and a Fourier transform
along the singular set, Delta - c*S on the flat model reduces to half-line
Schroedinger operators

    op = d^2/dx^2 - k^2 x^{2 alpha} - A / x^2,
    A  = alpha n (alpha n + 2)/4 - c alpha n (alpha n + alpha + 2).

The keystone identity A + 1/4 = mu/4 ties these operators to the indicial
discriminant and pins down the sign convention for mu: the endpoint x = 0 is
limit circle exactly when nu^2 := A + 1/4 < 1, i.e. mu < 4.  Deficiency
indices are counted by shooting: solutions of (op -+ i) u = 0 are launched
at x0 from the truncated plus-root series that ``frobenius.expand`` builds
for the flat model (the indicial polynomial of op is the flat model's, in
the variable s = lambda - alpha n/2), and classified at infinity by how
their logarithmic derivative tracks the WKB exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .frobenius import OperatorSeriesData, expand
from .params import GrushinParams

#: grade cutoff of the shooting start's series
START_ORDER = 6.0

__all__ = [
    "ModeOperator",
    "EndpointClassification",
    "DeficiencyReport",
    "mode_operator",
    "classify_endpoint_zero",
    "series_start",
    "numeric_deficiency_count",
    "aggregate_deficiency",
]


class UnsupportedConfigurationError(ValueError):
    """Raised when the shooting scheme's limit-point-at-infinity hypothesis fails."""


@dataclass(frozen=True)
class ModeOperator:
    """Half-line operator d^2 - mode_strength^2 x^{2 alpha} - A/x^2 for one Fourier mode."""

    params: GrushinParams
    mode_strength: float
    inverse_square_coeff: float  # A

    @property
    def nu_squared(self) -> float:
        """A + 1/4; equals mu/4 (the module's keystone identity)."""
        return self.inverse_square_coeff + 0.25

    def potential(self, x):
        """V(x) with op = d^2/dx^2 - V(x)."""
        a = self.params.alpha
        k = self.mode_strength
        return k * k * np.power(x, 2.0 * a) + self.inverse_square_coeff / (x * x)


def mode_operator(params: GrushinParams, k: float) -> ModeOperator:
    """Build the conjugated half-line operator for mode strength |k|."""
    an = params.alpha_n
    A = an * (an + 2.0) / 4.0 - params.c * an * (an + params.alpha + 2.0)
    return ModeOperator(params=params, mode_strength=abs(float(k)), inverse_square_coeff=A)


@dataclass(frozen=True)
class EndpointClassification:
    kind: str  # "limit_point" | "limit_circle"
    critical: bool  # True exactly on the borderline nu^2 = 1 (mu = 4)
    nu_squared: float


def classify_endpoint_zero(op: ModeOperator, tol: float = 1e-12) -> EndpointClassification:
    """Weyl alternative at x = 0 for an inverse-square potential.

    limit circle iff nu^2 = A + 1/4 < 1 (mu < 4); the borderline nu = 1 is
    limit point and flagged critical.
    """
    nu2 = op.nu_squared
    if abs(nu2 - 1.0) <= tol:
        return EndpointClassification("limit_point", critical=True, nu_squared=nu2)
    kind = "limit_circle" if nu2 < 1.0 else "limit_point"
    return EndpointClassification(kind, critical=False, nu_squared=nu2)


def _indicial_exponents(op: ModeOperator) -> Tuple[complex, complex]:
    """Exponents of x^s solutions of u'' = (A/x^2) u: s = 1/2 +- sqrt(A + 1/4)."""
    nu2 = op.nu_squared
    root = math.sqrt(nu2) if nu2 >= 0 else 1j * math.sqrt(-nu2)
    return 0.5 + root, 0.5 - root


def series_start(op: ModeOperator, eig: complex, x0: float):
    """(u, u') at x0 from the plus-root series solution of u'' = (V + eig) u.

    With s = lambda - alpha n/2 the indicial polynomial s(s-1) - A of this
    ODE is ``indicial_data(params).p(lambda)``, so the series is the flat
    model's ``expand`` with couplings -k^2 at grade 2(1+alpha) and -eig at
    grade 2, carried back by the gauge factor x^{-alpha n/2}.
    """
    p = op.params
    data = OperatorSeriesData(
        params=p,
        K=0,
        modes=((0,) * p.n,),
        blocks={
            2.0 * (1.0 + p.alpha): np.array([[-op.mode_strength**2]], dtype=complex),
            2.0: np.array([[-eig]], dtype=complex),
        },
    )
    series = expand(data, "plus", np.ones(1), START_ORDER)
    shift = 0.5 * p.alpha_n
    gauge = x0**-shift
    u = complex(series.profiles(x0)[0, 0])
    du = complex(series.derivative_profiles(x0)[0, 0])
    return gauge * u, gauge * (du - shift * u / x0)


def _integrate_renormalized(op: ModeOperator, eig: complex, x_start: float, x_end: float,
                            y0: Tuple[complex, complex], rtol: float = 1e-10,
                            growth_per_segment: float = 250.0):
    """Integrate u'' = (V + eig) u with renormalization between segments.

    Segment lengths are chosen so the WKB growth exp(int sqrt|V|) stays below
    e^{growth_per_segment} per segment, then the state is rescaled; this keeps
    solutions that grow like exp(x^{alpha+1}) inside floating range.  Returns
    (samples, log_scale): samples hold (x, u, u') in the rescaled gauge, and
    the true solution is e^{log_scale(x)} times larger (log-derivatives are
    gauge-invariant, which is all the decay test uses).
    """
    from scipy.integrate import solve_ivp  # deferred so the CLI starts without scipy

    A = op.inverse_square_coeff
    a2 = 2.0 * op.params.alpha
    k2 = op.mode_strength**2

    def rhs(x, y):
        u = y[0] + 1j * y[1]
        du = y[2] + 1j * y[3]
        V = k2 * x**a2 + A / (x * x) + eig
        ddu = V * u
        return [du.real, du.imag, ddu.real, ddu.imag]

    def rate(x: float) -> float:
        return max(1.0, abs(math.sqrt(abs(k2 * x**a2 + A / (x * x)) + 1.0)))

    u, du = y0
    log_scale = 0.0
    samples = [(x_start, u, du)]
    x = x_start
    while x < x_end:
        dx = growth_per_segment / rate(x)
        dx = min(dx, growth_per_segment / rate(min(x + dx, x_end)), x_end - x)
        xr = min(x + max(dx, 1e-6 * x_end), x_end)
        y = [u.real, u.imag, du.real, du.imag]
        sol = solve_ivp(rhs, (x, xr), y, method="RK45", rtol=rtol, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"integration failed on [{x}, {xr}]: {sol.message}")
        u = sol.y[0, -1] + 1j * sol.y[1, -1]
        du = sol.y[2, -1] + 1j * sol.y[3, -1]
        scale = max(abs(u), abs(du))
        if scale > 1e50:
            u /= scale
            du /= scale
            log_scale += math.log(scale)
        x = xr
        samples.append((x, u, du))
    return samples, log_scale


def _wkb_rate(op: ModeOperator, eig: complex, x: float) -> complex:
    """Principal square root of V(x) + eig: the local WKB growth rate."""
    V = complex(op.potential(x)) + eig
    r = np.sqrt(V)
    return r if r.real >= 0 else -r


def _tracks_decay(op: ModeOperator, eig: complex, samples, rel_tol: float = 0.05) -> bool:
    """True when u'/u tracks -sqrt(V + eig) within rel_tol over the last decade."""
    x_end = samples[-1][0]
    checked = 0
    ok = 0
    for x, u, du in samples:
        if x < x_end / 10.0 or x == samples[0][0]:
            continue
        if u == 0:
            return False
        rate = _wkb_rate(op, eig, x)
        checked += 1
        if abs(du / u + rate) <= rel_tol * abs(rate):
            ok += 1
    return checked > 0 and ok == checked


def numeric_deficiency_count(op: ModeOperator, sign: int, x0: float = 1e-3,
                             x_max: float | None = None) -> int:
    """Dimension of {solutions of (op -+ i)u = 0, L2 at 0 and decaying at infinity}.

    ``sign=+1`` counts ker(op* + i), ``sign=-1`` ker(op* - i); the two agree
    for this real operator.  Solutions are launched from Frobenius starts at
    x0; admissibility at 0 reads off the exponents (Re s > -1/2), decay at
    infinity is detected by WKB log-derivative tracking.  Returns 0 or 1 per
    half-line.
    """
    if not (op.mode_strength > 0 or op.params.alpha > 0):
        raise UnsupportedConfigurationError(
            "need mode_strength > 0 or alpha > 0 for limit point at infinity"
        )
    eig = -1j if sign > 0 else 1j  # (op +- i) u = 0  <=>  u'' = (V -+ i) u
    if x_max is None:
        k, a = op.mode_strength, op.params.alpha
        turning = k ** (-1.0 / a) if (k > 0 and a > 0) else 0.0
        x_max = max(20.0, 2.0 * turning)

    s_plus, s_minus = _indicial_exponents(op)
    both_admissible = s_minus.real > -0.5  # limit circle at 0

    y_plus = series_start(op, eig, x0)
    if both_admissible:
        # Every solution is admissible at 0, and the decay space at infinity
        # is one-dimensional (limit point with nonreal spectral parameter),
        # so the intersection has dimension 1 regardless of where the launch
        # ends up.  Integrate only a launch stretch as a consistency check;
        # the full march to x_max decides nothing here and its WKB phase is
        # what dominates runtime.
        _integrate_renormalized(op, eig, x0, min(2.0, x_max), y_plus)
        return 1
    samples_plus, _ = _integrate_renormalized(op, eig, x0, x_max, y_plus)
    return 1 if _tracks_decay(op, eig, samples_plus) else 0


@dataclass(frozen=True)
class DeficiencyReport:
    params: GrushinParams
    per_mode: tuple  # ((k, count_plus, count_minus), ...) summed over both half-lines
    classification_at_zero: EndpointClassification
    aggregate: str  # "infinite" | "zero"

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "per_mode": [
                {"k": k, "count_plus": cp, "count_minus": cm} for k, cp, cm in self.per_mode
            ],
            "classification_at_zero": {
                "kind": self.classification_at_zero.kind,
                "critical": self.classification_at_zero.critical,
                "nu_squared": self.classification_at_zero.nu_squared,
            },
            "aggregate": self.aggregate,
        }


def aggregate_deficiency(params: GrushinParams, k_max: int) -> DeficiencyReport:
    """Per-mode deficiency table over k = 1..k_max and the aggregate verdict.

    The left half-line operator is carried to the right one by x -> -x, so
    each per-mode count is twice the single half-line count.  Aggregate is
    "infinite" iff every sampled mode contributes and the endpoint is limit
    circle (a mode-independent statement), else "zero".
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rows: List[Tuple[int, int, int]] = []
    for k in range(1, k_max + 1):
        op = mode_operator(params, k)
        n_plus = numeric_deficiency_count(op, +1)
        n_minus = numeric_deficiency_count(op, -1)
        rows.append((k, 2 * n_plus, 2 * n_minus))
    cls = classify_endpoint_zero(mode_operator(params, 1))
    infinite = cls.kind == "limit_circle" and all(cp > 0 and cm > 0 for _, cp, cm in rows)
    return DeficiencyReport(
        params=params,
        per_mode=tuple(rows),
        classification_at_zero=cls,
        aggregate="infinite" if infinite else "zero",
    )
