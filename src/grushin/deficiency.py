"""Flat-model spectral oracles: per-mode 1D operators and numerical deficiency counts.

After the unitary transform u -> |x|^{alpha n/2} u and a Fourier transform
along the singular set, Delta - c*S on the flat model reduces to half-line
Schroedinger operators

    op = d^2/dx^2 - k^2 x^{2 alpha} - A / x^2,
    A  = alpha n (alpha n + 2)/4 - c alpha n (alpha n + alpha + 2).

The keystone identity A + 1/4 = mu/4 ties these operators to the indicial
discriminant and pins down the sign convention for mu: the endpoint x = 0 is
limit circle exactly when nu^2 := A + 1/4 < 1, i.e. mu < 4.  Deficiency
indices are counted numerically, without that identity: the solution of
(op -+ i) u = 0 that decays at infinity is integrated inward from a WKB
start, and the exponent gamma of |u| ~ x^gamma is fitted near 0.  The count
is 1 exactly when gamma > -1/2, so the oracle can disagree with the closed
form in either regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .params import GrushinParams

#: WKB e-folds between the fit window and the start of the inward integration
START_EFOLDS = 40.0
#: the couplings k^2 x^{2+2 alpha} and |eig| x^2 stay below this on the fit window
WINDOW_COUPLING = 1e-8
#: length of the fit window in t = ln x, and its number of samples
WINDOW_LENGTH = 20.0
WINDOW_POINTS = 201
#: growth of log|u| allowed in one integration segment before the state is renormalized
SEGMENT_EFOLDS = 100.0

__all__ = [
    "ModeOperator",
    "EndpointClassification",
    "DeficiencyReport",
    "mode_operator",
    "classify_endpoint_zero",
    "fit_local_exponent",
    "square_integrable_at_zero",
    "numeric_deficiency_count",
    "aggregate_deficiency",
]


class UnsupportedConfigurationError(ValueError):
    """Raised when the deficiency oracle's limit-point-at-infinity hypothesis fails."""


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


def fit_local_exponent(t, log_abs, frequency: float = 0.0) -> Tuple[float, float]:
    """Least-squares fit of log|u| = gamma t + b over samples t = ln x; returns (gamma, residual).

    With ``frequency`` f > 0 the model adds cos(f t) and sin(f t), the
    oscillation of |u| at complex exponents 1/2 +- i|nu| (f = 2|nu|).  The
    harmonic columns are left out when the window is shorter than one period:
    there they are nearly collinear with the linear terms, and the slow
    oscillation reads as a slow drift of the linear fit instead.  The
    residual is the root mean square of the fit's residuals.
    """
    t = np.asarray(t, dtype=float)
    cols = [np.ones_like(t), t - t.mean()]
    if frequency * np.ptp(t) >= 2.0 * math.pi:
        cols += [np.cos(frequency * t), np.sin(frequency * t)]
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, log_abs, rcond=None)
    residual = log_abs - design @ coef
    return float(coef[1]), float(np.sqrt(np.mean(residual**2)))


def square_integrable_at_zero(gamma: float, residual: float) -> bool:
    """Whether |u| ~ x^gamma is L^2 near 0: gamma > -1/2 by more than the fit's residual.

    x^{-1/2} itself is not L^2, so a gamma within the residual of -1/2 counts
    as not square integrable.
    """
    return gamma > -0.5 + residual


def numeric_deficiency_count(op: ModeOperator, sign: int) -> int:
    """Dimension of {solutions of (op -+ i)u = 0, L2 at 0 and decaying at infinity}.

    ``sign=+1`` counts ker(op* + i), ``sign=-1`` ker(op* - i); the two agree
    for this real operator.  Infinity is limit point, so the decaying
    solution is unique up to scale; the count is 1 exactly when it is L^2 at
    0.  It is integrated inward, the stable direction, as (u, x u') in
    t = ln x: the start is the second-order WKB log-derivative
    -q - q'/(2q), q = sqrt(V + eig), at the X where the WKB exponent has
    gained START_EFOLDS e-folds over the fit window.  The window lies where
    the couplings k^2 x^{2+2 alpha} and |eig| x^2 are below WINDOW_COUPLING,
    so the solution is a power of x there, and ``fit_local_exponent`` reads
    that power.  Only the oscillation frequency 2|nu| comes from nu^2; no
    indicial root is read.  Returns 0 or 1 per half-line.
    """
    if not (op.mode_strength > 0 or op.params.alpha > 0):
        raise UnsupportedConfigurationError(
            "need mode_strength > 0 or alpha > 0 for limit point at infinity"
        )
    from scipy.integrate import solve_ivp  # deferred so the CLI starts without scipy

    eig = -1j if sign > 0 else 1j  # (op +- i) u = 0  <=>  u'' = (V -+ i) u
    A = op.inverse_square_coeff
    a2 = 2.0 + 2.0 * op.params.alpha
    k2 = op.mode_strength**2

    def p(t):
        """x^2 (V + eig) at x = e^t; x q = sqrt(p)."""
        return k2 * np.exp(a2 * t) + A + eig * np.exp(2.0 * t)

    log_coupling = math.log(WINDOW_COUPLING)
    t_top = 0.5 * log_coupling
    if k2 > 0:
        t_top = min(t_top, (log_coupling - math.log(k2)) / a2)
    t_bottom = t_top - WINDOW_LENGTH
    # Re sqrt(p) is nondecreasing in t and at least 0.6 e^t once e^{2t} >= 4|A|, so the WKB
    # exponent gains START_EFOLDS e-folds before t_far, and a right Riemann sum finds the crossing
    t_far = max(t_top, 0.5 * math.log(4.0 * max(abs(A), 1.0))) + 4.0
    ts = np.linspace(t_top, t_far, 4096)
    with np.errstate(over="ignore"):  # at large alpha, p overflows only past the crossing
        efolds = np.cumsum(np.sqrt(p(ts)).real) * (ts[1] - ts[0])
    t = float(ts[np.searchsorted(efolds, START_EFOLDS)])
    # x u'/u = -x q - x q'/(2q), where x^3 V' = 2 alpha k^2 x^{2+2 alpha} - 2A
    p0 = p(t)
    y = np.array([1.0, -np.sqrt(p0) - (op.params.alpha * k2 * math.exp(a2 * t) - A) / (2.0 * p0)])

    def rhs(t, y):  # (u, x u')' = (x u', x u' + p u) in t = ln x; math.exp is twice as fast as p(t)
        pt = k2 * math.exp(a2 * t) + A + eig * math.exp(2.0 * t)
        return np.array([y[1], y[1] + pt * y[0]])

    # The fit reads the state norm (|u|^2 + |x u'|^2 / (|nu^2| + 1/4))^{1/2}, which grows like |u|
    # on the window but has no zeros: at complex exponents 1/2 +- i|nu| a nearly real u dips
    # toward 0 twice a period, and log|u| would leave the harmonic fit a residual near 1/2.
    nu2 = op.nu_squared

    def log_norm(state):
        return 0.5 * np.log(np.abs(state[0]) ** 2 + np.abs(state[1]) ** 2 / (abs(nu2) + 0.25))

    window = np.linspace(t_top, t_bottom, WINDOW_POINTS)
    samples = []
    log_scale = 0.0
    while t > t_bottom:
        # log|u| grows by at most Re sqrt(p) + 1 per unit of t, which is largest at the upper end
        t_next = max(t_bottom, t - SEGMENT_EFOLDS / (np.sqrt(p(t)).real + 1.0))
        inside = window[(window <= t) & (window > t_next)]
        # inward, |u| can also fall like x^{1/2}, by up to SEGMENT_EFOLDS/2 e-folds; atol lies below
        sol = solve_ivp(rhs, (t, t_next), y, method="DOP853", rtol=1e-6, atol=1e-30,
                        t_eval=np.append(inside, t_next))
        if not sol.success:
            raise RuntimeError(f"integration failed on [{t_next}, {t}]: {sol.message}")
        samples.extend(log_norm(sol.y[:, :-1]) + log_scale)
        scale = np.abs(sol.y[:, -1]).max()
        y = sol.y[:, -1] / scale
        log_scale += math.log(scale)
        t = t_next
    samples.append(log_norm(y) + log_scale)  # t_bottom, the window's last point
    gamma, residual = fit_local_exponent(window, np.array(samples),
                                         2.0 * math.sqrt(-nu2) if nu2 < 0 else 0.0)
    return int(square_integrable_at_zero(gamma, residual))


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
