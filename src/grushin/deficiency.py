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
form in either regime.  One request makes one stacked integration: every
mode shares each solver step, joining the stack at its own WKB start and
leaving it after its own fit window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
    "log_envelope",
    "fit_local_exponent",
    "square_integrable_at_zero",
    "deficiency_counts",
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


def log_envelope(u, xu_prime, roots) -> np.ndarray:
    """log hypot(|x u' - lambda_+ u|, |x u' - lambda_- u|) for samples of (u, x u').

    Near a regular singular point u = c_+ x^{lambda_+} + c_- x^{lambda_-} at
    leading order, or (c_1 + c_2 ln x) x^lambda when the indicial roots
    ``roots`` = (lambda_+, lambda_-) coincide.  Each factor x d/dx - lambda
    removes one branch exactly, so each term is a pure power of x: it does not
    oscillate at complex roots, it has no zeros, and at a double root both
    terms are c_2 x^lambda.  The roots only say which branch a term removes;
    the exponent of the sum is that of the dominant branch u carries.  A pure
    x^lambda at a double root, with no log branch, reads its next order.
    """
    lam_plus, lam_minus = roots
    return np.log(np.hypot(np.abs(xu_prime - lam_plus * u), np.abs(xu_prime - lam_minus * u)))


def fit_local_exponent(t, log_abs) -> Tuple[float, float]:
    """Least-squares line log|u| = gamma t + b over samples t = ln x; returns (gamma, residual).

    The residual is the root mean square of the fit's residuals.
    """
    t = np.asarray(t, dtype=float)
    design = np.column_stack([np.ones_like(t), t - t.mean()])
    coef, *_ = np.linalg.lstsq(design, log_abs, rcond=None)
    residual = log_abs - design @ coef
    return float(coef[1]), float(np.sqrt(np.mean(residual**2)))


def square_integrable_at_zero(gamma: float, residual: float) -> bool:
    """Whether |u| ~ x^gamma is L^2 near 0: gamma > -1/2 by more than the fit's residual.

    x^{-1/2} itself is not L^2, so a gamma within the residual of -1/2 counts
    as not square integrable.
    """
    return gamma > -0.5 + residual


def _launch(op: ModeOperator, eig: complex):
    """The fit window of one mode, and the t and (u, x u') where its inward integration starts.

    The window lies where the couplings k^2 x^{2+2 alpha} and |eig| x^2 are below
    WINDOW_COUPLING, so the solution is a power of x there.  The start is the
    second-order WKB log-derivative -q - q'/(2q), q = sqrt(V + eig), at the X
    where the WKB exponent has gained START_EFOLDS e-folds over the window.
    """
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
    return np.linspace(t_top, t_top - WINDOW_LENGTH, WINDOW_POINTS), t, y


def _rhs(t, y, k2, a2, A, eig):
    """(u, x u')' = (x u', x u' + p u) in t = ln x for every stacked mode; y = (u..., x u'...)."""
    n = k2.size
    u, w = y[:n], y[n:]
    return np.concatenate((w, w + (k2 * np.exp(a2 * t) + A + eig * math.exp(2.0 * t)) * u))


def deficiency_counts(modes: Sequence[Tuple[ModeOperator, int]]) -> List[int]:
    """Half-line deficiency count of each (op, sign) pair, from one stacked inward integration.

    A count is the dimension of {solutions of (op -+ i)u = 0, L2 at 0 and
    decaying at infinity}; ``sign=+1`` counts ker(op* + i), ``sign=-1``
    ker(op* - i).  Infinity is limit point, so the decaying solution is unique
    up to scale and the count is 1 exactly when it is L^2 at 0.  It is
    integrated inward, the stable direction, as (u, x u') in t = ln x, and
    ``fit_local_exponent`` reads the power of x of its ``log_envelope`` on the
    fit window (``_launch``).  The indicial roots 1/2 +- nu only say which
    branch each envelope term removes; the exponent itself is measured.

    The modes share one linear system and so each DOP853 step.  A mode joins
    at its own start and leaves after its window's bottom: a segment ends at
    the next join or leave, or after SEGMENT_EFOLDS e-folds of the
    fastest-growing active mode, and every mode is renormalized by its own
    scale at each segment end.
    """
    modes = list(modes)
    for op, _ in modes:
        if not (op.mode_strength > 0 or op.params.alpha > 0):
            raise UnsupportedConfigurationError(
                "need mode_strength > 0 or alpha > 0 for limit point at infinity"
            )
    from scipy.integrate import solve_ivp  # deferred so the CLI starts without scipy

    eig = np.array([-1j if sign > 0 else 1j for _, sign in modes])  # (op +- i) u = 0 <=> u'' = (V -+ i) u
    k2 = np.array([op.mode_strength**2 for op, _ in modes])
    a2 = np.array([2.0 + 2.0 * op.params.alpha for op, _ in modes])
    A = np.array([op.inverse_square_coeff for op, _ in modes])
    nu = np.sqrt(A + 0.25 + 0j)
    roots = np.column_stack((0.5 + nu, 0.5 - nu))  # of lambda (lambda - 1) = A
    launches = [_launch(op, e) for (op, _), e in zip(modes, eig)]
    windows = np.array([window for window, _, _ in launches]).reshape(len(modes), WINDOW_POINTS)
    bottoms = windows[:, -1]
    starts = [start for _, start, _ in launches]
    pending = sorted(range(len(modes)), key=lambda m: -starts[m])  # in order of joining
    active = np.zeros(0, dtype=int)
    u = w = np.zeros(0, dtype=complex)
    log_scale = np.zeros(len(modes))
    log_abs = np.empty_like(windows)  # the fit's samples, one row per mode
    t = math.inf
    while pending or active.size:
        while pending and starts[pending[0]] >= t:
            m = pending.pop(0)
            active = np.append(active, m)
            u, w = np.append(u, launches[m][2][0]), np.append(w, launches[m][2][1])
        if not active.size:  # nothing to integrate down to the next start
            t = starts[pending[0]]
            continue
        # log|u| grows by at most Re sqrt(p) + 1 per unit of t, which is largest at the upper end
        p = k2[active] * np.exp(a2[active] * t) + A[active] + eig[active] * math.exp(2.0 * t)
        t_next = max(bottoms[active].max(), t - SEGMENT_EFOLDS / (np.sqrt(p).real.max() + 1.0),
                     starts[pending[0]] if pending else -math.inf)
        inside = [np.flatnonzero((windows[m] <= t) & (windows[m] > t_next)) for m in active]
        grid = np.unique(np.concatenate([windows[m, i] for m, i in zip(active, inside)]))  # ascending
        # inward, |u| can also fall like x^{1/2}, by up to SEGMENT_EFOLDS/2 e-folds; atol lies below
        sol = solve_ivp(_rhs, (t, t_next), np.concatenate((u, w)), method="DOP853",
                        rtol=1e-6, atol=1e-30, t_eval=np.append(grid[::-1], t_next),
                        args=(k2[active], a2[active], A[active], eig[active]))
        if not sol.success:
            raise RuntimeError(f"integration failed on [{t_next}, {t}]: {sol.message}")
        n = active.size
        for j, m in enumerate(active):
            cols = grid.size - 1 - np.searchsorted(grid, windows[m, inside[j]])
            log_abs[m, inside[j]] = (log_envelope(sol.y[j, cols], sol.y[n + j, cols], roots[m])
                                     + log_scale[m])
        u, w = sol.y[:n, -1], sol.y[n:, -1]
        scale = np.maximum(np.abs(u), np.abs(w))
        u, w = u / scale, w / scale
        log_scale[active] += np.log(scale)
        t = t_next
        stay = bottoms[active] < t
        for j, m in zip(np.flatnonzero(~stay), active[~stay]):  # t is the window's last point
            log_abs[m, -1] = log_envelope(u[j], w[j], roots[m]) + log_scale[m]
        active, u, w = active[stay], u[stay], w[stay]
    counts = []
    for m, window in enumerate(windows):
        gamma, residual = fit_local_exponent(window, log_abs[m])
        counts.append(int(square_integrable_at_zero(gamma, residual)))
    return counts


def numeric_deficiency_count(op: ModeOperator, sign: int) -> int:
    """Deficiency count of one mode and sign: the one-mode view of ``deficiency_counts``.

    ``sign=+1`` counts ker(op* + i), ``sign=-1`` ker(op* - i); the two agree
    for this real operator.  Returns 0 or 1 per half-line.
    """
    return deficiency_counts([(op, sign)])[0]


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

    Every mode is counted by one ``deficiency_counts`` call, so the modes
    share one stacked inward integration.  Only the sign +1 is integrated:
    the operator is real, so (op - i)u = 0 is the complex conjugate of
    (op + i)u = 0, its solutions are the conjugates, and ``count_minus`` is
    ``count_plus``.  The left half-line operator is carried to the right one
    by x -> -x, so each per-mode count is twice the single half-line count.
    Aggregate is "infinite" iff every sampled mode contributes and the
    endpoint is limit circle (a mode-independent statement), else "zero".
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    ks = range(1, k_max + 1)
    counts = deficiency_counts([(mode_operator(params, k), +1) for k in ks])
    rows = [(k, 2 * count, 2 * count) for k, count in zip(ks, counts)]
    cls = classify_endpoint_zero(mode_operator(params, 1))
    infinite = cls.kind == "limit_circle" and all(counts)
    return DeficiencyReport(
        params=params,
        per_mode=tuple(rows),
        classification_at_zero=cls,
        aggregate="infinite" if infinite else "zero",
    )
