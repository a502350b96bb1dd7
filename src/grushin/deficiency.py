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
form in either regime.  One request makes one stacked integration by
fourth-order Magnus steps (numpy only): every mode shares each step, joining
the stack at its own WKB start and leaving it after its own fit window.
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
#: Magnus step rule: in one step p may change by STEP_DRIFT of |p| + 1 through its slope and
#: STEP_BEND through its curvature, and sqrt(p) may gain STEP_EFOLDS e-folds
STEP_DRIFT, STEP_BEND, STEP_EFOLDS = 0.05, 0.01, 50.0
#: the two Gauss points of a Magnus step, as fractions of it, one per row
_GAUSS = np.array([[0.5 - math.sqrt(3.0) / 6.0], [0.5 + math.sqrt(3.0) / 6.0]])

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


def _magnus_step(t, h, k2, a2, A, eig, u, w):
    """(u, x u') at t + h from (u, x u') at t, by one fourth-order Magnus step per stacked mode.

    In t = ln x each mode solves (u, x u')' = M (u, x u'), M = [[0, 1], [p, 1]].
    Two Gauss points p_1, p_2 give Omega = (h/2)(M_1 + M_2) + (sqrt 3/12) h^2 [M_2, M_1]
    = (h/2) I + N, with N = [[c - h/2, h], [h (p_1 + p_2)/2 + c, h/2 - c]] and
    c = (sqrt 3/12) h^2 (p_1 - p_2); then exp(Omega) = e^{h/2} (cosh d I + (sinh d/d) N),
    d^2 = -det N.  ``h`` is one length for the stack or one per mode.
    """
    gauss = t + _GAUSS * h
    p1, p2 = k2 * np.exp(a2 * gauss) + A + eig * np.exp(2.0 * gauss)
    c = math.sqrt(3.0) / 12.0 * h * h * (p1 - p2)
    n11, n21 = c - 0.5 * h, 0.5 * h * (p1 + p2) + c
    d = np.sqrt(n11 * n11 + h * n21)
    grow = np.exp(0.5 * h)
    cosh, sinhc = grow * np.cosh(d), grow * np.where(d == 0, 1.0, np.sinh(d) / d)  # sinh(0)/0 = 1
    return cosh * u + sinhc * (n11 * u + h * w), cosh * w + sinhc * (n21 * u - n11 * w)


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

    The modes share each ``_magnus_step``, the shortest that the STEP_* rule
    allows any active mode, and each mode is renormalized by its own scale
    after it.  No step passes the next join or the deepest active window's
    bottom.  Window samples are read by Magnus steps of their own length from
    the start of the step that passes them, and a mode leaves once all are read.
    """
    modes = list(modes)
    if not all(op.mode_strength > 0 or op.params.alpha > 0 for op, _ in modes):
        raise UnsupportedConfigurationError(
            "need mode_strength > 0 or alpha > 0 for limit point at infinity")
    eig = np.array([-1j if sign > 0 else 1j for _, sign in modes])  # (op +- i) u = 0 <=> u'' = (V -+ i) u
    k2 = np.array([op.mode_strength**2 for op, _ in modes])
    a2 = np.array([2.0 + 2.0 * op.params.alpha for op, _ in modes])
    A = np.array([op.inverse_square_coeff for op, _ in modes])
    nu = np.sqrt(A + 0.25 + 0j)
    roots = np.array([0.5 + nu, 0.5 - nu])  # of lambda (lambda - 1) = A, one column per mode
    launches = [_launch(op, e) for (op, _), e in zip(modes, eig)]
    windows = np.array([window for window, _, _ in launches]).reshape(len(modes), WINDOW_POINTS)
    starts = [start for _, start, _ in launches]
    pending = sorted(range(len(modes)), key=lambda m: -starts[m])  # in order of joining
    active, u, w = np.zeros(0, dtype=int), np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    log_scale, log_abs = np.zeros(len(modes)), np.empty_like(windows)  # log_abs: the fit's samples
    t, regroup = math.inf, False
    with np.errstate(divide="ignore", invalid="ignore"):  # p' = 0 or p'' = 0; sinh(d)/d at d = 0
        while pending or active.size:
            if not active.size:  # nothing to integrate down to the next start
                t = starts[pending[0]]
            while pending and starts[pending[0]] >= t:
                m = pending.pop(0)
                active, regroup = np.append(active, m), True
                u, w = np.append(u, launches[m][2][0]), np.append(w, launches[m][2][1])
            if regroup:  # the stack's constants, until the next join or leave
                kk, aa, AA, ee, stack = k2[active], a2[active], A[active], eig[active], windows[active]
                top, leave = stack[:, 0].max(), stack[:, -1].max()
                floor = max(stack[:, -1].min(), starts[pending[0]] if pending else -math.inf)
                regroup = False
            # p = coupling + A -+ i e^{2t}: |p|, |p'| and |p''| are hypots of real and imaginary parts
            coupling, rotation = kk * np.exp(aa * t), math.exp(2.0 * t)
            p = np.hypot(coupling + AA, rotation)
            drift = STEP_DRIFT * (p + 1.0) / np.hypot(aa * coupling, 2.0 * rotation)
            bend = np.sqrt(STEP_BEND * (p + 1.0) / np.hypot(aa * aa * coupling, 4.0 * rotation))
            h = np.minimum(np.minimum(drift, bend), STEP_EFOLDS / (np.sqrt(p) + 1.0)).min()
            t_next = max(t - h, floor)
            if t_next <= top:  # read the window samples in [t_next, t)
                rows, cols = np.nonzero((stack >= t_next) & (stack < t))
                m = active[rows]
                su, sw = _magnus_step(t, stack[rows, cols] - t, kk[rows], aa[rows], AA[rows],
                                      ee[rows], u[rows], w[rows])
                log_abs[m, cols] = log_envelope(su, sw, roots[:, m]) + log_scale[m]
            u, w = _magnus_step(t, t_next - t, kk, aa, AA, ee, u, w)
            scale = np.maximum(np.abs(u), np.abs(w))
            u, w, t = u / scale, w / scale, t_next
            log_scale[active] += np.log(scale)
            if t <= leave:  # some window's bottom is read
                stay = stack[:, -1] < t
                active, u, w, regroup = active[stay], u[stay], w[stay], True
    fits = [fit_local_exponent(window, row) for window, row in zip(windows, log_abs)]
    return [int(square_integrable_at_zero(gamma, residual)) for gamma, residual in fits]


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
