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
form in either regime.  Each mode is integrated by fourth-order Magnus steps
(numpy only) on a grid of its own; a request integrates its modes in blocks,
each in a fixed number of array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .params import GrushinParams

#: nu^2 this close to 1 is the critical borderline nu = 1 of classify_endpoint_zero
CRITICAL_TOL = 1e-12
#: WKB e-folds between the fit window and the start of the inward integration
START_EFOLDS = 40.0
#: the couplings k^2 x^{2+2 alpha} and |eig| x^2 stay below this on the fit window
WINDOW_COUPLING = 1e-8
#: length of the fit window in t = ln x, and its number of samples
WINDOW_LENGTH = 20.0
WINDOW_POINTS = 201
#: Magnus step rule: in one step p may change by STEP_DRIFT of |p| + 1 through its slope,
#: and sqrt(p) may gain STEP_EFOLDS e-folds
STEP_DRIFT, STEP_EFOLDS = 0.05, 50.0
#: the two Gauss points of a Magnus step, as fractions of it
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
#: modes integrated together, so a request's arrays grow with BLOCK, not with its modes
BLOCK = 32

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


def classify_endpoint_zero(op: ModeOperator) -> EndpointClassification:
    """Weyl alternative at x = 0 for an inverse-square potential.

    limit circle iff nu^2 = A + 1/4 < 1 (mu < 4); the borderline nu = 1 is
    limit point and flagged critical, within CRITICAL_TOL.
    """
    nu2 = op.nu_squared
    if abs(nu2 - 1.0) <= CRITICAL_TOL:
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


def _step_length(t, k2, a2, A):
    """The longest Magnus step down from t that the STEP_* rule allows, elementwise.

    p = coupling + A -+ i e^{2t}: |p| and |p'| are hypots of real and imaginary parts.
    """
    coupling, rotation = k2 * np.exp(a2 * t), np.exp(2.0 * t)
    p = np.hypot(coupling + A, rotation)
    drift = STEP_DRIFT * (p + 1.0) / np.hypot(a2 * coupling, 2.0 * rotation)
    return np.minimum(drift, STEP_EFOLDS / (np.sqrt(p) + 1.0))


def _magnus_step(t, h, k2, a2, A, eig):
    """The propagators [[e11, e12], [e21, e22]] of fourth-order Magnus steps from t to t + h.

    In t = ln x each mode solves (u, x u')' = M (u, x u'), M = [[0, 1], [p, 1]].
    Two Gauss points p_1, p_2 give Omega = (h/2)(M_1 + M_2) + (sqrt 3/12) h^2 [M_2, M_1]
    = (h/2) I + N, with N = [[c - h/2, h], [h (p_1 + p_2)/2 + c, h/2 - c]] and
    c = (sqrt 3/12) h^2 (p_1 - p_2); then exp(Omega) = e^{h/2} (cosh d I + (sinh d/d) N),
    d^2 = -det N.  The arguments broadcast, one step per element.
    """
    gauss = t + np.multiply.outer(_GAUSS, h)
    p1, p2 = k2 * np.exp(a2 * gauss) + A + eig * np.exp(2.0 * gauss)
    c = math.sqrt(3.0) / 12.0 * h * h * (p1 - p2)
    n11, n21 = c - 0.5 * h, 0.5 * h * (p1 + p2) + c
    d = np.sqrt(n11 * n11 + h * n21)
    grow = np.exp(0.5 * h)
    cosh, sinhc = grow * np.cosh(d), grow * np.where(d == 0, 1.0, np.sinh(d) / d)  # sinh(0)/0 = 1
    e = sinhc * np.array([[n11, h], [n21, -n11]])
    e[0, 0] += cosh
    e[1, 1] += cosh
    return e


def _plan(t0, t1, k2, a2, A):
    """Each mode's step grid from t0 down to t1, a row of nodes per mode, padded by t1.

    A step longer than ``_step_length`` at its top is halved, pass after pass, until
    none is, so a mode's grid depends on that mode alone.  Mode m starts with one
    step, keyed 2m, and its bottom node, keyed 2m + 1; halving the step keyed k
    makes steps keyed 2k and 2k + 1, so the keys, shifted to the last pass, sort
    the nodes of every grid into order.
    """
    mode = np.arange(len(t0))
    top, h, key, allowed = t0, t0 - t1, 2 * mode, _step_length(t0, k2, a2, A)
    done, passes = [(t1, 2 * mode + 1, 0)], 0
    while top.size:
        fits = h <= allowed
        done.append((top[fits], key[fits], passes))
        top, h, key, mode, allowed = (x[~fits] for x in (top, 0.5 * h, 2 * key, mode, allowed))
        mid = top - h
        allowed = np.concatenate([allowed, _step_length(mid, k2[mode], a2[mode], A[mode])])
        top, h, key, mode = map(np.concatenate, ((top, mid), (h, h), (key, key + 1), (mode, mode)))
        passes += 1
    key = np.concatenate([k << (passes - depth) for _, k, depth in done])
    order = np.argsort(key, kind="stable")
    mode = key[order] >> (passes + 1)
    col = np.arange(mode.size) - np.searchsorted(mode, mode)
    nodes = np.repeat(t1[:, None], col.max() + 1, axis=1)
    nodes[mode, col] = np.concatenate([t for t, _, _ in done])[order]
    return nodes


def _product(b, a):
    """b a for 2x2 matrices b and 2 x n matrices a, elementwise over further axes, normalized.

    Each product is scaled by a power of two to max-abs in [1/2, 1), exactly, and
    that power is returned with it.
    """
    m = (b[:, :, None] * a).sum(axis=1)
    _, power = np.frexp(np.abs(m).max(axis=(0, 1)))
    return m * np.ldexp(1.0, -power), power


def _window_samples(launches, k2, a2, A, eig):
    """(u, x u') at each mode's window samples (``_launch``), and log2 of its scale there.

    A mode's grid is padded by steps of length 0, whose propagators are identities.
    Above the window its S step propagators are multiplied in pairs, in log2 S
    passes.  Inside it the modes advance a step at a time, and each sample is read
    from the last node at or above it by one propagator of its own length.
    """
    windows = np.array([window for window, _, _ in launches])
    start, rows = np.array([t for _, t, _ in launches]), np.arange(len(launches))[:, None]
    columns = k2[:, None], a2[:, None], A[:, None], eig[:, None]
    t = _plan(start, windows[:, 0], k2, a2, A)
    chain = _magnus_step(t[:, :-1], t[:, 1:] - t[:, :-1], *columns)
    power = np.zeros(chain.shape[2:], dtype=int)
    while chain.shape[3] > 1:  # the later step of each pair multiplies from the left
        if chain.shape[3] % 2:  # the last step pairs with a step of length 0
            identity = _magnus_step(t[:, -1:], np.zeros_like(t[:, -1:]), *columns)
            chain = np.concatenate([chain, identity], axis=3)
            power = np.pad(power, ((0, 0), (0, 1)))
        chain, scale = _product(chain[..., 1::2], chain[..., 0::2])
        power = power[:, 0::2] + power[:, 1::2] + scale
    v, scale = _product(chain[..., 0], np.array([y for _, _, y in launches]).T[:, None])
    t = _plan(windows[:, 0], windows[:, -1], k2, a2, A)
    inside = _magnus_step(t[:, :-1], t[:, 1:] - t[:, :-1], *columns)
    states, powers = [v], [power[:, 0] + scale]
    for j in range(inside.shape[3]):
        v, scale = _product(inside[..., j], v)
        states.append(v)
        powers.append(powers[-1] + scale)
    node = rows, np.count_nonzero(t[:, None, :] >= windows[:, :, None], axis=2) - 1
    reads, scale = _product(_magnus_step(t[node], windows - t[node], *columns),
                            np.stack(states, axis=-1)[:, :, rows, node[1]])
    return reads[:, 0], np.stack(powers, axis=-1)[node] + scale


def deficiency_counts(modes: Sequence[Tuple[ModeOperator, int]]) -> List[int]:
    """Half-line deficiency count of each (op, sign) pair, from its inward integration.

    A count is the dimension of {solutions of (op -+ i)u = 0, L2 at 0 and
    decaying at infinity}; ``sign=+1`` counts ker(op* + i), ``sign=-1``
    ker(op* - i).  Infinity is limit point, so the decaying solution is unique
    up to scale and the count is 1 exactly when it is L^2 at 0.  It is
    integrated inward, the stable direction, as (u, x u') in t = ln x, and
    ``fit_local_exponent`` reads the power of x of its ``log_envelope`` on the
    fit window (``_launch``).  The indicial roots 1/2 +- nu only say which
    branch each envelope term removes; the exponent itself is measured.

    Each mode takes Magnus steps on a grid of its own (``_plan``), so a batch fits
    each mode bit for bit as a one-mode call does.  The modes go BLOCK at a time
    (``_window_samples``).
    """
    modes = list(modes)
    if not all(op.mode_strength > 0 or op.params.alpha > 0 for op, _ in modes):
        raise UnsupportedConfigurationError(
            "need mode_strength > 0 or alpha > 0 for limit point at infinity")
    counts = []
    for block in (modes[lo:lo + BLOCK] for lo in range(0, len(modes), BLOCK)):
        eig = np.array([-1j if sign > 0 else 1j for _, sign in block])  # (op +- i) u = 0 <=> u'' = (V -+ i) u
        k2, a2, A = np.array([(op.mode_strength**2, 2.0 + 2.0 * op.params.alpha,
                               op.inverse_square_coeff) for op, _ in block]).T
        nu = np.sqrt(A + 0.25 + 0j)
        roots = np.array([0.5 + nu, 0.5 - nu])[:, :, None]  # of lambda (lambda - 1) = A, a row per mode
        launches = [_launch(op, e) for (op, _), e in zip(block, eig)]
        with np.errstate(divide="ignore", invalid="ignore"):  # p' = 0; sinh(d)/d at d = 0
            (u, xu_prime), power = _window_samples(launches, k2, a2, A, eig)
        log_abs = log_envelope(u, xu_prime, roots) + math.log(2.0) * power
        counts += [int(square_integrable_at_zero(*fit_local_exponent(window, row)))
                   for (window, _, _), row in zip(launches, log_abs)]
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

    Every mode is counted by one ``deficiency_counts`` call, which integrates
    the modes together in blocks.  Only the sign +1 is integrated:
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
