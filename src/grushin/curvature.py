"""Scalar curvature via Cartan frames, plus a coordinate finite-difference oracle.

Two independent routes to the scalar curvature of a warped metric
g = dx^2 + |x|^{-2 alpha} g_{x,Z}:

* the moving-frame formula in an orthonormal frame X_A with metric-compatible
  Christoffel symbols (nabla_{X_A} X_B = Gamma^C_{AB} X_C,
  Gamma^C_{AB} + Gamma^B_{AC} = 0),

      S = sum_A [ 2 X_B[Gamma^B_{AA}] + Gamma^B_{CA} Gamma^C_{AB}
                  + Gamma^B_{BC} Gamma^C_{AA} - Gamma^B_{CA} Gamma^C_{BA}
                  - Gamma^B_{AC} Gamma^C_{BA} ],

  fed either by closed-form symbols (flat model) or by Koszul's formula from
  frame structure constants;

* a plain coordinate oracle: fourth-order central differences of the metric,
  Christoffels and their derivatives assembled from dg and d^2g, contracted
  to the Ricci scalar.

The flat model gives S = -(2 alpha n + alpha^2 n + alpha^2 n^2)/x^2, equal to
the -alpha n (alpha n + alpha + 2)/x^2 form identically; for any warped
metric the x^2 S limit is that same constant, which asymptotic_check
recovers numerically together with the remainder decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .params import GrushinParams

__all__ = [
    "FrameChristoffel",
    "WarpedMetric",
    "ConformalFactor",
    "conformal_metric",
    "InvalidConnectionError",
    "flat_model_scalar",
    "flat_model_frame",
    "christoffel_from_structure_constants",
    "scalar_from_christoffel",
    "coordinate_scalar_curvature",
    "conformal_frame_christoffel",
    "asymptotic_check",
]

_FD_WEIGHTS = (1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0)
_FD_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)
#: finite-difference step of both curvature routes, relative to the coordinate (at least 1)
FD_STEP = 1e-4
#: remainder powers of asymptotic_check closer than this are not told apart by its fit
_POWER_GAP = 0.25
#: largest |Gamma^C_AB + Gamma^B_AC|, relative to max(1, |Gamma|), of a metric-compatible connection
COMPATIBILITY_TOL = 1e-10


class InvalidConnectionError(ValueError):
    """Christoffel symbols violate metric compatibility."""


def _fd4(f: Callable[[float], np.ndarray], t: float, h: float) -> np.ndarray:
    """Fourth-order central first derivative."""
    acc = None
    for w, o in zip(_FD_WEIGHTS, _FD_OFFSETS):
        if w == 0.0:
            continue
        val = w * np.asarray(f(t + o * h), dtype=float)
        acc = val if acc is None else acc + val
    return acc / h


@dataclass(frozen=True)
class FrameChristoffel:
    """Christoffel symbols of an orthonormal frame, as callables of (x, y).

    ``gamma(x, y)`` returns the (m, m, m) array G[C, A, B] = Gamma^C_{AB}
    (A the derivative direction); ``frame(x, y)`` the (m, m) matrix whose
    rows are the coordinate components of X_A in the chart (x, y_1..y_{m-1}).
    """

    dim: int
    gamma: Callable[[float, np.ndarray], np.ndarray]
    frame: Callable[[float, np.ndarray], np.ndarray]

    def check_compatibility(self, x: float, y: np.ndarray):
        G = np.asarray(self.gamma(x, y), dtype=float)
        dev = float(np.max(np.abs(G + np.swapaxes(G, 0, 2))))
        scale = max(1.0, float(np.max(np.abs(G))))
        if dev > COMPATIBILITY_TOL * scale:
            raise InvalidConnectionError(
                f"Gamma^C_AB + Gamma^B_AC = {dev:g} at (x={x}, y={y}); not metric-compatible"
            )


def flat_model_scalar(params: GrushinParams) -> float:
    """Coefficient of x^{-2} in the flat-model scalar curvature: -an(an+alpha+2).

    Identical to -(2 a n + a^2 n + a^2 n^2); both forms are exposed through
    tests as an algebraic identity.
    """
    an = params.alpha_n
    return -an * (an + params.alpha + 2.0)


def flat_model_scalar_frame_form(params: GrushinParams) -> float:
    """The same constant written as -(2 alpha n + alpha^2 n + alpha^2 n^2)."""
    a, n = params.alpha, params.n
    return -(2.0 * a * n + a * a * n + a * a * n * n)


def flat_model_frame(params: GrushinParams) -> FrameChristoffel:
    """Closed-form frame data of the flat model.

    Only Gamma^i_{i0} = -alpha/x is nonzero, plus its compatibility partner
    Gamma^0_{ii} = +alpha/x.
    """
    m = params.n + 1
    a = params.alpha

    def gamma(x: float, y: np.ndarray) -> np.ndarray:
        G = np.zeros((m, m, m))
        for i in range(1, m):
            G[i, i, 0] = -a / x
            G[0, i, i] = a / x
        return G

    def frame(x: float, y: np.ndarray) -> np.ndarray:
        e = np.eye(m)
        for i in range(1, m):
            e[i, i] = abs(x) ** a
        return e

    return FrameChristoffel(dim=m, gamma=gamma, frame=frame)


def christoffel_from_structure_constants(
    dim: int,
    cbar: Callable[[float, np.ndarray], np.ndarray],
    frame: Callable[[float, np.ndarray], np.ndarray],
) -> FrameChristoffel:
    """Koszul in an orthonormal frame: Gamma^C_{AB} = (cbar^C_AB - cbar^A_BC + cbar^B_CA)/2.

    ``cbar(x, y)[C, A, B]`` are the structure constants [X_A, X_B] = cbar^C_AB X_C.
    """

    def gamma(x: float, y: np.ndarray) -> np.ndarray:
        c = np.asarray(cbar(x, y), dtype=float)
        # G[C,A,B] = (c[C,A,B] - c[A,B,C] + c[B,C,A]) / 2
        second = np.transpose(c, (2, 0, 1))  # [C,A,B] -> c[A,B,C]
        third = np.transpose(c, (1, 2, 0))  # [C,A,B] -> c[B,C,A]
        return 0.5 * (c - second + third)

    return FrameChristoffel(dim=dim, gamma=gamma, frame=frame)


def scalar_from_christoffel(chr_data: FrameChristoffel) -> Callable[[float, np.ndarray], float]:
    """Pointwise scalar curvature from the frame formula.

    The symbols are checked for metric compatibility at every point.
    Directional derivatives X_B[Gamma^B_{AA}] are taken by fourth-order
    central differences along the coordinate flows, contracted with the frame
    components; steps are FD_STEP times the coordinate magnitude (at least 1).
    """
    m = chr_data.dim

    def scalar(x: float, y) -> float:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        chr_data.check_compatibility(x, y)
        G = np.asarray(chr_data.gamma(x, y), dtype=float)
        e = np.asarray(chr_data.frame(x, y), dtype=float)

        hx = FD_STEP * max(abs(x), 1.0)
        dG = np.zeros((m, m, m, m))  # dG[c] = partial of G along coordinate c
        dG[0] = _fd4(lambda t: chr_data.gamma(t, y), x, hx)
        for c in range(1, m):
            hy = FD_STEP * max(float(abs(y[c - 1])), 1.0)

            def shifted(t, c=c):
                yy = y.copy()
                yy[c - 1] = t
                return chr_data.gamma(x, yy)

            dG[c] = _fd4(shifted, float(y[c - 1]), hy)

        # sum_A 2 X_B[Gamma^B_{AA}], with X_B[f] = sum_c e[B, c] d_c f
        term1 = 2.0 * np.einsum("bc,cbaa->", e, dG)
        t2 = np.einsum("bca,cab->", G, G)
        t3 = np.einsum("bbc,caa->", G, G)
        t4 = np.einsum("bca,cba->", G, G)
        t5 = np.einsum("bac,cba->", G, G)
        return float(term1 + t2 + t3 - t4 - t5)

    return scalar


# ---------------------------------------------------------------------------
# coordinate oracle


def coordinate_scalar_curvature(metric: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> float:
    """Scalar curvature at u from fourth-order differences of the metric alone.

    Christoffels and their derivatives are assembled from dg and d^2 g
    (single-level stencils; the inverse-metric derivative uses
    d g^{-1} = -g^{-1} (d g) g^{-1}), then contracted to the Ricci scalar

        S = g^{bd} (d_a Gamma^a_{bd} - d_b Gamma^a_{ad}
                    + Gamma^a_{ae} Gamma^e_{bd} - Gamma^a_{be} Gamma^e_{ad}).
    """
    u = np.asarray(u, dtype=float)
    m = u.size
    hs = np.array([FD_STEP * max(abs(c), 1.0) for c in u])

    def g_at(*moves):
        v = u.copy()
        for c, t in moves:  # coordinate c set to t
            v[c] = t
        return np.asarray(metric(v), dtype=float)

    ginv = np.linalg.inv(g_at())
    dg = np.array([_fd4(lambda t, c=c: g_at((c, t)), u[c], hs[c]) for c in range(m)])

    ddg = np.zeros((m, m, m, m))  # ddg[c, d] = d_c d_d g
    w2 = (-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0)
    for c in range(m):
        # pure second derivative along c: 4th-order second-difference stencil
        acc = sum(wgt * g_at((c, u[c] + off * hs[c])) for wgt, off in zip(w2, _FD_OFFSETS))
        ddg[c, c] = acc / hs[c] ** 2
        # mixed derivatives: outer difference of the inner first derivative
        for d in range(c + 1, m):

            def inner_first(t, c=c, d=d):  # d_d g with coordinate c set to t
                return _fd4(lambda s: g_at((c, t), (d, s)), u[d], hs[d])

            mixed = _fd4(inner_first, u[c], hs[c])
            ddg[c, d] = mixed
            ddg[d, c] = mixed
    return _ricci_scalar(ginv, dg, ddg)


def _ricci_scalar(ginv: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> float:
    """S from g^{-1}, dg[c] = d_c g and ddg[c, d] = d_c d_d g at one point."""
    # first-kind symbols [d, b, c] = d_b g_dc + d_c g_db - d_d g_bc, and their derivatives
    first = np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg
    dfirst = np.einsum("ebdc->edbc", ddg) + np.einsum("ecdb->edbc", ddg) - ddg
    dginv = -ginv @ dg @ ginv  # d_e g^{-1}, stacked over e
    Gam = 0.5 * np.einsum("ad,dbc->abc", ginv, first)  # Gamma^a_{bc}
    # dGam[e, a, b, c] = d_e Gamma^a_{bc}
    dGam = 0.5 * (np.einsum("ead,dbc->eabc", dginv, first)
                  + np.einsum("ad,edbc->eabc", ginv, dfirst))
    ricci = (np.einsum("aabd->bd", dGam) - np.einsum("baad->bd", dGam)
             + np.einsum("aae,ebd->bd", Gam, Gam) - np.einsum("abe,ead->bd", Gam, Gam))
    return float(np.einsum("bd,bd->", ginv, ricci))


@dataclass(frozen=True)
class WarpedMetric:
    """g = dx^2 + |x|^{-2 alpha} g_xZ(x, y) on (0, ...) x T^n."""

    alpha: float
    n: int
    g_xZ: Callable[[float, np.ndarray], np.ndarray]

    def full_matrix(self, u: np.ndarray) -> np.ndarray:
        x, y = float(u[0]), np.asarray(u[1:], dtype=float)
        g = np.zeros((self.n + 1, self.n + 1))
        g[0, 0] = 1.0
        g[1:, 1:] = abs(x) ** (-2.0 * self.alpha) * np.asarray(self.g_xZ(x, y), dtype=float)
        return g


def conformal_metric(f: Callable[[float, np.ndarray], float], alpha: float, n: int) -> WarpedMetric:
    """The warped metric with g_xZ = f(x, y) Id."""
    return WarpedMetric(alpha=alpha, n=n, g_xZ=lambda x, y: float(f(x, y)) * np.eye(n))


@dataclass(frozen=True)
class ConformalFactor:
    """g_xZ = f(x, y) Id, with the analytic derivatives f_x and grad_y f."""

    f: Callable[[float, np.ndarray], float]
    df_dx: Callable[[float, np.ndarray], float]
    grad_y: Callable[[float, np.ndarray], np.ndarray]

    def metric(self, alpha: float, n: int) -> WarpedMetric:
        return conformal_metric(self.f, alpha, n)


def conformal_frame_christoffel(alpha: float, n: int, factor: ConformalFactor) -> FrameChristoffel:
    """Frame data for g = dx^2 + x^{-2 alpha} f(x,y) dy^2 via structure constants.

    Orthonormal frame X_0 = d/dx, X_i = x^alpha f^{-1/2} d/dy_i; the brackets
    give cbar^i_{0i} = alpha/x - f_x/(2f) and cbar^j_{ij} = X_i-direction
    gradients of the conformal weight, everything first-order in f.
    """
    m = n + 1

    def cbar(x: float, y: np.ndarray) -> np.ndarray:
        f = float(factor.f(x, y))
        fx = factor.df_dx(x, y)
        fy = factor.grad_y(x, y)
        w = abs(x) ** alpha / math.sqrt(f)  # X_i = w d/dy_i
        c = np.zeros((m, m, m))
        rate = alpha / x - fx / (2.0 * f)
        for i in range(1, m):
            c[i, 0, i] = rate
            c[i, i, 0] = -rate
        # [X_i, X_j] = (d_i w) X_j - (d_j w) X_i, with d_i w = -w f_{y_i}/(2f)
        for i in range(1, m):
            for j in range(1, m):
                if i == j:
                    continue
                diw = -w * fy[i - 1] / (2.0 * f)
                c[j, i, j] += diw
                c[j, j, i] -= diw
        return c

    def frame(x: float, y: np.ndarray) -> np.ndarray:
        f = float(factor.f(x, y))
        e = np.eye(m)
        w = abs(x) ** alpha / math.sqrt(f)
        for i in range(1, m):
            e[i, i] = w
        return e

    return christoffel_from_structure_constants(m, cbar, frame)


@dataclass(frozen=True)
class AsymptoticReport:
    limit: float
    expected: float
    remainder_exponent: float
    x_values: Tuple[float, ...]
    x2S_values: Tuple[float, ...]

    @property
    def relative_error(self) -> float:
        return abs(self.limit - self.expected) / max(abs(self.expected), 1e-300)

    def to_json_dict(self) -> dict:
        return {
            "limit": self.limit,
            "expected": self.expected,
            "relative_error": self.relative_error,
            "remainder_exponent": self.remainder_exponent,
            "x_values": list(self.x_values),
            "x2S_values": list(self.x2S_values),
        }


def asymptotic_check(
    metric: WarpedMetric,
    x_grid: Sequence[float],
    y: Optional[np.ndarray] = None,
) -> AsymptoticReport:
    """Fit the limit of x^2 S(x) on a grid in (0, 0.5] and the leading remainder power.

    S comes from the coordinate oracle on the full warped metric.  In the
    normal form g = dx^2 + g_x, S is the slice metric's own curvature plus
    terms in d_x g_x and d_x^2 g_x; the slice curvature scales exactly like
    x^{2 alpha}, so x^2 S = L + sum_i a_i x^i + x^{2+2 alpha} sum_i b_i x^i.
    One least-squares fit over those powers up to 3 gives L; a power closer than
    _POWER_GAP to 0 or to a smaller kept power is left out (the fit cannot
    tell the two apart on the grid), and at most len(x_grid) - 3 powers are
    kept.  The expected L is -alpha n (alpha n + alpha + 2), independent of
    g_xZ; the reported remainder exponent is the smallest power whose term
    reaches 1% of the largest one on the grid.
    """
    xs = np.asarray(sorted(x_grid), dtype=float)
    if xs.min() <= 0 or xs.max() > 0.5 + 1e-12:
        raise ValueError("x_grid must lie in (0, 0.5]")
    y = np.zeros(metric.n) if y is None else np.asarray(y, dtype=float)
    vals = np.array(
        [x * x * coordinate_scalar_curvature(metric.full_matrix, np.concatenate([[x], y]))
         for x in xs]
    )
    an = metric.alpha * metric.n
    expected = -an * (an + metric.alpha + 2.0)

    diffs = np.diff(vals)
    if np.max(np.abs(diffs)) < 1e-5 * max(1.0, np.max(np.abs(vals))):
        # constant on the grid within finite-difference noise (flat cylinder)
        return AsymptoticReport(
            limit=float(np.mean(vals)),
            expected=expected,
            remainder_exponent=math.inf,
            x_values=tuple(xs),
            x2S_values=tuple(vals),
        )
    slice_power = 2.0 + 2.0 * metric.alpha
    powers: list = []
    candidates = [1.0, 2.0, 3.0] + [slice_power + i for i in range(3) if slice_power + i <= 3.0]
    for q in sorted(candidates):
        if q >= _POWER_GAP and all(q - kept >= _POWER_GAP for kept in powers):
            powers.append(q)
    powers = powers[: max(xs.size - 3, 0)]
    design = np.column_stack([np.ones_like(xs)] + [xs**q for q in powers])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    limit = float(coef[0])
    terms = np.abs(coef[1:]) * xs.max() ** np.array(powers)
    q = next((p for p, t in zip(powers, terms) if t >= 0.01 * terms.max()), math.inf)
    return AsymptoticReport(
        limit=limit,
        expected=expected,
        remainder_exponent=float(q),
        x_values=tuple(xs),
        x2S_values=tuple(vals),
    )
