"""Modified Bessel functions of real and imaginary order, and the 1D model operator.

The normal operator of the weighted Laplacian reduces per Fourier mode to

    T = x^2 d^2 + a x d + b - h x^{2 beta},        (h > 0, beta > 0)

whose kernel is spanned by x^{(1-a)/2} I(sqrt(h) x^beta / beta, nu) and the
same with K, where nu = sqrt(|mu_op|)/(2 beta) and mu_op = (a-1)^2 - 4b.  For
mu_op < 0 the order is imaginary and the real combinations

    Itilde(x, nu) = Re I_{i nu}(x),      Ktilde(x, nu) = K_{i nu}(x)

are used.  Real orders delegate to scipy; imaginary (and the complex orders
1 + i*nu needed for derivatives) are computed here.

Numerical routes for complex order mu = sigma + i*nu (sigma in {0, 1}):

* ascending series with complex log-gamma whenever the reflection identity is
  safe from e^{2x} cancellation, i.e. 2x <= pi*nu;
* otherwise the integral representation
      K_mu(x) = int_0^inf e^{-x cosh t} cosh(mu t) dt
  by the trapezoidal rule in a fixed number of steps;
* beyond x = 400, the large-argument asymptotic series (whose coefficients
  are real polynomials in mu^2, hence real for purely imaginary order).

The switchover placement matters: the originally planned "series up to
max(10, 2 nu), asymptotics beyond" leaves Ktilde with ~1e-8 error for small
nu around x ~ 10, which the integral route avoids.  Validated against an
independent multiprecision oracle to < 3e-11 relative over x in [1e-4, 60],
nu in [0, 10.5], and the integral route to 1e-13 for nu <= 12.5 (see tests).

``bessel_I``, ``bessel_K``, their tilde forms and ``KernelSolutionPair.u``,
``du`` and ``ddu`` take a float or an array of points.  An array equals the
scalar calls point by point, bit for bit: scipy's real-order functions
broadcast, the ascending series sums each term over all of its points at
once, the trapezoidal rule takes the same steps at every point, and powers
and logarithms use the C library's ``pow`` and ``log`` (numpy's vectorized
ones can round differently in the last bit).  Only large-argument points go
one at a time.  So the membership oracle costs one array evaluation of ``u``
for its infinity probe, and one of ``u`` and one of ``du`` for its window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
import scipy.special as sp

from .deficiency import WINDOW_LENGTH, WINDOW_POINTS, fit_local_exponent, log_envelope

__all__ = [
    "BesselModelOp",
    "KernelSolutionPair",
    "bessel_I",
    "bessel_K",
    "bessel_I_tilde",
    "bessel_K_tilde",
    "bessel_I_scaled",
    "bessel_K_scaled",
    "kernel_solutions",
    "conjugate_by_weight",
    "has_kernel_in_weighted_L2",
    "weighted_L2_membership_oracle",
    "critical_delta",
]

Points = Union[float, np.ndarray]  # a float gives a float, an array an array of the same shape

_ASYMPT_X = 400.0  # beyond this the large-argument expansions are exact to machine precision
_SERIES_TERMS = 800  # cap on the terms of one ascending series
_ASYMPT_TERMS = 40  # cap on the terms of one large-argument expansion
#: trapezoid steps per point of K_mu(x): wherever the rule runs (x < 400, nu < 2x/pi), T/128 is
#: at most 0.78 of min(0.35/(1 + nu/4), 0.45/sqrt(x)), a step that resolves both scales
_TRAPEZOID_STEPS = 128
_LOG_FACTORIAL = sp.gammaln(np.arange(_SERIES_TERMS) + 1.0)  # ln m!


def _checked(x: Points) -> Points:
    """x as a float, or a NumPy array as a float array, with every point > 0."""
    if type(x) is not float:
        if isinstance(x, np.ndarray) and x.ndim:
            x = x.astype(float, copy=False)
            if not np.all(x > 0.0):
                raise ValueError(f"argument must be > 0, got {x[~(x > 0.0)].flat[0]}")
            return x
        x = float(x)
    if not x > 0.0:
        raise ValueError(f"argument must be > 0, got {x}")
    return x


def _power(x: Points):
    """The power function for x as ``_checked`` returns it; both call the C library's pow.

    ``np.float_power`` calls it point by point for an array.  numpy's
    vectorized power can round differently in the last bit, and an array
    evaluation must equal the scalar one point by point.
    """
    return pow if type(x) is float else np.float_power


def _log(x: Points) -> Points:
    """ln x by the C library's log for a float and an array alike.

    scipy's ``xlogy(1, x)`` calls it point by point; numpy's vectorized log
    can round differently in the last bit (as its power can, see ``_power``).
    """
    return sp.xlogy(1.0, x) if isinstance(x, np.ndarray) else math.log(x)


def _value(v):
    """A float for a scalar evaluation (NumPy's float64 is a float), the array itself otherwise."""
    return float(v) if isinstance(v, float) else v


# ---------------------------------------------------------------------------
# complex-order core


def _iv_series(mu: complex, x: Points):
    """Ascending series sum_m (x/2)^{2m+mu} / (m! Gamma(mu+m+1)) via log-gamma, at x.

    Each term is computed for all points of x at once, and its log-gamma
    factors, which do not depend on x, once.  A point stops summing at its
    own first m > 3 whose term is below 1e-25 of its running sum, so its
    value does not depend on the other points; the loop ends when every
    point has stopped.
    """
    half_log = _log(x / 2.0)
    out = 0j
    live = True
    for m in range(_SERIES_TERMS):
        term = np.exp((2 * m + mu) * half_log - _LOG_FACTORIAL[m] - sp.loggamma(mu + m + 1))
        out = out + term * live
        if m > 3:
            small = abs(term) < 1e-25 * abs(out)
            if small.ndim:  # an array: freeze the points that stopped
                live = live & ~small
                small = not live.any()
            if small:
                break
    return out


def _asympt_coeffs(mu: complex, x: float, signs: bool) -> complex:
    """sum_k (+-1)^k a_k(mu) / x^k with a_k = prod_j (4 mu^2 - (2j-1)^2) / (k! 8^k).

    Truncates at the smallest term (optimal truncation); for x >= 400 the
    smallest term is far below machine precision.
    """
    four_mu2 = 4.0 * mu * mu
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    best = abs(term)
    for k in range(1, _ASYMPT_TERMS):
        term = term * (four_mu2 - (2 * k - 1) ** 2) / (k * 8.0 * x)
        size = abs(term)
        if size > best:
            break  # divergent tail reached
        best = size
        total += -term if signs and k % 2 else term
        if size < 1e-20:
            break
    return total


def _by_route(mu: complex, x: Points, on_series, series, off_series):
    """Values at x: ``series(mu, .)`` where ``on_series`` holds, ``off_series(mu, .)`` elsewhere.

    A float on the series route stays a float; every other point goes through
    ``off_series`` in one array call (a float as a one-point array).
    """
    if not isinstance(x, np.ndarray):
        return series(mu, x) if on_series else off_series(mu, np.array([x]))[0]
    out = np.empty(x.shape, dtype=complex)
    out[~on_series] = off_series(mu, x[~on_series])
    if on_series.any():
        out[on_series] = series(mu, x[on_series])
    return out


def _asymptotic(mu: complex, x: np.ndarray, signs: bool) -> np.ndarray:
    """I_mu (``signs``) or K_mu at x >= 400 by the large-argument series, one point at a time."""
    prefactor = lambda v: (math.exp(v) / math.sqrt(2.0 * math.pi * v) if signs
                           else math.sqrt(math.pi / (2.0 * v)) * math.exp(-v))
    return np.array([prefactor(v) * _asympt_coeffs(mu, v, signs) for v in x.tolist()], dtype=complex)


def _iv_complex(mu: complex, x: Points):
    return _by_route(mu, x, x < _ASYMPT_X, _iv_series, lambda mu, x: _asymptotic(mu, x, signs=True))


def _kv_trapezoid(mu: complex, x: np.ndarray) -> np.ndarray:
    """K_mu(x) = int_0^inf e^{-x cosh t} cosh(mu t) dt by the trapezoidal rule, at each point of x.

    The integrand is entire, even and decays double-exponentially, so half its
    trapezoidal sum over the line converges geometrically (the sample at t = 0
    is 1).  Every point takes the same _TRAPEZOID_STEPS steps, up to
    cosh T = 1 + 60/x where the samples are below e^{-60}; e^{-x} is pulled out.
    """
    T = np.arccosh(1.0 + 60.0 / x)
    t = T[:, None] * (np.arange(_TRAPEZOID_STEPS + 1) / _TRAPEZOID_STEPS)
    f = np.exp(-x[:, None] * (np.cosh(t) - 1.0)) * np.cosh(mu * t)
    return (f.sum(axis=1) - 0.5) * (T / _TRAPEZOID_STEPS) * np.exp(-x)


def _kv_reflected(mu: complex, x: Points):
    """K_mu = (pi/2)(I_{-mu} - I_mu)/sin(pi mu), at x."""
    s = np.sin(np.pi * np.asarray(mu, dtype=complex))
    if abs(s) < 1e-8:  # integer order limit (nu ~ 0)
        return sp.kv(mu.real, x)
    i_mu = _iv_series(mu, x)
    # for imaginary mu, I_{-mu} = conj(I_mu) on x > 0, and the two series
    # agree bit for bit (loggamma and exp commute with conjugation)
    i_minus = np.conj(i_mu) if mu.real == 0.0 else _iv_series(-mu, x)
    return np.pi / 2.0 * (i_minus - i_mu) / s


def _kv_off_series(mu: complex, x: np.ndarray) -> np.ndarray:
    """K_mu at x off the series route: the trapezoid below x = 400, the asymptotic series beyond."""
    far = x >= _ASYMPT_X
    out = np.empty(x.shape, dtype=complex)
    out[~far] = _kv_trapezoid(mu, x[~far])
    out[far] = _asymptotic(mu, x[far], signs=False)
    return out


def _kv_complex(mu: complex, x: Points):
    # the reflection is safe from e^{2x} cancellation left of the 2x = pi nu line
    on_series = (x < _ASYMPT_X) & (2.0 * x <= math.pi * abs(mu.imag))
    return _by_route(mu, x, on_series, _kv_reflected, _kv_off_series)


# ---------------------------------------------------------------------------
# public evaluators


def bessel_I(x: Points, nu: float) -> Points:
    """Modified Bessel I of real order nu >= 0."""
    x = _checked(x)
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    return _value(sp.iv(nu, x))


def bessel_K(x: Points, nu: float) -> Points:
    """Modified Bessel K of real order nu >= 0."""
    x = _checked(x)
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    return _value(sp.kv(nu, x))


def bessel_I_tilde(x: Points, nu: float) -> Points:
    """Itilde(x, nu) = Re I_{i nu}(x)."""
    x = _checked(x)
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if nu == 0.0:
        return bessel_I(x, 0.0)
    return _value(_iv_complex(1j * nu, x).real)


def bessel_K_tilde(x: Points, nu: float) -> Points:
    """Ktilde(x, nu) = K_{i nu}(x) (real for real x > 0)."""
    x = _checked(x)
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if nu == 0.0:
        return bessel_K(x, 0.0)
    return _value(_kv_complex(1j * nu, x).real)


def bessel_I_scaled(x: float, nu: float, imaginary_order: bool = False) -> float:
    """e^{-x} I(x, nu); the suppressed exponent is exactly x.

    Use for x beyond ~700 where the unscaled value overflows.
    """
    x = _checked(x)
    if not imaginary_order:
        return float(sp.ive(nu, x))
    if x >= _ASYMPT_X:
        return float((_asympt_coeffs(1j * nu, x, signs=True) / math.sqrt(2.0 * math.pi * x)).real)
    return float((_iv_series(1j * nu, x) * math.exp(-x)).real)


def bessel_K_scaled(x: float, nu: float, imaginary_order: bool = False) -> float:
    """e^{+x} K(x, nu); the suppressed exponent is exactly -x."""
    x = _checked(x)
    if not imaginary_order:
        return float(sp.kve(nu, x))
    if x >= _ASYMPT_X:
        return float((math.sqrt(math.pi / (2.0 * x)) * _asympt_coeffs(1j * nu, x, signs=False)).real)
    return float(_kv_complex(1j * nu, x).real * math.exp(x))


def _bessel_I_deriv(x: Points, nu: float, imaginary_order: bool) -> Points:
    """d/dx of I(x, nu) resp. Itilde(x, nu), via the recurrence I' = I_{nu+1} + (nu/x) I_nu."""
    if not imaginary_order:
        return sp.iv(nu + 1.0, x) + (nu / x) * sp.iv(nu, x)
    # Re(I_{1+i nu} + (i nu/x) I_{i nu}), in real arithmetic
    return _iv_complex(1.0 + 1j * nu, x).real - (nu / x) * _iv_complex(1j * nu, x).imag


def _bessel_K_deriv(x: Points, nu: float, imaginary_order: bool) -> Points:
    """d/dx of K(x, nu) resp. Ktilde(x, nu).

    For imaginary order, K'_{i nu}(x) = -Re K_{1 + i nu}(x) exactly, because
    K_{i nu - 1} = conj(K_{1 + i nu}) on the positive real axis.
    """
    if not imaginary_order:
        return -(sp.kv(nu - 1.0, x) + sp.kv(nu + 1.0, x)) / 2.0
    if nu == 0.0:
        return -sp.kv(1.0, x)
    return -_kv_complex(1.0 + 1j * nu, x).real


# ---------------------------------------------------------------------------
# the 1D model operator


@dataclass(frozen=True)
class BesselModelOp:
    """T = x^2 d^2 + a x d + b - h x^{2 beta} acting on x^delta L2(R+, dx)."""

    a: float
    b: float
    h: float
    beta: float
    delta: float = 0.0

    def __post_init__(self):
        if self.h < 0:
            raise ValueError(f"h must be >= 0, got {self.h}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    @property
    def mu_op(self) -> float:
        """(a-1)^2 - 4b, the discriminant of the indicial polynomial of T."""
        return (self.a - 1.0) ** 2 - 4.0 * self.b

    @property
    def nu(self) -> float:
        """sqrt(|mu_op|) / (2 beta), the Bessel order of the kernel solutions."""
        return math.sqrt(abs(self.mu_op)) / (2.0 * self.beta)

    def indicial_roots(self) -> Tuple[complex, complex]:
        """Roots of lambda^2 + (a-1) lambda + b, ordered by real part."""
        disc = self.mu_op
        if disc >= 0:
            r = math.sqrt(disc)
            return complex((1.0 - self.a + r) / 2.0), complex((1.0 - self.a - r) / 2.0)
        r = math.sqrt(-disc) / 2.0
        re = (1.0 - self.a) / 2.0
        return complex(re, r), complex(re, -r)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "h": self.h, "beta": self.beta, "delta": self.delta}


def conjugate_by_weight(op: BesselModelOp, delta: float) -> BesselModelOp:
    """x^{-delta} T x^{delta}: a -> a + 2 delta, b -> b + delta^2 + delta(a-1).

    Composing two conjugations adds the weights (group law, tested).
    """
    return BesselModelOp(
        a=op.a + 2.0 * delta,
        b=op.b + delta * delta + delta * (op.a - 1.0),
        h=op.h,
        beta=op.beta,
        delta=op.delta,
    )


@dataclass(frozen=True)
class KernelSolutionPair:
    """Closed-form kernel of T: u_i(x) = x^{(1-a)/2} Z_i(sqrt(h) x^beta / beta, nu).

    ``u``, ``du`` and ``ddu`` take a float or an array of points.
    """

    op: BesselModelOp
    order_kind: str  # "real" | "imaginary"
    nu: float
    exponent_prefix: float  # (1 - a)/2
    argument_scale: float  # sqrt(h)/beta

    def _z(self, which: str, s: Points) -> Points:
        """Z_i at the Bessel argument s."""
        if self.order_kind == "real":
            z = (sp.iv if which == "u1" else sp.kv)(self.nu, s)
        else:
            z = (_iv_complex if which == "u1" else _kv_complex)(1j * self.nu, s).real
        return _value(z)

    def _dz(self, which: str, s: Points) -> Points:
        """Z_i' at the Bessel argument s."""
        deriv = _bessel_I_deriv if which == "u1" else _bessel_K_deriv
        return _value(deriv(s, self.nu, self.order_kind == "imaginary"))

    def u(self, which: str, x: Points) -> Points:
        x = _checked(x)
        pw = _power(x)
        s = _checked(self.argument_scale * pw(x, self.op.beta))  # x^beta can underflow
        return pw(x, self.exponent_prefix) * self._z(which, s)

    def du(self, which: str, x: Points) -> Points:
        """First derivative, via the Bessel recurrences (no finite differences)."""
        x = _checked(x)
        pw = _power(x)
        p = self.exponent_prefix
        s = _checked(self.argument_scale * pw(x, self.op.beta))  # x^beta can underflow
        ds = self.op.beta * self.argument_scale * pw(x, self.op.beta - 1.0)
        return p * pw(x, p - 1.0) * self._z(which, s) + pw(x, p) * self._dz(which, s) * ds

    def ddu(self, which: str, x: Points) -> Points:
        """Second derivative, using the modified Bessel ODE for Z''.

        Z'' is eliminated through s^2 Z'' + s Z' - (s^2 + nu_eff^2) Z = 0 with
        nu_eff^2 = +-nu^2 (negative for imaginary order), so no further
        special-function evaluations are needed.
        """
        x = _checked(x)
        pw = _power(x)
        p = self.exponent_prefix
        beta = self.op.beta
        s = _checked(self.argument_scale * pw(x, beta))  # x^beta can underflow
        z = self._z(which, s)
        dz = self._dz(which, s)
        nu_eff2 = -self.nu**2 if self.order_kind == "imaginary" else self.nu**2
        ddz = ((s * s + nu_eff2) * z - s * dz) / (s * s)
        ds = beta * self.argument_scale * pw(x, beta - 1.0)
        dds = beta * (beta - 1.0) * self.argument_scale * pw(x, beta - 2.0)
        return (
            p * (p - 1.0) * pw(x, p - 2.0) * z
            + 2.0 * p * pw(x, p - 1.0) * dz * ds
            + pw(x, p) * (ddz * ds * ds + dz * dds)
        )

    def u1(self, x: Points) -> Points:
        return self.u("u1", x)

    def u2(self, x: Points) -> Points:
        return self.u("u2", x)

    def residual(self, which: str, x: float) -> float:
        """T u_i(x), which should vanish to floating accuracy."""
        return (
            x * x * self.ddu(which, x)
            + self.op.a * x * self.du(which, x)
            + (self.op.b - self.op.h * x ** (2.0 * self.op.beta)) * self.u(which, x)
        )


def kernel_solutions(op: BesselModelOp) -> KernelSolutionPair:
    """Closed-form solutions of T u = 0 for h > 0.

    For h = 0 the kernel is spanned by the pure powers x^{lambda_pm} of the
    indicial roots instead, and this constructor refuses.
    """
    if op.h == 0.0:
        raise ValueError(
            "h = 0: kernel is spanned by the pure powers x^lambda of the indicial "
            "roots; use BesselModelOp.indicial_roots()"
        )
    kind = "real" if op.mu_op >= 0.0 else "imaginary"
    return KernelSolutionPair(
        op=op,
        order_kind=kind,
        nu=op.nu,
        exponent_prefix=(1.0 - op.a) / 2.0,
        argument_scale=math.sqrt(op.h) / op.beta,
    )


# ---------------------------------------------------------------------------
# weighted-L2 kernel predicate and its brute-force oracle


def has_kernel_in_weighted_L2(op: BesselModelOp) -> bool:
    """T has nontrivial kernel in x^delta L2 iff Re((1-a)/2 - delta - sqrt(mu_op)/2) > -1/2.

    sqrt is the principal root.  Equivalently T is injective iff
    Re(lambda_minus) - delta <= -1/2.  Requires h > 0 (otherwise no decay
    selects the K-branch).
    """
    if not op.h > 0:
        raise ValueError("predicate requires h > 0")
    mu = op.mu_op
    sqrt_mu = complex(math.sqrt(mu)) if mu >= 0 else 1j * math.sqrt(-mu)
    lhs = ((1.0 - op.a) / 2.0 - op.delta - sqrt_mu / 2.0).real
    return lhs > -0.5


def critical_delta(op: BesselModelOp) -> float:
    """The unique delta* where the kernel predicate flips; independent of h."""
    mu = op.mu_op
    re_sqrt = math.sqrt(mu) if mu >= 0 else 0.0
    return (1.0 - op.a) / 2.0 - re_sqrt / 2.0 + 0.5


#: the membership oracle is inconclusive within this (or its fit residual) of the L^2 borderline
BORDERLINE_TOL = 1e-3


def weighted_L2_membership_oracle(op: BesselModelOp, which: str) -> str:
    """Brute-force square-integrability of x^{-delta} u_i near 0 and at infinity.

    Growth at infinity is probed at two points deep in the exponential regime
    (the I-branch fails there).  Near 0, ``deficiency.fit_local_exponent``
    fits the exponent gamma of ``deficiency.log_envelope`` of (u, x u') on
    WINDOW_POINTS points of ln x, and x^{-delta} u is L^2 there iff
    gamma - delta > -1/2.  Returns "true" / "false" / "inconclusive": the last
    when gamma - delta is within max(BORDERLINE_TOL, the fit's residual)
    of -1/2, or when no window fits above the underflow floor.

    The window is the deepest one, at most WINDOW_LENGTH long, that keeps
    every factor of u and u' below e^600 and the Bessel argument s a normal
    float; at its top s <= 1e-4, so u is its two indicial branches up to a
    relative O(s^2).  The probe is one array evaluation of ``u``, and the
    window one of ``u`` and one of ``du``.
    """
    if which not in ("u1", "u2"):
        raise ValueError(f"which must be u1 or u2, got {which}")
    pair = kernel_solutions(op)

    # --- behavior at infinity: u1 ~ e^{+arg}, u2 ~ e^{-arg}.  Probe two points
    # deep in the exponential regime (Bessel argument 2 vs 60); at contrast
    # e^{58} the exponential beats any polynomial factor x^{(1-a)/2 - delta}
    # the weight contributes, so the comparison is decisive.
    x_probe = np.array([(2.0 / pair.argument_scale) ** (1.0 / op.beta),
                        (60.0 / pair.argument_scale) ** (1.0 / op.beta)])
    val_mod, val_deep = np.abs(pair.u(which, x_probe)) * np.float_power(x_probe, -op.delta)
    if val_deep > val_mod:
        return "false"

    # --- behavior near zero: the exponent of u, read through its indicial branches.
    # At real order the largest Bessel factor is K_{nu+1}(s) ~ Gamma(nu+1)/2 (2/s)^{nu+1};
    # at imaginary order |s^{i nu}| = 1, and it is |K_{1+i nu}(s)| <= 1/s, as at real_nu = 0.
    # Its constant e^c times the powers of x in x^p, x^{p-1}, s^{-nu-1} and s' stays
    # below e^600 on the window, and s stays a normal float.
    real_nu = pair.nu if pair.order_kind == "real" else 0.0
    beta, ln_scale = op.beta, math.log(pair.argument_scale)
    c = max(0.0, math.lgamma(real_nu + 1.0) + (real_nu + 1.0) * (math.log(2.0) - ln_scale))
    t_bottom = max((c - 600.0) / (abs(pair.exponent_prefix) + real_nu * beta + 1.0 + beta),
                   (math.log(np.finfo(float).tiny) - ln_scale) / beta)
    t_top = min(t_bottom + WINDOW_LENGTH, (math.log(1e-4) - ln_scale) / beta)
    if not t_bottom < t_top:
        return "inconclusive"
    t = np.linspace(t_top, t_bottom, WINDOW_POINTS)
    x = np.exp(t)
    log_abs = log_envelope(pair.u(which, x), x * pair.du(which, x), op.indicial_roots())
    gamma, residual = fit_local_exponent(t, log_abs)
    margin = gamma - op.delta + 0.5
    if abs(margin) <= max(BORDERLINE_TOL, residual):
        return "inconclusive"
    return "true" if margin > 0 else "false"
