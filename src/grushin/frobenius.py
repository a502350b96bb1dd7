"""Theta-graded Frobenius series for kernel elements of the weighted operator.

The weighted operator Q = x^2(Delta - c S) splits as an indicial part plus
corrections graded by the Theta lattice,

    Q = I(Q) + sum_theta x^theta R_theta,

where each R_theta acts on the singular set (here: a finite Fourier block on
the flat torus).  A kernel element seeded by a(y) at the indicial root lambda
is the series u = sum_phi a_phi(y) x^{lambda + phi}, solved grade by grade via

    p(lambda + phi) a_phi = - sum_theta R_theta a_{phi - theta}.

When the roots are separated by a lattice element (resonance) the minus-root
series picks up the classical log partner u_- = C u_+ log x + sum a_theta^-
x^{lambda_- + theta}; C is determined by the recursion (and may come out
zero, e.g. the flat model whose couplings step by 2(1+alpha) while the gap is
sqrt(mu)).  The undetermined coefficient at the resonant grade is
zero; a double root takes C = 1 with a zero grade-0 partner coefficient.

Everything here is exact linear algebra on truncated series; the residual
certificate then *applies the operator symbolically* to the truncated series
and fits the decay exponent of what is left, which is how an expansion is
certified without trusting the recursion that built it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .params import GrushinParams, indicial_data, resonance, theta_lattice

__all__ = [
    "OperatorSeriesData",
    "FrobeniusExpansion",
    "ResidualCertificate",
    "CertificateError",
    "ResonantCaseError",
    "mode_basis",
    "flat_model_series_data",
    "expand",
    "residual_certificate",
]

_GRADE_TOL = 1e-9
#: how far below Re(lambda) + theta_next the certified residual exponent may fall
CERTIFICATE_SLACK = 0.05


class ResonantCaseError(ValueError):
    """Resonant expansion requested without the log machinery."""


class CertificateError(RuntimeError):
    """Residual certificate could not be established; carries diagnostics."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def mode_basis(n: int, K: int) -> Tuple[Tuple[int, ...], ...]:
    """Fourier modes of the flat torus T^n with sup-norm at most K.

    Ordered by (|k|^2, lexicographic), so the n = 1 basis reads
    0, -1, 1, -2, 2, ...
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    modes = [tuple(k) for k in itertools.product(range(-K, K + 1), repeat=n)]
    modes.sort(key=lambda k: (sum(x * x for x in k), k))
    return tuple(modes)


@dataclass(frozen=True)
class OperatorSeriesData:
    """Graded coefficient operators of Q over a truncated Fourier basis.

    ``blocks[theta]`` is the matrix of R_theta; the grade-0 scalar-curvature
    part is already absorbed into the indicial polynomial.
    """

    params: GrushinParams
    K: int
    modes: Tuple[Tuple[int, ...], ...]
    blocks: dict  # theta (float) -> ndarray (m, m)

    @property
    def dim(self) -> int:
        return len(self.modes)

    def mode_index(self, k) -> int:
        k = (k,) if isinstance(k, int) else tuple(k)
        return self.modes.index(k)

    def unit_seed(self, k) -> np.ndarray:
        seed = np.zeros(self.dim, dtype=complex)
        seed[self.mode_index(k)] = 1.0
        return seed


def flat_model_series_data(params: GrushinParams, K: int) -> OperatorSeriesData:
    """Series data for the flat model: a single coupling x^{2(1+alpha)} Delta_Z.

    On the flat torus the tangential Laplacian is diagonal with symbol -|k|^2,
    the divergence corrections vanish, and x^2 S is exactly constant, so the
    curvature sits entirely inside the indicial polynomial.
    """
    modes = mode_basis(params.n, K)
    diag = np.array([-float(sum(x * x for x in k)) for k in modes], dtype=complex)
    blocks = {2.0 * (1.0 + params.alpha): np.diag(diag)}
    return OperatorSeriesData(params=params, K=K, modes=modes, blocks=blocks)


@dataclass(frozen=True)
class FrobeniusExpansion:
    """Truncated expansion sum_{theta, p} a_{theta, p} x^{lambda + theta} (log x)^p."""

    lam: complex
    terms: Tuple[Tuple[float, int, np.ndarray], ...]  # (theta, log power, coeffs)
    order_cutoff: float
    log_constant_C: Optional[complex]
    modes: Tuple[Tuple[int, ...], ...]

    def coefficient(self, theta: float, p: int = 0) -> Optional[np.ndarray]:
        for t, q, a in self.terms:
            if q == p and abs(t - theta) <= _GRADE_TOL:
                return a
        return None

    def profiles(self, x) -> np.ndarray:
        """Per-mode values, shape (n_modes, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((len(self.modes), x.size), dtype=complex)
        lx = np.log(x)
        for theta, p, a in self.terms:
            out += np.outer(a, x ** (self.lam + theta) * lx**p)
        return out

    def derivative_profiles(self, x) -> np.ndarray:
        """d/dx of ``profiles``, term by term (exact)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((len(self.modes), x.size), dtype=complex)
        lx = np.log(x)
        for theta, p, a in self.terms:
            s = self.lam + theta
            base = s * x ** (s - 1.0) * lx**p
            if p > 0:
                base = base + p * x ** (s - 1.0) * lx ** (p - 1)
            out += np.outer(a, base)
        return out

    def exponents(self) -> Tuple[complex, ...]:
        return tuple(sorted({complex(self.lam + t) for t, _, _ in self.terms},
                            key=lambda z: (z.real, z.imag)))

    def to_json_dict(self) -> dict:
        from .params import complex_to_json

        return {
            "lambda": complex_to_json(self.lam),
            "order_cutoff": self.order_cutoff,
            "log_constant_C": None
            if self.log_constant_C is None
            else complex_to_json(complex(self.log_constant_C)),
            "modes": [list(k) for k in self.modes],
            "terms": [
                {
                    "theta": t,
                    "log_power": p,
                    "coefficients": [complex_to_json(complex(z)) for z in a],
                }
                for t, p, a in self.terms
            ],
        }


def expand(
    data: OperatorSeriesData,
    root: str,
    seed: np.ndarray,
    cutoff: float,
) -> FrobeniusExpansion:
    """Solve the graded recursion for the expansion seeded at the chosen root.

    The undetermined coefficient at the resonant grade is zero; for a double
    root the grade-0 partner coefficient is.
    """
    if root not in ("plus", "minus"):
        raise ValueError(f"root must be 'plus' or 'minus', got {root}")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    seed = np.asarray(seed, dtype=complex)
    if seed.shape != (data.dim,):
        raise ValueError(f"seed must have shape ({data.dim},)")
    if not np.any(seed != 0):
        raise ValueError("seed must be nonzero")

    ind = indicial_data(data.params)
    lam = ind.lambda_plus if root == "plus" else ind.lambda_minus
    gap = ind.sqrt_mu  # lambda_plus - lambda_minus
    resonant = False
    if root == "minus":
        res_flag, _ = resonance(data.params)
        resonant = res_flag and gap.real <= cutoff + _GRADE_TOL
    double_root = resonant and abs(gap) <= _GRADE_TOL

    grades = theta_lattice(data.params.alpha, cutoff).elements

    def accumulated(solved: dict, phi: float) -> np.ndarray:
        rhs = np.zeros(data.dim, dtype=complex)
        for theta, block in data.blocks.items():
            prev = phi - theta
            if prev < -_GRADE_TOL:
                continue
            for g, a in solved.items():
                if abs(g - prev) <= _GRADE_TOL:
                    rhs += block @ a
        return rhs

    if not resonant:
        solved = {}
        for phi in grades:
            if phi == 0.0:
                solved[0.0] = seed.copy()
                continue
            rhs = accumulated(solved, phi)
            pval = ind.p(lam + phi)
            if abs(pval) <= 1e-10:
                if np.max(np.abs(rhs)) <= 1e-300:
                    solved[phi] = np.zeros(data.dim, dtype=complex)
                    continue
                if root == "minus":
                    raise ResonantCaseError(
                        f"p(lambda + {phi}) = 0 with nonzero forcing: resonant case"
                    )
                raise RuntimeError(f"internal consistency: p(lambda+{phi}) = 0 off resonance")
            solved[phi] = -rhs / pval
        terms = tuple(
            (phi, 0, a) for phi, a in sorted(solved.items()) if np.max(np.abs(a)) > 0 or phi == 0.0
        )
        return FrobeniusExpansion(
            lam=lam, terms=terms, order_cutoff=cutoff, log_constant_C=None, modes=data.modes
        )

    # --- resonant minus root: u_- = C u_+ log x + sum a^-_theta x^{lambda_- + theta}
    plus = expand(data, "plus", seed, max(cutoff - gap.real, 0.0))
    gap_r = gap.real

    # I(x^s log x) = p(s) x^s log x + p'(s) x^s for the quadratic indicial part,
    # so the log partner forces p'(lambda_+ + phi) C a^+_phi at grade gap + phi.
    def log_forcing(phi_minus: float) -> np.ndarray:
        shift = phi_minus - gap_r
        a = plus.coefficient(shift) if shift > -_GRADE_TOL else None
        if a is None:
            return np.zeros(data.dim, dtype=complex)
        return complex(ind.p_prime(lam + phi_minus)) * a

    solved = {}
    C: Optional[complex] = None
    if double_root:
        C = 1.0 + 0.0j
        solved[0.0] = np.zeros(data.dim, dtype=complex)
        start = [g for g in grades if g > _GRADE_TOL]
        for phi in start:
            rhs = accumulated(solved, phi) + C * log_forcing(phi)
            pval = ind.p(lam + phi)
            solved[phi] = -rhs / pval
    else:
        for phi in grades:
            if phi == 0.0:
                solved[0.0] = seed.copy()
                continue
            if abs(phi - gap_r) <= _GRADE_TOL:
                # resonant grade: p vanishes; the log constant absorbs the forcing
                rhs = accumulated(solved, phi)
                force = complex(ind.p_prime(ind.lambda_plus)) * plus.coefficient(0.0)
                # solve C * force + rhs = 0 in the least-squares sense and
                # demand consistency (exact for decoupled single-mode data)
                denom = np.vdot(force, force)
                C = 0.0 + 0.0j if abs(denom) == 0.0 else complex(-np.vdot(force, rhs) / denom)
                residual = C * force + rhs
                if np.max(np.abs(residual)) > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
                    raise RuntimeError(
                        "resonant forcing not proportional to the seed coefficient; "
                        "cannot absorb it into a scalar log constant"
                    )
                solved[phi] = np.zeros(data.dim, dtype=complex)
                continue
            rhs = accumulated(solved, phi)
            if C is not None:
                rhs = rhs + C * log_forcing(phi)
            pval = ind.p(lam + phi)
            if abs(pval) <= 1e-10:
                raise RuntimeError(f"unexpected second resonance at grade {phi}")
            solved[phi] = -rhs / pval
        if C is None:
            raise RuntimeError("resonant grade not reached; cutoff too small")

    terms = [(phi, 0, a) for phi, a in sorted(solved.items())
             if np.max(np.abs(a)) > 0 or phi == 0.0]
    if C is not None and abs(C) > 0:
        for phi, _, a in plus.terms:
            terms.append((gap_r + phi, 1, C * a))
    terms.sort(key=lambda t: (t[0], t[1]))
    return FrobeniusExpansion(
        lam=lam,
        terms=tuple(terms),
        order_cutoff=cutoff,
        log_constant_C=C,
        modes=data.modes,
    )


def _apply_operator_symbolically(expansion: FrobeniusExpansion, data: OperatorSeriesData):
    """Q applied to the truncated series, as a list of graded terms.

    Returns {(theta, p): coeffs} relative to x^{lambda}; grades at or below
    the cutoff cancel (they were solved for), the rest form the residual.
    """
    ind = indicial_data(data.params)
    lam = expansion.lam
    out: dict = {}

    def add(theta: float, p: int, coeffs: np.ndarray):
        for (t, q) in list(out):
            if q == p and abs(t - theta) <= _GRADE_TOL:
                out[(t, q)] = out[(t, q)] + coeffs
                return
        out[(theta, p)] = coeffs.copy()

    for theta, p, a in expansion.terms:
        s = lam + theta
        add(theta, p, complex(ind.p(s)) * a)
        if p == 1:
            add(theta, 0, complex(ind.p_prime(s)) * a)
        for step, block in data.blocks.items():
            add(theta + step, p, block @ a)
    return out


@dataclass(frozen=True)
class ResidualCertificate:
    fitted_exponent: float
    expected_exponent: float  # Re(lambda) + next lattice grade
    log_power: int
    exact_zero: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "fitted_exponent": self.fitted_exponent,
            "expected_exponent": self.expected_exponent,
            "log_power": self.log_power,
            "exact_zero": self.exact_zero,
            "passed": self.passed,
        }


def residual_certificate(
    expansion: FrobeniusExpansion,
    data: OperatorSeriesData,
    x_grid: Iterable[float],
) -> ResidualCertificate:
    """Certify the expansion by the decay rate of Q(truncated series).

    The operator is applied symbolically in x, solved grades cancel exactly,
    and the leftover terms are evaluated on the grid; the fitted slope of
    log ||residual|| against log x must reach Re(lambda) + theta_next - CERTIFICATE_SLACK.
    """
    x = np.asarray(sorted(x_grid), dtype=float)
    if x.size < 3 or x.min() <= 0 or x.max() > 0.5 + 1e-12:
        raise ValueError("x_grid must contain at least 3 points inside (0, 0.5]")

    applied = _apply_operator_symbolically(expansion, data)
    cutoff = expansion.order_cutoff
    leftover = {}
    scale = max((float(np.max(np.abs(a))) for a in applied.values()), default=0.0)
    for (theta, p), coeffs in applied.items():
        mag = float(np.max(np.abs(coeffs)))
        if theta <= cutoff + _GRADE_TOL:
            if mag > 1e-9 * max(scale, 1.0):
                raise CertificateError(
                    f"solved grade {theta} failed to cancel (|coeff| = {mag:g})",
                    {"theta": theta, "log_power": p, "magnitude": mag},
                )
            continue
        if mag > 0.0:
            leftover[(theta, p)] = coeffs

    lam_re = expansion.lam.real
    if not leftover:
        next_theta = cutoff
        return ResidualCertificate(
            fitted_exponent=math.inf,
            expected_exponent=lam_re + next_theta,
            log_power=0,
            exact_zero=True,
            passed=True,
        )

    theta_next = min(t for (t, _) in leftover)
    log_power = max(p for (t, p) in leftover if abs(t - theta_next) <= _GRADE_TOL)

    lx = np.log(x)
    vals = np.zeros(x.size, dtype=float)
    res = np.zeros((len(expansion.modes), x.size), dtype=complex)
    for (theta, p), coeffs in leftover.items():
        res += np.outer(coeffs, x ** (expansion.lam + theta) * lx**p)
    vals = np.linalg.norm(res, axis=0)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise CertificateError("residual vanished or overflowed on the grid",
                               {"values": vals.tolist()})

    # fit log|res| = const + e log x + log_power * log|log x|
    y = np.log(vals) - log_power * np.log(np.abs(lx))
    A = np.column_stack([np.ones_like(lx), lx])
    coef, rss, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    if np.max(np.abs(fit - y)) > 0.2:
        raise CertificateError(
            "residual is not a clean power law on the grid",
            {"x": x.tolist(), "values": vals.tolist()},
        )
    fitted = float(coef[1])
    expected = lam_re + theta_next
    return ResidualCertificate(
        fitted_exponent=fitted,
        expected_exponent=expected,
        log_power=log_power,
        exact_zero=False,
        passed=fitted >= expected - CERTIFICATE_SLACK,
    )
