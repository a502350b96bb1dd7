"""Self-adjoint extension machinery: boundary jets, asymmetry forms, unitary gluing.

Maximal-domain elements mod the minimal domain are encoded per Fourier mode k
by four complex numbers (a^r_+, a^r_-, a^l_+, a^l_-): the coefficients of the
leading x^{lambda_pm} branches on the right/left of the singular set.  The
asymmetry form in those coordinates is

  mu < 0:        omega(u, v) = i sqrt(|mu|) sum_k (<a_+, b_+> - <a_-, b_->),
  0 <= mu < 4:   omega(u, v) = sum_k (<a_-, b_+> - <a_+, b_->)
                 = (i/2) sum_k (<A_1, B_1> - <A_2, B_2>),
                 A_(1,2) = a_+ +- i a_-,

where the 2-vectors stack right/left components and the inner product is
conjugate-linear in the first slot.  (The source's derivation carries an
orientation-dependent overall sign; we fix the sign by the stated final
formulas, and the Green-identity check below orients its boundary integral
accordingly: normal pointing toward the singular set.)

Extensions are graphs of 2x2 unitaries: a_{+,k} = U a_{-,k} for mu < 0 and
A_{2,k} = U A_{1,k} for mu in (0,4).  Five named families (Friedrichs,
one-sided Robin pairs, transmission, Cayley of a Hermitian matrix) give the
catalogued unitaries.  For mu in (0,4) the mode coefficients live in the
eigenbasis of the h-weighted metric on the singular set; on the flat model
h = sqrt(mu) is constant and the basis is plain Fourier, so a plain-basis
mode sum relates to the weighted one by the overall factor h (used by the
Green check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .frobenius import FrobeniusExpansion, expand, flat_model_series_data
from .params import GrushinParams, complex_to_json, discriminant

__all__ = [
    "BoundaryJet",
    "ExtensionSpec",
    "UnitaryConstraint",
    "CheckFailedError",
    "asymmetry_form",
    "lagrangian_from_unitary",
    "named_family",
    "maximality_witness",
    "h_function",
    "extension_hypotheses",
    "JetRealization",
    "realize_jet",
    "greens_identity_check",
]

_COLS = ("r+", "r-", "l+", "l-")
#: trapezoidal points in y of the boundary integral in greens_identity_check
GREENS_QUADRATURE_POINTS = 128


class CheckFailedError(RuntimeError):
    """A numerical cross-check did not converge; carries the evidence table."""

    def __init__(self, message: str, table=None):
        super().__init__(message)
        self.table = table


@dataclass(frozen=True)
class BoundaryJet:
    """Leading boundary coefficients per mode; columns ordered (r+, r-, l+, l-)."""

    modes: Tuple[Tuple[int, ...], ...]
    coeffs: np.ndarray  # (n_modes, 4) complex

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (len(self.modes), 4):
            raise ValueError(f"coeffs must have shape ({len(self.modes)}, 4)")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, modes) -> "BoundaryJet":
        modes = tuple(tuple(k) if not isinstance(k, int) else (k,) for k in modes)
        return cls(modes, np.zeros((len(modes), 4), dtype=complex))

    @classmethod
    def single_mode(cls, mode, r_plus=0.0, r_minus=0.0, l_plus=0.0, l_minus=0.0) -> "BoundaryJet":
        jet = cls.zero([mode])
        jet.coeffs[0] = [r_plus, r_minus, l_plus, l_minus]
        return jet

    @property
    def a_plus(self) -> np.ndarray:
        """(n_modes, 2): rows (a^r_+, a^l_+)."""
        return self.coeffs[:, (0, 2)]

    @property
    def a_minus(self) -> np.ndarray:
        return self.coeffs[:, (1, 3)]

    def vectors_A(self) -> Tuple[np.ndarray, np.ndarray]:
        """A_1 = a_+ + i a_-, A_2 = a_+ - i a_- (per mode 2-vectors)."""
        return self.a_plus + 1j * self.a_minus, self.a_plus - 1j * self.a_minus

    def to_json_dict(self) -> dict:
        return {
            "modes": [list(k) for k in self.modes],
            "columns": list(_COLS),
            "coeffs": [[complex_to_json(z) for z in row] for row in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BoundaryJet":
        from .params import complex_from_json

        modes = tuple(tuple(k) for k in d["modes"])
        coeffs = np.array(
            [[complex_from_json(z) for z in row] for row in d["coeffs"]], dtype=complex
        )
        return cls(modes, coeffs)


def _check_modes(u: BoundaryJet, v: BoundaryJet):
    if u.modes != v.modes:
        raise ValueError("jets must share the same mode cutoff and ordering")


def asymmetry_form(u: BoundaryJet, v: BoundaryJet, params: GrushinParams) -> complex:
    """The boundary pairing omega(u, v), sesquilinear (conjugate in u).

    Regime is read off mu; mu >= 4 (or the double root mu = 0 treated under
    mu_pos with vanishing sqrt factor) has no pairing and raises.
    """
    _check_modes(u, v)
    mu = discriminant(params.alpha, params.n, params.c)
    if mu < 0:
        s = np.sum(np.conj(u.a_plus) * v.a_plus) - np.sum(np.conj(u.a_minus) * v.a_minus)
        return 1j * math.sqrt(-mu) * complex(s)
    if mu < 4:
        return complex(
            np.sum(np.conj(u.a_minus) * v.a_plus) - np.sum(np.conj(u.a_plus) * v.a_minus)
        )
    raise ValueError(f"mu = {mu} >= 4: essentially self-adjoint regime, no asymmetry form")


@dataclass(frozen=True)
class ExtensionSpec:
    """A self-adjoint extension given by a 2x2 unitary gluing matrix."""

    regime: str  # "mu_neg" | "mu_pos"
    U: np.ndarray
    origin: Optional[dict] = None

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        if U.shape != (2, 2):
            raise ValueError("U must be 2x2")
        if np.max(np.abs(U.conj().T @ U - np.eye(2))) > 1e-12:
            raise ValueError("U must be unitary to 1e-12")
        if self.regime not in ("mu_neg", "mu_pos"):
            raise ValueError(f"unknown regime {self.regime}")
        object.__setattr__(self, "U", U)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "regime": self.regime,
            "U": [[complex_to_json(z) for z in row] for row in self.U],
            "origin": self.origin,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExtensionSpec":
        from .params import complex_from_json

        U = np.array([[complex_from_json(z) for z in row] for row in d["U"]], dtype=complex)
        return cls(regime=d["regime"], U=U, origin=d.get("origin"))


@dataclass(frozen=True)
class UnitaryConstraint:
    """Per-mode linear constraint cut out by an ExtensionSpec."""

    spec: ExtensionSpec

    def residuals(self, jet: BoundaryJet) -> np.ndarray:
        """(n_modes, 2) residual of the gluing relation at each mode."""
        if self.spec.regime == "mu_neg":
            return jet.a_plus - jet.a_minus @ self.spec.U.T
        A1, A2 = jet.vectors_A()
        return A2 - A1 @ self.spec.U.T

    def satisfied(self, jet: BoundaryJet, tol: float = 1e-10) -> bool:
        scale = max(1.0, float(np.max(np.abs(jet.coeffs))))
        return float(np.max(np.abs(self.residuals(jet)))) <= tol * scale

    def random_jet(self, modes, rng) -> BoundaryJet:
        """Random constraint-satisfying jet (uniform complex Gaussians on the graph)."""
        jet = BoundaryJet.zero(modes)
        m = len(jet.modes)
        z = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
        if self.spec.regime == "mu_neg":
            a_minus = z
            a_plus = a_minus @ self.spec.U.T
        else:
            A1 = z
            A2 = A1 @ self.spec.U.T
            a_plus = (A1 + A2) / 2.0
            a_minus = (A1 - A2) / 2.0j
        jet.coeffs[:, 0] = a_plus[:, 0]
        jet.coeffs[:, 2] = a_plus[:, 1]
        jet.coeffs[:, 1] = a_minus[:, 0]
        jet.coeffs[:, 3] = a_minus[:, 1]
        return jet


def lagrangian_from_unitary(spec: ExtensionSpec) -> UnitaryConstraint:
    """The per-mode constraint a_+ = U a_- (mu_neg) or A_2 = U A_1 (mu_pos)."""
    return UnitaryConstraint(spec)


def maximality_witness(spec: ExtensionSpec, v: BoundaryJet) -> BoundaryJet:
    """A constraint-satisfying u, supported on one violating mode, with omega(u, v) != 0.

    Follows the constructive step of the gluing proofs: for mu_neg take
    a_- = U^dagger b_+ - b_-, a_+ = U a_-; for mu_pos take A_1 = B_1 -
    U^dagger B_2, A_2 = U A_1.  Raises if v satisfies the constraint.
    """
    constraint = lagrangian_from_unitary(spec)
    res = constraint.residuals(v)
    norms = np.linalg.norm(res, axis=1)
    k = int(np.argmax(norms))
    if norms[k] <= 1e-12 * max(1.0, float(np.max(np.abs(v.coeffs)))):
        raise ValueError("jet satisfies the constraint; no witness exists")
    u = BoundaryJet.zero(v.modes)
    Ud = spec.U.conj().T
    if spec.regime == "mu_neg":
        b_plus = v.a_plus[k]
        b_minus = v.a_minus[k]
        a_minus = Ud @ b_plus - b_minus
        a_plus = spec.U @ a_minus
    else:
        B1, B2 = v.vectors_A()
        A1 = B1[k] - Ud @ B2[k]
        A2 = spec.U @ A1
        a_plus = (A1 + A2) / 2.0
        a_minus = (A1 - A2) / 2.0j
    u.coeffs[k, 0], u.coeffs[k, 2] = a_plus[0], a_plus[1]
    u.coeffs[k, 1], u.coeffs[k, 3] = a_minus[0], a_minus[1]
    return u


def _cayley(gamma: float) -> complex:
    return (gamma - 1j) / (gamma + 1j)


def named_family(kind: int, gamma: Optional[float] = None, b: Optional[complex] = None,
                 Gamma: Optional[np.ndarray] = None, regime: str = "mu_pos") -> ExtensionSpec:
    """The five catalogued extension families and their gluing unitaries.

    1: Friedrichs analogue, U = Id               (a^r_- = a^l_- = 0)
    2: right Robin, U = diag((g-i)/(g+i), 1)     (a^l_- = 0, a^r_+ = g a^r_-)
    3: left Robin,  U = diag(1, (g-i)/(g+i))     (a^l_+ = g a^l_-, a^r_- = 0)
    4: transmission (gamma real, b complex)      (a^r_- = b a^l_-,
                                                  a^l_+ + conj(b) a^r_+ = g a^l_-)
    5: Cayley of Hermitian Gamma, U = (Gamma - i)(Gamma + i)^{-1}
                                                 (a_+ = Gamma a_-)
    """
    if kind == 1:
        U = np.eye(2, dtype=complex)
        origin = {"family": 1}
    elif kind == 2:
        if gamma is None:
            raise ValueError("family 2 needs a real gamma")
        U = np.diag([_cayley(float(gamma)), 1.0 + 0.0j])
        origin = {"family": 2, "gamma": float(gamma)}
    elif kind == 3:
        if gamma is None:
            raise ValueError("family 3 needs a real gamma")
        U = np.diag([1.0 + 0.0j, _cayley(float(gamma))])
        origin = {"family": 3, "gamma": float(gamma)}
    elif kind == 4:
        if gamma is None or b is None:
            raise ValueError("family 4 needs real gamma and complex b")
        g = float(gamma)
        b = complex(b)
        denom = 1.0 + abs(b) ** 2 - 1j * g
        U = (
            np.array(
                [
                    [1.0 - abs(b) ** 2 - 1j * g, -2.0 * b],
                    [-2.0 * np.conj(b), -1.0 + abs(b) ** 2 - 1j * g],
                ],
                dtype=complex,
            )
            / denom
        )
        origin = {"family": 4, "gamma": g, "b": complex_to_json(b)}
    elif kind == 5:
        if Gamma is None:
            raise ValueError("family 5 needs a Hermitian 2x2 Gamma")
        G = np.asarray(Gamma, dtype=complex)
        if G.shape != (2, 2) or np.max(np.abs(G - G.conj().T)) > 1e-12:
            raise ValueError("Gamma must be Hermitian 2x2")
        U = (G - 1j * np.eye(2)) @ np.linalg.inv(G + 1j * np.eye(2))
        origin = {
            "family": 5,
            "Gamma": [[complex_to_json(z) for z in row] for row in G],
        }
    else:
        raise ValueError(f"family kind must be 1..5, got {kind}")
    return ExtensionSpec(regime=regime, U=U, origin=origin)


def family_relations_residual(kind: int, jet: BoundaryJet, gamma=None, b=None, Gamma=None) -> float:
    """Max residual of the catalogued boundary relations (for equivalence tests)."""
    rp, rm, lp, lm = (jet.coeffs[:, i] for i in range(4))
    if kind == 1:
        rows = [rm, lm]
    elif kind == 2:
        rows = [lm, rp - gamma * rm]
    elif kind == 3:
        rows = [lp - gamma * lm, rm]
    elif kind == 4:
        rows = [rm - b * lm, lp + np.conj(b) * rp - gamma * lm]
    elif kind == 5:
        G = np.asarray(Gamma, dtype=complex)
        a_plus = jet.a_plus.T  # (2, n_modes)
        a_minus = jet.a_minus.T
        rows = list(a_plus - G @ a_minus)
    else:
        raise ValueError(kind)
    return float(max(np.max(np.abs(r)) for r in rows))


def extension_hypotheses(params: GrushinParams) -> dict:
    """The sufficient conditions of the mu_pos gluing theorem, reported separately.

    The roles of "mu != 2" versus lattice resonance are not conflated: both
    flags are exposed and none is enforced elsewhere.
    """
    from .params import resonance

    mu = discriminant(params.alpha, params.n, params.c)
    res, wit = resonance(params)
    return {
        "mu": mu,
        "alpha_nonnegative": params.alpha >= 0,
        "mu_in_0_4": 0.0 < mu < 4.0,
        "mu_ne_2": abs(mu - 2.0) > 1e-12,
        "resonant_gap": res,
        "resonance_witness": None if wit is None else list(wit),
    }


def h_function(params: GrushinParams) -> float:
    """The boundary weight h entering the mu_pos pairing measure.

    On the flat model the divergence of d/dx vanishes and x^2 S is exactly
    constant, so h = sqrt(mu), constant on the singular set.
    """
    mu = discriminant(params.alpha, params.n, params.c)
    if not (0.0 < mu < 4.0):
        raise ValueError(f"h is defined for mu in (0, 4); got mu = {mu}")
    return math.sqrt(mu)


# ---------------------------------------------------------------------------
# Green-identity quadrature check


@dataclass(frozen=True)
class JetRealization:
    """A jet realized as actual kernel-element series on both sides of Z.

    Right side: u(x, y) = sum_k [a^r_-(k) u_-^k(x) + a^r_+(k) u_+^k(x)] e^{iky}/sqrt(2 pi);
    left side likewise in the reflected variable t = -x > 0.  Flat torus,
    n = 1 only (the boundary integral is done by honest quadrature in y).
    """

    params: GrushinParams
    jet: BoundaryJet
    plus_series: Dict[int, FrobeniusExpansion]
    minus_series: Dict[int, FrobeniusExpansion]

    def _side_profile(self, x: float, side: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-mode (value, derivative) at distance x from Z on the given side."""
        cols = (0, 1) if side == "r" else (2, 3)
        vals = np.zeros(len(self.jet.modes), dtype=complex)
        ders = np.zeros(len(self.jet.modes), dtype=complex)
        for i, mode in enumerate(self.jet.modes):
            k = mode[0]
            a_p = self.jet.coeffs[i, cols[0]]
            a_m = self.jet.coeffs[i, cols[1]]
            up = self.plus_series[abs(k)]
            um = self.minus_series[abs(k)]
            xarr = np.array([x])
            # single-mode series: profile row of the seeded mode
            j = up.modes.index((abs(k),))
            vals[i] = a_m * um.profiles(xarr)[j, 0] + a_p * up.profiles(xarr)[j, 0]
            ders[i] = a_m * um.derivative_profiles(xarr)[j, 0] + a_p * up.derivative_profiles(xarr)[j, 0]
        return vals, ders

    def boundary_field(self, x: float, y: np.ndarray, side: str):
        """(u, du/dn) sampled on the y-grid; n is the distance coordinate."""
        vals, ders = self._side_profile(x, side)
        phases = np.array(
            [np.exp(1j * mode[0] * y) / math.sqrt(2.0 * math.pi) for mode in self.jet.modes]
        )
        return vals @ phases, ders @ phases


def realize_jet(params: GrushinParams, jet: BoundaryJet, cutoff: float = 10.0) -> JetRealization:
    """Attach truncated kernel expansions to a jet (flat model, n = 1)."""
    if params.n != 1:
        raise ValueError("jet realization implemented for n = 1 (flat cylinder model)")
    ks = sorted({abs(mode[0]) for mode in jet.modes})
    plus_series, minus_series = {}, {}
    for k in ks:
        data = flat_model_series_data(params, K=max(k, 1))
        seed = data.unit_seed((k,))
        plus_series[k] = expand(data, "plus", seed, cutoff)
        minus_series[k] = expand(data, "minus", seed, cutoff)
    return JetRealization(params=params, jet=jet, plus_series=plus_series, minus_series=minus_series)


def greens_identity_check(
    params: GrushinParams,
    u: JetRealization,
    v: JetRealization,
    eps_sequence: Sequence[float],
) -> Tuple[complex, complex, float]:
    """Evaluate the boundary pairing at x = +-eps and extrapolate to eps -> 0.

    The surface integral (with the e^{-alpha n} measure weight and the normal
    oriented toward the singular set) is computed by trapezoidal quadrature on
    the torus, exact for trigonometric polynomials; the eps sequence is then
    Richardson-extrapolated against the lattice exponents.  Returns (numeric,
    closed form, relative error), the closed form being the mode formula --
    scaled by h = sqrt(mu) in the mu_pos regime, where plain Fourier
    coefficients relate to the h-weighted basis by that factor.
    """
    _check_modes(u.jet, v.jet)
    eps = np.asarray(sorted(eps_sequence, reverse=True), dtype=float)
    if eps.size < 3:
        raise ValueError("need at least 3 epsilon values")
    an = params.alpha * params.n
    y = np.linspace(0.0, 2.0 * math.pi, GREENS_QUADRATURE_POINTS, endpoint=False)
    mu = discriminant(params.alpha, params.n, params.c)

    values = []
    for e in eps:
        total = 0.0 + 0.0j
        for side in ("r", "l"):
            fu, dfu = u.boundary_field(e, y, side)
            fv, dfv = v.boundary_field(e, y, side)
            integrand = np.conj(fu) * dfv - fv * np.conj(dfu)
            total += np.sum(integrand) * (2.0 * math.pi / GREENS_QUADRATURE_POINTS) * e ** (-an)
        values.append(complex(total))
    values = np.asarray(values)

    # Richardson: fit B(eps) = B0 + c1 eps^{g} + c2 eps^{2g} with g the first
    # positive lattice gap (truncation drift of the series Wronskian)
    g = min(2.0 * (1.0 + params.alpha), 2.0)
    A = np.column_stack([np.ones_like(eps), eps**g, eps ** (2 * g)])
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    numeric = complex(coef[0])
    drift = float(np.max(np.abs(A @ coef - values)))
    if drift > 1e-6 * max(1.0, float(np.max(np.abs(values)))):
        raise CheckFailedError(
            "epsilon extrapolation did not converge",
            table=[(float(e), complex(val)) for e, val in zip(eps, values)],
        )

    closed = asymmetry_form(u.jet, v.jet, params)
    if 0 <= mu < 4:
        closed = closed * h_function(params)
    scale = max(abs(closed), abs(numeric), 1e-300)
    rel = abs(numeric - closed) / scale
    return numeric, closed, rel
