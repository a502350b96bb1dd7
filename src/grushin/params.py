"""Grushin parameter triple, indicial polynomial and the self-adjointness classifier.

The whole toolkit is driven by the triple (alpha, n, c): order of the metric
singularity, dimension of the singular set, and curvature coupling.  The
indicial polynomial of the weighted operator x^2(Delta - c*S) is the monic
quadratic

    p(lambda) = lambda^2 - (1 + alpha*n) * lambda + c*alpha*n*(alpha*n + alpha + 2)

whose discriminant ``mu`` decides everything: mu > 4 means essential
self-adjointness, mu < 4 means infinite deficiency indices, mu = 4 is the
critical case the classifier refuses to decide.

Sign convention: the source material states the discriminant once with a
``+4c`` cross term and derives the polynomial with the opposite sign; we use

    mu = (1 + alpha*n)^2 - 4*c*alpha*n*(alpha*n + alpha + 2)

which is the variant forced by the limit-circle oracle nu^2 = mu/4 (see the
``deficiency`` module) and by the known absence of quantum confinement for
alpha = n = 1, c > 0.

The roots are resonant when their gap sqrt(mu) lies on the lattice
Theta = {(1+alpha) i + j : i, j in N0}, within tol = 1e-9 * max(1, sqrt(mu)).
``classify_grid`` decides this in closed form, elementwise over broadcast
(alpha, n, c) arrays.  For each j = floor(sqrt(mu) + tol), ..., 0 the one
candidate is the smallest i >= 0 with (1+alpha) i + j >= sqrt(mu) - tol,
i = max(0, ceil((sqrt(mu) - tol - j)/(1+alpha))); when 1+alpha > 2 tol this
is the i nearest (sqrt(mu) - j)/(1+alpha).  The smallest candidate value,
ties to the smallest i, is the lattice element ``ThetaLattice.witness_for``
inspects: the point is resonant when it lies within tol of sqrt(mu), and its
(i, j) is the witness.  A point costs O(sqrt(mu)) steps whatever alpha is,
where enumerating Theta up to sqrt(mu) takes O(mu/(1+alpha)).  The one
divergence from the enumerated lattice is where two lattice values closer
than THETA_MERGE_TOL straddle sqrt(mu) - tol, which ``theta_lattice``
merges into one element.  ``discriminant``, ``indicial_data``, ``classify``
and ``resonance`` are the one-point views of this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import numpy as np

__all__ = [
    "GrushinParams",
    "IndicialData",
    "ThetaLattice",
    "SelfAdjointnessVerdict",
    "ClassifiedGrid",
    "Verdict",
    "Regime",
    "discriminant",
    "indicial_data",
    "classify",
    "classify_grid",
    "theta_lattice",
    "resonance",
    "forbidden_c",
    "complex_to_json",
    "complex_from_json",
]

#: absolute tolerance for merging coincident Theta-lattice values
THETA_MERGE_TOL = 1e-12

#: relative tolerance around mu = 4 that triggers the Critical verdict
MU4_TOL = 1e-9

#: relative tolerance of the resonance test |(1+alpha) i + j - sqrt(mu)| <= tol * max(1, sqrt(mu))
RESONANCE_TOL = 1e-9

#: j values per vectorized pass of the resonance test
J_BLOCK = 32


def complex_to_json(z: complex) -> dict:
    """Stable JSON encoding of a complex number."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(d: dict) -> complex:
    return complex(d["re"], d["im"])


@dataclass(frozen=True)
class GrushinParams:
    """The parameter triple (alpha, n, c).

    alpha > -1 is the order of the metric singularity, n >= 1 the dimension
    of the singular set, c the coupling constant of the scalar-curvature
    potential in Delta - c*S.  alpha and c must be finite.
    """

    alpha: float
    n: int
    c: float

    def __post_init__(self):
        if not (self.alpha > -1 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > -1, got {self.alpha}")
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def alpha_n(self) -> float:
        return self.alpha * self.n

    def to_json_dict(self) -> dict:
        return {"alpha": float(self.alpha), "n": self.n, "c": float(self.c)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GrushinParams":
        return cls(alpha=d["alpha"], n=d["n"], c=d["c"])


def discriminant(alpha, n, c):
    """Discriminant mu of the indicial polynomial, elementwise over arrays.

    Arrays are squared by ``pow``, as Python's ``**`` squares floats: numpy's
    ``**`` squares arrays by x*x, which can differ in the last bit.
    """
    an = alpha * n
    square = np.float_power(1.0 + an, 2) if isinstance(an, np.ndarray) else (1.0 + an) ** 2
    return square - 4.0 * c * an * (an + alpha + 2.0)


@dataclass(frozen=True)
class IndicialData:
    """Coefficients, discriminant and ordered roots of the indicial polynomial."""

    p_coeffs: tuple  # (1, -(1+alpha n), +c alpha n (alpha n + alpha + 2)), monic
    mu: float
    lambda_plus: complex
    lambda_minus: complex

    def p(self, lam: complex) -> complex:
        """Evaluate the indicial polynomial."""
        a2, a1, a0 = self.p_coeffs
        return a2 * lam * lam + a1 * lam + a0

    def p_prime(self, lam: complex) -> complex:
        a2, a1, _ = self.p_coeffs
        return 2.0 * a2 * lam + a1

    @property
    def sqrt_mu(self) -> complex:
        """lambda_plus - lambda_minus; i*sqrt(|mu|) when mu < 0."""
        return self.lambda_plus - self.lambda_minus

    def to_json_dict(self) -> dict:
        return {
            "p_coeffs": list(self.p_coeffs),
            "mu": self.mu,
            "lambda_plus": complex_to_json(self.lambda_plus),
            "lambda_minus": complex_to_json(self.lambda_minus),
        }


def indicial_data(params: GrushinParams) -> IndicialData:
    """Closed-form indicial data: no iteration, exact root relations.

    Roots are lambda_pm = ((1 + alpha n) +- sqrt(mu))/2.  For mu < 0 the
    roots are complex conjugates and lambda_plus is the one with positive
    imaginary part (fixed convention).
    """
    an = params.alpha_n
    b = 1.0 + an
    c0 = params.c * an * (an + params.alpha + 2.0)
    mu = discriminant(params.alpha, params.n, params.c)
    lam_plus, lam_minus = _roots(mu, b)
    return IndicialData(
        p_coeffs=(1.0, -b, c0), mu=mu, lambda_plus=complex(lam_plus), lambda_minus=complex(lam_minus)
    )


def _roots(mu, b):
    """lambda_pm = (b +- sqrt(mu))/2, elementwise; lambda_plus has Im > 0 where mu < 0."""
    root = np.sqrt(np.asarray(mu, dtype=complex))
    return (b + root) / 2.0, (b - root) / 2.0


@dataclass(frozen=True)
class ThetaLattice:
    """The exponent lattice Theta = {(1+alpha) i + j >= 0 : i, j in N0} up to a cutoff.

    Elements are sorted strictly increasing; each carries its lexicographically
    minimal (i, j) witness.  Values closer than THETA_MERGE_TOL are merged
    (exact rational arithmetic is used when alpha is an int or Fraction, so
    rational lattices never suffer false merges).
    """

    alpha: float
    cutoff: float
    elements: tuple
    witnesses: tuple

    def __contains__(self, value: float) -> bool:
        return self.index_of(value) is not None

    def index_of(self, value: float, tol: float = 1e-9) -> Optional[int]:
        """Index of the lattice element matching ``value`` within ``tol``."""
        import bisect

        i = bisect.bisect_left(self.elements, value - tol)
        if i < len(self.elements) and abs(self.elements[i] - value) <= tol:
            return i
        return None

    def witness_for(self, value: float, tol: float = 1e-9):
        i = self.index_of(value, tol)
        return None if i is None else self.witnesses[i]

    def to_json_dict(self) -> dict:
        return {
            "alpha": float(self.alpha),
            "cutoff": float(self.cutoff),
            "elements": [float(t) for t in self.elements],
            "witnesses": [list(w) for w in self.witnesses],
        }


def theta_lattice(alpha: Union[float, Fraction], cutoff: float) -> ThetaLattice:
    """Enumerate the Theta lattice exactly up to ``cutoff``.

    i ranges over 0..ceil(cutoff/(1+alpha)), j over 0..floor(cutoff).
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    exact = isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool)
    step = (Fraction(alpha) + 1) if exact else (float(alpha) + 1.0)
    if not step > 0:
        raise ValueError(f"alpha must be > -1, got {alpha}")

    cut = Fraction(cutoff).limit_denominator(10**12) if exact else float(cutoff)
    entries = []  # (value, i, j)
    i = 0
    while True:
        base = step * i
        if base > cut + (0 if exact else THETA_MERGE_TOL):
            break
        j = 0
        while True:
            val = base + j
            if val > cut + (0 if exact else THETA_MERGE_TOL):
                break
            entries.append((val, i, j))
            j += 1
        i += 1

    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    elements, witnesses = [], []
    for val, i, j in entries:
        fval = float(val)
        if elements and (
            (exact and val == entries_last) or (not exact and abs(fval - elements[-1]) <= THETA_MERGE_TOL)
        ):
            continue  # coincident value, keep the earlier (lex-minimal) witness
        if exact:
            entries_last = val
        elements.append(fval)
        witnesses.append((i, j))
    return ThetaLattice(alpha=float(step) - 1.0, cutoff=float(cut), elements=tuple(elements), witnesses=tuple(witnesses))


class Verdict(str, Enum):
    ESSENTIALLY_SELF_ADJOINT = "EssentiallySelfAdjoint"
    NOT_ESA_INFINITE_DEFICIENCY = "NotESA_InfiniteDeficiency"
    CRITICAL_MU4_INDETERMINATE = "Critical_Mu4_Indeterminate"


class Regime(str, Enum):
    MU_NEG = "mu_neg"
    MU_IN_0_4 = "mu_in_0_4"  # closed at 0: 0 <= mu < 4
    MU_EQ_4 = "mu_eq_4"
    MU_GT_4 = "mu_gt_4"


@dataclass(frozen=True)
class SelfAdjointnessVerdict:
    verdict: Verdict
    mu: float
    regime: Regime
    resonant: bool

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "mu": self.mu,
            "regime": self.regime.value,
            "resonant": self.resonant,
        }


#: the regimes in the order of ``ClassifiedGrid.regime``'s codes, and the verdict of each
REGIMES = (Regime.MU_NEG, Regime.MU_IN_0_4, Regime.MU_EQ_4, Regime.MU_GT_4)
VERDICTS = (
    Verdict.NOT_ESA_INFINITE_DEFICIENCY,
    Verdict.NOT_ESA_INFINITE_DEFICIENCY,
    Verdict.CRITICAL_MU4_INDETERMINATE,
    Verdict.ESSENTIALLY_SELF_ADJOINT,
)


@dataclass(frozen=True)
class ClassifiedGrid:
    """The classifier's answer at every point of a broadcast (alpha, n, c) grid.

    ``regime`` holds indices into REGIMES (and VERDICTS); ``witness`` has a
    trailing axis (i, j), which is (-1, -1) where ``resonant`` is False.
    """

    mu: np.ndarray
    regime: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    resonant: np.ndarray
    witness: np.ndarray


def classify_grid(alpha, n, c) -> ClassifiedGrid:
    """Classify every point of the broadcast (alpha, n, c) arrays in one pass.

    mu > 4: essentially self-adjoint; mu < 4: not (infinite deficiency
    indices); |mu - 4| below MU4_TOL * max(1, |mu|): critical, reported as
    indeterminate because the classification is discontinuous there and the
    theory declines to decide it.  Resonance is decided in closed form (see
    the module docstring).  Rejects, as GrushinParams does, any alpha <= -1
    and any n that is not a positive integer, and also non-finite values,
    which have no classification.
    """
    alpha, n, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, n, c)))
    for values, ok, message in (
        (alpha, np.isfinite(alpha) & (alpha > -1.0), "alpha must be a finite number > -1"),
        (n, np.isfinite(n) & (n >= 1.0) & (n == np.floor(n)), "n must be a positive integer"),
        (c, np.isfinite(c), "c must be finite"),
    ):
        if not ok.all():
            raise ValueError(f"{message}, got {values[~ok][0]}")
    mu = discriminant(alpha, n, c)
    if not np.isfinite(mu).all():
        raise ValueError("mu overflows on this grid")
    critical = np.abs(mu - 4.0) < MU4_TOL * np.maximum(1.0, np.abs(mu))
    regime = np.where(critical, 2, (mu >= 0.0) + 2 * (mu > 4.0))
    lam_plus, lam_minus = _roots(mu, 1.0 + alpha * n)
    resonant, witness = _resonance(mu, alpha)
    return ClassifiedGrid(mu, regime, lam_plus, lam_minus, resonant, witness)


def _resonance(mu: np.ndarray, alpha: np.ndarray):
    """Resonance flags and witnesses over arrays, by the closed form of the module docstring.

    The j values are taken in blocks of J_BLOCK, largest j first within a
    block; each block is one vectorized pass over the points whose
    floor(sqrt(mu) + tol) reaches it, so a point costs O(sqrt(mu) + J_BLOCK)
    and memory stays O(points * J_BLOCK).
    """
    gap = np.sqrt(np.maximum(mu.ravel(), 0.0))
    tol = RESONANCE_TOL * np.maximum(1.0, gap)
    top = np.floor(gap + tol)
    lo, step = gap - tol, 1.0 + alpha.ravel()
    best, wi, wj = np.full(gap.size, np.inf), np.zeros(gap.size), np.zeros(gap.size)
    end = int(top.max(initial=-1.0)) + 1
    for first in range(0, end, J_BLOCK):
        at = slice(None) if first == 0 else np.flatnonzero(top >= first)
        j = np.arange(min(first + J_BLOCK, end) - 1, first - 1, -1.0)
        s, low = step[at, None], lo[at, None]
        # the smallest i whose value, rounded as theta_lattice rounds it, is >= sqrt(mu) - tol;
        # a j above floor(sqrt(mu) + tol) gives a value beyond sqrt(mu) + tol, which never
        # undercuts a hit, so it needs no mask
        i = np.maximum(np.ceil((low - j) / s) - 1.0, 0.0)
        for _ in range(2):  # the rounded ceiling can be one off either way
            i += s * i + j < low
        val = s * i + j
        col = np.argmin(val, axis=1)  # the first minimum: the largest j, so the smallest i
        rows = np.arange(col.size)
        val = val[rows, col]
        better = val <= best[at]  # a tie goes to the later block's larger j
        best[at] = np.where(better, val, best[at])
        wi[at] = np.where(better, i[rows, col], wi[at])
        wj[at] = np.where(better, j[col], wj[at])
    found = (mu.ravel() >= 0.0) & (np.abs(best - gap) <= tol)
    witness = np.stack([np.where(found, wi, -1.0), np.where(found, wj, -1.0)], axis=-1)
    return found.reshape(mu.shape), witness.astype(np.int64).reshape(mu.shape + (2,))


def classify(params: GrushinParams) -> SelfAdjointnessVerdict:
    """Classify essential self-adjointness of Delta - c*S: one point of ``classify_grid``."""
    g = classify_grid(params.alpha, params.n, params.c)
    code = int(g.regime)
    return SelfAdjointnessVerdict(VERDICTS[code], float(g.mu), REGIMES[code], bool(g.resonant))


def resonance(params: GrushinParams):
    """Whether the indicial roots are separated by a Theta-lattice element.

    Returns (flag, witness): witness is the (i, j) of the smallest lattice
    value within tolerance of sqrt(mu), the smallest i among equal values.
    For mu < 0 the gap is imaginary and the answer is False.  One point of
    ``classify_grid``.
    """
    g = classify_grid(params.alpha, params.n, params.c)
    return (True, tuple(g.witness.tolist())) if g.resonant else (False, None)


def forbidden_c(alpha: float, n: int) -> float:
    """The unique coupling c0 with mu(alpha, n, c0) = 4 (no left parametrix there).

        c0 = (-3 + 2 alpha n + n^2 alpha^2) / (4 n alpha (2 + alpha + alpha n))

    Undefined at alpha = 0, where the curvature coupling drops out of mu.
    """
    if not alpha > -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if alpha == 0.0:
        raise ValueError("c0 is singular at alpha = 0: mu does not depend on c there")
    an = alpha * n
    denom = 4.0 * n * alpha * (2.0 + alpha + an)
    if denom == 0.0:
        raise ValueError(f"degenerate denominator at alpha={alpha}, n={n}")
    return (-3.0 + 2.0 * an + an * an) / denom
