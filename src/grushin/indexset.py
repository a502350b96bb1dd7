"""Polyhomogeneous index sets and the b-map bookkeeping algebra.

An index set is a discrete subset of C x N0 whose real parts tend to +inf,
recording exponents and log powers of polyhomogeneous expansions at a
boundary face.  Infinite sets are carried symbolically by generators
(base point + a scaled N0 or Theta step lattice); operations stay exact on
the closed generator algebra (shift, scaling, Minkowski sums of compatible
lattices, unions) and otherwise fall back to truncated enumeration with the
truncation height recorded on the result.

The b-map laws implemented here: extended union E u- F = E u F u
{(s, p+q+1) : shared s}; pullback along a lifting matrix e(i, j) as the
weighted Minkowski sum over the faces hit; pushforward as the extended union
of 1/e(i, j)-scalings (zero-weight faces are excluded, and faces mapping to
the interior must have positive min real part); the blow-down lifting matrix
with front-face column d(i); the double-space composition law; the
boundedness/compactness inequalities; and the parametrix/projector index
families built from a boundary spectrum by half-plane filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "IndexSet",
    "Generator",
    "DoubleFamily",
    "FaceIncidence",
    "TruncationRequired",
    "HypothesisViolation",
    "WeightOnSpectrumError",
    "EMPTY",
    "N0",
    "theta_generators",
    "extended_union",
    "set_sum",
    "pullback_indexset",
    "pushforward_indexset",
    "blowdown_lifting_matrix",
    "compose_indexsets",
    "boundedness_predicate",
    "parametrix_indexsets",
]

_TOL = 1e-12
#: a weight delta this close to a line Re(zeta) + 1/2 of the boundary spectrum is on it
_WEIGHT_TOL = 1e-9


class TruncationRequired(ValueError):
    """An exact generator-level result does not exist; pass a truncation height."""


class HypothesisViolation(ValueError):
    """A positivity hypothesis of a composition/pushforward theorem fails."""


class WeightOnSpectrumError(ValueError):
    """The weight delta sits on a forbidden line Re(zeta) + 1/2."""


def _close(a: complex, b: complex, tol: float = _TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _sort_key(entry: Tuple[complex, int]):
    s, p = entry
    return (s.real, s.imag, p)


@dataclass(frozen=True)
class Generator:
    """{(base + scale * L, p)} with L = N0 or Theta(alpha)."""

    base: complex
    p: int
    kind: str  # "n0" | "theta"
    scale: float = 1.0
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("n0", "theta"):
            raise ValueError(f"unknown lattice kind {self.kind}")
        if self.kind == "theta" and (self.alpha is None or not self.alpha > -1):
            raise ValueError("theta lattice needs alpha > -1")
        if not self.scale > 0:
            raise ValueError("lattice scale must be > 0")
        if self.p < 0:
            raise ValueError("log power must be >= 0")
        object.__setattr__(self, "base", complex(self.base))

    def enumerate_upto(self, height: float) -> List[Tuple[complex, int]]:
        budget = (height - self.base.real) / self.scale
        if budget < -_TOL:
            return []
        if self.kind == "n0":
            top = math.floor(budget + _TOL)
            return [(self.base + self.scale * k, self.p) for k in range(top + 1)]
        from .params import theta_lattice

        lat = theta_lattice(self.alpha, max(budget, 0.0))
        return [(self.base + self.scale * t, self.p) for t in lat.elements]

    def shifted(self, c: complex) -> "Generator":
        return Generator(self.base + c, self.p, self.kind, self.scale, self.alpha)

    def scaled(self, w: float) -> "Generator":
        return Generator(self.base * w, self.p, self.kind, self.scale * w, self.alpha)


def _merge_points(points: Iterable[Tuple[complex, int]]) -> Tuple[Tuple[complex, int], ...]:
    out: List[Tuple[complex, int]] = []
    for s, p in sorted(((complex(s), int(p)) for s, p in points), key=_sort_key):
        if out and out[-1][1] == p and _close(out[-1][0], s):
            continue
        out.append((s, p))
    return tuple(out)


@dataclass(frozen=True)
class IndexSet:
    points: Tuple[Tuple[complex, int], ...] = ()
    gens: Tuple[Generator, ...] = ()
    truncation: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "points", _merge_points(self.points))
        gens = tuple(dict.fromkeys(self.gens))  # dedupe identical generators
        object.__setattr__(self, "gens", gens)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_points(cls, entries: Iterable) -> "IndexSet":
        pts = []
        for e in entries:
            s, p = e
            pts.append((complex(s), int(p)))
        return cls(points=tuple(pts))

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.gens

    @property
    def is_finite(self) -> bool:
        return not self.gens

    def min_re(self) -> float:
        """Infimum of real parts ("Re of an index set"); +inf for the empty set."""
        vals = [s.real for s, _ in self.points] + [g.base.real for g in self.gens]
        return min(vals) if vals else math.inf

    def enumerate_upto(self, height: float) -> Tuple[Tuple[complex, int], ...]:
        if self.truncation is not None and height > self.truncation + _TOL:
            raise TruncationRequired(
                f"set is only faithful up to Re <= {self.truncation}, asked for {height}"
            )
        pts = [e for e in self.points if e[0].real <= height + _TOL]
        for g in self.gens:
            pts.extend(g.enumerate_upto(height))
        return _merge_points(pts)

    def truncated(self, height: float) -> "IndexSet":
        return IndexSet(points=self.enumerate_upto(height), gens=(), truncation=height)

    def contains(self, s: complex, p: int, height: Optional[float] = None) -> bool:
        h = (s.real + 1.0) if height is None else height
        return any(q == p and _close(t, complex(s)) for t, q in self.enumerate_upto(h))

    # -- exact algebra -----------------------------------------------------
    def shift(self, c: complex) -> "IndexSet":
        """E + c (exponent shift; log powers unchanged)."""
        return IndexSet(
            points=tuple((s + c, p) for s, p in self.points),
            gens=tuple(g.shifted(c) for g in self.gens),
            truncation=None if self.truncation is None else self.truncation + complex(c).real,
        )

    def scale(self, w: float) -> "IndexSet":
        """{(w s, p)}; w > 0 (b-map exponent weights are nonnegative)."""
        if not w > 0:
            raise ValueError("scale weight must be > 0")
        return IndexSet(
            points=tuple((s * w, p) for s, p in self.points),
            gens=tuple(g.scaled(w) for g in self.gens),
            truncation=None if self.truncation is None else self.truncation * w,
        )

    def union(self, other: "IndexSet") -> "IndexSet":
        trunc = _combine_trunc(self.truncation, other.truncation)
        return IndexSet(
            points=self.points + other.points, gens=self.gens + other.gens, truncation=trunc
        )

    def is_smooth_upto(self, height: float) -> bool:
        """Smooth-closure check on the truncated enumeration: (s,p) => (s+k, p-l)."""
        entries = self.enumerate_upto(height)
        for s, p in entries:
            k = 1
            while (s + k).real <= height + _TOL:
                for l in range(0, p + 1):
                    if not self.contains(s + k, p - l, height):
                        return False
                k += 1
            for l in range(1, p + 1):
                if not self.contains(s, p - l, height):
                    return False
        return True

    def to_json_dict(self) -> dict:
        from .params import complex_to_json

        return {
            "points": [{"s": complex_to_json(s), "p": p} for s, p in self.points],
            "generators": [
                {
                    "base": complex_to_json(g.base),
                    "p": g.p,
                    "kind": g.kind,
                    "scale": g.scale,
                    "alpha": g.alpha,
                }
                for g in self.gens
            ],
            "truncation": self.truncation,
        }


EMPTY = IndexSet()
N0 = IndexSet(gens=(Generator(0.0, 0, "n0"),))


def theta_generators(alpha: float, base: complex = 0.0, p: int = 0) -> IndexSet:
    return IndexSet(gens=(Generator(base, p, "theta", 1.0, alpha),))


def _combine_trunc(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def same_upto(E: IndexSet, F: IndexSet, height: float) -> bool:
    """Set equality of truncated enumerations (the brute-force comparator)."""
    return E.enumerate_upto(height) == F.enumerate_upto(height)


# ---------------------------------------------------------------------------
# extended union


def extended_union(E: IndexSet, F: IndexSet, height: Optional[float] = None) -> IndexSet:
    """E u- F = E u F u {(s, p+q+1) : (s,p) in E, (s,q) in F}.

    Exact when either side is empty or both are finite; generator inputs are
    enumerated up to ``height`` (required) and the result records it.
    """
    if E.is_empty:
        return F
    if F.is_empty:
        return E
    if E.is_finite and F.is_finite and E.truncation is None and F.truncation is None:
        return _extended_union_finite(E.points, F.points, None)
    if height is None:
        h = _combine_trunc(E.truncation, F.truncation)
        if h is None:
            raise TruncationRequired("extended union of infinite sets needs a height")
        height = h
    return _extended_union_finite(E.enumerate_upto(height), F.enumerate_upto(height), height)


def _extended_union_finite(pe, pf, truncation) -> IndexSet:
    out = list(pe) + list(pf)
    for s, p in pe:
        for t, q in pf:
            if _close(s, t):
                out.append((s, p + q + 1))
    return IndexSet(points=tuple(out), truncation=truncation)


# ---------------------------------------------------------------------------
# Minkowski sum


def _gen_sum(g1: Generator, g2: Generator) -> Optional[Generator]:
    """Exact sum of two generators when the lattice algebra is closed."""
    if abs(g1.scale - g2.scale) > _TOL:
        return None
    base = g1.base + g2.base
    p = g1.p + g2.p
    s = g1.scale
    kinds = {g1.kind, g2.kind}
    if kinds == {"n0"}:
        return Generator(base, p, "n0", s)
    alphas = {g.alpha for g in (g1, g2) if g.kind == "theta"}
    if len(alphas) > 1:
        return None
    alpha = alphas.pop()
    # Theta + Theta = Theta and Theta + N0 = Theta at equal scale
    return Generator(base, p, "theta", s, alpha)


def set_sum(E: IndexSet, F: IndexSet, height: Optional[float] = None) -> IndexSet:
    """Minkowski sum {(s+t, p+q)}; exact on points x points, points x gens and
    compatible gens x gens, else via truncated enumeration."""
    if E.is_empty or F.is_empty:
        return EMPTY
    trunc = _combine_trunc(E.truncation, F.truncation)
    points = []
    gens: List[Generator] = []
    exact = True
    for s, p in E.points:
        for t, q in F.points:
            points.append((s + t, p + q))
    for g in E.gens:
        for t, q in F.points:
            gens.append(Generator(g.base + t, g.p + q, g.kind, g.scale, g.alpha))
    for g in F.gens:
        for s, p in E.points:
            gens.append(Generator(g.base + s, g.p + p, g.kind, g.scale, g.alpha))
    for g1 in E.gens:
        for g2 in F.gens:
            gs = _gen_sum(g1, g2)
            if gs is None:
                exact = False
                break
            gens.append(gs)
        if not exact:
            break
    if exact:
        return IndexSet(points=tuple(points), gens=tuple(gens), truncation=trunc)
    if height is None and trunc is None:
        raise TruncationRequired("sum of incompatible lattices needs a height")
    h = height if height is not None else trunc
    re_f = F.min_re()
    re_e = E.min_re()
    pe = E.enumerate_upto(h - re_f)
    pf = F.enumerate_upto(h - re_e)
    out = [(s + t, p + q) for s, p in pe for t, q in pf if (s + t).real <= h + _TOL]
    return IndexSet(points=tuple(out), truncation=h)


# ---------------------------------------------------------------------------
# b-map laws


def pullback_indexset(
    target_family: Sequence[IndexSet],
    e: np.ndarray,
    height: Optional[float] = None,
) -> List[IndexSet]:
    """f^# F: source face j gets the weighted sum over target faces with e(i,j) != 0.

    E_j = { (sum_i e(i,j) s_i, sum_{e(i,j) != 0} p_i) }.  A source face hit by
    no target face gets {(0, 0)} (smooth nonvanishing pullback); one hit by an
    empty F_i is empty (infinite-order vanishing propagates).
    """
    e = np.asarray(e, dtype=float)
    n_target, n_source = e.shape
    if len(target_family) != n_target:
        raise ValueError("family length must match the lifting matrix rows")
    out = []
    for j in range(n_source):
        contributions = [
            target_family[i].scale(e[i, j]) for i in range(n_target) if e[i, j] != 0.0
        ]
        if not contributions:
            out.append(IndexSet.from_points([(0.0, 0)]))
            continue
        acc = contributions[0]
        for c in contributions[1:]:
            acc = set_sum(acc, c, height=height)
        out.append(acc)
    return out


def pushforward_indexset(
    source_family: Sequence[IndexSet],
    e: np.ndarray,
    height: Optional[float] = None,
) -> List[IndexSet]:
    """f_# E: target face i gets the extended union of (s/e(i,j), p) scalings.

    Faces with zero column (mapping to the interior) must have Re(E_j) > 0,
    else the fiber integral diverges and an error names the face.  Zero
    weights inside a nonzero column are excluded from the union.
    """
    e = np.asarray(e, dtype=float)
    n_target, n_source = e.shape
    if len(source_family) != n_source:
        raise ValueError("family length must match the lifting matrix columns")
    for j in range(n_source):
        if np.all(e[:, j] == 0.0) and not source_family[j].min_re() > 0.0:
            raise HypothesisViolation(
                f"source face {j} maps to the interior but Re(E_{j}) = "
                f"{source_family[j].min_re()} <= 0"
            )
    out = []
    for i in range(n_target):
        pieces = [
            source_family[j].scale(1.0 / e[i, j]) for j in range(n_source) if e[i, j] > 0.0
        ]
        if not pieces:
            out.append(EMPTY)
            continue
        acc = pieces[0]
        for piece in pieces[1:]:
            acc = extended_union(acc, piece, height=height)
        out.append(acc)
    return out


@dataclass(frozen=True)
class FaceIncidence:
    """How a boundary face meets the blow-up center: filtration level or disjoint."""

    label: str
    level: Optional[int]  # None = disjoint from the center; else 1-based level l


def blowdown_lifting_matrix(faces: Sequence[FaceIncidence], orders: Sequence[float]) -> np.ndarray:
    """Lifting matrix of a quasi-homogeneous blow-down.

    Source faces are ordered (front face, lifted face 1, ..., lifted face q);
    target faces are the original ones.  e(i, j) = delta_{ij} off the front
    column, and the front column carries d(i) = 0 for disjoint faces or the
    order of the filtration level the face's conormal first meets.
    """
    orders = list(orders)
    if any(o <= 0 for o in orders):
        raise ValueError("blow-up orders must be positive")
    if sorted(orders) != orders or len(set(orders)) != len(orders):
        raise ValueError("orders must be strictly increasing")
    q = len(faces)
    e = np.zeros((q, q + 1))
    for i, face in enumerate(faces):
        e[i, i + 1] = 1.0
        if face.level is not None:
            if not 1 <= face.level <= len(orders):
                raise ValueError(f"face {face.label}: level {face.level} outside the filtration")
            e[i, 0] = orders[face.level - 1]
    return e


@dataclass(frozen=True)
class DoubleFamily:
    """Index family on the three faces of the double space."""

    b10: IndexSet
    b01: IndexSet
    b11: IndexSet

    def faces(self) -> dict:
        return {"10": self.b10, "01": self.b01, "11": self.b11}

    def to_json_dict(self) -> dict:
        return {k: v.to_json_dict() for k, v in self.faces().items()}


SMALL_CALCULUS = DoubleFamily(b10=EMPTY, b01=EMPTY, b11=N0)


def compose_indexsets(
    E: DoubleFamily,
    F: DoubleFamily,
    alpha: float,
    n: int,
    height: Optional[float] = None,
) -> DoubleFamily:
    """Index family of the composition A o B on the double space.

        G10 = (E11 + F10) u- E10,
        G01 = (E01 + F11) u- F01,
        G11 = (E11 + F11) u- (E10 + F01),

    under the hypothesis Re(E01 + F10) > (1 + alpha) n.
    """
    bound = (1.0 + alpha) * n
    lhs = E.b01.min_re() + F.b10.min_re()
    if not lhs > bound:
        raise HypothesisViolation(
            f"Re(E01 + F10) = {lhs} fails the bound > (1+alpha) n = {bound}"
        )
    return DoubleFamily(
        b10=extended_union(set_sum(E.b11, F.b10, height), E.b10, height),
        b01=extended_union(set_sum(E.b01, F.b11, height), F.b01, height),
        b11=extended_union(
            set_sum(E.b11, F.b11, height), set_sum(E.b10, F.b01, height), height
        ),
    )


def boundedness_predicate(
    E: DoubleFamily,
    a: complex,
    a_prime: complex,
    t: float,
    t_prime: float,
    s: float,
    alpha: float,
    n: int,
) -> str:
    """Mapping verdict for A in Psi^{s, E}: x^a H^t -> x^{a'} H^{t'}.

    bounded if t' <= t - s, Re(E01 + a) > (1+alpha) n, Re(E10 - a') >
    (1+alpha) n and Re(E11 - a' + a) > 0; compact if additionally t' < t - s.
    """
    bound = (1.0 + alpha) * n
    a_re, ap_re = complex(a).real, complex(a_prime).real
    ok = (
        t_prime <= t - s
        and E.b01.min_re() + a_re > bound
        and E.b10.min_re() - ap_re > bound
        and E.b11.min_re() - ap_re + a_re > 0.0
    )
    if not ok:
        return "not_guaranteed"
    return "bounded_and_compact" if t_prime < t - s else "bounded"


def parametrix_indexsets(
    boundary_spectrum: IndexSet, delta: float
) -> Tuple[DoubleFamily, DoubleFamily, DoubleFamily]:
    """Index families (G, ker-projector, coker-projector) of the parametrix.

    Sigma+(delta) keeps spectrum points with Re > delta; Sigma-(delta)
    negates those with Re < delta.  delta on a line Re(zeta) + 1/2 is
    forbidden.  Returns (H, E, F) with

        H = (Sigma, Sigma, N0),
        E = (Sigma+, Sigma+ - 2 delta, Empty),
        F = (Sigma- + 2 delta, Sigma-, Empty).
    """
    if not boundary_spectrum.is_finite:
        raise ValueError("boundary spectrum must be a finite index set")
    for z, _ in boundary_spectrum.points:
        if abs(z.real + 0.5 - delta) < _WEIGHT_TOL:
            raise WeightOnSpectrumError(
                f"delta = {delta} lies on the forbidden line Re({z}) + 1/2"
            )
    plus = IndexSet(points=tuple((z, p) for z, p in boundary_spectrum.points if z.real > delta))
    minus = IndexSet(points=tuple((-z, p) for z, p in boundary_spectrum.points if z.real < delta))
    sigma = plus.union(minus)
    H = DoubleFamily(b10=sigma, b01=sigma, b11=N0)
    E = DoubleFamily(b10=plus, b01=plus.shift(-2.0 * delta), b11=EMPTY)
    F = DoubleFamily(b10=minus.shift(2.0 * delta), b01=minus, b11=EMPTY)
    return H, E, F
