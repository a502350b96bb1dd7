"""Spectral toolkit for curvature Laplacians on alpha-Grushin manifolds.

The package classifies essential self-adjointness of the operator
``Delta - c*S`` (``S`` the scalar curvature) on an (n+1)-dimensional
alpha-Grushin manifold, builds the boundary asymptotics of maximal-domain
elements, constructs families of self-adjoint extensions, and implements
the symbolic index-set algebra used for the singular-calculus bookkeeping.
Every closed-form ingredient is paired with an independent numerical
oracle exercised by the test suite.
"""

from .params import (
    GrushinParams,
    IndicialData,
    SelfAdjointnessVerdict,
    ThetaLattice,
    Verdict,
    Regime,
    classify,
    classify_grid,
    forbidden_c,
    indicial_data,
    resonance,
    theta_lattice,
)

__all__ = [
    "GrushinParams",
    "IndicialData",
    "SelfAdjointnessVerdict",
    "ThetaLattice",
    "Verdict",
    "Regime",
    "classify",
    "classify_grid",
    "forbidden_c",
    "indicial_data",
    "resonance",
    "theta_lattice",
]

__version__ = "0.1.0"
