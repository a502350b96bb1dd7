import itertools
import math

import numpy as np
import pytest

from grushin.params import GrushinParams
from grushin.curvature import (
    _ricci_scalar,
    ConformalFactor,
    FrameChristoffel,
    InvalidConnectionError,
    WarpedMetric,
    asymptotic_check,
    christoffel_from_structure_constants,
    conformal_frame_christoffel,
    coordinate_scalar_curvature,
    flat_model_frame,
    flat_model_scalar,
    flat_model_scalar_frame_form,
    scalar_from_christoffel,
)


def test_flat_model_scalar_examples():
    assert flat_model_scalar(GrushinParams(1.0, 1, 0.0)) == pytest.approx(-4.0)
    assert flat_model_scalar(GrushinParams(1.0, 2, 0.0)) == pytest.approx(-10.0)
    assert flat_model_scalar(GrushinParams(1e-9, 3, 0.0)) == pytest.approx(0.0, abs=1e-7)


def test_two_closed_forms_agree():
    for alpha in np.linspace(-0.9, 3.0, 14):
        for n in (1, 2, 3, 4):
            p = GrushinParams(float(alpha), n, 0.0)
            assert flat_model_scalar(p) == pytest.approx(
                flat_model_scalar_frame_form(p), rel=1e-14, abs=1e-14
            )


def test_frame_formula_flat_model():
    for alpha, n in [(1.0, 1), (0.5, 2), (2.0, 3), (-0.4, 1)]:
        p = GrushinParams(alpha, n, 0.0)
        S = scalar_from_christoffel(flat_model_frame(p))
        for x in (0.3, 0.7, 1.5):
            want = flat_model_scalar(p) / x**2
            assert S(x, np.zeros(n)) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_all_zero_christoffels_flat():
    dim = 3
    chr_data = FrameChristoffel(
        dim=dim,
        gamma=lambda x, y: np.zeros((dim, dim, dim)),
        frame=lambda x, y: np.eye(dim),
    )
    S = scalar_from_christoffel(chr_data)
    assert S(1.0, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_compatibility_enforced():
    dim = 2

    def bad_gamma(x, y):
        G = np.zeros((dim, dim, dim))
        G[0, 1, 1] = 1.0  # partner G[1,1,0] missing
        return G

    chr_data = FrameChristoffel(dim=dim, gamma=bad_gamma, frame=lambda x, y: np.eye(dim))
    with pytest.raises(InvalidConnectionError):
        scalar_from_christoffel(chr_data)(1.0, np.zeros(1))


def test_round_sphere():
    # unit S^2 in polar chart: frame X_1 = d_theta, X_2 = (1/sin theta) d_phi;
    # the only structure constants come from [X_1, X_2] = -cot(theta) X_2
    def cbar(theta, phi):
        c = np.zeros((2, 2, 2))
        c[1, 0, 1] = -1.0 / math.tan(theta)
        c[1, 1, 0] = 1.0 / math.tan(theta)
        return c

    def frame(theta, phi):
        return np.diag([1.0, 1.0 / math.sin(theta)])

    chr_data = christoffel_from_structure_constants(2, cbar, frame)
    S = scalar_from_christoffel(chr_data)
    for theta in (0.7, 1.2, 2.0):
        assert S(theta, np.zeros(1)) == pytest.approx(2.0, rel=1e-8)

    # coordinate oracle on the chart metric diag(1, sin^2 theta) agrees
    def sphere_metric(u):
        return np.diag([1.0, math.sin(u[0]) ** 2])

    for theta in (0.7, 1.2):
        got = coordinate_scalar_curvature(sphere_metric, np.array([theta, 0.1]))
        assert got == pytest.approx(2.0, rel=1e-7)


def test_coordinate_oracle_flat_cylinder():
    # g_xZ = Id: x^2 S is exactly the flat constant
    for alpha, n in [(1.0, 1), (0.5, 1), (1.5, 2)]:
        metric = WarpedMetric(alpha=alpha, n=n, g_xZ=lambda x, y, n=n: np.eye(n))
        g_fn = metric.full_matrix
        p = GrushinParams(alpha, n, 0.0)
        for x in (0.2, 0.4):
            u = np.concatenate([[x], np.full(n, 0.3)])
            S = coordinate_scalar_curvature(g_fn, u)
            assert x * x * S == pytest.approx(flat_model_scalar(p), rel=1e-7)



def _loop_ricci_scalar(ginv, dg, ddg):
    # index-by-index contraction, the reference for the einsum form
    m = ginv.shape[0]
    dginv = [-ginv @ dg[c] @ ginv for c in range(m)]
    Gam = np.zeros((m, m, m))
    dGam = np.zeros((m, m, m, m))
    for a, b, c, d in itertools.product(range(m), repeat=4):
        Gam[a, b, c] += 0.5 * ginv[a, d] * (dg[b][d, c] + dg[c][d, b] - dg[d][b, c])
    for e, a, b, c, d in itertools.product(range(m), repeat=5):
        dGam[e, a, b, c] += 0.5 * (
            dginv[e][a, d] * (dg[b][d, c] + dg[c][d, b] - dg[d][b, c])
            + ginv[a, d] * (ddg[e, b][d, c] + ddg[e, c][d, b] - ddg[e, d][b, c])
        )
    S = 0.0
    for b, d in itertools.product(range(m), repeat=2):
        ricci = 0.0
        for a in range(m):
            ricci += dGam[a, a, b, d] - dGam[b, a, a, d]
            for e in range(m):
                ricci += Gam[a, a, e] * Gam[e, b, d] - Gam[a, b, e] * Gam[e, a, d]
        S += ginv[b, d] * ricci
    return S


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ricci_contraction_matches_loops(m):
    rng = np.random.default_rng(m)
    for _ in range(10):
        a = rng.normal(size=(m, m))
        ginv = np.linalg.inv(a @ a.T + m * np.eye(m))
        dg = rng.normal(size=(m, m, m))
        dg = dg + np.swapaxes(dg, 1, 2)  # each d_c g symmetric
        ddg = rng.normal(size=(m, m, m, m))
        ddg = ddg + np.swapaxes(ddg, 2, 3)
        ddg = ddg + np.swapaxes(ddg, 0, 1)  # mixed partials commute
        ref = _loop_ricci_scalar(ginv, dg, ddg)
        assert _ricci_scalar(ginv, dg, ddg) == pytest.approx(ref, rel=1e-12, abs=1e-12)

SAMPLES = [
    # (alpha, n, factor)
    (1.0, 1, ConformalFactor(
        f=lambda x, y: 1.0 + x,
        df_dx=lambda x, y: 1.0,
        grad_y=lambda x, y: np.zeros(1),
    )),
    (0.5, 1, ConformalFactor(
        f=lambda x, y: 1.0 + x * x * math.sin(float(y[0])),
        df_dx=lambda x, y: 2.0 * x * math.sin(float(y[0])),
        grad_y=lambda x, y: np.array([x * x * math.cos(float(y[0]))]),
    )),
    (0.75, 1, ConformalFactor(
        f=lambda x, y: 1.0 + 0.4 * x * math.cos(float(y[0])) + 0.1 * x * x,
        df_dx=lambda x, y: 0.4 * math.cos(float(y[0])) + 0.2 * x,
        grad_y=lambda x, y: np.array([-0.4 * x * math.sin(float(y[0]))]),
    )),
]


@pytest.mark.parametrize("alpha,n,factor", SAMPLES)
def test_frame_vs_coordinate_oracle(alpha, n, factor):
    metric = factor.metric(alpha, n)
    chr_data = conformal_frame_christoffel(alpha, n, factor)
    S_frame = scalar_from_christoffel(chr_data)
    g_fn = metric.full_matrix
    for x in (0.25, 0.45):
        y = np.array([0.8])
        frame_val = S_frame(x, y)
        coord_val = coordinate_scalar_curvature(g_fn, np.concatenate([[x], y]))
        assert frame_val == pytest.approx(coord_val, rel=1e-6)


def test_asymptotic_check_flat():
    metric = WarpedMetric(alpha=1.0, n=1, g_xZ=lambda x, y: np.eye(1))
    rep = asymptotic_check(metric, np.geomspace(0.05, 0.5, 6))
    assert rep.limit == pytest.approx(-4.0, rel=1e-6)
    assert rep.remainder_exponent == math.inf


def test_asymptotic_check_perturbed():
    factor = SAMPLES[0][2]
    metric = factor.metric(1.0, 1)
    rep = asymptotic_check(metric, np.geomspace(0.02, 0.4, 8))
    assert rep.limit == pytest.approx(-4.0, rel=0.01)
    assert 0.5 < rep.remainder_exponent < 1.6  # O(x) remainder

    alpha = 0.5
    factor = SAMPLES[1][2]
    metric = factor.metric(alpha, 1)
    # away from the degenerate slice sin(y) = 0
    rep = asymptotic_check(metric, np.geomspace(0.02, 0.4, 8), y=np.array([0.8]))
    assert rep.limit == pytest.approx(-1.5, rel=0.01)
    assert rep.remainder_exponent > 0.5


CLI_GRID = np.linspace(0.02, 0.37, 8)  # the default --x-grid 0.02:0.4:0.05


def _two_term_factor(a, m, b, l):
    """f = 1 + a x cos(m y) + b x^2 sin(l y), with its analytic derivatives."""
    return ConformalFactor(
        f=lambda x, y: 1.0 + a * x * math.cos(m * y[0]) + b * x * x * math.sin(l * y[0]),
        df_dx=lambda x, y: a * math.cos(m * y[0]) + 2.0 * b * x * math.sin(l * y[0]),
        grad_y=lambda x, y: np.array(
            [-a * m * x * math.sin(m * y[0]) + b * l * x * x * math.cos(l * y[0])]
            + [0.0] * (len(y) - 1)
        ),
    )


def test_asymptotic_check_two_term_factors():
    # a single remainder power cannot fit an x and an x^2 term at once; the
    # fit over the predicted powers must
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        alpha = rng.uniform(0.25, 1.5)
        a, b = rng.uniform(-0.5, 0.5, size=2)
        m, l = rng.integers(0, 3, size=2)
        factor = _two_term_factor(a, int(m), b, int(l))
        for n in (1, 2):
            rep = asymptotic_check(factor.metric(alpha, n), CLI_GRID, y=np.full(n, 0.8))
            worst = max(worst, rep.relative_error)
    assert worst < 3e-3


@pytest.mark.parametrize("alpha", [-0.99, -0.95, -0.9])
def test_asymptotic_check_near_alpha_minus_one(alpha):
    # x^{2+2 alpha} -> x^0: the slice powers crowd 0, 1, 2 and are dropped
    # rather than fitted as near-collinear columns
    factor = _two_term_factor(0.3, 1, 0.2, 2)
    for n in (1, 2):
        rep = asymptotic_check(factor.metric(alpha, n), CLI_GRID, y=np.full(n, 0.8))
        assert rep.relative_error < 0.01, (alpha, n, rep.limit, rep.expected)
        assert rep.remainder_exponent == pytest.approx(1.0)
