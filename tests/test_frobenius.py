import math

import mpmath as mp
import numpy as np
import pytest

from grushin.params import GrushinParams, indicial_data
from grushin.frobenius import (
    CertificateError,
    OperatorSeriesData,
    expand,
    flat_model_series_data,
    mode_basis,
    residual_certificate,
)


def bessel_series_coeffs(k: float, alpha: float, kind: str, n_terms: int) -> list:
    """Ascending-series coefficients of the flat-model kernel solutions.

    The k-th mode solutions are x^{(1+alpha n)/2} I(k x^{1+alpha}/(1+alpha), +-nu)
    with nu = sqrt(mu)/(2(1+alpha)); for alpha = n = 1, c = 0 this is
    x I(k x^2/2, +-1/2) (sinh/cosh type).  Coefficients come from an
    independent extended-precision ascending series in the Bessel argument,
    normalized to leading coefficient 1; successive entries step by
    x^{2(1+alpha)}.
    """
    beta = 1.0 + alpha
    mu = (1.0 + alpha) ** 2  # n = 1, c = 0
    nu = mp.sqrt(mu) / (2 * beta)
    if kind == "minus":
        nu = -nu
    scale = mp.mpf(k) / (2 * beta)  # (s/2) with s = sqrt(h) x^beta / beta, per x^beta
    with mp.workdps(40):
        coeffs = []
        c0 = None
        for m in range(n_terms):
            c = scale ** (2 * m) / (mp.factorial(m) * mp.gamma(nu + m + 1))
            if c0 is None:
                c0 = c
            coeffs.append(float(c / c0))
    return coeffs


def test_mode_basis_ordering():
    assert mode_basis(1, 3) == ((0,), (-1,), (1,), (-2,), (2,), (-3,), (3,))
    basis2 = mode_basis(2, 1)
    assert basis2[0] == (0, 0)
    assert len(basis2) == 9


def test_flat_series_data_structure():
    data = flat_model_series_data(GrushinParams(1.0, 1, 0.0), K=3)
    assert set(data.blocks) == {4.0}
    diag = np.diag(data.blocks[4.0]).real
    assert sorted(diag.tolist()) == [-9.0, -9.0, -4.0, -4.0, -1.0, -1.0, 0.0]

    data = flat_model_series_data(GrushinParams(0.5, 1, 0.0), K=1)
    assert set(data.blocks) == {3.0}

    data = flat_model_series_data(GrushinParams(1.0, 2, 1.0), K=1)
    assert set(data.blocks) == {4.0}
    assert data.dim == 9


def test_expand_flat_plus_matches_bessel_series():
    # alpha = n = 1, c = 0, mode k: u_+ = x^2 + (k^2/24) x^6 + (k^4/1920) x^10 + ...
    params = GrushinParams(1.0, 1, 0.0)
    data = flat_model_series_data(params, K=3)
    for k in (1, 2, 3):
        exp = expand(data, "plus", data.unit_seed(k), cutoff=16.0)
        idx = data.mode_index(k)
        got = {}
        for theta, p, a in exp.terms:
            if abs(a[idx]) > 0:
                assert p == 0
                got[round(theta, 9)] = complex(a[idx])
        assert set(got) == {0.0, 4.0, 8.0, 12.0, 16.0}
        assert got[4.0] == pytest.approx(k**2 / 24.0, rel=1e-12)
        assert got[8.0] == pytest.approx(k**4 / 1920.0, rel=1e-12)
        oracle = bessel_series_coeffs(k, 1.0, "plus", 5)
        for m, ref in enumerate(oracle):
            assert got[4.0 * m] == pytest.approx(ref, rel=1e-10)


def test_expand_flat_minus_resonant_log_free():
    # sqrt(mu) = 2 is in Theta, but the coupling steps by 4: the log branch is
    # engaged and its constant comes out zero; the series is the cosh-type one
    params = GrushinParams(1.0, 1, 0.0)
    data = flat_model_series_data(params, K=2)
    k = 1
    exp = expand(data, "minus", data.unit_seed(k), cutoff=12.0)
    assert exp.log_constant_C is not None
    assert abs(exp.log_constant_C) == 0.0
    idx = data.mode_index(k)
    got = {round(t, 9): complex(a[idx]) for t, p, a in exp.terms if abs(a[idx]) > 0 and p == 0}
    # u_- = 1 + (k^2/8) x^4 + ... : p(0 + 4) = 16 - 8 = 8
    assert got[4.0] == pytest.approx(k**2 / 8.0, rel=1e-12)
    oracle = bessel_series_coeffs(k, 1.0, "minus", 4)
    for m, ref in enumerate(oracle):
        assert got[4.0 * m] == pytest.approx(ref, rel=1e-10)



def test_expand_two_grade_complex_blocks_solve_mode_ode():
    # one Fourier mode with spectral parameter eig: the couplings -k^2 at grade
    # 2 + 2 alpha and -eig at grade 2 make the plus-root series, times the gauge
    # factor x^{-alpha n/2}, a solution of u'' = (k^2 x^{2 alpha} + A/x^2 + eig) u
    cases = [
        # (alpha, n, c, k, eig)
        (0.5, 1, 0.0, 1.0, -1j),
        (1.0, 1, 1.0, 1.0, -1j),  # mu < 0: complex exponents
        (0.5, 2, 0.0, 1.0, -1j),
        (0.5, 1, 0.0, 3.0, -1j),
        (0.5, 1, 0.0, 1.0, 1j),
    ]
    for alpha, n, c, k, eig in cases:
        params = GrushinParams(alpha, n, c)
        data = OperatorSeriesData(
            params=params,
            K=0,
            modes=((0,) * n,),
            blocks={
                2.0 * (1.0 + alpha): np.array([[-k * k]], dtype=complex),
                2.0: np.array([[-eig]], dtype=complex),
            },
        )
        series = expand(data, "plus", np.ones(1), 6.0)
        shift = 0.5 * alpha * n

        def u(x):
            return x**-shift * complex(series.profiles(x)[0, 0])

        def du(x):
            prof = complex(series.profiles(x)[0, 0])
            return x**-shift * (complex(series.derivative_profiles(x)[0, 0]) - shift * prof / x)

        A = alpha * n * (alpha * n + 2.0) / 4.0 - c * alpha * n * (alpha * n + alpha + 2.0)
        # at x0 = 0.1 the couplings k^2 x^{2 alpha} and eig are visible above the tolerance
        for x0 in (1e-3, 1e-1):
            h = 1e-5 * x0
            ddu = (u(x0 + h) - 2 * u(x0) + u(x0 - h)) / h**2
            V = k * k * x0 ** (2 * alpha) + A / x0**2 + eig
            residual = abs(ddu - V * u(x0))
            assert residual <= 1e-4 * max(1.0, abs(V * u(x0))), (alpha, n, c, k, eig, x0)
            # central difference of the series matches its reported derivative
            central = (u(x0 + h) - u(x0 - h)) / (2 * h)
            assert abs(central - du(x0)) <= 1e-8 * abs(du(x0)), (alpha, n, c, k, eig, x0)

def test_expand_zero_coupling_single_term():
    params = GrushinParams(0.7, 1, 0.3)
    data = flat_model_series_data(params, K=0)
    exp = expand(data, "plus", data.unit_seed(0), cutoff=8.0)
    nonzero = [(t, p) for t, p, a in exp.terms if np.max(np.abs(a)) > 0]
    assert nonzero == [(0.0, 0)]
    ind = indicial_data(params)
    assert exp.lam == ind.lambda_plus


def test_expand_complex_roots():
    params = GrushinParams(1.0, 1, 1.0)  # mu = -12
    data = flat_model_series_data(params, K=1)
    exp_p = expand(data, "plus", data.unit_seed(1), cutoff=8.0)
    exp_m = expand(data, "minus", data.unit_seed(1), cutoff=8.0)
    assert exp_p.lam.imag > 0 > exp_m.lam.imag
    # conjugate-root series have conjugate coefficients for this real operator
    for (t1, p1, a1), (t2, p2, a2) in zip(exp_p.terms, exp_m.terms):
        assert t1 == t2 and p1 == p2
        assert np.allclose(np.conj(a1), a2, rtol=1e-12, atol=1e-300)


def test_expand_double_root_has_log():
    params = GrushinParams(1.0, 1, 0.25)  # mu = 0
    data = flat_model_series_data(params, K=1)
    exp = expand(data, "minus", data.unit_seed(1), cutoff=8.0)
    assert exp.log_constant_C == 1.0
    assert any(p == 1 for _, p, _ in exp.terms)


def test_expand_linear_in_seed():
    params = GrushinParams(0.5, 1, 0.1)
    data = flat_model_series_data(params, K=2)
    rng = np.random.default_rng(0)
    s1 = rng.normal(size=data.dim) + 1j * rng.normal(size=data.dim)
    s2 = rng.normal(size=data.dim) + 1j * rng.normal(size=data.dim)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    e1 = expand(data, "plus", s1, cutoff=6.0)
    e2 = expand(data, "plus", s2, cutoff=6.0)
    e12 = expand(data, "plus", a * s1 + b * s2, cutoff=6.0)
    x = np.array([0.1, 0.3])
    assert np.allclose(e12.profiles(x), a * e1.profiles(x) + b * e2.profiles(x), rtol=1e-10)


def test_single_mode_seed_stays_single_mode():
    # flat torus decoupling: the finite-dimensional shadow of smoothness propagation
    params = GrushinParams(0.5, 2, 0.2)
    data = flat_model_series_data(params, K=1)
    seed = data.unit_seed((1, 0))
    exp = expand(data, "plus", seed, cutoff=7.0)
    idx = data.mode_index((1, 0))
    for _, _, a in exp.terms:
        mask = np.ones(data.dim, dtype=bool)
        mask[idx] = False
        assert np.max(np.abs(a[mask])) == 0.0


def test_exponent_set_in_lattice():
    from grushin.params import theta_lattice

    params = GrushinParams(0.75, 1, -0.3)
    data = flat_model_series_data(params, K=2)
    exp = expand(data, "plus", data.unit_seed(1), cutoff=9.0)
    lat = theta_lattice(params.alpha, 9.5)
    for theta, _, a in exp.terms:
        if np.max(np.abs(a)) > 0:
            assert theta in lat


def test_residual_certificate_flat():
    params = GrushinParams(1.0, 1, 0.0)
    data = flat_model_series_data(params, K=1)
    exp = expand(data, "plus", data.unit_seed(1), cutoff=6.0)
    # kept terms x^2, x^6; leftover forcing at x^{10}
    grid = np.geomspace(0.01, 0.5, 12)
    cert = residual_certificate(exp, data, grid)
    assert not cert.exact_zero
    assert cert.expected_exponent == pytest.approx(10.0)
    assert cert.fitted_exponent == pytest.approx(10.0, abs=0.05)
    assert cert.passed


def test_residual_certificate_exact_zero():
    params = GrushinParams(1.3, 1, 0.4)
    data = flat_model_series_data(params, K=0)
    exp = expand(data, "plus", data.unit_seed(0), cutoff=5.0)
    cert = residual_certificate(exp, data, np.geomspace(0.01, 0.5, 8))
    assert cert.exact_zero and cert.passed
    assert cert.fitted_exponent == math.inf


def test_residual_certificate_resonant_minus():
    params = GrushinParams(1.0, 1, 0.0)
    data = flat_model_series_data(params, K=1)
    exp = expand(data, "minus", data.unit_seed(1), cutoff=8.0)
    cert = residual_certificate(exp, data, np.geomspace(0.02, 0.5, 12))
    assert cert.passed
    assert cert.fitted_exponent >= exp.lam.real + 8.0 - 0.05


def test_residual_certificate_double_root_log_fit():
    params = GrushinParams(1.0, 1, 0.25)
    data = flat_model_series_data(params, K=1)
    exp = expand(data, "minus", data.unit_seed(1), cutoff=8.0)
    cert = residual_certificate(exp, data, np.geomspace(0.02, 0.5, 12))
    assert cert.log_power == 1
    assert cert.passed


def test_certificate_rejects_tampered_series():
    params = GrushinParams(1.0, 1, 0.0)
    data = flat_model_series_data(params, K=1)
    exp = expand(data, "plus", data.unit_seed(1), cutoff=6.0)
    bad_terms = tuple(
        (t, p, a * (1.0 if t == 0 else 1.5)) for t, p, a in exp.terms
    )
    bad = type(exp)(
        lam=exp.lam,
        terms=bad_terms,
        order_cutoff=exp.order_cutoff,
        log_constant_C=None,
        modes=exp.modes,
    )
    with pytest.raises(CertificateError):
        residual_certificate(bad, data, np.geomspace(0.01, 0.5, 12))


def test_expand_rejects_bad_inputs():
    params = GrushinParams(1.0, 1, 0.0)
    data = flat_model_series_data(params, K=1)
    with pytest.raises(ValueError):
        expand(data, "plus", np.zeros(data.dim), cutoff=4.0)
    with pytest.raises(ValueError):
        expand(data, "up", data.unit_seed(0), cutoff=4.0)
    with pytest.raises(ValueError):
        expand(data, "plus", data.unit_seed(0), cutoff=-1.0)
