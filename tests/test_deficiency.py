import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grushin.params import GrushinParams, Verdict, classify, discriminant
from grushin.deficiency import (
    UnsupportedConfigurationError,
    aggregate_deficiency,
    classify_endpoint_zero,
    mode_operator,
    numeric_deficiency_count,
    series_start,
)


def test_mode_operator_examples():
    op = mode_operator(GrushinParams(1.0, 1, 0.0), 0)
    assert op.inverse_square_coeff == pytest.approx(3.0 / 4.0)
    assert op.mode_strength == 0.0

    op = mode_operator(GrushinParams(1.0, 1, 0.25), 1)
    assert op.inverse_square_coeff == pytest.approx(-0.25)
    assert op.nu_squared == pytest.approx(0.0, abs=1e-15)

    op = mode_operator(GrushinParams(0.5, 1, 0.0), 2)
    assert op.inverse_square_coeff == pytest.approx(5.0 / 16.0)
    assert op.nu_squared == pytest.approx(9.0 / 16.0)
    assert op.potential(2.0) == pytest.approx(4.0 * 2.0 + (5.0 / 16.0) / 4.0)


@settings(max_examples=500, deadline=None)
@given(
    alpha=st.floats(-0.99, 4.0),
    n=st.integers(1, 6),
    c=st.floats(-3.0, 3.0),
    k=st.floats(0.0, 10.0),
)
def test_keystone_identity(alpha, n, c, k):
    # nu^2 = mu / 4 locks the sign convention of mu
    p = GrushinParams(alpha, n, c)
    op = mode_operator(p, k)
    mu = discriminant(alpha, n, c)
    assert op.nu_squared == pytest.approx(mu / 4.0, abs=1e-12 * max(1.0, abs(mu)))


def test_classify_endpoint_zero_examples():
    cls = classify_endpoint_zero(mode_operator(GrushinParams(1.0, 1, 0.0), 1))
    assert cls.kind == "limit_point" and cls.critical

    cls = classify_endpoint_zero(mode_operator(GrushinParams(0.5, 1, 0.0), 1))
    assert cls.kind == "limit_circle" and not cls.critical
    assert cls.nu_squared == pytest.approx(9.0 / 16.0)

    cls = classify_endpoint_zero(mode_operator(GrushinParams(2.0, 1, 0.0), 1))
    assert cls.kind == "limit_point" and not cls.critical


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(-0.99, 4.0), n=st.integers(1, 6), c=st.floats(-3.0, 3.0))
def test_classifier_agreement(alpha, n, c):
    mu = discriminant(alpha, n, c)
    if abs(mu - 4.0) <= 1e-6:
        return
    p = GrushinParams(alpha, n, c)
    lc = classify_endpoint_zero(mode_operator(p, 1)).kind == "limit_circle"
    not_esa = classify(p).verdict == Verdict.NOT_ESA_INFINITE_DEFICIENCY
    assert lc == not_esa


def test_frobenius_start_is_accurate():
    # the truncated series start must satisfy the ODE residual locally
    cases = [
        # (alpha, n, c, k, eig)
        (0.5, 1, 0.0, 1.0, -1j),
        (1.0, 1, 1.0, 1.0, -1j),  # mu < 0: complex exponents
        (0.5, 2, 0.0, 1.0, -1j),
        (0.5, 1, 0.0, 3.0, -1j),
        (0.5, 1, 0.0, 1.0, 1j),
    ]
    # at x0 = 0.1 the couplings k^2 x^{2 alpha} and eig are visible above the tolerance
    for (alpha, n, c, k, eig), x0 in itertools.product(cases, (1e-3, 1e-1)):
        h = 1e-5 * x0
        op = mode_operator(GrushinParams(alpha, n, c), k)
        u, du = series_start(op, eig, x0)
        um, _ = series_start(op, eig, x0 - h)
        up, _ = series_start(op, eig, x0 + h)
        ddu = (up - 2 * u + um) / h**2
        V = complex(op.potential(x0)) + eig
        assert abs(ddu - V * u) <= 1e-4 * max(1.0, abs(V * u)), (alpha, n, c, k, eig, x0)
        # central difference of the series matches its reported derivative
        assert abs((up - um) / (2 * h) - du) <= 1e-8 * abs(du), (alpha, n, c, k, eig, x0)


def test_shooting_limit_circle_counts_one():
    op = mode_operator(GrushinParams(0.5, 1, 0.0), 1.0)
    assert numeric_deficiency_count(op, +1) == 1
    assert numeric_deficiency_count(op, -1) == 1


def test_shooting_limit_point_counts_zero():
    op = mode_operator(GrushinParams(2.0, 1, 0.0), 1.0)
    assert numeric_deficiency_count(op, +1) == 0


def test_shooting_oscillatory_case():
    # mu = -12 < 4: complex indicial exponents, still one solution per sign
    op = mode_operator(GrushinParams(1.0, 1, 1.0), 1.0)
    assert numeric_deficiency_count(op, +1) == 1


def test_shooting_rejects_nonconfining():
    op = mode_operator(GrushinParams(-0.5, 1, 0.0), 0.0)
    with pytest.raises(UnsupportedConfigurationError):
        numeric_deficiency_count(op, +1)


@pytest.mark.parametrize(
    "alpha,n,c,k_max,expected",
    [
        (0.5, 1, 0.0, 8, "infinite"),
        (2.0, 1, 0.0, 2, "zero"),
    ],
)
def test_aggregate_deficiency(alpha, n, c, k_max, expected):
    rep = aggregate_deficiency(GrushinParams(alpha, n, c), k_max=k_max)
    assert rep.aggregate == expected
    for k, cp, cm in rep.per_mode:
        assert cp == cm  # real operator symmetry


def test_counts_independent_of_mode_strength():
    # the critical weight does not depend on h; counts match across k = 1..8
    p = GrushinParams(0.5, 1, 0.0)
    counts = {numeric_deficiency_count(mode_operator(p, k), +1) for k in range(1, 9)}
    assert counts == {1}
    # limit-point side: x_max trimmed (WKB rate >= 1 everywhere for eig = -+i,
    # so tracking is decided well before the default X)
    p = GrushinParams(2.0, 1, 0.0)
    counts = {numeric_deficiency_count(mode_operator(p, k), +1, x_max=6.0) for k in range(1, 9)}
    assert counts == {0}


def test_shooting_predicate_agreement_random():
    rng = np.random.default_rng(42)
    trials = 0
    while trials < 20:
        alpha = rng.uniform(0.1, 1.2)
        n = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 1.0)
        k = rng.uniform(0.5, 2.0)
        mu = discriminant(alpha, n, c)
        if abs(mu - 4.0) < 0.3:
            continue  # stay away from the borderline
        trials += 1
        op = mode_operator(GrushinParams(alpha, n, c), k)
        count = numeric_deficiency_count(op, +1)
        expected = 1 if classify_endpoint_zero(op).kind == "limit_circle" else 0
        assert count == expected, (alpha, n, c, k, mu)
