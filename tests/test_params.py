import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grushin.params import (
    GrushinParams,
    MU4_TOL,
    REGIMES,
    VERDICTS,
    Verdict,
    Regime,
    classify,
    classify_grid,
    discriminant,
    forbidden_c,
    indicial_data,
    resonance,
    theta_lattice,
)


def test_params_validation():
    with pytest.raises(ValueError):
        GrushinParams(alpha=-1.0, n=1, c=0.0)
    with pytest.raises(ValueError):
        GrushinParams(alpha=1.0, n=0, c=0.0)
    p = GrushinParams(alpha=0.5, n=2, c=0.1)
    assert p.alpha_n == 1.0


def test_indicial_data_c_zero():
    # c = 0 forces p(lambda) = lambda (lambda - (1 + alpha n))
    d = indicial_data(GrushinParams(alpha=2.0, n=1, c=0.0))
    assert d.mu == pytest.approx(9.0, abs=0)
    assert d.lambda_minus == 0.0
    assert d.lambda_plus == 3.0


def test_indicial_data_double_root():
    d = indicial_data(GrushinParams(alpha=1.0, n=1, c=0.25))
    assert d.mu == pytest.approx(0.0, abs=1e-15)
    assert d.lambda_plus == pytest.approx(1.0)
    assert d.lambda_minus == pytest.approx(1.0)


def test_indicial_data_complex_roots():
    d = indicial_data(GrushinParams(alpha=1.0, n=1, c=1.0))
    assert d.mu == pytest.approx(-12.0)
    assert d.lambda_plus == pytest.approx(1.0 + 1j * math.sqrt(3.0))
    assert d.lambda_minus == pytest.approx(1.0 - 1j * math.sqrt(3.0))
    # roots actually solve p
    assert abs(d.p(d.lambda_plus)) < 1e-12
    assert abs(d.p(d.lambda_minus)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-0.99, 4.0),
    n=st.integers(1, 6),
    c=st.floats(-3.0, 3.0),
)
def test_root_consistency_random(alpha, n, c):
    p = GrushinParams(alpha=alpha, n=n, c=c)
    d = indicial_data(p)
    scale = 1.0 + abs(d.lambda_plus) ** 2
    assert abs(d.p(d.lambda_plus)) <= 1e-12 * scale
    assert abs(d.p(d.lambda_minus)) <= 1e-12 * scale
    # exact arithmetic identities
    assert d.lambda_plus + d.lambda_minus == pytest.approx(1.0 + alpha * n, rel=1e-14)
    prod = d.lambda_plus * d.lambda_minus
    assert prod.real == pytest.approx(c * alpha * n * (alpha * n + alpha + 2.0), abs=1e-10 * scale)


def test_root_consistency_bulk():
    # 1e4 plain-rng samples: both roots solve p to 1e-12 relative and the sum
    # identity is exact in floating arithmetic
    import numpy as np

    rng = np.random.default_rng(12)
    for _ in range(10_000):
        alpha = rng.uniform(-0.99, 4.0)
        n = int(rng.integers(1, 7))
        c = rng.uniform(-3.0, 3.0)
        d = indicial_data(GrushinParams(alpha, n, c))
        scale = 1.0 + abs(d.lambda_plus) ** 2
        assert abs(d.p(d.lambda_plus)) <= 1e-12 * scale
        assert abs(d.p(d.lambda_minus)) <= 1e-12 * scale
        assert (d.lambda_plus + d.lambda_minus).real == pytest.approx(1.0 + alpha * n, rel=1e-13)
        assert (d.lambda_plus + d.lambda_minus).imag == 0.0


def test_classify_examples():
    assert classify(GrushinParams(2.0, 1, 0.0)).verdict == Verdict.ESSENTIALLY_SELF_ADJOINT
    v = classify(GrushinParams(1.0, 1, 0.0))
    assert v.verdict == Verdict.CRITICAL_MU4_INDETERMINATE
    assert v.regime == Regime.MU_EQ_4
    v = classify(GrushinParams(1.0, 1, 1.0 / 3.0))
    assert v.verdict == Verdict.NOT_ESA_INFINITE_DEFICIENCY
    assert v.mu == pytest.approx(4.0 - 16.0 / 3.0)
    assert v.regime == Regime.MU_NEG


def test_classify_mu4_tolerance_band():
    # points just inside/outside the relative tolerance band around mu = 4
    p = GrushinParams(1.0, 1, 0.0)  # mu = 4 exactly
    assert classify(p).verdict == Verdict.CRITICAL_MU4_INDETERMINATE
    eps = 10 * MU4_TOL
    assert classify(GrushinParams(1.0, 1, eps)).verdict == Verdict.NOT_ESA_INFINITE_DEFICIENCY


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(-0.99, 4.0), n=st.integers(1, 6))
def test_c_zero_boundary_matches_threshold_rule(alpha, n):
    # classify(alpha, n, 0) is e.s.a. iff alpha > 1/n or alpha < -3/n (alpha > -1)
    v = classify(GrushinParams(alpha, n, 0.0))
    esa_rule = alpha * n > 1.0 or alpha * n < -3.0
    critical_rule = abs(abs(1.0 + alpha * n) - 2.0) < 1e-9
    if critical_rule:
        assert v.verdict == Verdict.CRITICAL_MU4_INDETERMINATE
    elif esa_rule:
        assert v.verdict == Verdict.ESSENTIALLY_SELF_ADJOINT
    else:
        assert v.verdict == Verdict.NOT_ESA_INFINITE_DEFICIENCY


def test_theta_lattice_integer_alpha():
    lat = theta_lattice(1, 5)
    assert lat.elements == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert lat.witnesses[0] == (0, 0)
    # lex-minimal witness: theta = 2 comes from (0, 2), not (1, 0)
    assert lat.witnesses[2] == (0, 2)


def test_theta_lattice_half():
    lat = theta_lattice(Fraction(1, 2), 3)
    assert lat.elements == (0.0, 1.0, 1.5, 2.0, 2.5, 3.0)


def test_theta_lattice_irrational():
    lat = theta_lattice(math.pi - 1.0, 4.0)
    # brute-force oracle
    expected = sorted(
        {
            round(math.pi * i + j, 12)
            for i in range(6)
            for j in range(6)
            if math.pi * i + j <= 4.0 + 1e-12
        }
    )
    assert [round(t, 12) for t in lat.elements] == expected
    assert lat.elements == (0.0, 1.0, 2.0, 3.0, math.pi, 4.0)


def test_theta_lattice_zero_alpha_is_integers():
    lat = theta_lattice(0.0, 7.2)
    assert lat.elements == tuple(float(j) for j in range(8))


def test_theta_lattice_negative_cutoff():
    with pytest.raises(ValueError):
        theta_lattice(1.0, -1.0)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(-0.9, 3.0),
    c1=st.floats(0.0, 6.0),
    extra=st.floats(0.0, 4.0),
)
def test_theta_prefix_monotonicity(alpha, c1, extra):
    small = theta_lattice(alpha, c1)
    big = theta_lattice(alpha, c1 + extra)
    assert big.elements[: len(small.elements)] == small.elements


def test_resonance_examples():
    flag, wit = resonance(GrushinParams(1.0, 1, 0.25))
    assert flag and wit == (0, 0)  # double root, sqrt(mu) = 0
    flag, wit = resonance(GrushinParams(1.0, 1, 3.0 / 16.0))
    assert flag and wit == (0, 1)  # sqrt(mu) = 1
    # alpha = 0.5 lattice {0, 1, 1.5, 2, ...} misses 1.25
    alpha, n = 0.5, 1
    # choose c with sqrt(mu) = 1.25
    an = alpha * n
    c = ((1 + an) ** 2 - 1.25**2) / (4 * an * (an + alpha + 2))
    flag, _ = resonance(GrushinParams(alpha, n, c))
    assert not flag


def test_resonance_complex_roots_false():
    flag, wit = resonance(GrushinParams(1.0, 1, 1.0))
    assert not flag and wit is None


def test_forbidden_c_examples():
    assert forbidden_c(1.0, 1) == pytest.approx(0.0, abs=1e-15)
    # oracle: mu(2, 1, c0) = 9 - 48 c0 = 4  =>  c0 = 5/48
    assert forbidden_c(2.0, 1) == pytest.approx(5.0 / 48.0)
    assert discriminant(2.0, 1, forbidden_c(2.0, 1)) == pytest.approx(4.0, abs=1e-12)
    assert forbidden_c(1.0, 2) == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        forbidden_c(0.0, 1)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(-0.99, 4.0), n=st.integers(1, 6))
@example(alpha=-0.5, n=3)
def test_forbidden_c_fixed_point(alpha, n):
    if abs(alpha) < 1e-3:
        return  # c0 diverges as alpha -> 0
    an = alpha * n
    gap = 2.0 + alpha + an  # 0 at alpha = -2/(1+n), where mu does not depend on c
    if gap == 0.0:
        with pytest.raises(ValueError):
            forbidden_c(alpha, n)
        return
    c0 = forbidden_c(alpha, n)
    # c0 carries 1/gap, so near alpha = -2/(1+n) the check loses the digits the
    # cancellation in gap loses; on 550000 draws (near -2/(1+n) for every n,
    # and uniform) the loss was at most a quarter of this bound
    loss = np.finfo(float).eps * abs(-3.0 + 2.0 * an + an * an) * (2.0 + abs(alpha) + abs(an)) / abs(gap)
    assert discriminant(alpha, n, c0) == pytest.approx(4.0, abs=1e-10 + loss)


def test_json_round_trip():
    p = GrushinParams(0.5, 2, -0.3)
    assert GrushinParams.from_json_dict(p.to_json_dict()) == p
    d = indicial_data(GrushinParams(1.0, 1, 1.0))
    j = d.to_json_dict()
    assert j["lambda_plus"]["im"] == pytest.approx(math.sqrt(3.0))


def _lattice_resonance(alpha, mu):
    """The reference: look sqrt(mu) up in an enumerated Theta lattice."""
    if mu < 0.0:
        return False, None
    gap = math.sqrt(mu)
    w = theta_lattice(alpha, gap + 1.0).witness_for(gap, tol=1e-9 * max(1.0, gap))
    return w is not None, w


RATIONAL_ALPHAS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(
    alpha=RATIONAL_ALPHAS | st.floats(-0.85, 3.0),
    n=st.integers(1, 4),
    c=st.floats(-2.0, 2.0) | st.sampled_from([0.0, 0.125, -0.25, 3.0 / 16.0, -1.0 / 3.0]),
)
def test_closed_form_resonance_matches_lattice_random(alpha, n, c):
    p = GrushinParams(alpha, n, c)
    assert resonance(p) == _lattice_resonance(alpha, discriminant(alpha, n, c))


@settings(max_examples=300, deadline=None)
@given(
    alpha=RATIONAL_ALPHAS | st.floats(-0.8, 3.0),
    n=st.integers(1, 4),
    i=st.integers(0, 6),
    j=st.integers(0, 40),  # gaps past J_BLOCK take several blocks of j
)
def test_closed_form_resonance_matches_lattice_on_lattice_gaps(alpha, n, i, j):
    # choose c so that sqrt(mu) = (1+alpha) i + j; on rational lattices many
    # (i, j) give the same value and the witness must break the tie as Theta does
    an = alpha * n
    weight = 4.0 * an * (an + alpha + 2.0)
    if abs(weight) < 1e-3:
        return  # mu does not depend on c here
    gap = (1.0 + alpha) * i + j
    c = ((1.0 + an) ** 2 - gap**2) / weight
    flag, wit = resonance(GrushinParams(alpha, n, c))
    assert flag or gap == 0.0  # a double root can come out as mu = -1e-16
    assert (flag, wit) == _lattice_resonance(alpha, discriminant(alpha, n, c))


def test_classify_grid_matches_one_point_views():
    alpha = np.array([-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 2.7])[:, None, None]
    n = np.arange(1, 4)[None, :, None]
    c = np.linspace(-1.0, 1.0, 9)[None, None, :]
    g = classify_grid(alpha, n, c)
    assert g.mu.shape == (7, 3, 9) and g.witness.shape == (7, 3, 9, 2)
    for idx in np.ndindex(g.mu.shape):
        p = GrushinParams(float(alpha[idx[0], 0, 0]), int(n[0, idx[1], 0]), float(c[0, 0, idx[2]]))
        v, d, (flag, wit) = classify(p), indicial_data(p), resonance(p)
        assert (g.mu[idx], REGIMES[g.regime[idx]], VERDICTS[g.regime[idx]]) == (v.mu, v.regime, v.verdict)
        assert (g.lambda_plus[idx], g.lambda_minus[idx]) == (d.lambda_plus, d.lambda_minus)
        assert (bool(g.resonant[idx]), v.resonant, flag) == (wit is not None,) * 3
        assert tuple(g.witness[idx]) == (wit if flag else (-1, -1))


def test_discriminant_arrays_match_python_floats():
    # numpy squares arrays by x*x, Python floats by pow; they differ in the last
    # bit for about one value in a thousand, and the CLI bytes must not
    rng = np.random.default_rng(7)
    alpha, n, c = rng.uniform(-0.99, 3.0, 20000), rng.integers(1, 5, 20000), rng.uniform(-2.0, 2.0, 20000)
    expected = [discriminant(a, k, cc) for a, k, cc in zip(alpha.tolist(), n.tolist(), c.tolist())]
    assert discriminant(alpha, n, c).tolist() == expected


def test_critical_point_is_resonant():
    v = classify(GrushinParams(2.0, 1, forbidden_c(2.0, 1)))
    assert v.verdict == Verdict.CRITICAL_MU4_INDETERMINATE and v.resonant


def test_classify_grid_rejects_what_params_rejects():
    for alpha, n, c in [(-1.0, 1, 0.0), (math.nan, 1, 0.0), (1.0, 0, 0.0), (1.0, 1.5, 0.0),
                        (1.0, math.nan, 0.0), (1.0, 1, math.nan), (math.inf, 1, 0.0)]:
        with pytest.raises(ValueError):
            classify_grid(np.array([0.5, alpha]), n, c)


def test_near_singular_rows_have_bounded_cost():
    # at 1 + alpha = 1e-9 the Theta lattice below sqrt(mu) has ~1e10 elements;
    # the closed form visits each j once
    alpha = np.full((4, 9), -1.0 + 1e-9)
    n = np.arange(1, 5)[:, None]
    c = np.linspace(-2.0, 2.0, 9)[None, :]
    t0 = time.perf_counter()
    g = classify_grid(alpha, n, c)
    assert time.perf_counter() - t0 < 1.0
    step = 1.0 + alpha
    gap = np.sqrt(np.maximum(g.mu, 0.0))
    tol = 1e-9 * np.maximum(1.0, gap)
    i, j = g.witness[..., 0], g.witness[..., 1]
    hit = g.resonant
    assert hit.any()
    assert np.all(np.abs(step * i + j - gap)[hit] <= tol[hit])
    # the witness is the smallest (value, i) among all hits, found by brute force
    # over every i within 3 tol of each j's line
    for idx in zip(*np.nonzero(hit)):
        s, g0, t = step[idx], gap[idx], tol[idx]
        width = 3 * int(t / s) + 2
        hits = []
        for jj in range(int(g0 + t) + 1):
            mid = int((g0 - jj) / s)
            ii = np.arange(max(mid - width, 0), mid + width + 1)
            vals = s * ii + jj
            ok = (vals >= g0 - t) & (np.abs(vals - g0) <= t)
            hits += [(v, a, jj) for v, a in zip(vals[ok], ii[ok])]
        assert min(hits)[1:] == (i[idx], j[idx])
