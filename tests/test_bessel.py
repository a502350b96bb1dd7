import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grushin.bessel import (
    BesselModelOp,
    bessel_I,
    bessel_I_scaled,
    bessel_I_tilde,
    bessel_K,
    bessel_K_scaled,
    bessel_K_tilde,
    conjugate_by_weight,
    critical_delta,
    has_kernel_in_weighted_L2,
    kernel_solutions,
    weighted_L2_membership_oracle,
)
from grushin.deficiency import WINDOW_POINTS

mp.mp.dps = 50


def series_I_oracle(x: float, nu: float, terms: int = 50) -> float:
    """Independent extended-precision ascending series for I(x, nu)."""
    with mp.workdps(50):
        s = mp.mpf(0)
        for m in range(terms):
            s += (mp.mpf(x) / 2) ** (2 * m + nu) / (mp.factorial(m) * mp.gamma(nu + m + 1))
        return float(s)


def quad_K_oracle(x: float, nu: float) -> float:
    """Independent quadrature of K(x, nu) = int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The tail beyond cosh(T) = 1 + 120/x is below e^{-120} relative and is
    dropped; tanh-sinh on the finite interval is then fast and accurate.
    """
    with mp.workdps(30):
        T = mp.acosh(1 + 120 / mp.mpf(x))
        val = mp.quad(lambda t: mp.e ** (-x * mp.cosh(t)) * mp.cosh(nu * t), [0, T])
        return float(val)


def test_I_at_1_order_0():
    assert series_I_oracle(1.0, 0.0) == pytest.approx(1.2660658777520084, rel=1e-15)
    assert bessel_I(1.0, 0.0) == pytest.approx(1.2660658777520084, rel=1e-12)


def test_K_at_1_order_0():
    assert quad_K_oracle(1.0, 0.0) == pytest.approx(0.4210244382407084, rel=1e-14)
    assert bessel_K(1.0, 0.0) == pytest.approx(0.4210244382407084, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_I(0.0, 1.0)
    with pytest.raises(ValueError):
        bessel_K(-1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_I_tilde(1.0, -0.5)


def test_real_order_accuracy_grid():
    rng = np.random.default_rng(3)
    for _ in range(60):
        x = 10 ** rng.uniform(-4, np.log10(50))
        nu = rng.uniform(0, 10)
        assert bessel_I(x, nu) == pytest.approx(series_I_oracle(x, nu, terms=120), rel=1e-10)
        assert bessel_K(x, nu) == pytest.approx(quad_K_oracle(x, nu), rel=1e-10)


def test_imaginary_order_accuracy_grid():
    rng = np.random.default_rng(4)
    for _ in range(80):
        x = 10 ** rng.uniform(-4, np.log10(50))
        nu = rng.uniform(0.0, 10.0)
        it = bessel_I_tilde(x, nu)
        kt = bessel_K_tilde(x, nu)
        ref_i = float(mp.re(mp.besseli(1j * nu, x))) if nu else float(mp.besseli(0, x))
        ref_k = float(mp.re(mp.besselk(1j * nu, x))) if nu else float(mp.besselk(0, x))
        assert it == pytest.approx(ref_i, rel=1e-10, abs=1e-280)
        assert kt == pytest.approx(ref_k, rel=1e-10, abs=1e-280)


def test_scaled_variants():
    # e^{-x} I and e^{x} K stay finite deep in the overflow range
    v = bessel_I_scaled(800.0, 0.5)
    assert 0 < v < 1
    assert v == pytest.approx(float(mp.besseli(0.5, 800) * mp.e**-800), rel=1e-10)
    v = bessel_K_scaled(800.0, 0.5)
    assert v == pytest.approx(float(mp.besselk(0.5, 800) * mp.e**800), rel=1e-10)
    v = bessel_I_scaled(500.0, 2.0, imaginary_order=True)
    assert v == pytest.approx(float(mp.re(mp.besseli(2j, 500)) * mp.e**-500), rel=1e-10)
    v = bessel_K_scaled(500.0, 2.0, imaginary_order=True)
    assert v == pytest.approx(float(mp.re(mp.besselk(2j, 500)) * mp.e**500), rel=1e-10)


def test_trapezoid_route_matches_mpmath():
    # K_mu for mu = sigma + i nu right of the 2x = pi nu line and below x = 400, where
    # the trapezoidal rule runs, within 1e-13 relative of the multiprecision value
    from grushin.bessel import _kv_complex

    rng = np.random.default_rng(18)
    for _ in range(200):
        sigma, nu = float(rng.integers(0, 2)), rng.uniform(0.0, 12.5)
        low = max(math.pi * nu / 2.0, 1e-3)
        x = float(low * (400.0 / low) ** rng.uniform(0.0, 1.0))
        assert math.pi * nu < 2.0 * x < 800.0
        got = complex(_kv_complex(complex(sigma, nu), x))
        with mp.workdps(30):
            want = complex(mp.besselk(mp.mpc(sigma, nu), x))
        assert abs(got - want) <= 1e-13 * abs(want), (sigma, nu, x, got, want)


def test_series_asymptotics_overlap():
    # the two internal routes agree where both are valid
    from grushin.bessel import _iv_series, _asympt_coeffs

    for nu in (0.5, 3.0, 9.0):
        for x in (395.0, 405.0):
            series = _iv_series(1j * nu, x) * math.exp(-x)
            asym = _asympt_coeffs(1j * nu, x, signs=True) / math.sqrt(2 * math.pi * x)
            assert abs(series - asym) <= 1e-9 * abs(asym)


def test_wronskian_real_order():
    from grushin.bessel import _bessel_I_deriv, _bessel_K_deriv

    x, nu = 2.0, 0.75
    w = bessel_I(x, nu) * _bessel_K_deriv(x, nu, False) - _bessel_I_deriv(x, nu, False) * bessel_K(x, nu)
    assert w == pytest.approx(-0.5, abs=1e-10)


def test_wronskian_imaginary_order():
    from grushin.bessel import _bessel_I_deriv, _bessel_K_deriv

    for x, nu in [(0.3, 1.5), (2.0, 0.75), (7.0, 4.0)]:
        w = bessel_I_tilde(x, nu) * _bessel_K_deriv(x, nu, True) - _bessel_I_deriv(
            x, nu, True
        ) * bessel_K_tilde(x, nu)
        assert w == pytest.approx(-1.0 / x, rel=1e-9)


def test_kernel_halfinteger_closed_form():
    # (a=0, b=0, h=1, beta=1): u2(x) = sqrt(x) K(x, 1/2) = sqrt(pi/2) e^{-x}
    pair = kernel_solutions(BesselModelOp(a=0.0, b=0.0, h=1.0, beta=1.0))
    assert pair.order_kind == "real"
    assert pair.nu == pytest.approx(0.5)
    for x in (0.2, 1.0, 3.0):
        assert pair.u2(x) == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-x), rel=1e-12)


def test_kernel_flat_grushin_mode():
    # a=-1, b=0, h=k^2, beta=2: nu = 1/2, u1 = x I(k x^2/2, 1/2)
    k = 3.0
    pair = kernel_solutions(BesselModelOp(a=-1.0, b=0.0, h=k * k, beta=2.0))
    assert pair.nu == pytest.approx(0.5)
    for x in (0.3, 1.1):
        assert pair.u1(x) == pytest.approx(x * bessel_I(k * x * x / 2.0, 0.5), rel=1e-12)


def test_kernel_imaginary_order_oscillation():
    # a=1, b=1, h=1, beta=1: nu=1, u2 = Ktilde(x, 1); near zero the solution
    # is log-periodic with frequency nu and the amplitude from the known
    # asymptotics; fit amplitude and frequency only.
    pair = kernel_solutions(BesselModelOp(a=1.0, b=1.0, h=1.0, beta=1.0))
    assert pair.order_kind == "imaginary"
    assert pair.nu == pytest.approx(1.0)
    xs = np.geomspace(1e-7, 1e-5, 200)
    ys = np.array([pair.u2(float(x)) for x in xs])
    nu = 1.0
    phase = nu * np.log(xs / 2.0)
    design = np.column_stack([np.sin(phase), np.cos(phase)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fit = design @ coef
    assert np.max(np.abs(fit - ys)) <= 1e-6 * np.max(np.abs(ys))
    amplitude = math.hypot(*coef)
    expected = math.sqrt(math.pi * nu / math.sinh(math.pi * nu))
    assert amplitude == pytest.approx(expected, rel=1e-4)


def test_kernel_matches_independent_integration():
    # integrate T u = 0 as an ODE from x = 1 down to 1e-5 and compare with the
    # closed form along the way; this checks the global (phase-accurate)
    # consistency of the oscillatory imaginary-order solution
    from scipy.integrate import solve_ivp

    op = BesselModelOp(a=1.0, b=1.0, h=1.0, beta=1.0)
    pair = kernel_solutions(op)

    def rhs(x, y):
        u, du = y
        ddu = -(op.a * x * du + (op.b - op.h * x ** (2 * op.beta)) * u) / (x * x)
        return [du, ddu]

    x0 = 1.0
    y0 = [pair.u2(x0), pair.du("u2", x0)]
    checkpoints = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    sol = solve_ivp(rhs, (x0, 1e-5), y0, method="RK45", rtol=1e-11, atol=1e-14,
                    t_eval=checkpoints)
    assert sol.success
    for x, u_num in zip(sol.t, sol.y[0]):
        assert u_num == pytest.approx(pair.u2(float(x)), rel=1e-7)


def _random_ops(rng, count):
    ops = []
    while len(ops) < count:
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        h = 10 ** rng.uniform(-1, 1)
        beta = rng.uniform(0.4, 2.5)
        op = BesselModelOp(a=a, b=b, h=h, beta=beta)
        if op.nu > 12.0:
            continue
        ops.append(op)
    return ops


def test_ode_residual_random_ops():
    rng = np.random.default_rng(5)
    xs = np.geomspace(0.1, 5.0, 12)
    for op in _random_ops(rng, 40):
        pair = kernel_solutions(op)
        for which in ("u1", "u2"):
            for x in xs:
                x = float(x)
                u = pair.u(which, x)
                du = pair.du(which, x)
                ddu = pair.ddu(which, x)
                scale = abs(x * x * ddu) + abs(op.a * x * du) + abs(
                    (op.b - op.h * x ** (2 * op.beta)) * u
                )
                if not math.isfinite(scale) or scale == 0.0:
                    continue
                res = pair.residual(which, x)
                assert abs(res) <= 1e-8 * scale, (op, which, x, res, scale)


def test_conjugation_examples():
    op = BesselModelOp(a=0.0, b=0.0, h=1.0, beta=1.0)
    out = conjugate_by_weight(op, 1.0)
    assert (out.a, out.b) == (2.0, 0.0)
    out = conjugate_by_weight(op, 0.0)
    assert (out.a, out.b) == (0.0, 0.0)
    out = conjugate_by_weight(BesselModelOp(a=-1.0, b=0.0, h=1.0, beta=1.0), 2.0)
    assert (out.a, out.b) == (3.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    d1=st.floats(-2, 2),
    d2=st.floats(-2, 2),
)
def test_conjugation_group_law(a, b, d1, d2):
    op = BesselModelOp(a=a, b=b, h=1.0, beta=1.0)
    once = conjugate_by_weight(conjugate_by_weight(op, d1), d2)
    direct = conjugate_by_weight(op, d1 + d2)
    assert once.a == pytest.approx(direct.a, rel=1e-12, abs=1e-12)
    assert once.b == pytest.approx(direct.b, rel=1e-12, abs=1e-9)


def test_conjugation_matches_indicial_shift():
    # x^{-delta} T x^{delta} acting on x^s has indicial polynomial p(s + delta)
    op = BesselModelOp(a=0.7, b=-0.4, h=1.0, beta=1.0)
    delta = 1.3
    conj = conjugate_by_weight(op, delta)

    def indicial(o, s):
        return s * (s - 1.0) + o.a * s + o.b

    for s in (-1.0, 0.5, 2.0):
        assert indicial(conj, s) == pytest.approx(indicial(op, s + delta), rel=1e-12)


def test_kernel_predicate_examples():
    assert has_kernel_in_weighted_L2(BesselModelOp(0.0, 0.0, 1.0, 1.0, delta=0.0))
    assert not has_kernel_in_weighted_L2(BesselModelOp(0.0, 0.0, 1.0, 1.0, delta=1.0))


def test_flat_grushin_always_injective():
    # a = -alpha n, b = c alpha n(alpha n + alpha + 2), delta = 2 + alpha n / 2:
    # Re(lambda_minus) - delta <= -3/2 for all admissible parameters
    rng = np.random.default_rng(6)
    for _ in range(200):
        alpha = rng.uniform(-0.99, 4.0)
        n = int(rng.integers(1, 5))
        c = rng.uniform(-3.0, 3.0)
        an = alpha * n
        op = BesselModelOp(
            a=-an, b=c * an * (an + alpha + 2.0), h=1.0, beta=1.0 + alpha, delta=2.0 + an / 2.0
        )
        assert not has_kernel_in_weighted_L2(op)
        lam_minus = min(op.indicial_roots(), key=lambda z: z.real)
        assert lam_minus.real - op.delta <= -1.5 + 1e-12


def test_h_zero_redirects():
    with pytest.raises(ValueError, match="indicial"):
        kernel_solutions(BesselModelOp(a=0.0, b=0.0, h=0.0, beta=1.0))


def test_membership_oracle_examples():
    base = BesselModelOp(a=0.0, b=0.0, h=1.0, beta=1.0, delta=0.0)
    assert weighted_L2_membership_oracle(base, "u2") == "true"
    assert weighted_L2_membership_oracle(base, "u1") == "false"  # e^x growth
    far = BesselModelOp(a=0.0, b=0.0, h=1.0, beta=1.0, delta=3.0)
    assert weighted_L2_membership_oracle(far, "u2") == "false"


def test_threshold_single_crossing_and_h_independence():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        beta = rng.uniform(0.5, 2.0)
        crossings = []
        for h in (0.1, 1.0, 10.0):
            lo, hi = -8.0, 8.0
            op = lambda d: BesselModelOp(a=a, b=b, h=h, beta=beta, delta=d)
            assert has_kernel_in_weighted_L2(op(lo))
            assert not has_kernel_in_weighted_L2(op(hi))
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if has_kernel_in_weighted_L2(op(mid)):
                    lo = mid
                else:
                    hi = mid
            crossings.append(0.5 * (lo + hi))
        assert max(crossings) - min(crossings) <= 1e-6
        assert crossings[0] == pytest.approx(
            critical_delta(BesselModelOp(a=a, b=b, h=1.0, beta=beta)), abs=1e-8
        )


def test_kernel_predicate_monotone_in_delta():
    # true -> false exactly once as delta increases
    rng = np.random.default_rng(9)
    for _ in range(20):
        op = _random_ops(rng, 1)[0]
        flags = [
            has_kernel_in_weighted_L2(BesselModelOp(op.a, op.b, op.h, op.beta, delta=d))
            for d in np.linspace(-8, 8, 161)
        ]
        flips = sum(1 for f, g in zip(flags, flags[1:]) if f != g)
        assert flags[0] and not flags[-1] and flips == 1


def test_oracle_predicate_agreement_sample():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 25:
        op = _random_ops(rng, 1)[0]
        delta = critical_delta(op) + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
        op = BesselModelOp(op.a, op.b, op.h, op.beta, delta=delta)
        verdict = weighted_L2_membership_oracle(op, "u2")
        if verdict == "inconclusive":
            continue
        checked += 1
        assert (verdict == "true") == has_kernel_in_weighted_L2(op), op


@pytest.mark.parametrize(
    "a,b,h,beta",
    [
        (0.3, -0.5, 2.0, 1.3),  # real order
        (1.0, 0.0, 1.0, 0.7),  # mu_op = 0: real order nu = 0
        (1.0, 4.0, 0.5, 0.8),  # imaginary order nu = 2.5
        (-1.0, 9.0, 3.0, 1.6),  # imaginary order nu = 1.25
    ],
)
def test_kernel_array_matches_scalar_calls(a, b, h, beta):
    # u, u' and u'' on an x-array equal the scalar calls bit for bit.  The
    # Bessel arguments s run from 1e-3 to 600, so at imaginary order they
    # cover the series and reflected K left of the 2s = pi nu line, the
    # quadrature right of it, and the asymptotic series from s = 400
    pair = kernel_solutions(BesselModelOp(a=a, b=b, h=h, beta=beta))
    line = math.pi * pair.nu / 2.0 or 1.0  # the 2s = pi nu line (any s at nu = 0)
    s = np.concatenate([np.geomspace(1e-3, 600.0, 21), [0.9 * line, 1.1 * line, 401.0]])
    xs = ((s / pair.argument_scale) ** (1.0 / beta)).reshape(6, 4)
    s = pair.argument_scale * xs**beta
    if pair.order_kind == "imaginary":
        assert (s < line).any() and ((s > line) & (s < 400.0)).any() and (s >= 400.0).any()
    for which in ("u1", "u2"):
        for name in ("u", "du", "ddu"):
            fn = getattr(pair, name)
            got = fn(which, xs)
            assert got.shape == xs.shape
            want = np.array([fn(which, float(x)) for x in xs.ravel()]).reshape(xs.shape)
            np.testing.assert_array_equal(got, want, err_msg=f"{which} {name}")


def test_membership_oracle_evaluates_u_in_two_array_calls(monkeypatch):
    # the infinity probe is one array call of u, and the fit window one of u and one of du
    from grushin.bessel import KernelSolutionPair

    calls = []
    for name in ("u", "du"):
        original = getattr(KernelSolutionPair, name)

        def counting(self, which, x, name=name, original=original):
            calls.append((name, np.shape(x)))
            return original(self, which, x)

        monkeypatch.setattr(KernelSolutionPair, name, counting)
    for op in (BesselModelOp(0.5, -1.0, 2.0, 1.2, delta=0.5), BesselModelOp(1.0, 1.0, 1.0, 1.0)):
        calls.clear()
        weighted_L2_membership_oracle(op, "u2")
        assert calls == [("u", (2,)), ("u", (WINDOW_POINTS,)), ("du", (WINDOW_POINTS,))]


def _with_delta(op, delta):
    return BesselModelOp(op.a, op.b, op.h, op.beta, delta=delta)


def _op_of_order(rng, nu, imaginary=False):
    """A criterion-5-style operator whose Bessel order is nu, or i nu."""
    a, h, beta = rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-1, 1), rng.uniform(0.4, 2.5)
    mu_op = (2.0 * beta * nu) ** 2 * (-1.0 if imaginary else 1.0)
    return BesselModelOp(a=a, b=((a - 1.0) ** 2 - mu_op) / 4.0, h=h, beta=beta)


def _decided_and_right(op):
    verdict = weighted_L2_membership_oracle(op, "u2")
    return verdict != "inconclusive" and (verdict == "true") == has_kernel_in_weighted_L2(op)


def test_membership_oracle_decides_small_imaginary_orders():
    # |u| of an imaginary order oscillates with period pi/(nu beta) in ln x, longer
    # than any window here; the envelope does not oscillate at all
    rng = np.random.default_rng(11)
    for _ in range(200):
        op = _op_of_order(rng, rng.uniform(0.01, 0.05), imaginary=True)
        assert op.mu_op < 0 and 0.0099 < op.nu < 0.0501
        op = _with_delta(op, critical_delta(op) + rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 1.25))
        assert _decided_and_right(op), op


def test_membership_oracle_is_inconclusive_within_borderline_tol():
    rng = np.random.default_rng(12)
    for op in _random_ops(rng, 300):
        op = _with_delta(op, critical_delta(op) + rng.uniform(-1e-3, 1e-3))
        assert weighted_L2_membership_oracle(op, "u2") == "inconclusive", op


def test_membership_oracle_decides_small_margins():
    rng = np.random.default_rng(13)
    for op in _random_ops(rng, 300):
        margin = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1e-2)
        assert _decided_and_right(_with_delta(op, critical_delta(op) + margin)), op


def _spy_on_gammas(monkeypatch):
    from grushin import bessel

    gammas = []
    fit = bessel.fit_local_exponent

    def spy(*args):
        gamma, residual = fit(*args)
        gammas.append(gamma)
        return gamma, residual

    monkeypatch.setattr(bessel, "fit_local_exponent", spy)
    return gammas


def test_membership_oracle_at_and_near_a_double_root(monkeypatch):
    # mu_op = 0: u2 ~ x^{(1-a)/2} ln x, and the envelope reads its exponent exactly.
    # Real 0 < nu <= 0.005: the branches x^{(1-a)/2 -+ nu beta} have not separated
    # above the underflow floor and the exponent is biased, but never past 2e-3
    gammas = _spy_on_gammas(monkeypatch)
    rng = np.random.default_rng(14)
    for _ in range(100):
        op = _op_of_order(rng, 0.0)
        assert op.mu_op == 0.0
        gammas.clear()
        assert _decided_and_right(_with_delta(op, critical_delta(op) + rng.choice([-2e-3, 2e-3]))), op
        assert gammas == [pytest.approx((1.0 - op.a) / 2.0, abs=1e-10)]
    for _ in range(100):
        op = _op_of_order(rng, rng.uniform(1e-6, 0.005))
        op = _with_delta(op, critical_delta(op) + rng.choice([-2e-3, 2e-3]))
        verdict = weighted_L2_membership_oracle(op, "u2")
        assert verdict == "inconclusive" or (verdict == "true") == has_kernel_in_weighted_L2(op), op


def test_membership_oracle_can_disagree(monkeypatch):
    # a u with exponent -0.8 near 0 (and decaying at infinity) is not L^2 there,
    # whatever the closed form of the operator says
    from grushin.bessel import KernelSolutionPair

    monkeypatch.setattr(KernelSolutionPair, "u", lambda self, which, x: x**-0.8)
    monkeypatch.setattr(KernelSolutionPair, "du", lambda self, which, x: -0.8 * x**-1.8)
    op = BesselModelOp(a=0.0, b=0.0, h=1.0, beta=1.0)
    assert has_kernel_in_weighted_L2(op)
    assert weighted_L2_membership_oracle(op, "u2") == "false"


@pytest.mark.parametrize(
    "a,b,h,beta",
    [
        (1.0, -3600.0, 0.1, 2.5),  # real order nu = 24, Gamma(25) ~ e^54
        (1.0, 400.0, 1.0, 1.0),  # imaginary order nu = 20
        (1.0, 2500.0, 1.0, 1.0),  # imaginary order nu = 50
    ],
)
def test_membership_oracle_stays_in_range_at_large_orders(monkeypatch, a, b, h, beta):
    # the window leaves room for the constant of the largest Bessel factor, and
    # its top keeps the Bessel argument small enough for the indicial branches
    gammas = _spy_on_gammas(monkeypatch)
    op = BesselModelOp(a=a, b=b, h=h, beta=beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in (-0.5, 0.5):
            assert _decided_and_right(_with_delta(op, critical_delta(op) + side))
    lam_minus = min(r.real for r in op.indicial_roots())
    assert gammas == [pytest.approx(lam_minus, abs=1e-9)] * 2


def test_membership_oracle_is_inconclusive_on_a_poor_fit(monkeypatch):
    # u = x^{-0.49} e^{0.3 sin ln x} has no exponent the line fit can trust: the
    # residual exceeds the distance of the fitted one from -1/2
    from grushin.bessel import KernelSolutionPair

    def u(self, which, x):
        return x**-0.49 * np.exp(0.3 * np.sin(np.log(x)))

    def du(self, which, x):
        return u(self, which, x) / x * (-0.49 + 0.3 * np.cos(np.log(x)))

    monkeypatch.setattr(KernelSolutionPair, "u", u)
    monkeypatch.setattr(KernelSolutionPair, "du", du)
    op = BesselModelOp(a=0.0, b=0.0, h=1.0, beta=1.0)
    assert weighted_L2_membership_oracle(op, "u2") == "inconclusive"


def test_membership_oracle_stays_in_range_on_criterion_5_draws():
    # criterion 5's seeded draws and 2000 more: a window that let x, s or a power
    # in u or u' over- or underflow would warn, and fail here
    rng = np.random.default_rng(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in _random_ops(rng, 2500):
            delta = critical_delta(op) + float(rng.choice([-1.0, 1.0])) * rng.uniform(0.25, 1.25)
            assert _decided_and_right(_with_delta(op, delta)), op


@pytest.mark.parametrize("b", [-0.5, 4.0])  # real and imaginary order
def test_kernel_rejects_an_underflowed_bessel_argument(b):
    # x^beta underflows to 0 at x = 1e-200, beta = 2: u, u' and u'' refuse
    # the point, alone or in an array, instead of returning inf or nan
    pair = kernel_solutions(BesselModelOp(a=1.0, b=b, h=1.0, beta=2.0))
    for name in ("u", "du", "ddu"):
        fn = getattr(pair, name)
        for x in (1e-200, np.array([0.5, 1e-200])):
            with pytest.raises(ValueError, match="must be > 0"):
                fn("u2", x)
