import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grushin import deficiency
from grushin.params import GrushinParams, Verdict, classify, discriminant
from grushin.deficiency import (
    UnsupportedConfigurationError,
    START_EFOLDS,
    WINDOW_POINTS,
    aggregate_deficiency,
    classify_endpoint_zero,
    deficiency_counts,
    fit_local_exponent,
    log_envelope,
    mode_operator,
    numeric_deficiency_count,
    square_integrable_at_zero,
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
    assert set(deficiency_counts([(mode_operator(p, k), +1) for k in range(1, 9)])) == {1}
    p = GrushinParams(2.0, 1, 0.0)
    assert set(deficiency_counts([(mode_operator(p, k), +1) for k in range(1, 9)])) == {0}


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


WINDOW = np.linspace(-30.0, -10.0, 201)  # t = ln x


def _fit_count(log_abs):
    return int(square_integrable_at_zero(*fit_local_exponent(WINDOW, log_abs)))


def test_exponent_fit_can_disagree():
    # synthetic profiles with known exponents on both sides of -1/2
    assert _fit_count(-0.8 * WINDOW) == 0
    assert _fit_count(-0.2 * WINDOW) == 1


def test_log_envelope_does_not_oscillate_at_complex_roots():
    # u = x^{1/2} cos(nu ln x + phi), the real solution at roots 1/2 +- i nu, dips to 0
    # twice a period; each term of its envelope is nu x^{1/2} exactly
    nu, phi = 0.7, 0.3
    x = np.exp(WINDOW)
    u = np.sqrt(x) * np.cos(nu * WINDOW + phi)
    xu_prime = np.sqrt(x) * (0.5 * np.cos(nu * WINDOW + phi) - nu * np.sin(nu * WINDOW + phi))
    envelope = log_envelope(u, xu_prime, (0.5 + 1j * nu, 0.5 - 1j * nu))
    gamma, residual = fit_local_exponent(WINDOW, envelope)
    assert gamma == pytest.approx(0.5, abs=1e-10)
    assert residual < 1e-10
    # a single branch is removed by one factor and read by the other
    for lam in (0.3, -0.7):
        envelope = log_envelope(x**lam, lam * x**lam, (0.3, -0.7))
        assert fit_local_exponent(WINDOW, envelope)[0] == pytest.approx(lam, abs=1e-10)


def _spy_on_fits(monkeypatch):
    fits = []

    def spy(*args):
        fits.append((args, fit_local_exponent(*args)))
        return fits[-1][1]

    monkeypatch.setattr(deficiency, "fit_local_exponent", spy)
    return fits


@pytest.mark.parametrize(
    "alpha,n,c,k,gamma",
    [
        (0.5, 1, 0.0, 1.0, -0.25),  # limit circle: 1/2 - nu
        (2.0, 1, 0.0, 8.0, -1.0),  # limit point
        (1.0, 1, 1.0 / 3.0, 8.0, 0.5),  # complex exponents 1/2 +- i|nu|
        (1.0, 1, 1.0, 32.0, 0.5),
        # the window sits at x ~ e^{-70}; inward |u| falls like x^{1/2} over a
        # long stretch, so the solver must control the error relative to |u|
        (-0.85, 3, 1.8, 4.0, 0.5),
        (-0.5, 2, 0.0, 1.0, 0.5),  # nu^2 = 0: u ~ x^{1/2} ln x
    ],
)
def test_oracle_fits_the_local_exponent(monkeypatch, alpha, n, c, k, gamma):
    # the fitted exponent of the decaying solution, not only the count; at
    # large k the solution is nearly real and |u| dips toward 0, which its
    # envelope does not
    fits = _spy_on_fits(monkeypatch)
    numeric_deficiency_count(mode_operator(GrushinParams(alpha, n, c), k), +1)
    (_, (fitted, residual)), = fits
    assert fitted == pytest.approx(gamma, abs=1e-3)
    assert residual < 1e-4


@pytest.mark.parametrize(
    "alpha,n,c,k", [(0.5, 1, 0.0, 1.0), (2.0, 1, 0.0, 8.0), (1.0, 1, 1.0, 32.0), (-0.5, 2, 0.0, 1.0)]
)
def test_minus_sign_is_the_conjugate_solve(monkeypatch, alpha, n, c, k):
    # (op - i)u = 0 is the complex conjugate of (op + i)u = 0, so both signs fit the
    # same exponent and residual, bit for bit, and aggregate_deficiency solves only +1
    fits = _spy_on_fits(monkeypatch)
    op = mode_operator(GrushinParams(alpha, n, c), k)
    assert numeric_deficiency_count(op, +1) == numeric_deficiency_count(op, -1)
    (_, plus), (_, minus) = fits
    assert plus == minus


def test_critical_exponent_is_not_square_integrable():
    # x^{-1/2} is not L^2: the critical point mu = 4 counts 0, whatever k is
    assert _fit_count(-0.5 * WINDOW) == 0
    for k in (1.0, 8.0):
        op = mode_operator(GrushinParams(1.0, 1, 0.0), k)
        assert op.nu_squared == 1.0
        assert numeric_deficiency_count(op, +1) == 0
    # just inside mu < 4, and nu^2 = 0 where u ~ x^{1/2} ln x
    op = mode_operator(GrushinParams(1.0, 1, 0.0025), 1.0)
    assert op.nu_squared == pytest.approx(0.99)
    assert numeric_deficiency_count(op, +1) == 1
    op = mode_operator(GrushinParams(-0.5, 2, 0.0), 1.0)
    assert op.nu_squared == 0.0
    assert numeric_deficiency_count(op, +1) == 1


@pytest.mark.parametrize("alpha,k", [(-0.9, 32.0), (-0.99, 8.0)])
def test_counts_near_alpha_minus_one_and_large_k(alpha, k):
    # the fit window moves down to x ~ e^{-1150} at alpha = -0.99
    op = mode_operator(GrushinParams(alpha, 2, 0.0), k)
    assert numeric_deficiency_count(op, +1) == 1


def test_wkb_start_is_the_decaying_solution(monkeypatch):
    # alpha = 0, n = 1, c = 0: A = 0 and V = k^2, so WKB is exact and the decaying
    # solution is e^{-kappa x}; from u(X) = 1 it gains exactly START_EFOLDS e-folds
    # down to the window, where e^{-kappa x} ~ 1.  A start on the growing solution
    # gains about half as many.
    fits = _spy_on_fits(monkeypatch)
    p = GrushinParams(0.0, 1, 0.0)
    modes = [(mode_operator(p, k), sign) for k in (1, 2, 3, 8) for sign in (+1, -1)]
    assert deficiency_counts(modes) == [1] * len(modes)
    for (op, sign), ((_, log_abs), _) in zip(modes, fits):
        assert log_abs[0] == pytest.approx(START_EFOLDS, abs=0.5), (op.mode_strength, sign)


def _batch_matches_one_mode_calls(monkeypatch, params, ks):
    # (op - i)u = 0 is the complex conjugate of (op + i)u = 0, so a one-mode call
    # at sign +1 stands for both signs of the batch
    fits = _spy_on_fits(monkeypatch)
    ops = [mode_operator(params, k) for k in ks]
    batch = deficiency_counts([(op, sign) for op in ops for sign in (+1, -1)])
    batch_gammas = [gamma for _, (gamma, _) in fits]
    fits.clear()
    single = [numeric_deficiency_count(op, +1) for op in ops]
    single_gammas = [gamma for _, (gamma, _) in fits]
    assert batch == [count for count in single for _ in (+1, -1)], (params, ks)
    assert batch_gammas == pytest.approx([g for g in single_gammas for _ in (+1, -1)], abs=1e-5)


def test_batch_matches_one_mode_calls(monkeypatch):
    # one call integrates many modes, each on its own grid; each mode must still read
    # as alone
    rng = np.random.default_rng(9)
    draws = 0
    while draws < 6:
        alpha, n, c = rng.uniform(-0.95, 2.5), int(rng.integers(1, 4)), rng.uniform(-2.0, 2.0)
        if abs(discriminant(alpha, n, c) - 4.0) < 1e-3:
            continue
        draws += 1
        ks = sorted(int(k) for k in rng.choice(np.arange(1, 33), size=3, replace=False))
        _batch_matches_one_mode_calls(monkeypatch, GrushinParams(alpha, n, c), ks)


def test_batch_with_far_apart_windows_matches_one_mode_calls(monkeypatch):
    # at alpha = -0.99 the windows of k = 1..8 lie up to ~200 apart in ln x, so
    # some modes are read while others are still far from their windows
    _batch_matches_one_mode_calls(monkeypatch, GrushinParams(-0.99, 2, 0.0), range(1, 9))


def test_batch_bridges_a_gap_between_windows(monkeypatch):
    # modes of different operators may share a batch; the alpha = 2 mode's window ends
    # at ln x ~ -29, long before the alpha = -0.99 mode starts near -60, and each
    # mode is integrated exactly as alone
    fits = _spy_on_fits(monkeypatch)
    ops = [mode_operator(GrushinParams(2.0, 1, 0.0), 1), mode_operator(GrushinParams(-0.99, 2, 0.0), 1)]
    assert deficiency_counts([(op, +1) for op in ops]) == [0, 1]
    batch = [fit for _, fit in fits]
    fits.clear()
    assert [numeric_deficiency_count(op, +1) for op in ops] == [0, 1]
    assert batch == [fit for _, fit in fits]


def test_mixed_batch_matches_one_mode_calls_bit_for_bit(monkeypatch):
    # every mode's step grid depends on that mode alone, so a batch of different
    # operators and both signs, more than one BLOCK of them, fits each mode exactly
    # as its one-mode call does
    rng = np.random.default_rng(14)
    modes = []
    while len(modes) < deficiency.BLOCK + 6:
        alpha, n, c = rng.uniform(-0.95, 2.5), int(rng.integers(1, 4)), rng.uniform(-2.0, 2.0)
        if abs(discriminant(alpha, n, c) - 4.0) < 1e-3:
            continue
        op = mode_operator(GrushinParams(alpha, n, c), rng.uniform(0.5, 40.0))
        modes.append((op, int(rng.choice([1, -1]))))
    fits = _spy_on_fits(monkeypatch)
    batch = deficiency_counts(modes)
    batch_fits = [fit for _, fit in fits]
    fits.clear()
    assert batch == [numeric_deficiency_count(op, sign) for op, sign in modes]
    assert batch_fits == [fit for _, fit in fits]


def test_empty_batch_counts_nothing():
    assert deficiency_counts([]) == []


def test_integrator_reads_the_closed_form_exponent(monkeypatch):
    # the decaying solution is L^2-dominated at 0 by x^{1/2 - |Re nu|}; a step rule that
    # lets one step cross from the coupling region into the window misses it by ~1e-4.
    # Real 0 < nu < 0.25 is left out: there the subdominant branch x^{1/2 + nu} still
    # tilts the window's fit by up to ~4e-4, whatever the integrator
    fits = _spy_on_fits(monkeypatch)
    rng = np.random.default_rng(12)
    draws = 0
    while draws < 300:
        alpha, n, c = rng.uniform(-0.95, 2.5), int(rng.integers(1, 4)), rng.uniform(-2.0, 2.0)
        k = rng.uniform(0.5, 40.0)
        nu = np.sqrt(complex(discriminant(alpha, n, c) / 4.0))
        if abs(nu) < 0.1 or 0.0 < nu.real < 0.25:
            continue
        draws += 1
        numeric_deficiency_count(mode_operator(GrushinParams(alpha, n, c), k), +1)
        (_, (gamma, _)), = fits
        fits.clear()
        assert gamma == pytest.approx(0.5 - abs(nu.real), abs=2e-5), (alpha, n, c, k)


@pytest.mark.parametrize("alpha", [-0.99, -0.999])
def test_cost_is_bounded_near_alpha_minus_one(monkeypatch, alpha):
    # the fit windows lie up to ~1e4 units of ln x below the starts; where p barely
    # changes a Magnus step is long and exact, so the steps stay bounded.  One
    # _magnus_step call makes many propagators, one per element of h, padding
    # included; every mode also reads its WINDOW_POINTS samples with one each
    propagators = []
    step = deficiency._magnus_step

    def counting(*args):
        propagators.append(np.size(args[1]))
        return step(*args)

    monkeypatch.setattr(deficiency, "_magnus_step", counting)
    rep = aggregate_deficiency(GrushinParams(alpha, 2, 0.5), 8)
    assert rep.aggregate == "infinite"
    assert all(cp == cm == 2 for _, cp, cm in rep.per_mode)
    assert sum(propagators) - 8 * WINDOW_POINTS <= 8 * 1000
