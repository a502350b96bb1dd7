import math

import numpy as np
import pytest

from grushin.params import GrushinParams
from grushin.extensions import (
    BoundaryJet,
    CheckFailedError,
    ExtensionSpec,
    asymmetry_form,
    extension_hypotheses,
    family_relations_residual,
    greens_identity_check,
    h_function,
    lagrangian_from_unitary,
    maximality_witness,
    named_family,
    realize_jet,
)

MU_NEG = GrushinParams(1.0, 1, 1.0)  # mu = -12
MU_POS = GrushinParams(0.5, 1, 0.0)  # mu = 2.25


def random_jet(modes, rng) -> BoundaryJet:
    jet = BoundaryJet.zero(modes)
    jet.coeffs[:] = rng.normal(size=jet.coeffs.shape) + 1j * rng.normal(size=jet.coeffs.shape)
    return jet


def test_asymmetry_form_examples():
    u = BoundaryJet.single_mode(1, r_plus=1.0)
    assert asymmetry_form(u, u, MU_NEG) == pytest.approx(1j * math.sqrt(12.0))

    # a_+ = a_- on every mode: norms cancel
    v = BoundaryJet.single_mode(1, r_plus=0.3 + 1j, r_minus=0.3 + 1j, l_plus=-2.0, l_minus=-2.0)
    assert asymmetry_form(v, v, MU_NEG) == pytest.approx(0.0, abs=1e-14)

    u = BoundaryJet.single_mode(2, r_minus=1.0)
    v = BoundaryJet.single_mode(2, r_plus=1.0)
    assert asymmetry_form(u, v, MU_POS) == pytest.approx(1.0)


def test_asymmetry_form_regime_errors():
    u = BoundaryJet.single_mode(1, r_plus=1.0)
    with pytest.raises(ValueError, match="self-adjoint"):
        asymmetry_form(u, u, GrushinParams(2.0, 1, 0.0))  # mu = 9
    with pytest.raises(ValueError, match="mode"):
        asymmetry_form(u, BoundaryJet.zero([1, 2]), MU_NEG)


def test_asymmetry_antisymmetry():
    rng = np.random.default_rng(0)
    modes = [0, 1, -1, 2]
    for params in (MU_NEG, MU_POS):
        for _ in range(50):
            u, v = random_jet(modes, rng), random_jet(modes, rng)
            assert asymmetry_form(u, v, params) == pytest.approx(
                -np.conj(asymmetry_form(v, u, params)), rel=1e-12, abs=1e-12
            )


def test_quadratic_form_signature():
    # mu_neg: omega(u, u) is purely imaginary; mu_pos: (i/2)(|A1|^2 - |A2|^2) form
    rng = np.random.default_rng(1)
    for _ in range(25):
        u = random_jet([0, 1], rng)
        w = asymmetry_form(u, u, MU_NEG)
        assert abs(w.real) <= 1e-12 * abs(w + 1e-300)
        A1, A2 = u.vectors_A()
        w = asymmetry_form(u, u, MU_POS)
        ref = 0.5j * (np.sum(np.abs(A1) ** 2) - np.sum(np.abs(A2) ** 2))
        assert w == pytest.approx(complex(ref), rel=1e-12, abs=1e-12)


def test_lagrangian_identity_unitary():
    spec = ExtensionSpec(regime="mu_neg", U=np.eye(2))
    constraint = lagrangian_from_unitary(spec)
    good = BoundaryJet.single_mode(1, r_plus=2.0, r_minus=2.0, l_plus=-1j, l_minus=-1j)
    assert constraint.satisfied(good)
    bad = BoundaryJet.single_mode(1, r_plus=1.0)
    assert not constraint.satisfied(bad)


def test_lagrangian_mu_pos_identity_is_friedrichs():
    # U = Id in the mu_pos coordinates forces a_- = 0
    spec = named_family(1)
    constraint = lagrangian_from_unitary(spec)
    jet = BoundaryJet.single_mode(1, r_plus=1.3, l_plus=-2j)
    assert constraint.satisfied(jet)
    jet = BoundaryJet.single_mode(1, r_plus=1.3, r_minus=0.1)
    assert not constraint.satisfied(jet)


def test_lagrangian_minus_identity_is_neumann():
    spec = named_family(5, Gamma=np.zeros((2, 2)))
    assert np.allclose(spec.U, -np.eye(2))
    constraint = lagrangian_from_unitary(spec)
    jet = BoundaryJet.single_mode(1, r_minus=1.0, l_minus=2j)
    assert constraint.satisfied(jet)
    jet = BoundaryJet.single_mode(1, r_plus=1.0)
    assert not constraint.satisfied(jet)


def test_family_examples():
    spec = named_family(2, gamma=0.0)
    assert np.allclose(spec.U, np.diag([-1.0, 1.0]))

    spec = named_family(4, gamma=0.0, b=1.0)
    assert np.allclose(spec.U, np.array([[0.0, -1.0], [-1.0, 0.0]]))


def _family_draw(kind, rng):
    if kind == 1:
        return {}
    if kind in (2, 3):
        return {"gamma": float(rng.normal())}
    if kind == 4:
        return {"gamma": float(rng.normal()), "b": complex(rng.normal(), rng.normal())}
    herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return {"Gamma": herm + herm.conj().T}


@pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
def test_families_unitary_and_equivalent(kind):
    rng = np.random.default_rng(10 + kind)
    modes = [0, 1, -1]
    for _ in range(20):
        draw = _family_draw(kind, rng)
        spec = named_family(kind, **draw)
        U = spec.U
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-12
        constraint = lagrangian_from_unitary(spec)
        # graph constraint => listed relations
        for _ in range(25):
            jet = constraint.random_jet(modes, rng)
            assert family_relations_residual(kind, jet, **draw) <= 1e-9 * (
                1.0 + float(np.max(np.abs(jet.coeffs)))
            )
        # listed relations => graph constraint
        for _ in range(25):
            jet = _jet_from_relations(kind, draw, modes, rng)
            assert constraint.satisfied(jet, tol=1e-9)


def _jet_from_relations(kind, draw, modes, rng):
    jet = BoundaryJet.zero(modes)
    m = len(jet.modes)
    z1 = rng.normal(size=m) + 1j * rng.normal(size=m)
    z2 = rng.normal(size=m) + 1j * rng.normal(size=m)
    if kind == 1:
        jet.coeffs[:, 0], jet.coeffs[:, 2] = z1, z2
    elif kind == 2:
        jet.coeffs[:, 1] = z1  # a^r_-
        jet.coeffs[:, 0] = draw["gamma"] * z1
        jet.coeffs[:, 2] = z2  # a^l_+ free, a^l_- = 0
    elif kind == 3:
        jet.coeffs[:, 3] = z1  # a^l_-
        jet.coeffs[:, 2] = draw["gamma"] * z1
        jet.coeffs[:, 0] = z2  # a^r_+ free, a^r_- = 0
    elif kind == 4:
        jet.coeffs[:, 3] = z1  # a^l_-
        jet.coeffs[:, 1] = draw["b"] * z1
        jet.coeffs[:, 0] = z2  # a^r_+
        jet.coeffs[:, 2] = draw["gamma"] * z1 - np.conj(draw["b"]) * z2
    else:
        G = np.asarray(draw["Gamma"], dtype=complex)
        a_minus = np.column_stack([z1, z2])
        a_plus = a_minus @ G.T
        jet.coeffs[:, 1], jet.coeffs[:, 3] = a_minus[:, 0], a_minus[:, 1]
        jet.coeffs[:, 0], jet.coeffs[:, 2] = a_plus[:, 0], a_plus[:, 1]
    return jet


@pytest.mark.parametrize("regime,params", [("mu_neg", MU_NEG), ("mu_pos", MU_POS)])
def test_isotropy_on_constraint_pairs(regime, params):
    rng = np.random.default_rng(2)
    modes = [0, 1, -1, 2]
    for trial in range(40):
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U, _ = np.linalg.qr(q)
        spec = ExtensionSpec(regime=regime, U=U)
        constraint = lagrangian_from_unitary(spec)
        u = constraint.random_jet(modes, rng)
        v = constraint.random_jet(modes, rng)
        scale = float(np.max(np.abs(u.coeffs)) * np.max(np.abs(v.coeffs))) + 1e-300
        assert abs(asymmetry_form(u, v, params)) <= 1e-10 * scale


@pytest.mark.parametrize("regime,params", [("mu_neg", MU_NEG), ("mu_pos", MU_POS)])
def test_maximality_witness(regime, params):
    rng = np.random.default_rng(3)
    modes = [0, 1, -1]
    for trial in range(100):
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U, _ = np.linalg.qr(q)
        spec = ExtensionSpec(regime=regime, U=U)
        constraint = lagrangian_from_unitary(spec)
        v = random_jet(modes, rng)
        if constraint.satisfied(v):
            continue
        u = maximality_witness(spec, v)
        assert constraint.satisfied(u, tol=1e-9)
        # supported on a single mode
        assert np.count_nonzero(np.max(np.abs(u.coeffs), axis=1) > 0) == 1
        w = asymmetry_form(u, v, params)
        assert abs(w) > 1e-8


def test_maximality_witness_rejects_members():
    spec = named_family(1)
    constraint = lagrangian_from_unitary(spec)
    rng = np.random.default_rng(4)
    jet = constraint.random_jet([0, 1], rng)
    with pytest.raises(ValueError):
        maximality_witness(spec, jet)


def test_unitarity_enforced():
    with pytest.raises(ValueError, match="unitary"):
        ExtensionSpec(regime="mu_neg", U=np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_cayley_transform_injective_on_samples():
    rng = np.random.default_rng(5)
    seen = []
    for _ in range(30):
        herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        G = herm + herm.conj().T
        spec = named_family(5, Gamma=G)
        assert np.max(np.abs(spec.U.conj().T @ spec.U - np.eye(2))) <= 1e-12
        for prev in seen:
            assert np.max(np.abs(spec.U - prev)) > 1e-8
        seen.append(spec.U)


def test_h_function_flat():
    assert h_function(GrushinParams(0.5, 1, 0.0)) == pytest.approx(1.5)
    assert h_function(GrushinParams(1.0, 1, 3.0 / 16.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        h_function(MU_NEG)  # mu < 0


def test_extension_hypotheses_flags():
    flags = extension_hypotheses(MU_POS)
    assert flags["mu_in_0_4"] and flags["alpha_nonnegative"]
    assert flags["mu_ne_2"]
    flags = extension_hypotheses(GrushinParams(1.0, 1, 1.0 / 8.0))  # mu = 2
    assert not flags["mu_ne_2"]


def test_greens_identity_mu_neg():
    params = MU_NEG  # mu = -12
    rng = np.random.default_rng(6)
    u_jet = BoundaryJet.single_mode(1, r_plus=0.7 + 0.2j, r_minus=-0.4 + 1.1j,
                                    l_plus=0.3, l_minus=-1.2j)
    v_jet = BoundaryJet.single_mode(1, r_plus=-1.0 + 0.5j, r_minus=0.8, l_plus=0.0,
                                    l_minus=0.6 - 0.1j)
    u = realize_jet(params, u_jet, cutoff=12.0)
    v = realize_jet(params, v_jet, cutoff=12.0)
    eps = np.geomspace(0.02, 0.12, 6)
    numeric, closed, rel = greens_identity_check(params, u, v, eps)
    assert rel < 1e-4
    assert closed == pytest.approx(asymmetry_form(u_jet, v_jet, params), rel=1e-12)


def test_greens_identity_mu_neg_multimode():
    params = MU_NEG
    rng = np.random.default_rng(11)
    modes = [(1,), (-2,), (3,)]
    u_jet = BoundaryJet.zero(modes)
    v_jet = BoundaryJet.zero(modes)
    u_jet.coeffs[:] = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    v_jet.coeffs[:] = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    u = realize_jet(params, u_jet, cutoff=12.0)
    v = realize_jet(params, v_jet, cutoff=12.0)
    numeric, closed, rel = greens_identity_check(params, u, v, np.geomspace(0.02, 0.12, 6))
    assert rel < 1e-4


def test_greens_identity_mu_pos_off_resonance():
    # alpha = 0.75, c = 0.05: mu = 2.5375, sqrt(mu) not in Theta(0.75)
    params = GrushinParams(0.75, 1, 0.05)
    from grushin.params import discriminant, resonance

    assert 0 < discriminant(0.75, 1, 0.05) < 4
    assert not resonance(params)[0]
    rng = np.random.default_rng(12)
    jet_u = BoundaryJet.zero([(1,)])
    jet_v = BoundaryJet.zero([(1,)])
    jet_u.coeffs[:] = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
    jet_v.coeffs[:] = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
    u = realize_jet(params, jet_u, cutoff=12.0)
    v = realize_jet(params, jet_v, cutoff=12.0)
    numeric, closed, rel = greens_identity_check(params, u, v, np.geomspace(0.02, 0.12, 6))
    assert rel < 1e-4


def test_greens_identity_trivial_zero():
    params = MU_NEG
    jet = BoundaryJet.single_mode(1, r_plus=1.0, r_minus=1.0)
    u = realize_jet(params, jet, cutoff=12.0)
    numeric, closed, rel = greens_identity_check(params, u, u, np.geomspace(0.02, 0.12, 5))
    assert closed == pytest.approx(0.0, abs=1e-13)
    assert abs(numeric) < 1e-10


def test_greens_identity_mu_pos():
    params = MU_POS  # alpha = 0.5, mu = 2.25, h = 1.5
    u_jet = BoundaryJet.single_mode(1, r_minus=1.0, l_plus=0.5j)
    v_jet = BoundaryJet.single_mode(1, r_plus=1.0, l_minus=-0.3)
    u = realize_jet(params, u_jet, cutoff=10.0)
    v = realize_jet(params, v_jet, cutoff=10.0)
    numeric, closed, rel = greens_identity_check(params, u, v, np.geomspace(0.02, 0.12, 6))
    assert rel < 1e-4
    # closed form = h * mode formula
    assert closed == pytest.approx(1.5 * asymmetry_form(u_jet, v_jet, params), rel=1e-12)


def test_friedrichs_jets_kill_minus_branch():
    # family 1 admits exactly the jets with a_- = 0: the jet form of
    # lim |x|^{-lambda_-} u = 0
    rng = np.random.default_rng(7)
    constraint = lagrangian_from_unitary(named_family(1))
    for _ in range(50):
        jet = constraint.random_jet([0, 1, -1], rng)
        assert np.max(np.abs(jet.a_minus)) <= 1e-12 * max(1.0, np.max(np.abs(jet.coeffs)))


def test_greens_check_reports_nonconvergence():
    # a severely truncated series at coarse epsilon cannot extrapolate: the
    # check must fail loudly with the epsilon table attached
    params = MU_POS
    jet_u = BoundaryJet.single_mode(3, r_minus=1.0, r_plus=0.5)
    jet_v = BoundaryJet.single_mode(3, r_plus=1.0, r_minus=-0.25j)
    u = realize_jet(params, jet_u, cutoff=3.0)
    v = realize_jet(params, jet_v, cutoff=3.0)
    with pytest.raises(CheckFailedError) as excinfo:
        greens_identity_check(params, u, v, np.linspace(0.2, 0.5, 6))
    assert excinfo.value.table is not None
    assert len(excinfo.value.table) == 6


def test_jet_json_round_trip():
    jet = BoundaryJet.single_mode(3, r_plus=1 + 2j, l_minus=-0.5)
    back = BoundaryJet.from_json_dict(jet.to_json_dict())
    assert back.modes == jet.modes
    assert np.allclose(back.coeffs, jet.coeffs)
    spec = named_family(4, gamma=0.3, b=1 - 1j)
    back = ExtensionSpec.from_json_dict(spec.to_json_dict())
    assert np.allclose(back.U, spec.U)
    assert back.regime == spec.regime
