"""Worked examples: fixtures, pseudo-fermion pairs, ladder-pair verifier."""

import math

import numpy as np
import pytest

from isospec import (
    CASE_INVERTIBLE_COMMUTING,
    CASE_NONINVERTIBLE,
    DegenerateError,
    DimensionError,
    EpsilonSequence,
    FIXTURE_IDS,
    ParameterError,
    SeedVectorError,
    SpectrumError,
    adjoint,
    block_pseudo_fermion_params,
    coherent_demo,
    coherent_pair,
    ex3x3_pseudo_fermion_params,
    fixture_2x2,
    fixture_3x3,
    fixture_block,
    filter_system,
    fixture_shift,
    get_fixture,
    nlpb_verify,
    pseudo_fermion,
    standard_boson,
    verify_relations,
)
from isospec.zoo import _FIXTURE_BUILDERS, MAX_FIXTURE_MODES, _count

SQRT3 = math.sqrt(3.0)
ALGEBRA_TOL = 1e-12


# ---------------------------------------------------------------------------
# 2x2 uniform-frame fixture


def test_2x2_real_frame():
    f = fixture_2x2(1.0, 0.0)
    assert f.model.case == CASE_INVERTIBLE_COMMUTING
    assert f.expected["xtilde"] == pytest.approx(1.0)
    assert verify_relations(f.model).all_passed


def test_2x2_complex_frame():
    f = fixture_2x2(1.0, 1j)
    assert f.expected["xtilde"] == pytest.approx(2.0)
    np.testing.assert_allclose(f.model.n1, 2.0 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(f.model.n2, 2.0 * np.eye(2), atol=1e-14)
    assert f.model.kernel_set == ()
    np.testing.assert_allclose(f.model.tilde_k, [2.0, 2.0], atol=1e-12)
    assert verify_relations(f.model).all_passed


def test_2x2_rejects_zero_frame():
    with pytest.raises(DegenerateError):
        fixture_2x2(0.0, 0.0)


# ---------------------------------------------------------------------------
# 3x3 -> 2x2 rectangular fixture (frozen closed forms)


def test_3x3_seed_closed_form():
    f = fixture_3x3(1.0, 2.0, 3.0)
    np.testing.assert_allclose(f.theta1, f.expected["theta1_closed_form"], atol=1e-12)
    # spot-check two entries against the surd expressions directly
    assert f.theta1[0, 0] == pytest.approx(((5 + SQRT3) - 2 * (1 + SQRT3) + 6) / 6)
    assert f.theta1[1, 1] == pytest.approx(2 * (-2 + 8 + 3) / 6)


def test_3x3_partner_closed_form_frozen():
    f = fixture_3x3(1.0, 2.0, 3.0)
    target = 0.25 * np.array(
        [[9 + SQRT3, 3 * SQRT3 - 7], [5 + 3 * SQRT3, 3 - SQRT3]], dtype=complex
    )
    np.testing.assert_allclose(f.model.theta2, target, atol=1e-9)
    np.testing.assert_allclose(f.expected["theta2"], target, atol=1e-12)


def test_3x3_partner_drops_third_eigenvalue():
    f = fixture_3x3(1.0, 2.0, 4.0)
    values = np.sort(np.linalg.eigvals(f.model.theta2).real)
    np.testing.assert_allclose(values, [1.0, 2.0], atol=1e-9)


def test_3x3_grams():
    f = fixture_3x3(1.0, 2.0, 3.0)
    np.testing.assert_allclose(f.model.n1, f.expected["n1"], atol=1e-12)
    np.testing.assert_allclose(f.model.n2, 1.5 * np.eye(2), atol=1e-12)


def test_3x3_transport_data():
    f = fixture_3x3(1.0, 2.0, 3.0)
    m = f.model
    assert m.case == CASE_NONINVERTIBLE
    assert m.kernel_set == (2,)
    np.testing.assert_allclose(m.tilde_k, [1.5, 1.5, 0.0], atol=1e-10)
    np.testing.assert_allclose(m.psi1, f.expected["psi1"], atol=1e-12)
    np.testing.assert_allclose(m.phi2[:, :2], f.expected["phi2_survivors"], atol=1e-12)
    np.testing.assert_allclose(m.psi2[:, :2], f.expected["psi2_survivors"], atol=1e-12)


def test_3x3_level2_pairing_constant():
    f = fixture_3x3(1.0, 2.0, 3.0)
    gram = adjoint(f.model.phi2[:, :2]) @ f.model.psi2[:, :2]
    np.testing.assert_allclose(gram, 1.5 * np.eye(2), atol=1e-10)


def test_3x3_rejects_repeated_eigenvalues():
    f = fixture_3x3(1.0, 1.0, 3.0)
    with pytest.raises(SpectrumError, match="eigenvalues 0 and 1 "):
        f.model


# ---------------------------------------------------------------------------
# weighted-shift fixture


def test_shift_partner_is_shifted_diagonal():
    eps = np.arange(8.0)
    f = fixture_shift(eps, math.pi / 4, 8)
    values = eps * np.exp(1j * math.pi / 4)
    np.testing.assert_allclose(np.diag(f.model.theta2), values[1:], atol=1e-12)
    assert f.model.kernel_set == (0,)
    np.testing.assert_allclose(f.model.tilde_k, eps, atol=1e-12)
    assert verify_relations(f.model).all_passed


def test_shift_frame_carries_square_roots():
    f = fixture_shift(np.arange(6.0), math.pi / 3, 6)
    assert f.x.shape == (6, 5)
    for k in range(5):
        assert f.x[k + 1, k] == pytest.approx(math.sqrt(k + 1.0))


def test_shift_rejects_non_increasing_eps():
    with pytest.raises(ParameterError):
        fixture_shift(np.array([0.0, 2.0, 1.0]), math.pi / 4, 3)


def test_shift_rejects_trivial_phase():
    # a phase multiple of pi makes the seed self-adjoint, out of scope here
    with pytest.raises(ParameterError):
        fixture_shift(np.arange(5.0), 0.0, 5)


# ---------------------------------------------------------------------------
# block fixture


def test_block_partner_collects_plus_combinations():
    alpha = np.arange(1.0, 5.0)
    beta = 0.5j * np.arange(1.0, 5.0)
    f = fixture_block(alpha, beta, 4)
    m = f.model
    np.testing.assert_allclose(m.theta2, np.diag(alpha + beta), atol=1e-10)
    np.testing.assert_allclose(m.n2, np.eye(4), atol=1e-12)
    assert m.kernel_set == (0, 2, 4, 6)
    np.testing.assert_allclose(m.tilde_k, [0.0, 1.0] * 4, atol=1e-12)
    assert verify_relations(m).all_passed


def test_block_row_gram_is_half_sum_with_pair_swap():
    f = fixture_block(np.array([1.0, 2.0]), np.array([0.5j, 1.0j]), 2)
    swap = np.zeros((4, 4))
    swap[0, 1] = swap[1, 0] = swap[2, 3] = swap[3, 2] = 1.0
    np.testing.assert_allclose(f.model.n1, 0.5 * (np.eye(4) + swap), atol=1e-12)


def test_block_conjugate_pairing_for_real_alpha_imag_beta():
    alpha = np.arange(1.0, 7.0)
    beta = 1j * np.linspace(0.25, 1.5, 6)
    f = fixture_block(alpha, beta, 6)
    values = np.asarray(f.model.values)
    for j in range(6):
        assert abs(values[2 * j] - np.conj(values[2 * j + 1])) < 1e-10


def test_block_degenerate_spectrum_still_exposes_direct_partner():
    alpha = np.array([1.0, 1.0])
    beta = np.array([0.5, 0.5])
    f = fixture_block(alpha, beta, 2)
    with pytest.raises(SpectrumError):
        f.model
    # the closed-form partner still intertwines: X Theta2 = Theta1 X
    np.testing.assert_allclose(f.expected["theta2"], np.diag(alpha + beta), atol=1e-12)
    np.testing.assert_allclose(f.x @ f.expected["theta2"], f.theta1 @ f.x, atol=1e-12)


def test_block_zero_operator_sanity():
    f = fixture_block(np.zeros(2), np.zeros(2), 2)
    with pytest.raises(SpectrumError):
        f.model
    np.testing.assert_allclose(f.expected["theta2"], np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(f.theta1 @ f.x, np.zeros((4, 2)), atol=1e-14)


# ---------------------------------------------------------------------------
# coherent-demo fixture


def test_coherent_demo_sequence_and_kernel():
    f = coherent_demo(1.0, 8)
    np.testing.assert_allclose(f.expected["epsilon"], 2.0 * np.arange(16.0), atol=1e-14)
    assert f.expected["kernel_set"] == tuple(range(1, 16, 2))
    assert f.expected["survivors"] == tuple(range(0, 16, 2))
    assert f.model.kernel_set == f.expected["kernel_set"]


def test_coherent_demo_partner_and_pairing():
    alpha1 = 0.5
    f = coherent_demo(alpha1, 6)
    np.testing.assert_allclose(
        np.diag(f.model.theta2), 4.0 * alpha1 * np.arange(6.0), atol=1e-12
    )
    survivors = list(f.model.survivors)
    np.testing.assert_allclose(
        np.asarray(f.model.tilde_k)[survivors], np.ones(6), atol=1e-12
    )
    assert f.expected["normalization_rate"] == pytest.approx(1.0 / (4.0 * alpha1))


def test_coherent_demo_survivor_factorials():
    alpha1 = 2.0
    f = coherent_demo(alpha1, 5)
    for l in range(4):
        expected = (2.0 * alpha1) ** (2 * l) * math.factorial(2 * l)
        assert f.expected["level2_factorials"][l] == pytest.approx(expected)


def test_coherent_demo_survivor_factorials_past_the_float_range():
    f = coherent_demo(1.0, 100)
    facts = f.expected["level2_factorials"]
    assert facts[10] == pytest.approx(2.0**20 * math.factorial(20))
    assert facts[-1] == math.inf


def test_coherent_demo_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        coherent_demo(0.0, 8)
    with pytest.raises(DimensionError):
        coherent_demo(1.0, 1)


# ---------------------------------------------------------------------------
# registry


def test_fixture_registry_ids():
    assert FIXTURE_IDS == ("ex2x2", "ex3x3", "shift", "block", "coherent_demo")
    for fid in FIXTURE_IDS:
        f = get_fixture(fid)
        assert f.id == fid


def test_fixture_registry_forwards_parameters():
    f = get_fixture("ex3x3", e1=2.0, e2=3.0, e3=5.0)
    assert f.theta1.tobytes() == fixture_3x3(2, 3, 5).theta1.tobytes()
    np.testing.assert_array_equal(f.eigensystem.values, [2.0, 3.0, 5.0])


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_fixture_parameters_rebuild_the_fixture(fixture_id):
    # the registry's defaults, passed back by name, build the default fixture
    f = get_fixture(fixture_id)
    again = get_fixture(fixture_id, **_FIXTURE_BUILDERS[fixture_id][1])
    assert again.theta1.tobytes() == f.theta1.tobytes()
    assert again.x.tobytes() == f.x.tobytes()


def _equal(got, want):
    assert got == want


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def _eigenpairs(model, values):
    """``values`` are the seed's eigenvalues, one per eigenvector column, in order."""
    _close(model.theta1 @ model.phi1, model.phi1 * values)


def _survivor_pairing(model, pairing):
    alive = list(model.survivors)
    _close(adjoint(model.phi2[:, alive]) @ model.psi2[:, alive], pairing * np.eye(len(alive)))


def _normalization_rate(model, rate):
    # N(|z|) = exp(-rate |z|^2) for the level-1 state; at |z| = 1.5 the full order is exact
    z = 1.5
    eps = EpsilonSequence(model.values.real)
    state = coherent_pair(model.system1(), eps, z, len(eps))
    assert state.normalization == pytest.approx(math.exp(-rate * z * z), rel=1e-12)


def _level2_factorials(model, factorials):
    eps = EpsilonSequence(model.values.real)
    _, steps, _ = filter_system(model.system2(include_kernel=True), eps, "original")
    _close(steps.factorials(len(steps)), factorials)


# Fixture.expected key -> the check of its stated value against the fixture's model
EXPECTED_CHECKS = {
    "case": lambda m, v: _equal(m.case, v),
    "kernel_set": lambda m, v: _equal(m.kernel_set, v),
    "survivors": lambda m, v: _equal(m.survivors, v),
    "xtilde": lambda m, v: _close(m.n1, v * np.eye(len(m.n1))),
    "x_inverse": lambda m, v: _close(v, np.linalg.inv(m.x)),
    "theta1_closed_form": lambda m, v: _close(m.theta1, v),
    "theta2": lambda m, v: _close(m.theta2, v),
    "theta2_diag": lambda m, v: _close(m.theta2, np.diag(v)),
    "n1": lambda m, v: _close(m.n1, v),
    "n2": lambda m, v: _close(m.n2, v),
    "n1_diag": lambda m, v: _close(m.n1, np.diag(v)),
    "n2_diag": lambda m, v: _close(m.n2, np.diag(v)),
    "tilde_k": lambda m, v: _close(m.tilde_k, v),
    "tilde_k_survivor": lambda m, v: _close(m.tilde_k[list(m.survivors)], v),
    "psi1": lambda m, v: _close(m.psi1, v),
    "phi2_survivors": lambda m, v: _close(m.phi2[:, list(m.survivors)], v),
    "psi2_survivors": lambda m, v: _close(m.psi2[:, list(m.survivors)], v),
    "pairing_level2": _survivor_pairing,
    "values": _eigenpairs,
    "epsilon": _eigenpairs,
    "normalization_rate": _normalization_rate,
    "level2_factorials": _level2_factorials,
}


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_every_closed_form_a_fixture_states_holds_on_its_model(fixture_id):
    f = get_fixture(fixture_id)
    unchecked = sorted(set(f.expected) - set(EXPECTED_CHECKS))
    assert not unchecked, f"{fixture_id} states {unchecked}, which no check reads"
    for key, value in f.expected.items():
        EXPECTED_CHECKS[key](f.model, value)


def test_fixture_model_is_built_once_from_the_fixture_eigendata():
    f = get_fixture("coherent_demo", n_blocks=4)
    assert f.model is f.model
    assert f.model.phi1 is f.eigensystem.vectors
    assert get_fixture("ex2x2").eigensystem is None


def test_fixture_registry_rejects_unknown_id():
    with pytest.raises(ParameterError):
        get_fixture("nonexistent")


@pytest.mark.parametrize(
    "fixture_id, count_name, modes_each",
    [("shift", "n", 1), ("block", "n_blocks", 2), ("coherent_demo", "n_blocks", 2)],
)
def test_fixture_mode_bound_is_inclusive(fixture_id, count_name, modes_each):
    largest = MAX_FIXTURE_MODES // modes_each
    assert _count(largest, modes_each) == largest
    # refused by its count alone, before any array is built
    with pytest.raises(ParameterError, match=f"bound of {MAX_FIXTURE_MODES}"):
        get_fixture(fixture_id, **{count_name: largest + 1})


# ---------------------------------------------------------------------------
# rank-one nilpotent pairs


def _closed_pair(alpha, beta, alpha12):
    beta12 = -1.0 / ((alpha - beta) ** 2 * alpha12)
    return pseudo_fermion(alpha, beta, alpha12, beta12)


def test_pair_satisfies_algebra():
    pf = _closed_pair(2.0 + 1.0j, -0.5, 1.5)
    assert pf.anticommutator_defect() < ALGEBRA_TOL
    assert pf.nilpotency_defect() < ALGEBRA_TOL


def test_pair_rejects_violated_constraint():
    with pytest.raises(ParameterError):
        pseudo_fermion(1.0, 0.0, 1.0, 1.0)


def test_pair_hamiltonian_spectrum():
    pf = _closed_pair(1.5, -0.25, 0.75)
    omega, rho = 2.0, 0.5
    values = np.sort_complex(np.linalg.eigvals(pf.hamiltonian(omega, rho)))
    np.testing.assert_allclose(values, [rho, omega + rho], atol=1e-12)


def test_pair_closed_form_matches_product_form():
    pf = _closed_pair(0.3 - 0.7j, 1.1, 2.0)
    omega, rho = 1.25, -0.5j
    np.testing.assert_allclose(
        pf.hamiltonian(omega, rho), pf.hamiltonian_closed_form(omega, rho), atol=1e-12
    )


def test_pair_parameters_reproduce_rectangular_partner():
    e1, e2 = 1.0, 2.0
    params = ex3x3_pseudo_fermion_params(e1, e2)
    omega, rho = params.pop("omega"), params.pop("rho")
    pf = pseudo_fermion(**params)
    assert pf.anticommutator_defect() < ALGEBRA_TOL
    f = fixture_3x3(e1, e2, 3.0)
    np.testing.assert_allclose(pf.hamiltonian(omega, rho), f.model.theta2, atol=1e-9)


def test_pair_parameters_reproduce_block():
    params = block_pseudo_fermion_params(1.0, 2.0)
    omega, rho = params.pop("omega"), params.pop("rho")
    pf = pseudo_fermion(**params)
    target = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    np.testing.assert_allclose(pf.hamiltonian(omega, rho), target, atol=ALGEBRA_TOL)


def test_block_pair_parameters_need_coupling():
    with pytest.raises(ParameterError):
        block_pseudo_fermion_params(1.0, 0.0)


# ---------------------------------------------------------------------------
# nonlinear ladder-pair verifier


def test_standard_boson_passes():
    a, b, eps, phi0, eta0 = standard_boson(14)
    report = nlpb_verify(a, b, eps, phi0, eta0, n_modes=10)
    assert report.all_passed
    assert max(report.residuals.values()) < 1e-10
    assert report.details["phi_condition_number"] == pytest.approx(1.0, abs=1e-10)


def test_standard_boson_matrices():
    a, b, eps, phi0, eta0 = standard_boson(5)
    np.testing.assert_allclose(b, adjoint(a), atol=1e-14)
    for k in range(4):
        assert a[k, k + 1] == pytest.approx(math.sqrt(k + 1.0))
    np.testing.assert_allclose(eps.values, np.arange(5.0), atol=1e-14)
    np.testing.assert_allclose(phi0, np.eye(5, dtype=complex)[:, 0], atol=1e-14)


def test_verifier_gates_bad_seed_vectors():
    a, b, eps, phi0, eta0 = standard_boson(8)
    e1 = np.eye(8, dtype=complex)[:, 1]
    with pytest.raises(SeedVectorError):
        nlpb_verify(a, b, eps, e1, eta0, n_modes=4)
    with pytest.raises(SeedVectorError):
        nlpb_verify(a, b, eps, phi0, e1, n_modes=4)


def test_verifier_localizes_injected_fault():
    a, b, eps, phi0, eta0 = standard_boson(16)
    b_bad = b.copy()
    b_bad[7, 6] += 1e-3
    report = nlpb_verify(a, b_bad, eps, phi0, eta0, n_modes=12)
    assert not report.all_passed
    per_mode = np.abs(np.asarray(report.details["p3_raising_per_mode"]))
    assert per_mode.max() > 1e-4
    assert int(np.argmax(per_mode)) == 6
    assert per_mode[:6].max() < 1e-10


def test_verifier_accepts_scaled_seed():
    # eta0 only needs nonzero overlap; the verifier renormalizes it
    a, b, eps, phi0, eta0 = standard_boson(10)
    report = nlpb_verify(a, b, eps, phi0, 2.5 * eta0, n_modes=6)
    assert report.all_passed


@pytest.mark.parametrize("power", [1, 130, -130])
def test_a_power_of_two_rescaling_keeps_every_residual_bit_for_bit(power):
    a, b, eps, phi0, eta0 = standard_boson(8)
    report = nlpb_verify(a, b, eps, phi0, eta0, n_modes=8)
    scaled = nlpb_verify(a * 2.0**power, b * 2.0**-power, eps, phi0, eta0, n_modes=8)
    assert scaled.residuals == report.residuals
    for name in ("p3_lowering_per_mode", "p3_raising_per_mode", "eigen_m_per_mode"):
        assert scaled.details[name] == report.details[name]


@pytest.mark.parametrize("scale", [1e40, 1e-40])
def test_a_planted_fault_fails_its_check_at_a_scale_whose_squares_overflow(scale):
    a, b, eps, phi0, eta0 = standard_boson(8)
    b_bad = b.copy()
    b_bad[5, 4] += 1e-3
    report = nlpb_verify(a * scale, b_bad / scale, eps, phi0, eta0, n_modes=8)
    assert "p3_raising" in report.failures()
    per_mode = np.asarray(report.details["p3_raising_per_mode"])
    assert int(np.argmax(per_mode)) == 4
    assert per_mode[4] > 1e-4
