"""Regime classification, partner construction, eigensystem transport."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec import (
    CASE_INVERTIBLE,
    CASE_INVERTIBLE_COMMUTING,
    CASE_NONINVERTIBLE,
    DimensionError,
    ParameterError,
    RegimeError,
    SpectrumError,
    adjoint,
    adjoint_descent,
    build_model,
    classify,
    coherent_demo,
    eig,
    fixture_2x2,
    fixture_3x3,
    make_commuting_pair,
    opnorm,
    structure_check,
    verify_relations,
)
from isospec import io as iomod
from isospec.intertwining import _plant

RELATION_TOL = 1e-9
PROPERTY_TOL = 1e-8

# plain-invertible pair: diag X whose gram does not commute with theta1
PLAIN_THETA1 = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
PLAIN_X = np.diag([1.0, 2.0]).astype(complex)


def _spectra_match(a, b, tol=1e-8):
    """Multiset comparison of eigenvalue arrays."""
    a = np.sort_complex(np.asarray(a))
    b = np.sort_complex(np.asarray(b))
    return a.shape == b.shape and np.max(np.abs(a - b)) <= tol


# ---------------------------------------------------------------------------
# classify


def test_classify_uniform_frame_is_invertible_commuting():
    f = fixture_2x2(1.0, 1j)
    assert classify(f.theta1, f.x) == CASE_INVERTIBLE_COMMUTING


def test_classify_rectangular_frame_is_noninvertible():
    f = fixture_3x3(1.0, 2.0, 3.0)
    assert classify(f.theta1, f.x) == CASE_NONINVERTIBLE


def test_classify_identity_passes_invertibility():
    tag = classify(PLAIN_THETA1, np.eye(2, dtype=complex))
    assert tag in (CASE_INVERTIBLE, CASE_INVERTIBLE_COMMUTING)


def test_classify_plain_invertible_when_gram_does_not_commute():
    assert classify(PLAIN_THETA1, PLAIN_X) == CASE_INVERTIBLE


def test_classify_square_singular_has_no_regime():
    x = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(RegimeError):
        classify(PLAIN_THETA1, x)


def test_classify_rectangular_noncommuting_has_no_regime():
    theta1 = np.array(
        [[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]], dtype=complex
    )
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(RegimeError):
        classify(theta1, x)


def test_classify_rank_deficient_columns_has_no_regime():
    theta1 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    x = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(RegimeError):
        classify(theta1, x)


def _wide_pair(draw):
    """Draw ``draw`` (from 0) of a complex 2x3 X = (N + iN) 1e5, with Theta1 = X X-adjoint."""
    rng = np.random.default_rng(0)
    for _ in range(draw + 1):
        x = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) * 1e5
    return x @ x.conj().T, x


# on draws 1 and 3 the rounded zero eigenvalue of the rank-2 N2 reads above the
# tolerance, so a positivity test would take N2 for strictly positive
@pytest.mark.parametrize("draw", [1, 3])
def test_classify_refuses_a_wide_x_by_its_shape(draw, monkeypatch):
    theta1, x = _wide_pair(draw)

    def no_factorization(*args, **kwargs):
        raise AssertionError("a wide X was factorized")

    monkeypatch.setattr(np.linalg, "svd", no_factorization)
    monkeypatch.setattr(np.linalg, "qr", no_factorization)
    with pytest.raises(RegimeError, match="strictly tall X, got 2x3"):
        classify(theta1, x)
    with pytest.raises(RegimeError, match="strictly tall X, got 2x3"):
        build_model(theta1, x)


# ---------------------------------------------------------------------------
# the partner Theta2 of build_model


def test_case1_identity_frame_returns_seed():
    theta2 = build_model(PLAIN_THETA1, np.eye(2, dtype=complex)).theta2
    np.testing.assert_allclose(theta2, PLAIN_THETA1, atol=1e-14)


def test_case1_uniform_frame_inverse_is_scaled_adjoint():
    f = fixture_2x2(1.0, 1j)
    xtilde = f.expected["xtilde"]
    np.testing.assert_allclose(f.expected["x_inverse"], adjoint(f.x) / xtilde, atol=1e-14)
    theta2 = build_model(f.theta1, f.x).theta2
    np.testing.assert_allclose(theta2, f.expected["x_inverse"] @ f.theta1 @ f.x, atol=1e-12)


def test_case1_preserves_spectrum():
    rng = np.random.default_rng(7)
    theta1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    model = build_model(theta1, x)
    assert model.case in (CASE_INVERTIBLE, CASE_INVERTIBLE_COMMUTING)
    assert _spectra_match(eig(theta1).values, eig(model.theta2).values, tol=1e-9)


def test_case1_rejects_singular_frame():
    with pytest.raises(RegimeError, match="singular"):
        build_model(PLAIN_THETA1, np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))


def test_case3_reproduces_closed_form_partner():
    f = fixture_3x3(1.0, 2.0, 3.0)
    model = build_model(f.theta1, f.x)
    assert model.case == CASE_NONINVERTIBLE
    np.testing.assert_allclose(model.theta2, f.expected["theta2"], atol=1e-12)


def test_case3_requires_commuting_gram():
    theta1 = np.array(
        [[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]], dtype=complex
    )
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(RegimeError, match=r"\[N1, Theta1\]"):
        build_model(theta1, x)


def test_case3_requires_positive_column_gram():
    theta1 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    x = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(RegimeError, match="positiv"):
        build_model(theta1, x)


@pytest.mark.parametrize("dims", [(3, 3), (3, 2)], ids=["square", "tall"])
def test_one_rank_rule_refuses_either_shape_quoting_the_ratio(dims):
    # the same singular values, 1 and 1e-10, through a square and a tall X
    d1, d2 = dims
    theta1 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    x = np.eye(d1, d2, dtype=complex) * np.geomspace(1.0, 1e-10, d2)
    with pytest.raises(RegimeError, match=r"sigma_min/sigma_max = 1\.000e-10 is not above 1\.0e-09"):
        build_model(theta1, x)


def test_the_rank_rule_is_the_classification_tolerance():
    # no second rank threshold: below 1e-12 a square X is decided at relation_tol alone,
    # and sigma_min = 1e-13 must clear the kernel tolerance too
    x = np.diag([1.0, 1e-13]).astype(complex)
    with pytest.raises(RegimeError, match="singular"):
        build_model(PLAIN_THETA1, x)
    with pytest.raises(RegimeError, match="kernel tolerance"):
        build_model(PLAIN_THETA1, x, relation_tol=1e-14)
    model = build_model(PLAIN_THETA1, x, relation_tol=1e-14, kernel_tol=1e-14)
    assert model.case == CASE_INVERTIBLE and model.kernel_set == ()


def _planted_partner(seed, d2, extra, cond):
    """(Theta1, X, exact Theta2) planted as the generator plants them, with singular
    values geomspace(1, 1/cond); extra = 0 plants a square X."""
    return _plant(d2 + extra, d2, seed, sigma=np.geomspace(1.0, 1.0 / cond, d2))


@given(
    seed=st.integers(0, 10_000),
    d2=st.integers(1, 8),
    extra=st.integers(0, 8),
    log_cond=st.floats(0.0, 8.0),
)
@settings(max_examples=80, deadline=None)
def test_the_partner_error_grows_with_cond_x_not_its_square(seed, d2, extra, log_cond):
    # from a QR of X the forward error is O(cond(X) u); the normal equations gave
    # O(cond(X)^2 u), about 2e4 cond(X) u at cond(X) = 1e4
    cond = 10.0**log_cond
    theta1, x, exact = _planted_partner(seed, d2, extra, cond)
    model = build_model(theta1, x)
    error = opnorm(model.theta2 - exact) / opnorm(exact)
    assert error <= 64 * cond * np.finfo(float).eps / 2, (error, cond)
    if cond <= 1e4:
        assert verify_relations(model).all_passed, verify_relations(model).failures()


@pytest.mark.parametrize("scale", [1e-10, 1e-9, 1e-7, 1e-5])
def test_a_small_x_builds_and_verifies(scale):
    # sigma(X) is about 1.8 to 3.9: at 1e-10 sigma_min still clears the kernel tolerance
    theta1, x = make_commuting_pair(8, 4, 0)
    model = build_model(theta1, x * scale)
    assert model.kernel_set == (1, 4, 5, 7)
    assert verify_relations(model).all_passed


# a surviving mode has ||X-adjoint phi|| >= sigma_min ||phi||: once sigma_min is at or
# below the kernel tolerance the absolute kernel test would file it as a kernel loss
# (at 1e-11 all eight modes, with every relation passing), so the build is refused
@pytest.mark.parametrize("scale", [1e-11, 1e-12])
def test_an_x_below_the_kernel_tolerance_is_refused(scale):
    theta1, x = make_commuting_pair(8, 4, 0)
    with pytest.raises(RegimeError, match=r"sigma_min\(X\) = .* is not above the kernel tolerance 1\.0e-10"):
        build_model(theta1, x * scale)
    assert classify(theta1, x * scale) == CASE_NONINVERTIBLE
    model = build_model(theta1, x * scale, kernel_tol=1e-14)
    assert model.kernel_set == (1, 4, 5, 7)
    assert verify_relations(model).all_passed


# ---------------------------------------------------------------------------
# the transported eigensystem of build_model


def test_map_detects_kernel_and_shared_eigenvalue():
    f = fixture_3x3(1.0, 2.0, 3.0)
    model = build_model(f.theta1, f.x)
    assert model.kernel_set == (2,)
    np.testing.assert_allclose(model.tilde_k[:2], [1.5, 1.5], atol=1e-10)
    assert model.tilde_k[2] == 0.0
    assert verify_relations(model).residuals["n_eigen"] < 1e-10


def test_map_identity_frame_keeps_everything():
    model = build_model(np.diag([1.0, 2.0, 3.0]).astype(complex), np.eye(3, dtype=complex))
    assert model.kernel_set == ()
    np.testing.assert_allclose(model.tilde_k, [1.0, 1.0, 1.0], atol=1e-14)


def test_map_refuses_degenerate_spectrum():
    with pytest.raises(SpectrumError):
        build_model(np.diag([1.0, 1.0, 2.0]).astype(complex), np.eye(3, dtype=complex))


@pytest.mark.parametrize("supplied", [False, True], ids=["eig", "eigensystem"])
def test_build_model_decides_simple_spectrum_at_its_multiplicity_tolerance(supplied):
    # eigenvalues 0, 2, 4, ...: simple at the default gap tolerance, not at 10,
    # whether build_model diagonalizes the seed or is given the eigendata
    f = coherent_demo(1.0, 8)
    eigensystem = f.eigensystem if supplied else None
    build_model(f.theta1, f.x, eigensystem=eigensystem)
    with pytest.raises(SpectrumError):
        build_model(f.theta1, f.x, multiplicity_tolerance=10.0, eigensystem=eigensystem)


def test_inverse_map_reconstructs_seed_eigenvectors():
    # phi1_n = X phi2_n / tilde_k_n on every surviving mode
    m = fixture_3x3(1.0, 2.0, 3.0).model
    alive = list(m.survivors)
    recon = m.x @ m.phi2[:, alive] / m.tilde_k[alive]
    np.testing.assert_allclose(recon, m.phi1[:, alive], atol=1e-10)


def test_inverse_map_identity():
    m = build_model(np.diag([1.0, 2.0, 3.0]).astype(complex), np.eye(3, dtype=complex))
    np.testing.assert_allclose(m.x @ m.phi2 / m.tilde_k, m.phi1, atol=1e-15)


# ---------------------------------------------------------------------------
# verify_relations


def test_relations_all_pass_on_rectangular_fixture():
    f = fixture_3x3(1.0, 2.0, 3.0)
    report = verify_relations(f.model)
    assert report.all_passed
    assert max(report.residuals.values()) < 1e-10
    assert report.tolerance == RELATION_TOL


def test_relations_report_names_every_promised_identity():
    f = fixture_3x3(1.0, 2.0, 3.0)
    report = verify_relations(f.model)
    for name in (
        "intertwine",
        "intertwine_adjoint_side",
        "intertwine_dagger",
        "intertwine_n",
        "intertwine_power_2",
        "intertwine_power_3",
        "intertwine_power_4",
        "commute_n2_theta2",
        "pairing_level1",
        "pairing_level2",
    ):
        assert name in report.residuals, name


def test_relations_fail_under_frame_fault():
    f = fixture_3x3(1.0, 2.0, 3.0)
    x_bad = f.model.x.copy()
    x_bad[0, 0] += 0.1
    broken = dataclasses.replace(f.model, x=x_bad)
    report = verify_relations(broken)
    assert not report.all_passed
    assert max(report.residuals.values()) > 1e-3


def test_relations_skip_pairing_for_plain_invertible():
    model = build_model(PLAIN_THETA1, PLAIN_X)
    assert model.case == CASE_INVERTIBLE
    report = verify_relations(model)
    assert report.all_passed
    assert "pairing_level2" in report.skipped
    assert "n_eigen" in report.skipped
    # the always-valid relations still run
    assert "intertwine" in report.residuals
    assert "theta2_eigen" in report.residuals


def test_report_renders_pass_lines():
    f = fixture_3x3(1.0, 2.0, 3.0)
    text = str(verify_relations(f.model))
    assert "PASS" in text and "FAIL" not in text
    assert "tolerance" in text


# ---------------------------------------------------------------------------
# structure checks


def _symmetrized_3x3(e1, e2, e3):
    """Hermitian seed sharing the fixture's frame-compatible eigenspaces."""
    f = fixture_3x3(e1, e2, e3)
    q, _ = np.linalg.qr(eig(f.theta1).vectors)
    theta1 = q @ np.diag([e1, e2, e3]).astype(complex) @ adjoint(q)
    return theta1, f.x


def test_structure_selfadjoint_seed_descends():
    theta1, x = _symmetrized_3x3(1.0, 2.0, 3.0)
    assert opnorm(theta1 - adjoint(theta1)) < 1e-12
    model = build_model(theta1, x)
    report = structure_check(model)
    assert report.residuals["commutator_n2_theta2"] < 1e-10
    assert report.residuals["theta2_self_adjoint"] < 1e-10


def test_structure_reports_not_applicable_parts():
    f = fixture_3x3(1.0, 2.0, 3.0)
    report = structure_check(f.model)
    # rectangular frames always have singular row gram
    assert "theta1_self_adjoint" in report.skipped
    assert "n_inverse_intertwine" in report.skipped
    assert "theta2_self_adjoint" in report.skipped


def test_structure_requires_noninvertible_regime():
    model = build_model(PLAIN_THETA1, PLAIN_X)
    with pytest.raises(RegimeError):
        structure_check(model)


@pytest.mark.parametrize("shape", [(8, 8), (8, 9)], ids=["square", "wide"])
def test_structure_refuses_a_noninvertible_tag_on_an_x_that_is_not_tall(shape):
    # only a strictly tall X makes N1 = X X-adjoint singular by rank
    model = build_model(*make_commuting_pair(8, 4, 0))
    x = np.ones(shape, dtype=complex)
    with pytest.raises(RegimeError, match="strictly tall X"):
        structure_check(dataclasses.replace(model, x=x))


def test_structure_skips_the_n_inverse_identities_of_a_large_x():
    # at X * 1e5 the rounded zero eigenvalue of N1 reads about 1e-5: a positivity
    # test would take that for strict positivity and fail theta1_reconstruction
    theta1, x = make_commuting_pair(3, 2, 3)
    report = structure_check(build_model(theta1, x * 1e5))
    assert report.skipped["n_inverse_intertwine"] == "N1 singular"
    assert report.skipped["theta1_reconstruction"] == "N1 singular"


def test_adjoint_descent_is_consistent():
    assert adjoint_descent(fixture_3x3(1.0, 2.0, 3.0).model) < 1e-10


def test_adjoint_descent_selfadjoint_seed():
    theta1, x = _symmetrized_3x3(1.0, 2.0, 3.0)
    model = build_model(theta1, x)
    assert adjoint_descent(model) < 1e-10
    np.testing.assert_allclose(model.theta2, adjoint(model.theta2), atol=1e-10)


# ---------------------------------------------------------------------------
# random instance generator


def test_generator_produces_noninvertible_instances():
    theta1, x = make_commuting_pair(3, 2, seed=0)
    assert classify(theta1, x) == CASE_NONINVERTIBLE


def test_generator_instances_verify():
    theta1, x = make_commuting_pair(5, 3, seed=11)
    report = verify_relations(build_model(theta1, x))
    assert report.all_passed


def test_generator_rejects_square_request():
    with pytest.raises(DimensionError):
        make_commuting_pair(4, 4, seed=0)
    with pytest.raises(DimensionError):
        make_commuting_pair(3, 0, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
def test_generator_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        make_commuting_pair(4, 2, seed)


def test_generator_hermitian_flag():
    theta1, x = make_commuting_pair(6, 4, seed=2, hermitian=True)
    assert opnorm(theta1 - adjoint(theta1)) < 1e-12
    model = build_model(theta1, x)
    report = structure_check(model)
    assert report.residuals["theta2_self_adjoint"] < 1e-10


def test_generator_is_deterministic_per_seed():
    a1, x1 = make_commuting_pair(5, 3, seed=9)
    a2, x2 = make_commuting_pair(5, 3, seed=9)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(x1, x2)


@given(st.integers(0, 2000))
@settings(max_examples=60, deadline=None)
def test_generator_models_satisfy_transport_properties(seed):
    rng = np.random.default_rng(seed)
    dim2 = int(rng.integers(1, 7))
    dim1 = int(rng.integers(dim2 + 1, 10))
    theta1, x = make_commuting_pair(dim1, dim2, seed=seed)
    model = build_model(theta1, x)
    assert model.case == CASE_NONINVERTIBLE
    report = verify_relations(model, tol=PROPERTY_TOL)
    assert report.all_passed, report.failures()
    # lost modes count matches dimensions; surviving values transfer
    assert len(model.kernel_set) == dim1 - dim2
    tilde = np.asarray(model.tilde_k)
    survivors = list(model.survivors)
    assert np.all(tilde[survivors] > 0)
    assert _spectra_match(
        eig(model.theta2).values, np.asarray(model.values)[survivors], tol=PROPERTY_TOL
    )


def test_model_serialization_roundtrip(tmp_path):
    model = fixture_3x3(1.0, 2.0, 3.0).model
    doc = iomod.model_document(model, verify_relations(model).residuals)
    for key in ("schema", "theta1", "X", "theta2", "case", "kernel_set", "tilde_k", "residuals"):
        assert key in doc, key
    assert doc["case"] == CASE_NONINVERTIBLE
    assert doc["kernel_set"] == [2]
    iomod.save_report(doc, tmp_path / "model.json")
    back = iomod.load_model(tmp_path / "model.json")
    for key, stored in (("theta1_matrix", model.theta1), ("x_matrix", model.x),
                        ("theta2_matrix", model.theta2)):
        # bit for bit, but for the sign of a zero: the writer stores -0.0 as 0
        # (theta2 here has one), and adding 0.0 makes a negative zero positive
        assert back[key].tobytes() == (stored + 0.0).tobytes(), key
    assert back["case"] == model.case
    assert back["kernel_set"] == model.kernel_set
    np.testing.assert_array_equal(back["tilde_k"], model.tilde_k)
