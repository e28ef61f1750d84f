"""Core matrix helpers: adjoint, commutator, kernels, eig, partners."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec import (
    BiorthogonalSystem,
    DimensionError,
    EpsilonSequence,
    Eigensystem,
    NumericalError,
    SingularityError,
    SpectrumError,
    adjoint,
    biorthogonal_partner,
    build_model,
    commutator,
    eig,
    fixture_3x3,
    get_fixture,
    is_strictly_positive,
    opnorm,
)
from isospec.linalg import MULTIPLICITY_TOL, _require_simple

EIG_RESIDUAL_TOL = 1e-10
PAIRING_TOL = 1e-10
KERNEL_TOL = 1e-10

SQRT3 = math.sqrt(3.0)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _simple(values, tol=MULTIPLICITY_TOL) -> bool:
    """The verdict of the one simple-spectrum rule, which build_model applies."""
    try:
        _require_simple(np.asarray(values), tol)
    except SpectrumError:
        return False
    return True


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_identity():
    np.testing.assert_array_equal(adjoint(np.eye(2, dtype=complex)), np.eye(2))


def test_adjoint_rectangular_frame():
    x = np.array([[0.0, 1.0], [-SQRT3 / 2, -0.5], [SQRT3 / 2, -0.5]], dtype=complex)
    xh = adjoint(x)
    assert xh.shape == (2, 3)
    np.testing.assert_allclose(xh[0], [0.0, -SQRT3 / 2, SQRT3 / 2], atol=1e-15)


def test_adjoint_conjugates():
    np.testing.assert_array_equal(adjoint(np.array([[1j]])), np.array([[-1j]]))


@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_adjoint_is_an_involution(seed, rows, cols):
    m = _random_complex(np.random.default_rng(seed), rows, cols)
    np.testing.assert_array_equal(adjoint(adjoint(m)), m)


# ---------------------------------------------------------------------------
# commutator


def test_commutator_with_identity_vanishes():
    rng = np.random.default_rng(3)
    m = _random_complex(rng, 4, 4)
    np.testing.assert_allclose(commutator(np.eye(4), m), np.zeros((4, 4)), atol=1e-14)


def test_commutator_seed_with_frame_gram():
    f = fixture_3x3(1.0, 2.0, 3.0)
    n1 = f.x @ adjoint(f.x)
    assert opnorm(commutator(n1, f.theta1)) < 1e-12


def test_commutator_hand_oracle():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(
        commutator(a, b), np.array([[0.0, -1.0], [0.0, 0.0]]), atol=1e-15
    )


def test_commutator_shape_mismatch():
    with pytest.raises(DimensionError):
        commutator(np.eye(2), np.eye(3))


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_commutator_antisymmetry(seed, n):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, n, n)
    b = _random_complex(rng, n, n)
    np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))


# ---------------------------------------------------------------------------
# kernels: the kernel_set of build_model


def test_kernel_of_frame_adjoint_is_uniform_vector():
    model = fixture_3x3(1.0, 2.0, 3.0).model
    assert model.kernel_set == (2,)
    v = model.phi1[:, 2]
    assert np.linalg.norm(adjoint(model.x) @ v) <= KERNEL_TOL * np.linalg.norm(v)
    target = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
    overlap = abs(np.vdot(target, v)) / np.linalg.norm(v)
    assert abs(overlap - 1.0) < 1e-12


def test_kernel_of_invertible_matrix_is_empty():
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    assert build_model(np.diag([1.0, 2.0]).astype(complex), x).kernel_set == ()


def test_kernel_of_block_frame_adjoint():
    # columns pair up (2j, 2j+1) with equal weights, so differences die
    n = 4
    model = get_fixture("block", n_blocks=n).model
    assert model.kernel_set == tuple(range(0, 2 * n, 2))
    dead = list(model.kernel_set)
    kernel = model.phi1[:, dead]
    lost = np.linalg.norm(adjoint(model.x) @ kernel, axis=0)
    assert np.all(lost <= KERNEL_TOL * np.linalg.norm(kernel, axis=0))
    for j in range(n):
        diff = np.zeros(2 * n, dtype=complex)
        diff[2 * j] = 1.0 / math.sqrt(2.0)
        diff[2 * j + 1] = -1.0 / math.sqrt(2.0)
        overlap = abs(np.vdot(diff, kernel[:, j])) / np.linalg.norm(kernel[:, j])
        assert abs(overlap - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# eig


def test_eig_diagonal():
    es = eig(np.diag([1.0, 2.0, 3.0]).astype(complex))
    np.testing.assert_allclose(es.values, [1.0, 2.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(es.vectors), np.eye(3), atol=1e-14)
    assert _simple(es.values)


def test_eig_recovers_printed_seed_eigenvectors():
    f = fixture_3x3(1.0, 2.0, 3.0)
    es = eig(f.theta1)
    np.testing.assert_allclose(es.values, [1.0, 2.0, 3.0], atol=1e-12)
    s2, s6, s23 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(2.0 / 3.0)
    printed = [
        np.array([-1 / s2 - 1 / s6, s23, 1 / s2 - 1 / s6], dtype=complex),
        np.array([-s23 - 1 / s2, 2 * s23, -s23 + 1 / s2], dtype=complex),
        np.full(3, 1.0 / math.sqrt(3.0), dtype=complex),
    ]
    for n, vec in enumerate(printed):
        unit = vec / np.linalg.norm(vec)
        overlap = abs(np.vdot(unit, es.vectors[:, n]))
        assert abs(overlap - 1.0) < 1e-12, f"mode {n} direction mismatch"


def test_eig_symmetric_block():
    alpha, beta = 2.0, 0.5
    es = eig(np.array([[alpha, beta], [beta, alpha]], dtype=complex))
    np.testing.assert_allclose(es.values, [alpha - beta, alpha + beta], atol=1e-14)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(es.vectors[:, 0], minus, atol=1e-14)
    np.testing.assert_allclose(es.vectors[:, 1], plus, atol=1e-14)


def test_eig_flags_degenerate_spectrum():
    es = eig(np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex))
    assert not _simple(es.values)


@pytest.mark.parametrize("direction", [1.0, -1.0, 1j])
def test_simple_spectrum_gap_edge(direction):
    tol = 1e-8

    def simple(gap):
        return _simple(np.array([5.0, 0.0, direction * gap]), tol)

    assert not simple(tol)
    assert simple(np.nextafter(tol, 1.0))


@pytest.mark.parametrize("direction", [1.0, -1.0, 1j])
def test_a_spectrum_that_is_not_simple_is_refused_naming_its_closest_pair(direction):
    # sorted by (Re, Im), the seed's eigenvalues 5, 0, 3 and 1e-9 * direction put the
    # closest pair, 1e-9 apart, first; 3 and 5, the next closest, are 2 apart
    theta1 = np.diag([5.0, 0.0, 3.0, 1e-9 * direction]).astype(complex)
    with pytest.raises(SpectrumError) as info:
        build_model(theta1, np.eye(4, dtype=complex))
    message = str(info.value)
    assert "not simple: eigenvalues 0 and 1 " in message
    assert "lie 1.000e-09 apart, within the multiplicity tolerance 1.0e-08" in message
    assert not _simple(eig(theta1).values)
    assert _simple(np.diag(theta1), 1e-10)


def test_the_3x3_example_names_the_pair_its_simple_spectrum_loses():
    fixture = fixture_3x3(1.0, 3.0, 1.0)
    match = r"eigenvalues 0 and 2 \(1\+0j, 1\+0j\) lie 0\.000e\+00 apart"
    with pytest.raises(SpectrumError, match=match):
        fixture.model


def test_a_nan_gap_is_no_gap():
    assert _simple(np.array([0.0, np.nan, 1.0]))


@given(st.integers(0, 10**6), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_eig_residual_invariant(seed, n):
    m = _random_complex(np.random.default_rng(seed), n, n)
    es = eig(m)
    scale = opnorm(m)
    for k in range(n):
        r = np.linalg.norm(m @ es.vectors[:, k] - es.values[k] * es.vectors[:, k])
        assert r <= EIG_RESIDUAL_TOL * max(scale, 1.0)


def test_eigensystem_validates_shapes():
    with pytest.raises(DimensionError):
        Eigensystem(values=np.array([1.0, 2.0]), vectors=np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# biorthogonal_partner


def test_partner_of_orthonormal_family_is_itself():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(_random_complex(rng, 5, 5))
    np.testing.assert_allclose(biorthogonal_partner(q), q, atol=1e-12)


def test_partner_of_identity_family_is_identity():
    np.testing.assert_allclose(
        biorthogonal_partner(np.eye(6, dtype=complex)), np.eye(6), atol=1e-15
    )


def test_partner_solves_adjoint_eigenproblem():
    f = fixture_3x3(1.0, 2.0, 3.0)
    es = eig(f.theta1)
    psi = biorthogonal_partner(es.vectors)
    th = adjoint(f.theta1)
    for n, value in enumerate([1.0, 2.0, 3.0]):
        r = np.linalg.norm(th @ psi[:, n] - value * psi[:, n])
        assert r < 1e-10


def test_partner_rejects_rank_deficient_family():
    phi = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularityError):
        biorthogonal_partner(phi)


def _reference_partner(phi):
    """The rank test as it read before the certified bound: singular values first."""
    s = np.linalg.svd(phi, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularityError(
            f"vector family is rank deficient (sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )
    return np.linalg.inv(phi).conj().T


def _family(seed, n, cond):
    """A random n x n complex family with singular values geomspace(1, 1/cond)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(_random_complex(rng, n, n))
    v, _ = np.linalg.qr(_random_complex(rng, n, n))
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.conj().T


@pytest.fixture
def svd_shapes(monkeypatch):
    shapes = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def test_a_well_conditioned_family_takes_no_svd(svd_shapes):
    rng = np.random.default_rng(3)
    phi = _random_complex(rng, 30, 30) + 8.0 * np.eye(30)
    psi = biorthogonal_partner(phi)
    assert (30, 30) not in svd_shapes
    assert np.array_equal(psi, np.linalg.inv(phi).conj().T)


@pytest.mark.parametrize("singular", [True, False], ids=["exact", "cond_1e13"])
def test_a_rank_deficient_family_raises_the_svd_message(singular, svd_shapes):
    if singular:
        phi = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(phi)
    else:
        phi = _family(7, 6, 1e13)
        assert np.all(np.isfinite(np.linalg.inv(phi)))
    with pytest.raises(SingularityError) as want:
        _reference_partner(phi)
    svd_shapes.clear()
    with pytest.raises(SingularityError) as got:
        biorthogonal_partner(phi)
    assert str(got.value) == str(want.value)
    assert svd_shapes == [phi.shape]


@given(seed=st.integers(0, 10**6), n=st.integers(1, 12), log_cond=st.floats(0.0, 14.0))
@settings(max_examples=80, deadline=None)
def test_partner_verdict_and_bits_match_the_svd_test(seed, n, log_cond):
    phi = _family(seed, n, 10.0**log_cond)
    try:
        want = _reference_partner(phi)
    except SingularityError as exc:
        with pytest.raises(SingularityError) as got:
            biorthogonal_partner(phi)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(biorthogonal_partner(phi), want)


@given(st.integers(0, 10**6), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_partner_pairing_defect(seed, n):
    rng = np.random.default_rng(seed)
    phi = _random_complex(rng, n, n) + 3.0 * np.eye(n)
    if np.linalg.cond(phi) > 1e6:
        phi = phi + 3.0 * np.eye(n)
    psi = biorthogonal_partner(phi)
    gram = adjoint(phi) @ psi
    assert np.max(np.abs(gram - np.eye(n))) <= PAIRING_TOL * np.linalg.cond(phi)


def test_columns_take_a_sub_system_in_the_given_order():
    rng = np.random.default_rng(11)
    phi = _random_complex(rng, 4, 4) + 3.0 * np.eye(4)
    system = BiorthogonalSystem(
        phi=phi, psi=biorthogonal_partner(phi), pairing=[1, 0, 2, 3]
    )
    sub = system.columns([3, 0])
    np.testing.assert_array_equal(sub.phi, phi[:, [3, 0]])
    np.testing.assert_array_equal(sub.psi, system.psi[:, [3, 0]])
    np.testing.assert_array_equal(sub.pairing, [3.0, 1.0])
    head = system.columns(slice(2))
    assert head.size == 2
    np.testing.assert_array_equal(head.pairing, [1.0, 0.0])


# ---------------------------------------------------------------------------
# is_strictly_positive


def test_positive_gram_detected():
    assert is_strictly_positive(1.5 * np.eye(2, dtype=complex))


def test_singular_gram_rejected():
    f = fixture_3x3(1.0, 2.0, 3.0)
    n1 = f.x @ adjoint(f.x)
    assert not is_strictly_positive(n1)


def test_zero_matrix_not_positive():
    assert not is_strictly_positive(np.zeros((3, 3), dtype=complex))


def test_non_selfadjoint_not_positive():
    assert not is_strictly_positive(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


# ---------------------------------------------------------------------------
# generalized factorials


def test_factorial_linear_sequence():
    eps = EpsilonSequence.linear(1.0, 8)
    assert eps.factorials(5)[4] == pytest.approx(24.0)


def test_factorial_scaled_sequence():
    eps = EpsilonSequence.linear(2.0, 8)
    assert eps.factorials(4)[3] == pytest.approx(48.0)


def test_factorial_empty_product():
    eps = EpsilonSequence.linear(1.0, 4)
    assert eps.factorials(1)[0] == 1.0


def test_factorials_past_the_float_range_are_inf_without_a_warning():
    # eps_k! = 1e10^k k! leaves the float range at k = 28; warnings are errors here
    facts = EpsilonSequence.linear(1e10, 64).factorials(64)
    assert np.isfinite(facts[:28]).all() and np.isinf(facts[28:]).all()


def test_a_short_sequence_is_refused_by_its_length_rule():
    eps = EpsilonSequence.linear(1.0, 4)
    assert eps.require_length(4) is eps
    for call in (lambda: eps.require_length(5), lambda: eps.factorials(5)):
        with pytest.raises(DimensionError) as info:
            call()
        assert str(info.value) == "need 5 epsilon values, got 4"


def test_epsilon_sequence_rejects_negative_entries():
    with pytest.raises(ValueError):
        EpsilonSequence(np.array([0.0, -1.0, 2.0]))


@pytest.mark.parametrize("slope", [math.inf, -math.inf, math.nan])
def test_linear_sequence_refuses_a_non_finite_slope(slope):
    with pytest.raises(ValueError, match="slope must be finite"):
        EpsilonSequence.linear(slope, 4)


def test_epsilon_strictly_increasing_flag():
    assert EpsilonSequence(np.array([0.0, 1.0, 2.0])).strictly_increasing
    assert not EpsilonSequence(np.array([1.0, 2.0, 3.0])).strictly_increasing
    assert not EpsilonSequence(np.array([0.0, 2.0, 2.0])).strictly_increasing


@given(st.integers(0, 10**6), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_factorial_recurrence(seed, n):
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.1, 2.0, size=12)
    values = np.concatenate([[0.0], np.cumsum(steps)])
    eps = EpsilonSequence(values)
    facts = eps.factorials(n + 2)
    lhs = facts[n + 1]
    rhs = facts[n] * values[n + 1]
    assert lhs == pytest.approx(rhs, rel=1e-12)
