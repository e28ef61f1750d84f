"""Ladder factorizations, state families, moment measures, quantization."""

import functools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isospec import (
    BiorthogonalSystem,
    DegenerateError,
    DimensionError,
    DivergenceError,
    EpsilonSequence,
    KernelError,
    MomentError,
    NumericalError,
    PairingError,
    ParameterError,
    RegimeError,
    adjoint,
    build_ladders,
    build_model,
    coherent_demo,
    coherent_grid,
    coherent_pair,
    convergence_for_system,
    filter_and_build,
    filter_system,
    fixture_3x3,
    fixture_shift,
    get_fixture,
    nlpb_verify,
    quantize,
    radius,
    resolution_check,
    solve_moment_measure,
    standard_boson,
)
from isospec import bicoherent, cli
from isospec.bicoherent import _fit_growth_from_norms
from isospec.io import canonical_json
from isospec.linalg import column_defects

FACTORIZATION_TOL = 1e-10
MOMENT_REL_TOL = 1e-10
RESOLUTION_TOL = 1e-8


def _factorization_defect(pair, system, eps) -> float:
    """max_n ||B A phi_n - eps_n phi_n|| / ||phi_n|| over the system's truncation."""
    return float(column_defects(pair.b @ pair.a, system.phi, eps.values[: system.size]).max())


def _orthonormal_system(dim):
    eye = np.eye(dim, dtype=complex)
    return BiorthogonalSystem(phi=eye, psi=eye, pairing=np.ones(dim))


def _bounded_eps(dim, limit=4.0):
    # strictly increasing toward `limit`, converged well inside the window
    return EpsilonSequence(limit - limit * 0.5 ** np.arange(float(dim)))


# ---------------------------------------------------------------------------
# level-1 ladders


def test_ladders_reproduce_truncated_boson_matrices():
    a, b, eps, _, _ = standard_boson(9)
    pair = build_ladders(_orthonormal_system(9), eps)
    np.testing.assert_allclose(pair.a, a, atol=1e-14)
    np.testing.assert_allclose(pair.b, b, atol=1e-14)


def test_ladders_factorize_the_diagonal_action():
    eps = EpsilonSequence.linear(1.0, 12)
    system = _orthonormal_system(12)
    pair = build_ladders(system, eps)
    assert _factorization_defect(pair, system, eps) < FACTORIZATION_TOL
    # composing the other way loses exactly the top mode
    ab = pair.a @ pair.b
    top = np.zeros(12, dtype=complex)
    top[-1] = 1.0
    assert np.linalg.norm(ab @ top) < 1e-12


def test_ladders_lowering_matches_shift_frame_adjoint():
    f = fixture_shift(np.arange(8.0), math.pi / 4, 8)
    system = f.model.system1()
    pair = build_ladders(system, EpsilonSequence(f.model.tilde_k))
    np.testing.assert_allclose(pair.a[:-1, :], adjoint(f.model.x), atol=1e-12)
    np.testing.assert_allclose(pair.a[-1, :], np.zeros(8), atol=1e-14)


def test_ladders_require_unit_pairing():
    # the level is the system's pairing: a pairing-1.5 system gets its own
    # pairing-weighted ladders, which factorize its diagonal action
    eye = np.eye(3, dtype=complex)
    level2 = BiorthogonalSystem(
        phi=eye, psi=1.5 * eye, pairing=1.5 * np.ones(3)
    )
    eps = EpsilonSequence.linear(1.0, 3)
    pair = build_ladders(level2, eps)
    assert _factorization_defect(pair, level2, eps) < FACTORIZATION_TOL
    np.testing.assert_allclose(pair.a @ eye[:, 2], math.sqrt(2.0) * eye[:, 1], atol=1e-14)


def test_ladders_require_increasing_sequence():
    with pytest.raises(ParameterError):
        build_ladders(_orthonormal_system(3), EpsilonSequence(np.array([0.0, 2.0, 1.0])))


def test_a_sequence_is_not_changed_through_the_array_it_was_built_from():
    values = np.arange(6.0)
    eps = EpsilonSequence(values)
    values[3] = 0.5
    assert eps.strictly_increasing
    np.testing.assert_array_equal(eps.values, np.arange(6.0))
    with pytest.raises(ValueError):
        eps.values[3] = 0.5
    system = coherent_demo(1.0, 3).model.system1()
    want = build_ladders(system, EpsilonSequence.linear(1.0, 6))
    np.testing.assert_array_equal(build_ladders(system, eps).a, want.a)
    with pytest.raises(ParameterError):
        build_ladders(system, values)


# ---------------------------------------------------------------------------
# level-2 ladders


def test_level2_factorizes_on_surviving_modes():
    alpha1 = 1.0
    f = coherent_demo(alpha1, 6)
    system2 = f.model.system2()
    eps2 = EpsilonSequence(4.0 * alpha1 * np.arange(6.0))
    pair = build_ladders(system2, eps2)
    assert _factorization_defect(pair, system2, eps2) < FACTORIZATION_TOL


def test_level2_two_mode_coefficient():
    f = fixture_3x3(1.0, 2.0, 3.0)
    system2 = f.model.system2()
    pair = build_ladders(system2, EpsilonSequence(np.array([0.0, 2.0])))
    # equal pairing constants make the transition weight plain sqrt(eps_1)
    lhs = pair.a @ system2.phi[:, 1]
    np.testing.assert_allclose(lhs, math.sqrt(2.0) * system2.phi[:, 0], atol=1e-12)


def test_level2_rejects_kernel_constants():
    system = _orthonormal_system(3)
    with pytest.raises(KernelError):
        build_ladders(replace(system, pairing=[1, 0, 1]), EpsilonSequence.linear(1.0, 3))


# ---------------------------------------------------------------------------
# growth fitting and convergence radius


def _phi_fit(norms):
    """(r_phi, alpha_phi) of the diagonal family with column norms ``norms``."""
    norms = np.asarray(norms, dtype=float)
    system = BiorthogonalSystem(
        phi=np.diag(norms).astype(complex),
        psi=np.diag(1.0 / norms).astype(complex),
        pairing=np.ones(norms.size),
    )
    conv = convergence_for_system(system, EpsilonSequence.linear(1.0, norms.size))
    return conv.r_phi, conv.alpha_phi


def test_fit_unit_family():
    assert _phi_fit(np.ones(10)) == (1.0, 0.0)


def test_fit_geometric_family():
    r, alpha = _phi_fit(2.0 ** np.arange(10))
    assert r == pytest.approx(2.0, rel=1e-9)
    assert alpha == 0.0


def test_fit_factorial_root_family():
    r, alpha = _phi_fit(np.sqrt([math.factorial(n) for n in range(10)]))
    assert r == pytest.approx(1.0, rel=1e-9)
    assert alpha == pytest.approx(0.5)


def test_fit_ignores_a_constant_prefactor():
    # the fit sees the norms divided by the first: 1.5 ||phi_n|| fits as ||phi_n||
    assert _phi_fit(1.5 * 2.0 ** np.arange(10)) == _phi_fit(2.0 ** np.arange(10))


@pytest.mark.parametrize("order", [0, -1, 11])
def test_convergence_for_system_refuses_an_order_outside_the_system(order):
    with pytest.raises(DimensionError, match="order must lie in 1..10"):
        convergence_for_system(_orthonormal_system(10), EpsilonSequence.linear(1.0, 10), order)


def test_convergence_for_system_refuses_a_kernel_mode():
    # shift's level-2 system starts with its kernel mode, whose zero norm
    # leaves no growth to fit relative to the first
    system2 = get_fixture("shift").model.system2(include_kernel=True)
    assert system2.pairing[0] == 0.0
    with pytest.raises(KernelError):
        convergence_for_system(system2, EpsilonSequence.linear(1.0, 8))


def _loop_fit(norms, facts):
    """Reference growth fit: the scalar double loop over alpha and n."""
    alphas = np.linspace(0.0, 0.5, 33)
    rs = []
    for alpha in alphas:
        r = 1e-12
        for n in range(1, norms.size):
            r = max(r, (norms[n] / facts[n] ** alpha) ** (1.0 / n))
        rs.append(r)
    threshold = max(1.0, min(rs)) * (1.0 + 1e-12)
    for alpha, r in zip(alphas, rs):
        if r <= threshold:
            return float(r), float(alpha)
    return float(rs[-1]), float(alphas[-1])


@given(
    st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=40),
    st.lists(st.floats(1e-2, 1e2), min_size=39, max_size=39),
)
@example([0.0] * 10, [1.0] * 39)
@example([0.0] * 10, [0.5] * 39)
@example([0.0, -50.0, -50.0, 3.0], [1.0] * 39)
@settings(max_examples=200, deadline=None)
def test_vectorized_fit_matches_the_loop(log_norms, steps):
    # log10 norms, the first capped at 0 so that ||phi_0|| <= 1
    norms = 10.0 ** np.minimum(np.array(log_norms), [0.0] + [np.inf] * (len(log_norms) - 1))
    facts = EpsilonSequence(np.concatenate(([0.0], np.cumsum(steps)))).factorials(norms.size)
    r, alpha = _fit_growth_from_norms(norms, facts)
    r_loop, alpha_loop = _loop_fit(norms, facts)
    # numpy's vectorized power may differ from scalar pow by one ulp
    assert alpha == alpha_loop
    assert r == pytest.approx(r_loop, rel=1e-15, abs=0.0)


def test_radius_unbounded_sequence():
    conv = radius(1.0, 0.0, 1.0, 0.0, EpsilonSequence.linear(1.0, 40))
    assert math.isinf(conv.rho)


def test_radius_bounded_sequence():
    conv = radius(1.0, 0.0, 1.0, 0.0, _bounded_eps(40))
    assert conv.rho_hat == pytest.approx(4.0, rel=1e-6)
    assert conv.rho == pytest.approx(2.0, rel=1e-6)


def test_radius_half_exponent_ignores_sequence():
    conv = radius(2.0, 0.5, 2.0, 0.5, EpsilonSequence.linear(1.0, 40))
    assert conv.rho_phi == pytest.approx(0.5)
    assert conv.rho_psi == pytest.approx(0.5)
    assert conv.rho == pytest.approx(0.5)


def test_radius_takes_minimum_of_three_estimates():
    conv = radius(1.0, 0.0, 4.0, 0.0, _bounded_eps(40))
    assert conv.rho_psi == pytest.approx(0.5, rel=1e-6)
    assert conv.rho == pytest.approx(0.5, rel=1e-6)


def test_convergence_for_system_rescales_first_norm():
    # family norms above 1 describe a prefactor, not a smaller radius
    f = fixture_3x3(1.0, 2.0, 3.0)
    conv = convergence_for_system(f.model.system1(), EpsilonSequence.linear(1.0, 3), 3)
    assert math.isinf(conv.rho)


def test_convergence_data_serializes():
    conv = radius(1.0, 0.0, 1.0, 0.0, EpsilonSequence.linear(1.0, 20))
    doc = conv.to_jsonable()
    assert math.isinf(doc["rho"])
    assert doc["r_phi"] == 1.0
    assert '"rho": "inf"' in canonical_json(doc)


# ---------------------------------------------------------------------------
# level-1 states


def test_state_at_origin_is_first_vector():
    system = _orthonormal_system(10)
    state = coherent_pair(system, EpsilonSequence.linear(1.0, 10), 0.0, 10)
    assert state.normalization == pytest.approx(1.0)
    np.testing.assert_allclose(state.vector_phi, system.phi[:, 0], atol=1e-14)
    np.testing.assert_allclose(state.vector_psi, system.psi[:, 0], atol=1e-14)


def test_state_normalization_closed_form():
    alpha1 = 1.0
    f = coherent_demo(alpha1, 16)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    for z in (0.5, 1.0 + 0.5j, -1.2j):
        state = coherent_pair(system, eps, z, 32)
        expected = math.exp(-abs(z) ** 2 / (4.0 * alpha1))
        assert state.normalization == pytest.approx(expected, abs=1e-9)
        assert abs(state.overlap - 1.0) < 1e-12


def test_state_coefficients_follow_series_law():
    system = _orthonormal_system(8)
    eps = EpsilonSequence.linear(1.0, 8)
    z = 0.7 - 0.2j
    state = coherent_pair(system, eps, z, 8)
    for k in range(8):
        expected = state.normalization * z**k / math.sqrt(eps.factorials(8)[k])
        assert state.coefficients[k] == pytest.approx(expected, rel=1e-12)


def test_state_is_lowering_eigenvector_within_tail():
    f = coherent_demo(1.0, 16)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    pair = build_ladders(system, eps)
    for z in (0.3, 1.5 + 0.2j, 1.9j):
        state = coherent_pair(system, eps, z, 30)
        residual = np.linalg.norm(pair.a @ state.vector_phi - z * state.vector_phi)
        assert residual <= 10.0 * state.tail_bound


def test_state_outside_radius_is_refused():
    system = _orthonormal_system(40)
    with pytest.raises(DivergenceError):
        coherent_pair(system, _bounded_eps(40), 2.5, 40)


def test_state_flags_slow_tail():
    system = _orthonormal_system(40)
    state = coherent_pair(system, _bounded_eps(40), 1.95, 40)
    assert not state.converged


@pytest.mark.parametrize("alpha1", [0.5, 1.0, 2.0])
def test_grid_matches_per_z_states(alpha1):
    f = coherent_demo(alpha1, 32)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    rmax = 2.0 * math.sqrt(alpha1)
    zs = [0.0] + [
        r * complex(math.cos(t), math.sin(t))
        for r in np.linspace(rmax / 5.0, rmax, 5)
        for t in np.linspace(0.3, 2.0 * math.pi + 0.3, 6, endpoint=False)
    ]
    grid = coherent_grid(system, eps, zs, 60)
    assert len(grid) == len(zs)
    for z, state in zip(zs, grid):
        single = coherent_pair(system, eps, z, 60)
        assert state.z == single.z == complex(z)
        assert state.converged == single.converged
        assert state.convergence == single.convergence
        assert state.normalization == pytest.approx(single.normalization, rel=1e-13)
        assert state.overlap == pytest.approx(single.overlap, rel=1e-13)
        assert state.tail_bound == pytest.approx(single.tail_bound, rel=1e-13)
        for got, want in (
            (state.coefficients, single.coefficients),
            (state.vector_phi, single.vector_phi),
            (state.vector_psi, single.vector_psi),
        ):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_grid_refuses_z_at_and_beyond_the_radius():
    system = _orthonormal_system(40)
    eps = _bounded_eps(40)
    rho = convergence_for_system(system, eps, 40).rho
    assert math.isfinite(rho)
    for edge in (rho, 2.0 * rho):
        with pytest.raises(DivergenceError):
            coherent_grid(system, eps, [0.5, edge * 1j], 40)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), math.inf, complex(0.0, -math.inf)])
def test_non_finite_z_is_a_parameter_error(z):
    f = coherent_demo(1.0, 32)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    with pytest.raises(ParameterError, match="finite"):
        coherent_pair(system, eps, z, 32)
    with pytest.raises(ParameterError, match="finite"):
        coherent_grid(system, eps, [0.5, z], 32)


@pytest.mark.parametrize("z", [complex(3.4e-309, 2.9e-309), 5e-324, -1e-310j])
def test_a_subnormal_z_is_a_state_near_the_first_vector(z):
    f = coherent_demo(1.0, 4)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    state = coherent_pair(system, eps, z, 8)
    assert state.converged
    assert state.coefficients[0] == 1.0
    np.testing.assert_array_equal(state.coefficients[2:], 0.0)
    assert abs(state.coefficients[1]) <= 2.0 * abs(z)
    np.testing.assert_allclose(state.vector_phi, system.phi[:, 0], rtol=0, atol=1e-300)


def test_state_far_outside_the_truncation_is_finite_and_flagged():
    # rho is infinite here; only the order-60 truncation fails, and the
    # log-space weights keep |z|^(2k) from overflowing
    f = coherent_demo(1.0, 32)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    state = coherent_pair(system, eps, 1e3, 60)
    assert not state.converged
    assert np.all(np.isfinite(state.coefficients))
    assert abs(state.overlap - 1.0) < 1e-9


def test_level2_states_on_two_modes():
    f = fixture_3x3(1.0, 2.0, 3.0)
    system2 = f.model.system2()
    state = coherent_pair(system2, EpsilonSequence(np.array([0.0, 2.0])), 0.4, 2)
    assert abs(state.overlap - 1.0) < 1e-12


def test_level2_states_refuse_kernel_modes():
    f = coherent_demo(1.0, 4)
    system2 = f.model.system2(include_kernel=True)
    eps = EpsilonSequence(f.expected["epsilon"])
    with pytest.raises(KernelError):
        coherent_pair(system2, eps, 0.2, system2.size)


# ---------------------------------------------------------------------------
# kernel filtering


def test_filter_drops_kernel_and_relabels():
    alpha1 = 1.0
    f = coherent_demo(alpha1, 8)
    system2 = f.model.system2(include_kernel=True)
    eps = EpsilonSequence(f.expected["epsilon"])
    tilde, delta, survivors = filter_system(system2, eps)
    assert survivors == tuple(range(0, 16, 2))
    assert tilde.size == 8
    np.testing.assert_allclose(tilde.pairing, np.ones(8), atol=1e-12)
    # surviving vectors are the standard basis up to phase
    for l in range(8):
        col = tilde.phi[:, l]
        assert abs(abs(col[l]) - np.linalg.norm(col)) < 1e-12
    for l in range(4):
        expected = (2.0 * alpha1) ** (2 * l) * math.factorial(2 * l)
        assert delta.factorials(4)[l] == pytest.approx(expected, rel=1e-12)


def test_filter_relabeled_convention_uses_fresh_factorials():
    alpha1 = 1.0
    f = coherent_demo(alpha1, 8)
    system2 = f.model.system2(include_kernel=True)
    eps = EpsilonSequence(f.expected["epsilon"])
    _, delta, _ = filter_system(system2, eps, convention="relabeled")
    for l in range(4):
        expected = (4.0 * alpha1) ** l * math.factorial(l)
        assert delta.factorials(4)[l] == pytest.approx(expected, rel=1e-12)


def test_filter_rejects_unknown_convention():
    f = coherent_demo(1.0, 4)
    system2 = f.model.system2(include_kernel=True)
    eps = EpsilonSequence(f.expected["epsilon"])
    with pytest.raises(ParameterError):
        filter_system(system2, eps, convention="other")


def test_filter_rejects_fully_degenerate_system():
    eye = np.eye(3, dtype=complex)
    dead = BiorthogonalSystem(
        phi=0.0 * eye, psi=0.0 * eye, pairing=np.zeros(3)
    )
    with pytest.raises(DegenerateError):
        filter_system(dead, EpsilonSequence.linear(1.0, 3))


def test_filtered_states_match_both_printed_conventions():
    alpha1 = 1.0
    f = coherent_demo(alpha1, 16)
    system2 = f.model.system2(include_kernel=True)
    eps = EpsilonSequence(f.expected["epsilon"])
    z = 1.1 - 0.3j
    original = filter_and_build(system2, eps, z, 12, convention="original")
    assert original.normalization == pytest.approx(
        math.cosh(abs(z) / (2.0 * alpha1)) ** -0.5, abs=1e-12
    )
    relabeled = filter_and_build(system2, eps, z, 12, convention="relabeled")
    assert relabeled.normalization == pytest.approx(
        math.exp(-abs(z) ** 2 / (8.0 * alpha1)), abs=1e-12
    )
    for state in (original, relabeled):
        assert abs(state.overlap - 1.0) < 1e-12
        assert state.converged


def test_filter_without_kernel_matches_level2_states():
    eye = np.eye(6, dtype=complex)
    system = BiorthogonalSystem(
        phi=eye, psi=1.5 * eye, pairing=1.5 * np.ones(6)
    )
    eps = EpsilonSequence.linear(1.0, 6)
    z = 0.4 + 0.1j
    filtered = filter_and_build(system, eps, z, 6)
    direct = coherent_pair(system, eps, z, 6)
    np.testing.assert_allclose(filtered.vector_phi, direct.vector_phi, atol=1e-13)
    np.testing.assert_allclose(filtered.vector_psi, direct.vector_psi, atol=1e-13)


def test_level2_reads_the_kernel_the_model_wrote():
    # every tilde_k is 9e-12 here, below KERNEL_TOL, but X^H phi_n is not small
    # relative to sigma_max(X) phi_n on the even modes, so the model keeps them;
    # the level-2 constructions must keep the same modes
    f = coherent_demo(1.0, 4)
    model = build_model(f.theta1, f.x * 3e-6, relation_tol=1e-13, eigensystem=f.eigensystem)
    eps = EpsilonSequence(f.expected["epsilon"])
    _, _, survivors = filter_system(model.system2(include_kernel=True), eps)
    assert survivors == model.survivors == (0, 2, 4, 6)
    system2 = model.system2()
    eps2 = EpsilonSequence.linear(4.0, 4)
    state = coherent_pair(system2, eps2, 0.2, 4)
    assert abs(state.overlap - 1.0) < 1e-12
    assert _factorization_defect(build_ladders(system2, eps2), system2, eps2) < FACTORIZATION_TOL


def test_filter_steps_do_not_overflow_past_the_float_range():
    # eps_171! is beyond float range; each step is formed without it
    alpha1 = 1.0
    f = coherent_demo(alpha1, 86)
    system2 = f.model.system2(include_kernel=True)
    eps = EpsilonSequence(f.expected["epsilon"])
    z = 0.5
    original = filter_and_build(system2, eps, z, 10, "original")
    assert original.normalization == pytest.approx(
        math.cosh(abs(z) / (2.0 * alpha1)) ** -0.5, rel=1e-12, abs=1e-12
    )
    relabeled = filter_and_build(system2, eps, z, 10, "relabeled")
    assert relabeled.normalization == pytest.approx(
        math.exp(-abs(z) ** 2 / (8.0 * alpha1)), rel=1e-12, abs=1e-12
    )


# ---------------------------------------------------------------------------
# one disc and one filter per snapshot


@functools.lru_cache(maxsize=None)
def _demo_systems():
    """coherent_demo(1.0, 16): a level-1 system and a level-2 one with its kernel."""
    model = coherent_demo(1.0, 16).model
    return model.system1(), model.system2(include_kernel=True)


def _copied(system):
    """A fresh system, with a fresh memo, on copies of ``system``'s arrays in
    their own memory layout (a matrix product rounds by layout)."""
    return BiorthogonalSystem(
        phi=np.copy(system.phi), psi=np.copy(system.psi), pairing=np.copy(system.pairing)
    )


def _assert_same_state(got, want):
    assert got.convergence == want.convergence
    for name in ("z", "normalization", "overlap", "tail_bound", "converged"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("coefficients", "vector_phi", "vector_psi"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def _inside(conv, fraction):
    """A z at ``fraction`` of the disc (of radius 2 where the disc is the plane)."""
    return fraction * min(conv.rho, 2.0) * complex(math.cos(0.7), math.sin(0.7))


@given(st.floats(0.1, 4.0), st.integers(1, 32), st.floats(0.0, 0.9))
@settings(max_examples=40, deadline=None)
def test_a_repeated_state_equals_the_state_of_a_fresh_system(slope, order, fraction):
    system, _ = _demo_systems()
    eps = EpsilonSequence.linear(slope, system.size)
    fresh = _copied(system)
    z = _inside(convergence_for_system(fresh, eps, order), fraction)
    want = coherent_pair(fresh, eps, z, order)
    for _ in range(2):
        _assert_same_state(coherent_pair(system, eps, z, order), want)
    # equal values hit the same disc, whether a list or a new sequence
    disc = convergence_for_system(system, eps, order)
    assert convergence_for_system(system, eps.values.tolist(), order) is disc
    assert convergence_for_system(system, EpsilonSequence(eps.values), order) is disc


@given(
    st.floats(0.1, 4.0), st.integers(1, 16), st.floats(0.0, 0.9),
    st.sampled_from(["original", "relabeled"]),
)
@settings(max_examples=40, deadline=None)
def test_a_repeated_tilde_state_equals_the_state_of_a_fresh_system(
    slope, order, fraction, convention
):
    _, system2 = _demo_systems()
    eps = EpsilonSequence.linear(slope, system2.size)
    fresh = _copied(system2)
    tilde, delta, _ = filter_system(fresh, eps, convention)
    z = _inside(convergence_for_system(tilde, delta, order), fraction)
    want = filter_and_build(fresh, eps, z, order, convention)
    for _ in range(2):
        _assert_same_state(filter_and_build(system2, eps, z, order, convention), want)


def test_another_sequence_on_the_same_system_gets_its_own_disc():
    system = _orthonormal_system(40)
    narrow, wide = _bounded_eps(40, 4.0), _bounded_eps(40, 9.0)
    first = convergence_for_system(system, narrow, 40)
    second = convergence_for_system(system, wide, 40)
    assert second == convergence_for_system(_orthonormal_system(40), wide, 40)
    assert first.rho < 2.5 < second.rho
    with pytest.raises(DivergenceError):
        coherent_pair(system, narrow, 2.5, 40)
    _assert_same_state(
        coherent_pair(system, wide, 2.5, 40), coherent_pair(_orthonormal_system(40), wide, 2.5, 40)
    )
    # the order is part of the key too
    assert convergence_for_system(system, narrow, 20) == convergence_for_system(
        _orthonormal_system(40), narrow, 20
    )


def test_a_refused_state_or_fit_is_not_kept():
    system = _orthonormal_system(40)
    eps = _bounded_eps(40)
    with pytest.raises(DivergenceError):
        coherent_pair(system, eps, 2.5, 40)
    _assert_same_state(
        coherent_pair(system, eps, 0.5, 40), coherent_pair(_orthonormal_system(40), eps, 0.5, 40)
    )
    # too short a sequence, and one that does not increase
    for bad, error in ((EpsilonSequence.linear(1.0, 20), DimensionError),
                       (np.concatenate(([0.0, 2.0, 1.0], np.arange(3.0, 40.0))), ParameterError)):
        for _ in range(2):
            with pytest.raises(error):
                coherent_pair(system, bad, 0.5, 40)
    f = coherent_demo(1.0, 4)
    system2 = f.model.system2(include_kernel=True)
    eps = EpsilonSequence(f.expected["epsilon"])
    for _ in range(2):
        with pytest.raises(KernelError):
            coherent_pair(system2, eps, 0.2, system2.size)
        with pytest.raises(KernelError):
            convergence_for_system(system2, eps)
    assert not system2.memo


def test_conventions_alternate_on_one_system_with_their_own_steps():
    _, system2 = _demo_systems()
    eps = EpsilonSequence.linear(2.0, system2.size)
    want = {conv: filter_system(_copied(system2), eps, conv) for conv in ("original", "relabeled")}
    assert not np.array_equal(want["original"][1].values, want["relabeled"][1].values)
    for conv in ("original", "relabeled", "original", "relabeled"):
        tilde, delta, survivors = filter_system(system2, eps, conv)
        np.testing.assert_array_equal(delta.values, want[conv][1].values)
        np.testing.assert_array_equal(tilde.phi, want[conv][0].phi)
        assert survivors == want[conv][2]
        assert filter_system(system2, eps, conv)[1] is delta
        _assert_same_state(
            filter_and_build(system2, eps, 0.3j, 8, conv),
            filter_and_build(_copied(system2), eps, 0.3j, 8, conv),
        )


def test_a_system_is_a_read_only_snapshot_of_the_callers_arrays():
    phi = np.eye(3, dtype=complex)
    psi = 2.0 * np.eye(3, dtype=complex)
    pairing = np.full(3, 2.0)
    system = BiorthogonalSystem(phi=phi, psi=psi, pairing=pairing)
    with pytest.raises(ValueError):
        system.phi[0, 0] = 1
    for name in ("psi", "pairing"):
        with pytest.raises(ValueError):
            getattr(system, name)[0] = 1
    # views, not copies: the caller's arrays are shared and stay writable
    for array, name in ((phi, "phi"), (psi, "psi"), (pairing, "pairing")):
        assert np.shares_memory(array, getattr(system, name))
        assert array.flags.writeable
    assert not system.columns([0, 2]).phi.flags.writeable


# ---------------------------------------------------------------------------
# moment measure


def test_an_overflowing_moment_table_names_the_order():
    # s = 4e5: r^(2k) overflows first at k = 39; the rows before stay as they were
    measure = solve_moment_measure(EpsilonSequence.linear(4e5, 40), 40)
    with pytest.raises(NumericalError, match="radial moment of order 78 overflows"):
        measure.moments(40)
    assert np.all(np.isfinite(measure.moments(39)))


def test_measure_matches_gamma_moments():
    eps = EpsilonSequence.linear(1.0, 24)
    measure = solve_moment_measure(eps, 24)
    assert measure.moments(4)[3] == pytest.approx(6.0 / (2.0 * math.pi), rel=1e-12)
    assert measure.moments(1)[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert np.max(measure.moment_defects(eps, 21)) < MOMENT_REL_TOL


def test_measure_scaled_family():
    alpha1 = 0.75
    eps = EpsilonSequence.linear(2.0 * alpha1, 24)
    measure = solve_moment_measure(eps, 24)
    for k in (0, 1, 5, 20):
        expected = (2.0 * alpha1) ** k * math.factorial(k) / (2.0 * math.pi)
        assert measure.moments(k + 1)[k] == pytest.approx(expected, rel=MOMENT_REL_TOL)


def test_measure_requires_linear_sequence():
    with pytest.raises(MomentError):
        solve_moment_measure(EpsilonSequence(np.array([0.0, 1.0, 4.0, 9.0])), 4)


def test_measure_scaling_is_linear():
    eps = EpsilonSequence.linear(1.0, 8)
    measure = solve_moment_measure(eps, 8)
    doubled = replace(measure, weights=measure.weights * 2.0)
    assert doubled.moments(4)[3] == pytest.approx(2.0 * measure.moments(4)[3], rel=1e-12)


def test_a_kept_gauss_laguerre_rule_gives_the_fresh_rule_bit_for_bit():
    measures = []
    # orders 40 and 128 take 64 nodes, 200 takes 100 and 300 takes 150
    for order, nodes in ((40, 64), (200, 100), (128, 64), (300, 150), (200, 100)):
        t, w = np.polynomial.laguerre.laggauss(nodes)
        for s in (0.5, 2.0):
            measure = solve_moment_measure(EpsilonSequence.linear(s, order), order)
            assert measure.nodes.tobytes() == np.sqrt(s * t).tobytes()
            assert measure.weights.tobytes() == (w / (2.0 * math.pi)).tobytes()
            measures.append(measure)
    # the kept rule is read-only, and no measure shares it or another's arrays
    rule = bicoherent._laguerre_rule(64)
    assert bicoherent._laguerre_rule(64) is rule
    for array in rule:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    arrays = [a for m in measures for a in (m.nodes, m.weights)] + list(rule)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert bicoherent._laguerre_rule.cache_info().maxsize == bicoherent.LAGUERRE_RULES_KEPT


@pytest.mark.parametrize("order, nodes", [(1, 64), (128, 64), (129, 65), (200, 100)])
def test_the_node_count_follows_the_order(order, nodes):
    # an n-node rule is exact for the moments k <= 2n - 1, so ceil(order/2) nodes
    # cover every moment k < order; no order takes fewer than 64
    eps = EpsilonSequence.linear(0.02, order + 1)
    measure = solve_moment_measure(eps, order)
    assert measure.nodes.size == nodes
    assert np.max(measure.moment_defects(eps, order)) < 1e-9


def _first_rule_past_the_float_range() -> int:
    """The fewest nodes whose laggauss rule is not finite (187 with numpy 2.4)."""
    with np.errstate(all="ignore"):
        for nodes in range(bicoherent.DEFAULT_QUADRATURE_NODES, 1024):
            if not all(np.all(np.isfinite(a)) for a in np.polynomial.laguerre.laggauss(nodes)):
                return nodes
    raise AssertionError("laggauss stays finite up to 1024 nodes")


def test_both_sides_of_the_gauss_laguerre_limit_warn_nothing():
    # pytest turns a warning into an error: neither side may print one
    limit = _first_rule_past_the_float_range()
    last = 2 * (limit - 1)  # the highest order whose rule is finite
    eps = EpsilonSequence.linear(0.002, last + 2)
    measure = solve_moment_measure(eps, last)
    assert measure.nodes.size == limit - 1
    assert np.all(np.isfinite(measure.weights))
    with pytest.raises(MomentError, match=rf"order {last + 1}: its {limit}-node"):
        solve_moment_measure(eps, last + 1)


# ---------------------------------------------------------------------------
# resolution of the identity


def test_resolution_on_first_basis_vector():
    system = _orthonormal_system(16)
    eps = EpsilonSequence.linear(1.0, 16)
    measure = solve_moment_measure(eps, 16)
    f = system.phi[:, 0]
    result = resolution_check(system, eps, measure, f, f, 16)
    assert result.rhs == pytest.approx(1.0)
    assert result.residual < RESOLUTION_TOL


def test_resolution_on_random_span():
    rng = np.random.default_rng(42)
    system = _orthonormal_system(24)
    eps = EpsilonSequence.linear(1.0, 24)
    measure = solve_moment_measure(eps, 24)
    for _ in range(5):
        f = np.zeros(24, dtype=complex)
        g = np.zeros(24, dtype=complex)
        f[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        g[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        result = resolution_check(system, eps, measure, f, g, 24)
        assert result.residual < RESOLUTION_TOL


def test_resolution_check_refuses_a_kernel_mode():
    # the level-2 shift system keeps its kernel mode (pairing 0) at index 0
    system = get_fixture("shift").model.system2(include_kernel=True)
    eps = EpsilonSequence.linear(1.0, 8)
    f = np.ones(system.dim, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in (None, solve_moment_measure(eps, 8)):
            for order in (1, 8):
                with pytest.raises(KernelError, match="index 0"):
                    resolution_check(system, eps, measure, f, f, order)
        # past the kernel mode the check runs, and its residuals are floats
        result = resolution_check(system.columns(slice(1, None)), eps, None, f, f, 7)
    assert type(result.residual) is float and type(result.sum_residual) is float


@pytest.mark.parametrize("which", ["f", "g"])
def test_resolution_check_refuses_an_f_or_g_of_the_wrong_size(which):
    system = _orthonormal_system(8)
    right, short = np.ones(8), np.ones(7)
    f, g = (short, right) if which == "f" else (right, short)
    with pytest.raises(DimensionError, match="ambient space"):
        resolution_check(system, EpsilonSequence.linear(1.0, 8), None, f, g, 8)


def test_level2_dyad_sum_is_not_the_identity():
    # summing the transported dyads reproduces the column gram, not 1
    f = fixture_3x3(1.0, 2.0, 3.0)
    m = f.model
    dyads = sum(
        np.outer(m.phi2[:, k], np.conj(m.psi2[:, k])) for k in range(2)
    )
    np.testing.assert_allclose(dyads, m.n2, atol=1e-10)
    assert np.max(np.abs(dyads - np.eye(2))) > 0.4


# ---------------------------------------------------------------------------
# symbol quantization


def test_quantize_z_recovers_lowering_ladder():
    system = _orthonormal_system(20)
    eps = EpsilonSequence.linear(1.0, 20)
    measure = solve_moment_measure(eps, 20)
    op = quantize("z", system, eps, measure, 20)
    pair = build_ladders(system, eps)
    np.testing.assert_allclose(op[:18, :18], pair.a[:18, :18], atol=1e-8)


def test_quantize_zbar_recovers_raising_ladder():
    system = _orthonormal_system(20)
    eps = EpsilonSequence.linear(1.0, 20)
    measure = solve_moment_measure(eps, 20)
    op = quantize("zbar", system, eps, measure, 20)
    pair = build_ladders(system, eps)
    np.testing.assert_allclose(op[:18, :18], pair.b[:18, :18], atol=1e-8)


def test_quantize_is_linear_in_the_measure():
    system = _orthonormal_system(10)
    eps = EpsilonSequence.linear(1.0, 10)
    measure = solve_moment_measure(eps, 10)
    op = quantize("z", system, eps, measure, 10)
    op2 = quantize("z", system, eps, replace(measure, weights=measure.weights * 2.0), 10)
    np.testing.assert_allclose(op2, 2.0 * op, atol=1e-12)


def test_quantize_rejects_unknown_symbol():
    system = _orthonormal_system(6)
    eps = EpsilonSequence.linear(1.0, 6)
    measure = solve_moment_measure(eps, 6)
    with pytest.raises(ParameterError):
        quantize("z2", system, eps, measure, 6)


@pytest.mark.parametrize("alpha1", [1e3, 1e4])
def test_quantize_agrees_with_ladders_where_neighbouring_factorials_overflow(alpha1):
    # eps_k! * eps_{k+1}! leaves the float range near k = 35 at alpha1 = 1e3,
    # while each factorial and each band entry stays finite
    f = get_fixture("coherent_demo", alpha1=alpha1)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    order = 40
    measure = solve_moment_measure(eps, order)
    pair = build_ladders(system.columns(slice(order)), eps)
    for symbol, target in (("z", pair.a), ("zbar", pair.b)):
        op = quantize(symbol, system, eps, measure, order)
        assert np.max(np.abs(op - target)) <= 1e-8 * np.max(np.abs(target))


def test_quantize_agrees_with_ladders_on_skewed_system():
    # non-orthogonal family: agreement must hold in ambient coordinates
    f = get_fixture("coherent_demo", alpha1=0.5, n_blocks=8)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    order = 12
    measure = solve_moment_measure(eps, order)
    op = quantize("z", system, eps, measure, order)
    truncated = BiorthogonalSystem(
        phi=system.phi[:, :order],
        psi=system.psi[:, :order],
        pairing=system.pairing[:order],
    )
    pair = build_ladders(truncated, EpsilonSequence(eps.values[:order]))
    np.testing.assert_allclose(op, pair.a, atol=1e-8)


# ---------------------------------------------------------------------------
# the input gate: every construction refuses the same inputs, in one order


def _gate_base():
    # a fresh system per case, so no disc kept by another case is read
    f = coherent_demo(1.0, 4)
    system = f.model.system1()
    eps = EpsilonSequence(f.expected["epsilon"])
    return system, eps, system.size, solve_moment_measure(eps, system.size)


def _with_eps(eps, index, value):
    values = eps.values.copy()
    values[index] = value
    return EpsilonSequence(values)


# each fault: (system, eps, order) -> (system, eps, order), the refusal, its message
_GATE_FAULTS = {
    "order_0": (lambda s, e, o: (s, e, 0), DimensionError, "order must lie"),
    "order_past_size": (lambda s, e, o: (s, e, s.size + 1), DimensionError, "order must lie"),
    "kernel_at_0": (
        lambda s, e, o: (replace(s, pairing=np.r_[0.0, s.pairing[1:]]), e, o),
        KernelError,
        "index 0",
    ),
    "eps_short": (
        lambda s, e, o: (s, EpsilonSequence(e.values[: s.size - 1]), o),
        DimensionError,
        "epsilon values",
    ),
    "eps1_zero": (lambda s, e, o: (s, _with_eps(e, 1, 0.0), o), ParameterError, "increase"),
    "eps2_eps3_swapped": (
        lambda s, e, o: (s, _with_eps(_with_eps(e, 2, e.values[3]), 3, e.values[2]), o),
        ParameterError,
        "increase",
    ),
}

# each entry point: (system, eps, order, measure) -> its result; build_ladders
# takes its order from the system
_GATE_ENTRIES = {
    "build_ladders": lambda s, e, o, m: build_ladders(s, e),
    "coherent_pair": lambda s, e, o, m: coherent_pair(s, e, 0.1, o),
    "coherent_grid": lambda s, e, o, m: coherent_grid(s, e, [0.0, 0.1j], o),
    "convergence_for_system": lambda s, e, o, m: convergence_for_system(s, e, o),
    "resolution_check": lambda s, e, o, m: resolution_check(
        s, e, m, np.ones(s.dim), np.ones(s.dim), o
    ),
    "resolution_check_sum_form": lambda s, e, o, m: resolution_check(
        s, e, None, np.ones(s.dim), np.ones(s.dim), o
    ),
    "quantize": lambda s, e, o, m: quantize("z", s, e, m, o),
}


@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry in _GATE_ENTRIES
        for fault in _GATE_FAULTS
        if not (entry == "build_ladders" and fault.startswith("order"))
    ],
)
def test_every_construction_refuses_what_the_gate_refuses(entry, fault):
    system, eps, order, measure = _gate_base()
    make, error, message = _GATE_FAULTS[fault]
    system, eps, order = make(system, eps, order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            _GATE_ENTRIES[entry](system, eps, order, measure)


@pytest.mark.parametrize("entry", list(_GATE_ENTRIES))
def test_the_gate_refuses_a_bad_order_first_then_in_its_own_order(entry):
    # every fault at once, then one fewer at a time: each refusal is the first
    # remaining fault's; build_ladders takes its order from the system
    faults = ["order_0", "kernel_at_0", "eps_short", "eps1_zero"]
    if entry == "build_ladders":
        faults = faults[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first in range(len(faults)):
            system, eps, order, measure = _gate_base()
            for fault in faults[first:]:
                system, eps, order = _GATE_FAULTS[fault][0](system, eps, order)
            _, error, message = _GATE_FAULTS[faults[first]]
            with pytest.raises(error, match=message):
                _GATE_ENTRIES[entry](system, eps, order, measure)


def test_quantize_refuses_the_shift_fixtures_kernel_mode():
    # the level-2 shift system keeps its kernel mode (pairing 0) at index 0,
    # where a band entry would divide by zero
    system = get_fixture("shift").model.system2(include_kernel=True)
    eps = EpsilonSequence.linear(1.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for symbol in ("z", "zbar"):
            with pytest.raises(KernelError, match="index 0"):
                quantize(symbol, system, eps, solve_moment_measure(eps, 8), 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("which", ["f", "g"])
@pytest.mark.parametrize("with_measure", [True, False])
def test_resolution_check_refuses_a_non_finite_f_or_g(bad, which, with_measure):
    system, eps, order, measure = _gate_base()
    good = np.ones(system.dim, dtype=complex)
    broken = good.copy()
    broken[-1] = bad
    f, g = (broken, good) if which == "f" else (good, broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="f and g must be finite"):
            resolution_check(system, eps, measure if with_measure else None, f, g, order)


# the fixture, the state gate and the convergence data refuse with one message
# from EpsilonSequence.require_increasing; the CLI reads the same predicate
@pytest.mark.parametrize("values", [[0.0, 2.0, 1.0, 3.0], [0.5, 1.0, 2.0, 3.0]],
                         ids=["swapped", "eps0_not_zero"])
def test_one_epsilon_rule_serves_the_fixture_and_the_gate(values):
    system = coherent_demo(1.0, 2).model.system1()
    calls = [lambda: fixture_shift(values, 0.5, 4), lambda: build_ladders(system, values),
             lambda: radius(1.0, 0.0, 1.0, 0.0, values)]
    messages = set()
    for call in calls:
        with pytest.raises(ParameterError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"epsilon sequence must increase strictly from 0"}
    with pytest.raises(RegimeError, match="0 = eps_0 < eps_1"):
        cli._eps_from_model(SimpleNamespace(values=np.asarray(values, dtype=complex)))


def _shift_level2():
    return get_fixture("shift").model.system2(include_kernel=True)


# every caller of EpsilonSequence.require_length, on 8 modes
_SHORT_EPS_CALLS = {
    "gate": lambda eps: build_ladders(_orthonormal_system(8), eps),
    "filter_system": lambda eps: filter_system(_shift_level2(), eps),
    "solve_moment_measure": lambda eps: solve_moment_measure(eps, 8),
    "fixture_shift": lambda eps: fixture_shift(eps, 0.5, 8),
    "nlpb_verify": lambda eps: nlpb_verify(*standard_boson(8)[:2], eps, *standard_boson(8)[3:], 8),
}


@pytest.mark.parametrize("call", list(_SHORT_EPS_CALLS))
def test_one_length_rule_refuses_a_short_sequence_everywhere(call):
    with pytest.raises(DimensionError) as info:
        _SHORT_EPS_CALLS[call](EpsilonSequence.linear(1.0, 7))
    assert str(info.value) == "need 8 epsilon values, got 7"


def test_the_moment_measure_needs_two_epsilon_values_at_any_order():
    with pytest.raises(DimensionError, match="^need 2 epsilon values, got 1$"):
        solve_moment_measure(EpsilonSequence([0.0]), 1)


def test_filter_refuses_a_level2_system_that_is_not_biorthogonal():
    # psi doubled: <phi_k, psi_k> = 3 where the pairing says 1.5
    system2 = fixture_3x3(1.0, 2.0, 3.0).model.system2(include_kernel=True)
    broken = replace(system2, psi=2.0 * system2.psi)
    with pytest.raises(PairingError, match="not biorthogonal: defect 1.500e\\+00"):
        filter_system(broken, EpsilonSequence.linear(1.0, 3))


@pytest.mark.parametrize("fault", ["eps1_zero", "eps2_eps3_swapped"])
def test_moment_defects_refuse_a_sequence_that_does_not_increase(fault):
    system, eps, order, measure = _gate_base()
    _, eps, _ = _GATE_FAULTS[fault][0](system, eps, order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="increase strictly from 0"):
            measure.moment_defects(eps, order)
