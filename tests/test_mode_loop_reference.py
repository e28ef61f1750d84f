"""Per-mode quantities against reference copies of their former mode loops.

The radial moments, the quantized band, the block fixtures' operators and
the column defects are each computed in one place as array expressions.
The functions prefixed ``_reference_`` below are the earlier
implementations, kept verbatim in substance (preconditions left out): one
mode, block or column at a time.  Moments, moment defects, quantized
operators, block operators and the resolution sum form must come out
bit-identical; the column defects of the ladder factorization and
``nlpb_verify`` agree to 1e-13 absolute, as a column norm taken from a
matrix rounds by its memory layout, and their pass/fail verdicts match.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec import (
    EpsilonSequence,
    build_ladders,
    build_model,
    coherent_demo,
    make_commuting_pair,
    nlpb_verify,
    quantize,
    resolution_check,
    solve_moment_measure,
    standard_boson,
)
from isospec.linalg import column_defects
from isospec.zoo import _block_operators, _pair_swap

# ---------------------------------------------------------------------------
# reference copies of the loop implementations


def _reference_moment(measure, k):
    return float(np.sum(measure.weights * measure.nodes ** (2 * k)))


def _reference_moment_defects(measure, eps, order):
    facts = eps.factorials(order)
    out = np.empty(order)
    for k in range(order):
        exact = facts[k] / (2.0 * math.pi)
        out[k] = abs(_reference_moment(measure, k) - exact) / exact
    return out


def _reference_quantize(symbol, system, eps, measure, order):
    facts = eps.factorials(order)
    pairing = system.pairing[:order]
    band = np.zeros((system.size, system.size))
    for k in range(order - 1):
        coeff = (
            2.0
            * math.pi
            * _reference_moment(measure, k + 1)
            # one root per mode, as the band is formed, so that the product of
            # two neighbouring factorials never has to be finite
            / (math.sqrt(facts[k] * pairing[k]) * math.sqrt(facts[k + 1] * pairing[k + 1]))
        )
        if symbol == "z":
            band[k, k + 1] = coeff
        else:
            band[k + 1, k] = coeff
    return system.phi @ band @ system.psi.conj().T


def _reference_pair_swap(n_blocks):
    p = np.zeros((2 * n_blocks, 2 * n_blocks), dtype=complex)
    for j in range(n_blocks):
        p[2 * j, 2 * j + 1] = 1.0
        p[2 * j + 1, 2 * j] = 1.0
    return p


def _reference_block_operators(alpha, beta, n_blocks, sign):
    alpha = np.asarray(alpha, dtype=complex)[:n_blocks]
    beta = np.asarray(beta, dtype=complex)[:n_blocks]
    dim = 2 * n_blocks
    theta1 = np.zeros((dim, dim), dtype=complex)
    x = np.zeros((dim, n_blocks), dtype=complex)
    inv_s2 = 1.0 / math.sqrt(2.0)
    for j in range(n_blocks):
        theta1[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [
            [alpha[j], beta[j]],
            [beta[j], alpha[j]],
        ]
        x[2 * j, j] = inv_s2
        x[2 * j + 1, j] = sign * inv_s2
    values = np.empty(dim, dtype=complex)
    vectors = np.zeros((dim, dim), dtype=complex)
    for j in range(n_blocks):
        values[2 * j] = alpha[j] - beta[j]
        values[2 * j + 1] = alpha[j] + beta[j]
        vectors[2 * j, 2 * j] = inv_s2
        vectors[2 * j + 1, 2 * j] = -inv_s2
        vectors[2 * j, 2 * j + 1] = inv_s2
        vectors[2 * j + 1, 2 * j + 1] = inv_s2
    return alpha, beta, theta1, x, values, vectors


def _reference_factorization_defect(ladder, system, eps):
    ba = ladder.b @ ladder.a
    defect = 0.0
    for n in range(system.size):
        col = system.phi[:, n]
        r = np.linalg.norm(ba @ col - eps.values[n] * col)
        defect = max(defect, r / np.linalg.norm(col))
    return float(defect)


def _reference_cli_sum_form(system, f, g, order):
    return sum(
        np.vdot(f, system.phi[:, k])
        * np.vdot(system.psi[:, k], g)
        / system.pairing[k]
        for k in range(order)
    )


def _reference_nlpb_verify(a, b, eps, phi0, eta0, n_modes, tol=1e-10):
    """(residuals, details, all_passed) of the loop version, seeds already checked."""
    dim = a.shape[0]
    eta0 = eta0 / np.conj(np.vdot(eta0, phi0))
    facts = eps.factorials(n_modes)
    phis = np.zeros((dim, n_modes), dtype=complex)
    etas = np.zeros((dim, n_modes), dtype=complex)
    phis[:, 0] = phi0
    etas[:, 0] = eta0
    bp = phi0.copy()
    ae = eta0.copy()
    ah = a.conj().T
    for n in range(1, n_modes):
        bp = b @ bp
        ae = ah @ ae
        phis[:, n] = bp / math.sqrt(facts[n])
        etas[:, n] = ae / math.sqrt(facts[n])

    residuals = {}
    details = {}
    lowering = []
    raising = []
    for n in range(1, n_modes):
        root = math.sqrt(eps.values[n])
        scale = max(np.linalg.norm(phis[:, n - 1]), 1e-300)
        lowering.append(
            float(np.linalg.norm(a @ phis[:, n] - root * phis[:, n - 1]) / (root * scale + 1e-300))
        )
        scale = max(np.linalg.norm(etas[:, n - 1]), 1e-300)
        raising.append(
            float(
                np.linalg.norm(b.conj().T @ etas[:, n] - root * etas[:, n - 1])
                / (root * scale + 1e-300)
            )
        )
    residuals["p3_lowering"] = max(lowering)
    residuals["p3_raising"] = max(raising)
    details["p3_lowering_per_mode"] = lowering
    details["p3_raising_per_mode"] = raising

    m = b @ a
    sm = max(np.linalg.norm(m, 2), 1e-300)
    em, ema = [], []
    for n in range(n_modes):
        e = eps.values[n]
        em.append(
            float(
                np.linalg.norm(m @ phis[:, n] - e * phis[:, n])
                / (sm * np.linalg.norm(phis[:, n]))
            )
        )
        ema.append(
            float(
                np.linalg.norm(m.conj().T @ etas[:, n] - e * etas[:, n])
                / (sm * np.linalg.norm(etas[:, n]))
            )
        )
    residuals["eigen_m"] = max(em)
    residuals["eigen_m_adjoint"] = max(ema)
    details["eigen_m_per_mode"] = em

    gram = etas.conj().T @ phis
    residuals["biorthogonality"] = float(np.max(np.abs(gram - np.eye(n_modes))))

    shifted = []
    ab = a @ b
    sab = max(np.linalg.norm(ab, 2), 1e-300)
    for n in range(1, n_modes):
        v = a @ phis[:, n]
        nv = np.linalg.norm(v)
        if nv <= 1e-300:
            continue
        shifted.append(float(np.linalg.norm(ab @ v - eps.values[n] * v) / (sab * nv)))
    residuals["shifted_eigen"] = max(shifted) if shifted else 0.0

    sing = np.linalg.svd(phis, compute_uv=False)
    details["phi_condition_number"] = float(sing[0] / max(sing[-1], 1e-300))
    return residuals, details, all(v <= tol for v in residuals.values())


# ---------------------------------------------------------------------------
# moments, quantization, resolution


@given(
    s=st.floats(0.05, 20.0),
    order=st.integers(2, 40),
)
@settings(max_examples=60, deadline=None)
def test_moments_and_their_defects_match_the_loops(s, order):
    eps = EpsilonSequence.linear(s, order)
    measure = solve_moment_measure(eps, order)
    reference = np.array([_reference_moment(measure, k) for k in range(order)])
    assert np.array_equal(measure.moments(order), reference)
    assert all(measure.moments(k + 1)[k] == reference[k] for k in range(order))
    assert np.array_equal(
        measure.moment_defects(eps, order), _reference_moment_defects(measure, eps, order)
    )


@given(
    alpha1=st.floats(0.1, 4.0),
    n_blocks=st.integers(2, 12),
    cut=st.integers(0, 22),
    symbol=st.sampled_from(["z", "zbar"]),
)
@settings(max_examples=40, deadline=None)
def test_quantized_symbols_match_the_loop_on_coherent_demo(alpha1, n_blocks, cut, symbol):
    fixture = coherent_demo(alpha1, n_blocks)
    system = fixture.model.system1()
    eps = EpsilonSequence(fixture.expected["epsilon"])
    order = max(2, system.size - cut)
    measure = solve_moment_measure(eps, order)
    assert np.array_equal(
        quantize(symbol, system, eps, measure, order),
        _reference_quantize(symbol, system, eps, measure, order),
    )


@given(
    seed=st.integers(0, 10_000),
    dim2=st.integers(2, 8),
    extra=st.integers(1, 6),
    s=st.floats(0.1, 5.0),
    symbol=st.sampled_from(["z", "zbar"]),
)
@settings(max_examples=40, deadline=None)
def test_quantized_symbols_match_the_loop_on_a_level2_pairing(seed, dim2, extra, s, symbol):
    # the level-2 system of a random pair carries pairing constants other than 1
    system = build_model(*make_commuting_pair(dim2 + extra, dim2, seed)).system2()
    eps = EpsilonSequence.linear(s, system.size)
    measure = solve_moment_measure(eps, system.size)
    order = 2 + seed % (system.size - 1)
    assert np.array_equal(
        quantize(symbol, system, eps, measure, order),
        _reference_quantize(symbol, system, eps, measure, order),
    )


@given(seed=st.integers(0, 10_000), dim2=st.integers(1, 8), extra=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_sum_form_resolution_matches_the_cli_sum(seed, dim2, extra):
    system = build_model(*make_commuting_pair(dim2 + extra, dim2, seed)).system2()
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, system.dim)) + 1j * rng.standard_normal((2, system.dim))
    order = 1 + seed % system.size
    result = resolution_check(system, np.arange(system.size), None, f, g, order)
    proj = _reference_cli_sum_form(system, f, g, order)
    assert result.sum_form == proj and result.lhs == proj
    assert result.residual == abs(proj - np.vdot(f, g))


# ---------------------------------------------------------------------------
# block fixtures


@given(
    seed=st.integers(0, 10_000),
    n_blocks=st.integers(1, 12),
    spare=st.integers(0, 3),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=60, deadline=None)
def test_block_operators_match_the_loops(seed, n_blocks, spare, sign):
    rng = np.random.default_rng(seed)
    size = n_blocks + spare
    alpha = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    beta = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    new = _block_operators(alpha, beta, n_blocks, sign)
    old = _reference_block_operators(alpha, beta, n_blocks, sign)
    for ours, theirs in zip(new, old):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    assert np.array_equal(_pair_swap(n_blocks), _reference_pair_swap(n_blocks))


# ---------------------------------------------------------------------------
# column defects


@given(seed=st.integers(0, 10_000), dim2=st.integers(1, 8), extra=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_factorization_defects_match_the_loop(seed, dim2, extra):
    model = build_model(*make_commuting_pair(dim2 + extra, dim2, seed))
    rng = np.random.default_rng(seed)
    for system in (model.system1(), model.system2()):
        steps = rng.uniform(0.1, 3.0, system.size - 1)
        eps = EpsilonSequence(np.concatenate(([0.0], np.cumsum(steps))))
        ladder = build_ladders(system, eps)
        defects = column_defects(ladder.b @ ladder.a, system.phi, eps.values[: system.size])
        reference = _reference_factorization_defect(ladder, system, eps)
        assert abs(float(defects.max()) - reference) <= 1e-13


def _deformed_boson(rng, dim, skew):
    """A ladder pair with weights sqrt(eps_n), conjugated by a near-identity similarity."""
    eps = EpsilonSequence(np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 2.0, dim - 1)))))
    a = np.diag(np.sqrt(eps.values[1:]), 1).astype(complex)
    s = np.eye(dim) + skew * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    s_inv = np.linalg.inv(s)
    e0 = np.eye(dim, dtype=complex)[0]
    return s @ a @ s_inv, s @ a.conj().T @ s_inv, eps, s @ e0, s_inv.conj().T @ e0


def _assert_reports_agree(report, reference):
    residuals, details, passed = reference
    assert report.residuals.keys() == residuals.keys()
    for name, value in residuals.items():
        assert abs(report.residuals[name] - value) <= 1e-13, name
    for name in ("p3_lowering_per_mode", "p3_raising_per_mode", "eigen_m_per_mode"):
        assert len(report.details[name]) == len(details[name])
        assert np.max(np.abs(np.subtract(report.details[name], details[name]))) <= 1e-13
    assert report.all_passed == passed


@given(
    seed=st.integers(0, 10_000),
    dim=st.integers(3, 14),
    spare=st.integers(0, 3),
    skew=st.sampled_from([0.0, 0.01, 0.1]),
)
@settings(max_examples=60, deadline=None)
def test_nlpb_verify_matches_the_loops(seed, dim, spare, skew):
    rng = np.random.default_rng(seed)
    a, b, eps, phi0, eta0 = _deformed_boson(rng, dim, skew)
    n_modes = max(2, dim - spare)
    report = nlpb_verify(a, b, eps, phi0, eta0, n_modes)
    _assert_reports_agree(report, _reference_nlpb_verify(a, b, eps, phi0, eta0, n_modes))


def test_nlpb_verify_localizes_the_planted_fault_as_the_loops_do():
    a, b, eps, phi0, eta0 = standard_boson(16)
    b_bad = b.copy()
    b_bad[7, 6] += 1e-3
    report = nlpb_verify(a, b_bad, eps, phi0, eta0, n_modes=12)
    reference = _reference_nlpb_verify(a, b_bad, eps, phi0, eta0, 12)
    _assert_reports_agree(report, reference)
    assert not reference[2]
    per_mode = report.details["p3_raising_per_mode"]
    assert int(np.argmax(per_mode)) == int(np.argmax(reference[1]["p3_raising_per_mode"])) == 6
