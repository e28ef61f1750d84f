"""The model layer against reference copies of its former per-column loops.

``build_model`` bounds each operand norm once and the relation checks
work on whole column blocks.  The functions prefixed ``_reference_`` below
are the earlier loop implementations, kept verbatim in substance: every
norm recomputed by SVD, one column at a time.  Whole-matrix residuals the
report marks exact must come out bit-identical; column residuals (now
matrix products and axis norms, summed in another order) within 1e-15
absolute.  A residual the report marks bounded must lie on the reference's
side of the tolerance, beyond the reference value.
"""

import contextlib
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isospec.intertwining as intertwining
import isospec.linalg as linalg
from isospec import (
    CASE_NONINVERTIBLE,
    Eigensystem,
    SpectrumError,
    adjoint_descent,
    build_model,
    eig,
    get_fixture,
    is_strictly_positive,
    make_commuting_pair,
    opnorm,
    structure_check,
    verify_relations,
)

COLUMN_RESIDUALS = {
    "psi1_eigen",
    "theta2_eigen",
    "psi2_eigen",
    "kernel_phi2_zero",
    "kernel_psi2_zero",
    "n_eigen",
}
COLUMN_ATOL = 1e-15


# ---------------------------------------------------------------------------
# reference copies of the per-column implementations


def _reference_fix_phase(vectors):
    out = vectors.copy()
    for j in range(out.shape[1]):
        v = out[:, j]
        i = int(np.argmax(np.abs(v)))
        pivot = v[i]
        if pivot != 0:
            out[:, j] = v * (abs(pivot) / pivot)
    return out


def _reference_disc_radii(theta1, vals, phi, psi):
    """The disc radius of each eigenvalue, one entry F_ij = <psi_i, Theta1 phi_j - vals_j
    phi_j> at a time, plus ||psi_i|| ||phi_i|| n u ||Theta1||_F."""
    n = len(vals)
    unit = n * np.finfo(float).eps * np.linalg.norm(theta1)
    radii = []
    for i in range(n):
        row = sum(abs(np.vdot(psi[:, i], theta1 @ phi[:, j] - vals[j] * phi[:, j]))
                  for j in range(n))
        radii.append(row + np.linalg.norm(psi[:, i]) * np.linalg.norm(phi[:, i]) * unit)
    return radii


def _reference_simple_spectrum(vals, radii):
    """(simple, i, j): whether every pair's margin gap / (rho_i + rho_j) exceeds 1, and the
    pair of least margin (a NaN margin counts as above all), the closest of those tied."""
    simple, least = True, None
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            gap, total = abs(vals[i] - vals[j]), radii[i] + radii[j]
            margin = gap / total if total > 0 else (math.inf if gap > 0 else math.nan)
            simple = simple and margin > 1.0
            key = (math.isnan(margin), 0.0 if math.isnan(margin) else margin, gap)
            if least is None or key < least[0]:
                least = (key, i, j)
    return (simple, *least[1:]) if least else (simple, None, None)


def _reference_split_eig(theta1, x):
    """The seed eigensystem of a NonInvertible model: eig on range(X) and ker(X-adjoint),
    the diagonal blocks of T = Q-adjoint Theta1 Q, whether or not T's off-diagonal
    blocks are negligible (see ``_reference_split_taken``)."""
    q = np.linalg.qr(x, mode="complete")[0]
    d2 = x.shape[1]
    t = q.conj().T @ theta1 @ q
    values, vectors = [], []
    for b in (slice(None, d2), slice(d2, None)):
        w, v = np.linalg.eig(t[b, b])
        values.append(w)
        vectors.append(q[:, b] @ v)
    values = np.concatenate(values)
    vectors = np.hstack(vectors)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    rows = np.argmax(np.abs(vectors), axis=0)
    pivot = vectors[rows, np.arange(vectors.shape[1])]
    size = np.hypot(pivot.real, pivot.imag)
    out = vectors.copy()
    out *= np.divide(size, pivot, out=np.ones_like(pivot), where=pivot != 0)
    return Eigensystem(values, out)


def _reference_split_taken(theta1, x):
    """True iff T's off-diagonal blocks are at most 10 eps dim1 times the lower bound
    max(||Theta1||_F / sqrt(dim1), largest column norm) of ||Theta1||."""
    q = np.linalg.qr(x, mode="complete")[0]
    d2 = x.shape[1]
    t = q.conj().T @ theta1 @ q
    dropped = np.sqrt(np.linalg.norm(t[d2:, :d2]) ** 2 + np.linalg.norm(t[:d2, d2:]) ** 2)
    dim1 = theta1.shape[0]
    lower = max(np.linalg.norm(theta1) / np.sqrt(dim1), np.max(np.linalg.norm(theta1, axis=0)))
    return dropped <= 10 * np.finfo(float).eps * dim1 * lower


def _reference_seed_eig(theta1, x):
    """The split where it is taken, else eig of the whole seed."""
    return _reference_split_eig(theta1, x) if _reference_split_taken(theta1, x) else eig(theta1)


def _reference_partner(m, x, q, r):
    """X^+ m X = R^{-1} Q_r-adjoint m X from a QR of X (complete or reduced), both regimes."""
    d2 = x.shape[1]
    return np.linalg.solve(r[:d2], q[:, :d2].conj().T @ m @ x)


def _eigen_defect(theta1, eigensystem):
    """max_n ||Theta1 v_n - lambda_n v_n|| / ||Theta1|| over the unit columns v_n."""
    vectors, values = eigensystem.vectors, eigensystem.values
    return np.max(np.linalg.norm(theta1 @ vectors - vectors * values, axis=0)) / opnorm(theta1)


def _reference_map(x, phi1, tol=1e-10):
    """kernel_set, tilde_k and N-residuals, column by column."""
    phi2 = x.conj().T @ phi1
    norms1 = np.linalg.norm(phi1, axis=0)
    norms2 = np.linalg.norm(phi2, axis=0)
    kernel_mask = norms2 <= tol * norms1
    tilde_k = np.where(kernel_mask, 0.0, (norms2 / norms1) ** 2)
    n1 = x @ x.conj().T
    n2 = x.conj().T @ x
    count = phi1.shape[1]
    res1 = np.full(count, np.nan)
    res2 = np.full(count, np.nan)
    for n in range(count):
        if kernel_mask[n]:
            continue
        res1[n] = np.linalg.norm(n1 @ phi1[:, n] - tilde_k[n] * phi1[:, n]) / norms1[n]
        res2[n] = np.linalg.norm(n2 @ phi2[:, n] - tilde_k[n] * phi2[:, n]) / norms2[n]
    kernel_set = tuple(int(n) for n in np.nonzero(kernel_mask)[0])
    return kernel_set, tilde_k, res1, res2


def _rel(num, scale):
    return num / max(scale, 1e-300)


def _rel_comm(a, b):
    scale = opnorm(a) * opnorm(b)
    if scale == 0.0:
        return 0.0
    return opnorm(a @ b - b @ a) / scale


def _reference_verify(model):
    """Residuals and skipped names of the per-column ``verify_relations``."""
    t1, t2, x = model.theta1, model.theta2, model.x
    xh = x.conj().T
    n1, n2 = model.n1, model.n2
    st1 = opnorm(t1)
    sx = opnorm(x)
    residuals = {}
    skipped = set()
    residuals["intertwine"] = _rel(opnorm(x @ t2 - t1 @ x), st1 * sx)
    residuals["intertwine_n"] = _rel(opnorm(x @ n2 - n1 @ x), opnorm(n1) * sx)
    tp1, tp2 = t1, t2
    for n in range(2, 5):
        tp1 = tp1 @ t1
        tp2 = tp2 @ t2
        residuals[f"intertwine_power_{n}"] = _rel(opnorm(x @ tp2 - tp1 @ x), opnorm(tp1) * sx)
    gram1 = model.phi1.conj().T @ model.psi1
    residuals["pairing_level1"] = float(np.max(np.abs(gram1 - np.eye(gram1.shape[0]))))
    psi_defect = 0.0
    for n in range(len(model.values)):
        psi = model.psi1[:, n]
        r = np.linalg.norm(t1.conj().T @ psi - np.conj(model.values[n]) * psi)
        psi_defect = max(psi_defect, _rel(r, st1 * np.linalg.norm(psi)))
    residuals["psi1_eigen"] = psi_defect
    st2 = opnorm(t2)
    if model.commuting:
        residuals["intertwine_adjoint_side"] = _rel(opnorm(t2 @ xh - xh @ t1), st1 * sx)
        residuals["intertwine_dagger"] = _rel(
            opnorm(x @ t2.conj().T - t1.conj().T @ x), st1 * sx
        )
        residuals["commute_n2_theta2"] = _rel_comm(n2, t2)
        gram2 = model.phi2.conj().T @ model.psi2
        kscale = max(1.0, float(np.max(model.tilde_k, initial=0.0)))
        residuals["pairing_level2"] = (
            float(np.max(np.abs(gram2 - np.diag(model.tilde_k)))) / kscale
        )
        eig2 = 0.0
        psi2_def = 0.0
        for n in model.survivors:
            p2 = model.phi2[:, n]
            r = np.linalg.norm(t2 @ p2 - model.values[n] * p2)
            eig2 = max(eig2, _rel(r, st2 * np.linalg.norm(p2)))
            q2 = model.psi2[:, n]
            r = np.linalg.norm(t2.conj().T @ q2 - np.conj(model.values[n]) * q2)
            psi2_def = max(psi2_def, _rel(r, st2 * np.linalg.norm(q2)))
        residuals["theta2_eigen"] = eig2
        residuals["psi2_eigen"] = psi2_def
        if model.kernel_set:
            residuals["kernel_phi2_zero"] = float(
                max(
                    np.linalg.norm(model.phi2[:, n]) / np.linalg.norm(model.phi1[:, n])
                    for n in model.kernel_set
                )
            )
            residuals["kernel_psi2_zero"] = float(
                max(
                    np.linalg.norm(model.psi2[:, n]) / np.linalg.norm(model.psi1[:, n])
                    for n in model.kernel_set
                )
            )
        else:
            skipped |= {"kernel_phi2_zero", "kernel_psi2_zero"}
        nr = 0.0
        for n in model.survivors:
            p1 = model.phi1[:, n]
            p2 = model.phi2[:, n]
            nr = max(
                nr,
                np.linalg.norm(n1 @ p1 - model.tilde_k[n] * p1) / np.linalg.norm(p1),
                np.linalg.norm(n2 @ p2 - model.tilde_k[n] * p2) / np.linalg.norm(p2),
            )
        residuals["n_eigen"] = _rel(nr, max(opnorm(n1), 1.0))
    else:
        skipped |= {
            "intertwine_adjoint_side",
            "intertwine_dagger",
            "commute_n2_theta2",
            "pairing_level2",
            "psi2_eigen",
            "n_eigen",
        }
        eig2 = 0.0
        phit = np.linalg.solve(x, model.phi1)
        for n in range(len(model.values)):
            v = phit[:, n]
            r = np.linalg.norm(t2 @ v - model.values[n] * v)
            eig2 = max(eig2, _rel(r, st2 * np.linalg.norm(v)))
        residuals["theta2_eigen"] = eig2
    return residuals, skipped


def _reference_structure(model, tol=1e-9):
    """Residuals of ``structure_check`` and ``adjoint_descent``, norms recomputed."""
    t1, t2, x = model.theta1, model.theta2, model.x
    n1, n2 = model.n1, model.n2
    residuals = {"commutator_n2_theta2": _rel_comm(n2, t2)}
    sa1 = _rel(opnorm(t1 - t1.conj().T), max(1e-300, opnorm(t1)))
    sa2 = _rel(opnorm(t2 - t2.conj().T), max(1e-300, opnorm(t2)))
    if sa1 <= tol:
        residuals["theta2_self_adjoint"] = sa2
    n1_positive = is_strictly_positive(n1, tol)
    if sa2 <= tol and n1_positive:
        residuals["theta1_self_adjoint"] = sa1
    if n1_positive:
        n1_inv = np.linalg.inv(n1)
        n2_inv = np.linalg.inv(n2)
        residuals["n_inverse_intertwine"] = _rel(
            opnorm(x @ n2_inv - n1_inv @ x), opnorm(n1_inv) * opnorm(x)
        )
        residuals["theta1_reconstruction"] = _rel(
            opnorm(t1 - n1_inv @ (x @ t2 @ x.conj().T)), max(1.0, opnorm(t1))
        )
    lifted = _reference_partner(t1.conj().T, x, *np.linalg.qr(x))
    residuals["adjoint_descent"] = _rel(
        opnorm(lifted - t2.conj().T), max(1.0, opnorm(t2))
    )
    return residuals


# ---------------------------------------------------------------------------
# comparisons


def _assert_residuals_match(got, want, bounded, tol=1e-9):
    assert set(got) == set(want)
    for name, value in want.items():
        atol = COLUMN_ATOL if name in COLUMN_RESIDUALS else 0.0
        if name in bounded:
            # a passing bound lies above the exact value, a failing one below it
            assert (got[name] <= tol) == (value <= tol), (name, got[name], value)
            if value <= tol:
                assert value <= got[name] + atol, (name, got[name], value)
            else:
                assert value >= got[name] - atol, (name, got[name], value)
        elif name in COLUMN_RESIDUALS:
            assert abs(got[name] - value) <= COLUMN_ATOL, (name, got[name], value)
        else:
            assert got[name] == value, (name, got[name], value)


def _check_against_reference(model, eigensystem):
    theta1, x = model.theta1, model.x
    theta2 = _reference_partner(theta1, x, *np.linalg.qr(x, mode="complete"))
    assert np.array_equal(model.theta2, theta2)
    assert np.array_equal(model.phi1, eigensystem.vectors)
    kernel_set, tilde_k, _, _ = _reference_map(x, eigensystem.vectors)
    assert model.kernel_set == kernel_set
    assert np.array_equal(model.tilde_k, tilde_k)

    report = verify_relations(model)
    residuals, skipped = _reference_verify(model)
    _assert_residuals_match(report.residuals, residuals, report.bounded)
    assert set(report.skipped) == skipped
    assert report.all_passed == all(v <= report.tolerance for v in residuals.values())
    if model.case == CASE_NONINVERTIBLE:
        structure = structure_check(model)
        got = dict(structure.residuals, adjoint_descent=adjoint_descent(model))
        _assert_residuals_match(got, _reference_structure(model), structure.bounded)


def _square_pair(seed, n):
    rng = np.random.default_rng(seed)
    theta1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return theta1, q * rng.uniform(1.0, 4.0, n)


@given(
    seed=st.integers(0, 10_000),
    dim2=st.integers(1, 8),
    extra=st.integers(1, 8),
    hermitian=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_commuting_pairs_match_the_column_loops(seed, dim2, extra, hermitian):
    theta1, x = make_commuting_pair(dim2 + extra, dim2, seed, hermitian=hermitian)
    model = build_model(theta1, x)
    reference = _reference_seed_eig(theta1, x)
    _check_against_reference(model, reference)
    assert np.array_equal(model.values, reference.values)


@given(
    seed=st.integers(0, 10_000),
    dim2=st.integers(1, 8),
    extra=st.integers(1, 8),
    hermitian=st.booleans(),
    power=st.integers(-6, 6),
)
@settings(max_examples=60, deadline=None)
def test_the_split_eigensystem_matches_the_full_one(seed, dim2, extra, hermitian, power):
    # the same model through eig of the whole seed, its modes matched by nearest eigenvalue
    theta1, x = make_commuting_pair(dim2 + extra, dim2, seed, hermitian=hermitian)
    x = x * 2.0**power
    split = _reference_split_eig(theta1, x)
    assert _eigen_defect(theta1, split) <= 1e-8  # the gate passes on the split itself
    model = build_model(theta1, x)
    taken = _reference_split_taken(theta1, x)
    assert np.array_equal(model.phi1, (split if taken else eig(theta1)).vectors)
    assert verify_relations(model).all_passed
    # the split itself, taken or not
    model = build_model(theta1, x, eigensystem=split)
    full = build_model(theta1, x, eigensystem=eig(theta1))
    match = np.argmin(np.abs(model.values[:, None] - full.values[None, :]), axis=1)
    assert sorted(match) == list(range(len(model.values)))
    scale = max(1.0, opnorm(theta1))
    assert np.max(np.abs(model.values - full.values[match])) <= 1e-12 * scale
    assert {int(match[n]) for n in model.kernel_set} == set(full.kernel_set)
    np.testing.assert_allclose(model.tilde_k, full.tilde_k[match], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("dims", [(2, 1), (8, 4), (40, 20), (120, 60), (300, 150)])
def test_the_split_is_taken_on_well_conditioned_pairs(dims):
    theta1, x = make_commuting_pair(*dims, 0)
    assert _reference_split_taken(theta1, x)
    assert np.array_equal(build_model(theta1, x).phi1, _reference_split_eig(theta1, x).vectors)


@pytest.mark.parametrize("size", [2e-9, 5e-9, 1e-8, 1.1e-8, 1e-7])
def test_a_seed_whose_blocks_are_not_invariant_is_diagonalized_whole(size):
    # Theta1 + size ||Theta1|| q_k u^H maps range(X) into ker(X-adjoint).  Through an X
    # of condition 1e3 it still commutes with N1 to 1e-9, but the split would miss the
    # dropped block: up to 1e-8 in psi1_eigen (the split's defect reads size - 9e-16),
    # above it in the eigen gate itself
    theta1, x = make_commuting_pair(8, 4, 0)
    u, _, vh = np.linalg.svd(x, full_matrices=False)
    x = (u * np.geomspace(1.0, 1e-3, 4)) @ vh
    q = np.linalg.qr(x, mode="complete")[0]
    theta1 = theta1 + size * opnorm(theta1) * np.outer(q[:, 5], u[:, 3].conj())
    assert not _reference_split_taken(theta1, x)
    split = _reference_split_eig(theta1, x)
    if size <= 1e-8:
        report = verify_relations(build_model(theta1, x, eigensystem=split))
        assert report.failures() == ["psi1_eigen"]
    else:
        assert _eigen_defect(theta1, split) > 1e-8
    model = build_model(theta1, x)
    assert model.case == CASE_NONINVERTIBLE
    assert np.array_equal(model.phi1, eig(theta1).vectors)
    assert model.kernel_set == (1, 4, 5, 7)
    assert verify_relations(model).all_passed


@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
@settings(max_examples=30, deadline=None)
def test_similarity_pairs_match_the_column_loops(seed, n):
    theta1, x = _square_pair(seed, n)
    model = build_model(theta1, x)
    _check_against_reference(model, eig(theta1))


@pytest.mark.parametrize("fixture_id", ["ex3x3", "shift", "block", "coherent_demo"])
def test_kernel_fixtures_match_the_column_loops(fixture_id):
    model = get_fixture(fixture_id).model
    assert model.kernel_set
    _check_against_reference(model, Eigensystem(model.values, model.phi1))


@given(seed=st.integers(0, 10_000), dim2=st.integers(1, 8), square=st.booleans())
@settings(max_examples=40, deadline=None)
def test_a_planted_wrong_partner_fails_the_reference_relations(seed, dim2, square):
    # Theta2 + 1e-8 ||Theta2|| E with ||E|| = 1: bounds or SVDs, the same relations fail
    if square:
        theta1, x = _square_pair(seed, dim2 + 1)
    else:
        theta1, x = make_commuting_pair(dim2 + 2, dim2, seed)
    model = build_model(theta1, x)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(model.theta2.shape) + 1j * rng.standard_normal(model.theta2.shape)
    planted = dataclasses.replace(
        model, theta2=model.theta2 + 1e-8 * opnorm(model.theta2) * (e / opnorm(e))
    )
    report = verify_relations(planted)
    residuals, _ = _reference_verify(planted)
    assert report.failures()
    assert sorted(report.failures()) == sorted(k for k, v in residuals.items() if v > 1e-9)
    _assert_residuals_match(report.residuals, residuals, report.bounded)
    if planted.case == CASE_NONINVERTIBLE:
        structure = structure_check(planted)
        want = _reference_structure(planted)
        want.pop("adjoint_descent")
        _assert_residuals_match(structure.residuals, want, structure.bounded)


@given(seed=st.integers(0, 10_000), rows=st.integers(1, 12), cols=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_fix_phase_matches_the_column_loop(seed, rows, cols):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    vectors[:, rng.random(cols) < 0.2] = 0.0
    if seed % 2:
        vectors = np.asfortranarray(vectors)
    got = linalg._fix_phase(vectors)
    want = _reference_fix_phase(vectors)
    # numpy's complex multiply may fuse or not depending on strides: a few ulps
    scale = np.max(np.abs(vectors), initial=1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.finfo(float).eps * scale)
    # the memory layout is the reference's, so later axis reductions round alike
    assert got.flags["C_CONTIGUOUS"] == want.flags["C_CONTIGUOUS"]


@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), noise=st.integers(1, 8),
       repeat=st.booleans())
@settings(max_examples=60, deadline=None)
def test_simple_spectrum_matches_the_pair_loop(seed, n, noise, repeat):
    # Theta1 = Phi Lambda Phi^-1 plus a perturbation of 10^-noise: margins on both sides
    # of 1, and an exact repeat (the last eigenvalue the first) when ``repeat``
    rng = np.random.default_rng(seed)
    values = np.round(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1)
    if repeat:
        values[-1] = values[0]
    phi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    phi /= np.linalg.norm(phi, axis=0)
    psi = np.linalg.inv(phi).conj().T
    theta1 = (phi * values) @ psi.conj().T + 10.0**-noise * rng.standard_normal((n, n))
    radii = _reference_disc_radii(theta1, values, phi, psi)
    simple, i, j = _reference_simple_spectrum(values, radii)
    with contextlib.nullcontext() if simple else pytest.raises(SpectrumError) as info:
        linalg._require_simple(theta1, linalg.SpectralNorm(theta1), values, phi, psi)
    if not simple:
        named = re.search(r"eigenvalues (\d+) and (\d+) .* radius (\S+) and (\S+) \(",
                          str(info.value))
        assert (int(named[1]), int(named[2])) == (i, j)
        np.testing.assert_allclose([float(named[3]), float(named[4])], [radii[i], radii[j]],
                                   rtol=1e-3)


@st.composite
def _exact_similar_seeds(draw):
    """(Theta1, diag(T)) with Theta1 = S T S^-1 exact in floats: S unimodular (a unit lower
    times a unit upper integer triangle), T integer upper triangular with a distinct
    diagonal in [-9, 9] and entries up to 1000 above it, which the rule refuses about a
    third of the time."""
    n = draw(st.integers(1, 6))
    entries, above = st.integers(-3, 3), st.integers(-1000, 1000)
    lower = np.eye(n, dtype=np.int64)
    upper = np.eye(n, dtype=np.int64)
    t = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            lower[j, i], upper[i, j], t[i, j] = draw(entries), draw(entries), draw(above)
    diagonal = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n, unique=True))
    t[np.diag_indices(n)] = diagonal
    s = lower @ upper
    s_inv = np.rint(np.linalg.inv(s)).astype(np.int64)
    assert np.array_equal(s @ s_inv, np.eye(n, dtype=np.int64))
    theta1 = s @ t @ s_inv
    assert np.abs(theta1).max() < 2**52
    return theta1.astype(complex), np.array(diagonal, dtype=complex)


@given(_exact_similar_seeds())
@settings(max_examples=200, deadline=None)
def test_an_accepted_seed_has_each_exact_eigenvalue_in_its_own_disc(seed):
    # the eigenvalues of S T S^-1 are T's diagonal exactly: past the rule, each lies in one
    # disc, and no two in the same one
    theta1, exact = seed
    try:
        model = build_model(theta1, np.eye(len(exact), dtype=complex))
    except SpectrumError:
        return
    radii = _reference_disc_radii(theta1, model.values, model.phi1, model.psi1)
    inside = np.abs(exact[:, None] - model.values[None, :]) <= np.array(radii)[None, :]
    assert np.all(inside.sum(axis=1) == 1)
    assert sorted(np.argmax(inside, axis=1)) == list(range(len(exact)))


def test_the_near_jordan_seed_is_refused():
    # eigenvalues 1 and 1 + 1e-7 of a seed whose perturbations of u ||Theta1|| move them
    # by about 1e-4
    theta1 = np.array([[1.0, 1e4], [0.0, 1.0 + 1e-7]], dtype=complex)
    with pytest.raises(SpectrumError, match=r"eigenvalues 0 and 1 \(1\+0j, 1\+0j\) lie 1\.000e-07"):
        build_model(theta1, np.eye(2, dtype=complex))


def _planted_factors(dim1, dim2, seed):
    """sigma, lam and eig(B) in the order the generator draws them from ``seed``:
    W and V first, then sigma, lam and B (no seed below draws again)."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    gauss(dim1, dim1), gauss(dim2, dim2)
    sigma = rng.uniform(1.0, 4.0, dim2)
    lam = gauss(dim2)
    return sigma, lam, np.linalg.eigvals(gauss(dim1 - dim2, dim1 - dim2))


@pytest.mark.parametrize("dims", [(8, 4), (40, 20)])
@pytest.mark.parametrize("seed", range(20))
def test_commuting_pair_draws_are_unchanged(dims, seed):
    # the seeded stream fixes every planted factor: X's singular values are sigma, the
    # surviving modes carry lam and the kernel modes the spectrum of B
    theta1, x = make_commuting_pair(*dims, seed)
    sigma, lam, kernel = _planted_factors(*dims, seed)
    np.testing.assert_allclose(np.linalg.svd(x, compute_uv=False), np.sort(sigma)[::-1],
                               rtol=1e-14, atol=0.0)
    model = build_model(theta1, x)
    atol = 1e-14 * opnorm(theta1)
    for got, want in ((model.values[list(model.survivors)], lam),
                      (model.values[list(model.kernel_set)], kernel)):
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(want), rtol=0.0, atol=atol)


# ---------------------------------------------------------------------------
# SVD budget: a relation decided from bounds takes no SVD


@pytest.fixture
def svd_count(monkeypatch):
    calls = []
    original = linalg.opnorm

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(intertwining, "opnorm", counted)
    monkeypatch.setattr(linalg, "opnorm", counted)
    return calls


def test_noninvertible_model_svd_budget(svd_count):
    theta1, x = make_commuting_pair(12, 6, 0)
    model = build_model(theta1, x)
    verify_relations(model)
    structure_check(model)
    # every decision, passing or failing, is far from its threshold
    assert len(svd_count) == 0
    # adjoint_descent is exact: its numerator and ||Theta2||
    adjoint_descent(model)
    assert len(svd_count) == 2
    # a second check measures no operand again
    verify_relations(model)
    structure_check(model)
    assert adjoint_descent(model) >= 0.0
    assert len(svd_count) == 2 + 1


@pytest.mark.parametrize(
    "dims,hermitian",
    [((40, 20), False), ((120, 60), False), ((40, 20), True)],
    ids=["40x20", "120x60", "hermitian"],
)
def test_structure_check_takes_no_eigensolve_and_no_inverse(dims, hermitian, monkeypatch):
    # N1 = X X-adjoint has rank d2 < d1: its positivity and inverse are never needed
    model = build_model(*make_commuting_pair(*dims, 5, hermitian=hermitian))
    want = _reference_structure(model)

    def refuse(*args, **kwargs):
        raise AssertionError("structure_check called an eigensolver or an inverse")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    structure = structure_check(model)
    got = dict(structure.residuals, adjoint_descent=adjoint_descent(model))
    _assert_residuals_match(got, want, structure.bounded)
    assert structure.skipped["n_inverse_intertwine"] == "N1 singular"
    assert structure.skipped["theta1_reconstruction"] == "N1 singular"
    reason = structure.skipped["theta1_self_adjoint"]
    if hermitian:
        assert reason == "N1 not strictly positive"
    else:
        assert reason.startswith("partner not self-adjoint (defect ")
        assert reason.endswith("); N1 not strictly positive")


def test_similarity_model_svd_budget(svd_count):
    theta1, x = _square_pair(3, 6)
    model = build_model(theta1, x)
    # sigma(X) comes from one SVD outside opnorm
    verify_relations(model)
    assert len(svd_count) == 0
