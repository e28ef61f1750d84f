"""Certified decisions: O(mn) norm bounds give the verdict the exact SVDs give.

Each test puts an exact ratio at tol * (1 +/- 1e-6), where the bounds
cannot decide and the SVD fallback must, or far from tol, where they can;
the verdict must equal the one computed from ``opnorm`` either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isospec.linalg as linalg
from isospec import NumericalError, build_model, eig, opnorm, verify_relations
from isospec.linalg import SpectralNorm, certified_ratio, is_strictly_positive

# at the threshold (the fallback decides), and far from it (the bounds do)
OFFSETS = [1.0 - 1e-6, 1.0 + 1e-6, 1e-3, 1e3]


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _matrix(rng, rows, cols, rank_one):
    if rank_one:
        return _random_complex(rng, rows, 1) @ _random_complex(rng, 1, cols)
    return _random_complex(rng, rows, cols)


def _assert_on_the_exact_side(value, bounded, exact, tol):
    assert (value <= tol) == (exact <= tol), (value, exact)
    if bounded and exact <= tol:
        assert exact <= value
    elif bounded:
        assert exact >= value


@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    rank_one=st.tuples(st.booleans(), st.booleans()),
    offset=st.sampled_from(OFFSETS),
    tol=st.sampled_from([1e-12, 1e-9, 1e-3]),
    floor=st.sampled_from([1e-300, 1.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
@settings(max_examples=300, deadline=None)
def test_certified_ratio_gives_the_svd_verdict(seed, shape, rank_one, offset, tol, floor, scale):
    rng = np.random.default_rng(seed)
    b = scale * _matrix(rng, *shape[::-1], rank_one[1])
    den = max(opnorm(b), floor)
    a = _matrix(rng, *shape, rank_one[0])
    a *= tol * offset * den / opnorm(a)
    exact = opnorm(a) / den
    value, bounded = certified_ratio(a, (SpectralNorm(b),), tol, floor)
    _assert_on_the_exact_side(value, bounded, exact, tol)
    if offset in (1e-3, 1e3):
        assert bounded
    if not bounded:
        assert value == exact


@given(seed=st.integers(0, 10_000), n=st.integers(1, 8), offset=st.sampled_from(OFFSETS))
@settings(max_examples=100, deadline=None)
def test_a_product_of_norms_gives_the_svd_verdict(seed, n, offset):
    rng = np.random.default_rng(seed)
    a, b, c = (_random_complex(rng, n, n) for _ in range(3))
    tol = 1e-9
    a *= tol * offset * opnorm(b) * opnorm(c) / opnorm(a)
    exact = opnorm(a) / (opnorm(b) * opnorm(c))
    value, bounded = certified_ratio(a, (SpectralNorm(b), SpectralNorm(c)), tol)
    _assert_on_the_exact_side(value, bounded, exact, tol)


def _reference_strictly_positive(m, tol):
    if opnorm(m - m.conj().T) > tol * max(1.0, opnorm(m)):
        return False
    return bool(np.linalg.eigvalsh((m + m.conj().T) / 2)[0] > tol)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 8),
    offset=st.sampled_from(OFFSETS),
    size=st.sampled_from([0.25, 4.0]),
)
@settings(max_examples=150, deadline=None)
def test_strict_positivity_gives_the_svd_verdict(seed, n, offset, size):
    # m = H + s K with H > 0 and K anti-self-adjoint: ||m - m^H|| = 2 s ||K||
    rng = np.random.default_rng(seed)
    g = _random_complex(rng, n, n)
    h = g @ g.conj().T + np.eye(n)
    h *= size / opnorm(h)
    k = _random_complex(rng, n, n)
    k = k - k.conj().T
    tol = 1e-9
    # ||m|| <= size * (1 + 1e-6) stays on the side of 1 that ``size`` is on
    target = tol * offset * max(1.0, opnorm(h))
    m = h + (target / (2.0 * opnorm(k))) * k
    want = _reference_strictly_positive(m, tol)
    assert is_strictly_positive(m, tol) == want
    assert linalg._strictly_positive(m, SpectralNorm(m), tol) == want


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 6),
    offset=st.sampled_from(OFFSETS[:2] + [1e-2]),
)
@settings(max_examples=100, deadline=None)
def test_the_eig_residual_gate_gives_the_svd_verdict(seed, n, offset):
    # M = U diag(w) U^H; the eigensolver returns column 0 tilted towards u_1 so
    # that its defect is 1e-8 * offset of ||M||
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(_random_complex(rng, n, n))
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = (u * w) @ u.conj().T
    g = 1e-8 * offset * np.max(np.abs(w)) / abs(w[1] - w[0])
    vectors = u.copy()
    vectors[:, 0] += (g / np.sqrt(1.0 - g * g)) * u[:, 1]
    unit = vectors / np.linalg.norm(vectors, axis=0)
    # the rounding of M moves this by about 1e-16 / 1e-8 relative, far inside 1e-6
    defect = np.max(np.linalg.norm(m @ unit - unit * w, axis=0)) / opnorm(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eig", lambda _m: (w.copy(), vectors.copy()))
        if defect > 1e-8:
            with pytest.raises(NumericalError, match="eigendecomposition residual"):
                eig(m)
        else:
            assert eig(m).max_residual >= defect * (1.0 - 1e-7)


def test_zero_operands_read_zero():
    # a zero seed: every residual is an exact 0, and nothing is a bound
    model = build_model(np.zeros((1, 1)), 2.0 * np.eye(1))
    report = verify_relations(model)
    assert set(report.residuals.values()) == {0.0}
    assert not report.bounded
    zero = np.zeros((3, 3), dtype=complex)
    d = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.arange(9.0).reshape(3, 3).astype(complex)
    # a zero operand, and two diagonal operands, commute exactly
    for a, c in ((zero, b), (d, 2 * d)):
        decision = certified_ratio(a @ c - c @ a, (SpectralNorm(a), SpectralNorm(c)), 1e-9)
        assert decision == (0.0, False)
    assert SpectralNorm(zero).bounds == (0.0, 0.0)


def test_bounds_that_cannot_be_trusted_decide_nothing():
    # squares that underflow or overflow leave the decision to the SVD
    tiny = np.full((2, 2), 1e-170, dtype=complex)
    assert SpectralNorm(tiny).bounds == (0.0, np.inf)
    assert certified_ratio(tiny, (SpectralNorm(np.eye(2)),), 1e-9) == (opnorm(tiny), False)
    huge = np.full((2, 2), 1e160, dtype=complex)
    assert SpectralNorm(huge).bounds == (0.0, np.inf)
    with pytest.raises(NumericalError):
        certified_ratio(np.full((2, 2), np.inf), (SpectralNorm(np.eye(2)),), 1e-9)
