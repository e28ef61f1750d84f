"""``make_commuting_pair`` against a reference copy of its full-eigensolve form.

The generator decides whether a draw has a simple spectrum from the spectra
of the blocks it draws: Theta1 = U C U-adjoint with U unitary and C
block-diagonal, so Theta1's spectrum is the union of the blocks' spectra.
``_reference_make_commuting_pair`` below is the earlier implementation,
kept verbatim: it assembles Theta1 and runs a full ``eigvals`` on it.  The
RNG stream, the rank test and the assembly are shared, so both must return
bit-identical (Theta1, X), also when a draw is resampled.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isospec.intertwining as intertwining
import isospec.linalg as linalg
from isospec import DimensionError, NumericalError, make_commuting_pair
from isospec.linalg import _pairwise_gaps


def _reference_make_commuting_pair(dim1: int, dim2: int, seed: int, hermitian: bool = False):
    """Random (Theta1, X) satisfying the non-invertible regime preconditions.

    X is dense complex with full column rank; Theta1 is assembled in the
    eigenbasis of N1 = X X-adjoint, block-diagonal over N1's eigenspaces,
    which enforces [N1, Theta1] = 0 exactly up to rounding.  Simple seed
    spectrum is enforced by resampling.  ``hermitian`` makes Theta1
    self-adjoint (for converse-direction checks).
    """
    if dim2 >= dim1:
        raise DimensionError(
            "need dim1 > dim2: a square intertwiner is either invertible or "
            "fails strict positivity of N2 (no-go), and dim2 > dim1 always fails it"
        )
    if dim2 < 1:
        raise DimensionError("dim2 must be at least 1")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        x = rng.standard_normal((dim1, dim2)) + 1j * rng.standard_normal((dim1, dim2))
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] <= 1e-6 * s[0]:
            continue
        n1 = x @ x.conj().T
        w, u = np.linalg.eigh(n1)
        groups: list[list[int]] = []
        for i in range(dim1):
            if groups and abs(w[i] - w[groups[-1][0]]) <= 1e-8 * max(w[-1], 1.0):
                groups[-1].append(i)
            else:
                groups.append([i])
        c = np.zeros((dim1, dim1), dtype=complex)
        for g in groups:
            blk = rng.standard_normal((len(g), len(g))) + 1j * rng.standard_normal(
                (len(g), len(g))
            )
            if hermitian:
                blk = (blk + blk.conj().T) / 2
            c[np.ix_(g, g)] = blk
        theta1 = u @ c @ u.conj().T
        if hermitian:
            theta1 = (theta1 + theta1.conj().T) / 2
        vals = np.linalg.eigvals(theta1)
        if _pairwise_gaps(vals).min() > 1e-6:
            return theta1, x
    raise NumericalError("could not draw a simple-spectrum commuting pair in 64 tries")


def _assert_same_draw(dim1, dim2, seed, hermitian):
    theta1, x = make_commuting_pair(dim1, dim2, seed, hermitian=hermitian)
    ref_theta1, ref_x = _reference_make_commuting_pair(dim1, dim2, seed, hermitian=hermitian)
    assert np.array_equal(theta1, ref_theta1)
    assert np.array_equal(x, ref_x)
    return theta1


# (d1, d2) with 2 <= d1 <= 40 and 1 <= d2 < d1
DIMS = st.integers(2, 40).flatmap(lambda d1: st.tuples(st.just(d1), st.integers(1, d1 - 1)))


@given(
    dims=DIMS,
    seed=st.integers(0, 2**63 - 1),
    hermitian=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_draws_match_the_full_eigensolve(dims, seed, hermitian):
    _assert_same_draw(*dims, seed, hermitian)


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("dims,seed", [((120, 60), 0), ((120, 60), 7), ((300, 150), 3)])
def test_benchmark_size_draws_match_the_full_eigensolve(dims, seed, hermitian):
    _assert_same_draw(*dims, seed, hermitian)


def _failing_first_call(spy):
    """A ``_pairwise_gaps`` whose first call reports a zero gap; records its calls."""

    def gaps(values):
        spy.append(values)
        return np.zeros(1) if len(spy) == 1 else linalg._pairwise_gaps(values)

    return gaps


@pytest.mark.parametrize("hermitian", [False, True])
def test_a_resampled_draw_matches_the_full_eigensolve(hermitian, monkeypatch):
    first = make_commuting_pair(12, 5, 4, hermitian=hermitian)
    calls, ref_calls = [], []
    monkeypatch.setattr(intertwining, "_pairwise_gaps", _failing_first_call(calls))
    monkeypatch.setattr(sys.modules[__name__], "_pairwise_gaps", _failing_first_call(ref_calls))
    theta1 = _assert_same_draw(12, 5, 4, hermitian)
    # both threw the first draw away and kept the second
    assert len(calls) == len(ref_calls) == 2
    assert not np.array_equal(theta1, first[0])


@given(
    dims=DIMS,
    seed=st.integers(0, 2**63 - 1),
    hermitian=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_the_block_spectrum_is_the_spectrum_of_theta1(dims, seed, hermitian):
    spectra = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intertwining, "_pairwise_gaps", lambda v: spectra.append(v) or linalg._pairwise_gaps(v))
        theta1, _ = make_commuting_pair(*dims, seed, hermitian=hermitian)
    got = np.sort_complex(spectra[-1])
    want = np.sort_complex(np.linalg.eigvals(theta1))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.linalg.norm(theta1, 2)
