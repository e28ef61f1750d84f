"""``make_commuting_pair`` against a full eigensolve of what it plants.

The generator plants Theta1 = W (diag(lam) + B) W-adjoint with W unitary, so
Theta1's spectrum is lam together with the spectrum of B, and it decides
whether a draw has a simple spectrum from those alone.  Each draw must still
meet every condition the earlier generator tested with a full eigensolve:
X of full rank, [N1, Theta1] = 0 up to rounding, and ``eigvals(Theta1)``
simple, also when a draw is resampled.  A seed gives one pair: the same
bytes in two fresh processes, and a built partner within rounding of the
planted one.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isospec.intertwining as intertwining
import isospec.linalg as linalg
from isospec import build_model, make_commuting_pair, opnorm
from isospec.linalg import _pairwise_gaps


def _assert_full_eigensolve_passes(dim1, dim2, seed, hermitian):
    theta1, x = make_commuting_pair(dim1, dim2, seed, hermitian=hermitian)
    s = np.linalg.svd(x, compute_uv=False)
    assert s.size == dim2 and 1.0 - 1e-14 <= s[-1] <= s[0] <= 4.0 + 1e-14
    n1 = x @ x.conj().T
    assert opnorm(n1 @ theta1 - theta1 @ n1) <= 1e-13 * opnorm(n1) * opnorm(theta1)
    assert _pairwise_gaps(np.linalg.eigvals(theta1)).min() > 1e-6
    if hermitian:
        assert np.array_equal(theta1, theta1.conj().T)
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
    _assert_full_eigensolve_passes(*dims, seed, hermitian)


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("dims,seed", [((120, 60), 0), ((120, 60), 7), ((300, 150), 3)])
def test_benchmark_size_draws_match_the_full_eigensolve(dims, seed, hermitian):
    _assert_full_eigensolve_passes(*dims, seed, hermitian)


def _failing_first_call(spy):
    """A ``_pairwise_gaps`` whose first call reports a zero gap; records its calls."""

    def gaps(values):
        spy.append(values)
        return np.zeros(1) if len(spy) == 1 else linalg._pairwise_gaps(values)

    return gaps


@pytest.mark.parametrize("hermitian", [False, True])
def test_a_resampled_draw_matches_the_full_eigensolve(hermitian, monkeypatch):
    first = make_commuting_pair(12, 5, 4, hermitian=hermitian)
    calls = []
    monkeypatch.setattr(intertwining, "_pairwise_gaps", _failing_first_call(calls))
    theta1 = _assert_full_eigensolve_passes(12, 5, 4, hermitian)
    # the first draw was thrown away and the second kept
    assert len(calls) == 2
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


DIGEST = (
    "import hashlib, sys; from isospec import make_commuting_pair; "
    "t, x = make_commuting_pair(int(sys.argv[1]), int(sys.argv[2]), 3); "
    "print(hashlib.sha256(t.tobytes() + x.tobytes()).hexdigest())"
)


@pytest.mark.parametrize("dims", [(120, 60), (300, 150)], ids=["120x60", "300x150"])
def test_a_seed_gives_the_same_bytes_in_two_fresh_processes(dims):
    digests = {
        subprocess.run([sys.executable, "-c", DIGEST, *map(str, dims)], capture_output=True,
                       text=True, check=True).stdout
        for _ in range(2)
    }
    theta1, x = make_commuting_pair(*dims, 3)
    assert digests == {hashlib.sha256(theta1.tobytes() + x.tobytes()).hexdigest() + "\n"}


@pytest.mark.parametrize("dims", [(8, 4), (40, 20), (120, 60), (300, 150)],
                         ids=["8x4", "40x20", "120x60", "300x150"])
def test_the_built_partner_is_the_planted_one(dims):
    # Theta2 = R^-1 Q-adjoint Theta1 X rounds relative to ||Theta1|| ||X||: its error
    # is of order cond(X) u ||Theta1||; seed 0 reads 2.5 times that at 8x4, about 1 beyond
    theta1, x, partner = intertwining._plant(*dims, 0)
    drawn = make_commuting_pair(*dims, 0)
    assert np.array_equal(drawn[0], theta1) and np.array_equal(drawn[1], x)
    model = build_model(theta1, x)
    s = np.linalg.svd(x, compute_uv=False)
    u = np.finfo(float).eps / 2
    assert opnorm(model.theta2 - partner) <= 4 * (s[0] / s[-1]) * u * opnorm(theta1)
    assert len(model.kernel_set) == dims[0] - dims[1]
