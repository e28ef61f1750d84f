"""Ladder pairs against reference copies of their former per-entry loops.

``build_ladders`` is one assembly for both levels, with level 1 as the
case of unit pairing constants.  The functions prefixed
``_reference_`` below are the earlier implementations, kept verbatim in
substance: the step matrices filled one entry at a time, the level-2 dyads
weighted through a diagonal matrix product.  Both ladders must come out
bit-identical at both levels.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec import (
    BiorthogonalSystem,
    EpsilonSequence,
    build_ladders,
    build_model,
    make_commuting_pair,
)

# ---------------------------------------------------------------------------
# reference copies of the loop implementations (preconditions left out)


def _reference_ladders(system, eps):
    m = system.size
    roots = np.sqrt(eps.values[:m])
    lower = np.zeros((m, m))
    upper = np.zeros((m, m))
    for k in range(1, m):
        lower[k - 1, k] = roots[k]
        upper[k, k - 1] = roots[k]
    psih = system.psi.conj().T
    return system.phi @ lower @ psih, system.phi @ upper @ psih


def _reference_ladders_level2(system2, eps, tk):
    m = system2.size
    lower = np.zeros((m, m))
    upper = np.zeros((m, m))
    for k in range(1, m):
        lower[k - 1, k] = math.sqrt(eps.values[k] * tk[k] / tk[k - 1])
        upper[k, k - 1] = math.sqrt(eps.values[k] * tk[k - 1] / tk[k])
    weighted = system2.psi @ np.diag(1.0 / tk)
    psih = weighted.conj().T
    return system2.phi @ lower @ psih, system2.phi @ upper @ psih


# ---------------------------------------------------------------------------
# drawn systems


def _increasing_eps(rng, count):
    return EpsilonSequence(np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 3.0, count - 1)))))


def _random_system(rng, n, pairing):
    """A skewed frame with its C-ordered partner scaled to ``pairing``."""
    phi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    psi = np.ascontiguousarray(np.linalg.inv(phi).conj().T) * pairing
    return BiorthogonalSystem(phi=phi, psi=psi, pairing=pairing)


def _assert_bit_identical(pair, reference):
    a, b = reference
    assert np.array_equal(pair.a, a)
    assert np.array_equal(pair.b, b)


@given(seed=st.integers(0, 10_000), dim2=st.integers(1, 8), extra=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_model_ladders_match_the_loops(seed, dim2, extra):
    model = build_model(*make_commuting_pair(dim2 + extra, dim2, seed))
    rng = np.random.default_rng(seed)
    system1 = model.system1()
    eps1 = _increasing_eps(rng, system1.size)
    _assert_bit_identical(build_ladders(system1, eps1), _reference_ladders(system1, eps1))
    system2 = model.system2()
    eps2 = _increasing_eps(rng, system2.size)
    _assert_bit_identical(
        build_ladders(system2, eps2),
        _reference_ladders_level2(system2, eps2, system2.pairing),
    )


@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_drawn_systems_match_the_loops(seed, n):
    rng = np.random.default_rng(seed)
    eps = _increasing_eps(rng, n + 2)
    system1 = _random_system(rng, n, np.ones(n))
    _assert_bit_identical(build_ladders(system1, eps), _reference_ladders(system1, eps))
    tk = rng.uniform(0.01, 50.0, n)
    system2 = _random_system(rng, n, tk)
    _assert_bit_identical(
        build_ladders(system2, eps), _reference_ladders_level2(system2, eps, tk)
    )
