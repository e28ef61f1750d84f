"""The resolution-of-identity check against a reference copy of its mode loop.

``_reference_resolution_check`` below is the mode loop of
``resolution_check`` as it read before the per-mode pairing, moments and
factorials became Python floats, kept verbatim in substance (the argument
checks left out).  Every field of the result, the measure-based ``lhs``
included, must come out bit-identical: the same type and the same bytes,
which unlike ``==`` tells -0.0 from 0.0.  The two residuals, numpy.float64
in the loop, are Python floats of the same bytes, as annotated.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec import (
    EpsilonSequence,
    build_model,
    coherent_demo,
    make_commuting_pair,
    resolution_check,
    solve_moment_measure,
)

FIELDS = ("lhs", "rhs", "residual", "sum_form", "sum_residual")
FLOAT_FIELDS = ("residual", "sum_residual")


def _reference_resolution_check(system, eps, measure, f, g, order):
    """(lhs, rhs, residual, sum_form, sum_residual) of the numpy-scalar loop."""
    eps = EpsilonSequence.of(eps)
    f = np.asarray(f, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    facts = eps.factorials(order)
    moments = None if measure is None else measure.moments(order)
    lhs = sum_form = 0.0 + 0.0j
    for k in range(order):
        fg = np.vdot(f, system.phi[:, k]) * np.vdot(system.psi[:, k], g)
        pk = system.pairing[k]
        sum_form += fg / pk
        if moments is not None:
            lhs += fg * 2.0 * math.pi * moments[k] / (facts[k] * pk)
    lhs = sum_form if moments is None else lhs
    rhs = complex(np.vdot(f, g))
    return complex(lhs), rhs, abs(lhs - rhs), complex(sum_form), abs(lhs - sum_form)


def _assert_same_result(result, reference):
    for name, want in zip(FIELDS, reference):
        got = getattr(result, name)
        # the loop's residuals are numpy.float64; the result's are floats of the same bits
        assert type(got) is (float if name in FLOAT_FIELDS else type(want)), name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def _vectors(seed, dim, span):
    """Two random complex vectors; ``span`` > 0 keeps them in the first ``span`` coordinates."""
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    if span:
        f[span:] = g[span:] = 0.0
    return f, g


@given(
    alpha1=st.floats(0.1, 4.0),
    n_blocks=st.integers(2, 12),
    seed=st.integers(0, 10_000),
    span=st.integers(0, 10),
)
@settings(max_examples=40, deadline=None)
def test_a_level1_check_on_coherent_demo_matches_the_loop(alpha1, n_blocks, seed, span):
    fixture = coherent_demo(alpha1, n_blocks)
    system = fixture.model.system1()
    eps = EpsilonSequence(fixture.expected["epsilon"])
    f, g = _vectors(seed, system.dim, span)
    for order in range(1, system.size + 1):
        measure = solve_moment_measure(eps, order)
        _assert_same_result(
            resolution_check(system, eps, measure, f, g, order),
            _reference_resolution_check(system, eps, measure, f, g, order),
        )


@given(
    seed=st.integers(0, 10_000),
    dim2=st.integers(1, 8),
    extra=st.integers(1, 6),
    s=st.floats(0.1, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_a_level2_check_matches_the_loop_with_and_without_a_measure(seed, dim2, extra, s):
    # the level-2 system of a random pair carries pairing constants other than 1
    system = build_model(*make_commuting_pair(dim2 + extra, dim2, seed)).system2()
    eps = EpsilonSequence.linear(s, max(2, system.size))
    f, g = _vectors(seed, system.dim, 0)
    for order in range(1, system.size + 1):
        for measure in (solve_moment_measure(eps, order), None):
            _assert_same_result(
                resolution_check(system, eps, measure, f, g, order),
                _reference_resolution_check(system, eps, measure, f, g, order),
            )


def test_signed_zeros_in_the_vectors_match_the_loop():
    # f = -0.0 everywhere: every product is a signed zero, and so is each sum
    fixture = coherent_demo(1.0, 4)
    system = fixture.model.system1()
    eps = EpsilonSequence(fixture.expected["epsilon"])
    measure = solve_moment_measure(eps, system.size)
    f = np.full(system.dim, complex(-0.0, -0.0))
    g = np.full(system.dim, complex(0.0, -0.0))
    for measure_or_none in (measure, None):
        _assert_same_result(
            resolution_check(system, eps, measure_or_none, f, g, system.size),
            _reference_resolution_check(system, eps, measure_or_none, f, g, system.size),
        )
