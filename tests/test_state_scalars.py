"""A state's tail bound and convergence verdict against their row expressions.

Each state computes its rounding floor, tail bound and ``converged`` from
Python floats.  ``_reference_rows`` below is how they read as numpy rows
over the batch, kept verbatim in substance.  The floor's factor dim * u is
a power of two when dim is one, and then a product taken in another order
rounds alike; so these systems have dimensions 6, 10, 12 and 14, and the
small moduli put the floor above the analytic tail.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec import EpsilonSequence, coherent_demo, coherent_grid, coherent_pair
from isospec.bicoherent import TAIL_RATIO_LIMIT

_UNIT_ROUNDOFF = float(np.finfo(float).eps)


def _reference_rows(system, eps, zs, order):
    """(tail_bound, converged) of every z, as row expressions over the batch."""
    absz = np.abs(zs)
    phi_norms = np.linalg.norm(system.phi[:, :order], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.multiply.outer(np.log(absz), np.arange(0.0, 2.0 * order, 2.0))
        log_w[:, 0] = 0.0
        log_w -= np.log(eps.factorials(order))
        top = log_w.max(axis=1, keepdims=True)
        log_norm2 = top + np.log(np.exp(log_w - top).sum(axis=1, keepdims=True))
        magnitude = np.exp(0.5 * (log_w - log_norm2 - np.log(system.pairing[:order])))
        terms = magnitude * phi_norms
        rounding_floor = system.dim * _UNIT_ROUNDOFF * (1.0 + absz) * terms.sum(axis=1)
        tail_bound = np.maximum(absz * terms[:, -1], rounding_floor)
        prev = terms[:, -2] if order >= 2 else 0.0
        converged = (prev <= 0) | (terms[:, -1] / prev <= TAIL_RATIO_LIMIT)
    return tail_bound.tolist(), converged.tolist()


@given(
    n_blocks=st.sampled_from([3, 5, 6, 7]),
    alpha1=st.floats(0.1, 4.0),
    order=st.integers(1, 14),
    moduli=st.lists(
        st.floats(0.0, 2.0) | st.sampled_from([1e-310, 1e-8, 1e-3]), min_size=1, max_size=6
    ),
    angle=st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=80, deadline=None)
def test_tail_bounds_and_verdicts_match_the_rows(n_blocks, alpha1, order, moduli, angle):
    fixture = coherent_demo(alpha1, n_blocks)
    system = fixture.model.system1()
    eps = EpsilonSequence(fixture.expected["epsilon"])
    order = min(order, system.size)
    zs = np.array([r * complex(math.cos(angle + i), math.sin(angle + i))
                   for i, r in enumerate(moduli)])
    tails, verdicts = _reference_rows(system, eps, zs, order)
    batch = coherent_grid(system, eps, zs, order)
    singles = [coherent_pair(system, eps, z, order) for z in zs]
    for states in (batch, singles):
        assert [type(s.tail_bound) for s in states] == [float] * len(zs)
        assert np.array([s.tail_bound for s in states]).tobytes() == np.array(tails).tobytes()
        assert [s.converged for s in states] == verdicts
