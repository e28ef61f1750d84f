"""Bicoherent states against a reference copy of their earlier assembly.

A state reads every z-independent row (exponents, mode indices, log
pairing, transposed families, column norms, log-factorials) from the
memoized disc, and the radius gate checks the order and the kernel only
when it fits a new disc.  The functions prefixed ``_reference_`` below are
the earlier gate and assembly, kept verbatim in substance but without the
memo: they fit the disc and rebuild every row on each call.  Every field of
every state must come out bit-identical, signed zeros included, whether the
disc is fitted by the call (a fresh system) or found in the memo, and a
refusal must be the same in both cases.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec import (
    BiorthogonalSystem,
    DimensionError,
    DivergenceError,
    EpsilonSequence,
    KernelError,
    ParameterError,
    coherent_demo,
    coherent_grid,
    coherent_pair,
    convergence_for_system,
    filter_and_build,
    filter_system,
)
from isospec import bicoherent
from isospec.bicoherent import (
    TAIL_RATIO_LIMIT,
    BicoherentState,
    _disc,
    _fit_growth_from_norms,
    radius,
)

_UNIT_ROUNDOFF = float(np.finfo(float).eps)

# ---------------------------------------------------------------------------
# reference copies of the earlier gate and assembly


def _reference_check_order(system, order):
    if not 1 <= order <= system.size:
        raise DimensionError(
            f"order must lie in 1..{system.size} (system size), got {order}"
        )


def _reference_refuse_kernel(pairing):
    dead = np.flatnonzero(pairing <= 0)
    if dead.size:
        raise KernelError(f"pairing constant at index {dead[0]} is not positive "
                          "(kernel mode); filter first")


def _reference_disc(system, eps, order):
    """convergence_for_system and its disc, fitted afresh on every call."""
    _reference_check_order(system, order)
    _reference_refuse_kernel(system.pairing[:order])
    hphi = np.linalg.norm(system.phi[:, :order], axis=0)
    hpsi = np.linalg.norm(system.psi[:, :order], axis=0)
    facts = eps.factorials(order)
    r_phi, a_phi = _fit_growth_from_norms(hphi / hphi[0], facts)
    r_psi, a_psi = _fit_growth_from_norms(hpsi / hpsi[0], facts)
    conv = radius(r_phi, a_phi, r_psi, a_psi, eps)
    with np.errstate(divide="ignore"):
        log_facts = np.log(facts)
    return conv, hphi, log_facts


def _reference_radius_gate(system, eps, zs, order):
    if not np.isfinite(zs).all():
        raise ParameterError("z must be finite")
    disc = _reference_disc(system, eps, order)
    conv = disc[0]
    largest = float(np.abs(zs).max(initial=0.0))
    if math.isfinite(conv.rho) and largest >= conv.rho:
        raise DivergenceError(
            f"|z| = {largest:.6g} is outside the convergence disc of radius "
            f"{conv.rho:.6g}"
        )
    return disc


def _reference_assemble_states(system, zs, order, disc):
    convergence, phi_norms, log_factorials = disc
    pairing = system.pairing[:order]
    phi = system.phi[:, :order]
    absz = np.abs(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.multiply.outer(np.log(absz), np.arange(0.0, 2.0 * order, 2.0))
        log_w[:, 0] = 0.0
        log_w -= log_factorials
        top = log_w.max(axis=1, keepdims=True)
        log_norm2 = top + np.log(np.exp(log_w - top).sum(axis=1, keepdims=True))
        magnitude = np.exp(0.5 * (log_w - log_norm2 - np.log(pairing)))
        lift = np.where(absz < 2.0 ** -600, 2.0 ** 600, 1.0)
        unit = np.where(absz > 0, (zs * lift) / (absz * lift), 1.0)
    coeff = magnitude * np.power.outer(unit, np.arange(order))
    if not np.isfinite(coeff).all():
        bad = zs[np.argmin(np.isfinite(coeff).all(axis=1))]
        raise DivergenceError(f"series coefficients are not finite at z = {bad:.6g}")
    vector_phi = coeff @ phi.T
    vector_psi = coeff @ system.psi[:, :order].T
    overlap = np.einsum("ij,ij->i", vector_phi.conj(), vector_psi)
    terms = magnitude * phi_norms
    rounding_floor = system.dim * _UNIT_ROUNDOFF * (1.0 + absz) * terms.sum(axis=1)
    tail_bound = np.maximum(absz * terms[:, -1], rounding_floor)
    converged = np.ones(zs.size, dtype=bool)
    if order >= 2:
        last, prev = terms[:, -1], terms[:, -2]
        live = prev > 0
        converged[live] = last[live] / prev[live] <= TAIL_RATIO_LIMIT
    normalization = np.exp(-0.5 * log_norm2[:, 0])
    return [
        BicoherentState(
            z=z, coefficients=c, vector_phi=vphi, vector_psi=vpsi,
            normalization=norm, overlap=ov, tail_bound=tail, converged=ok,
            convergence=convergence,
        )
        for z, c, vphi, vpsi, norm, ov, tail, ok in zip(
            zs.tolist(), coeff, vector_phi, vector_psi, normalization.tolist(),
            overlap.tolist(), tail_bound.tolist(), converged.tolist(),
        )
    ]


def _reference_states(system, eps, zs, order):
    _reference_check_order(system, order)
    eps = EpsilonSequence.of(eps)
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    return _reference_assemble_states(
        system, zs, order, _reference_radius_gate(system, eps, zs, order)
    )


# ---------------------------------------------------------------------------
# helpers


@functools.lru_cache(maxsize=None)
def _demo_systems():
    """coherent_demo(1.0, 8): a level-1 system and a level-2 one with its
    kernel (the odd modes); the tests reuse them, so their memos fill."""
    model = coherent_demo(1.0, 8).model
    return model.system1(), model.system2(include_kernel=True)


def _copied(system):
    """A fresh system, with an empty memo, on copies of ``system``'s arrays."""
    return BiorthogonalSystem(
        phi=np.copy(system.phi), psi=np.copy(system.psi), pairing=np.copy(system.pairing)
    )


def _eps(kind, scale, count):
    """A linear sequence (an unbounded disc) or one bounded by 4*scale (a finite disc)."""
    if kind == "linear":
        return EpsilonSequence.linear(scale, count)
    return EpsilonSequence(4.0 * scale * (1.0 - 0.5 ** np.arange(float(count))))


def _bits(value):
    return np.asarray(value).tobytes()


FIELDS = ("z", "coefficients", "vector_phi", "vector_psi",
          "normalization", "overlap", "tail_bound", "converged")
# the fields that a matrix product of the whole batch does not touch
ROW_FIELDS = ("z", "coefficients", "normalization", "tail_bound", "converged")


def _assert_same_state(got, want, fields=FIELDS):
    """Every field equal bit for bit: unlike ==, this tells -0.0 from 0.0."""
    assert got.convergence == want.convergence
    for name in fields:
        g, w = getattr(got, name), getattr(want, name)
        assert type(g) is type(w), name
        assert np.shape(g) == np.shape(w), name
        assert _bits(g) == _bits(w), name


def _assert_same_refusal(calls):
    """Each call raises, and all raise the same error type and message."""
    seen = []
    for call in calls:
        with pytest.raises(Exception) as info:
            call()
        seen.append((type(info.value), str(info.value)))
    assert len(set(seen)) == 1, seen
    return seen[0][0]


# z at ``fraction`` of the radius, in the direction ``angle``, or one of
# these: z = 0, subnormal moduli, and signed zeros in either part
KINDS = ("inside", "edge", "zero", "subnormal", "tiny", "signed_real", "signed_imag")


def _z(kind, conv, fraction, angle):
    reach = min(conv.rho, 2.0)
    r = fraction * reach
    return {
        "inside": r * complex(math.cos(angle), math.sin(angle)),
        "edge": 0.999 * reach * complex(math.cos(angle), math.sin(angle)),
        "zero": 0j,
        "subnormal": complex(5e-324, -5e-324),
        "tiny": 1e-310j,
        "signed_real": complex(-0.0, -r),  # -r*1j
        "signed_imag": complex(r, -0.0),
    }[kind]


_ORDERS = st.integers(1, 16)
_EPS = st.tuples(st.sampled_from(["linear", "bounded"]), st.floats(0.1, 4.0))


# ---------------------------------------------------------------------------
# states


@given(_EPS, _ORDERS, st.sampled_from(KINDS), st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_a_level1_state_matches_the_reference(eps_kind, order, kind, fraction, angle):
    system, _ = _demo_systems()
    eps = _eps(*eps_kind, system.size)
    z = _z(kind, _reference_disc(system, eps, order)[0], fraction, angle)
    (want,) = _reference_states(system, eps, [z], order)
    # fitted by the call, then found in the memo (twice)
    _assert_same_state(coherent_pair(_copied(system), eps, z, order), want)
    for _ in range(2):
        _assert_same_state(coherent_pair(system, eps, z, order), want)
    (got,) = coherent_grid(system, eps, [z], order)
    _assert_same_state(got, want)


@given(_EPS, _ORDERS, st.permutations(KINDS), st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi))
@settings(max_examples=30, deadline=None)
def test_a_mixed_batch_matches_the_reference_and_its_single_states(
    eps_kind, order, kinds, fraction, angle
):
    system, _ = _demo_systems()
    eps = _eps(*eps_kind, system.size)
    conv = _reference_disc(system, eps, order)[0]
    zs = [_z(kind, conv, fraction, angle + i) for i, kind in enumerate(kinds)]
    want = _reference_states(system, eps, zs, order)
    for got in (coherent_grid(_copied(system), eps, zs, order), coherent_grid(system, eps, zs, order)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_state(g, w)
    # a state's own rows do not depend on the batch it was made in (signed
    # zeros included); the vectors come from one product over the batch, and
    # BLAS may round a one-row product and a many-row one differently
    for z, w in zip(zs, want):
        _assert_same_state(coherent_pair(system, eps, z, order), w, ROW_FIELDS)


def test_an_empty_batch_is_no_states():
    system, _ = _demo_systems()
    eps = _eps("linear", 1.0, system.size)
    assert coherent_grid(system, eps, [], 8) == _reference_states(system, eps, [], 8) == []


@given(
    st.sampled_from(["original", "relabeled"]), _EPS, st.integers(1, 8),
    st.sampled_from(KINDS), st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=40, deadline=None)
def test_a_tilde_state_matches_the_reference(convention, eps_kind, order, kind, fraction, angle):
    _, system2 = _demo_systems()
    eps = _eps(*eps_kind, system2.size)
    tilde, delta, _ = filter_system(_copied(system2), eps, convention)
    z = _z(kind, _reference_disc(tilde, delta, order)[0], fraction, angle)
    (want,) = _reference_states(tilde, delta, [z], order)
    _assert_same_state(filter_and_build(_copied(system2), eps, z, order, convention), want)
    for _ in range(2):
        _assert_same_state(filter_and_build(system2, eps, z, order, convention), want)


# ---------------------------------------------------------------------------
# refusals, on a memo miss and on a hit


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.1, math.nan), complex(math.nan, math.inf)])
def test_a_non_finite_z_is_refused_alike_on_a_hit_and_a_miss(z):
    system, _ = _demo_systems()
    eps = _eps("linear", 1.0, system.size)
    coherent_pair(system, eps, 0.1, 16)
    error = _assert_same_refusal([
        lambda: _reference_states(system, eps, [z], 16),
        lambda: coherent_pair(_copied(system), eps, z, 16),
        lambda: coherent_pair(system, eps, z, 16),
        lambda: coherent_grid(system, eps, [0.1, z], 16),
    ])
    assert error is ParameterError


@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_z_on_or_outside_the_disc_is_refused_alike_on_a_hit_and_a_miss(factor):
    system, _ = _demo_systems()
    eps = _eps("bounded", 1.0, system.size)
    rho = _reference_disc(system, eps, 16)[0].rho
    assert math.isfinite(rho)
    z = factor * rho * 1j
    coherent_pair(system, eps, 0.5 * rho, 16)
    error = _assert_same_refusal([
        lambda: _reference_states(system, eps, [z], 16),
        lambda: coherent_pair(_copied(system), eps, z, 16),
        lambda: coherent_pair(system, eps, z, 16),
        lambda: coherent_grid(system, eps, [0.0, z], 16),
    ])
    assert error is DivergenceError


def test_a_kernel_mode_beyond_a_fitted_smaller_order_is_refused():
    # mode 1 of the level-2 system is a kernel mode; order 1 stops before it
    _, system2 = _demo_systems()
    system2 = _copied(system2)
    eps = _eps("linear", 1.0, system2.size)
    _assert_same_state(coherent_pair(system2, eps, 0.2, 1), _reference_states(system2, eps, [0.2], 1)[0])
    assert len(system2.memo) == 1
    for order in (2, system2.size):
        error = _assert_same_refusal([
            lambda: _reference_states(system2, eps, [0.2], order),
            lambda: coherent_pair(_copied(system2), eps, 0.2, order),
            lambda: coherent_pair(system2, eps, 0.2, order),
            lambda: coherent_pair(system2, eps, 0.2, order),
        ])
        assert error is KernelError
        with pytest.raises(KernelError):
            convergence_for_system(system2, eps, order)
    # the refusals are not kept; the smaller disc still serves
    assert len(system2.memo) == 1
    _assert_same_state(coherent_pair(system2, eps, 0.2, 1), _reference_states(system2, eps, [0.2], 1)[0])


@pytest.mark.parametrize("order", [0, 17, -1])
def test_an_order_outside_the_system_is_refused_alike(order):
    system, _ = _demo_systems()
    eps = _eps("linear", 1.0, system.size)
    error = _assert_same_refusal([
        lambda: _reference_states(system, eps, [0.1], order),
        lambda: coherent_pair(system, eps, 0.1, order),
        lambda: coherent_pair(system, eps, math.inf, order),
        lambda: convergence_for_system(system, eps, order),
    ])
    assert error is DimensionError


# ---------------------------------------------------------------------------
# the disc


def test_the_disc_rows_are_read_only_and_the_families_are_views():
    system = _copied(_demo_systems()[0])
    eps = _eps("linear", 1.0, system.size)
    order = 11
    coherent_pair(system, eps, 0.3, order)
    disc = _disc(system, eps, order)
    arrays = {name: value for name, value in disc._asdict().items() if isinstance(value, np.ndarray)}
    assert set(arrays) == {"phi_norms", "log_factorials", "exponents", "modes",
                           "log_pairing", "phi_t", "psi_t"}
    for name, value in arrays.items():
        assert not value.flags.writeable, name
        with pytest.raises(ValueError):
            value[0] = 0
    np.testing.assert_array_equal(disc.exponents, 2.0 * np.arange(order))
    np.testing.assert_array_equal(disc.modes, np.arange(order))
    np.testing.assert_array_equal(disc.log_pairing, np.log(system.pairing[:order]))
    # views with the snapshot's own layout: a contiguous copy would round the products differently
    for view, family in ((disc.phi_t, system.phi), (disc.psi_t, system.psi)):
        assert np.shares_memory(view, family)
        assert view.shape == (order, system.dim)
        assert view.strides == family[:, :order].T.strides
        np.testing.assert_array_equal(view, family[:, :order].T)


def test_a_memo_hit_checks_the_kernel_no_more(monkeypatch):
    system = _copied(_demo_systems()[0])
    eps = _eps("linear", 1.0, system.size)
    calls = []
    check = bicoherent._refuse_kernel
    monkeypatch.setattr(bicoherent, "_refuse_kernel", lambda p: (calls.append(p.size), check(p)))
    coherent_pair(system, eps, 0.3, 12)
    assert calls == [12]
    coherent_grid(system, eps, [0.1, 0.2j], 12)
    filter_and_build(system, eps, 0.1, 12)
    convergence_for_system(system, eps, 12)
    # filter_and_build's tilde system is a new snapshot: one fit, so one check
    assert calls == [12, 12]
    coherent_pair(system, eps, 0.3, 5)
    assert calls == [12, 12, 5]
