"""Ladder operators, bicoherent states, convergence radii, and quantization.

Constructions live on a truncated biorthogonal system: lowering/raising
matrices factorizing the seed, z-labelled state pairs with their mutual
normalization, kernel-filtered (tilde) states, growth-fit convergence
radii, the closed-form radial measure for linear epsilon sequences, the
resolution-of-identity check, and the symbol quantization that recovers
the ladders.

The level is the system's pairing: 1 on a level-1 system, tilde_k on a
level-2 one, and each construction reads it from the system.  A kernel
mode is one with pairing 0, as ``build_model`` writes its kernel set at
the run's tolerance.

Series and states are always evaluated on an explicit truncation
``order``; tail bounds are reported, never hidden.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateError,
    DimensionError,
    DivergenceError,
    KernelError,
    MomentError,
    NumericalError,
    PairingError,
    ParameterError,
)
from .linalg import BiorthogonalSystem, EpsilonSequence, read_only

# Growth-fit grid over the allowed exponent range [0, 1/2].
ALPHA_GRID_POINTS = 33
ALPHAS = np.linspace(0.0, 0.5, ALPHA_GRID_POINTS)
ALPHAS.flags.writeable = False
# Floor for the fitted growth base r.
GROWTH_R_FLOOR = 1e-12
# Tail-estimation window for the radius limits.
RADIUS_TAIL_WINDOW = 8
# Relative growth across the window that declares divergence (-> infinity).
RADIUS_GROWTH_THRESHOLD = 0.02
# Consecutive-term ratio above which a truncated series is not trusted.
TAIL_RATIO_LIMIT = 0.9
# Double-precision unit roundoff, the floor of every reported tail bound.
_UNIT_ROUNDOFF = float(np.finfo(float).eps)
# Fewest Gauss-Laguerre nodes of a radial measure; a higher order takes ceil(order/2).
DEFAULT_QUADRATURE_NODES = 64
# Gauss-Laguerre rules kept by solve_moment_measure, one per node count.
LAGUERRE_RULES_KEPT = 8


# ---------------------------------------------------------------------------
# ladder pairs and the input gate of every construction


@dataclass(frozen=True)
class LadderPair:
    """Lowering/raising matrices over a biorthogonal system.

    ``a`` lowers (a phi_k ~ phi_{k-1}), ``b`` raises; ``b @ a`` acts
    diagonally with eigenvalues eps_n on every phi_n of the truncation.
    """

    a: np.ndarray
    b: np.ndarray


def build_ladders(system: BiorthogonalSystem, eps) -> LadderPair:
    """Ladders A phi_k = sqrt(eps_k * tk_k / tk_{k-1}) phi_{k-1}, B dually.

    tk is the system's pairing: 1 on a level-1 system, where A is
    sum_k sqrt(eps_k) |phi_{k-1}><psi_k|, and tilde_k on a level-2 one.
    The input gate runs at order = system size: kernel modes (pairing 0)
    are refused, so filter first.  B A phi_n = eps_n phi_n holds for
    every n of the truncation; A B loses only the top mode.
    """
    eps = _gate(system, eps, system.size)
    tk = system.pairing
    steps = eps.values[1 : system.size]
    psih = (system.psi * (1.0 / tk)).conj().T
    return LadderPair(
        a=system.phi @ np.diag(np.sqrt(steps * tk[1:] / tk[:-1]), 1) @ psih,
        b=system.phi @ np.diag(np.sqrt(steps * tk[:-1] / tk[1:]), -1) @ psih,
    )


def _gate(system: BiorthogonalSystem, eps, order: int) -> EpsilonSequence:
    """Every construction's input check on the first ``order`` modes, in turn:
    the order, no kernel mode, ``order`` eps values, eps increasing from 0."""
    _check_order(system, order)
    _refuse_kernel(system.pairing[:order])
    return EpsilonSequence.of(eps).require_length(order).require_increasing()


def _check_order(system: BiorthogonalSystem, order: int) -> None:
    if not 1 <= order <= system.size:
        raise DimensionError(f"order must lie in 1..{system.size} (system size), got {order}")


def _refuse_kernel(pairing: np.ndarray) -> None:
    """The gate's kernel guard: a mode with pairing 0 has no state."""
    dead = np.flatnonzero(pairing <= 0)
    if dead.size:
        raise KernelError(f"pairing constant at index {dead[0]} is not positive "
                          "(kernel mode); filter first")


# ---------------------------------------------------------------------------
# growth fits and convergence radii


def _fit_growth_from_norms(norms: np.ndarray, facts: np.ndarray):
    """Smallest alpha on the ALPHAS grid (then smallest r >= 1e-12) with
    norms[n] <= r^n (eps_n!)^alpha, for norms with norms[0] = 1 and ``facts``
    holding eps_0! .. eps_{n-1}!; an alpha whose r is within a relative 1e-12
    of the best (never above max(1, best)) counts as the best."""
    # (n - 1) x alphas: the minimal admissible r of each (n, alpha)
    roots = 1.0 / np.arange(1, norms.size, dtype=float)[:, None]
    bounds = (norms[1:, None] / facts[1:, None] ** ALPHAS) ** roots
    # fmax skips NaN bounds, as the scalar max(r, nan) does
    rs = np.fmax.reduce(bounds, axis=0, initial=GROWTH_R_FLOOR)
    threshold = max(1.0, float(rs.min())) * (1.0 + 1e-12)
    # the smallest r always passes, so argmax finds the first passing alpha
    best = int(np.argmax(rs <= threshold))
    return float(rs[best]), float(ALPHAS[best])


@dataclass(frozen=True)
class ConvergenceData:
    """Growth constants and the resulting convergence radius.

    rho = min(rho_phi, rho_psi, sqrt(rho_hat)); math.inf marks divergent
    tail limits (entire-plane convergence).
    """

    r_phi: float
    r_psi: float
    alpha_phi: float
    alpha_psi: float
    rho_phi: float
    rho_psi: float
    rho_hat: float
    rho: float

    def __post_init__(self):
        for name in ("r_phi", "r_psi"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("alpha_phi", "alpha_psi"):
            if not 0.0 <= getattr(self, name) <= 0.5:
                raise ParameterError(f"{name} must lie in [0, 1/2]")

    def to_jsonable(self) -> dict:
        return asdict(self)


def _tail_limit(seq: np.ndarray) -> float:
    """Last-window limit estimate: monotone growing tails report infinity."""
    seq = np.asarray(seq, dtype=float)
    if seq.size == 0:
        raise DimensionError("cannot estimate a limit from an empty sequence")
    window = seq[-min(RADIUS_TAIL_WINDOW, seq.size):]
    if window.size >= 2 and np.all(np.diff(window) > 0):
        first, last = window[0], window[-1]
        if first == 0.0 or last / first > 1.0 + RADIUS_GROWTH_THRESHOLD:
            return math.inf
    return float(window[-1])


def radius(r_phi, alpha_phi, r_psi, alpha_psi, eps) -> ConvergenceData:
    """Convergence data from growth constants and the epsilon tail.

    rho_phi = (1/r_phi) * lim_k eps_{k+1}^{1/2 - alpha_phi} (and dually),
    rho_hat = lim_k eps_k, each limit estimated from the truncated tail.
    """
    eps = EpsilonSequence.of(eps).require_increasing()
    tail = eps.values[1:]
    rho_phi = _tail_limit(tail ** (0.5 - alpha_phi)) / r_phi
    rho_psi = _tail_limit(tail ** (0.5 - alpha_psi)) / r_psi
    rho_hat = _tail_limit(eps.values)
    return ConvergenceData(
        r_phi=float(r_phi),
        r_psi=float(r_psi),
        alpha_phi=float(alpha_phi),
        alpha_psi=float(alpha_psi),
        rho_phi=rho_phi,
        rho_psi=rho_psi,
        rho_hat=rho_hat,
        rho=min(rho_phi, rho_psi, math.sqrt(rho_hat)),
    )


class _Disc(NamedTuple):
    """One fitted disc and every z-independent row its states read.

    A disc is kept in ``system.memo`` only after the input gate passed on
    the same read-only snapshot, and its key holds the order and the eps
    values, so a disc found there needs no check again.  Every array is
    read-only; the transposed families are views of the system's columns,
    not copies, since a matrix product rounds by its operands' layout.
    """

    convergence: ConvergenceData
    phi_norms: np.ndarray  # column norms of system.phi[:, :order]
    log_factorials: np.ndarray  # log eps_0! .. log eps_{order-1}!
    exponents: np.ndarray  # 2k: the power of |z| in weight k
    modes: np.ndarray  # k: the power of the unit phase z/|z| in coefficient k
    log_pairing: np.ndarray  # log p_k of the system's pairing
    phi_t: np.ndarray  # system.phi[:, :order].T
    psi_t: np.ndarray  # system.psi[:, :order].T


def convergence_for_system(system: BiorthogonalSystem, eps, order=None) -> ConvergenceData:
    """Radius for a concrete system, fitting growth on both families.

    The norm sequences are rescaled by their first entries before fitting:
    a constant prefactor never changes the convergence radius, and the
    strict n = 0 bound would otherwise reject families with ||phi_0|| > 1.
    The disc depends on z nowhere, so it is fitted once per (system, eps
    values, order), after the input gate, and kept in ``system.memo`` with
    the z-independent rows of its states; a disc found there runs no check
    again.  A refusal or a failed fit is never kept.
    """
    eps = EpsilonSequence.of(eps)
    order = system.size if order is None else int(order)
    return _disc(system, eps, order).convergence


def _disc(system: BiorthogonalSystem, eps: EpsilonSequence, order: int) -> _Disc:
    """The memoized disc of convergence_for_system; gates and fits on a miss."""
    key = ("disc", order, eps.key)
    disc = system.memo.get(key)
    if disc is None:
        _gate(system, eps, order)
        phi, psi = system.phi[:, :order], system.psi[:, :order]
        hphi = np.linalg.norm(phi, axis=0)
        hpsi = np.linalg.norm(psi, axis=0)
        facts = eps.factorials(order)
        r_phi, a_phi = _fit_growth_from_norms(hphi / hphi[0], facts)
        r_psi, a_psi = _fit_growth_from_norms(hpsi / hpsi[0], facts)
        conv = radius(r_phi, a_phi, r_psi, a_psi, eps)
        with np.errstate(divide="ignore"):  # an underflowed factorial is log 0 = -inf
            log_facts = np.log(facts)
        disc = system.memo[key] = _Disc(
            conv,
            read_only(hphi),
            read_only(log_facts),
            read_only(np.arange(0.0, 2.0 * order, 2.0)),
            read_only(np.arange(order)),
            read_only(np.log(system.pairing[:order])),
            phi.T,  # views of the read-only snapshot: read-only themselves
            psi.T,
        )
    return disc


# ---------------------------------------------------------------------------
# bicoherent states


@dataclass(frozen=True)
class BicoherentState:
    """A z-labelled pair of truncated series over a biorthogonal system.

    ``coefficients[k]`` multiplies both phi_k and psi_k; the shared
    normalization makes <phi(z), psi(z)> = 1 on the truncation.
    ``tail_bound`` is |z| times the last retained term magnitude, which is
    exactly the norm of A phi(z) - z phi(z) at truncation; ``converged``
    reports whether the consecutive term ratio stayed below 0.9.
    ``convergence`` is the disc z was checked against.
    """

    z: complex
    coefficients: np.ndarray
    vector_phi: np.ndarray
    vector_psi: np.ndarray
    normalization: float
    overlap: complex
    tail_bound: float
    converged: bool
    convergence: ConvergenceData


def _assemble_states(
    system: BiorthogonalSystem, zs: np.ndarray, absz: np.ndarray, order: int, disc: _Disc
) -> list[BicoherentState]:
    """One state per entry of ``zs`` from a single (z x k) coefficient matrix.

    The weights |z|^(2k) / eps_k! are taken in log space and normalized by
    log-sum-exp, so no power of |z| overflows on the way to N(|z|).  Every
    z-independent row, from the exponents to the transposed families, is
    the one the radius gate's disc was fitted with; ``absz`` is |zs|.

    A state's cost is mostly per-call dispatch, so the reductions call their
    ufuncs directly, one error-state block covers every real-valued row, and
    what is one number per z is a Python float: |z|, the sum and the last
    two of the tail terms, and from them the rounding floor, the tail bound
    and ``converged``.  Those take only +, *, / and comparisons, which round
    exactly as numpy's float64 ufuncs do, so their bits are the ones of the
    row expressions they replace.  Logs, exponentials and the sums stay
    numpy, whose vector loops need not round like ``math``.
    """
    absz_list = absz.tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        # log|z|^(2k) - log eps_k!; the k = 0 column is log 1 = 0, also at z = 0
        log_w = np.multiply.outer(np.log(absz), disc.exponents)
        log_w[:, 0] = 0.0
        log_w -= disc.log_factorials
        top = np.maximum.reduce(log_w, axis=1, keepdims=True)
        log_norm2 = top + np.log(np.add.reduce(np.exp(log_w - top), axis=1, keepdims=True))
        # |c_k| = N |z|^k / sqrt(eps_k! p_k); the phase is (z/|z|)^k
        magnitude = np.exp(0.5 * (log_w - log_norm2 - disc.log_pairing))
        # numpy divides by |z| through 1/|z|, which overflows for a subnormal
        # |z|: such a z is first scaled by 2^600, exactly.  Every other z is
        # scaled by 1, which rounds its signed zeros alike in any batch (|z|
        # times 1 is |z| itself).
        if min(absz_list, default=1.0) < 2.0 ** -600:
            lift = np.where(absz < 2.0 ** -600, 2.0 ** 600, 1.0)
            unit = (zs * lift) / (absz * lift)
            unit[absz == 0] = 1.0  # z = 0 is tiny too, and its phase is 1
        else:
            unit = (zs * 1.0) / absz
        terms = magnitude * disc.phi_norms
        totals = np.add.reduce(terms, axis=1).tolist()
        normalization = np.exp(-0.5 * log_norm2[:, 0])
    lasts = terms[:, -2:].tolist()
    coeff = magnitude * np.power.outer(unit, disc.modes)
    finite = np.isfinite(coeff)
    if not np.logical_and.reduce(finite, axis=None):
        bad = zs[np.argmin(np.logical_and.reduce(finite, axis=1))]
        raise DivergenceError(f"series coefficients are not finite at z = {bad:.6g}")
    vector_phi = coeff @ disc.phi_t
    vector_psi = coeff @ disc.psi_t
    overlap = np.einsum("ij,ij->i", vector_phi.conj(), vector_psi)
    conv = disc.convergence
    floor_scale = system.dim * _UNIT_ROUNDOFF
    states = []
    for z, a, total, last_two, c, vphi, vpsi, norm, ov in zip(
        zs.tolist(),
        absz_list,
        totals,
        lasts,
        coeff,
        vector_phi,
        vector_psi,
        normalization.tolist(),
        overlap.tolist(),
    ):
        # The analytic tail |z|*|c_{M-1}|*||phi_{M-1}|| can underflow far below
        # unit roundoff; a truncated series cannot certify residuals below the
        # arithmetic's resolution, so the reported bound is floored there.
        # The choice is np.maximum's: a NaN on either side is the bound.
        last = last_two[-1]
        floor = floor_scale * (1.0 + a) * total
        tail = a * last
        tail = tail if tail >= floor or tail != tail else floor
        # the last two terms' ratio; a single term, or a vanished one before
        # the last, passes (and is never divided by)
        prev = last_two[0] if order >= 2 else 0.0
        ok = prev <= 0 or last / prev <= TAIL_RATIO_LIMIT
        states.append(BicoherentState(z, c, vphi, vpsi, norm, ov, tail, ok, conv))
    return states


def _radius_gate(
    system: BiorthogonalSystem,
    eps: EpsilonSequence,
    zs: np.ndarray,
    absz: np.ndarray,
    order: int,
) -> _Disc:
    """One radius check for every z: refuse non-finite z and |z| >= rho.

    Calls convergence_for_system once, which fits the disc on the first
    call for this (system, eps, order) and reads it from ``system.memo``
    after; returns the memoized disc with its z-independent rows.  Both
    reads hash the sequence's own key, which is taken once per sequence.
    """
    # a non-finite z has a non-finite |z|, which the maximum propagates, so
    # only a non-finite maximum needs the test of every z
    largest = float(np.maximum.reduce(absz, initial=0.0))
    if not math.isfinite(largest) and not np.logical_and.reduce(np.isfinite(zs)):
        raise ParameterError("z must be finite")
    conv = convergence_for_system(system, eps, order)
    if math.isfinite(conv.rho) and largest >= conv.rho:
        raise DivergenceError(
            f"|z| = {largest:.6g} is outside the convergence disc of radius "
            f"{conv.rho:.6g}"
        )
    return _disc(system, eps, order)


def _states(system: BiorthogonalSystem, eps, zs, order: int) -> list[BicoherentState]:
    """Check order, take the radius gate once, assemble: the one path of every
    state.  The order is checked first, so a bad order is refused first."""
    _check_order(system, order)
    eps = EpsilonSequence.of(eps)
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    absz = np.abs(zs)
    return _assemble_states(system, zs, absz, order, _radius_gate(system, eps, zs, absz, order))


def coherent_pair(system: BiorthogonalSystem, eps, z: complex, order: int) -> BicoherentState:
    """State pair phi(z) = N(|z|) sum z^k / sqrt(eps_k! tk_k) phi_k (and psi).

    tk is the system's pairing: 1 at level 1, tilde_k at level 2.  N is
    computed on the same truncation, so <phi(z), psi(z)> = 1 up to the
    system's pairing defect.  Non-finite z, z outside the estimated
    convergence disc, and kernel modes (pairing 0) within ``order`` are
    refused; systems with kernel modes belong in filter_and_build.
    """
    return _states(system, eps, [z], order)[0]


def coherent_grid(system: BiorthogonalSystem, eps, zs, order: int) -> list[BicoherentState]:
    """States for every z of ``zs``, in order: coherent_pair for each.

    The convergence disc, fitted once per (system, eps, order) and reused
    by every later call on the same system, is checked against the largest
    |z|; the states come from one coefficient matrix and two matrix
    products.
    """
    return _states(system, eps, zs, order)


def filter_system(system2: BiorthogonalSystem, eps, convention: str = "original"):
    """Drop kernel columns and relabel: returns (tilde system, step sequence, survivors).

    Kernel columns are those with pairing 0.  The step sequence delta
    satisfies delta_1 * ... * delta_l = tilde-eps_l!, the generalized
    factorial the tilde states use.  Convention "original" keeps factorials
    along the original sequence (delta_l is the product of eps over the gap
    up to survivor l); "relabeled" re-applies the factorial to the surviving
    eigenvalues as a fresh sequence (delta_l is survivor l's own eps).

    The result is kept in ``system2.memo`` per (convention, eps values), so
    a repeated call returns the same objects, and the tilde system's own
    memo keeps its disc; a refused filter is never kept.
    """
    eps = EpsilonSequence.of(eps)
    if convention not in ("original", "relabeled"):
        raise ParameterError(
            f"unknown factorial convention {convention!r}; use 'original' or 'relabeled'"
        )
    eps.require_length(system2.size)
    key = ("filter", convention, eps.key)
    found = system2.memo.get(key)
    if found is None:
        found = system2.memo[key] = _filter(system2, eps, convention)
    return found


def _filter(system2: BiorthogonalSystem, eps: EpsilonSequence, convention: str):
    """The kernel filter of filter_system, for checked arguments."""
    survivors = np.flatnonzero(system2.pairing > 0).tolist()
    if not survivors:
        raise DegenerateError("every index is a kernel index; nothing survives filtering")
    tilde = system2.columns(survivors)
    defect = tilde.pairing_defect()
    scale = max(1.0, float(np.max(tilde.pairing)))
    if defect > 1e-8 * scale:
        raise PairingError(
            f"filtered family is not biorthogonal: defect {defect:.3e}"
        )
    # each step directly: a ratio of two factorials would overflow to inf/inf
    delta = np.zeros(len(survivors))
    if convention == "original":
        delta[1:] = [np.prod(eps.values[a + 1 : b + 1]) for a, b in zip(survivors, survivors[1:])]
    else:
        delta[1:] = eps.values[survivors[1:]]
    return tilde, EpsilonSequence(delta), tuple(survivors)


def filter_and_build(
    system2: BiorthogonalSystem,
    eps,
    z: complex,
    order: int,
    convention: str = "original",
) -> BicoherentState:
    """Tilde states over the surviving (non-kernel) modes.

    Biorthogonality of the filtered family is verified before assembly.
    ``order`` counts surviving modes.
    """
    tilde, delta, _ = filter_system(system2, eps, convention)
    return _states(tilde, delta, [z], order)[0]


# ---------------------------------------------------------------------------
# radial measures and the resolution of the identity


@dataclass(frozen=True)
class RadialMeasure:
    """Radial measure dlambda(r) = r exp(-r^2/s) / (pi s) dr by its quadrature.

    ``nodes``/``weights`` integrate radial functions directly:
    integral f dlambda ~= sum weights * f(nodes).
    """

    s: float
    nodes: np.ndarray
    weights: np.ndarray

    def moments(self, count: int) -> np.ndarray:
        """Quadrature values of the radial moments of order 0, 2, ..., 2(count - 1)."""
        # r^(2k) as ``nodes ** (2 * k)`` rounds it: one exponent per row (numpy's power
        # of two arrays takes a SIMD path that rounds differently), r^2 as a square
        with np.errstate(over="ignore", invalid="ignore"):
            powers = self.nodes ** np.arange(0.0, 2.0 * count, 2.0)[:, None]
            powers[1:2] = np.square(self.nodes)
            table = (self.weights * powers).sum(axis=1)
            if not np.all(np.isfinite(table)):
                k = int(np.argmin(np.isfinite(table)))
                raise NumericalError(f"radial moment of order {2 * k} overflows")
        return table

    def moment_defects(self, eps, order: int) -> np.ndarray:
        """Relative defects |quadrature - eps_k!/(2 pi)| / (eps_k!/(2 pi)); eps increasing."""
        exact = EpsilonSequence.of(eps).require_increasing().factorials(order) / (2.0 * math.pi)
        return np.abs(self.moments(order) - exact) / exact


def solve_moment_measure(eps, order: int) -> RadialMeasure:
    """Radial measure with moments eps_k!/(2 pi), for linear eps_k = s*k only.

    For s > 0 the solution is dlambda(r) = r exp(-r^2/s) / (pi s) dr on
    [0, inf); the quadrature is Gauss-Laguerre in t = r^2/s.  An n-node
    rule is exact for the moments up to k = 2n - 1, so n is the larger of
    DEFAULT_QUADRATURE_NODES and ceil(order/2): every moment k < order is
    exact.  Any other sequence has no closed form here and raises, as does
    an order whose rule leaves the float range; callers fall back to the
    sum-form identity.  The Gauss-Laguerre rule is built once per node
    count and kept.
    """
    eps = EpsilonSequence.of(eps).require_length(max(2, order))
    s = float(eps.values[1])
    if s <= 0:
        raise MomentError("eps_1 must be positive")
    model = s * np.arange(len(eps))
    defect = float(np.max(np.abs(eps.values - model)))
    if defect > 1e-12 * max(1.0, float(eps.values[-1])):
        raise MomentError(
            "measure not available: the closed-form radial measure exists "
            "only for the linear family eps_k = s*k"
        )
    nodes = max(DEFAULT_QUADRATURE_NODES, (order + 1) // 2)
    t, w = _laguerre_rule(nodes)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
        raise MomentError(
            f"measure not available at order {order}: its {nodes}-node Gauss-Laguerre "
            "rule leaves the float range"
        )
    # nodes past the float range are inf, and the moment table refuses them
    with np.errstate(over="ignore"):
        return RadialMeasure(s=s, nodes=np.sqrt(s * t), weights=w / (2.0 * math.pi))


@functools.lru_cache(maxsize=LAGUERRE_RULES_KEPT)
def _laguerre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Laguerre nodes and weights, built once per node count;
    past the float range (from about 187 nodes) a weight is NaN, without a warning."""
    with np.errstate(all="ignore"):
        t, w = np.polynomial.laguerre.laggauss(count)
    return read_only(t), read_only(w)


@dataclass(frozen=True)
class ResolutionResult:
    """Outcome of the resolution-of-identity test for one (f, g) pair.

    ``lhs`` is the quadrature value of the coherent-state integral, ``rhs``
    the direct inner product <f, g>, and ``sum_form`` the collapsed sum
    sum_k <f, phi_k><psi_k, g>/pairing_k the integral reduces to exactly.
    """

    lhs: complex
    rhs: complex
    residual: float
    sum_form: complex
    sum_residual: float


def resolution_check(
    system: BiorthogonalSystem,
    eps,
    measure: RadialMeasure | None,
    f,
    g,
    order: int,
) -> ResolutionResult:
    """Evaluate integral dnu <f, phi(z)><psi(z), g> against <f, g>.

    The angular integral is done analytically (only equal powers survive),
    leaving radial moments evaluated by the measure's quadrature; moment
    defects therefore propagate honestly into the residual.  Without a
    measure the integral is taken as its sum form.  After the input gate's
    refusals (a bad order, a kernel mode, too few or non-increasing eps), f
    and g of the wrong size are a DimensionError, non-finite a ParameterError.

    The pairing, moments and factorials are read as Python floats, and the
    families through row views of their transposes, which are views of the
    same columns.  The one float operation, eps_k! * p_k, rounds as numpy's
    float64 product does; every operation with a complex operand (the inner
    products, their product and the accumulation in mode order) stays a
    numpy scalar one, so every field keeps its bits.
    """
    eps = _gate(system, eps, order)
    f = np.asarray(f, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if f.size != system.dim or g.size != system.dim:
        raise DimensionError("f and g must live in the system's ambient space")
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise ParameterError("f and g must be finite")
    facts = eps.factorials(order).tolist()
    moments = None if measure is None else measure.moments(order).tolist()
    pairing = system.pairing[:order].tolist()
    phi_t, psi_t = system.phi.T, system.psi.T
    lhs = sum_form = 0.0 + 0.0j
    # accumulated in mode order: the residual is rounding noise that reports record
    for k in range(order):
        fg = np.vdot(f, phi_t[k]) * np.vdot(psi_t[k], g)
        pk = pairing[k]
        sum_form += fg / pk
        if moments is not None:
            lhs += fg * 2.0 * math.pi * moments[k] / (facts[k] * pk)
    lhs = sum_form if moments is None else lhs
    rhs = complex(np.vdot(f, g))
    return ResolutionResult(
        lhs=complex(lhs),
        rhs=rhs,
        residual=float(abs(lhs - rhs)),
        sum_form=complex(sum_form),
        sum_residual=float(abs(lhs - sum_form)),
    )


def quantize(
    symbol: str,
    system: BiorthogonalSystem,
    eps,
    measure: RadialMeasure,
    order: int,
) -> np.ndarray:
    """Operator of the symbol z (or zbar) against the coherent-state family.

    Op = integral dnu N^{-2} symbol(z) |phi(z)><psi(z)|; the angular
    integral leaves one off-diagonal band whose radial moments are taken
    from the measure, so with exact moments the result is the lowering
    ladder (symbol z) or the raising ladder (symbol zbar); at order 1 the
    band is empty and the operator is 0, the 1-mode ladder.  An unknown
    symbol is a ParameterError, then come the input gate's refusals: a bad
    order, a kernel mode, too few or non-increasing eps.
    """
    if symbol not in ("z", "zbar"):
        raise ParameterError(f"unsupported symbol {symbol!r}; use 'z' or 'zbar'")
    eps = _gate(system, eps, order)
    # one root per mode: the product of two neighbouring factorials can
    # overflow where each factorial, and the band, is finite
    root = np.sqrt(eps.factorials(order) * system.pairing[:order])
    coeff = 2.0 * math.pi * measure.moments(order)[1:] / (root[:-1] * root[1:])
    # zero-padded to the full system, so the products run over every mode
    band = np.diag(np.pad(coeff, (0, system.size - order)), 1 if symbol == "z" else -1)
    return system.phi @ band @ system.psi.conj().T
