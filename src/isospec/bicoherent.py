"""Ladder operators, bicoherent states, convergence radii, and quantization.

Constructions live on a truncated biorthogonal system: lowering/raising
matrices factorizing the seed, z-labelled state pairs with their mutual
normalization, kernel-filtered (tilde) states, growth-fit convergence
radii, the closed-form radial measure for linear epsilon sequences, the
resolution-of-identity check, and the symbol quantization that recovers
the ladders.

Series and states are always evaluated on an explicit truncation
``order``; tail bounds are reported, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateError,
    DimensionError,
    DivergenceError,
    GrowthError,
    KernelError,
    MomentError,
    PairingError,
    ParameterError,
)
from .linalg import (
    KERNEL_TOL,
    BiorthogonalSystem,
    EpsilonSequence,
    opnorm,
)

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
# Default Gauss-type quadrature size for radial measures.
DEFAULT_QUADRATURE_NODES = 64


# ---------------------------------------------------------------------------
# ladder pairs


@dataclass(frozen=True)
class LadderPair:
    """Lowering/raising matrices over a biorthogonal system.

    ``a`` lowers (a phi_k ~ phi_{k-1}), ``b`` raises; ``b @ a`` acts
    diagonally with eigenvalues eps_n on every phi_n of the truncation.
    """

    a: np.ndarray
    b: np.ndarray
    level: int
    system: BiorthogonalSystem
    eps: EpsilonSequence

    def factorization_defect(self) -> float:
        """max_n ||B A phi_n - eps_n phi_n|| / ||phi_n|| over the truncation."""
        ba = self.b @ self.a
        defect = 0.0
        for n in range(self.system.size):
            col = self.system.phi[:, n]
            r = np.linalg.norm(ba @ col - self.eps.values[n] * col)
            defect = max(defect, r / np.linalg.norm(col))
        return float(defect)


def build_ladders(system: BiorthogonalSystem, eps: EpsilonSequence) -> LadderPair:
    """Level-1 ladders: A = sum_k sqrt(eps_k) |phi_{k-1}><psi_k| and its mate.

    Requires unit pairing (a level-1 system) and eps strictly increasing
    from 0.  B A phi_n = eps_n phi_n holds for every n of the truncation;
    A B loses only the top mode.
    """
    eps = EpsilonSequence.of(eps)
    defect = float(np.max(np.abs(system.pairing - 1.0)))
    if defect > 1e-8:
        raise PairingError(
            f"pairing deviates from 1 by {defect:.3e}; level-2 systems need "
            "the level-2 ladder construction"
        )
    if not eps.strictly_increasing:
        raise ParameterError("epsilon sequence must increase strictly from 0")
    return _ladder_pair(system, eps, np.ones(system.size), level=1)


def build_ladders_level2(
    system2: BiorthogonalSystem, eps, tilde_k=None
) -> LadderPair:
    """Level-2 ladders with pairing-weighted steps.

    A phi_k = sqrt(eps_k * tk_k / tk_{k-1}) phi_{k-1} and dually for B; the
    dyads carry 1/tk because <psi_k, phi_k> = tk_k rather than 1.  Vanishing
    pairing constants are refused: filter the kernel first.
    """
    eps = EpsilonSequence.of(eps)
    tk = system2.pairing if tilde_k is None else np.asarray(tilde_k, dtype=float)
    m = system2.size
    if tk.shape != (m,):
        raise DimensionError("one pairing constant per system column required")
    if np.any(tk <= KERNEL_TOL):
        bad = int(np.argmin(tk))
        raise KernelError(
            f"pairing constant at index {bad} is not positive; kernel modes "
            "must be filtered out before building level-2 ladders"
        )
    return _ladder_pair(system2, eps, tk, level=2)


def _ladder_pair(system: BiorthogonalSystem, eps: EpsilonSequence, tk, level: int) -> LadderPair:
    """A phi_k = sqrt(eps_k * tk_k / tk_{k-1}) phi_{k-1}, B dually, on the
    dyads |phi_k><psi_k| / tk_k; the level-1 ladders are the case tk = 1."""
    m = system.size
    if len(eps) < m:
        raise DimensionError(f"need {m} epsilon values, got {len(eps)}")
    steps = eps.values[1:m]
    psih = (system.psi * (1.0 / tk)).conj().T
    return LadderPair(
        a=system.phi @ np.diag(np.sqrt(steps * tk[1:] / tk[:-1]), 1) @ psih,
        b=system.phi @ np.diag(np.sqrt(steps * tk[:-1] / tk[1:]), -1) @ psih,
        level=level,
        system=system,
        eps=eps,
    )


# ---------------------------------------------------------------------------
# growth fits and convergence radii


def _family_norms(family) -> np.ndarray:
    arr = np.asarray(family, dtype=complex)
    if arr.ndim == 2:
        norms = np.linalg.norm(arr, axis=0)
    elif arr.ndim == 1 and arr.size > 0:
        norms = np.array([np.linalg.norm(arr)])
    else:
        raise DimensionError("vector family must be a 2-D column matrix")
    if norms.size == 0:
        raise DimensionError("vector family must be nonempty")
    return norms.astype(float)


def _fit_growth_from_norms(norms: np.ndarray, facts: np.ndarray):
    """(r, alpha) for one norm sequence, ``facts`` holding eps_0! .. eps_{n-1}!."""
    if norms[0] > 1.0 + 1e-12:
        raise GrowthError(
            f"||phi_0|| = {norms[0]:.6g} > 1: the bound r^n (eps_n!)^alpha "
            "equals 1 at n = 0, so no admissible (r, alpha) exists"
        )
    # (n - 1) x alphas: the minimal admissible r of each (n, alpha)
    roots = 1.0 / np.arange(1, norms.size, dtype=float)[:, None]
    bounds = (norms[1:, None] / facts[1:, None] ** ALPHAS) ** roots
    # fmax skips NaN bounds, as the scalar max(r, nan) does
    rs = np.fmax.reduce(bounds, axis=0, initial=GROWTH_R_FLOOR)
    threshold = max(1.0, float(rs.min())) * (1.0 + 1e-12)
    # the smallest r always passes, so argmax finds the first passing alpha
    best = int(np.argmax(rs <= threshold))
    return float(rs[best]), float(ALPHAS[best])


def fit_norm_growth(family, eps) -> tuple[float, float]:
    """Smallest alpha in [0, 1/2] (then smallest r) with ||phi_n|| <= r^n (eps_n!)^alpha.

    Deterministic grid search: alpha runs over linspace(0, 1/2, 33); for
    each alpha the minimal admissible r is the max over n >= 1 of
    (||phi_n|| / (eps_n!)^alpha)^{1/n}, floored at 1e-12.  The chosen alpha
    is the smallest whose r is within a relative 1e-12 of the best
    achievable (never above max(1, best)).
    """
    eps = EpsilonSequence.of(eps)
    norms = _family_norms(family)
    return _fit_growth_from_norms(norms, eps.factorials(norms.size))


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
        return {
            "r_phi": self.r_phi,
            "r_psi": self.r_psi,
            "alpha_phi": self.alpha_phi,
            "alpha_psi": self.alpha_psi,
            "rho_phi": self.rho_phi,
            "rho_psi": self.rho_psi,
            "rho_hat": self.rho_hat,
            "rho": self.rho,
        }


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
    eps = EpsilonSequence.of(eps)
    if not eps.strictly_increasing:
        raise ParameterError("epsilon sequence must increase strictly from 0")
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


def convergence_for_system(
    system: BiorthogonalSystem, eps, order=None, *, phi_norms=None
) -> ConvergenceData:
    """Radius for a concrete system, fitting growth on both families.

    The norm sequences are rescaled by their first entries before fitting:
    a constant prefactor never changes the convergence radius, and the
    strict n = 0 bound would otherwise reject families with ||phi_0|| > 1.
    ``phi_norms``, when given, are the column norms of
    ``system.phi[:, :order]``, so a caller that has them is not made to
    compute them again.
    """
    eps = EpsilonSequence.of(eps)
    order = system.size if order is None else int(order)
    hphi = _family_norms(system.phi[:, :order]) if phi_norms is None else phi_norms
    hpsi = _family_norms(system.psi[:, :order])
    facts = eps.factorials(hphi.size)
    r_phi, a_phi = _fit_growth_from_norms(hphi / hphi[0], facts)
    r_psi, a_psi = _fit_growth_from_norms(hpsi / hpsi[0], facts)
    return radius(r_phi, a_phi, r_psi, a_psi, eps)


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
    order: int
    level: int
    coefficients: np.ndarray
    vector_phi: np.ndarray
    vector_psi: np.ndarray
    normalization: float
    overlap: complex
    tail_bound: float
    converged: bool
    convergence: ConvergenceData

    @property
    def overlap_defect(self) -> float:
        return abs(self.overlap - 1.0)


def _assemble_states(
    system: BiorthogonalSystem,
    eps: EpsilonSequence,
    zs: np.ndarray,
    order: int,
    level: int,
    conv: ConvergenceData,
    phi_norms: np.ndarray,
) -> list[BicoherentState]:
    """One state per entry of ``zs`` from a single (z x k) coefficient matrix.

    The weights |z|^(2k) / eps_k! are taken in log space and normalized by
    log-sum-exp, so no power of |z| overflows on the way to N(|z|).
    ``phi_norms`` are the column norms of ``system.phi[:, :order]``, as the
    radius gate measured them.
    """
    if not 1 <= order <= system.size:
        raise DimensionError(
            f"order must lie in 1..{system.size} (system size), got {order}"
        )
    pairing = system.pairing[:order]
    if np.any(pairing <= 0):
        bad = int(np.argmin(pairing))
        raise KernelError(f"pairing constant at index {bad} is not positive")
    phi = system.phi[:, :order]
    absz = np.abs(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log|z|^(2k) - log eps_k!; the k = 0 column is log 1 = 0, also at z = 0
        log_w = np.multiply.outer(np.log(absz), np.arange(0.0, 2.0 * order, 2.0))
        log_w[:, 0] = 0.0
        log_w -= np.log(eps.factorials(order))
        top = log_w.max(axis=1, keepdims=True)
        log_norm2 = top + np.log(np.exp(log_w - top).sum(axis=1, keepdims=True))
        # |c_k| = N |z|^k / sqrt(eps_k! p_k); the phase is (z/|z|)^k
        magnitude = np.exp(0.5 * (log_w - log_norm2 - np.log(pairing)))
        unit = np.where(absz > 0, zs / absz, 1.0)
    coeff = magnitude * np.power.outer(unit, np.arange(order))
    if not np.isfinite(coeff).all():
        bad = zs[np.argmin(np.isfinite(coeff).all(axis=1))]
        raise DivergenceError(f"series coefficients are not finite at z = {bad:.6g}")
    vector_phi = coeff @ phi.T
    vector_psi = coeff @ system.psi[:, :order].T
    overlap = np.einsum("ij,ij->i", vector_phi.conj(), vector_psi)
    terms = magnitude * phi_norms
    # The analytic tail |z|*|c_{M-1}|*||phi_{M-1}|| can underflow far below
    # unit roundoff; a truncated series cannot certify residuals below the
    # arithmetic's resolution, so the reported bound is floored there.
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
            z=z,
            order=order,
            level=level,
            coefficients=c,
            vector_phi=vphi,
            vector_psi=vpsi,
            normalization=norm,
            overlap=ov,
            tail_bound=tail,
            converged=ok,
            convergence=conv,
        )
        for z, c, vphi, vpsi, norm, ov, tail, ok in zip(
            zs.tolist(),
            coeff,
            vector_phi,
            vector_psi,
            normalization.tolist(),
            overlap.tolist(),
            tail_bound.tolist(),
            converged.tolist(),
        )
    ]


def _radius_gate(
    system: BiorthogonalSystem, eps: EpsilonSequence, zs: np.ndarray, order: int
) -> tuple[ConvergenceData, np.ndarray]:
    """One growth fit for every z: refuse non-finite z and |z| >= rho.

    Returns the disc and the phi column norms it was fitted on.
    """
    if not np.isfinite(zs).all():
        raise ParameterError("z must be finite")
    phi_norms = _family_norms(system.phi[:, :order])
    conv = convergence_for_system(system, eps, order, phi_norms=phi_norms)
    largest = float(np.abs(zs).max(initial=0.0))
    if math.isfinite(conv.rho) and largest >= conv.rho:
        raise DivergenceError(
            f"|z| = {largest:.6g} is outside the convergence disc of radius "
            f"{conv.rho:.6g}"
        )
    return conv, phi_norms


def _states(
    system: BiorthogonalSystem, eps, zs, order: int, level: int
) -> list[BicoherentState]:
    """Gate once, then assemble: the one path every state takes."""
    eps = EpsilonSequence.of(eps)
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    conv, phi_norms = _radius_gate(system, eps, zs, order)
    return _assemble_states(system, eps, zs, order, level, conv, phi_norms)


def coherent_pair(system: BiorthogonalSystem, eps, z: complex, order: int) -> BicoherentState:
    """Level-1 state pair phi(z) = N(|z|) sum z^k / sqrt(eps_k!) phi_k (and psi).

    N is computed on the same truncation, so <phi(z), psi(z)> = 1 up to the
    system's pairing defect.  Non-finite z, and z outside the estimated
    convergence disc, are refused.
    """
    return _states(system, eps, [z], order, level=1)[0]


def coherent_grid(system: BiorthogonalSystem, eps, zs, order: int) -> list[BicoherentState]:
    """Level-1 states for every z of ``zs``, in order: coherent_pair for each.

    The convergence disc is fitted once and checked against the largest
    |z|; the states come from one coefficient matrix and two matrix
    products.
    """
    return _states(system, eps, zs, order, level=1)


def coherent_pair_level2(
    system2: BiorthogonalSystem, eps, z: complex, order: int, tilde_k=None
) -> BicoherentState:
    """Level-2 pair with coefficients z^k / sqrt(eps_k! * tk_k).

    All pairing constants up to ``order`` must be positive; systems that
    still contain kernel modes belong in filter_and_build instead.
    """
    if tilde_k is not None:
        system2 = BiorthogonalSystem(
            phi=system2.phi,
            psi=system2.psi,
            values=system2.values,
            pairing=np.asarray(tilde_k, dtype=float),
        )
    pairing = system2.pairing[: min(order, system2.size)]
    if np.any(pairing <= KERNEL_TOL):
        bad = int(np.argmin(pairing))
        raise KernelError(
            f"pairing constant at index {bad} vanishes (kernel mode); use "
            "filter_and_build to drop kernel indices first"
        )
    return _states(system2, eps, [z], order, level=2)[0]


def filter_system(system2: BiorthogonalSystem, eps, convention: str = "original"):
    """Drop kernel columns and relabel: returns (tilde system, step sequence, survivors).

    The step sequence delta satisfies delta_1 * ... * delta_l = tilde-eps_l!,
    the generalized factorial the tilde states use.  Convention "original"
    keeps factorials along the original sequence up to the survivor's
    original index; "relabeled" re-applies the factorial to the surviving
    eigenvalues as a fresh sequence.
    """
    eps = EpsilonSequence.of(eps)
    if convention not in ("original", "relabeled"):
        raise ParameterError(
            f"unknown factorial convention {convention!r}; use 'original' or 'relabeled'"
        )
    if len(eps) < system2.size:
        raise DimensionError(
            f"need {system2.size} epsilon values, got {len(eps)}"
        )
    survivors = [n for n in range(system2.size) if system2.pairing[n] > KERNEL_TOL]
    if not survivors:
        raise DegenerateError("every index is a kernel index; nothing survives filtering")
    tilde = BiorthogonalSystem(
        phi=system2.phi[:, survivors],
        psi=system2.psi[:, survivors],
        values=system2.values[survivors],
        pairing=system2.pairing[survivors],
    )
    defect = tilde.pairing_defect()
    scale = max(1.0, float(np.max(tilde.pairing)))
    if defect > 1e-8 * scale:
        raise PairingError(
            f"filtered family is not biorthogonal: defect {defect:.3e}"
        )
    if convention == "original":
        targets = [eps.factorial(n) for n in survivors]
    else:
        vals = eps.values[survivors]
        targets = list(np.cumprod(np.concatenate(([1.0], vals[1:]))))
    delta = np.zeros(len(survivors))
    for l in range(1, len(survivors)):
        delta[l] = targets[l] / targets[l - 1]
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
    if order > tilde.size:
        raise DimensionError(
            f"order {order} exceeds the {tilde.size} surviving modes"
        )
    return _states(tilde, delta, [z], order, level=2)[0]


# ---------------------------------------------------------------------------
# radial measures and the resolution of the identity


@dataclass(frozen=True)
class RadialMeasure:
    """Gamma-type radial measure c * r^a * exp(-b r^p) dr with quadrature.

    ``nodes``/``weights`` integrate radial functions directly:
    integral f dlambda ~= sum weights * f(nodes).
    """

    family: str
    c: float
    a: float
    b: float
    p: float
    s: float
    nodes: np.ndarray
    weights: np.ndarray

    def moment(self, k: int) -> float:
        """Quadrature value of the 2k-th radial moment."""
        return float(np.sum(self.weights * self.nodes ** (2 * k)))

    def moment_defects(self, eps, order: int) -> np.ndarray:
        """Relative defects |quadrature - eps_k!/(2 pi)| / (eps_k!/(2 pi))."""
        eps = EpsilonSequence.of(eps)
        facts = eps.factorials(order)
        out = np.empty(order)
        for k in range(order):
            exact = facts[k] / (2.0 * math.pi)
            out[k] = abs(self.moment(k) - exact) / exact
        return out

    def scaled(self, factor: float) -> "RadialMeasure":
        """Same nodes, weights multiplied by ``factor`` (linearity checks)."""
        return replace(self, c=self.c * factor, weights=self.weights * factor)


def solve_moment_measure(
    eps, order: int, nodes: int = DEFAULT_QUADRATURE_NODES
) -> RadialMeasure:
    """Radial measure with moments eps_k!/(2 pi), for linear eps_k = s*k only.

    For s > 0 the solution is dlambda(r) = r exp(-r^2/s) / (pi s) dr on
    [0, inf); the quadrature is Gauss-Laguerre in t = r^2/s, exact for all
    moments up to k = 2*nodes - 1.  Any other sequence has no closed form
    here and raises; callers fall back to the sum-form identity.
    """
    eps = EpsilonSequence.of(eps)
    if len(eps) < max(2, order):
        raise DimensionError(f"need at least {max(2, order)} epsilon values")
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
    if nodes < 2:
        raise ParameterError("need at least 2 quadrature nodes")
    t, w = np.polynomial.laguerre.laggauss(nodes)
    return RadialMeasure(
        family="gamma",
        c=1.0 / (math.pi * s),
        a=1.0,
        b=1.0 / s,
        p=2.0,
        s=s,
        nodes=np.sqrt(s * t),
        weights=w / (2.0 * math.pi),
    )


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
    measure: RadialMeasure,
    f,
    g,
    order: int,
) -> ResolutionResult:
    """Evaluate integral dnu <f, phi(z)><psi(z), g> against <f, g>.

    The angular integral is done analytically (only equal powers survive),
    leaving radial moments evaluated by the measure's quadrature; moment
    defects therefore propagate honestly into the residual.
    """
    eps = EpsilonSequence.of(eps)
    if not 1 <= order <= system.size:
        raise DimensionError(f"order must lie in 1..{system.size}, got {order}")
    f = np.asarray(f, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if f.size != system.dim or g.size != system.dim:
        raise DimensionError("f and g must live in the system's ambient space")
    facts = eps.factorials(order)
    lhs = 0.0 + 0.0j
    sum_form = 0.0 + 0.0j
    for k in range(order):
        fk = np.vdot(f, system.phi[:, k])
        gk = np.vdot(system.psi[:, k], g)
        pk = system.pairing[k]
        sum_form += fk * gk / pk
        lhs += fk * gk * 2.0 * math.pi * measure.moment(k) / (facts[k] * pk)
    rhs = complex(np.vdot(f, g))
    return ResolutionResult(
        lhs=complex(lhs),
        rhs=rhs,
        residual=abs(lhs - rhs),
        sum_form=complex(sum_form),
        sum_residual=abs(lhs - sum_form),
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
    ladder (symbol z) or the raising ladder (symbol zbar).
    """
    eps = EpsilonSequence.of(eps)
    if symbol not in ("z", "zbar"):
        raise ParameterError(f"unsupported symbol {symbol!r}; use 'z' or 'zbar'")
    if not 2 <= order <= system.size:
        raise DimensionError(f"order must lie in 2..{system.size}, got {order}")
    facts = eps.factorials(order)
    pairing = system.pairing[:order]
    band = np.zeros((system.size, system.size))
    for k in range(order - 1):
        coeff = (
            2.0
            * math.pi
            * measure.moment(k + 1)
            / math.sqrt(facts[k] * facts[k + 1] * pairing[k] * pairing[k + 1])
        )
        if symbol == "z":
            band[k, k + 1] = coeff
        else:
            band[k + 1, k] = coeff
    return system.phi @ band @ system.psi.conj().T
