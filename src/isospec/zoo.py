"""Worked-example fixtures, pseudo-fermion pairs, and ladder-pair verification.

Every fixture packages a concrete (Theta1, X) pair together with the
closed-form values its construction is known to produce, so tests can
assert against stored expectations instead of re-deriving them.  All mode
indices here are 0-based: e.g. the 3x3 example loses eigenvector index 2,
and the block example loses the even positions (the first vector of each
2x2 block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateError,
    DimensionError,
    NumericalError,
    ParameterError,
    SeedVectorError,
)
from .intertwining import (
    IntertwiningModel,
    RelationReport,
    build_model,
)
from .linalg import (
    Decision,
    EpsilonSequence,
    Eigensystem,
    as_matrix,
    column_defects,
    opnorm,
)

FIXTURE_IDS = ("ex2x2", "ex3x3", "shift", "block", "coherent_demo")
# Largest Theta1 dimension a fixture is built at: its dense matrices grow as the square
MAX_FIXTURE_MODES = 2048

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Fixture:
    """A named example: operators, exact eigendata, and its documented values.

    ``eigensystem`` is None where ``build_model`` diagonalizes the seed.
    ``model`` is built at the default tolerances on first use; eigendata with
    a repeated spectrum make it raise the SpectrumError that names the
    closest pair, and the operators and ``expected`` closed forms remain.
    """

    id: str
    theta1: np.ndarray
    x: np.ndarray
    eigensystem: Eigensystem | None = None
    expected: dict = field(default_factory=dict)

    @cached_property
    def model(self) -> IntertwiningModel:
        return build_model(self.theta1, self.x, eigensystem=self.eigensystem)


def fixture_2x2(x11: complex, x12: complex) -> Fixture:
    """2x2 example: Theta1 = [[1, 1], [0, 2]], X = [[x11, x12], [-conj(x12), conj(x11)]].

    X X-adjoint = X-adjoint X = xt * identity with xt = |x11|^2 + |x12|^2,
    so X is invertible (det = xt) and commutes-compatible with every seed:
    the regime is always InvertibleCommuting.  X^{-1} = X-adjoint / xt, so
    the similarity eigenvectors are the transported ones divided by xt.
    """
    x11 = complex(x11)
    x12 = complex(x12)
    xt = abs(x11) ** 2 + abs(x12) ** 2
    if xt == 0.0:
        raise DegenerateError("(x11, x12) = (0, 0) gives X = 0; no invertible intertwiner")
    if xt == math.inf:
        raise ParameterError("|x11|^2 + |x12|^2 leaves the float range")
    x = np.array([[x11, x12], [-np.conj(x12), np.conj(x11)]], dtype=complex)
    expected = {
        "xtilde": xt,
        "case": "InvertibleCommuting",
        "n1": xt * np.eye(2),
        "n2": xt * np.eye(2),
        "x_inverse": x.conj().T / xt,
        "tilde_k": np.array([xt, xt]),
        "kernel_set": (),
    }
    return Fixture(
        id="ex2x2",
        theta1=np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex),
        x=x,
        expected=expected,
    )


def _phi_3x3() -> np.ndarray:
    s2, s6, s23 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(2.0 / 3.0)
    phi0 = [-1 / s2 - 1 / s6, s23, 1 / s2 - 1 / s6]
    phi1 = [-s23 - 1 / s2, 2 * s23, -s23 + 1 / s2]
    phi2 = [1 / math.sqrt(3.0)] * 3
    return np.array([phi0, phi1, phi2], dtype=complex).T


def theta1_3x3_closed_form(e1: float, e2: float, e3: float) -> np.ndarray:
    """Entrywise closed form of the 3x3 seed (surd coefficients over 6)."""
    s3 = _SQRT3
    rows = [
        [
            (5 + s3) * e1 - (1 + s3) * e2 + 2 * e3,
            2 * ((1 + s3) * e1 - (2 + s3) * e2 + e3),
            (-7 - 3 * s3) * e1 + (5 + 3 * s3) * e2 + 2 * e3,
        ],
        [
            2 * ((1 - 2 * s3) * e1 + 2 * (-1 + s3) * e2 + e3),
            2 * (-2 * e1 + 4 * e2 + e3),
            2 * ((1 + 2 * s3) * e1 - 2 * (1 + s3) * e2 + e3),
        ],
        [
            (-7 + 3 * s3) * e1 + (5 - 3 * s3) * e2 + 2 * e3,
            2 * ((1 - s3) * e1 + (-2 + s3) * e2 + e3),
            (5 - s3) * e1 + (-1 + s3) * e2 + 2 * e3,
        ],
    ]
    return np.array(rows, dtype=complex) / 6.0


def theta2_3x3_closed_form(e1: float, e2: float) -> np.ndarray:
    """Entrywise closed form of the 3x3 example's partner (2x2)."""
    s3 = _SQRT3
    return (
        np.array(
            [
                [-(1 + s3) * e1 + (5 + s3) * e2, (7 - 3 * s3) * (e1 - e2)],
                [-(5 + 3 * s3) * (e1 - e2), (5 + s3) * e1 - (1 + s3) * e2],
            ],
            dtype=complex,
        )
        / 4.0
    )


def fixture_3x3(e1: float, e2: float, e3: float) -> Fixture:
    """3x3 -> 2x2 non-invertible example with kernel index 2.

    The seed is rebuilt from its eigendata, Theta1 = Phi diag(E) Phi^{-1};
    the third seed eigenvalue is absent from the partner spectrum because
    X-adjoint annihilates the third eigenvector.  tilde_k = 3/2 on the two
    survivors.
    """
    es = (float(e1), float(e2), float(e3))
    phi = _phi_3x3()
    # past the float range the seed and its closed forms hold inf or NaN, which
    # build_model refuses; no RuntimeWarning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        theta1 = phi @ np.diag(es) @ np.linalg.inv(phi)
        closed1, closed2 = theta1_3x3_closed_form(*es), theta2_3x3_closed_form(es[0], es[1])
    x = np.array(
        [[0.0, 1.0], [-_SQRT3 / 2, -0.5], [_SQRT3 / 2, -0.5]], dtype=complex
    )
    eigensystem = Eigensystem(values=np.array(es, dtype=complex), vectors=phi)
    s2, s6, s3 = math.sqrt(2.0), math.sqrt(6.0), _SQRT3
    s23 = math.sqrt(2.0 / 3.0)
    psi_closed = np.array(
        [
            [-s2 + 1 / s6, -s23, s2 + 1 / s6],
            [1 / s2 - 1 / s6, s23, -(1 / s2 + 1 / s6)],
            [1 / math.sqrt(3.0)] * 3,
        ],
        dtype=complex,
    ).T
    phi2_closed = np.array(
        [
            [(-3 + s3) / (2 * s2), -math.sqrt(3 * (2 + s3)) / 2],
            [(-6 + s3) / (2 * s2), -(3 + 2 * s3) / (2 * s2)],
        ],
        dtype=complex,
    ).T
    psi2_closed = np.array(
        [
            [math.sqrt(1.5) + 3 / (2 * s2), (-6 + s3) / (2 * s2)],
            [-math.sqrt(3 * (2 + s3)) / 2, math.sqrt(3 * (2 - s3)) / 2],
        ],
        dtype=complex,
    ).T
    expected = {
        "case": "NonInvertible",
        "theta1_closed_form": closed1,
        "theta2": closed2,
        "n1": np.array(
            [[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]], dtype=complex
        ),
        "n2": 1.5 * np.eye(2),
        "kernel_set": (2,),
        "tilde_k": np.array([1.5, 1.5, 0.0]),
        "psi1": psi_closed,
        "phi2_survivors": phi2_closed,
        "psi2_survivors": psi2_closed,
        "pairing_level2": 1.5,
    }
    return Fixture(
        id="ex3x3",
        theta1=theta1,
        x=x,
        eigensystem=eigensystem,
        expected=expected,
    )


def fixture_shift(eps, theta, n: int) -> Fixture:
    """Diagonal seed with a weighted-shift intertwiner on n modes.

    Theta1 = sum eps_k e^{i theta_k} |e_k><e_k| on C^n; X maps C^{n-1} into
    C^n with X e_k = sqrt(eps_{k+1}) e_{k+1}, so X-adjoint lowers and
    annihilates e_0.  The partner is the once-shifted diagonal.
    """
    eps = EpsilonSequence.of(eps)
    if n < 2:
        raise DimensionError("shift example needs at least 2 modes")
    eps.require_length(n).require_increasing()
    if np.iscomplexobj(theta):
        raise ParameterError("phase angles theta must be real, not complex")
    theta_arr = np.asarray(theta, dtype=float)
    if theta_arr.ndim == 0:
        theta_arr = np.full(n, float(theta_arr))
    if theta_arr.size < n:
        raise ParameterError(f"need {n} phase angles, got {theta_arr.size}")
    theta_arr = theta_arr[:n]
    if np.all(np.abs(np.sin(theta_arr)) <= 1e-15):
        raise ParameterError(
            "all phases are multiples of pi; the example needs a genuinely "
            "non-self-adjoint seed"
        )
    values = eps.values[:n] * np.exp(1j * theta_arr)
    theta1 = np.diag(values)
    x = np.zeros((n, n - 1), dtype=complex)
    x[np.arange(1, n), np.arange(n - 1)] = np.sqrt(eps.values[1:n])
    eigensystem = Eigensystem(values=values, vectors=np.eye(n, dtype=complex))
    expected = {
        "case": "NonInvertible",
        "n1_diag": eps.values[:n].copy(),
        "n2_diag": eps.values[1:n].copy(),
        "kernel_set": (0,),
        "tilde_k": eps.values[:n].copy(),
        "theta2_diag": values[1:].copy(),
    }
    return Fixture(
        id="shift",
        theta1=theta1,
        x=x,
        eigensystem=eigensystem,
        expected=expected,
    )


def _pair_swap(n_blocks: int) -> np.ndarray:
    """The permutation that swaps positions 2j and 2j + 1 of every block j."""
    return np.eye(2 * n_blocks, dtype=complex)[np.arange(2 * n_blocks) ^ 1]


def _block_operators(alpha, beta, n_blocks, sign: float):
    """Block-diagonal seed and rank-1-per-block frame analysis map.

    ``sign`` is the relative sign of the two frame vectors per block: +1
    keeps the plus-combination eigenvectors, -1 keeps the minus ones.
    """
    # a scalar is a one-entry list
    alpha = np.array(alpha, dtype=complex, ndmin=1)
    beta = np.array(beta, dtype=complex, ndmin=1)
    if alpha.size != beta.size:
        raise DimensionError("alpha and beta lists must have equal length")
    if alpha.size < n_blocks:
        raise DimensionError(f"need {n_blocks} (alpha, beta) pairs, got {alpha.size}")
    alpha = alpha[:n_blocks]
    beta = beta[:n_blocks]
    dim = 2 * n_blocks
    # index i belongs to block i // 2; its block mate is i ^ 1
    idx = np.arange(dim)
    block, odd = idx // 2, idx % 2 == 1
    inv_s2 = 1.0 / math.sqrt(2.0)
    theta1 = np.zeros((dim, dim), dtype=complex)
    theta1[idx, idx] = alpha[block]
    theta1[idx, idx ^ 1] = beta[block]
    x = np.zeros((dim, n_blocks), dtype=complex)
    x[idx, block] = np.where(odd, sign * inv_s2, inv_s2)
    # eigenvalue order: minus combination first within each block; past the float
    # range a value is inf or NaN, without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.where(odd, alpha[block] + beta[block], alpha[block] - beta[block])
    vectors = np.zeros((dim, dim), dtype=complex)
    vectors[idx, idx] = inv_s2
    vectors[idx, idx ^ 1] = np.where(odd, -inv_s2, inv_s2)
    return alpha, beta, theta1, x, values, vectors


def fixture_block(alpha, beta, n_blocks: int) -> Fixture:
    """2n x 2n block seed with the equal-pair tight frame.

    Each 2x2 block [[a, b], [b, a]] has eigenvectors (1, -1)/sqrt(2)
    (listed first, eigenvalue a-b) and (1, 1)/sqrt(2) (eigenvalue a+b).
    The frame sends both members of pair j to e_j/sqrt(2), so the minus
    combinations (even positions) form the kernel and the partner is
    diag(a_j + b_j).
    """
    alpha, beta, theta1, x, values, vectors = _block_operators(
        alpha, beta, n_blocks, sign=+1.0
    )
    eigensystem = Eigensystem(values=values, vectors=vectors)
    expected = {
        "case": "NonInvertible",
        "theta2": np.diag(values[1::2]),
        "n2": np.eye(n_blocks, dtype=complex),
        "n1": (np.eye(2 * n_blocks, dtype=complex) + _pair_swap(n_blocks)) / 2,
        "kernel_set": tuple(range(0, 2 * n_blocks, 2)),
        "tilde_k": np.array([0.0, 1.0] * n_blocks),
        "values": values,
    }
    return Fixture(
        id="block",
        theta1=theta1,
        x=x,
        eigensystem=eigensystem,
        expected=expected,
    )


def coherent_demo(alpha1: float, n_blocks: int) -> Fixture:
    """Block model tuned so the seed spectrum is the linear ladder 2*n*alpha1.

    Block j (0-based) uses alpha = (4j+1)*alpha1, beta = alpha1, giving
    eigenvalues 4j*alpha1 and (4j+2)*alpha1: merged and sorted they are
    eps_n = 2*n*alpha1 starting at 0.  The frame here alternates sign, so
    the surviving eigenvectors are the minus combinations (even positions)
    and the partner is diag(4l*alpha1) with tilde_k = 1.
    """
    alpha1 = float(alpha1)
    if not 0.0 < alpha1 < math.inf:
        raise ParameterError(f"alpha1 must be positive and finite, got {alpha1}")
    if n_blocks < 2:
        raise DimensionError("need at least 2 blocks")
    dim = 2 * n_blocks
    # past the float range the ladder holds inf or NaN, which EpsilonSequence
    # refuses, without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = (4 * np.arange(n_blocks) + 1) * alpha1
        eps = EpsilonSequence(2.0 * alpha1 * np.arange(dim))
    beta = np.full(n_blocks, alpha1)
    _, _, theta1, x, values, vectors = _block_operators(
        alpha, beta, n_blocks, sign=-1.0
    )
    eigensystem = Eigensystem(values=values, vectors=vectors)
    survivors = tuple(range(0, dim, 2))
    expected = {
        "case": "NonInvertible",
        "epsilon": eps.values.copy(),
        "kernel_set": tuple(range(1, dim, 2)),
        "survivors": survivors,
        "theta2_diag": 4.0 * alpha1 * np.arange(n_blocks),
        "tilde_k_survivor": 1.0,
        # N(|z|) = exp(-rate * |z|^2) for the level-1 states
        "normalization_rate": 1.0 / (4.0 * alpha1),
        # survivor factorials keep original indices: prod of eps_1..eps_{2l}
        "level2_factorials": eps.factorials(dim - 1)[::2],
    }
    return Fixture(
        id="coherent_demo",
        theta1=theta1,
        x=x,
        eigensystem=eigensystem,
        expected=expected,
    )


def _count(value, modes_each: int) -> int:
    """A mode or block count: an integral number, never truncated, of at
    most MAX_FIXTURE_MODES modes when each counts ``modes_each``."""
    count = int(value)
    if count != value:
        raise ValueError(f"a count must be an integer, got {value!r}")
    if count * modes_each > MAX_FIXTURE_MODES:
        raise ValueError(f"{count * modes_each} modes exceed the bound of {MAX_FIXTURE_MODES}")
    return count


def _shift_by_slope(s, theta, n) -> Fixture:
    n = _count(n, 1)
    return fixture_shift(EpsilonSequence.linear(s, n), theta, n)


def _block_by_count(alpha, beta, n_blocks) -> Fixture:
    n_blocks = _count(n_blocks, 2)
    ramp = np.arange(1.0, n_blocks + 1.0)
    alpha = ramp if alpha is None else alpha
    beta = 0.5j * ramp if beta is None else beta
    return fixture_block(alpha, beta, n_blocks)


# id -> (builder, {parameter: default}); a None default is derived from n_blocks
_FIXTURE_BUILDERS = {
    "ex2x2": (fixture_2x2, {"x11": 1.0, "x12": 1.0j}),
    "ex3x3": (fixture_3x3, {"e1": 1.0, "e2": 2.0, "e3": 3.0}),
    "shift": (_shift_by_slope, {"s": 1.0, "theta": math.pi / 4.0, "n": 8}),
    "block": (_block_by_count, {"alpha": None, "beta": None, "n_blocks": 4}),
    "coherent_demo": (
        lambda alpha1, n_blocks: coherent_demo(alpha1, _count(n_blocks, 2)),
        {"alpha1": 1.0, "n_blocks": 32},
    ),
}


def get_fixture(fixture_id: str, **params) -> Fixture:
    """Build a fixture by id; each fixture accepts only its own parameter names."""
    if fixture_id not in _FIXTURE_BUILDERS:
        raise ParameterError(
            f"unknown fixture id {fixture_id!r}; choose from {FIXTURE_IDS}"
        )
    builder, defaults = _FIXTURE_BUILDERS[fixture_id]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterError(
            f"fixture {fixture_id} takes no parameter {', '.join(unknown)}; "
            f"it accepts {', '.join(defaults)}"
        )
    values = {**defaults, **params}
    try:
        return builder(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"fixture {fixture_id}: {exc}") from exc


# ---------------------------------------------------------------------------
# pseudo-fermion pairs


@dataclass(frozen=True)
class PseudoFermionPair:
    """2x2 pair with {a, b} = 1 and a^2 = b^2 = 0.

    gamma is the effective scalar 1/(alpha - beta); its square equals
    -alpha12*beta12 by the admissibility constraint.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: complex
    beta: complex
    alpha12: complex
    beta12: complex
    gamma: complex

    def anticommutator_defect(self) -> float:
        return opnorm(self.a @ self.b + self.b @ self.a - np.eye(2))

    def nilpotency_defect(self) -> float:
        return max(opnorm(self.a @ self.a), opnorm(self.b @ self.b))

    def hamiltonian(self, omega: complex, rho: complex) -> np.ndarray:
        return omega * (self.b @ self.a) + rho * np.eye(2)

    def hamiltonian_closed_form(self, omega: complex, rho: complex) -> np.ndarray:
        wg = omega * self.gamma
        return np.array(
            [
                [wg * self.alpha + rho, wg],
                [-wg * self.alpha * self.beta, -wg * self.beta + rho],
            ],
            dtype=complex,
        )


def pseudo_fermion(
    alpha: complex,
    beta: complex,
    alpha12: complex,
    beta12: complex,
    tol: float = 1e-10,
) -> PseudoFermionPair:
    """Rank-1 nilpotent pair a = alpha12*[[alpha,1],[-alpha^2,-alpha]], etc.

    Admissibility requires (alpha-beta)^2 * (-alpha12*beta12) = 1; the
    effective gamma is 1/(alpha-beta) (the constraint only fixes gamma^2,
    the product b a fixes the branch).
    """
    alpha, beta = complex(alpha), complex(beta)
    alpha12, beta12 = complex(alpha12), complex(beta12)
    gamma_sq = -alpha12 * beta12
    defect = abs((alpha - beta) ** 2 * gamma_sq - 1.0)
    if defect > tol:
        raise ParameterError(
            f"(alpha-beta)^2 * (-alpha12*beta12) = 1 violated by {defect:.3e}"
        )
    a = alpha12 * np.array([[alpha, 1.0], [-alpha**2, -alpha]], dtype=complex)
    b = beta12 * np.array([[beta, 1.0], [-beta**2, -beta]], dtype=complex)
    return PseudoFermionPair(
        a=a,
        b=b,
        alpha=alpha,
        beta=beta,
        alpha12=alpha12,
        beta12=beta12,
        gamma=1.0 / (alpha - beta),
    )


def ex3x3_pseudo_fermion_params(e1: float, e2: float) -> dict:
    """Parameter set whose Hamiltonian reproduces the 3x3 fixture's partner."""
    s3 = _SQRT3
    alpha = -2.0 - s3
    beta = (s3 + 1.0) / (3.0 * s3 - 7.0)
    alpha12 = math.sqrt((38.0 - 21.0 * s3) / 8.0)
    wg = (7.0 - 3.0 * s3) * (e1 - e2) / 4.0
    return {
        "alpha": alpha,
        "beta": beta,
        "alpha12": alpha12,
        "beta12": -alpha12,
        "omega": wg * (alpha - beta),
        "rho": complex(e1),
    }


def block_pseudo_fermion_params(alpha_j: complex, beta_j: complex) -> dict:
    """Pseudo-fermion parameters realizing the block [[a_j, b_j], [b_j, a_j]]."""
    beta_j = complex(beta_j)
    if beta_j == 0:
        raise ParameterError(
            "beta_j = 0 collapses the block to a multiple of the identity; "
            "omega = 2*beta_j would vanish"
        )
    return {
        "alpha": 1.0,
        "beta": -1.0,
        "alpha12": 0.5,
        "beta12": -0.5,
        "omega": 2.0 * beta_j,
        "rho": complex(alpha_j) - beta_j,
    }


# ---------------------------------------------------------------------------
# deformed ladder-pair verification


def standard_boson(dim: int):
    """Truncated boson pair: a lowers, b = a-adjoint raises; eps_n = n."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    eps = EpsilonSequence(np.arange(dim, dtype=float))
    e0 = np.eye(dim, dtype=complex)[0]
    return a, a.conj().T, eps, e0.copy(), e0.copy()


def _column_scales(m: np.ndarray) -> np.ndarray:
    """Per column of ``m``, the power of two that brings its largest
    magnitude near 1: into [1, 4), or a subnormal one to at least 2^-52.

    A norm squares the entries, which overflows past about 1e154 and
    underflows below 1e-154 while the column itself is finite.  Scaling a
    column by one constant leaves every ratio of its norms unchanged, and a
    power of two scales exactly: within the normal range the ratios keep
    their bits.
    """
    _, exponent = np.frexp(np.max(np.abs(m), axis=0))
    # within the normal range, so the factor itself is finite and exact
    return np.ldexp(1.0, np.clip(1 - exponent, -1022, 1022))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def nlpb_verify(a, b, eps, phi0, eta0, n_modes: int, tol: float = 1e-10) -> RelationReport:
    """Check a deformed ladder pair against its defining properties.

    Builds Phi_n = b^n Phi_0 / sqrt(eps_n!) and eta_n = (a-adjoint)^n eta_0
    / sqrt(eps_n!), then verifies lowering/raising one step at a time, the
    eigen-equations of M = b a and its adjoint, biorthonormality of the two
    families, and the shifted-eigenvector property of a b.  The basis
    property is only decidable at truncation, so it is reported as the
    condition number of the Phi column matrix, never as a boolean.  Every
    norm is taken on columns rescaled by powers of two (``_column_scales``),
    so a rescaled pair whose families are finite verifies as the pair does.
    An overflow of a family leaves a residual that is not finite: a
    NumericalError naming its check.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError("a and b must be square with equal shape")
    dim = a.shape[0]
    eps = EpsilonSequence.of(eps)
    if n_modes < 2:
        raise DimensionError("need at least 2 modes to check ladder steps")
    eps.require_length(n_modes)
    phi0 = np.asarray(phi0, dtype=complex).reshape(-1)
    eta0 = np.asarray(eta0, dtype=complex).reshape(-1)
    if phi0.size != dim or eta0.size != dim:
        raise DimensionError("seed vectors must match the operator dimension")
    if not (np.isfinite(phi0).all() and np.isfinite(eta0).all()):
        raise DimensionError("seed vectors must be finite (no NaN/Inf)")

    n0 = np.linalg.norm(phi0)
    m0 = np.linalg.norm(eta0)
    if n0 == 0 or m0 == 0:
        raise SeedVectorError("seed vectors must be non-zero")
    r1 = np.linalg.norm(a @ phi0) / n0
    if r1 > tol:
        raise SeedVectorError(f"a Phi_0 has relative norm {r1:.3e}; not a lowest mode")
    r2 = np.linalg.norm(b.conj().T @ eta0) / m0
    if r2 > tol:
        raise SeedVectorError(
            f"b-adjoint eta_0 has relative norm {r2:.3e}; not a lowest mode"
        )
    overlap = np.vdot(eta0, phi0)
    if abs(overlap) <= 1e-12 * n0 * m0:
        raise SeedVectorError("seed vectors are (numerically) orthogonal")
    eta0 = eta0 / np.conj(overlap)

    facts = eps.factorials(n_modes)
    phis = np.zeros((dim, n_modes), dtype=complex)
    etas = np.zeros((dim, n_modes), dtype=complex)
    phis[:, 0], etas[:, 0] = phi0, eta0
    bp, ae, ah = phi0, eta0, a.conj().T
    for n in range(1, n_modes):
        bp, ae = b @ bp, ah @ ae
        phis[:, n] = bp / math.sqrt(facts[n])
        etas[:, n] = ae / math.sqrt(facts[n])

    residuals: dict[str, float] = {}
    details: dict = {}
    roots = np.sqrt(eps.values[1:n_modes])
    for name, op, family in (("lowering", a, phis), ("raising", b.conj().T, etas)):
        # ||op v_n - sqrt(eps_n) v_{n-1}|| relative to sqrt(eps_n) ||v_{n-1}||, n >= 1
        # both norms over the power of two of v_{n-1}: their ratio is unchanged
        below = family[:, :-1]
        factor = _column_scales(below)
        scale = np.maximum(np.linalg.norm(below * factor, axis=0), 1e-300)
        step = np.linalg.norm((op @ family[:, 1:] - roots * below) * factor, axis=0)
        per_mode = step / (roots * scale + 1e-300)
        residuals[f"p3_{name}"] = float(per_mode.max())
        details[f"p3_{name}_per_mode"] = per_mode.tolist()

    m = b @ a
    sm = max(opnorm(m), 1e-300)
    em = column_defects(m, phis * _column_scales(phis), eps.values[:n_modes], sm)
    ema = column_defects(m.conj().T, etas * _column_scales(etas), eps.values[:n_modes], sm)
    residuals["eigen_m"], residuals["eigen_m_adjoint"] = float(em.max()), float(ema.max())
    details["eigen_m_per_mode"] = em.tolist()

    gram = etas.conj().T @ phis
    residuals["biorthogonality"] = float(np.max(np.abs(gram - np.eye(n_modes))))

    # a b on a v_n, n >= 1, skipping the columns a annihilates
    ab = a @ b
    sab = max(opnorm(ab), 1e-300)
    v = a @ phis[:, 1:]
    v *= _column_scales(v)
    live = np.linalg.norm(v, axis=0) > 1e-300
    shifted = column_defects(ab, v[:, live], eps.values[1:n_modes][live], sab)
    residuals["shifted_eigen"] = float(shifted.max(initial=0.0))
    for name, value in residuals.items():
        if not math.isfinite(value):
            raise NumericalError(f"nlpb check {name} is {value}: a family or its image overflowed")

    sing = np.linalg.svd(phis, compute_uv=False)
    details["phi_condition_number"] = float(sing[0] / max(sing[-1], 1e-300))
    decisions = {name: Decision(value, tol) for name, value in residuals.items()}
    return RelationReport(decisions, tol, details=details)
