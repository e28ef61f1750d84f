"""Dense complex linear algebra for finite operator truncations.

Everything operates on plain numpy arrays (complex128, 2-D for operators,
columns for vector families).  Inner products are conjugate-linear in the
first argument throughout: <f, g> = vdot(f, g) = sum(conj(f) * g).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    SingularityError,
)

# Relative singular-value threshold for numerical kernel membership.
KERNEL_TOL = 1e-10
# Absolute pairwise eigenvalue gap below which a spectrum is not simple.
MULTIPLICITY_TOL = 1e-8
# Relative threshold for treating a vector family as rank deficient.
RANK_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Validate and coerce input to a finite 2-D complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix must be at least 1x1, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix entries must be finite (no NaN/Inf)")
    return a


def opnorm(m) -> float:
    """Spectral norm of a matrix (largest singular value)."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of equal size."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise DimensionError(
            f"commutator needs equal square matrices, got {a.shape} and {b.shape}"
        )
    return a @ b - b @ a


def kernel_basis(m, tol: float = KERNEL_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of ``m``.

    Right-singular vectors whose singular value is <= tol * sigma_max;
    an all-zero matrix has a full kernel.  Returns [] for trivial kernel.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_matrix(m)
    u, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    ncols = m.shape[1]
    if smax == 0.0:
        return [np.eye(ncols, dtype=complex)[:, j] for j in range(ncols)]
    null_mask = np.zeros(ncols, dtype=bool)
    null_mask[s.size:] = True  # columns beyond rank(s) for wide matrices
    null_mask[: s.size] = s <= tol * smax
    return [vh.conj().T[:, j] for j in range(ncols) if null_mask[j]]


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    rows = np.argmax(np.abs(vectors), axis=0)
    pivot = vectors[rows, np.arange(vectors.shape[1])]
    # hypot, not np.abs: numpy's vectorized complex abs can differ by an ulp
    size = np.hypot(pivot.real, pivot.imag)
    # scaled in place in a C-ordered copy: later column norms round by layout
    out = vectors.copy()
    out *= np.divide(size, pivot, out=np.ones_like(pivot), where=pivot != 0)
    return out


def _pairwise_gaps(values: np.ndarray) -> np.ndarray:
    """|values[i] - values[j]| for every i < j, rounded as scalar abs() rounds it."""
    i, j = np.triu_indices(len(values), 1)
    d = values[i] - values[j]
    return np.hypot(d.real, d.imag)


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues and eigenvector columns of a (generally non-normal) matrix.

    ``vectors[:, n]`` belongs to ``values[n]``.  ``max_residual`` is the
    largest relative defect ||M v - eps v|| / ||M|| over the columns.
    """

    values: np.ndarray
    vectors: np.ndarray
    multiplicity_tolerance: float = MULTIPLICITY_TOL
    max_residual: float = 0.0

    def __post_init__(self):
        if self.values.shape[0] != self.vectors.shape[1]:
            raise DimensionError("one eigenvector column per eigenvalue required")
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.any(norms == 0):
            raise DimensionError("eigenvectors must be nonzero")

    @property
    def simple_spectrum(self) -> bool:
        """True iff all pairwise eigenvalue gaps exceed the multiplicity tolerance."""
        return not np.any(_pairwise_gaps(self.values) <= self.multiplicity_tolerance)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def eig(m, multiplicity_tolerance: float = MULTIPLICITY_TOL) -> Eigensystem:
    """Full eigendecomposition of a general complex square matrix.

    Eigenvectors are unit-normalized with phase fixed (largest component
    real positive) and pairs are sorted by (Re, Im) of the eigenvalue, so
    repeated runs and fixture comparisons are deterministic.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"eig needs a square matrix, got {m.shape}")
    return _eig(m, multiplicity_tolerance, opnorm(m))


def _eig(m: np.ndarray, multiplicity_tolerance: float, scale: float) -> Eigensystem:
    """``eig`` on a validated square matrix whose norm ``scale`` = ||M|| is known."""
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    vectors = _fix_phase(vectors)
    if scale == 0.0:
        max_res = 0.0
    else:
        defect = m @ vectors - vectors * values[np.newaxis, :]
        max_res = float(np.max(np.linalg.norm(defect, axis=0))) / scale
    if max_res > 1e-8:
        raise NumericalError(
            f"eigendecomposition residual {max_res:.3e} exceeds 1e-8 of ||M||"
        )
    return Eigensystem(values, vectors, multiplicity_tolerance, max_res)


def biorthogonal_partner(phi) -> np.ndarray:
    """Partner family psi with <phi_k, psi_n> = delta_kn.

    ``phi`` holds the family as columns of a square matrix; the partner is
    the inverse-adjoint of that matrix, columnwise.
    """
    phi = as_matrix(phi)
    if phi.shape[0] != phi.shape[1]:
        raise SingularityError(
            f"family must span the space: need square column matrix, got {phi.shape}"
        )
    s = np.linalg.svd(phi, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise SingularityError(
            f"vector family is rank deficient (sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )
    return np.linalg.inv(phi).conj().T


def is_strictly_positive(m, tol: float = KERNEL_TOL) -> bool:
    """True iff ``m`` is self-adjoint within tol and min eigenvalue > tol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"positivity test needs a square matrix, got {m.shape}")
    return _strictly_positive(m, opnorm(m), tol)


def _strictly_positive(m: np.ndarray, norm: float, tol: float) -> bool:
    """``is_strictly_positive`` on a validated square matrix with ``norm`` = ||m||."""
    scale = max(1.0, norm)
    if opnorm(m - m.conj().T) > tol * scale:
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(w[0] > tol)


@dataclass(frozen=True)
class EpsilonSequence:
    """Truncated nonnegative eigenvalue sequence eps_0, eps_1, ...

    ``strictly_increasing`` records whether the sequence satisfies
    eps_0 = 0 < eps_1 < eps_2 < ... as the ladder constructions assume.
    """

    values: np.ndarray
    strictly_increasing: bool = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DimensionError("epsilon sequence must be a nonempty 1-D array")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("epsilon values must be finite and nonnegative")
        object.__setattr__(self, "values", vals)
        increasing = vals[0] == 0.0 and bool(np.all(np.diff(vals) > 0))
        object.__setattr__(self, "strictly_increasing", increasing)

    @classmethod
    def of(cls, eps) -> "EpsilonSequence":
        """``eps`` itself if it is a sequence already, else one built from its values."""
        return eps if isinstance(eps, EpsilonSequence) else cls(np.asarray(eps, dtype=float))

    @classmethod
    def linear(cls, s: float, count: int) -> "EpsilonSequence":
        """The sequence eps_k = s*k, k = 0..count-1."""
        return cls(s * np.arange(count, dtype=float))

    def __len__(self) -> int:
        return self.values.size

    def factorial(self, n: int) -> float:
        return generalized_factorial(self, n)

    def factorials(self, count: int) -> np.ndarray:
        """Array of generalized factorials eps_0! .. eps_{count-1}!."""
        if count > len(self):
            raise DimensionError(f"need {count} epsilon values, got {len(self)}")
        out = np.ones(count)
        if count > 1:
            out[1:] = np.cumprod(self.values[1:count])
        return out


def generalized_factorial(eps, n: int) -> float:
    """eps_n! = eps_1 * eps_2 * ... * eps_n, with eps_0! = 1 (empty product)."""
    vals = eps.values if isinstance(eps, EpsilonSequence) else np.asarray(eps, dtype=float)
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n >= vals.size:
        raise DimensionError(f"index {n} beyond truncation length {vals.size}")
    if n == 0:
        return 1.0
    return float(np.prod(vals[1 : n + 1]))


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Paired vector families with <phi_k, psi_n> = pairing[n] * delta_kn.

    Families are columns; level-1 systems have pairing 1, level-2 systems
    carry the positive constants inherited from the intertwiner.
    """

    phi: np.ndarray
    psi: np.ndarray
    values: np.ndarray
    pairing: np.ndarray

    def __post_init__(self):
        phi = as_matrix(self.phi)
        psi = as_matrix(self.psi)
        if phi.shape != psi.shape:
            raise DimensionError("phi and psi families must have equal shapes")
        n = phi.shape[1]
        values = np.asarray(self.values, dtype=complex)
        pairing = np.asarray(self.pairing, dtype=float)
        if values.shape != (n,) or pairing.shape != (n,):
            raise DimensionError("one eigenvalue and one pairing constant per column")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pairing", pairing)

    @property
    def size(self) -> int:
        """Number of vector pairs."""
        return self.phi.shape[1]

    @property
    def dim(self) -> int:
        """Dimension of the ambient space."""
        return self.phi.shape[0]

    def pairing_defect(self) -> float:
        """max |<phi_k, psi_n> - pairing[n] delta_kn| over all k, n."""
        gram = self.phi.conj().T @ self.psi
        return float(np.max(np.abs(gram - np.diag(self.pairing))))
