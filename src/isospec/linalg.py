"""Dense complex linear algebra for finite operator truncations.

Everything operates on plain numpy arrays (complex128, 2-D for operators,
columns for vector families).  Inner products are conjugate-linear in the
first argument throughout: <f, g> = vdot(f, g) = sum(conj(f) * g).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    ParameterError,
    SingularityError,
    SpectrumError,
)

# Relative singular-value threshold for numerical kernel membership.
KERNEL_TOL = 1e-10
# Absolute pairwise eigenvalue gap below which a spectrum is not simple.
MULTIPLICITY_TOL = 1e-8
# Relative threshold for treating a vector family as rank deficient.
RANK_TOL = 1e-12
# Relative margin of certified_ratio: the rounding of the bounds and of the SVD.
CERTIFY_MARGIN = 1e-6
# ||phi||_F ||phi^-1||_F below which a computed inverse certifies full rank.  The
# inverse is accurate to about n u ||phi|| ||phi^-1|| relative (Higham 2002,
# 14.3), which near 1/RANK_TOL is 1e-4 n: two orders inside it, no rounding
# of the inverse can turn the verdict of the singular values.
RANK_CERTIFY = 1e-2 / RANK_TOL
# Per dimension, relative to ||M||: the dropped off-diagonal blocks of a split
# eigensolve (see _eig) at most this large are rounding, about what the
# backward error of eig on the whole M allows, so the split is as exact.
SPLIT_TOL = 10 * np.finfo(float).eps


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


def read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that refuses writes; ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


def opnorm(m) -> float:
    """Spectral norm of a matrix; an operand that overflowed is a NumericalError."""
    try:
        norm = float(np.linalg.norm(np.asarray(m, dtype=complex), 2))
    except np.linalg.LinAlgError as exc:  # the SVD of a non-finite operand
        raise NumericalError(f"spectral norm failed ({exc}); an operand overflowed") from exc
    if not math.isfinite(norm):
        raise NumericalError(f"spectral norm is {norm}: the operand overflowed")
    return norm


class SpectralNorm:
    """||m||_2 of one matrix: O(mn) bounds on first use, the SVD only on request."""

    def __init__(self, m: np.ndarray):
        self.m = m

    @cached_property
    def bounds(self) -> tuple[float, float]:
        """(lower, upper): ||m||_F / sqrt(min(m.shape)) and the largest column norm
        lie below ||m||_2, ||m||_F above (Higham 2002, 6.2); (0, inf) on over/underflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            cols = (np.square(self.m.real) + np.square(self.m.imag)).sum(axis=0)
            fro2 = float(cols.sum())
        if fro2 == 0.0 and not np.any(self.m):
            return 0.0, 0.0
        if not 1e-250 <= fro2 <= sys.float_info.max:
            return 0.0, math.inf
        fro = math.sqrt(fro2)
        return max(fro / math.sqrt(min(self.m.shape)), math.sqrt(float(cols.max()))), fro

    @cached_property
    def exact(self) -> float:
        return opnorm(self.m)


class Decision(NamedTuple):
    """A threshold verdict: ``value`` passes when it is at most ``tolerance``, so
    NaN fails.  ``bounded`` marks a bound (``certified_ratio``) rather than an
    exact value: above the exact value if it passes, below it if it fails."""

    value: float
    tolerance: float
    bounded: bool = False

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance

    def __str__(self) -> str:
        # a passing bound is an upper bound, a failing one a lower bound
        sign = ("<= " if self.passed else ">= ") if self.bounded else ""
        return f"{sign}{self.value:.3e}"

    def row(self, name: str) -> str:
        """The report line of this decision under ``name``."""
        return f"{name:32s} {str(self):>12s}  {'PASS' if self.passed else 'FAIL'}"


def certified_ratio(num, den, tol: float, floor: float = 1e-300) -> Decision:
    """The Decision of ||num|| / max(product of the SpectralNorms ``den``, floor) <= tol.

    ``num`` is a matrix, a SpectralNorm or an exact float.  Where the bounds
    decide the verdict with CERTIFY_MARGIN to spare, the value is a bound
    on the verdict's side of ``tol`` (above the exact ratio if it passes,
    below it if it fails); else it is the exact ratio, from SVDs.
    """
    if isinstance(num, np.ndarray):
        num = SpectralNorm(num)
    n_lo, n_hi = num.bounds if isinstance(num, SpectralNorm) else (num, num)
    if n_hi == 0.0:
        return Decision(0.0, tol)
    hi = n_hi / max(math.prod(d.bounds[0] for d in den), floor)
    lo = n_lo / max(math.prod(d.bounds[1] for d in den), floor)
    if hi <= tol * (1.0 - CERTIFY_MARGIN):
        return Decision(hi * (1.0 + CERTIFY_MARGIN), tol, True)
    if lo > tol * (1.0 + CERTIFY_MARGIN):
        return Decision(lo / (1.0 + CERTIFY_MARGIN), tol, True)
    exact = num.exact if isinstance(num, SpectralNorm) else num
    return Decision(exact / max(math.prod(d.exact for d in den), floor), tol)


def column_defects(op, vectors, values, scale: float = 1.0) -> np.ndarray:
    """||op v_n - values_n v_n|| / (scale ||v_n||) for each column v_n of ``vectors``."""
    defect = np.linalg.norm(op @ vectors - vectors * values, axis=0)
    return defect / np.maximum(scale * np.linalg.norm(vectors, axis=0), 1e-300)


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


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive up to
    rounding: the pivot p is multiplied by |p|/p in complex arithmetic, which can
    leave it an imaginary part of rounding size, not exactly 0."""
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
    # a gap past the float range is inf, which separates the pair, without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        d = values[i] - values[j]
    return np.hypot(d.real, d.imag)


def _require_simple(values: np.ndarray, tolerance: float) -> None:
    """A SpectrumError naming the closest pair unless each of the _pairwise_gaps of
    ``values`` exceeds ``tolerance`` (a NaN gap is none): the one simple-spectrum test."""
    gaps = _pairwise_gaps(values)
    if np.any(gaps <= tolerance):
        k = int(np.nanargmin(gaps))
        i, j = (int(index[k]) for index in np.triu_indices(len(values), 1))
        raise SpectrumError(
            f"seed spectrum is not simple: eigenvalues {i} and {j} ({values[i]:.6g}, "
            f"{values[j]:.6g}) lie {gaps[k]:.3e} apart, within the multiplicity tolerance "
            f"{tolerance:.1e}; close eigenvalues are never merged"
        )


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues and eigenvector columns of a (generally non-normal) matrix.

    ``vectors[:, n]`` belongs to ``values[n]``.  ``max_residual`` bounds the
    largest relative defect ||M v - eps v|| / ||M|| over the columns from above.
    """

    values: np.ndarray
    vectors: np.ndarray
    max_residual: float = 0.0

    def __post_init__(self):
        if self.values.shape[0] != self.vectors.shape[1]:
            raise DimensionError("one eigenvector column per eigenvalue required")
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.any(norms == 0):
            raise DimensionError("eigenvectors must be nonzero")


def eig(m) -> Eigensystem:
    """Full eigendecomposition of a general complex square matrix.

    Eigenvectors are unit-normalized with phase fixed (largest component
    real positive, up to rounding) and pairs are sorted by (Re, Im) of the
    eigenvalue, so repeated runs and fixture comparisons are deterministic.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"eig needs a square matrix, got {m.shape}")
    return _eig(m, SpectralNorm(m))


def _eig(
    m: np.ndarray, norm: SpectralNorm, split: tuple[np.ndarray, int] | None = None
) -> Eigensystem:
    """``eig`` on a validated square matrix whose spectral ``norm`` is that of ``m``.

    ``split`` is a unitary Q and a column count k: Q's first k columns and
    the rest span subspaces that ``m`` may leave invariant.  None, or
    off-diagonal blocks of Q^H m Q above rounding level, means the whole of
    ``m`` is diagonalized; else each diagonal block is, on its own, and its
    eigenvectors are lifted back by its columns of Q.
    """
    try:
        pairs = None if split is None else _split_pairs(m, norm, *split)
        values, vectors = np.linalg.eig(m) if pairs is None else pairs
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    vectors = _fix_phase(vectors)
    # a residual that overflows fails the check below, not in a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(m @ vectors - vectors * values[np.newaxis, :], axis=0)
    max_res = certified_ratio(float(np.max(defect)), (norm,), 1e-8)
    if not max_res.passed:
        raise NumericalError(f"eigendecomposition residual {max_res} exceeds 1e-8 of ||M||")
    return Eigensystem(values, vectors, max_res.value)


def _split_pairs(m: np.ndarray, norm: SpectralNorm, q: np.ndarray, k: int):
    """(values, vectors) of ``m`` from the two diagonal blocks of T = Q^H m Q, or
    None when the blocks it drops, T[k:, :k] and T[:k, k:], exceed
    SPLIT_TOL * dim times the lower bound of ||m||: on a doubt, no split."""
    # an overflow leaves ``dropped`` inf or NaN, so the whole of m is diagonalized
    with np.errstate(over="ignore", invalid="ignore"):
        t = q.conj().T @ m @ q
        dropped = math.hypot(np.linalg.norm(t[k:, :k]), np.linalg.norm(t[:k, k:]))
    if not dropped <= SPLIT_TOL * m.shape[0] * norm.bounds[0]:
        return None
    parts = [(np.linalg.eig(t[b, b]), q[:, b]) for b in (slice(None, k), slice(k, None))]
    values = np.concatenate([w for (w, _), _ in parts])
    vectors = np.hstack([qb @ v for (_, v), qb in parts])
    return values, vectors


def biorthogonal_partner(phi) -> np.ndarray:
    """Partner family psi with <phi_k, psi_n> = delta_kn.

    ``phi`` holds the family as columns of a square matrix; the partner is
    the inverse-adjoint of that matrix, columnwise.  The family is full rank
    when sigma_min > RANK_TOL * sigma_max.  Since sigma_max <= ||phi||_F and
    1/sigma_min <= ||phi^-1||_F, the inverse the partner needs certifies that
    with O(n^2) more work below RANK_CERTIFY; the singular values decide only
    above it, or when the inverse fails.
    """
    phi = as_matrix(phi)
    if phi.shape[0] != phi.shape[1]:
        raise SingularityError(
            f"family must span the space: need square column matrix, got {phi.shape}"
        )
    try:
        inv = np.linalg.inv(phi)
    except np.linalg.LinAlgError:  # exactly singular: the singular values word the refusal
        _require_full_rank(phi)
        raise
    if SpectralNorm(phi).bounds[1] * SpectralNorm(inv).bounds[1] >= RANK_CERTIFY:
        _require_full_rank(phi)
    return inv.conj().T


def _require_full_rank(phi: np.ndarray) -> None:
    """Raise SingularityError unless sigma_min > RANK_TOL * sigma_max."""
    s = np.linalg.svd(phi, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise SingularityError(
            f"vector family is rank deficient (sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )


def is_strictly_positive(m, tol: float = KERNEL_TOL) -> bool:
    """True iff ``m`` is self-adjoint within tol and min eigenvalue > tol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"positivity test needs a square matrix, got {m.shape}")
    if not certified_ratio(m - m.conj().T, (SpectralNorm(m),), tol, 1.0).passed:
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(w[0] > tol)


@dataclass(frozen=True)
class EpsilonSequence:
    """Truncated nonnegative eigenvalue sequence eps_0, eps_1, ...

    ``strictly_increasing`` records whether the sequence satisfies
    eps_0 = 0 < eps_1 < eps_2 < ... as the ladder constructions assume.
    ``values`` is a read-only copy, so a later write to the caller's array
    changes neither the sequence nor that verdict.
    """

    values: np.ndarray
    strictly_increasing: bool = field(init=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DimensionError("epsilon sequence must be a nonempty 1-D array")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("epsilon values must be finite and nonnegative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        increasing = vals[0] == 0.0 and bool(np.all(np.diff(vals) > 0))
        object.__setattr__(self, "strictly_increasing", increasing)

    @classmethod
    def of(cls, eps) -> "EpsilonSequence":
        """``eps`` itself if it is a sequence already, else one built from its values."""
        return eps if isinstance(eps, EpsilonSequence) else cls(eps)

    @classmethod
    def linear(cls, s: float, count: int) -> "EpsilonSequence":
        """The sequence eps_k = s*k, k = 0..count-1, for a finite real slope s."""
        s = float(s)
        if not np.isfinite(s):
            raise ValueError(f"epsilon slope must be finite, got {s}")
        # a slope past the float range overflows to inf, which __post_init__ refuses
        with np.errstate(over="ignore"):
            return cls(s * np.arange(count, dtype=float))

    def require_increasing(self) -> "EpsilonSequence":
        """The sequence itself; a ParameterError unless ``strictly_increasing``."""
        if not self.strictly_increasing:
            raise ParameterError("epsilon sequence must increase strictly from 0")
        return self

    def __len__(self) -> int:
        return self.values.size

    @cached_property
    def key(self) -> bytes:
        """The bytes of ``values``, taken once: the memo key of what is derived
        from the sequence.  ``values`` is a read-only copy, so the key holds."""
        return self.values.tobytes()

    def require_length(self, count: int) -> "EpsilonSequence":
        """The sequence itself; a DimensionError if it has fewer than ``count`` values."""
        if count > len(self):
            raise DimensionError(f"need {count} epsilon values, got {len(self)}")
        return self

    def factorials(self, count: int) -> np.ndarray:
        """Generalized factorials eps_0! .. eps_{count-1}!, grown as a running
        product: one past the float range is inf, without a warning."""
        steps = self.require_length(count).values[1:count]
        with np.errstate(over="ignore"):
            return np.cumprod(np.concatenate(([1.0], steps)))[:count]


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Paired vector families with <phi_k, psi_n> = pairing[n] * delta_kn.

    Families are columns; level-1 systems have pairing 1, level-2 systems
    carry the positive constants inherited from the intertwiner.

    The system is a snapshot: ``memo`` keeps what is derived from it (the
    bicoherent convergence disc and kernel filter), so its arrays must not
    be mutated in place.  They are read-only views of the arrays it was
    given, which the system neither copies nor locks.
    """

    phi: np.ndarray
    psi: np.ndarray
    pairing: np.ndarray

    def __post_init__(self):
        phi = as_matrix(self.phi)
        psi = as_matrix(self.psi)
        if phi.shape != psi.shape:
            raise DimensionError("phi and psi families must have equal shapes")
        pairing = np.asarray(self.pairing, dtype=float)
        if pairing.shape != (phi.shape[1],):
            raise DimensionError("one pairing constant per column")
        object.__setattr__(self, "phi", read_only(phi))
        object.__setattr__(self, "psi", read_only(psi))
        object.__setattr__(self, "pairing", read_only(pairing))

    @cached_property
    def memo(self) -> dict:
        """Quantities derived from this snapshot, keyed by their inputs."""
        return {}

    @property
    def size(self) -> int:
        """Number of vector pairs."""
        return self.phi.shape[1]

    @property
    def dim(self) -> int:
        """Dimension of the ambient space."""
        return self.phi.shape[0]

    def columns(self, index) -> "BiorthogonalSystem":
        """The sub-system of the columns ``index`` (a slice or an index list)."""
        return BiorthogonalSystem(
            phi=self.phi[:, index], psi=self.psi[:, index], pairing=self.pairing[index]
        )

    def pairing_defect(self) -> float:
        """max |<phi_k, psi_n> - pairing[n] delta_kn| over all k, n."""
        gram = self.phi.conj().T @ self.psi
        return float(np.max(np.abs(gram - np.diag(self.pairing))))
