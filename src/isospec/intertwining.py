"""Partner-operator construction from a seed operator and an intertwiner.

Given a seed Theta1 on C^d1 and an intertwiner X: C^d2 -> C^d1, builds the
partner Theta2 on C^d2 satisfying X Theta2 = Theta1 X under one of three
regimes, transports the eigensystem through X-adjoint, detects kernel
losses, and verifies every algebraic relation the construction promises.

Shape convention: X has shape (d1, d2) so that X @ Theta2 and Theta1 @ X
both type-check.  N1 = X X-adjoint lives on the seed side, N2 = X-adjoint X
on the partner side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    ParameterError,
    RegimeError,
)
from .linalg import (
    KERNEL_TOL,
    MULTIPLICITY_TOL,
    BiorthogonalSystem,
    Decision,
    Eigensystem,
    SpectralNorm,
    _eig,
    _pairwise_gaps,
    _require_simple,
    as_matrix,
    biorthogonal_partner,
    certified_ratio,
    column_defects,
    opnorm,
)

# Relative tolerance for the numerical commutation / relation checks.
RELATION_TOL = 1e-9

# The operands of a model, each with one SpectralNorm (IntertwiningModel.norms).
_OPERANDS = ("theta1", "x", "n1", "n2", "theta2")

CASE_INVERTIBLE = "Invertible"
CASE_INVERTIBLE_COMMUTING = "InvertibleCommuting"
CASE_NONINVERTIBLE = "NonInvertible"


def _check_shapes(theta1: np.ndarray, x: np.ndarray) -> None:
    if theta1.shape[0] != theta1.shape[1]:
        raise DimensionError(f"seed operator must be square, got {theta1.shape}")
    if x.shape[0] != theta1.shape[0]:
        raise DimensionError(
            f"intertwiner rows ({x.shape[0]}) must match seed dimension "
            f"({theta1.shape[0]}): X maps the partner space into the seed space"
        )
    d1, d2 = x.shape
    if d2 > d1:
        # X-adjoint X has rank at most d1 < d2, which the d1 singular values of X
        # cannot show: refused by shape, before X is factorized
        raise RegimeError(
            f"a non-invertible model needs a strictly tall X, got {d1}x{d2}: "
            "a wide X never has strictly positive N2 = X-adjoint X"
        )


def _singular_values(r, tol: float) -> np.ndarray:
    """Singular values of a square or tall X, from the square top of the R of a QR
    of X (any mode), after the one rank rule: full column rank, sigma_min > tol * sigma_max.
    """
    d2 = r.shape[1]
    s = np.linalg.svd(r[:d2], compute_uv=False)
    ratio = s[-1] / s[0] if s[0] > 0 else 0.0
    if not ratio > tol:
        raise RegimeError(
            f"X lacks full column rank: sigma_min/sigma_max = {ratio:.3e} is not above "
            f"{tol:.1e}, so N2 = X-adjoint X is numerically singular, not strictly "
            "positive, and no regime applies"
        )
    return s


def _classify(theta1, n1, square: bool, tol: float):
    """Regime of validated (Theta1, X), X of full column rank with Gram N1 = X X-adjoint.

    Returns (case, norms): ``norms`` maps operand names to the SpectralNorms
    classification bounded.
    """
    norms = {"n1": SpectralNorm(n1), "theta1": SpectralNorm(theta1)}
    # an overflowed commutator ends in opnorm's NumericalError, not in a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        commutator = n1 @ theta1 - theta1 @ n1
    comm = certified_ratio(commutator, (norms["n1"], norms["theta1"]), tol)
    if square:
        return (CASE_INVERTIBLE_COMMUTING if comm.passed else CASE_INVERTIBLE), norms
    if not comm.passed:
        raise RegimeError(
            f"[N1, Theta1] relative norm {comm} exceeds {tol:.1e}; the "
            "non-invertible regime needs the seed to commute with N1"
        )
    return CASE_NONINVERTIBLE, norms


def classify(theta1, x, tol: float = RELATION_TOL) -> str:
    """Decide which construction regime applies to (Theta1, X).

    A wide X is refused by its shape; any other X must have full column
    rank, sigma_min > tol*sigma_max.  A square X is then Invertible, and
    additionally InvertibleCommuting when [X X-adjoint, Theta1] vanishes
    relative to the operand norms.  A strictly tall X needs [N1, Theta1] = 0
    (NonInvertible regime); anything else is refused.
    """
    theta1 = as_matrix(theta1)
    x = as_matrix(x)
    _check_shapes(theta1, x)
    n1 = as_matrix(x @ x.conj().T)
    _singular_values(np.linalg.qr(x, mode="r"), tol)
    return _classify(theta1, n1, x.shape[0] == x.shape[1], tol)[0]


def _partner(m, x, q, r) -> np.ndarray:
    """X^+ m X = R^{-1} Q_r-adjoint m X for X of full column rank d2, from a QR of X,
    complete or reduced: Q_r is the first d2 columns of Q, R[:d2] the square top of R.

    For a square X this is X^{-1} m X; for a tall one, N2^{-1} X-adjoint m X,
    without the normal equations, whose error grows with cond(X)^2.
    """
    d2 = x.shape[1]
    # an overflowed product ends in opnorm's NumericalError, not in a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.solve(r[:d2], q[:, :d2].conj().T @ m @ x)


def _transport(phi1, xh, tol: float):
    """(phi2, kernel_set, tilde_k) of the columns ``phi1``."""
    if xh.shape[1] != phi1.shape[0]:
        raise DimensionError("intertwiner rows must match the seed space dimension")
    phi2 = xh @ phi1
    norms1 = np.linalg.norm(phi1, axis=0)
    norms2 = np.linalg.norm(phi2, axis=0)
    kernel_mask = norms2 <= tol * norms1
    tilde_k = np.where(kernel_mask, 0.0, (norms2 / norms1) ** 2)
    kernel_set = tuple(int(n) for n in np.nonzero(kernel_mask)[0])
    return phi2, kernel_set, tilde_k


@dataclass(frozen=True)
class RelationReport:
    """Named relation decisions under a single pass threshold.

    ``skipped`` maps relation names to the reason they do not apply to the
    model at hand; ``details`` carries auxiliary non-residual payloads.
    """

    decisions: dict[str, Decision]
    tolerance: float
    skipped: dict[str, str] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def residuals(self) -> dict[str, float]:
        return {name: d.value for name, d in self.decisions.items()}

    @property
    def bounded(self) -> frozenset[str]:
        """The names whose residual is a bound (``certified_ratio``)."""
        return frozenset(name for name, d in self.decisions.items() if d.bounded)

    @property
    def all_passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return [name for name, d in self.decisions.items() if not d.passed]

    def to_jsonable(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "residuals": dict(sorted(self.residuals.items())),
            "skipped": dict(sorted(self.skipped.items())),
            "bounded": sorted(self.bounded),
            "all_passed": self.all_passed,
        }

    def __str__(self) -> str:
        lines = [self.decisions[name].row(name) for name in sorted(self.decisions)]
        for name in sorted(self.skipped):
            lines.append(f"{name:32s} {'skipped':>12s}  ({self.skipped[name]})")
        lines.append(f"tolerance: {self.tolerance:.1e}")
        return "\n".join(lines)


@dataclass(frozen=True)
class IntertwiningModel:
    """The full construction: operators, regime tag, and transported eigendata.

    ``kernel_set`` indexes (0-based, in eigenvalue order) the seed
    eigenvectors annihilated by X-adjoint; their eigenvalues are absent
    from the partner spectrum.  ``tilde_k`` is 0.0 on kernel indices.

    The model is a snapshot: ``norms`` bounds each operand's spectral norm
    once, and takes the exact value (``norms[name].exact``) only when a
    decision falls back to it, so its arrays must not be mutated in place.
    """

    theta1: np.ndarray
    x: np.ndarray
    theta2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    case: str
    values: np.ndarray
    phi1: np.ndarray
    psi1: np.ndarray
    phi2: np.ndarray
    psi2: np.ndarray
    kernel_set: tuple[int, ...]
    tilde_k: np.ndarray

    @cached_property
    def norms(self) -> dict[str, SpectralNorm]:
        return {name: SpectralNorm(getattr(self, name)) for name in _OPERANDS}

    @property
    def commuting(self) -> bool:
        return self.case in (CASE_INVERTIBLE_COMMUTING, CASE_NONINVERTIBLE)

    @property
    def survivors(self) -> tuple[int, ...]:
        return tuple(n for n in range(len(self.values)) if n not in self.kernel_set)

    def system1(self) -> BiorthogonalSystem:
        """Level-1 system: seed eigenvectors with unit pairing."""
        return BiorthogonalSystem(phi=self.phi1, psi=self.psi1, pairing=np.ones(len(self.values)))

    def system2(self, include_kernel: bool = False) -> BiorthogonalSystem:
        """Level-2 system: transported families with pairing tilde_k.

        With ``include_kernel`` the zero columns stay in place (pairing 0),
        which is the input shape the kernel-filtering construction expects.
        """
        if not self.commuting:
            raise RegimeError(
                "level-2 biorthogonal structure requires a commuting regime"
            )
        transported = BiorthogonalSystem(phi=self.phi2, psi=self.psi2, pairing=self.tilde_k)
        idx = range(len(self.values)) if include_kernel else self.survivors
        return transported.columns(list(idx))


def build_model(
    theta1,
    x,
    *,
    relation_tol: float = RELATION_TOL,
    kernel_tol: float = KERNEL_TOL,
    multiplicity_tolerance: float = MULTIPLICITY_TOL,
    eigensystem: Eigensystem | None = None,
) -> IntertwiningModel:
    """Classify, build the partner, and transport the eigensystem.

    ``eigensystem`` lets fixtures supply exact eigendata (their own
    normalization and ordering); by default the seed is diagonalized here,
    a non-invertible one on range(X) and ker(X-adjoint) separately.
    Either way the spectrum counts as simple only if every pairwise
    eigenvalue gap exceeds ``multiplicity_tolerance``.  Past the rank rule
    of ``classify``, sigma_min(X) must exceed ``kernel_tol``, or the
    absolute kernel test would file surviving modes as kernel losses.
    """
    theta1 = as_matrix(theta1)
    x = as_matrix(x)
    _check_shapes(theta1, x)
    # N1 = X X-adjoint and N2 = X-adjoint X; an overflowed Gram is refused
    xh = x.conj().T
    n1, n2 = as_matrix(x @ xh), as_matrix(xh @ x)
    # Q = [Q_r | Q_k]: Q_r spans range(X), Q_k ker(X-adjoint).  In the non-invertible
    # regime [N1, Theta1] = 0 makes both invariant under Theta1: the modes of the
    # first survive into Theta2, those of the second are the kernel losses
    q, r = np.linalg.qr(x, mode="complete")
    s = _singular_values(r, relation_tol)
    if not s[-1] > kernel_tol:
        # a surviving mode has ||X-adjoint phi|| >= sigma_min ||phi||
        raise RegimeError(
            f"sigma_min(X) = {s[-1]:.3e} is not above the kernel tolerance "
            f"{kernel_tol:.1e}: the kernel test ||X-adjoint phi|| <= kernel_tol ||phi|| "
            "cannot tell a surviving mode from a kernel loss"
        )
    case, norms = _classify(theta1, n1, x.shape[0] == x.shape[1], relation_tol)
    theta2 = _partner(theta1, x, q, r)
    if eigensystem is None:
        split = (q, x.shape[1]) if case == CASE_NONINVERTIBLE else None
        eigensystem = _eig(theta1, norms["theta1"], split)
    _require_simple(eigensystem.values, multiplicity_tolerance)
    psi1 = biorthogonal_partner(eigensystem.vectors)
    phi2, kernel_set, tilde_k = _transport(eigensystem.vectors, xh, kernel_tol)
    model = IntertwiningModel(
        theta1=theta1,
        x=x,
        theta2=theta2,
        n1=n1,
        n2=n2,
        case=case,
        values=eigensystem.values,
        phi1=eigensystem.vectors,
        psi1=psi1,
        phi2=phi2,
        psi2=xh @ psi1,
        kernel_set=kernel_set,
        tilde_k=tilde_k,
    )
    # the norms classification bounded, and any SVD it took, carry over
    model.norms.update(norms)
    return model


def _worst_defect(op, vectors, values) -> float:
    """max_n ||op v_n - values_n v_n|| / ||v_n|| over the columns v_n of ``vectors``."""
    return float(column_defects(op, vectors, values).max(initial=0.0))


def verify_relations(model: IntertwiningModel, tol: float = RELATION_TOL) -> RelationReport:
    """Residuals for every relation the construction promises.

    Relations that require the commuting hypothesis are skipped (with a
    reason) on a plain-Invertible model rather than reported as failures.
    A relative residual may be a bound (``certified_ratio``): see ``Decision``.
    """
    t1, t2, x = model.theta1, model.theta2, model.x
    xh = x.conj().T
    n1, n2 = model.n1, model.n2
    nt1, nx, nn1, nn2, nt2 = (model.norms[name] for name in _OPERANDS)
    found: dict[str, Decision] = {}
    skipped: dict[str, str] = {}

    def rel(num, *den, floor=1e-300):
        return certified_ratio(num, den, tol, floor)

    # a product or power that overflows ends in opnorm's NumericalError, not in a
    # RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        found["intertwine"] = rel(x @ t2 - t1 @ x, nt1, nx)
        found["intertwine_n"] = rel(x @ n2 - n1 @ x, nn1, nx)
        tp1, tp2 = t1, t2
        for n in range(2, 5):
            tp1, tp2 = tp1 @ t1, tp2 @ t2
            found[f"intertwine_power_{n}"] = rel(x @ tp2 - tp1 @ x, SpectralNorm(tp1), nx)

    gram1 = model.phi1.conj().T @ model.psi1 - np.eye(len(model.values))
    found["pairing_level1"] = Decision(float(np.max(np.abs(gram1))), tol)
    found["psi1_eigen"] = rel(_worst_defect(t1.conj().T, model.psi1, np.conj(model.values)), nt1)

    if model.commuting:
        found["intertwine_adjoint_side"] = rel(t2 @ xh - xh @ t1, nt1, nx)
        found["intertwine_dagger"] = rel(x @ t2.conj().T - t1.conj().T @ x, nt1, nx)
        found["commute_n2_theta2"] = rel(n2 @ t2 - t2 @ n2, nn2, nt2)

        gram2 = model.phi2.conj().T @ model.psi2
        target = np.diag(model.tilde_k)
        kscale = max(1.0, float(np.max(model.tilde_k, initial=0.0)))
        found["pairing_level2"] = Decision(float(np.max(np.abs(gram2 - target))) / kscale, tol)

        alive = list(model.survivors)
        values, tilde_k = model.values[alive], model.tilde_k[alive]
        phi1, phi2, psi2 = model.phi1[:, alive], model.phi2[:, alive], model.psi2[:, alive]
        found["theta2_eigen"] = rel(_worst_defect(t2, phi2, values), nt2)
        found["psi2_eigen"] = rel(_worst_defect(t2.conj().T, psi2, np.conj(values)), nt2)

        if model.kernel_set:
            dead = list(model.kernel_set)
            norms = {
                name: np.linalg.norm(getattr(model, name)[:, dead], axis=0)
                for name in ("phi1", "phi2", "psi1", "psi2")
            }
            found["kernel_phi2_zero"] = Decision(float(np.max(norms["phi2"] / norms["phi1"])), tol)
            found["kernel_psi2_zero"] = Decision(float(np.max(norms["psi2"] / norms["psi1"])), tol)
        else:
            skipped["kernel_phi2_zero"] = "kernel set empty"
            skipped["kernel_psi2_zero"] = "kernel set empty"

        nr = max(_worst_defect(n1, phi1, tilde_k), _worst_defect(n2, phi2, tilde_k))
        found["n_eigen"] = rel(nr, nn1, floor=1.0)
    else:
        for name in (
            "intertwine_adjoint_side",
            "intertwine_dagger",
            "commute_n2_theta2",
            "pairing_level2",
            "psi2_eigen",
            "n_eigen",
        ):
            skipped[name] = "requires the commuting hypothesis [N1, Theta1] = 0"
        # similarity regime: partner eigenvectors come from X inverse
        phit = np.linalg.solve(x, model.phi1)
        found["theta2_eigen"] = rel(_worst_defect(t2, phit, model.values), nt2)
    return RelationReport(found, tol, skipped)


def structure_check(model: IntertwiningModel, tol: float = RELATION_TOL) -> RelationReport:
    """Structure checks for the non-invertible regime.

    (i) [N2, Theta2] = 0 always; (ii) a self-adjoint seed forces a
    self-adjoint partner; (iii) the converse needs N1 strictly positive,
    but N1 = X X-adjoint always has rank d2 < d1 here, so (iii) and the
    N-inverse identities are reported as skipped, as is (ii) when the seed
    is not self-adjoint.  A model whose X is not strictly tall is refused.
    """
    if model.case != CASE_NONINVERTIBLE:
        raise RegimeError("structure checks target the non-invertible regime")
    d1, d2 = model.x.shape
    if d2 >= d1:
        raise RegimeError(f"a non-invertible model needs a strictly tall X, got {d1}x{d2}")
    t1, t2, n2 = model.theta1, model.theta2, model.n2
    nt1, nn2, nt2 = (model.norms[name] for name in ("theta1", "n2", "theta2"))
    found: dict[str, Decision] = {}
    skipped: dict[str, str] = {}

    found["commutator_n2_theta2"] = certified_ratio(n2 @ t2 - t2 @ n2, (nn2, nt2), tol)
    sa1 = certified_ratio(t1 - t1.conj().T, (nt1,), tol, 1.0)
    sa2 = certified_ratio(t2 - t2.conj().T, (nt2,), tol, 1.0)
    if sa1.passed:
        found["theta2_self_adjoint"] = sa2
    else:
        skipped["theta2_self_adjoint"] = f"seed not self-adjoint (defect {sa1})"

    reason = "N1 not strictly positive"
    if not sa2.passed:
        reason = f"partner not self-adjoint (defect {sa2}); {reason}"
    skipped["theta1_self_adjoint"] = reason
    skipped["n_inverse_intertwine"] = "N1 singular"
    skipped["theta1_reconstruction"] = "N1 singular"
    return RelationReport(found, tol, skipped)


def adjoint_descent(model: IntertwiningModel) -> float:
    """||X^+ Theta1-adjoint X - Theta2-adjoint|| (relative).

    Building the partner of the adjoint seed and taking the adjoint of the
    partner must agree; returns the exact relative difference norm.
    """
    if model.case != CASE_NONINVERTIBLE:
        raise RegimeError("adjoint-descent comparison targets the non-invertible regime")
    lifted = _partner(model.theta1.conj().T, model.x, *np.linalg.qr(model.x))
    return opnorm(lifted - model.theta2.conj().T) / max(1.0, model.norms["theta2"].exact)


def _plant(dim1: int, dim2: int, seed: int, sigma=None, hermitian: bool = False):
    """(Theta1, X, exact partner) from factors drawn in a fixed order: W and V Haar
    (QRs of complex Gaussians, diag(R) made positive; Mezzadri, Notices AMS 54, 2007),
    sigma uniform on [1, 4] unless given, lam (real when ``hermitian``) and a Gaussian
    (dim1 - dim2)-square B (its Hermitian part when ``hermitian``).  X = W_r diag(sigma)
    V-adjoint and Theta1 = W (diag(lam) + B) W-adjoint, so N1 has the eigenbasis W and
    X (V diag(lam) V-adjoint) = Theta1 X.  A draw whose spectrum lam + eig(B) is not
    simple is drawn again."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def haar(n):
        q, r = np.linalg.qr(gauss(n, n))
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    for _ in range(64):
        w, v = haar(dim1), haar(dim2)
        s = rng.uniform(1.0, 4.0, dim2) if sigma is None else sigma
        lam = rng.standard_normal(dim2) if hermitian else gauss(dim2)
        b = gauss(dim1 - dim2, dim1 - dim2)
        if hermitian:
            b = (b + b.conj().T) / 2
        if np.all(_pairwise_gaps(np.concatenate([lam, np.linalg.eigvals(b)])) > 1e-6):
            wr, wk = w[:, :dim2], w[:, dim2:]
            theta1 = (wr * lam) @ wr.conj().T + wk @ b @ wk.conj().T
            if hermitian:
                theta1 = (theta1 + theta1.conj().T) / 2
            return theta1, (wr * s) @ v.conj().T, (v * lam) @ v.conj().T
    raise NumericalError("could not draw a simple-spectrum commuting pair in 64 tries")


def make_commuting_pair(dim1: int, dim2: int, seed: int, hermitian: bool = False):
    """Random (Theta1, X) in the non-invertible regime, planted by ``_plant``: cond(X)
    <= 4, [N1, Theta1] = 0 up to rounding, a simple spectrum, and dim1 - dim2 modes in
    the kernel of X-adjoint.  ``hermitian`` makes Theta1 self-adjoint."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    if not 1 <= dim2 < dim1:
        raise DimensionError(f"need dim1 > dim2 >= 1, got {dim1}x{dim2}: a square X is invertible "
                             "or fails strict positivity of N2 (no-go), a wide one always fails it")
    return _plant(dim1, dim2, seed, hermitian=hermitian)[:2]
