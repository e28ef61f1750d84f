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
    KernelError,
    NumericalError,
    RegimeError,
    SingularityError,
    SpectrumError,
)
from .linalg import (
    KERNEL_TOL,
    MULTIPLICITY_TOL,
    RANK_TOL,
    BiorthogonalSystem,
    Eigensystem,
    _eig,
    _pairwise_gaps,
    _strictly_positive,
    as_matrix,
    biorthogonal_partner,
    opnorm,
)

# Relative tolerance for the numerical commutation / relation checks.
RELATION_TOL = 1e-9
# k-tilde values closer than this are reported as one degeneracy class.
DEGENERACY_TOL = 1e-8

CASE_INVERTIBLE = "Invertible"
CASE_INVERTIBLE_COMMUTING = "InvertibleCommuting"
CASE_NONINVERTIBLE = "NonInvertible"


def _rel_comm(a: np.ndarray, b: np.ndarray, norm_a: float, norm_b: float) -> float:
    """||[A,B]|| relative to ||A|| ||B||, given those two norms."""
    scale = norm_a * norm_b
    if scale == 0.0:
        return 0.0
    return opnorm(a @ b - b @ a) / scale


def _check_shapes(theta1: np.ndarray, x: np.ndarray) -> None:
    if theta1.shape[0] != theta1.shape[1]:
        raise DimensionError(f"seed operator must be square, got {theta1.shape}")
    if x.shape[0] != theta1.shape[0]:
        raise DimensionError(
            f"intertwiner rows ({x.shape[0]}) must match seed dimension "
            f"({theta1.shape[0]}): X maps the partner space into the seed space"
        )


def _grams(x: np.ndarray):
    """X-adjoint, N1 = X X-adjoint and N2 = X-adjoint X; an overflowed Gram is refused."""
    xh = x.conj().T
    return xh, as_matrix(x @ xh), as_matrix(xh @ x)


def _noninvertible_preconditions(theta1, n1, n2, tol: float) -> dict:
    """Check N2 > 0 and [N1, Theta1] = 0; return the operand norms measured."""
    n2_norm = opnorm(n2)
    if not _strictly_positive(n2, n2_norm, tol):
        raise RegimeError(
            "N2 = X-adjoint X is not strictly positive; the non-invertible "
            "regime needs full column rank"
        )
    norms = {"n2_norm": n2_norm, "n1_norm": opnorm(n1), "theta1_norm": opnorm(theta1)}
    comm = _rel_comm(n1, theta1, norms["n1_norm"], norms["theta1_norm"])
    if comm > tol:
        raise RegimeError(
            f"[N1, Theta1] relative norm {comm:.3e} exceeds {tol:.1e}; the "
            "non-invertible regime needs the seed to commute with N1"
        )
    return norms


def _classify(theta1, x, n1, n2, tol: float):
    """Regime of validated (Theta1, X) with Grams N1, N2.

    Returns (case, norms, s): ``norms`` maps IntertwiningModel norm names to
    the operand norms classification measured, and ``s`` holds the singular
    values of a square X (None for rectangular X).
    """
    d1, d2 = x.shape
    if d1 != d2:
        return CASE_NONINVERTIBLE, _noninvertible_preconditions(theta1, n1, n2, tol), None
    s = np.linalg.svd(x, compute_uv=False)
    if not (s[0] > 0 and s[-1] > tol * s[0]):
        raise RegimeError(
            "square X is singular: a square non-invertible intertwiner cannot "
            "have strictly positive N2 = X-adjoint X, so no regime applies "
            "(finite-dimensional no-go)"
        )
    norms = {"n1_norm": opnorm(n1), "theta1_norm": opnorm(theta1)}
    if _rel_comm(n1, theta1, norms["n1_norm"], norms["theta1_norm"]) <= tol:
        return CASE_INVERTIBLE_COMMUTING, norms, s
    return CASE_INVERTIBLE, norms, s


def classify(theta1, x, tol: float = RELATION_TOL) -> str:
    """Decide which construction regime applies to (Theta1, X).

    Square X with sigma_min > tol*sigma_max is Invertible, and additionally
    InvertibleCommuting when [X X-adjoint, Theta1] vanishes relative to the
    operand norms.  Rectangular X needs N2 = X-adjoint X strictly positive
    and [N1, Theta1] = 0 (NonInvertible regime); anything else is refused.
    """
    theta1 = as_matrix(theta1)
    x = as_matrix(x)
    _check_shapes(theta1, x)
    _, n1, n2 = _grams(x)
    return _classify(theta1, x, n1, n2, tol)[0]


def _similarity_partner(theta1, x, s) -> np.ndarray:
    """X^{-1} Theta1 X for square X with singular values ``s``."""
    if s[0] == 0 or s[-1] <= RANK_TOL * s[0]:
        raise SingularityError("X is numerically singular; similarity unavailable")
    return np.linalg.solve(x, theta1 @ x)


def _noninvertible_partner(theta1, x, xh, n2) -> np.ndarray:
    """N2^{-1} (X-adjoint Theta1 X)."""
    return np.linalg.solve(n2, xh @ theta1 @ x)


def build_case1(theta1, x) -> np.ndarray:
    """Partner by similarity: Theta2 = X^{-1} Theta1 X (invertible X)."""
    theta1 = as_matrix(theta1)
    x = as_matrix(x)
    _check_shapes(theta1, x)
    if x.shape[0] != x.shape[1]:
        raise SingularityError(f"similarity construction needs square X, got {x.shape}")
    return _similarity_partner(theta1, x, np.linalg.svd(x, compute_uv=False))


def build_case3(theta1, x, tol: float = RELATION_TOL) -> np.ndarray:
    """Partner for non-invertible X: Theta2 = N2^{-1} (X-adjoint Theta1 X).

    Preconditions checked numerically: N2 strictly positive and
    [N1, Theta1] = 0 within tol; violations raise RegimeError naming the
    failed condition.
    """
    theta1 = as_matrix(theta1)
    x = as_matrix(x)
    _check_shapes(theta1, x)
    xh, n1, n2 = _grams(x)
    _noninvertible_preconditions(theta1, n1, n2, tol)
    return _noninvertible_partner(theta1, x, xh, n2)


@dataclass(frozen=True)
class MappedEigensystem:
    """Seed eigenvectors pushed through X-adjoint.

    ``tilde_k`` holds the squared norm ratios (0.0 on kernel indices);
    ``n1_residuals``/``n2_residuals`` are the relative eigen-equation
    defects of N1 and N2 on each surviving pair (NaN on kernel indices).
    ``degeneracy_classes`` groups surviving indices with matching tilde_k:
    singleton classes mean the corresponding seed eigenvectors are forced
    mutually orthogonal, larger classes mean they need not be.
    """

    phi2: np.ndarray
    kernel_set: tuple[int, ...]
    tilde_k: np.ndarray
    n1_residuals: np.ndarray
    n2_residuals: np.ndarray
    degeneracy_classes: tuple[tuple[int, ...], ...]


def map_eigensystem(x, eigensystem: Eigensystem, tol: float = KERNEL_TOL) -> MappedEigensystem:
    """phi2_n = X-adjoint phi1_n, kernel detection, and tilde_k extraction."""
    x = as_matrix(x)
    if not eigensystem.simple_spectrum:
        raise SpectrumError(
            "eigensystem has (numerically) repeated eigenvalues; refusing to "
            "transport a non-simple spectrum"
        )
    phi1 = eigensystem.vectors
    xh = x.conj().T
    phi2, kernel_set, tilde_k, classes = _transport(phi1, xh, tol)
    alive = np.ones(phi1.shape[1], dtype=bool)
    alive[list(kernel_set)] = False
    res1 = np.full(phi1.shape[1], np.nan)
    res2 = np.full(phi1.shape[1], np.nan)
    p1, p2, k = phi1[:, alive], phi2[:, alive], tilde_k[alive]
    # norms of the whole families, then indexed: a column's norm rounds by layout
    norms1 = np.linalg.norm(phi1, axis=0)[alive]
    norms2 = np.linalg.norm(phi2, axis=0)[alive]
    res1[alive] = np.linalg.norm((x @ xh) @ p1 - p1 * k, axis=0) / norms1
    res2[alive] = np.linalg.norm((xh @ x) @ p2 - p2 * k, axis=0) / norms2
    return MappedEigensystem(
        phi2=phi2,
        kernel_set=kernel_set,
        tilde_k=tilde_k,
        n1_residuals=res1,
        n2_residuals=res2,
        degeneracy_classes=classes,
    )


def _transport(phi1, xh, tol: float):
    """(phi2, kernel_set, tilde_k, degeneracy_classes) of the columns ``phi1``."""
    if xh.shape[1] != phi1.shape[0]:
        raise DimensionError("intertwiner rows must match the seed space dimension")
    phi2 = xh @ phi1
    norms1 = np.linalg.norm(phi1, axis=0)
    norms2 = np.linalg.norm(phi2, axis=0)
    kernel_mask = norms2 <= tol * norms1
    tilde_k = np.where(kernel_mask, 0.0, (norms2 / norms1) ** 2)
    classes: list[list[int]] = []
    for n in np.flatnonzero(~kernel_mask).tolist():
        for cls in classes:
            if abs(tilde_k[n] - tilde_k[cls[0]]) <= DEGENERACY_TOL:
                cls.append(n)
                break
        else:
            classes.append([n])
    kernel_set = tuple(int(n) for n in np.nonzero(kernel_mask)[0])
    return phi2, kernel_set, tilde_k, tuple(tuple(c) for c in classes)


def inverse_map(x, phi2, tilde_k, phi1=None):
    """Recover seed eigenvectors: phi1_n = (1/tilde_k_n) X phi2_n.

    Returns (reconstruction, residuals); residuals are relative column
    defects against ``phi1`` when provided, else None.
    """
    x = as_matrix(x)
    phi2 = as_matrix(phi2)
    tilde_k = np.asarray(tilde_k, dtype=float)
    if np.any(tilde_k <= 0):
        bad = int(np.argmin(tilde_k))
        raise KernelError(
            f"tilde_k[{bad}] = {tilde_k[bad]} is not positive; kernel indices "
            "cannot be inverted"
        )
    recon = (x @ phi2) / tilde_k[np.newaxis, :]
    residuals = None
    if phi1 is not None:
        phi1 = as_matrix(phi1)
        diff = np.linalg.norm(recon - phi1, axis=0)
        residuals = diff / np.linalg.norm(phi1, axis=0)
    return recon, residuals


@dataclass(frozen=True)
class RelationReport:
    """Named relative residuals with a single pass threshold.

    ``skipped`` maps relation names to the reason they do not apply to the
    model at hand; ``details`` carries auxiliary non-residual payloads.
    """

    residuals: dict[str, float]
    tolerance: float
    skipped: dict[str, str] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v <= self.tolerance for v in self.residuals.values())

    def failures(self) -> list[str]:
        return [k for k, v in self.residuals.items() if v > self.tolerance]

    def to_jsonable(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "residuals": dict(sorted(self.residuals.items())),
            "skipped": dict(sorted(self.skipped.items())),
            "all_passed": self.all_passed,
        }

    def __str__(self) -> str:
        lines = []
        for name in sorted(self.residuals):
            value = self.residuals[name]
            verdict = "PASS" if value <= self.tolerance else "FAIL"
            lines.append(f"{name:32s} {value:12.3e}  {verdict}")
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

    The model is a snapshot: the spectral norms ``theta1_norm``,
    ``x_norm``, ``n1_norm``, ``n2_norm`` and ``theta2_norm`` are each
    computed once, on first use (or seeded by ``build_model``), so its
    arrays must not be mutated in place.
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
    degeneracy_classes: tuple[tuple[int, ...], ...] = ()

    @cached_property
    def theta1_norm(self) -> float:
        return opnorm(self.theta1)

    @cached_property
    def x_norm(self) -> float:
        return opnorm(self.x)

    @cached_property
    def n1_norm(self) -> float:
        return opnorm(self.n1)

    @cached_property
    def n2_norm(self) -> float:
        return opnorm(self.n2)

    @cached_property
    def theta2_norm(self) -> float:
        return opnorm(self.theta2)

    @property
    def commuting(self) -> bool:
        return self.case in (CASE_INVERTIBLE_COMMUTING, CASE_NONINVERTIBLE)

    @property
    def survivors(self) -> tuple[int, ...]:
        return tuple(n for n in range(len(self.values)) if n not in self.kernel_set)

    def system1(self) -> BiorthogonalSystem:
        """Level-1 system: seed eigenvectors with unit pairing."""
        return BiorthogonalSystem(
            phi=self.phi1,
            psi=self.psi1,
            values=self.values,
            pairing=np.ones(len(self.values)),
        )

    def system2(self, include_kernel: bool = False) -> BiorthogonalSystem:
        """Level-2 system: transported families with pairing tilde_k.

        With ``include_kernel`` the zero columns stay in place (pairing 0),
        which is the input shape the kernel-filtering construction expects.
        """
        if not self.commuting:
            raise RegimeError(
                "level-2 biorthogonal structure requires a commuting regime"
            )
        if include_kernel:
            idx = list(range(len(self.values)))
        else:
            idx = list(self.survivors)
        return BiorthogonalSystem(
            phi=self.phi2[:, idx],
            psi=self.psi2[:, idx],
            values=self.values[idx],
            pairing=self.tilde_k[idx],
        )

    def to_jsonable(self) -> dict:
        from .io import matrix_to_jsonable

        return {
            "schema": "isospec-model-v1",
            "theta1": matrix_to_jsonable(self.theta1),
            "X": matrix_to_jsonable(self.x),
            "theta2": matrix_to_jsonable(self.theta2),
            "case": self.case,
            "kernel_set": list(self.kernel_set),
            "tilde_k": [float(v) for v in self.tilde_k],
            "residuals": verify_relations(self).to_jsonable()["residuals"],
        }


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
    normalization and ordering); by default the seed is diagonalized here.
    Either way the spectrum counts as simple only if every pairwise
    eigenvalue gap exceeds ``multiplicity_tolerance``.
    """
    theta1 = as_matrix(theta1)
    x = as_matrix(x)
    _check_shapes(theta1, x)
    xh, n1, n2 = _grams(x)
    case, norms, s = _classify(theta1, x, n1, n2, relation_tol)
    if case == CASE_NONINVERTIBLE:
        theta2 = _noninvertible_partner(theta1, x, xh, n2)
    else:
        theta2 = _similarity_partner(theta1, x, s)
    if eigensystem is None:
        eigensystem = _eig(theta1, multiplicity_tolerance, norms["theta1_norm"])
    if np.any(_pairwise_gaps(eigensystem.values) <= multiplicity_tolerance):
        raise SpectrumError(
            "seed spectrum is not simple at the configured multiplicity "
            "tolerance; near-degenerate eigenvalues are never merged"
        )
    psi1 = biorthogonal_partner(eigensystem.vectors)
    phi2, kernel_set, tilde_k, classes = _transport(eigensystem.vectors, xh, kernel_tol)
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
        degeneracy_classes=classes,
    )
    # the cached norms are still unset: seed those classification measured
    model.__dict__.update(norms)
    return model


def _rel(num, scale):
    return num / np.maximum(scale, 1e-300)


def _worst_column(op, vectors, values, scale: float) -> float:
    """max_n ||op v_n - values_n v_n|| / (scale ||v_n||) over the columns v_n (0.0 if none)."""
    defect = np.linalg.norm(op @ vectors - vectors * values, axis=0)
    return float(np.max(_rel(defect, scale * np.linalg.norm(vectors, axis=0)), initial=0.0))


def verify_relations(model: IntertwiningModel, tol: float = RELATION_TOL) -> RelationReport:
    """Residuals for every relation the construction promises.

    Relations that require the commuting hypothesis are skipped (with a
    reason) on a plain-Invertible model rather than reported as failures.
    """
    t1, t2, x = model.theta1, model.theta2, model.x
    xh = x.conj().T
    n1, n2 = model.n1, model.n2
    st = model.theta1_norm
    sx = model.x_norm
    residuals: dict[str, float] = {}
    skipped: dict[str, str] = {}

    residuals["intertwine"] = _rel(opnorm(x @ t2 - t1 @ x), st * sx)
    residuals["intertwine_n"] = _rel(opnorm(x @ n2 - n1 @ x), model.n1_norm * sx)
    tp1, tp2 = t1, t2
    for n in range(2, 5):
        tp1 = tp1 @ t1
        tp2 = tp2 @ t2
        residuals[f"intertwine_power_{n}"] = _rel(opnorm(x @ tp2 - tp1 @ x), opnorm(tp1) * sx)

    gram1 = model.phi1.conj().T @ model.psi1
    residuals["pairing_level1"] = float(np.max(np.abs(gram1 - np.eye(gram1.shape[0]))))
    residuals["psi1_eigen"] = _worst_column(t1.conj().T, model.psi1, np.conj(model.values), st)

    st2 = model.theta2_norm
    if model.commuting:
        residuals["intertwine_adjoint_side"] = _rel(opnorm(t2 @ xh - xh @ t1), st * sx)
        residuals["intertwine_dagger"] = _rel(
            opnorm(x @ t2.conj().T - t1.conj().T @ x), st * sx
        )
        residuals["commute_n2_theta2"] = _rel_comm(n2, t2, model.n2_norm, st2)

        gram2 = model.phi2.conj().T @ model.psi2
        target = np.diag(model.tilde_k)
        kscale = max(1.0, float(np.max(model.tilde_k, initial=0.0)))
        residuals["pairing_level2"] = float(np.max(np.abs(gram2 - target))) / kscale

        alive = list(model.survivors)
        values, tilde_k = model.values[alive], model.tilde_k[alive]
        phi1, phi2, psi2 = model.phi1[:, alive], model.phi2[:, alive], model.psi2[:, alive]
        residuals["theta2_eigen"] = _worst_column(t2, phi2, values, st2)
        residuals["psi2_eigen"] = _worst_column(t2.conj().T, psi2, np.conj(values), st2)

        if model.kernel_set:
            dead = list(model.kernel_set)
            norms = {
                name: np.linalg.norm(getattr(model, name)[:, dead], axis=0)
                for name in ("phi1", "phi2", "psi1", "psi2")
            }
            residuals["kernel_phi2_zero"] = float(np.max(norms["phi2"] / norms["phi1"]))
            residuals["kernel_psi2_zero"] = float(np.max(norms["psi2"] / norms["psi1"]))
        else:
            skipped["kernel_phi2_zero"] = "kernel set empty"
            skipped["kernel_psi2_zero"] = "kernel set empty"

        nr = max(
            _worst_column(n1, phi1, tilde_k, 1.0),
            _worst_column(n2, phi2, tilde_k, 1.0),
        )
        residuals["n_eigen"] = _rel(nr, max(model.n1_norm, 1.0))
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
        residuals["theta2_eigen"] = _worst_column(t2, phit, model.values, st2)

    report = RelationReport(
        residuals=residuals,
        tolerance=tol,
        skipped=skipped,
        details={"degeneracy_classes": model.degeneracy_classes},
    )
    return report


def structure_check(model: IntertwiningModel, tol: float = RELATION_TOL) -> RelationReport:
    """Structure checks for the non-invertible regime.

    (i) [N2, Theta2] = 0 always; (ii) a self-adjoint seed forces a
    self-adjoint partner; (iii) the converse needs N1 strictly positive.
    Parts whose precondition fails are reported as skipped, as are the
    N-inverse identities when N1 is singular.
    """
    if model.case != CASE_NONINVERTIBLE:
        raise RegimeError("structure checks target the non-invertible regime")
    t1, t2, x = model.theta1, model.theta2, model.x
    n1, n2 = model.n1, model.n2
    residuals: dict[str, float] = {}
    skipped: dict[str, str] = {}

    residuals["commutator_n2_theta2"] = _rel_comm(n2, t2, model.n2_norm, model.theta2_norm)

    sa1 = _rel(opnorm(t1 - t1.conj().T), max(1.0, model.theta1_norm))
    sa2 = _rel(opnorm(t2 - t2.conj().T), max(1.0, model.theta2_norm))
    if sa1 <= tol:
        residuals["theta2_self_adjoint"] = sa2
    else:
        skipped["theta2_self_adjoint"] = f"seed not self-adjoint (defect {sa1:.3e})"

    n1_positive = _strictly_positive(n1, model.n1_norm, tol)
    if sa2 <= tol and n1_positive:
        residuals["theta1_self_adjoint"] = sa1
    else:
        reasons = []
        if sa2 > tol:
            reasons.append(f"partner not self-adjoint (defect {sa2:.3e})")
        if not n1_positive:
            reasons.append("N1 not strictly positive")
        skipped["theta1_self_adjoint"] = "; ".join(reasons)

    if n1_positive:
        n1_inv = np.linalg.inv(n1)
        n2_inv = np.linalg.inv(n2)
        residuals["n_inverse_intertwine"] = _rel(
            opnorm(x @ n2_inv - n1_inv @ x), opnorm(n1_inv) * model.x_norm
        )
        residuals["theta1_reconstruction"] = _rel(
            opnorm(t1 - n1_inv @ (x @ t2 @ x.conj().T)), max(1.0, model.theta1_norm)
        )
    else:
        skipped["n_inverse_intertwine"] = "N1 singular"
        skipped["theta1_reconstruction"] = "N1 singular"

    return RelationReport(residuals=residuals, tolerance=tol, skipped=skipped)


def adjoint_descent(model: IntertwiningModel) -> float:
    """||N2^{-1}(X-adjoint Theta1-adjoint X) - Theta2-adjoint|| (relative).

    Building the partner of the adjoint seed and taking the adjoint of the
    partner must agree; returns the relative difference norm.
    """
    if model.case != CASE_NONINVERTIBLE:
        raise RegimeError("adjoint-descent comparison targets the non-invertible regime")
    xh = model.x.conj().T
    lifted = np.linalg.solve(model.n2, xh @ model.theta1.conj().T @ model.x)
    return _rel(opnorm(lifted - model.theta2.conj().T), max(1.0, model.theta2_norm))


def make_commuting_pair(dim1: int, dim2: int, seed: int, hermitian: bool = False):
    """Random (Theta1, X) satisfying the non-invertible regime preconditions.

    X is dense complex with full column rank; Theta1 is assembled in the
    eigenbasis of N1 = X X-adjoint, block-diagonal over N1's eigenspaces,
    which enforces [N1, Theta1] = 0 exactly up to rounding.  Simple seed
    spectrum is enforced by resampling.  ``hermitian`` makes Theta1
    self-adjoint (for converse-direction checks).
    """
    if dim2 >= dim1:
        raise DimensionError(
            "need dim1 > dim2: a square intertwiner is either invertible or "
            "fails strict positivity of N2 (no-go), and dim2 > dim1 always fails it"
        )
    if dim2 < 1:
        raise DimensionError("dim2 must be at least 1")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        x = rng.standard_normal((dim1, dim2)) + 1j * rng.standard_normal((dim1, dim2))
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] <= 1e-6 * s[0]:
            continue
        n1 = x @ x.conj().T
        w, u = np.linalg.eigh(n1)
        groups: list[list[int]] = []
        for i in range(dim1):
            if groups and abs(w[i] - w[groups[-1][0]]) <= 1e-8 * max(w[-1], 1.0):
                groups[-1].append(i)
            else:
                groups.append([i])
        c = np.zeros((dim1, dim1), dtype=complex)
        for g in groups:
            blk = rng.standard_normal((len(g), len(g))) + 1j * rng.standard_normal(
                (len(g), len(g))
            )
            if hermitian:
                blk = (blk + blk.conj().T) / 2
            c[np.ix_(g, g)] = blk
        theta1 = u @ c @ u.conj().T
        if hermitian:
            theta1 = (theta1 + theta1.conj().T) / 2
        vals = np.linalg.eigvals(theta1)
        if _pairwise_gaps(vals).min() > 1e-6:
            return theta1, x
    raise NumericalError("could not draw a simple-spectrum commuting pair in 64 tries")
