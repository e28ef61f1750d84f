"""Independent checks of the program's outputs, in plain numpy.

Every check recomputes what the mathematics says the output must be
(closed forms, relations, spectra) rather than comparing with a stored
copy of earlier output.  Each returns a list of problems; an empty list
means the output passed.  Tolerances are fixed here, far below what a
real fault produces and far above the rounding seen at this size.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

NORMALIZATION_TOL = 1e-12  # absolute, on N(|z|) in (0, 1]
OVERLAP_TOL = 1e-12  # |<phi(z), psi(z)> - 1|
TAIL_FACTOR = 10.0  # ||A phi(z) - z phi(z)|| <= 10 * tail bound
MOMENT_TOL = 1e-10  # relative
RESOLUTION_TOL = 1e-10  # absolute, for unit f and g
LADDER_TOL = 1e-10  # relative to max(1, max |A|)
RELATION_TOL = 1e-9  # ||X Theta2 - Theta1 X|| / (||Theta1|| ||X||)
SPECTRUM_TOL = 1e-8  # relative to max(1, ||Theta1||)


def _worst(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.max(values)) if values.size else 0.0


def _factorials(eps_values, count: int) -> np.ndarray:
    out = np.ones(count)
    out[1:] = np.cumprod(np.asarray(eps_values, dtype=float)[1:count])
    return out


def lowering(phi, psi, eps_values, order: int) -> np.ndarray:
    """A = sum_k sqrt(eps_k) |phi_{k-1}><psi_k| over the first ``order`` modes."""
    band = np.diag(np.sqrt(np.asarray(eps_values, dtype=float)[1:order]), 1)
    return phi[:, :order] @ band @ psi[:, :order].conj().T


def raising(phi, psi, eps_values, order: int) -> np.ndarray:
    """B = sum_k sqrt(eps_k) |phi_k><psi_{k-1}| over the first ``order`` modes."""
    band = np.diag(np.sqrt(np.asarray(eps_values, dtype=float)[1:order]), -1)
    return phi[:, :order] @ band @ psi[:, :order].conj().T


def level1_states(states, zs, alpha1: float, phi, psi, eps_values, order: int) -> list[str]:
    """Level-1 states on coherent_demo(alpha1): N(|z|) = exp(-|z|^2/(4 alpha1)),
    <phi(z), psi(z)> = 1 and ||A phi(z) - z phi(z)|| within 10 tail bounds."""
    zs = np.asarray(zs, dtype=complex)
    vphi = np.column_stack([s.vector_phi for s in states])
    vpsi = np.column_stack([s.vector_psi for s in states])
    norms = np.array([s.normalization for s in states])
    expected = np.exp(-np.abs(zs) ** 2 / (4.0 * alpha1))
    problems = []
    worst = _worst(np.abs(norms - expected))
    if not worst <= NORMALIZATION_TOL:
        problems.append(f"level-1 normalization off exp(-|z|^2/(4a)) by {worst:.3e}")
    worst = _worst(np.abs(np.einsum("ij,ij->j", vphi.conj(), vpsi) - 1.0))
    if not worst <= OVERLAP_TOL:
        problems.append(f"level-1 <phi(z), psi(z)> off 1 by {worst:.3e}")
    # closed-form coefficients c_k = N z^k / sqrt(eps_k!) give the tail bound
    # |z| |c_{M-1}| ||phi_{M-1}||, floored at the rounding of the assembled sum
    k = np.arange(order)
    coeff = (expected[:, None] * np.abs(zs)[:, None] ** k) / np.sqrt(_factorials(eps_values, order))
    terms = coeff * np.linalg.norm(phi[:, :order], axis=0)
    floor = phi.shape[0] * np.finfo(float).eps * (1.0 + np.abs(zs)) * terms.sum(axis=1)
    tail = np.maximum(np.abs(zs) * terms[:, -1], floor)
    a = lowering(phi, psi, eps_values, order)
    residual = np.linalg.norm(a @ vphi - vphi * zs[None, :], axis=0)
    worst = _worst(residual / tail)
    if not worst <= TAIL_FACTOR:
        problems.append(f"level-1 ||A phi(z) - z phi(z)|| is {worst:.3g} tail bounds")
    return problems


def level2_states(states, zs, alpha1: float, convention: str) -> list[str]:
    """Tilde states on coherent_demo(alpha1): N = cosh(|z|/(2 alpha1))^(-1/2)
    ("original") or exp(-|z|^2/(8 alpha1)) ("relabeled"), overlap 1."""
    r = np.abs(np.asarray(zs, dtype=complex))
    if convention == "original":
        expected = np.cosh(r / (2.0 * alpha1)) ** -0.5
    else:
        expected = np.exp(-(r**2) / (8.0 * alpha1))
    norms = np.array([s.normalization for s in states])
    overlaps = np.array([np.vdot(s.vector_phi, s.vector_psi) for s in states])
    problems = []
    worst = _worst(np.abs(norms - expected))
    if not worst <= NORMALIZATION_TOL:
        problems.append(f"level-2 ({convention}) normalization off by {worst:.3e}")
    worst = _worst(np.abs(overlaps - 1.0))
    if not worst <= OVERLAP_TOL:
        problems.append(f"level-2 ({convention}) <phi(z), psi(z)> off 1 by {worst:.3e}")
    return problems


def moments(nodes, weights, s: float, order: int) -> list[str]:
    """Quadrature moments sum w r^(2k) against s^k k!/(2 pi), k < order."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    worst = 0.0
    for k in range(order):
        exact = s**k * math.factorial(k) / (2.0 * math.pi)
        worst = max(worst, abs(float(np.sum(weights * nodes ** (2 * k))) - exact) / exact)
    if not worst <= MOMENT_TOL:
        return [f"radial moments off s^k k!/(2 pi) by {worst:.3e} (relative)"]
    return []


def resolution(results, pairs) -> list[str]:
    """Each resolution_check lhs against the direct inner product vdot(f, g)."""
    worst = _worst([abs(r.lhs - np.vdot(f, g)) for r, (f, g) in zip(results, pairs)])
    if len(results) != len(pairs) or not worst <= RESOLUTION_TOL:
        return [f"resolution of the identity off <f, g> by {worst:.3e}"]
    return []


def same_operator(op, expected, what: str) -> list[str]:
    op = np.asarray(op)
    if op.shape != expected.shape:
        return [f"{what}: shape {op.shape} != {expected.shape}"]
    defect = float(np.max(np.abs(op - expected))) / max(1.0, float(np.max(np.abs(expected))))
    if not defect <= LADDER_TOL:
        return [f"{what} off the ladder by {defect:.3e}"]
    return []


def _spectral_distance(a, b) -> float:
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def model(theta1, x, theta2, kernel_size: int) -> list[str]:
    """X Theta2 = Theta1 X, spec(Theta2) = surviving seed spectrum, and a
    kernel set of size d1 - d2 (what X-adjoint annihilates)."""
    theta1, x, theta2 = (np.asarray(m, dtype=complex) for m in (theta1, x, theta2))
    d1, d2 = x.shape
    problems = []
    if theta2.shape != (d2, d2):
        return [f"Theta2 has shape {theta2.shape}, expected {(d2, d2)}"]
    norm1 = np.linalg.norm(theta1, 2)
    rel = np.linalg.norm(x @ theta2 - theta1 @ x, 2) / (norm1 * np.linalg.norm(x, 2))
    if not rel <= RELATION_TOL:
        problems.append(f"||X Theta2 - Theta1 X|| relative {rel:.3e}")
    if d1 == d2:
        seed = np.linalg.eigvals(theta1)
    else:
        # Theta1 commutes with N1 = X X^H, so it keeps range(X) invariant;
        # its eigenvalues there are the ones that survive into Theta2
        u = np.linalg.svd(x)[0][:, :d2]
        seed = np.linalg.eigvals(u.conj().T @ theta1 @ u)
    dist = _spectral_distance(np.linalg.eigvals(theta2), seed) / max(1.0, norm1)
    if not dist <= SPECTRUM_TOL:
        problems.append(f"spec(Theta2) off the surviving seed spectrum by {dist:.3e}")
    if kernel_size != d1 - d2:
        problems.append(f"kernel set has {kernel_size} modes, expected {d1 - d2}")
    return problems


def read_matrix(doc) -> np.ndarray:
    """A model-file matrix {"rows", "cols", "entries": [[re, im], ...]},
    read without isospec's own reader."""
    entries = np.asarray(doc["entries"], dtype=float).reshape(-1, 2)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(int(doc["rows"]), int(doc["cols"]))


def model_file(path) -> tuple[list[str], dict]:
    """The model oracle on a stored model.json; also returns its matrices."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    mats = {key: read_matrix(doc[key]) for key in ("theta1", "X", "theta2")}
    problems = model(mats["theta1"], mats["X"], mats["theta2"], len(doc["kernel_set"]))
    return [f"{path}: {p}" for p in problems], mats


def all_passed(path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        if json.load(handle).get("all_passed") is not True:
            return [f"{path}: all_passed is not true"]
    return []


def sweep_csv(path, alpha1: float, points: int) -> list[str]:
    """The CLI's level-1 sweep: N(|z|) = exp(-|z|^2/(4 alpha1)), |<phi, psi>| = 1."""
    with open(path, encoding="utf-8") as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    data = np.array(rows, dtype=float).reshape(-1, 5)
    problems = []
    if data.shape[0] != points:
        problems.append(f"{path}: {data.shape[0]} grid points, expected {points}")
    expected = np.exp(-(data[:, 0] ** 2 + data[:, 1] ** 2) / (4.0 * alpha1))
    worst = _worst(np.abs(data[:, 2] - expected))
    if not worst <= NORMALIZATION_TOL:
        problems.append(f"{path}: normalization off exp(-|z|^2/(4a)) by {worst:.3e}")
    worst = _worst(np.abs(data[:, 3] - 1.0))
    if not worst <= OVERLAP_TOL:
        problems.append(f"{path}: |<phi(z), psi(z)>| off 1 by {worst:.3e}")
    return problems


def lowering_relation(theta1, op, s: float) -> list[str]:
    """A lowering ladder on eps_k = s k obeys [Theta1, A] = -s A, whatever the
    eigenvector phases; it must also be nonzero."""
    theta1 = np.asarray(theta1, dtype=complex)
    op = np.asarray(op, dtype=complex)
    size = np.linalg.norm(op, 2)
    if not size > 0.0:
        return ["quantized z is the zero operator"]
    rel = np.linalg.norm(theta1 @ op - op @ theta1 + s * op, 2) / (np.linalg.norm(theta1, 2) * size)
    if not rel <= RELATION_TOL:
        return [f"quantized z breaks [Theta1, A] = -s A by {rel:.3e}"]
    return []
