"""Acceptance ledger: one timed end-to-end check per promised behavior.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (visible
with ``pytest -s`` and in captured output on failure) and then asserts that
no sub-check failed.  Tolerances are stated inline next to each check.
"""

import math
import time

import numpy as np

from isospec import (
    BiorthogonalSystem,
    EpsilonSequence,
    adjoint,
    block_pseudo_fermion_params,
    build_ladders,
    build_model,
    coherent_demo,
    coherent_pair,
    eig,
    ex3x3_pseudo_fermion_params,
    fixture_3x3,
    fixture_block,
    make_commuting_pair,
    nlpb_verify,
    structure_check,
    pseudo_fermion,
    quantize,
    resolution_check,
    solve_moment_measure,
    standard_boson,
    verify_relations,
)

SQRT3 = math.sqrt(3.0)


def _report(number, name, failures, elapsed, budget):
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s)"
    print(line)
    assert not failures, "\n".join([line] + failures)


def test_acceptance_1_closed_form_two_level_model():
    t0 = time.perf_counter()
    failures = []
    f = fixture_3x3(1.0, 2.0, 3.0)
    m = f.model

    target = 0.25 * np.array(
        [[9.0 + SQRT3, 3.0 * SQRT3 - 7.0], [5.0 + 3.0 * SQRT3, 3.0 - SQRT3]]
    )
    delta = np.max(np.abs(m.theta2 - target))
    if delta >= 1e-9:
        failures.append(f"theta2 vs closed form: {delta:.3e} >= 1e-9")

    if tuple(m.kernel_set) != (2,):
        failures.append(f"kernel set {m.kernel_set} != (2,)")

    tilde_err = np.max(np.abs(np.asarray(m.tilde_k)[:2] - 1.5))
    if tilde_err >= 1e-10:
        failures.append(f"pairing constants vs 3/2: {tilde_err:.3e} >= 1e-10")

    rep = verify_relations(m, tol=1e-10)
    worst = max(rep.residuals.values())
    if not rep.all_passed:
        failures.append(f"relation residual {worst:.3e} >= 1e-10 ({rep.failures()})")

    _report(1, "closed-form-two-level-model", failures, time.perf_counter() - t0, 1.0)


def test_acceptance_2_conjugate_block_chain():
    t0 = time.perf_counter()
    failures = []
    n = 40
    alpha = np.arange(1.0, n + 1.0)
    beta = 0.5j * np.arange(1.0, n + 1.0)
    m = fixture_block(alpha, beta, n).model

    delta = np.max(np.abs(np.diag(m.theta2) - (alpha + beta)))
    if delta >= 1e-10:
        failures.append(f"theta2 diagonal vs alpha+beta: {delta:.3e} >= 1e-10")

    xdag = adjoint(m.x)
    worst_kernel = max(
        np.linalg.norm(xdag @ m.phi1[:, k]) for k in range(0, 2 * n, 2)
    )
    if worst_kernel >= 1e-10:
        failures.append(f"even modes not annihilated: {worst_kernel:.3e} >= 1e-10")

    conj_err = np.max(np.abs(m.values[0::2] - np.conj(m.values[1::2])))
    if conj_err >= 1e-10:
        failures.append(f"adjacent eigenvalues not conjugate: {conj_err:.3e} >= 1e-10")

    _report(2, "conjugate-block-chain", failures, time.perf_counter() - t0, 1.0)


def test_acceptance_3_coherent_family_grid():
    t0 = time.perf_counter()
    failures = []
    order = 60
    for alpha1 in (0.5, 1.0, 2.0):
        f = coherent_demo(alpha1, 32)  # 64 modes >= order
        system = f.model.system1()
        eps = EpsilonSequence(f.expected["epsilon"])
        pair = build_ladders(system, eps)
        rmax = 2.0 * math.sqrt(alpha1)
        worst_norm = worst_overlap = worst_ratio = 0.0
        for r in np.linspace(rmax / 20.0, rmax, 20):
            for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
                z = r * complex(math.cos(theta), math.sin(theta))
                state = coherent_pair(system, eps, z, order)
                expected = math.exp(-abs(z) ** 2 / (4.0 * alpha1))
                worst_norm = max(worst_norm, abs(state.normalization - expected))
                worst_overlap = max(worst_overlap, abs(state.overlap - 1.0))
                residual = np.linalg.norm(
                    pair.a @ state.vector_phi - z * state.vector_phi
                )
                worst_ratio = max(worst_ratio, residual / state.tail_bound)
        if worst_norm >= 1e-9:
            failures.append(
                f"alpha1={alpha1}: normalization defect {worst_norm:.3e} >= 1e-9"
            )
        if worst_overlap >= 1e-9:
            failures.append(
                f"alpha1={alpha1}: overlap defect {worst_overlap:.3e} >= 1e-9"
            )
        if worst_ratio >= 10.0:
            failures.append(
                f"alpha1={alpha1}: eigen residual {worst_ratio:.2f}x tail bound >= 10x"
            )

    _report(3, "coherent-family-grid", failures, time.perf_counter() - t0, 10.0)


def test_acceptance_4_measure_and_resolution():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    for s in (1.0, 2.0):
        size = 24
        eps = EpsilonSequence.linear(s, size)
        measure = solve_moment_measure(eps, size)
        worst_rel = 0.0
        for k in range(21):
            expected = s**k * math.factorial(k) / (2.0 * math.pi)
            worst_rel = max(worst_rel, abs(measure.moments(k + 1)[k] - expected) / expected)
        if worst_rel >= 1e-10:
            failures.append(f"s={s}: moment relative error {worst_rel:.3e} >= 1e-10")

        eye = np.eye(size, dtype=complex)
        system = BiorthogonalSystem(
            phi=eye, psi=eye, pairing=np.ones(size)
        )
        worst_res = 0.0
        for _ in range(50):
            f = np.zeros(size, dtype=complex)
            g = np.zeros(size, dtype=complex)
            f[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            g[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            result = resolution_check(system, eps, measure, f, g, size)
            worst_res = max(worst_res, result.residual)
        if worst_res >= 1e-7:
            failures.append(f"s={s}: resolution residual {worst_res:.3e} >= 1e-7")

    _report(4, "measure-and-resolution", failures, time.perf_counter() - t0, 10.0)


def test_acceptance_5_symbol_quantization():
    t0 = time.perf_counter()
    failures = []
    order = 20
    eps = EpsilonSequence.linear(1.0, order)
    eye = np.eye(order, dtype=complex)
    system = BiorthogonalSystem(phi=eye, psi=eye, pairing=np.ones(order))
    measure = solve_moment_measure(eps, order)
    pair = build_ladders(system, eps)
    lead = order - 2
    for symbol, reference in (("z", pair.a), ("zbar", pair.b)):
        op = quantize(symbol, system, eps, measure, order)
        delta = np.max(np.abs(op[:lead, :lead] - reference[:lead, :lead]))
        if delta >= 1e-8:
            failures.append(f"quantize({symbol}) vs ladder: {delta:.3e} >= 1e-8")

    _report(5, "symbol-quantization", failures, time.perf_counter() - t0, 5.0)


def test_acceptance_6_pseudo_fermion_form():
    t0 = time.perf_counter()
    failures = []

    params = ex3x3_pseudo_fermion_params(1.0, 2.0)
    pf = pseudo_fermion(
        params["alpha"], params["beta"], params["alpha12"], params["beta12"]
    )
    target = fixture_3x3(1.0, 2.0, 3.0).model.theta2
    delta = np.max(np.abs(pf.hamiltonian(params["omega"], params["rho"]) - target))
    if delta >= 1e-9:
        failures.append(f"two-level hamiltonian vs theta2: {delta:.3e} >= 1e-9")

    anti = pf.anticommutator_defect()
    nil = pf.nilpotency_defect()
    if anti >= 1e-12:
        failures.append(f"anticommutator defect {anti:.3e} >= 1e-12")
    if nil >= 1e-12:
        failures.append(f"nilpotency defect {nil:.3e} >= 1e-12")

    bp = block_pseudo_fermion_params(1.0, 2.0)
    pf2 = pseudo_fermion(bp["alpha"], bp["beta"], bp["alpha12"], bp["beta12"])
    block = np.array([[1.0, 2.0], [2.0, 1.0]])
    delta2 = np.max(np.abs(pf2.hamiltonian(bp["omega"], bp["rho"]) - block))
    if delta2 >= 1e-12:
        failures.append(f"block hamiltonian vs [[a,b],[b,a]]: {delta2:.3e} >= 1e-12")

    _report(6, "pseudo-fermion-form", failures, time.perf_counter() - t0, 1.0)


def test_acceptance_7_random_ensemble():
    t0 = time.perf_counter()
    failures = []
    worst_relation = 0.0
    prop1_runs = 0
    for i in range(200):
        seed = 1000 + i
        rng = np.random.default_rng(seed)
        dim1 = int(rng.integers(3, 13))
        dim2 = int(rng.integers(1, min(dim1, 9)))
        hermitian = i % 5 == 0
        theta1, x = make_commuting_pair(dim1, dim2, seed=seed, hermitian=hermitian)
        m = build_model(theta1, x)

        rep = verify_relations(m, tol=1e-8)
        worst_relation = max(worst_relation, max(rep.residuals.values()))
        if not rep.all_passed:
            failures.append(f"seed {seed}: relations failed {rep.failures()}")
            continue

        values1 = eig(m.theta1).values
        values2 = eig(np.asarray(m.theta2)).values
        scale = 1.0 + np.max(np.abs(values1))
        gap = max(np.min(np.abs(values1 - v)) for v in values2)
        if gap >= 1e-8 * scale:
            failures.append(f"seed {seed}: spectrum inclusion gap {gap:.3e}")

        survivors = np.asarray(m.survivors, dtype=int)
        min_tilde = float(np.min(np.asarray(m.tilde_k)[survivors].real))
        if min_tilde <= 1e-8:
            failures.append(f"seed {seed}: survivor constant {min_tilde:.3e} <= 1e-8")

        if hermitian:
            prep = structure_check(m, tol=1e-8)
            prop1_runs += 1
            if not prep.all_passed:
                failures.append(f"seed {seed}: structure checks failed {prep.failures()}")

    if prop1_runs != 40:
        failures.append(f"expected 40 self-adjoint instances, saw {prop1_runs}")

    _report(7, "random-ensemble", failures, time.perf_counter() - t0, 30.0)


def test_acceptance_8_ladder_axioms():
    t0 = time.perf_counter()
    failures = []
    a, b, eps, phi0, eta0 = standard_boson(12)
    rep = nlpb_verify(a, b, eps, phi0, eta0, 10, tol=1e-10)
    if not rep.all_passed:
        failures.append(f"standard family failed: {rep.failures()}")

    fault = b.copy()
    fault[7, 6] += 1e-3
    rep2 = nlpb_verify(a, fault, eps, phi0, eta0, 10, tol=1e-10)
    if rep2.all_passed:
        failures.append("fault-injected family was not rejected")
    per_mode = np.asarray(rep2.details["p3_raising_per_mode"])
    if int(np.argmax(per_mode)) != 6:
        failures.append(f"fault localized at mode {int(np.argmax(per_mode))}, not 6")
    clean = float(np.max(per_mode[:6]))
    if clean >= 1e-10:
        failures.append(f"modes below the fault not clean: {clean:.3e} >= 1e-10")

    _report(8, "ladder-axioms", failures, time.perf_counter() - t0, 5.0)
