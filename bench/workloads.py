"""The benchmark's workloads: inputs made from a seed, one job, its checks.

A workload object is built in set-up, which leaves the inputs of job 0
ready.  ``inputs(j)`` makes the inputs of job j (outside the timed
interval), ``run(inputs)`` is the timed job, and ``check(inputs, output)``
returns the problems the oracles find (outside the timed interval).
``round_size`` jobs make one round; a run always attempts whole rounds.
``span`` is a no-op unless a traced run replaces it with the tracer's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import isospec as iso
import isospec.cli
import oracles

CONVENTIONS = ("original", "relabeled")

PROFILES = {
    "full": {
        "alphas": (0.5, 1.0, 2.0),
        "n_blocks": 32,
        "order": 60,
        "grid": (20, 16),
        "grid2": (10, 8),
        "order2": 30,
        "pairs": 8,
        "span": 10,
        # (label, d1, d2, pairs per job); the square pair is d x d
        "model_pairs": (("40x20", 40, 20, 40), ("120x60", 120, 60, 5), ("300x150", 300, 150, 1)),
        "square": 200,
        "cli_random": "300x150",
        "cli_blocks": 32,
        "cli_order": 60,
        "cli_grid": (20, 16),
    },
    "tiny": {
        "alphas": (0.5, 1.0, 2.0),
        "n_blocks": 20,
        "order": 30,
        "grid": (4, 4),
        "grid2": (2, 4),
        "order2": 18,
        "pairs": 2,
        "span": 4,
        "model_pairs": (("40x20", 8, 4, 2), ("120x60", 12, 6, 1), ("300x150", 16, 8, 1)),
        "square": 6,
        "cli_random": "12x6",
        "cli_blocks": 12,
        "cli_order": 24,
        "cli_grid": (4, 4),
    },
}


def _stream(seed: int, *key: int) -> np.random.Generator:
    """An independent random stream for each (seed, key) tuple."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _z_grid(rmax: float, radial: int, angular: int, offset: float) -> np.ndarray:
    """radial x angular points, radii rmax/radial .. rmax, angles rotated by offset."""
    radii = np.linspace(rmax / radial, rmax, radial)
    angles = 2.0 * math.pi * (np.arange(angular) + offset) / angular
    return (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)


class Workload:
    name = ""
    round_size = 1
    # job times are scaled by the reference computation timed around them
    scaled = True

    def __init__(self, seed: int, profile: str = "full"):
        self.seed = seed
        self.p = PROFILES[profile]
        self.span = lambda name: contextlib.nullcontext()

    def close(self) -> None:
        pass


class CoherentGrid(Workload):
    """One job is one alpha1 sweep on coherent_demo(alpha1, n_blocks)."""

    name = "coherent_grid"

    def __init__(self, seed: int, profile: str = "full"):
        super().__init__(seed, profile)
        p = self.p
        self.round_size = len(p["alphas"])
        self.cases = []
        for index, alpha1 in enumerate(p["alphas"]):
            fixture = iso.coherent_demo(alpha1, p["n_blocks"])
            system1 = fixture.model.system1()
            rng = _stream(seed, 1, index)
            rmax = 2.0 * math.sqrt(alpha1)
            span = p["span"]
            pairs = []
            for _ in range(p["pairs"]):
                f, g = (
                    system1.phi[:, :span] @ (rng.standard_normal(span) + 1j * rng.standard_normal(span))
                    for _ in range(2)
                )
                pairs.append((f / np.linalg.norm(f), g / np.linalg.norm(g)))
            self.cases.append(
                {
                    "alpha1": alpha1,
                    "system1": system1,
                    "system2": fixture.model.system2(include_kernel=True),
                    "eps": iso.EpsilonSequence(fixture.expected["epsilon"]),
                    "zs1": _z_grid(rmax, *p["grid"], rng.uniform()),
                    "zs2": _z_grid(rmax, *p["grid2"], rng.uniform()),
                    "pairs": pairs,
                }
            )

    def inputs(self, j: int):
        return self.cases[j % len(self.cases)]

    def run(self, c):
        order, order2 = self.p["order"], self.p["order2"]
        system1, eps = c["system1"], c["eps"]
        level1 = [iso.coherent_pair(system1, eps, z, order) for z in c["zs1"]]
        level2 = {
            conv: [iso.filter_and_build(c["system2"], eps, z, order2, conv) for z in c["zs2"]]
            for conv in CONVENTIONS
        }
        ladders = iso.build_ladders(system1, eps)
        measure = iso.solve_moment_measure(eps, order)
        resolution = [
            iso.resolution_check(system1, eps, measure, f, g, order) for f, g in c["pairs"]
        ]
        ops = {s: iso.quantize(s, system1, eps, measure, order) for s in ("z", "zbar")}
        return {"level1": level1, "level2": level2, "ladders": ladders, "measure": measure,
                "resolution": resolution, "ops": ops}

    def check(self, c, out) -> list[str]:
        order, alpha1 = self.p["order"], c["alpha1"]
        phi, psi = c["system1"].phi, c["system1"].psi
        eps = 2.0 * alpha1 * np.arange(phi.shape[1])
        problems = oracles.level1_states(out["level1"], c["zs1"], alpha1, phi, psi, eps, order)
        for conv in CONVENTIONS:
            problems += oracles.level2_states(out["level2"][conv], c["zs2"], alpha1, conv)
        full = phi.shape[1]
        problems += oracles.same_operator(out["ladders"].a, oracles.lowering(phi, psi, eps, full), "build_ladders A")
        problems += oracles.moments(out["measure"].nodes, out["measure"].weights, 2.0 * alpha1, order)
        problems += oracles.resolution(out["resolution"], c["pairs"])
        problems += oracles.same_operator(out["ops"]["z"], oracles.lowering(phi, psi, eps, order), "quantize(z)")
        problems += oracles.same_operator(out["ops"]["zbar"], oracles.raising(phi, psi, eps, order), "quantize(zbar)")
        return [f"alpha1={alpha1}: {p}" for p in problems]


def _square_pair(rng: np.random.Generator, n: int):
    """Dense Theta1 and an invertible, non-commuting X with singular values in [1, 4]."""
    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    theta1 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    x = unitary() @ np.diag(rng.uniform(1.0, 4.0, n)) @ unitary()
    return theta1, x


class ModelScale(Workload):
    """One job runs the model layer on fresh pairs of every size."""

    name = "model_scale"

    def __init__(self, seed: int, profile: str = "full"):
        super().__init__(seed, profile)
        self.first = self._make(0)

    def _make(self, j: int):
        pairs = []
        for c, (label, d1, d2, count) in enumerate(self.p["model_pairs"]):
            for i in range(count):
                key = int(np.random.SeedSequence([self.seed, 2, j, c, i]).generate_state(1)[0])
                pairs.append((label, *iso.make_commuting_pair(d1, d2, key)))
        pairs.append(("square", *_square_pair(_stream(self.seed, 3, j), self.p["square"])))
        return pairs

    def inputs(self, j: int):
        return self.first if j == 0 else self._make(j)

    def run(self, pairs):
        out = []
        for label, theta1, x in pairs:
            with self.span("pair." + label):
                case = iso.classify(theta1, x)
                model = iso.build_model(theta1, x)
                report = iso.verify_relations(model)
                structure = descent = None
                if model.case == iso.CASE_NONINVERTIBLE:
                    structure = iso.structure_check(model)
                    descent = iso.adjoint_descent(model)
            out.append((case, model, report, structure, descent))
        return out

    def check(self, pairs, out) -> list[str]:
        problems = []
        for (label, theta1, x), (case, model, report, structure, descent) in zip(pairs, out):
            expected = iso.CASE_INVERTIBLE if label == "square" else iso.CASE_NONINVERTIBLE
            found = []
            if case != expected or model.case != expected:
                found.append(f"regime {case}/{model.case}, expected {expected}")
            if not report.all_passed:
                found.append(f"verify_relations failed {report.failures()}")
            if structure is not None and not structure.all_passed:
                found.append(f"structure_check failed {structure.failures()}")
            if descent is not None and not descent <= oracles.RELATION_TOL:
                found.append(f"adjoint descent {descent:.3e}")
            found += oracles.model(theta1, x, model.theta2, len(model.kernel_set))
            problems += [f"{label} pair: {p}" for p in found]
        return problems


class CliPipeline(Workload):
    """One job is the five-step command-line pipeline, each step a fresh process.

    Every job runs with the same seed in the same directory, so every job's
    artifacts must be byte-identical to the first job's.  With
    ``in_process`` the steps run through ``isospec.cli.main`` instead.
    """

    name = "cli_pipeline"
    # a 7 s job of five processes drifts apart from a reference timed at its
    # ends: scaling widened this workload's spread, so its times stay raw
    scaled = False

    def __init__(self, seed: int, profile: str, workdir: Path):
        super().__init__(seed, profile)
        p = self.p
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.in_process = False
        self.digests = None
        self.alpha1 = 1.0
        radial, angular = p["cli_grid"]
        order = str(p["cli_order"])
        self.points = radial * angular
        self.steps = (
            ("build", ["build", "--random", p["cli_random"], "--outdir", "m"]),
            ("verify", ["verify", "--model", "m/model.json", "--outdir", "m"]),
            ("fixture", ["fixture", "build", "coherent_demo", "--params",
                         f"alpha1={self.alpha1},n_blocks={p['cli_blocks']}", "--outdir", "c"]),
            ("coherent", ["coherent", "--model", "c/model.json", "--order", order, "--outdir", "c",
                          "--grid-radial", str(radial), "--grid-angular", str(angular)]),
            ("quantize", ["quantize", "--model", "c/model.json", "--order", order, "--outdir", "q"]),
        )
        # the steps import the same isospec sources as this process
        src = str(Path(iso.__file__).resolve().parents[1])
        self.env = dict(os.environ, ISOSPEC_SEED=str(seed), PYTHONPATH=src)

    def inputs(self, j: int):
        shutil.rmtree(self.workdir / "job", ignore_errors=True)
        (self.workdir / "job").mkdir()
        return self.workdir / "job"

    def _step(self, argv, cwd) -> int:
        if not self.in_process:
            return subprocess.run(
                [sys.executable, "-m", "isospec.cli", *argv], cwd=cwd, env=self.env,
                stdout=subprocess.DEVNULL, timeout=120,
            ).returncode
        os.environ["ISOSPEC_SEED"] = self.env["ISOSPEC_SEED"]
        with contextlib.chdir(cwd), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return isospec.cli.main(argv)

    def run(self, cwd):
        codes = []
        for name, argv in self.steps:
            with self.span("cli." + name):
                codes.append(self._step(argv, cwd))
            if codes[-1] != 0:
                raise RuntimeError(f"step {name!r} exited with code {codes[-1]}")
        return codes

    def check(self, cwd, codes) -> list[str]:
        problems = [f"exit codes {codes}"] if any(codes) else []
        for report in ("m/verify_report.json", "c/coherent_report.json"):
            problems += oracles.all_passed(cwd / report)
        problems += oracles.model_file(cwd / "m" / "model.json")[0]
        found, demo = oracles.model_file(cwd / "c" / "model.json")
        problems += found
        problems += oracles.sweep_csv(cwd / "c" / "coherent_sweep.csv", self.alpha1, self.points)
        with open(cwd / "q" / "quantize_z.json", encoding="utf-8") as handle:
            op = oracles.read_matrix(json.load(handle)["matrix"])
        problems += oracles.lowering_relation(demo["theta1"], op, 2.0 * self.alpha1)
        digests = {
            str(path.relative_to(cwd)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(cwd.rglob("*")) if path.is_file()
        }
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in digests.keys() | self.digests.keys()
                             if digests.get(k) != self.digests.get(k))
            problems.append(f"artifacts differ from the first pipeline with this seed: {changed}")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CoherentGrid, ModelScale, CliPipeline)}
