"""Command-line front end: build models, verify them, sweep coherent states.

Commands
    build     construct a model from a fixture, input files, or a random pair
    verify    recheck a stored model file against every promised relation
    coherent  z-grid sweep: states, measure moments, resolution, quantization
    fixture   list fixture ids or build one by id
    quantize  emit the symbol-quantization matrix for a model

Exit codes: 0 all checks passed, 1 input error (bad files, flags, or
parameters), 2 regime or domain error (no-go configurations, divergent z,
unavailable measure where one is required), 3 verification failure.

All JSON artifacts are written through a canonical serializer (sorted
keys, 17 significant digits), so identical configs and inputs produce
byte-identical reports.  ISOSPEC_SEED (an integer) seeds every random
draw; it defaults to 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import io as iomod
from .bicoherent import (
    build_ladders,
    coherent_grid,
    quantize,
    resolution_check,
    solve_moment_measure,
)
from .errors import IsospecError, MomentError, ParameterError, RegimeError
from .intertwining import (
    CASE_NONINVERTIBLE,
    adjoint_descent,
    build_model,
    make_commuting_pair,
    structure_check,
    verify_relations,
)
from .linalg import BiorthogonalSystem, EpsilonSequence, opnorm
from .zoo import FIXTURE_IDS, get_fixture

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 3


@dataclass
class RunConfig:
    """Effective settings for one command run (file values + flag overrides)."""

    command: str = ""
    fixture: str | None = None
    params: dict = field(default_factory=dict)
    theta1_path: str | None = None
    x_path: str | None = None
    model_path: str | None = None
    random: str | None = None
    output: str | None = None
    outdir: str = "."
    truncation: int = 40
    kernel_tol: float = 1e-10
    relation_tol: float = 1e-9
    multiplicity_tol: float = 1e-8
    nodes: int = 64
    grid_radial: int = 20
    grid_angular: int = 16
    grid_rmax: float = 2.0
    symbol: str = "z"
    order: int | None = None

    def validate(self) -> None:
        if self.truncation < 4:
            raise ParameterError("truncation must be at least 4")
        for name in ("kernel_tol", "relation_tol", "multiplicity_tol"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.nodes < 2:
            raise ParameterError("quadrature nodes must be at least 2")
        if self.grid_radial < 1 or self.grid_angular < 1:
            raise ParameterError("grid counts must be at least 1")
        if self.grid_rmax <= 0:
            raise ParameterError("grid max radius must be positive")
        if self.symbol not in ("z", "zbar"):
            raise ParameterError("symbol must be 'z' or 'zbar'")


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def _seed() -> int:
    raw = os.environ.get("ISOSPEC_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"ISOSPEC_SEED must be an integer, got {raw!r}") from exc


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        return text


def parse_params(text: str | None) -> dict:
    """Parse `k=v,k2=v2` (keys lowercased; `a:b:c` values become arrays)."""
    out: dict = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ParameterError(f"parameter {piece!r} is not of the form key=value")
        key, value = piece.split("=", 1)
        key = key.strip().lower()
        if ":" in value:
            out[key] = np.array([_parse_scalar(v) for v in value.split(":")], dtype=complex)
        else:
            out[key] = _parse_scalar(value)
    return out


def _load_matrix_any(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise ParameterError(f"input file not found: {path}")
    try:
        if path.endswith(".csv"):
            return iomod.load_matrix_csv(path)
        return iomod.load_matrix_json(path)
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ParameterError(f"could not parse matrix file {path}: {exc}") from exc


def _outpath(config: RunConfig, default_name: str) -> str:
    if config.output:
        return config.output
    os.makedirs(config.outdir, exist_ok=True)
    return os.path.join(config.outdir, default_name)


def _build(config: RunConfig, theta1, x):
    """build_model with the run's relation, kernel and multiplicity tolerances."""
    return build_model(
        theta1,
        x,
        relation_tol=config.relation_tol,
        kernel_tol=config.kernel_tol,
        multiplicity_tolerance=config.multiplicity_tol,
    )


def _build_target_model(config: RunConfig):
    """Resolve the model a command operates on (fixture, files, or random)."""
    sources = [
        config.fixture is not None,
        config.theta1_path is not None or config.x_path is not None,
        config.random is not None,
        config.model_path is not None,
    ]
    if sum(sources) != 1:
        raise ParameterError(
            "choose exactly one input: --fixture, --theta1/--x, --random, or --model"
        )
    if config.fixture is not None:
        fixture = get_fixture(config.fixture, **config.params)
        return fixture.require_model()
    if config.random is not None:
        try:
            d1_text, d2_text = config.random.lower().split("x")
            d1, d2 = int(d1_text), int(d2_text)
        except ValueError as exc:
            raise ParameterError(
                f"--random expects D1xD2 (e.g. 8x5), got {config.random!r}"
            ) from exc
        return _build(config, *make_commuting_pair(d1, d2, _seed()))
    if config.model_path is not None:
        doc = _load_model_doc(config.model_path)
        return _build(config, doc["theta1_matrix"], doc["x_matrix"])
    if config.theta1_path is None or config.x_path is None:
        raise ParameterError("--theta1 and --x must be given together")
    return _build(
        config, _load_matrix_any(config.theta1_path), _load_matrix_any(config.x_path)
    )


def _load_model_doc(path: str) -> dict:
    if not os.path.exists(path):
        raise ParameterError(f"model file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        doc["theta1_matrix"] = iomod.jsonable_to_matrix(doc["theta1"])
        doc["x_matrix"] = iomod.jsonable_to_matrix(doc["X"])
        doc["theta2_matrix"] = iomod.jsonable_to_matrix(doc["theta2"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ParameterError(f"model file {path} is missing or corrupts required keys: {exc}") from exc
    return doc


def cmd_build(config: RunConfig) -> int:
    """Build a model and write its JSON document; exit 2 on regime errors."""
    model = _build_target_model(config)
    path = _outpath(config, "model.json")
    iomod.save_report(model.to_jsonable(), path)
    print(f"model written to {path} (case={model.case}, kernel_set={list(model.kernel_set)})")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    """Recheck a stored model: relations, structure results, stored-field match."""
    if config.model_path is None:
        raise ParameterError("verify needs --model FILE")
    doc = _load_model_doc(config.model_path)
    model = _build(config, doc["theta1_matrix"], doc["x_matrix"])
    stored_theta2 = doc["theta2_matrix"]
    theta2_residual = opnorm(model.theta2 - stored_theta2) / max(1.0, model.theta2_norm)
    stored_tilde = np.asarray(doc.get("tilde_k", []), dtype=float)
    if stored_tilde.shape == model.tilde_k.shape:
        tilde_residual = float(np.max(np.abs(stored_tilde - model.tilde_k)))
    else:
        tilde_residual = math.inf
    case_match = doc.get("case") == model.case
    kernel_match = tuple(doc.get("kernel_set", ())) == model.kernel_set

    report = verify_relations(model, config.relation_tol)
    failures = report.failures()
    if theta2_residual > config.relation_tol:
        failures.append("stored_theta2")
    if tilde_residual > 1e-8:
        failures.append("stored_tilde_k")
    if not case_match:
        failures.append("stored_case")
    if not kernel_match:
        failures.append("stored_kernel_set")

    prop = None
    descent = None
    if model.case == CASE_NONINVERTIBLE:
        prop = structure_check(model, config.relation_tol)
        failures.extend(f"structure:{name}" for name in prop.failures())
        descent = adjoint_descent(model)
        if descent > config.relation_tol:
            failures.append("adjoint_descent")

    out = {
        "schema": "isospec-verify-v1",
        "model": config.model_path,
        "stored": {
            "case_match": case_match,
            "kernel_set_match": kernel_match,
            "theta2_residual": theta2_residual,
            "tilde_k_residual": tilde_residual,
        },
        "relations": report.to_jsonable(),
        "structure": prop.to_jsonable() if prop is not None else None,
        "adjoint_descent": descent,
        "failures": sorted(failures),
        "all_passed": not failures,
    }
    path = _outpath(config, "verify_report.json")
    iomod.save_report(out, path)

    print(str(report))
    if prop is not None:
        print("structure checks:")
        print(str(prop))
        print(f"adjoint_descent                  {descent:12.3e}  "
              f"{'PASS' if descent <= config.relation_tol else 'FAIL'}")
    if failures:
        print(f"FAILED: {', '.join(sorted(failures))} (report: {path})")
        return EXIT_VERIFY
    print(f"all checks passed (report: {path})")
    return EXIT_OK


def _eps_from_model(model) -> EpsilonSequence:
    """Gate: coherent constructions need real eps with 0 = eps_0 < eps_1 < ..."""
    values = model.values
    scale = max(1.0, float(np.max(np.abs(values))))
    if np.max(np.abs(values.imag)) > 1e-10 * scale:
        raise RegimeError(
            "model eigenvalues are not real; coherent-state constructions "
            "need a positive increasing sequence"
        )
    real = values.real.copy()
    if abs(real[0]) <= 1e-10 * scale:
        real[0] = 0.0
    eps = EpsilonSequence(np.maximum(real, 0.0)) if np.all(real >= -1e-12) else None
    if eps is None or not eps.strictly_increasing:
        raise RegimeError(
            "model eigenvalues must satisfy 0 = eps_0 < eps_1 < ... for the "
            "coherent-state pipeline"
        )
    return eps


def _level1_inputs(config: RunConfig):
    """(level-1 system, eps sequence, series order) of the run's target model."""
    model = _build_target_model(config)
    eps = _eps_from_model(model)
    system = model.system1()
    order = config.order or min(config.truncation, system.size)
    if order > system.size:
        raise ParameterError(f"order {order} exceeds system size {system.size}")
    return system, eps, order


def _ladder_defect(system: BiorthogonalSystem, eps, order: int, symbol: str, op) -> float:
    """Max-entry distance of a quantized symbol from its ladder, relative to
    that ladder's largest entry; both live on the first ``order`` modes."""
    truncated = BiorthogonalSystem(
        phi=system.phi[:, :order],
        psi=system.psi[:, :order],
        values=system.values[:order],
        pairing=system.pairing[:order],
    )
    ladder = build_ladders(truncated, EpsilonSequence(eps.values[:order]))
    target = ladder.a if symbol == "z" else ladder.b
    scale = max(1.0, float(np.max(np.abs(target))))
    return float(np.max(np.abs(op - target))) / scale


def cmd_coherent(config: RunConfig) -> int:
    """Sweep a z-grid: per-z CSV, measure report, resolution, quantization."""
    system, eps, order = _level1_inputs(config)

    radii = [config.grid_rmax * (i + 1) / config.grid_radial for i in range(config.grid_radial)]
    angles = [2.0 * math.pi * j / config.grid_angular for j in range(config.grid_angular)]
    zs = np.array([complex(r * math.cos(th), r * math.sin(th)) for r in radii for th in angles])
    # the gate refuses the grid when its largest |z|, grid_rmax up to rounding, reaches rho
    states = coherent_grid(system, eps, zs, order)
    conv = states[0].convergence
    ladder = build_ladders(system, eps)

    vectors = np.array([state.vector_phi for state in states])
    residuals = np.linalg.norm(vectors @ ladder.a.T - zs[:, None] * vectors, axis=1)
    rows = []
    max_overlap_defect = 0.0
    max_eigen_ratio = 0.0
    all_converged = True
    states_pass = True
    for z, state, residual in zip(zs.tolist(), states, residuals.tolist()):
        rows.append((z.real, z.imag, state.normalization, abs(state.overlap), residual))
        max_overlap_defect = max(max_overlap_defect, state.overlap_defect)
        if state.tail_bound > 0:
            max_eigen_ratio = max(max_eigen_ratio, residual / state.tail_bound)
        all_converged = all_converged and state.converged
        if state.overlap_defect > state.tail_bound + 1e-12:
            states_pass = False
        if residual > 10.0 * state.tail_bound + 1e-12:
            states_pass = False

    os.makedirs(config.outdir, exist_ok=True)
    csv_path = os.path.join(config.outdir, "coherent_sweep.csv")
    iomod.save_table_csv(
        rows, csv_path, columns="re_z,im_z,normalization,overlap_abs,eigenstate_residual"
    )

    # measure, resolution, quantization
    rng = np.random.default_rng(_seed())
    span = min(10, max(1, order // 2))
    measure_info: dict
    resolution_info: dict
    quant_info = None
    measure = None
    try:
        measure = solve_moment_measure(eps, order, config.nodes)
    except MomentError as exc:
        measure_info = {"available": False, "reason": str(exc)}
    if measure is not None:
        defects = measure.moment_defects(eps, order)
        measure_info = {
            "available": True,
            "s": measure.s,
            "nodes": int(measure.nodes.size),
            "max_moment_defect": float(np.max(defects)),
        }
    max_resolution = 0.0
    for _ in range(8):
        f = np.zeros(system.dim, dtype=complex)
        g = np.zeros(system.dim, dtype=complex)
        cf = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        cg = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        f += system.phi[:, :span] @ cf
        g += system.phi[:, :span] @ cg
        f /= np.linalg.norm(f)
        g /= np.linalg.norm(g)
        if measure is not None:
            result = resolution_check(system, eps, measure, f, g, order)
            max_resolution = max(max_resolution, result.residual)
        else:
            proj = sum(
                np.vdot(f, system.phi[:, k])
                * np.vdot(system.psi[:, k], g)
                / system.pairing[k]
                for k in range(order)
            )
            max_resolution = max(max_resolution, abs(proj - np.vdot(f, g)))
    resolution_info = {
        "pairs": 8,
        "span": span,
        "mode": "quadrature" if measure is not None else "sum-form",
        "max_residual": max_resolution,
    }
    resolution_pass = max_resolution <= 1e-7

    quant_pass = True
    if measure is not None:
        op_z = quantize("z", system, eps, measure, order)
        op_zbar = quantize("zbar", system, eps, measure, order)
        defect_z = _ladder_defect(system, eps, order, "z", op_z)
        defect_zbar = _ladder_defect(system, eps, order, "zbar", op_zbar)
        # named apart from cmd_quantize's quantize_<symbol>.json, so both
        # commands can share one --outdir
        files = ["coherent_quantize_z.json", "coherent_quantize_zbar.json"]
        for op, name in zip((op_z, op_zbar), files):
            iomod.save_report(iomod.matrix_to_jsonable(op), os.path.join(config.outdir, name))
        quant_info = {
            "defect_z": defect_z,
            "defect_zbar": defect_zbar,
            "files": files,
        }
        quant_pass = max(defect_z, defect_zbar) <= 1e-8

    all_passed = states_pass and all_converged and resolution_pass and quant_pass
    report = {
        "schema": "isospec-coherent-v1",
        "order": order,
        "grid": {
            "radial": config.grid_radial,
            "angular": config.grid_angular,
            "rmax": config.grid_rmax,
        },
        "convergence": conv.to_jsonable(),
        "max_overlap_defect": max_overlap_defect,
        "max_eigen_residual_over_tail": max_eigen_ratio,
        "all_converged": all_converged,
        "measure": measure_info,
        "resolution": resolution_info,
        "quantization": quant_info,
        "csv": os.path.basename(csv_path),
        "all_passed": all_passed,
    }
    report_path = os.path.join(config.outdir, "coherent_report.json")
    iomod.save_report(report, report_path)

    rho_text = "inf" if math.isinf(conv.rho) else f"{conv.rho:.6g}"
    print(
        f"rho = {rho_text}; measure "
        f"{'available' if measure is not None else 'unavailable'}; "
        f"{len(rows)} grid points; max overlap defect {max_overlap_defect:.3e}; "
        f"max resolution residual {max_resolution:.3e}"
    )
    print(f"sweep: {csv_path}; report: {report_path}")
    if not all_passed:
        print("FAILED: see report for the failing section")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_fixture(config: RunConfig, action: str) -> int:
    """List fixture ids or build one by id (same output as cmd_build)."""
    if action == "list":
        for fid in FIXTURE_IDS:
            print(fid)
        return EXIT_OK
    if config.fixture is None:
        raise ParameterError("fixture build needs an id")
    return cmd_build(config)


def cmd_quantize(config: RunConfig) -> int:
    """Write the quantized-symbol matrix and its ladder-agreement defect."""
    system, eps, order = _level1_inputs(config)
    measure = solve_moment_measure(eps, order, config.nodes)
    op = quantize(config.symbol, system, eps, measure, order)
    defect = _ladder_defect(system, eps, order, config.symbol, op)
    out = {
        "schema": "isospec-quantize-v1",
        "symbol": config.symbol,
        "order": order,
        "matrix": iomod.matrix_to_jsonable(op),
        "ladder_defect": defect,
    }
    path = _outpath(config, f"quantize_{config.symbol}.json")
    iomod.save_report(out, path)
    print(f"quantized symbol {config.symbol} written to {path} (ladder defect {defect:.3e})")
    return EXIT_OK if defect <= 1e-8 else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """argparse leaves with exit code 2 on usage errors; remap to 1 (input)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isospec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model_input=True):
        p.add_argument("--outdir", help="output directory (default .)")
        p.add_argument("--output", help="explicit output file path")
        p.add_argument("--truncation", type=int, help="mode count N >= 4 (default 40)")
        p.add_argument("--kernel-tol", type=float, dest="kernel_tol")
        p.add_argument("--relation-tol", type=float, dest="relation_tol")
        p.add_argument("--multiplicity-tol", type=float, dest="multiplicity_tol")
        if model_input:
            p.add_argument("--fixture", choices=FIXTURE_IDS)
            p.add_argument("--params", help="fixture parameters k=v,k2=v2 (lists as a:b:c)")
            p.add_argument("--theta1", dest="theta1_path", help="seed matrix file (.json/.csv)")
            p.add_argument("--x", dest="x_path", help="intertwiner matrix file (.json/.csv)")
            p.add_argument("--random", help="random commuting pair, dims D1xD2 (seeded by ISOSPEC_SEED)")
            p.add_argument("--model", dest="model_path", help="existing model JSON file")

    p_build = sub.add_parser("build", help="construct a model and write model JSON")
    add_common(p_build)

    p_verify = sub.add_parser("verify", help="recheck a stored model file")
    p_verify.add_argument("--model", dest="model_path", required=True)
    add_common(p_verify, model_input=False)

    p_coh = sub.add_parser("coherent", help="z-grid sweep with measure and quantization checks")
    add_common(p_coh)
    p_coh.add_argument("--order", type=int, help="series truncation (default min(truncation, size))")
    p_coh.add_argument("--nodes", type=int, help="quadrature nodes (default 64)")
    p_coh.add_argument("--grid-radial", type=int, dest="grid_radial")
    p_coh.add_argument("--grid-angular", type=int, dest="grid_angular")
    p_coh.add_argument("--grid-rmax", type=float, dest="grid_rmax")

    p_fix = sub.add_parser("fixture", help="list fixtures or build one")
    fix_sub = p_fix.add_subparsers(dest="fixture_action", required=True)
    fix_sub.add_parser("list", help="print available fixture ids")
    p_fix_build = fix_sub.add_parser("build", help="build a fixture by id")
    p_fix_build.add_argument("id", choices=FIXTURE_IDS)
    p_fix_build.add_argument("--params", help="fixture parameters k=v,k2=v2")
    p_fix_build.add_argument("--outdir")
    p_fix_build.add_argument("--output")

    p_quant = sub.add_parser("quantize", help="emit a quantized-symbol matrix")
    add_common(p_quant)
    p_quant.add_argument("--symbol", choices=("z", "zbar"))
    p_quant.add_argument("--order", type=int)
    p_quant.add_argument("--nodes", type=int)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ParameterError(f"config file not found: {args.config}")
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParameterError("config file must hold a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        if "params" in doc and isinstance(doc["params"], str):
            doc["params"] = parse_params(doc["params"])
        config = replace(config, **doc)
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if getattr(args, "params", None) is not None:
        overrides["params"] = parse_params(args.params)
    if getattr(args, "id", None) is not None:
        overrides["fixture"] = args.id
    config = replace(config, **overrides)
    config.command = args.command
    config.validate()
    return config


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if args.command == "build":
            return cmd_build(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "coherent":
            return cmd_coherent(config)
        if args.command == "fixture":
            return cmd_fixture(config, args.fixture_action)
        if args.command == "quantize":
            return cmd_quantize(config)
        raise ParameterError(f"unknown command {args.command!r}")
    except IsospecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
