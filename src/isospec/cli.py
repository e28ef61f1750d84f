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

Each subcommand's parser is the one schema of its options: name, type,
default and range.  --relation-tol acts on every model source (--fixture,
--theta1/--x, --random, --model); --order defaults to min(40, system size).

--config FILE (given before the subcommand) holds a JSON object whose keys
are the chosen subcommand's own option destinations (theta1_path, x_path
and model_path for --theta1, --x and --model; `_` for `-` elsewhere) and
whose values are JSON strings or numbers, read as the flag's text.  They
become the subcommand's defaults, so each value gets the flag's type and
range check, and a flag given on the command line wins.

All JSON artifacts are written through a canonical serializer (sorted
keys, 17 significant digits), so identical configs and inputs produce
byte-identical reports.  ISOSPEC_SEED (a non-negative integer) seeds every
random draw; it defaults to 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as iomod
from .bicoherent import (
    build_ladders,
    coherent_grid,
    quantize,
    resolution_check,
    solve_moment_measure,
)
from .errors import IsospecError, MomentError, NumericalError, ParameterError, RegimeError
from .intertwining import (
    CASE_NONINVERTIBLE,
    RELATION_TOL,
    adjoint_descent,
    build_model,
    make_commuting_pair,
    structure_check,
    verify_relations,
)
from .linalg import BiorthogonalSystem, EpsilonSequence
from .linalg import Decision, certified_ratio
from .zoo import FIXTURE_IDS, MAX_FIXTURE_MODES, get_fixture

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 3
# series order of coherent and quantize when --order is not given (capped at the system size)
DEFAULT_ORDER = 40
# largest z-grid points x system size: one complex array of that many entries is 64 MiB
MAX_GRID_ENTRIES = 2**22
# largest quantized-symbol defect from its ladder, relative to the ladder's largest entry
LADDER_DEFECT_TOL = 1e-8
# the model-file reader, under the name the benchmark's tracer times it by (io.read)
_load_model_doc = iomod.load_model


def _checked(kind, ok, message: str):
    """argparse type: ``kind(text)``, refused with ``message`` unless ``ok``
    holds; a float must also be finite."""

    def convert(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value: '5.5'"
    return convert


def _positive(name: str):
    return _checked(float, lambda value: value > 0, f"{name} must be positive")


def _seed() -> int:
    raw = os.environ.get("ISOSPEC_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ParameterError(f"ISOSPEC_SEED must be a non-negative integer, got {raw!r}")
    return seed


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
    """Parse `k=v,k2=v2` (keys lowercased; `a:b:c` values become arrays of the kind
    numpy infers: a real list stays real, and text in a list is refused)."""
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
            items = np.array([_parse_scalar(v) for v in value.split(":")])
            if items.dtype.kind not in "iufc":  # argparse reports it as a usage error
                raise ValueError(f"list {key} is not a list of numbers")
            out[key] = items
        else:
            out[key] = _parse_scalar(value)
    return out


def _outpath(args: argparse.Namespace, default_name: str) -> str:
    if args.output:
        return args.output
    os.makedirs(args.outdir, exist_ok=True)
    return os.path.join(args.outdir, default_name)


def _build_target_model(args: argparse.Namespace):
    """Resolve the model a command operates on (fixture, files, or random)."""
    sources = [
        args.fixture is not None,
        args.theta1_path is not None or args.x_path is not None,
        args.random is not None,
        args.model_path is not None,
    ]
    if sum(sources) != 1:
        raise ParameterError(
            "choose exactly one input: --fixture, --theta1/--x, --random, or --model"
        )
    if args.fixture is not None:
        fixture = get_fixture(args.fixture, **args.params)
        return build_model(fixture.theta1, fixture.x, relation_tol=args.relation_tol,
                           eigensystem=fixture.eigensystem)
    if args.random is not None:
        try:
            d1_text, d2_text = args.random.lower().split("x")
            d1, d2 = int(d1_text), int(d2_text)
        except ValueError as exc:
            raise ParameterError(
                f"--random expects D1xD2 (e.g. 8x5), got {args.random!r}"
            ) from exc
        if d1 > MAX_FIXTURE_MODES:
            raise ParameterError(f"--random {args.random}: {d1} modes exceed the bound of "
                                 f"{MAX_FIXTURE_MODES}")
        return build_model(*make_commuting_pair(d1, d2, _seed()), relation_tol=args.relation_tol)
    if args.model_path is not None:
        doc = _load_model_doc(args.model_path)
        return build_model(doc["theta1_matrix"], doc["x_matrix"], relation_tol=args.relation_tol)
    if args.theta1_path is None or args.x_path is None:
        raise ParameterError("--theta1 and --x must be given together")
    return build_model(iomod.load_matrix(args.theta1_path), iomod.load_matrix(args.x_path),
                       relation_tol=args.relation_tol)


def cmd_build(args: argparse.Namespace) -> int:
    """Build a model, verify it at the default tolerance and write its JSON document
    with those residuals; exit 2 on regime errors, 3 when a relation fails at the
    run's relation tolerance (checked again if it is another)."""
    model = _build_target_model(args)
    report = verify_relations(model)
    path = _outpath(args, "model.json")
    iomod.save_report(iomod.model_document(model, report.residuals), path)
    print(f"model written to {path} (case={model.case}, kernel_set={list(model.kernel_set)})")
    if args.relation_tol != RELATION_TOL:
        report = verify_relations(model, args.relation_tol)
    failures = sorted(report.failures())
    if failures:
        print(f"FAILED: {', '.join(failures)} exceed {args.relation_tol:.1e}")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Recheck a stored model: relations, structure results, stored-field match."""
    if args.model_path is None:
        raise ParameterError("verify needs --model FILE")
    doc = _load_model_doc(args.model_path)
    model = build_model(doc["theta1_matrix"], doc["x_matrix"], relation_tol=args.relation_tol)
    tilde = doc.get("tilde_k", np.empty(0))
    same_length = tilde.shape == model.tilde_k.shape
    stored = {
        "stored_theta2": certified_ratio(
            model.theta2 - doc["theta2_matrix"], (model.norms["theta2"],), args.relation_tol, 1.0
        ),
        "stored_tilde_k": Decision(
            float(np.max(np.abs(tilde - model.tilde_k))) if same_length else math.inf, 1e-8
        ),
    }
    case_match = doc.get("case") == model.case
    kernel_match = doc.get("kernel_set", ()) == model.kernel_set

    report = verify_relations(model, args.relation_tol)
    failures = report.failures() + [name for name, d in stored.items() if not d.passed]
    if not case_match:
        failures.append("stored_case")
    if not kernel_match:
        failures.append("stored_kernel_set")

    prop = None
    descent = None
    if model.case == CASE_NONINVERTIBLE:
        prop = structure_check(model, args.relation_tol)
        failures.extend(f"structure:{name}" for name in prop.failures())
        descent = Decision(adjoint_descent(model), args.relation_tol)
        if not descent.passed:
            failures.append("adjoint_descent")

    out = {
        "schema": "isospec-verify-v1",
        "model": args.model_path,
        "stored": {
            "case_match": case_match,
            "kernel_set_match": kernel_match,
            "theta2_residual": stored["stored_theta2"].value,
            "tilde_k_residual": stored["stored_tilde_k"].value,
        },
        "relations": report.to_jsonable(),
        "structure": prop.to_jsonable() if prop is not None else None,
        "adjoint_descent": descent.value if descent is not None else None,
        "failures": sorted(failures),
        "all_passed": not failures,
    }
    path = _outpath(args, "verify_report.json")
    iomod.save_report(out, path)

    print(str(report))
    if prop is not None:
        print("structure checks:")
        print(str(prop))
        print(descent.row("adjoint_descent"))
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
    # an eigenvalue past the float range (inf) is no epsilon value either
    in_range = np.all((real >= -1e-12) & (real < np.inf))
    eps = EpsilonSequence(np.maximum(real, 0.0)) if in_range else None
    if eps is None or not eps.strictly_increasing:
        raise RegimeError(
            "model eigenvalues must satisfy 0 = eps_0 < eps_1 < ... for the "
            "coherent-state pipeline"
        )
    return eps


def _level1_inputs(args: argparse.Namespace):
    """(level-1 system, eps sequence, series order) of the run's target model."""
    model = _build_target_model(args)
    eps = _eps_from_model(model)
    system = model.system1()
    order = min(DEFAULT_ORDER, system.size) if args.order is None else args.order
    if order > system.size:
        raise ParameterError(f"order {order} exceeds system size {system.size}")
    return system, eps, order


def _quantized(system: BiorthogonalSystem, eps, order: int, measure, symbol: str):
    """The quantized symbol and the Decision of its max-entry distance from its
    ladder, relative to that ladder's largest entry, against LADDER_DEFECT_TOL;
    both operators live on the first ``order`` modes."""
    op = quantize(symbol, system, eps, measure, order)
    ladder = build_ladders(system.columns(slice(order)), eps)
    target = ladder.a if symbol == "z" else ladder.b
    scale = max(1.0, float(np.max(np.abs(target))))
    return op, Decision(float(np.max(np.abs(op - target))) / scale, LADDER_DEFECT_TOL)


def cmd_coherent(args: argparse.Namespace) -> int:
    """Sweep a z-grid: per-z CSV, measure report, resolution, quantization."""
    rng = np.random.default_rng(_seed())
    system, eps, order = _level1_inputs(args)
    entries = args.grid_radial * args.grid_angular * system.dim
    if entries > MAX_GRID_ENTRIES:
        raise ParameterError(f"a {args.grid_radial}x{args.grid_angular} z-grid on {system.dim} "
                             f"modes has {entries} entries, past the bound of {MAX_GRID_ENTRIES}")

    radii = [args.grid_rmax * (i + 1) / args.grid_radial for i in range(args.grid_radial)]
    angles = [2.0 * math.pi * j / args.grid_angular for j in range(args.grid_angular)]
    zs = np.array([complex(r * math.cos(th), r * math.sin(th)) for r in radii for th in angles])
    # the gate refuses the grid when its largest |z|, grid_rmax up to rounding, reaches rho
    states = coherent_grid(system, eps, zs, order)
    conv = states[0].convergence
    ladder = build_ladders(system, eps)

    vectors = np.array([state.vector_phi for state in states])
    # a residual past the float range is refused below, before any file is written
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.linalg.norm(vectors @ ladder.a.T - zs[:, None] * vectors, axis=1)
    if not np.all(np.isfinite(residuals)):
        raise NumericalError(f"eigenstate residual overflowed on the z-grid (largest |z| = "
                             f"{float(np.max(np.abs(zs))):.6g})")
    overlap = np.array([state.overlap for state in states])
    tails = np.array([state.tail_bound for state in states])
    # hypot, not np.abs: numpy's vectorized complex abs can differ by an ulp
    defects = np.hypot(overlap.real - 1.0, overlap.imag)
    max_overlap_defect = float(defects.max())
    live = tails > 0
    max_eigen_ratio = float((residuals[live] / tails[live]).max(initial=0.0))
    all_converged = all(state.converged for state in states)
    states_pass = not np.any((defects > tails + 1e-12) | (residuals > 10.0 * tails + 1e-12))

    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "coherent_sweep.csv")
    normalization = [state.normalization for state in states]
    overlap_abs = np.hypot(overlap.real, overlap.imag)
    rows = np.column_stack((zs.real, zs.imag, normalization, overlap_abs, residuals))
    iomod.save_table_csv(
        rows, csv_path, columns="re_z,im_z,normalization,overlap_abs,eigenstate_residual"
    )

    # measure, resolution, quantization
    span = min(10, max(1, order // 2))
    quant_info = None
    try:
        measure = solve_moment_measure(eps, order)
    except MomentError as exc:
        measure, measure_info = None, {"available": False, "reason": str(exc)}
    else:
        measure_info = {
            "available": True,
            "s": measure.s,
            "nodes": int(measure.nodes.size),
            "max_moment_defect": float(np.max(measure.moment_defects(eps, order))),
        }
    max_resolution = 0.0
    for _ in range(8):
        cf = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        cg = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        f = system.phi[:, :span] @ cf
        g = system.phi[:, :span] @ cg
        f /= np.linalg.norm(f)
        g /= np.linalg.norm(g)
        result = resolution_check(system, eps, measure, f, g, order)
        max_resolution = max(max_resolution, result.residual)
    resolution_info = {
        "pairs": 8,
        "span": span,
        "mode": "quadrature" if measure is not None else "sum-form",
        "max_residual": max_resolution,
    }
    resolution_pass = max_resolution <= 1e-7

    quant_pass = True
    if measure is not None:
        # named apart from cmd_quantize's quantize_<symbol>.json, so both
        # commands can share one --outdir
        files = ["coherent_quantize_z.json", "coherent_quantize_zbar.json"]
        quant_info = {"files": files}
        for symbol, name in zip(("z", "zbar"), files):
            op, defect = _quantized(system, eps, order, measure, symbol)
            iomod.save_report(iomod.matrix_to_jsonable(op), os.path.join(args.outdir, name))
            quant_info[f"defect_{symbol}"] = defect.value
            quant_pass = quant_pass and defect.passed

    all_passed = states_pass and all_converged and resolution_pass and quant_pass
    report = {
        "schema": "isospec-coherent-v1",
        "order": order,
        "grid": {
            "radial": args.grid_radial,
            "angular": args.grid_angular,
            "rmax": args.grid_rmax,
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
    report_path = os.path.join(args.outdir, "coherent_report.json")
    iomod.save_report(report, report_path)

    rho_text = "inf" if math.isinf(conv.rho) else f"{conv.rho:.6g}"
    print(
        f"rho = {rho_text}; measure "
        f"{'available' if measure is not None else 'unavailable'}; "
        f"{zs.size} grid points; max overlap defect {max_overlap_defect:.3e}; "
        f"max resolution residual {max_resolution:.3e}"
    )
    print(f"sweep: {csv_path}; report: {report_path}")
    if not all_passed:
        print("FAILED: see report for the failing section")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_fixture_list(args: argparse.Namespace) -> int:
    for fid in FIXTURE_IDS:
        print(fid)
    return EXIT_OK


def cmd_fixture_build(args: argparse.Namespace) -> int:
    """`build --fixture ID` at the default tolerance, which its parser fixes."""
    args.fixture = args.id
    return cmd_build(args)


def cmd_quantize(args: argparse.Namespace) -> int:
    """Write the quantized-symbol matrix and its ladder-agreement defect."""
    system, eps, order = _level1_inputs(args)
    measure = solve_moment_measure(eps, order)
    op, defect = _quantized(system, eps, order, measure, args.symbol)
    out = {
        "schema": "isospec-quantize-v1",
        "symbol": args.symbol,
        "order": order,
        "matrix": iomod.matrix_to_jsonable(op),
        "ladder_defect": defect.value,
    }
    path = _outpath(args, f"quantize_{args.symbol}.json")
    iomod.save_report(out, path)
    print(f"quantized symbol {args.symbol} written to {path} (ladder defect {defect})")
    return EXIT_OK if defect.passed else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """argparse leaves with exit code 2 on usage errors; remap to 1 (input)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isospec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON file of the subcommand's option values; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, run, help):
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(run=run, command_parser=p)
        return p

    def add_output(p, output=True):
        p.add_argument("--outdir", default=".", help="output directory (default %(default)s)")
        if output:
            p.add_argument("--output", help="explicit output file path")

    def add_fixture(p, name):
        p.add_argument(name, choices=FIXTURE_IDS)
        p.add_argument("--params", type=parse_params, default={},
                       help="fixture parameters k=v,k2=v2 (lists as a:b:c)")

    def add_common(p, sources=True, output=True):
        add_output(p, output)
        p.add_argument("--relation-tol", type=_positive("relation_tol"), default=RELATION_TOL,
                       help="relation residual, relative to operand norms (default %(default)s)")
        if sources:
            add_fixture(p, "--fixture")
            p.add_argument("--theta1", dest="theta1_path", help="seed matrix file (.json/.csv)")
            p.add_argument("--x", dest="x_path", help="intertwiner matrix file (.json/.csv)")
            p.add_argument("--random", help="random commuting pair D1xD2 (seeded by ISOSPEC_SEED)")
            p.add_argument("--model", dest="model_path", help="existing model JSON file")

    def add_series(p):
        p.add_argument("--order", type=_checked(int, lambda n: n >= 1, "order must be at least 1"),
                       help=f"series order (default min({DEFAULT_ORDER}, system size))")

    add_common(command(sub, "build", cmd_build, "construct a model and write model JSON"))

    p_verify = command(sub, "verify", cmd_verify, "recheck a stored model file")
    p_verify.add_argument("--model", dest="model_path", help="model JSON file to recheck")
    add_common(p_verify, sources=False)

    p_coh = command(sub, "coherent", cmd_coherent, "z-grid sweep with measure and quantization")
    add_common(p_coh, output=False)
    add_series(p_coh)
    grid_count = _checked(int, lambda n: n >= 1, "grid counts must be at least 1")
    p_coh.add_argument("--grid-radial", type=grid_count, default=20,
                       help="radii on the z-grid (default %(default)s)")
    p_coh.add_argument("--grid-angular", type=grid_count, default=16,
                       help="angles on the z-grid (default %(default)s)")
    p_coh.add_argument("--grid-rmax", type=_positive("grid max radius"), default=2.0,
                       help="largest |z| on the grid (default %(default)s)")

    p_fix = sub.add_parser("fixture", help="list fixtures or build one")
    fix_sub = p_fix.add_subparsers(dest="fixture_action", required=True)
    command(fix_sub, "list", cmd_fixture_list, "print available fixture ids")
    p_fix_build = command(fix_sub, "build", cmd_fixture_build,
                          "build a fixture by id at the default tolerance")
    add_fixture(p_fix_build, "id")
    add_output(p_fix_build)
    # build's other sources and its tolerance, fixed: no flag or config key sets them
    p_fix_build.set_defaults(theta1_path=None, x_path=None, random=None, model_path=None,
                             relation_tol=RELATION_TOL)

    p_quant = command(sub, "quantize", cmd_quantize, "emit a quantized-symbol matrix")
    add_common(p_quant)
    p_quant.add_argument("--symbol", default="z", help="z or zbar (default %(default)s)",
                         type=_checked(str, lambda s: s in ("z", "zbar"),
                                       "symbol must be 'z' or 'zbar'"))
    add_series(p_quant)

    return parser


def _config_defaults(path: str, command_parser: argparse.ArgumentParser) -> None:
    """Make a config file's values the subcommand's defaults, as flag text."""
    if not os.path.exists(path):
        raise ParameterError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParameterError("config file must hold a JSON object")
    keys = {action.dest for action in command_parser._actions if action.option_strings}
    unknown = set(doc) - (keys - {"help"})
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        # true and false would read as the flag text "True" and "False"
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ParameterError(
                f"config value of {key} must be a JSON string or number, got {json.dumps(value)}"
            )
    # argparse runs a string default through the option's type, as it does a flag's text
    command_parser.set_defaults(**{key: str(value) for key, value in doc.items()})


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _config_defaults(args.config, args.command_parser)
            args = parser.parse_args(argv)
        return args.run(args)
    except IsospecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:
        # a size no allocation can meet (a million-point z-grid) is an input error
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
