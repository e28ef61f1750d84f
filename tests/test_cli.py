"""End-to-end command-line checks run through a subprocess."""

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isospec
import isospec.cli as cli
from isospec import FIXTURE_IDS, errors, get_fixture, make_commuting_pair
from isospec import bicoherent, intertwining, linalg, zoo
from isospec import io as iomod
from isospec.intertwining import RELATION_TOL
from isospec.io import jsonable_to_matrix, save_matrix_csv, save_matrix_json

CLI = [sys.executable, "-m", "isospec.cli"]


def run_cli(*args, env=None, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, cwd=cwd
    )


def seeded_env(seed):
    import os

    env = dict(os.environ)
    env["ISOSPEC_SEED"] = str(seed)
    return env


# ---------------------------------------------------------------------------
# build


def test_build_fixture_writes_model(tmp_path):
    proc = run_cli("build", "--fixture", "ex3x3", "--outdir", str(tmp_path))
    assert proc.returncode == 0
    assert "case=NonInvertible" in proc.stdout
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["case"] == "NonInvertible"
    assert doc["kernel_set"] == [2]
    assert doc["schema"] == "isospec-model-v1"
    assert doc["theta2"]["rows"] == 2


def test_build_from_matrix_files(tmp_path):
    save_matrix_json(np.diag([1.0, 2.0, 4.0]).astype(complex), tmp_path / "t.json")
    save_matrix_csv(np.eye(3, dtype=complex)[:, :2], tmp_path / "x.csv")
    proc = run_cli(
        "build",
        "--theta1",
        str(tmp_path / "t.json"),
        "--x",
        str(tmp_path / "x.csv"),
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    theta2 = jsonable_to_matrix(doc["theta2"])
    np.testing.assert_allclose(theta2, np.diag([1.0, 2.0]), atol=1e-12)


def test_build_refuses_square_singular_intertwiner(tmp_path):
    save_matrix_json(np.diag([1.0, 2.0, 3.0]).astype(complex), tmp_path / "t.json")
    x = np.eye(3, dtype=complex)
    x[2, 2] = 0.0
    save_matrix_json(x, tmp_path / "x.json")
    proc = run_cli(
        "build",
        "--theta1",
        str(tmp_path / "t.json"),
        "--x",
        str(tmp_path / "x.json"),
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 2
    assert "singular" in proc.stderr


def test_build_of_a_model_failing_its_own_relations_exits_3(tmp_path):
    # X scaled by 1e7: the construction keeps the kernel (1, 4, 5, 7), but the verifier's
    # kernel relations are absolute in ||X||, and its kernel modes read ||X-adjoint phi||
    # of about 5e-9 ||phi||, rounding at that scale
    theta1, x = make_commuting_pair(8, 4, 0)
    save_matrix_json(theta1, tmp_path / "t.json")
    save_matrix_json(x * 1e7, tmp_path / "x.json")
    proc = run_cli("build", "--theta1", str(tmp_path / "t.json"), "--x", str(tmp_path / "x.json"),
                   "--outdir", str(tmp_path))
    assert proc.returncode == 3
    assert "FAILED: kernel_phi2_zero, kernel_psi2_zero exceed" in proc.stdout
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["kernel_set"] == [1, 4, 5, 7]
    assert doc["residuals"]["kernel_phi2_zero"] > RELATION_TOL
    assert doc["residuals"]["theta2_eigen"] <= RELATION_TOL
    verify = run_cli("verify", "--model", str(tmp_path / "model.json"), "--outdir", str(tmp_path))
    assert verify.returncode == 3


def test_build_keeps_the_kernel_of_x_scaled_by_1e5(tmp_path):
    # the seed is diagonalized on range(X) and ker(X-adjoint), so the kernel
    # modes are exact to rounding in the basis of ker(X-adjoint)
    theta1, x = make_commuting_pair(8, 4, 0)
    save_matrix_json(theta1, tmp_path / "t.json")
    save_matrix_json(x * 1e5, tmp_path / "x.json")
    proc = run_cli("build", "--theta1", str(tmp_path / "t.json"), "--x", str(tmp_path / "x.json"),
                   "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["kernel_set"] == [1, 4, 5, 7]
    verify = run_cli("verify", "--model", str(tmp_path / "model.json"), "--outdir", str(tmp_path))
    assert verify.returncode == 0, verify.stdout + verify.stderr


def _refactored(x, cond):
    """X from its own SVD factors with singular values geomspace(1, 1/cond)."""
    u, _, vh = np.linalg.svd(x, full_matrices=False)
    return (u * np.geomspace(1.0, 1.0 / cond, x.shape[1])) @ vh


# the rank rule and the kernel test are relative to sigma_max and the partner comes from
# a QR of X: a tall X of condition 1e4 builds and verifies, and so do X scaled by 1e-11
# (refused while the kernel test was absolute) and by 2e5 (then two kernel modes were
# lost); at condition 1e8 the model is built, keeps its kernel and fails its own
# relations (exit 3); none ends in a traceback
@pytest.mark.parametrize(
    "remake, code",
    [(lambda x: _refactored(x, 1e4), 0), (lambda x: _refactored(x, 1e8), 3),
     (lambda x: x * 1e-11, 0), (lambda x: x * 2e5, 0)],
    ids=["cond_1e4", "cond_1e8", "scale_1e-11", "scale_2e5"],
)
def test_build_of_a_small_or_ill_conditioned_x(remake, code, tmp_path):
    theta1, x = make_commuting_pair(8, 4, 0)
    save_matrix_json(theta1, tmp_path / "t.json")
    save_matrix_json(remake(x), tmp_path / "x.json")
    proc = run_cli("build", "--theta1", str(tmp_path / "t.json"), "--x", str(tmp_path / "x.json"),
                   "--outdir", str(tmp_path))
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads((tmp_path / "model.json").read_text())["kernel_set"] == [1, 4, 5, 7]
    verify = run_cli("verify", "--model", str(tmp_path / "model.json"), "--outdir", str(tmp_path))
    assert verify.returncode == code, verify.stdout + verify.stderr


def _wide_pair(draw):
    """Draw ``draw`` (from 0) of a complex 2x3 X = (N + iN) 1e5, with Theta1 = X X-adjoint."""
    rng = np.random.default_rng(0)
    for _ in range(draw + 1):
        x = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) * 1e5
    return x @ x.conj().T, x


def _build_files(theta1, x, tmp_path, capsys):
    """``build --theta1 --x`` in this process: (exit code, stderr lines)."""
    save_matrix_json(theta1, tmp_path / "t.json")
    save_matrix_json(x, tmp_path / "x.json")
    code = cli.main(["build", "--theta1", str(tmp_path / "t.json"), "--x",
                     str(tmp_path / "x.json"), "--outdir", str(tmp_path / "out")])
    return code, capsys.readouterr().err.splitlines()


# draws 1 and 3 pass the positivity test of N2 on its rounded zero eigenvalue:
# the first would build a model, the second would end in LinAlgError
@pytest.mark.parametrize("draw", [1, 3])
def test_build_refuses_a_wide_intertwiner_by_its_shape(draw, tmp_path, capsys):
    code, lines = _build_files(*_wide_pair(draw), tmp_path, capsys)
    assert code == errors.RegimeError.exit_code == 2
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "strictly tall X, got 2x3" in lines[0]
    assert not (tmp_path / "out" / "model.json").exists()


# an overflowing eigen residual (Theta1 * 1e300), an overflowing intertwining
# relation (X * 1e150), an overflowing eigen defect of N (X * 1e80) and an
# overflowing Gram N1 = X X-adjoint (X * 1e160) end in the NumericalError alone;
# pytest makes a RuntimeWarning an error, so a warning on the way would end the run first
@pytest.mark.parametrize("theta_scale, x_scale",
                         [(1e300, 1.0), (1.0, 1e150), (1.0, 1e80), (1.0, 1e160)],
                         ids=["theta1_1e300", "x_1e150", "x_1e80", "x_1e160"])
def test_an_overflowing_build_ends_in_the_numerical_error_only(theta_scale, x_scale, tmp_path,
                                                               capsys):
    theta1, x = make_commuting_pair(8, 4, 0)
    code, lines = _build_files(theta1 * theta_scale, x * x_scale, tmp_path, capsys)
    assert code == errors.NumericalError.exit_code == 2
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not (tmp_path / "out" / "model.json").exists()


def test_build_random_pair_is_seed_deterministic(tmp_path):
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / sub).mkdir()
        proc = run_cli(
            "build", "--random", "9x6", "--outdir", str(tmp_path / sub), env=seeded_env(seed)
        )
        assert proc.returncode == 0
    same = (tmp_path / "a" / "model.json").read_bytes()
    assert same == (tmp_path / "b" / "model.json").read_bytes()
    assert same != (tmp_path / "c" / "model.json").read_bytes()


# numpy's seeding refuses a negative integer with a ValueError of its own
@pytest.mark.parametrize(
    "seed, argv",
    [("-1", ["build", "--random", "4x2"]), ("1.5", ["build", "--random", "4x2"]),
     ("-1", ["coherent", "--fixture", "coherent_demo", "--params", "n_blocks=4", "--order", "8"])],
    ids=["build_negative", "build_fraction", "coherent_negative"],
)
def test_a_seed_that_is_not_a_non_negative_integer_is_an_input_error(seed, argv, tmp_path):
    proc = run_cli(*argv, "--outdir", str(tmp_path), env=seeded_env(seed))
    assert proc.returncode == errors.ParameterError.exit_code == 1
    lines = proc.stderr.splitlines()
    assert lines == [f"error: ISOSPEC_SEED must be a non-negative integer, got {seed!r}"], lines
    assert not list(tmp_path.iterdir())


def test_build_rejects_unknown_fixture(tmp_path):
    proc = run_cli("build", "--fixture", "nosuch", "--outdir", str(tmp_path))
    assert proc.returncode == 1


def test_build_rejects_missing_input_file(tmp_path):
    proc = run_cli(
        "build",
        "--theta1",
        str(tmp_path / "absent.json"),
        "--x",
        str(tmp_path / "absent_x.json"),
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 1
    assert "not found" in proc.stderr


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fixture": "ex3x3"}\n')
    proc = run_cli("--config", str(cfg), "build", "--outdir", str(tmp_path / "d1"))
    assert proc.returncode == 0
    assert json.loads((tmp_path / "d1" / "model.json").read_text())["case"] == "NonInvertible"
    proc = run_cli(
        "--config", str(cfg), "build", "--fixture", "ex2x2", "--outdir", str(tmp_path / "d2")
    )
    assert proc.returncode == 0
    assert (
        json.loads((tmp_path / "d2" / "model.json").read_text())["case"]
        == "InvertibleCommuting"
    )


# ---------------------------------------------------------------------------
# verify


@pytest.fixture()
def built_model(tmp_path):
    proc = run_cli("build", "--fixture", "ex3x3", "--outdir", str(tmp_path))
    assert proc.returncode == 0
    return tmp_path / "model.json"


def test_verify_accepts_fresh_model(built_model, tmp_path):
    proc = run_cli("verify", "--model", str(built_model), "--outdir", str(tmp_path))
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_passed"] is True


def test_verify_flags_corrupted_entries(built_model, tmp_path):
    doc = json.loads(built_model.read_text())
    doc["theta2"]["entries"][0][0] += 0.05
    bad = tmp_path / "model_bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("verify", "--model", str(bad), "--outdir", str(tmp_path))
    assert proc.returncode == 3
    assert "FAILED" in proc.stdout
    assert "stored_theta2" in proc.stdout


def test_verify_names_a_stored_case_that_does_not_match(built_model, tmp_path, capsys):
    doc = json.loads(built_model.read_text())
    doc["case"] = "Invertible"
    bad = tmp_path / "model_case.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--model", str(bad), "--outdir", str(tmp_path)]) == 3
    assert "FAILED: stored_case " in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["failures"] == ["stored_case"] and report["stored"]["case_match"] is False


def test_verify_names_a_failing_adjoint_descent(built_model, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "adjoint_descent", lambda model: 1.0)
    assert cli.main(["verify", "--model", str(built_model), "--outdir", str(tmp_path)]) == 3
    assert "FAILED: adjoint_descent " in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["failures"] == ["adjoint_descent"] and report["adjoint_descent"] == 1.0


def test_verify_missing_model_is_an_input_error(tmp_path):
    proc = run_cli("verify", "--model", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "not found" in proc.stderr


MALFORMED_MATRIX_FILES = {
    "pairs.json": '{"rows": 1, "cols": 2, "entries": [[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]]}',
    "count.json": '{"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}',
    "strings.json": '{"rows": 1, "cols": 1, "entries": [["1", "0"]]}',
    "booleans.json": '{"rows": 1, "cols": 1, "entries": [[true, false]]}',
    "fractional_rows.json": '{"rows": 1.7, "cols": 1, "entries": [[1.0, 0.0]]}',
    "boolean_rows.json": '{"rows": true, "cols": 1, "entries": [[1.0, 0.0]]}',
    "string_rows.json": '{"rows": "1", "cols": 1, "entries": [[1.0, 0.0]]}',
    "odd.csv": "1.0,0.0,2.0\n",
    "ragged.csv": "1.0,0.0,2.0,0.0\n1.0,0.0\n",
    "text.csv": "1.0,zero\n",
    "header.csv": "# isospec-csv-v1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MATRIX_FILES))
def test_malformed_matrix_file_is_an_input_error(name, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_text(MALFORMED_MATRIX_FILES[name])
    # a 1x1 X: a 1x1 Theta1 read as valid would build a model and exit 0
    save_matrix_json(np.eye(1, dtype=complex), tmp_path / "x.json")
    code = cli.main(["build", "--theta1", str(bad), "--x", str(tmp_path / "x.json"),
                     "--outdir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_verify_of_a_model_with_broken_entries_is_an_input_error(built_model, tmp_path, capsys):
    doc = json.loads(built_model.read_text())
    doc["theta2"]["entries"][0] = [1.0]
    bad = tmp_path / "model_bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--model", str(bad), "--outdir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("tilde_k", ["a"]),
        ("kernel_set", 5),
        ("kernel_set", [1.5]),
        # ex3x3's own values as strings and booleans: numpy reads them as numbers
        ("tilde_k", ["1.4999999999999998", "1.4999999999999998", "0"]),
        ("tilde_k", [1.4999999999999998, 1.4999999999999998, False]),
        ("tilde_k", "1.5"),
        ("tilde_k", [[1.5], [1.5], [0.0]]),
        ("tilde_k", [1.5, 1.5, math.inf]),
        ("tilde_k", [10**400, 1.5, 0.0]),
        ("kernel_set", ["2"]),
        ("kernel_set", [True]),
        ("kernel_set", [2.0]),
        # verify recomputes the residuals, but a stored one must still be a finite number
        ("residuals", "x"),
        ("residuals", [1, 2]),
        ("residuals", {"intertwine": None}),
        ("residuals", {"intertwine": "1e-16"}),
        ("residuals", {"intertwine": True}),
        ("residuals", {"intertwine": math.nan}),
        ("residuals", {"intertwine": 10**400}),
    ],
)
def test_verify_of_a_model_with_broken_mode_fields_is_an_input_error(
    key, value, built_model, tmp_path, capsys
):
    doc = json.loads(built_model.read_text())
    doc[key] = value
    bad = tmp_path / "model_bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--model", str(bad), "--outdir", str(tmp_path)]) == 1
    assert f"model file {bad}" in capsys.readouterr().err


_MISSING = object()


@pytest.mark.parametrize("schema", [None, "x", _MISSING], ids=["null", "x", "missing"])
def test_verify_refuses_a_model_of_another_schema(schema, built_model, tmp_path, capsys):
    doc = json.loads(built_model.read_text())
    if schema is _MISSING:
        del doc["schema"]
    else:
        doc["schema"] = schema
    bad = tmp_path / "model_bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--model", str(bad), "--outdir", str(tmp_path)]) == 1
    assert "isospec-model-v1" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


# ---------------------------------------------------------------------------
# coherent sweep


def test_coherent_sweep_artifacts_and_report(tmp_path):
    proc = run_cli(
        "coherent",
        "--fixture",
        "coherent_demo",
        "--params",
        "alpha1=1.0,n_blocks=16",
        "--order",
        "24",
        "--grid-radial",
        "4",
        "--grid-angular",
        "4",
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 0
    lines = (tmp_path / "coherent_sweep.csv").read_text().splitlines()
    assert lines[0] == "# isospec-csv-v1"
    assert lines[1].startswith("# re_z,im_z,normalization")
    for row in lines[2:]:
        re_z, im_z, norm = (float(v) for v in row.split(",")[:3])
        expected = math.exp(-(re_z**2 + im_z**2) / 4.0)
        assert norm == pytest.approx(expected, abs=1e-9)
    report = json.loads((tmp_path / "coherent_report.json").read_text())
    assert report["all_passed"] is True
    assert report["max_overlap_defect"] < 1e-12
    assert report["resolution"]["max_residual"] < 1e-10
    assert report["measure"]["available"] is True
    assert report["quantization"]["defect_z"] < 1e-8
    assert report["quantization"]["defect_zbar"] < 1e-8
    assert (tmp_path / "coherent_quantize_z.json").exists()
    assert (tmp_path / "coherent_quantize_zbar.json").exists()


def test_coherent_sweep_past_the_truncation_exits_3(tmp_path):
    # rho is infinite, so the grid passes the gate; at |z| up to 1e6 the
    # order-60 truncation cannot converge, which is a verification failure
    proc = run_cli(
        "coherent",
        "--fixture",
        "coherent_demo",
        "--params",
        "alpha1=1.0,n_blocks=32",
        "--order",
        "60",
        "--grid-rmax",
        "1e6",
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "coherent_report.json").read_text())
    assert report["all_converged"] is False
    assert report["all_passed"] is False
    assert len((tmp_path / "coherent_sweep.csv").read_text().splitlines()) == 2 + 320


def test_coherent_rejects_nonconforming_spectrum(tmp_path):
    proc = run_cli("coherent", "--fixture", "ex3x3", "--outdir", str(tmp_path))
    assert proc.returncode == 2
    assert "eps_0" in proc.stderr


def test_coherent_quadratic_spectrum_falls_back_to_sum_form(tmp_path):
    save_matrix_json(
        np.diag([0.0, 1.0, 4.0, 9.0, 16.0, 25.0]).astype(complex), tmp_path / "t.json"
    )
    save_matrix_csv(np.eye(6, dtype=complex)[:, :5], tmp_path / "x.csv")
    proc = run_cli(
        "coherent",
        "--theta1",
        str(tmp_path / "t.json"),
        "--x",
        str(tmp_path / "x.csv"),
        "--order",
        "5",
        "--grid-radial",
        "3",
        "--grid-angular",
        "4",
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 0
    report = json.loads((tmp_path / "coherent_report.json").read_text())
    assert report["measure"]["available"] is False
    assert report["resolution"]["mode"] == "sum-form"
    assert report["all_passed"] is True


def test_coherent_reports_are_byte_deterministic(tmp_path):
    blobs = []
    for sub in ("r1", "r2"):
        proc = run_cli(
            "coherent",
            "--fixture",
            "coherent_demo",
            "--params",
            "alpha1=0.5,n_blocks=6",
            "--order",
            "10",
            "--grid-radial",
            "3",
            "--grid-angular",
            "3",
            "--outdir",
            str(tmp_path / sub),
            env=seeded_env(3),
        )
        assert proc.returncode == 0
        blobs.append(
            (
                (tmp_path / sub / "coherent_report.json").read_bytes(),
                (tmp_path / sub / "coherent_sweep.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# quantize


def test_quantize_artifact_matches_schema(tmp_path):
    proc = run_cli(
        "quantize",
        "--fixture",
        "coherent_demo",
        "--params",
        "alpha1=1.0,n_blocks=8",
        "--symbol",
        "z",
        "--order",
        "10",
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "quantize_z.json").read_text())
    assert doc["schema"] == "isospec-quantize-v1"
    assert doc["symbol"] == "z"
    assert doc["order"] == 10
    assert doc["ladder_defect"] < 1e-8
    m = jsonable_to_matrix(doc["matrix"])
    assert m.shape == (16, 16)  # ambient operator for 2 * n_blocks modes
    # lowering action on the first excited member: Q phi_1 = sqrt(2*alpha1) phi_0
    system = get_fixture("coherent_demo", alpha1=1.0, n_blocks=8).model.system1()
    np.testing.assert_allclose(
        m @ system.phi[:, 1], math.sqrt(2.0) * system.phi[:, 0], atol=1e-8
    )


def test_quantize_zbar_symbol(tmp_path):
    proc = run_cli(
        "quantize",
        "--fixture",
        "coherent_demo",
        "--params",
        "alpha1=1.0,n_blocks=8",
        "--symbol",
        "zbar",
        "--order",
        "10",
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "quantize_zbar.json").read_text())
    m = jsonable_to_matrix(doc["matrix"])
    # raising action on the bottom member: Q phi_0 = sqrt(2*alpha1) phi_1
    system = get_fixture("coherent_demo", alpha1=1.0, n_blocks=8).model.system1()
    np.testing.assert_allclose(
        m @ system.phi[:, 0], math.sqrt(2.0) * system.phi[:, 1], atol=1e-8
    )


def test_quantize_order_above_the_system_size_is_an_input_error(tmp_path):
    proc = run_cli(
        "quantize",
        "--fixture",
        "coherent_demo",
        "--params",
        "alpha1=1.0,n_blocks=4",
        "--order",
        "9",
        "--outdir",
        str(tmp_path),
    )
    assert proc.returncode == 1
    assert "order 9 exceeds system size 8" in proc.stderr


def test_order_one_quantizes_to_the_one_mode_ladder(tmp_path, capsys):
    # one mode leaves an empty band: the quantized symbol and the ladder are both 0
    source = ["--fixture", "coherent_demo", "--params", "n_blocks=4",
              "--order", "1", "--outdir", str(tmp_path)]
    assert cli.main(["coherent", *source]) == 0
    assert cli.main(["quantize", *source]) == 0
    report = json.loads((tmp_path / "coherent_report.json").read_text())
    assert report["all_passed"]
    assert report["quantization"]["defect_z"] == report["quantization"]["defect_zbar"] == 0.0
    quantized = json.loads((tmp_path / "quantize_z.json").read_text())
    assert quantized["ladder_defect"] == 0.0
    assert not np.any(jsonable_to_matrix(quantized["matrix"]))


def test_quantize_where_neighbouring_factorials_overflow_passes(tmp_path, capsys):
    argv = ["quantize", "--fixture", "coherent_demo", "--params", "alpha1=1000",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert json.loads((tmp_path / "quantize_z.json").read_text())["ladder_defect"] < 1e-12


def test_coherent_and_quantize_share_an_outdir(tmp_path, capsys):
    source = ["--fixture", "coherent_demo", "--params", "alpha1=1.0,n_blocks=8",
              "--order", "10", "--outdir", str(tmp_path)]
    assert cli.main(["coherent", *source, "--grid-radial", "3", "--grid-angular", "4"]) == 0
    assert cli.main(["quantize", *source, "--symbol", "z"]) == 0
    report = json.loads((tmp_path / "coherent_report.json").read_text())
    assert report["quantization"]["files"] == [
        "coherent_quantize_z.json",
        "coherent_quantize_zbar.json",
    ]
    # the sweep's matrix documents survive next to the quantize report
    for name in report["quantization"]["files"]:
        doc = json.loads((tmp_path / name).read_text())
        assert set(doc) == {"rows", "cols", "entries"}
    quantized = json.loads((tmp_path / "quantize_z.json").read_text())
    assert quantized["schema"] == "isospec-quantize-v1"
    np.testing.assert_array_equal(
        jsonable_to_matrix(quantized["matrix"]),
        jsonable_to_matrix(json.loads((tmp_path / "coherent_quantize_z.json").read_text())),
    )


# the quadrature size follows the order: 64 nodes cover orders up to 128, order 200
# takes 100, and the 200-node rule of order 400 leaves the float range
ORDER_200 = ["--fixture", "coherent_demo", "--params", "alpha1=0.01,n_blocks=100",
             "--order", "200"]
ORDER_400 = ["--fixture", "coherent_demo", "--params", "alpha1=0.001,n_blocks=200",
             "--order", "400"]
ORDER_400_REASON = ("measure not available at order 400: its 200-node Gauss-Laguerre rule "
                    "leaves the float range")


def test_quantize_at_order_200_recovers_its_ladder(tmp_path, capsys):
    assert cli.main(["quantize", *ORDER_200, "--outdir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "quantize_z.json").read_text())["ladder_defect"] < 1e-10


def test_coherent_at_order_200_takes_100_nodes(tmp_path, capsys):
    argv = ["coherent", *ORDER_200, "--grid-rmax", "0.05", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "coherent_report.json").read_text())
    assert report["measure"]["nodes"] == 100
    assert report["measure"]["max_moment_defect"] < 1e-10
    assert report["all_passed"]


def test_quantize_at_order_400_is_a_moment_error_naming_the_order(tmp_path, capsys):
    assert cli.main(["quantize", *ORDER_400, "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {ORDER_400_REASON}"]
    assert not list(tmp_path.iterdir())


def test_coherent_at_order_400_reports_the_measure_unavailable(tmp_path, capsys):
    argv = ["coherent", *ORDER_400, "--grid-rmax", "0.05", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "measure unavailable" in capsys.readouterr().out
    report = json.loads((tmp_path / "coherent_report.json").read_text())
    assert report["measure"] == {"available": False, "reason": ORDER_400_REASON}
    assert report["resolution"]["mode"] == "sum-form"
    assert report["quantization"] is None


# ---------------------------------------------------------------------------
# fixture


def test_fixture_list_prints_all_ids():
    proc = run_cli("fixture", "list")
    assert proc.returncode == 0
    assert proc.stdout.split() == ["ex2x2", "ex3x3", "shift", "block", "coherent_demo"]


def test_fixture_build_by_id(tmp_path):
    proc = run_cli(
        "fixture", "build", "block", "--params", "n_blocks=5", "--outdir", str(tmp_path)
    )
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["case"] == "NonInvertible"
    assert doc["kernel_set"] == [0, 2, 4, 6, 8]


# block lists its kernel modes as (0, 2, 4, 6); the rebuilt seed's (Re, Im) eigenvalue
# sort breaks the tie of each block's a - b, a + b on rounding and gives (1, 2, 4, 6)
MODE_ORDER = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="verify compares stored per-mode fields by index, not by eigenvalue: a model "
    "whose eigendata are not in eig's (Re, Im) order fails stored_kernel_set or "
    "stored_tilde_k (ROADMAP item 8); remove this mark when it is mended",
)


@pytest.mark.parametrize(
    "fixture_id", [pytest.param(f, marks=MODE_ORDER) if f == "block" else f
                   for f in FIXTURE_IDS]
)
def test_fixture_build_then_verify_round_trips(fixture_id, tmp_path, capsys):
    outdir = str(tmp_path)
    assert cli.main(["fixture", "build", fixture_id, "--outdir", outdir]) == 0
    assert cli.main(["verify", "--model", str(tmp_path / "model.json"), "--outdir", outdir]) == 0


# valid models whose fixture eigendata are not in eig's order; the shift phases are
# the README's own per-mode example
@MODE_ORDER
@pytest.mark.parametrize("fixture_id, params", [
    ("shift", "theta=2"),
    ("shift", "theta=0.5:0.6:0.7:0.8:0.9:1.0:1.1:1.2"),
    ("ex3x3", "e1=3,e2=2,e3=1"),
    ("block", "alpha=1:2:3:4,beta=0.5j:0.5j:0.5j:0.5j"),
])
def test_a_model_off_the_eig_order_builds_then_verifies(fixture_id, params, tmp_path, capsys):
    outdir = str(tmp_path)
    argv = ["build", "--fixture", fixture_id, "--params", params, "--outdir", outdir]
    if cli.main(argv) != 0:
        # not the defect the mark expects, so a plain failure
        pytest.fail(f"build refused {fixture_id} {params}")
    assert cli.main(["verify", "--model", str(tmp_path / "model.json"), "--outdir", outdir]) == 0


@pytest.mark.parametrize("tol, checks", [(None, [RELATION_TOL]), ("1e-12", [RELATION_TOL, 1e-12])])
def test_build_verifies_at_the_default_tolerance_and_again_at_another(
    tol, checks, tmp_path, monkeypatch
):
    # the stored residuals come from the default-tolerance check; writing runs none
    seen = []

    def counted(model, tol=RELATION_TOL):
        seen.append(tol)
        return intertwining.verify_relations(model, tol)

    monkeypatch.setattr(cli, "verify_relations", counted)
    argv = ["build", "--fixture", "ex3x3", "--outdir", str(tmp_path)]
    assert cli.main(argv + (["--relation-tol", tol] if tol else [])) == 0
    assert seen == checks
    doc = iomod.load_model(tmp_path / "model.json")
    model = get_fixture("ex3x3").model
    assert doc["residuals"] == intertwining.verify_relations(model).residuals


# ---------------------------------------------------------------------------
# options: each flag and config key has one reader


def test_fixture_source_honours_the_relation_tolerance(tmp_path, capsys):
    # the same model given through --model exits 2 at this tolerance too
    argv = ["build", "--fixture", "ex3x3", "--relation-tol", "1e-300", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "exceeds 1.0e-300" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_both_fixture_paths_refuse_a_repeated_spectrum_with_one_message(tmp_path, capsys):
    # block eigenvalues a - b, a + b per block: 0.5 and 1.5 twice over
    params = ["--params", "alpha=1:1,beta=0.5:0.5,n_blocks=2", "--outdir", str(tmp_path)]
    errs = []
    for argv in (["fixture", "build", "block"], ["build", "--fixture", "block"]):
        assert cli.main(argv + params) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert re.fullmatch(
        r"error: seed spectrum is not simple: eigenvalues 0 and 2 \(0\.5\+0j, 0\.5\+0j\) lie "
        r"0\.000e\+00 apart, within their discs of radius \S+ and \S+ \(margin 0\.000e\+00\); "
        r"close eigenvalues are never merged\n", errs[0])
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_fixture_source_at_default_tolerances_is_the_fixture_model(fixture_id):
    built = cli._build_target_model(cli.make_parser().parse_args(["build", "--fixture", fixture_id]))
    model = get_fixture(fixture_id).model
    for name in ("theta2", "phi2", "psi1", "psi2", "tilde_k"):
        assert getattr(built, name).tobytes() == getattr(model, name).tobytes(), name
    assert built.kernel_set == model.kernel_set


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_fixture_build_writes_what_build_fixture_writes(fixture_id, tmp_path, capsys):
    # one output path, so that the stdout lines naming it can match
    outputs = []
    for argv in (["fixture", "build", fixture_id], ["build", "--fixture", fixture_id]):
        code = cli.main(argv + ["--outdir", str(tmp_path)])
        outputs.append((code, (tmp_path / "model.json").read_bytes(), capsys.readouterr()))
        (tmp_path / "model.json").unlink()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


# e2 = 1 + 1e-9: eigenvalues 0 and 1 have a disc margin of 6.6e4
CLOSE_3X3 = ["--fixture", "ex3x3", "--params", "e1=1,e2=1.000000001,e3=3"]


def test_a_3x3_seed_with_close_eigenvalues_builds_and_verifies_at_a_finer_tolerance(tmp_path, capsys):
    # the disc rule resolves eigenvalues 1e-9 apart, finer than the former absolute gap
    # tolerance of 1e-8: both fixture paths build the seed at the defaults, with one output
    outputs = []
    for argv in (["build", *CLOSE_3X3], ["fixture", "build", "ex3x3", *CLOSE_3X3[2:]]):
        assert cli.main(argv + ["--outdir", str(tmp_path)]) == 0
        outputs.append(((tmp_path / "model.json").read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].err == ""
    assert cli.main(["verify", "--model", str(tmp_path / "model.json"),
                     "--outdir", str(tmp_path)]) == 0


def test_a_3x3_seed_with_close_eigenvalues_is_refused_at_the_default_tolerance(tmp_path, capsys):
    # e2 = 1 + 1e-15: the pair lies inside the rounding floor of its discs, margin below 1
    params = ["--params", "e1=1,e2=1.000000000000001,e3=3", "--outdir", str(tmp_path)]
    errs = []
    for argv in (["build", "--fixture", "ex3x3"], ["fixture", "build", "ex3x3"]):
        assert cli.main(argv + params) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert re.fullmatch(
        r"error: seed spectrum is not simple: eigenvalues 0 and 1 \(1\+0j, 1\+0j\) lie "
        r"1\.110e-15 apart, within their discs of radius \S+ and \S+ \(margin \d\.\d{3}e-\d\d\); "
        r"close eigenvalues are never merged\n", errs[0])
    assert not list(tmp_path.iterdir())


def _seed_files(tmp_path, theta1) -> list:
    """--theta1/--x arguments of a seed with X = I, saved in ``tmp_path``."""
    save_matrix_json(np.asarray(theta1, dtype=complex), tmp_path / "t.json")
    save_matrix_json(np.eye(len(theta1), dtype=complex), tmp_path / "x.json")
    return ["--theta1", str(tmp_path / "t.json"), "--x", str(tmp_path / "x.json")]


def test_eigenvalues_5e_9_apart_build_and_verify_at_the_defaults(tmp_path):
    # disc margin 4e6: the spectrum is certified simple
    out = ["--outdir", str(tmp_path / "o")]
    assert cli.main(["build", *_seed_files(tmp_path, np.diag([1.0, 1.0 + 5e-9])), *out]) == 0
    assert cli.main(["verify", "--model", str(tmp_path / "o" / "model.json"), *out]) == 0


def test_the_near_jordan_seed_is_refused_naming_its_margin(tmp_path, capsys):
    # eigenvalues 1e-7 apart whose discs, of radius 0.44, overlap: margin 1.1e-7
    seed = _seed_files(tmp_path, [[1.0, 1e4], [0.0, 1.0 + 1e-7]])
    assert cli.main(["build", *seed, "--outdir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed spectrum is not simple: eigenvalues 0 and 1 (1+0j, 1+0j) "
                          "lie 1.000e-07 apart")
    assert re.search(r"\(margin 1\.1\d\de-07\)", err)
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["coherent", "--fixture", "coherent_demo", "--output", "f"],
        ["build", "--fixture", "ex3x3", "--truncation", "8"],
        ["coherent", "--fixture", "coherent_demo", "--nodes", "100"],
        ["quantize", "--fixture", "coherent_demo", "--nodes", "100"],
    ],
    ids=["coherent-output", "build-truncation", "coherent-nodes", "quantize-nodes"],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, capsys):
    assert cli.main([*argv, "--outdir", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _assert_removed_option(key, command, built_model, tmp_path, capsys):
    """``key``, as a flag and as a config key, is an input error of ``command``."""
    source = ["--model", str(built_model)]
    if command != "verify":
        source = ["--fixture", "coherent_demo" if command != "build" else "ex3x3"]
    out = ["--outdir", str(tmp_path / "o")]
    flag = "--" + key.replace("_", "-")
    assert cli.main([command, *source, flag, "1e-11", *out]) == 1
    assert f"unrecognized arguments: {flag} 1e-11" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1e-11}))
    assert cli.main(["--config", str(cfg), command, *source, *out]) == 1
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["build", "verify", "coherent", "quantize"])
def test_kernel_tol_is_no_flag_and_no_config_key(command, built_model, tmp_path, capsys):
    # the kernel test is relative to sigma_max(X) and has no tolerance to set
    _assert_removed_option("kernel_tol", command, built_model, tmp_path, capsys)


@pytest.mark.parametrize("command", ["build", "verify", "coherent", "quantize"])
def test_multiplicity_tol_is_no_flag_and_no_config_key(command, built_model, tmp_path, capsys):
    # a simple spectrum is decided by disjoint eigenvalue discs, with no tolerance to set
    _assert_removed_option("multiplicity_tol", command, built_model, tmp_path, capsys)


def test_truncation_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fixture": "ex3x3", "truncation": 8}\n')
    assert cli.main(["--config", str(cfg), "build", "--outdir", str(tmp_path / "o")]) == 1
    assert "unknown config keys: ['truncation']" in capsys.readouterr().err


NON_FINITE_CASES = [
    (command, key, value)
    for command, keys in (("build", ("kernel_tol", "relation_tol", "multiplicity_tol")),
                          ("coherent", ("grid_rmax",)))
    for key in keys
    for value in ("nan", "inf", "-inf")
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command,key,value", NON_FINITE_CASES)
def test_non_finite_option_values_are_input_errors(command, key, value, via, tmp_path, capsys):
    # `build --kernel-tol nan` wrote kernel_set [] for ex3x3, whose kernel is [2]; the
    # kernel and simple-spectrum tests now have no tolerance to set, so those flags and
    # config keys are unknown
    source = ["--fixture", "ex3x3" if command == "build" else "coherent_demo"]
    flag = "--" + key.replace("_", "-")
    if via == "flag":
        argv = [command, *source, f"{flag}={value}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))
        argv = ["--config", str(cfg), command, *source]
    assert cli.main([*argv, "--outdir", str(tmp_path / "o")]) == 1
    if key not in ("kernel_tol", "multiplicity_tol"):
        refusal = f"argument {flag}: must be finite"
    elif via == "flag":
        refusal = f"unrecognized arguments: {flag}={value}"
    else:
        refusal = f"unknown config keys: ['{key}']"
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _flags(options: dict) -> list:
    """The command-line form of config options."""
    names = {"theta1_path": "--theta1", "x_path": "--x", "model_path": "--model"}
    argv = []
    for key, value in options.items():
        argv += [names.get(key, "--" + key.replace("_", "-")), str(value)]
    return argv


def _config_cases(model) -> dict:
    """Subcommand -> (its words, options it takes: strings and numbers both)."""
    tolerances = {"relation_tol": 1e-8}
    demo = {"fixture": "coherent_demo", "params": "alpha1=0.5,n_blocks=4",
            "order": 6}
    return {
        "build": (["build"],
                  {**tolerances, "fixture": "ex3x3", "params": "e1=1.5,e2=2.5,e3=4"}),
        "verify": (["verify"], {**tolerances, "model_path": str(model)}),
        "coherent": (["coherent"], {**tolerances, **demo, "grid_radial": 3,
                                    "grid_angular": "4", "grid_rmax": 1.5}),
        "quantize": (["quantize"], {**tolerances, **demo, "symbol": "zbar"}),
        "fixture build": (["fixture", "build", "shift"], {"params": "s=2,n=5"}),
    }


@pytest.mark.parametrize("command", ["build", "verify", "coherent", "quantize", "fixture build"])
def test_config_values_act_as_their_flags(command, built_model, tmp_path, capsys):
    words, options = _config_cases(built_model)[command]
    codes, artifacts = [], []
    for via in ("flags", "config"):
        outdir = tmp_path / via
        outdir.mkdir()
        run = {**options, "outdir": str(outdir)}
        if command != "coherent":
            run["output"] = str(outdir / "out.json")
        if via == "flags":
            codes.append(cli.main([*words, *_flags(run)]))
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(run))
            codes.append(cli.main(["--config", str(cfg), *words]))
        artifacts.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert codes[0] == codes[1] == 0
    assert artifacts[0] == artifacts[1]
    assert artifacts[0]


BAD_CONFIGS = {
    "order-fraction": ("coherent", {"order": 5.5}),
    "order-word": ("coherent", {"order": "five"}),
    "kernel-tol-null": ("build", {"kernel_tol": None}),  # no option: an unknown key
    "grid-rmax-word": ("coherent", {"grid_rmax": "big"}),
    "relation-tol-true": ("build", {"relation_tol": True}),
    "grid-radial-list": ("coherent", {"grid_radial": [20]}),
    "params-dict": ("build", {"params": {"e1": 2.0}}),
    "symbol-unknown": ("quantize", {"symbol": "w"}),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_values_are_input_errors(name, tmp_path, capsys):
    command, options = BAD_CONFIGS[name]
    fixture = "ex3x3" if command == "build" else "coherent_demo"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": fixture, **options}))
    assert cli.main(["--config", str(cfg), command, "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# a key each subcommand refuses, taken from another subcommand's options
FOREIGN_KEYS = {
    "build": (["build", "--fixture", "ex3x3"], "order"),
    "verify": (["verify"], "fixture"),
    "coherent": (["coherent", "--fixture", "coherent_demo"], "symbol"),
    "quantize": (["quantize", "--fixture", "coherent_demo"], "grid_rmax"),
    "fixture build": (["fixture", "build", "ex3x3"], "relation_tol"),
    "fixture list": (["fixture", "list"], "params"),
}


@pytest.mark.parametrize("command", sorted(FOREIGN_KEYS))
def test_config_keys_of_other_subcommands_are_refused(command, built_model, tmp_path, capsys):
    words, key = FOREIGN_KEYS[command]
    doc = {"model_path": str(built_model)} if command == "verify" else {}
    doc[key] = "1"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["--config", str(cfg), *words]) == 1
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


COMMAND_DEFAULTS = {
    "build": [".", RELATION_TOL],
    "verify": [".", RELATION_TOL],
    "coherent": [".", RELATION_TOL,
                 f"min({cli.DEFAULT_ORDER}, system size)", 20, 16, 2.0],
    "quantize": [".", RELATION_TOL, "z",
                 f"min({cli.DEFAULT_ORDER}, system size)"],
    "fixture build": ["."],
    "fixture list": [],
}


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_help_prints_each_default(command, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([*command.split(), "-h"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for default in COMMAND_DEFAULTS[command]:
        assert f"(default {default})" in text
    assert text.count("(default ") == len(COMMAND_DEFAULTS[command])


@pytest.mark.parametrize("command", ["coherent", "quantize"])
@pytest.mark.parametrize("order", ["0", "-2"])
def test_order_below_one_is_an_input_error(command, order, tmp_path, capsys):
    argv = [command, "--fixture", "coherent_demo", "--params", "alpha1=1.0,n_blocks=8",
            "--order", order, "--outdir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "order must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# fixture parameters


def _readme_fixture_params() -> dict:
    """Fixture id -> parameter names, read from the README's fixture table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Fixtures", 1)[1]
    params = {}
    for line in section.split("\n\n", 2)[1].splitlines():
        row = re.match(r"\| `(\w+)` +\| `([\w,]+)`", line)
        if row:
            params[row.group(1)] = row.group(2).split(",")
    return params


# one admissible --params value per README parameter name
SAMPLE_VALUES = {
    "x11": "2", "x12": "0.5i",
    "e1": "1.5", "e2": "2.5", "e3": "4",
    "s": "2", "theta": "0.3", "n": "6",
    "alpha": "1:2:3:4", "beta": "0.5i:1i:1.5i:2i", "n_blocks": "4",
    "alpha1": "0.5",
}


def test_readme_fixture_table_lists_each_accepted_parameter(tmp_path, capsys):
    table = _readme_fixture_params()
    assert list(table) == list(FIXTURE_IDS)
    for fixture_id, names in table.items():
        for name in names:
            outdir = tmp_path / fixture_id / name
            argv = ["build", "--fixture", fixture_id, "--params",
                    f"{name}={SAMPLE_VALUES[name]}", "--outdir", str(outdir)]
            assert cli.main(argv) == 0, (fixture_id, name)
            assert (outdir / "model.json").exists()


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_unknown_fixture_parameter_is_an_input_error(fixture_id, tmp_path, capsys):
    argv = ["build", "--fixture", fixture_id, "--params", "bogus=1", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "bogus" in err
    assert ", ".join(_readme_fixture_params()[fixture_id]) in err
    assert not list(tmp_path.iterdir())


# each ended in a traceback, or (n=2.5) in a silently truncated 2-mode model
BAD_FIXTURE_VALUES = [
    ("ex3x3", "e1=1+2i"),
    ("shift", "theta=0.1+1i"),
    ("coherent_demo", "n_blocks=abc"),
    ("ex2x2", "x11=abc"),
    ("coherent_demo", "alpha1=nan"),
    ("coherent_demo", "alpha1=inf"),
    ("shift", "s=nan"),
    ("shift", "n=2.5"),
    ("shift", "theta=0.5:0.6:0.7:0.8:0.9:1.0:1.1:1.2+1i"),
]


@pytest.mark.parametrize("fixture_id,params", BAD_FIXTURE_VALUES)
def test_bad_fixture_values_are_input_errors(fixture_id, params, tmp_path):
    outdir = tmp_path / "out"
    proc = run_cli("build", "--fixture", fixture_id, "--params", params, "--outdir", str(outdir))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not outdir.exists()


def test_scalar_block_parameters_are_one_entry_lists(tmp_path, capsys):
    block = ["build", "--fixture", "block", "--params"]
    assert cli.main(block + ["alpha=1,beta=1,n_blocks=1", "--outdir", str(tmp_path / "one")]) == 0
    assert "kernel_set=[0]" in capsys.readouterr().out
    # at the default four blocks one pair is too few
    assert cli.main(block + ["alpha=1,beta=1", "--outdir", str(tmp_path / "four")]) == 1
    assert capsys.readouterr().err == "error: need 4 (alpha, beta) pairs, got 1\n"
    assert not (tmp_path / "four").exists()


def test_list_parameters_keep_the_kind_of_their_elements(tmp_path, capsys):
    params = cli.parse_params("n=1:2,theta=0.5:2,alpha=1:0.5i")
    assert [params[key].dtype.kind for key in ("n", "theta", "alpha")] == list("ifc")
    # text in a list is still refused where the flag is parsed, as a usage error
    argv = ["build", "--fixture", "block", "--params", "alpha=1:abc", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith("error: argument --params: invalid parse_params value: 'alpha=1:abc'\n")


def test_a_real_list_of_phases_builds_under_warnings_as_errors(tmp_path):
    theta = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "isospec.cli", "build", "--fixture", "shift",
         "--params", "theta=" + ":".join(map(str, theta)), "--outdir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # eps_0 = 0 carries no phase; each other mode carries its own angle
    phases = np.angle(np.diag(iomod.load_model(tmp_path / "model.json")["theta1_matrix"]))
    np.testing.assert_allclose(phases[1:], theta[1:], rtol=1e-15)


@pytest.mark.parametrize("command", ["coherent", "quantize"])
def test_factorials_past_the_float_range_end_in_the_moment_table_refusal(command, tmp_path):
    import os

    # alpha1 = 1e10: eps_k! is inf from k = 28, the states and the ladders stay finite
    proc = subprocess.run(
        CLI + [command, "--fixture", "coherent_demo", "--params", "alpha1=1e10",
               "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONWARNINGS="error"),
    )
    assert proc.returncode == errors.NumericalError.exit_code == 2
    assert proc.stderr.splitlines() == ["error: radial moment of order 50 overflows"]


def test_a_random_pair_beyond_the_mode_bound_is_refused_before_it_draws(
    tmp_path, monkeypatch, capsys
):
    drawn = []

    def stub(dim1, dim2, seed):
        drawn.append((dim1, dim2))
        raise errors.ParameterError("drawn")

    monkeypatch.setattr(cli, "make_commuting_pair", stub)
    outdir = tmp_path / "out"
    assert cli.main(["build", "--random", "2049x2", "--outdir", str(outdir)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "2049 modes exceed the bound of 2048" in lines[0]
    assert drawn == [] and not outdir.exists()
    # the bound itself is drawn
    assert cli.main(["build", "--random", "2048x2", "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err == "error: drawn\n"
    assert drawn == [(2048, 2)]


def test_the_grid_bound_counts_points_times_modes(tmp_path, monkeypatch, capsys):
    # coherent_demo's 64 modes: 256 x 256 points reach 2^22 entries, 257 x 256 pass it
    def stub(system, eps, zs, order):
        raise errors.ParameterError(f"grid of {zs.size} points")

    monkeypatch.setattr(cli, "coherent_grid", stub)
    source = ["coherent", "--fixture", "coherent_demo", "--outdir", str(tmp_path)]
    for radial, message in (("256", "grid of 65536 points"), ("257", "bound of 4194304")):
        assert cli.main(source + ["--grid-radial", radial, "--grid-angular", "256"]) == 1
        assert message in capsys.readouterr().err
    assert cli.MAX_GRID_ENTRIES == 2**22


def test_a_z_grid_past_the_entry_bound_is_refused_before_it_is_built(tmp_path):
    # 10^10 points: without the bound an out-of-memory end, under this cap a MemoryError
    import os

    resource = pytest.importorskip("resource")
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = ["coherent", "--fixture", "coherent_demo", "--grid-radial", "100000",
            "--grid-angular", "100000", "--outdir", str(tmp_path)]
    proc = subprocess.run(CLI + argv, capture_output=True, text=True, preexec_fn=limit,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "past the bound of 4194304" in lines[0]


def test_coherent_demo_builds_beyond_the_float_range_of_its_factorials(tmp_path):
    argv = ["build", "--fixture", "coherent_demo", "--params", "n_blocks=100",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert (tmp_path / "model.json").exists()


def test_an_allocation_no_machine_can_meet_is_an_input_error(tmp_path):
    # a 1024x1024 z-grid on 4 modes sits at the grid bound, and its million
    # states' bookkeeping outgrows a 512 MiB address space: the child fails
    # its allocation at once instead of filling the machine
    import os

    resource = pytest.importorskip("resource")
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = ["coherent", "--fixture", "coherent_demo", "--params", "n_blocks=2",
            "--grid-radial", "1024", "--grid-angular", "1024", "--grid-rmax", "0.5",
            "--outdir", str(tmp_path)]
    proc = subprocess.run(CLI + argv, capture_output=True, text=True, preexec_fn=limit,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "fixture_id, params",
    [("block", "n_blocks=1e9"), ("coherent_demo", "n_blocks=1e9"), ("shift", "n=1e9")],
)
def test_a_fixture_beyond_the_mode_bound_is_refused_before_it_allocates(
    fixture_id, params, tmp_path
):
    # without the bound each asks for gigabytes; under a 512 MiB address-space
    # cap that would be an allocation failure, not the refusal that names the bound
    import os

    resource = pytest.importorskip("resource")
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = ["build", "--fixture", fixture_id, "--params", params, "--outdir", str(tmp_path)]
    proc = subprocess.run(CLI + argv, capture_output=True, text=True, preexec_fn=limit,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "bound of 2048" in lines[0]


@pytest.mark.parametrize("alpha1", ["1e100", "1e200"])
def test_a_model_whose_powers_overflow_is_a_numerical_error(alpha1, tmp_path):
    import os

    outdir = tmp_path / "out"
    proc = subprocess.run(
        CLI + ["build", "--fixture", "coherent_demo", "--params", f"alpha1={alpha1}",
               "--outdir", str(outdir)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONWARNINGS="error"),
    )
    assert proc.returncode == errors.NumericalError.exit_code == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not (outdir / "model.json").exists()


# coherent_demo's disc is the whole plane, so the gate passes the grid; its states
# overflow in the eigenstate residual, which is refused before any file is written
HUGE_GRID = ["coherent", "--fixture", "coherent_demo", "--params", "n_blocks=2",
             "--grid-rmax", "1e155"]
HUGE_GRID_ERROR = "error: eigenstate residual overflowed on the z-grid (largest |z| = 1e+155)"


def test_a_z_grid_whose_states_overflow_is_a_numerical_error(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert cli.main(HUGE_GRID + ["--outdir", str(outdir)]) == errors.NumericalError.exit_code
    assert capsys.readouterr().err == HUGE_GRID_ERROR + "\n"
    assert not outdir.exists()


def test_a_z_grid_whose_states_overflow_warns_nothing(tmp_path):
    outdir = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "isospec.cli", *HUGE_GRID,
                           "--outdir", str(outdir)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [HUGE_GRID_ERROR]
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["quantize", "coherent"])
def test_an_overflowing_moment_table_is_a_numerical_error(command, tmp_path):
    import os

    # alpha1 = 2e5: the factorials and the band are finite, r^78 at the last node is not
    proc = subprocess.run(
        CLI + [command, "--fixture", "coherent_demo", "--params", "alpha1=2e5",
               "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONWARNINGS="error"),
    )
    assert proc.returncode == errors.NumericalError.exit_code == 2
    assert proc.stderr.splitlines() == ["error: radial moment of order 78 overflows"]


def test_verify_relations_of_an_overflowing_model_raises_numerical_error():
    from isospec.intertwining import verify_relations

    model = get_fixture("coherent_demo", alpha1=1e200, n_blocks=4).model
    with pytest.raises(errors.NumericalError):
        verify_relations(model)


# pytest makes a RuntimeWarning an error, so each refusal below also warns nothing
def test_a_seed_whose_commutator_overflows_is_a_numerical_error(tmp_path, capsys):
    # s = 1e300: [N1, Theta1] overflows while the regime is classified
    outdir = tmp_path / "out"
    argv = ["build", "--fixture", "shift", "--params", "s=1e300", "--outdir", str(outdir)]
    assert cli.main(argv) == errors.NumericalError.exit_code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not outdir.exists()


def test_a_3x3_seed_past_the_float_range_is_one_input_error(tmp_path, capsys):
    outdir = tmp_path / "out"
    argv = ["build", "--fixture", "ex3x3", "--params", "e1=1e308,e2=-1e308",
            "--outdir", str(outdir)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: matrix entries must be finite (no NaN/Inf)"]
    assert not outdir.exists()


@pytest.mark.parametrize("params, code", [
    ("coherent_demo alpha1=1e308", 1),
    ("block alpha=1e308,beta=1e308,n_blocks=1", 2),
    ("shift s=1e308", 1),
    # a gap of the seed spectrum past the float range, and a 2x2 norm that overflows
    ("block alpha=1,beta=1e308j,n_blocks=1", 2),
    ("ex2x2 x11=1e154,x12=1e154", 1),
    ("ex2x2 x11=1e155", 1),
])
def test_a_fixture_parameter_past_the_float_range_is_one_error_line(params, code, tmp_path,
                                                                   capsys):
    fixture_id, values = params.split()
    outdir = tmp_path / "out"
    argv = ["build", "--fixture", fixture_id, "--params", values, "--outdir", str(outdir)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "(34, 'Numerical result out of range')" not in err[0]
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["coherent", "quantize"])
@pytest.mark.parametrize("params", [
    # a model eigenvalue of inf is no epsilon value
    "block alpha=1e308,beta=1e308,n_blocks=1",
    # quadrature nodes past the float range end in the moment table's refusal
    "coherent_demo alpha1=1e306,n_blocks=2",
])
def test_a_series_on_a_model_past_the_float_range_is_one_error_line(command, params,
                                                                    tmp_path, capsys):
    fixture_id, values = params.split()
    argv = [command, "--fixture", fixture_id, "--params", values, "--outdir", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


# ---------------------------------------------------------------------------
# removed library names


def _readme_removed_names() -> list:
    """Names in the first column of the README's "Removed library names" table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("Removed library names", 1)[1]
    table = section.split("\n\n", 2)[1]
    return [name for line in table.splitlines()[2:]
            for name in re.findall(r"`([\w.]+)`", line.split("|")[1])]


def test_readme_removed_names_are_gone():
    names = _readme_removed_names()
    assert {"build_ladders_level2", "RadialMeasure.family", "GrowthError"} <= set(names)
    modules = [isospec, bicoherent, errors, intertwining, iomod, linalg, zoo]
    for name in names:
        if "." in name:
            owner, attr = name.split(".")
            cls = getattr(isospec, owner)
            assert not hasattr(cls, attr), name
            assert attr not in {field.name for field in dataclasses.fields(cls)}, name
        else:
            assert name not in isospec.__all__, name
            assert not any(hasattr(module, name) for module in modules), name


# ---------------------------------------------------------------------------
# exit codes


def _readme_exit_codes() -> dict:
    """Error class name -> exit code, read from the README's exit-code table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Exit codes", 1)[1]
    codes = {}
    for line in section.split("\n\n", 2)[1].splitlines():
        row = re.match(r"\| (\d) ", line)
        if row:
            codes.update((name, int(row.group(1))) for name in re.findall(r"`(\w+Error)`", line))
    return codes


ERROR_CLASSES = sorted(
    (
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.IsospecError)
    ),
    key=lambda cls: cls.__name__,
)


def test_readme_exit_code_table_names_every_error_class():
    subclasses = {cls.__name__ for cls in ERROR_CLASSES} - {"IsospecError"}
    assert set(_readme_exit_codes()) == subclasses


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_ends_the_run_with_its_exit_code(cls, monkeypatch, capsys):
    # the base class is an input error, as the README's note on the table says
    expected = _readme_exit_codes().get(cls.__name__, 1)
    assert cls.exit_code == expected

    def refuse(config):
        raise cls("refused")

    monkeypatch.setattr(cli, "cmd_build", refuse)
    assert cli.main(["build", "--fixture", "ex2x2"]) == expected
    assert "error: refused" in capsys.readouterr().err
