"""End-to-end command-line checks run through a subprocess."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isospec.cli as cli
from isospec import FIXTURE_IDS, errors, get_fixture
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


def test_verify_missing_model_is_an_input_error(tmp_path):
    proc = run_cli("verify", "--model", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "not found" in proc.stderr


MALFORMED_MATRIX_FILES = {
    "pairs.json": '{"rows": 1, "cols": 2, "entries": [[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]]}',
    "count.json": '{"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}',
    "strings.json": '{"rows": 1, "cols": 1, "entries": [["1", "0"]]}',
    "odd.csv": "1.0,0.0,2.0\n",
    "ragged.csv": "1.0,0.0,2.0,0.0\n1.0,0.0\n",
    "text.csv": "1.0,zero\n",
    "header.csv": "# isospec-csv-v1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MATRIX_FILES))
def test_malformed_matrix_file_is_an_input_error(name, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_text(MALFORMED_MATRIX_FILES[name])
    save_matrix_json(np.eye(2, dtype=complex), tmp_path / "x.json")
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


# ---------------------------------------------------------------------------
# options: each flag and config key has one reader


def test_fixture_source_honours_the_relation_tolerance(tmp_path, capsys):
    # the same model given through --model exits 2 at this tolerance too
    argv = ["build", "--fixture", "ex3x3", "--relation-tol", "1e-300", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "exceeds 1.0e-300" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_fixture_source_honours_the_multiplicity_tolerance(tmp_path, capsys):
    # coherent_demo's eigenvalues are 2 apart: not simple at a gap tolerance of 10
    argv = ["build", "--fixture", "coherent_demo", "--params", "n_blocks=4",
            "--multiplicity-tol", "10", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "not simple" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_fixture_source_at_default_tolerances_is_the_fixture_model(fixture_id):
    built = cli._build_target_model(cli.RunConfig(fixture=fixture_id))
    model = get_fixture(fixture_id).model
    for name in ("theta2", "phi2", "psi1", "psi2", "tilde_k"):
        assert getattr(built, name).tobytes() == getattr(model, name).tobytes(), name
    assert built.kernel_set == model.kernel_set


@pytest.mark.parametrize(
    "argv",
    [
        ["coherent", "--fixture", "coherent_demo", "--output", "f"],
        ["build", "--fixture", "ex3x3", "--truncation", "8"],
    ],
    ids=["coherent-output", "build-truncation"],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, capsys):
    assert cli.main([*argv, "--outdir", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_truncation_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fixture": "ex3x3", "truncation": 8}\n')
    assert cli.main(["--config", str(cfg), "build", "--outdir", str(tmp_path / "o")]) == 1
    assert "unknown config keys: ['truncation']" in capsys.readouterr().err


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
