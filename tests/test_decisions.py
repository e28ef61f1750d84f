"""One verdict type: every threshold decision is a ``Decision``.

A value passes when it is at most its tolerance, so a NaN fails; a
report's ``all_passed`` is the absence of failures; the quoted text marks
a bound by the side of the verdict it lies on (``<=`` passing, ``>=``
failing) and leaves an exact value bare.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest

import isospec.cli as cli
from isospec import (
    Decision,
    DimensionError,
    NumericalError,
    RelationReport,
    nlpb_verify,
    standard_boson,
)
from isospec.linalg import SpectralNorm, certified_ratio

TOL = 1e-9
# each edge value and whether it passes TOL
EDGES = {
    0.0: True,
    TOL: True,
    math.nextafter(TOL, math.inf): False,
    math.nan: False,
    math.inf: False,
    -math.inf: True,
}


@pytest.mark.parametrize("value", list(EDGES))
def test_a_decision_passes_exactly_at_or_below_its_tolerance(value):
    assert Decision(value, TOL).passed == EDGES[value]
    assert Decision(value, TOL, True).passed == EDGES[value]


@pytest.mark.parametrize("values", list(itertools.product(EDGES, repeat=2)))
def test_all_passed_is_the_absence_of_failures(values):
    decisions = {f"r{i}": Decision(v, TOL) for i, v in enumerate(values)}
    report = RelationReport(decisions, TOL)
    assert report.failures() == [f"r{i}" for i, v in enumerate(values) if not EDGES[v]]
    assert report.all_passed == (not report.failures())
    assert report.to_jsonable()["all_passed"] == report.all_passed
    rows = str(report).splitlines()[:2]
    assert [row.endswith("PASS") for row in rows] == [EDGES[v] for v in values]


def test_the_quoted_text_marks_a_bound_by_its_verdict():
    assert str(Decision(1.555e-16, 1e-15, True)) == "<= 1.555e-16"
    assert str(Decision(1.013e-15, 1e-15, True)) == ">= 1.013e-15"
    assert str(Decision(1.961e-15, 1e-15)) == "1.961e-15"
    assert str(Decision(math.nan, 1e-15)) == "nan"
    assert Decision(1.555e-16, 1e-15, True).row("intertwine") == (
        f"{'intertwine':32s} {'<= 1.555e-16':>12s}  PASS"
    )
    assert Decision(2.0, 1.0).row("x") == f"{'x':32s} {'2.000e+00':>12s}  FAIL"


@pytest.mark.parametrize("offset", [1e-3, 1.0, 1e3])
def test_certified_ratio_decides_against_its_tolerance(offset):
    rng = np.random.default_rng(7)
    b = rng.standard_normal((4, 3))
    a = rng.standard_normal((4, 3))
    a *= TOL * offset * np.linalg.norm(b, 2) / np.linalg.norm(a, 2)
    decision = certified_ratio(a, (SpectralNorm(b),), TOL)
    assert isinstance(decision, Decision)
    assert decision.tolerance == TOL
    assert decision.passed == (offset <= 1.0)


def test_a_report_reads_its_residuals_and_bounds_from_its_decisions():
    decisions = {
        "a": Decision(1e-16, TOL, True),
        "b": Decision(0.5, TOL),
        "c": Decision(3.0, TOL, True),
    }
    report = RelationReport(decisions, TOL)
    assert report.residuals == {"a": 1e-16, "b": 0.5, "c": 3.0}
    assert report.bounded == {"a", "c"}
    assert report.to_jsonable()["bounded"] == ["a", "c"]


# (scale of a, scale of b) and whether nlpb_verify must refuse the pair
RESCALINGS = [
    ((1.0, 1.0), False),
    ((1e10, 1e-10), False),
    ((1e-10, 1e10), False),
    # the eta columns reach 1e280: their norms are taken on rescaled columns
    ((1e40, 1e-40), False),
    # b^n Phi_0 overflows to inf and NaN
    ((1e-200, 1e200), True),
    # the Phi columns reach 1e280
    ((1e-40, 1e40), False),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scales, refused", RESCALINGS)
def test_a_rescaled_ladder_pair_ends_in_a_verdict_or_a_numerical_error(scales, refused):
    a, b, eps, phi0, eta0 = standard_boson(8)
    if refused:
        with pytest.raises(NumericalError, match="nlpb check"):
            nlpb_verify(a * scales[0], b * scales[1], eps, phi0, eta0, 8)
        return
    report = nlpb_verify(a * scales[0], b * scales[1], eps, phi0, eta0, 8)
    assert all(math.isfinite(v) for v in report.residuals.values())
    assert report.all_passed == (not report.failures())
    assert report.all_passed


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_seed_vector_is_an_input_error(bad):
    a, b, eps, phi0, eta0 = standard_boson(6)
    for which in (0, 1):
        seeds = [phi0.copy(), eta0.copy()]
        seeds[which][3] = bad
        with pytest.raises(DimensionError, match="finite"):
            nlpb_verify(a, b, eps, *seeds, 6)


_ROW = re.compile(r"^(\w+) +(<= |>= )?(\S+)  (PASS|FAIL)$")


def _rows(text: str) -> dict:
    """name -> (mark, PASS/FAIL) of the decision rows of a text report."""
    return {m[1]: (m[2], m[4]) for m in map(_ROW.match, text.splitlines()) if m}


def test_verify_quotes_bounds_on_their_verdicts_side(tmp_path, capsys):
    assert cli.main(["fixture", "build", "ex3x3", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    code = cli.main(
        ["verify", "--model", str(tmp_path / "model.json"), "--relation-tol", "1e-15",
         "--outdir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    relations_text, structure_text = out.split("structure checks:\n")
    relations, structure = _rows(relations_text), _rows(structure_text)
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    for rows, section in ((relations, doc["relations"]), (structure, doc["structure"])):
        assert all(verdict == "PASS" for mark, verdict in rows.values() if mark == "<= ")
        assert all(verdict == "FAIL" for mark, verdict in rows.values() if mark == ">= ")
        marked = sorted(name for name, (mark, _) in rows.items() if mark)
        assert section["bounded"] == marked
    # far from 1e-15: a passing bound, and a skip reason that quotes a failing bound
    assert relations["intertwine"] == ("<= ", "PASS")
    assert "(defect >= " in structure_text
    # adjoint_descent is printed as a report row, after the structure table
    assert "adjoint_descent" in structure
    verdicts = [verdict for _, verdict in [*relations.values(), *structure.values()]]
    assert code == (cli.EXIT_VERIFY if "FAIL" in verdicts else cli.EXIT_OK)


def test_one_ladder_defect_tolerance_decides_coherent_and_quantize(tmp_path, monkeypatch, capsys):
    argv = ["--fixture", "coherent_demo", "--params", "n_blocks=4", "--order", "8"]
    assert cli.main(["quantize", *argv, "--outdir", str(tmp_path / "q")]) == cli.EXIT_OK
    assert cli.main(["coherent", *argv, "--outdir", str(tmp_path / "c")]) == cli.EXIT_OK
    # no defect is at most a negative tolerance
    monkeypatch.setattr(cli, "LADDER_DEFECT_TOL", -1.0)
    assert cli.main(["quantize", *argv, "--outdir", str(tmp_path / "q")]) == cli.EXIT_VERIFY
    assert cli.main(["coherent", *argv, "--outdir", str(tmp_path / "c")]) == cli.EXIT_VERIFY
    report = json.loads((tmp_path / "c" / "coherent_report.json").read_text())
    assert report["quantization"]["defect_z"] >= 0.0
    assert not report["all_passed"]
