"""Bundled outputs, byte for byte.

A design change keeps the CLI's outputs byte-identical unless it states
otherwise; these expected files turn that rule into a check.  The run
summaries are compared without ``runtime_s``, which is a timing; the 2D
prey density (382 KB) is kept as its sha256, in ``sha256sum`` format.  To
re-record after an intended change, copy the new outputs into
``tests/golden`` (dropping ``runtime_s``) and say why in the change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polyflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def summary_without_timing(path: Path) -> str:
    summary = json.loads(path.read_text())
    summary.pop("runtime_s")
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def check_verify_report(tmp_path: Path, seed: int) -> None:
    code = main(["verify", str(ROOT / "configs" / "verify_all.json"),
                 "--seed", str(seed), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    expected = GOLDEN / f"verify_all_seed{seed}" / "report.json"
    assert (tmp_path / "report.json").read_bytes() == expected.read_bytes()


def test_verify_report(tmp_path):
    check_verify_report(tmp_path, 0)


def test_verify_report_seed3(tmp_path):
    # a second draw of the verify suites' random data
    check_verify_report(tmp_path, 3)


RUN_FILES = {
    "epidemic": ["epidemic_trajectory.csv", "epidemic_cohort_final.csv"],
    # the one bundled run whose crossing-time clamp cuts refine.j_max
    "epidemic_sir": ["epidemic_trajectory.csv", "epidemic_cohort_final.csv"],
    "predator_prey_1d": ["predator_prey_trajectory.csv",
                         "prey_density_final.csv"],
    "predator_prey_2d": ["predator_prey_trajectory.csv"],
    "rotation": ["rotation_convergence.csv"],
    # the 2D pursuit refined to level 1, which the bundled 2D config (level
    # 0 only) never reaches: the benchmark's pursuit2d config on 50x50 cells
    "pursuit2d_refined": ["predator_prey_trajectory.csv"],
}
RUN_DIGESTS = {"predator_prey_2d": ["prey_density_final.csv"],
               "pursuit2d_refined": ["prey_density_final.csv"]}


def run_config(scenario: str) -> Path:
    """The bundled config of ``scenario``, or the one kept with its
    expected outputs."""
    kept = GOLDEN / scenario / "config.json"
    return kept if kept.exists() else ROOT / "configs" / f"{scenario}.json"


@pytest.mark.parametrize("scenario", list(RUN_FILES))
def test_run_outputs(tmp_path, scenario):
    code = main(["run", str(run_config(scenario)),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    for name in RUN_FILES[scenario]:
        assert ((tmp_path / name).read_bytes()
                == (GOLDEN / scenario / name).read_bytes()), name
    for name in RUN_DIGESTS.get(scenario, []):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        expected = (GOLDEN / scenario / f"{name}.sha256").read_text().split()
        assert expected == [digest, name]
    assert (summary_without_timing(tmp_path / "summary.json")
            == (GOLDEN / scenario / "summary.json").read_text())


@pytest.mark.parametrize("scenario", ["epidemic", "rotation"])
def test_converge_table(tmp_path, scenario):
    code = main(["converge", str(ROOT / "configs" / f"{scenario}.json"),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    expected = GOLDEN / f"converge_{scenario}" / "convergence.csv"
    assert (tmp_path / "convergence.csv").read_bytes() == expected.read_bytes()
