"""The scripts in scripts/: each one imports, and the study driver runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _load(path):
    """The script as a module, without running its `main`."""
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_run_study_small(tmp_path):
    study = _load(next(p for p in SCRIPTS if p.name == "run_study.py"))
    assert study.main(["--reps", "20", "--out", str(tmp_path)]) == 0
    for name in ("setting1", "setting2", "setting3", "summary"):
        assert (tmp_path / name / "power.csv").is_file()
    assert (tmp_path / "replay" / "analysis.json").is_file()
