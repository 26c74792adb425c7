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


def test_bench_pairs_verdicts():
    compare = _load(next(p for p in SCRIPTS if p.name == "bench_pairs.py")).compare
    base = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]  # IQR 1.875
    # Nine of ten pairs won and the medians 20 apart: a gain, on either direction.
    faster = [b + 20.0 for b in base[:9]] + [90.0]
    up = compare(base, faster, "higher", 0.25)
    assert up["change_better_pairs"] == 9 and up["gain_shown"] and not up["worse_than_bound"]
    down = compare(base, [b - 20.0 for b in base], "lower", 0.25)
    assert down["gain_shown"] and down["ratio_of_medians"] == pytest.approx(0.8)
    # Eight wins are too few, and ten wins inside the base's quartiles too small.
    assert not compare(base, [b + 20.0 for b in base[:8]] + [90.0, 90.0], "higher", 0.25)[
        "gain_shown"]
    assert not compare(base, [b + 1.0 for b in base], "higher", 0.25)["gain_shown"]
    # Worse than the bound: a median more than 25 % (or 5 %) on the wrong side.
    assert compare(base, [b * 0.7 for b in base], "higher", 0.25)["worse_than_bound"]
    assert not compare(base, [b * 0.8 for b in base], "higher", 0.25)["worse_than_bound"]
    assert compare(base, [b * 1.06 for b in base], "lower", 0.05)["worse_than_bound"]
    assert not compare(base, [b * 1.04 for b in base], "lower", 0.05)["worse_than_bound"]
    # Unresolved: the base's own spread is wider than the bound, unless every
    # change run is better than every base run.
    assert not up["unresolved"]  # IQR 1.875 < 25 % of 100
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]  # IQR 37.5
    assert compare(noisy, [x * 1.1 for x in noisy], "higher", 0.25)["unresolved"]
    assert not compare(noisy, [x + 81.0 for x in noisy], "higher", 0.25)["unresolved"]
    assert compare(noisy, [x - 79.0 for x in noisy], "lower", 0.25)["unresolved"]
    assert not compare(noisy, [x - 81.0 for x in noisy], "lower", 0.25)["unresolved"]


def test_scale_probe_small(capsys):
    probe = _load(next(p for p in SCRIPTS if p.name == "scale_probe.py"))
    assert probe.main(["--reps", "2"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:4] for row in rows] == [[f"x{f}", name, str(924 * f), "2"]
                                         for f in (1, 4, 16) for name in ("power", "null")]
    for row in rows:
        ms, faults = map(float, row[4:])
        assert ms > 0.0 and faults >= 0.0


def test_cold_probe_small(capsys):
    probe = _load(next(p for p in SCRIPTS if p.name == "cold_probe.py"))
    assert probe.main(["--reps", "1", "--setting", "setting2"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["setting", "reps", "boundaries_ms", "solve1024_ms", "maxrss_mib",
                              "numpy.polynomial"]
    name, reps, boundaries_ms, solve_ms, maxrss, loaded = row.split()
    assert (name, reps, loaded) == ("setting2", "1", "0/1")
    assert float(boundaries_ms) > 0.0 and float(solve_ms) > 0.0 and float(maxrss) > 0.0


def test_layer_probe_small(capsys):
    probe = _load(next(p for p in SCRIPTS if p.name == "layer_probe.py"))
    assert probe.main(["--reps", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["pass", "reps", "generate", "schedule", "futility", "fills",
                              "engine", "total"]
    assert [row.split()[:2] for row in rows] == [[name, "2"] for name in ("power", "null")]
    for row in rows:
        *layers, total = map(float, row.split()[2:])
        assert all(ms > 0.0 for ms in layers) and total == pytest.approx(sum(layers), abs=5e-3)


def test_boundary_report_grid_check():
    report = _load(next(p for p in SCRIPTS if p.name == "boundary_report.py"))
    nodes, dz = report.grid_check(0.025, (0.5, 0.51, 1.0))
    assert len(nodes) == 2 and all(32 <= n <= 1024 for n in nodes)
    assert dz <= 2e-10
