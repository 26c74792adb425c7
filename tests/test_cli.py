"""Command-line interface: artifacts, determinism, exit codes."""

import csv
import json
from pathlib import Path

import pytest
import yaml

from gatedgsd.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "src" / "gatedgsd" / "configs"
# The benchmark's replay references: `boundaries` of setting1-3
# (boundaries-settingN.csv), `analyze table5_example`'s analysis.json and its
# stdout (narrative.txt).
REFERENCE_DIR = ROOT / "perfbench" / "reference"


def run(*argv):
    return main([str(a) for a in argv])


def test_boundaries_writes_table(tmp_path, capsys):
    assert run("boundaries", "--config", CONFIG_DIR / "setting1.yaml",
               "--out", tmp_path) == 0
    rows = list(csv.DictReader(open(tmp_path / "boundaries.csv")))
    assert {"design", "hypothesis", "analysis", "fraction", "z_bound", "nominal_p"} <= set(rows[0])
    designs = {r["design"] for r in rows}
    assert {"gsd", "ggsd", "ad"} <= designs
    for r in rows:
        assert float(r["z_bound"]) > 0


@pytest.mark.parametrize("name", ("setting1", "setting2", "setting3"))
def test_boundaries_match_reference(tmp_path, name):
    assert run("boundaries", "--config", CONFIG_DIR / f"{name}.yaml", "--out", tmp_path) == 0
    assert ((tmp_path / "boundaries.csv").read_bytes()
            == (REFERENCE_DIR / f"boundaries-{name}.csv").read_bytes())


def test_thresholds_row(tmp_path):
    assert run("thresholds", "--hr", 0.7, "--events", 287, "--gamma", 0.05,
               "--out", tmp_path) == 0
    rows = list(csv.DictReader(open(tmp_path / "thresholds.csv")))
    assert len(rows) == 1
    assert float(rows[0]["theta"]) == pytest.approx(0.850, abs=1e-3)


def test_analyze_narrative_and_json(tmp_path, capsys):
    assert run("analyze", "--config", CONFIG_DIR / "table5_example.yaml",
               "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "OS(F) rejected at IA2" in out
    assert "No hypotheses rejected" in out  # the non-gated replay rejects nothing
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["ggsd"]["trace"]["rejections"] == {"PFS(F)": "IA1", "OS(F)": "IA2",
                                                  "PFS(FS)": "IA1", "OS(FS)": "IA2"}
    assert doc["gsd"]["trace"]["rejections"] == {}
    reference = {name: (REFERENCE_DIR / name).read_bytes()
                 for name in ("analysis.json", "narrative.txt")}
    assert (tmp_path / "analysis.json").read_bytes() == reference["analysis.json"]
    assert out.encode() == reference["narrative.txt"]


def test_simulate_artifacts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("simulate", "--config", CONFIG_DIR / "setting1.yaml",
                   "--reps", 30, "--out", out, "--dump-trials") == 0
    for name in ("fwer.csv", "power.csv", "termination.csv", "trials.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 20260826 and manifest["replications"] == 30
    assert set(manifest["outputs"]) >= {"fwer", "power", "termination"}
    m2 = json.loads((out2 / "manifest.json").read_text())
    # content hash over all tables is identical across reruns
    assert manifest["content_sha256"] == m2["content_sha256"]
    # the config path does not name the machine it ran on
    assert not Path(manifest["config"]["path"]).is_absolute()


def test_simulate_seed_override_changes_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "--config", CONFIG_DIR / "setting1.yaml",
               "--reps", 30, "--out", out1) == 0
    assert run("simulate", "--config", CONFIG_DIR / "setting1.yaml",
               "--reps", 30, "--seed", 99, "--out", out2) == 0
    assert (out1 / "power.csv").read_bytes() != (out2 / "power.csv").read_bytes()


@pytest.mark.parametrize("flag, value, reason", [
    # numpy refused it after the designs were built, naming no flag
    ("--seed", -5, "expected an integer >= 0, got -5"),
    # the harness refused it as `n_rep`
    ("--reps", 0, "expected an integer >= 1, got 0"),
    # ran serially without a word
    ("--threads", -3, "expected an integer >= 1, got -3"),
])
def test_bad_simulate_override_refused(tmp_path, capsys, flag, value, reason):
    argv = {"--reps": 2, flag: value}
    assert run("simulate", "--config", CONFIG_DIR / "setting1.yaml", "--out", tmp_path,
               *[a for item in argv.items() for a in item]) == 1
    assert f"{flag}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "power.csv").exists()


def test_threads_equivalent_to_serial(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "--config", CONFIG_DIR / "setting1.yaml",
               "--reps", 24, "--out", out1) == 0
    assert run("simulate", "--config", CONFIG_DIR / "setting1.yaml",
               "--reps", 24, "--threads", 2, "--out", out2) == 0
    for name in ("fwer.csv", "power.csv", "termination.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_merges_runs(tmp_path):
    for sub in ("r1", "r2"):
        assert run("simulate", "--config", CONFIG_DIR / "setting1.yaml",
                   "--reps", 10, "--out", tmp_path / sub) == 0
    assert run("report", "--out", tmp_path / "merged",
               tmp_path / "r1", tmp_path / "r2") == 0
    merged = list(csv.DictReader(open(tmp_path / "merged" / "power.csv")))
    single = list(csv.DictReader(open(tmp_path / "r1" / "power.csv")))
    assert len(merged) == 2 * len(single)


def test_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("nonsense: true\n")
    assert run("simulate", "--config", p, "--out", tmp_path / "x") == 2


def test_missing_config_errors(tmp_path):
    assert run("simulate", "--config", tmp_path / "nope.yaml",
               "--out", tmp_path / "x") != 0


def test_boundaries_one_arm_per_kind_whatever_the_weight_order(tmp_path):
    """A first weight set "0.7" must not also pick up the "0.5/0.7" arms."""
    raw = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
    labels = [w["label"] for w in raw["weights"]]
    assert "0.5/0.7" in labels
    raw["weights"].sort(key=lambda w: w["label"] != "0.7")
    reordered = tmp_path / "reordered.yaml"
    reordered.write_text(yaml.safe_dump(raw))
    assert run("boundaries", "--config", reordered, "--out", tmp_path / "a") == 0
    assert run("boundaries", "--config", CONFIG_DIR / "setting2.yaml",
               "--out", tmp_path / "b") == 0
    rows = list(csv.DictReader(open(tmp_path / "a" / "boundaries.csv")))
    keys = [(r["design"], r["hypothesis"], r["analysis"]) for r in rows]
    assert len(keys) == len(set(keys))
    assert ((tmp_path / "a" / "boundaries.csv").read_bytes()
            == (tmp_path / "b" / "boundaries.csv").read_bytes())


def test_boundaries_skip_a_hypothesis_without_alpha(tmp_path):
    # gGSD may put all of the full population's alpha on PFS: OS(F) then
    # holds none before PFS(F) is rejected and has no boundary row, while
    # GSD and AD keep theirs.
    raw = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
    raw["designs"]["alphas"]["ggsd"].update(full_os=0, full_pfs=0.025)
    config = tmp_path / "no_os_alpha.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert run("boundaries", "--config", config, "--out", tmp_path) == 0
    rows = list(csv.DictReader(open(tmp_path / "boundaries.csv")))
    hypotheses = {(r["design"], r["hypothesis"]) for r in rows}
    assert ("ggsd", "OS(F)") not in hypotheses
    assert {(kind, h) for kind in ("gsd", "ad") for h in ("OS(F)", "PFS(F)", "OS(S)", "PFS(S)")
            } | {("ggsd", h) for h in ("PFS(F)", "OS(S)", "PFS(S)")} == hypotheses
