"""Per-replication decisions against the committed reference file.

`scripts/decision_reference.py` writes, for settings 1-3, both passes and
100 replications, every arm's confirmed hypotheses and termination bin, and
a digest of the replication's snapshot statistics and rendered test rows, to
tests/data/decision_reference.txt. Recomputing it here pins each decision
and each statistic bit for bit, not only the aggregate tables in runs/.
"""

import importlib.util
from pathlib import Path

from gatedgsd import harness
from gatedgsd.config import build_designs, parse_config
from gatedgsd.multiplicity import HYPOTHESES

ROOT = Path(__file__).resolve().parents[1]


def _reference_script():
    spec = importlib.util.spec_from_file_location(
        "decision_reference", ROOT / "scripts" / "decision_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decisions_match_reference():
    ref = _reference_script()
    expected = ref.REFERENCE.read_text().splitlines()
    diff = ref.first_difference(expected, list(ref.reference_lines()))
    assert diff is None, (
        "first differing decision: setting {} pass {} replication {} arm {}: "
        "expected {}, got {}".format(*diff))


def _cell(token):
    """The histogram cell of a reference token: termination bin, then mask."""
    term = 0 if token[-1] == "x" else int(token[-1])
    return term << len(HYPOTHESES) | int(token[:-1], 16)


def test_monte_carlo_path_matches_reference(monkeypatch):
    # The same per-replication tokens through the Monte Carlo's own path:
    # `_run_chunk`, which decides every arm in its own order and builds no
    # trace. Elsewhere only aggregates pin that path, where two opposite
    # errors can cancel. The digest column is the file's own: this path
    # computes decisions, not statistics. Each arm's histogram in the report
    # `_run_chunk` returns must be the tally of that arm's reference tokens.
    ref = _reference_script()
    expected = ref.REFERENCE.read_text().splitlines()
    rows = iter(line.split() for line in expected if not line.startswith("arms"))
    decided = []
    decide = harness.run_design

    def recording(design, *inputs):
        decision = decide(design, *inputs)
        decided.append((design.label, decision))
        return decision

    monkeypatch.setattr(harness, "run_design", recording)
    actual, histograms = [], []
    for name in ref.SETTINGS:
        config = parse_config(ref.CONFIGS / f"{name}.yaml")
        designs = build_designs(config)
        actual.append(" ".join(["arms", name] + [d.label for d in designs]))
        for pass_name, scenario in ref.passes(config):
            decided.clear()
            report = harness._run_chunk(scenario, designs, config.seed, range(ref.N_REP))
            assert len(decided) == ref.N_REP * len(designs)
            tally = {d.label: [0] * (len(harness.TERMINATION_BINS) << len(HYPOTHESES))
                     for d in designs}
            for rep in range(ref.N_REP):
                row = next(rows)
                for d, token in zip(designs, row[3:-1]):
                    tally[d.label][_cell(token)] += 1
                by_label = dict(decided[rep * len(designs):(rep + 1) * len(designs)])
                tokens = [ref.decision_token(by_label[d.label]) for d in designs]
                actual.append(" ".join([name, pass_name, str(rep), *tokens, row[-1]]))
            counts = {label: agg.counts for label, agg in report.arms.items()}
            histograms.append((name, pass_name, counts, tally))
    diff = ref.first_difference(expected, actual)
    assert diff is None, (
        "first differing Monte Carlo decision: setting {} pass {} replication {} arm {}: "
        "expected {}, got {}".format(*diff))
    for name, pass_name, counts, tally in histograms:
        assert counts == tally, f"{name} {pass_name}"


def test_first_difference_names_the_arm():
    ref = _reference_script()
    expected = ["arms s1 gsd ad:0.5", "s1 power 0 03 c2 0123456789ab",
                "s1 null 0 0x 0x ba9876543210"]
    assert ref.first_difference(expected, list(expected)) is None
    moved = ["arms s1 gsd ad:0.5", "s1 power 0 03 82 0123456789ab",
             "s1 null 0 0x 0x ba9876543210"]
    assert ref.first_difference(expected, moved) == ("s1", "power", "0", "ad:0.5", "c2", "82")
    # Statistics that moved without moving a decision are named by the digest.
    drifted = ["arms s1 gsd ad:0.5", "s1 power 0 03 c2 0123456789ab",
               "s1 null 0 0x 0x ba9876543211"]
    assert ref.first_difference(expected, drifted) == (
        "s1", "null", "0", "digest", "ba9876543210", "ba9876543211")
    assert ref.first_difference(expected, expected[:2])[3] == "line count"
