"""Configuration parsing and validation."""

import copy
import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedgsd import config
from gatedgsd.config import ConfigError, build_designs, parse_config
from gatedgsd.engine import DesignKind
from gatedgsd.multiplicity import H_S_OS, Endpoint
from gatedgsd.rules import ALPHA, POSITIVE
from gatedgsd.simdata import SCENARIO_MAPS, SCENARIO_SCALARS, generate_trial

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"
SETTINGS = ["setting1.yaml", "setting2.yaml", "setting3.yaml", "table5_example.yaml"]


@pytest.mark.parametrize("name", SETTINGS)
def test_packaged_configs_parse(name):
    cfg = parse_config(CONFIG_DIR / name)
    assert cfg.alpha == 0.025
    assert len(cfg.weight_sets) >= 1
    assert cfg.scenario.sample_size > 0
    designs = build_designs(cfg)
    labels = {d.label for d in designs}
    assert "gsd" in labels
    n_weighted = len(cfg.weight_sets)
    assert len(designs) == 1 + 2 * n_weighted  # gsd + (ad, ggsd) per weight set


def test_design_arms_carry_expected_alphas():
    cfg = parse_config(CONFIG_DIR / "setting2.yaml")
    arms = {d.label: d for d in build_designs(cfg)}
    gsd = arms["gsd"]
    assert gsd.kind is DesignKind.GSD
    assert sum(gsd.initial_alphas.values()) == pytest.approx(0.025)
    assert gsd.initial_alphas[H_S_OS] == pytest.approx(0.01458)
    ad = arms["ad:0.5"]
    assert ad.kind is DesignKind.AD
    # AD shares the one-alpha-across-four split with GSD
    assert ad.initial_alphas == gsd.initial_alphas
    gg = arms["ggsd:0.5"]
    assert gg.kind is DesignKind.GGSD
    for pop in ("full", "sub"):
        tot = sum(a for h, a in gg.initial_alphas.items() if h.population.value == pop)
        assert tot == pytest.approx(0.025, abs=1e-9)


def test_event_driven_weight_set():
    cfg = parse_config(CONFIG_DIR / "setting1.yaml")
    assert [label for label, w in cfg.weight_sets.items() if w is None] == ["event_driven"]
    arms = {d.label: d for d in build_designs(cfg)}
    assert arms["ggsd:event_driven"].weights is None
    assert arms["ggsd:0.5"].weights[Endpoint.OS] == cfg.weight_sets["0.5"][Endpoint.OS]


@pytest.fixture
def base_doc():
    return yaml.safe_load((CONFIG_DIR / "setting1.yaml").read_text())


def write(tmp_path, doc):
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(doc))
    return p


def test_unknown_key_rejected(tmp_path, base_doc):
    base_doc["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        parse_config(write(tmp_path, base_doc))


def test_unknown_nested_key_rejected(tmp_path, base_doc):
    base_doc["scenario"]["sample_sizes"] = base_doc["scenario"].pop("sample_size")
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, base_doc))


def test_alpha_sum_mismatch_rejected(tmp_path, base_doc):
    base_doc["designs"]["alphas"]["gsd"]["sub_os"] = 0.02
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(write(tmp_path, base_doc))


@pytest.mark.parametrize("alpha", [0, 0.5])
def test_alpha_out_of_range_rejected(tmp_path, alpha):
    # With per-hypothesis alphas that sum to it, the file used to pass parsing
    # and fail only in `build_designs`, with no field path.
    doc = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
    scale = alpha / doc["alpha"]
    doc["alpha"] = alpha
    for block in doc["designs"]["alphas"].values():
        for slug in block:
            block[slug] *= scale
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, doc))
    assert err.value.errors == [f"config.alpha: expected a number in (0, 0.5), got {alpha:g}"]


def test_bad_weight_squares_rejected(tmp_path, base_doc):
    base_doc["weights"][2]["pfs"] = [[0.9, 0.9], [0.5, 0.5]]
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, base_doc))


def test_fraction_length_mismatch_rejected(tmp_path, base_doc):
    base_doc["designs"]["fractions"]["full"]["os"] = [0.69, 1.0]
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, base_doc))


def test_missing_section_rejected(tmp_path, base_doc):
    del base_doc["designs"]
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, base_doc))


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    with pytest.raises(ConfigError):
        parse_config(p)


@pytest.mark.parametrize("name", SETTINGS)
def test_fast_loader_reads_the_same_document(name):
    text = (CONFIG_DIR / name).read_text()
    assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.safe_load(text)


def test_malformed_yaml_names_file_and_line(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("name: broken\nalpha: [0.025, 0.05\nscenario: {}\n")
    with pytest.raises(ConfigError, match=r'(?s)syntax: .*"[^"]*broken\.yaml", line 2'):
        parse_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises((ConfigError, OSError)):
        parse_config(tmp_path / "nope.yaml")


def test_out_of_range_numbers_rejected(tmp_path, base_doc):
    base_doc["scenario"]["sub_prevalence"] = 1.5
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, base_doc))


def test_weight_set_labels_unique(tmp_path, base_doc):
    base_doc["weights"].append(dict(base_doc["weights"][2]))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, base_doc))


# -- analysis-count rule: three analysis names (IA1, IA2, FA) --------------


def test_fourth_analysis_rejected(tmp_path, base_doc):
    # A consistent four-analysis plan: OS gets a fourth look and a trigger.
    designs = base_doc["designs"]
    designs["endpoint_analyses"]["os"] = [1, 2, 3, 4]
    for pop in ("full", "sub"):
        designs["fractions"][pop]["os"] = [0.5, 0.7, 0.85, 1.0]
    for ws in base_doc["weights"]:
        if "os" in ws:
            ws["os"] = ws["os"] + [ws["os"][-1]]
    base_doc["scenario"]["triggers"].append({"endpoint": "os", "events": 540})
    with pytest.raises(ConfigError, match=r"designs\.endpoint_analyses\.os"):
        parse_config(write(tmp_path, base_doc))


@pytest.mark.parametrize("looks", [[2, 1], [1, 1]])
def test_unordered_analysis_indices_rejected(tmp_path, base_doc, looks):
    # Each look of an endpoint is one later analysis: a repeated or
    # out-of-order index has no look order to test in.
    base_doc["designs"]["endpoint_analyses"]["pfs"] = looks
    with pytest.raises(ConfigError, match=r"designs\.endpoint_analyses\.pfs"):
        parse_config(write(tmp_path, base_doc))


@pytest.mark.parametrize("n_triggers", [2, 4])
def test_trigger_count_must_match_planned_analyses(tmp_path, base_doc, n_triggers):
    triggers = base_doc["scenario"]["triggers"] + [{"endpoint": "os", "events": 540}]
    base_doc["scenario"]["triggers"] = triggers[:n_triggers]
    with pytest.raises(ConfigError, match=r"scenario\.triggers: .*3 planned analyses"):
        parse_config(write(tmp_path, base_doc))


@pytest.mark.parametrize("key", ["IA4", 4])
def test_observed_analysis_beyond_fa_rejected(tmp_path, key):
    doc = yaml.safe_load((CONFIG_DIR / "table5_example.yaml").read_text())
    doc["observed"]["p_values"]["gsd"]["full_os"][key] = 0.001
    with pytest.raises(ConfigError, match=r"observed\.p_values\.gsd\.full_os"):
        parse_config(write(tmp_path, doc))


# -- YAML booleans are not numbers, and observed looks must be planned -----


def _table5_doc():
    return yaml.safe_load((CONFIG_DIR / "table5_example.yaml").read_text())


# field -> (where in table5_example, a value holding a YAML boolean, error path)
BOOLEAN_CASES = {
    "endpoint_analyses": (("designs", "endpoint_analyses", "pfs"), [True, 2],
                          r"designs\.endpoint_analyses\.pfs"),
    "fractions": (("designs", "fractions", "full", "pfs"), [0.90, True],
                  r"designs\.fractions\.full\.pfs"),
    "weights": (("weights", 0, "pfs", 0), [True, False], r"weights\[0\]\.pfs\[0\]"),
    "observed_key": (("observed", "p_values", "gsd", "full_os"),
                     {True: 0.0104, 2: 0.0023, 3: 0.0011}, r"observed\.p_values\.gsd\.full_os"),
}


def _put(doc, where, value):
    for key in where[:-1]:
        doc = doc[key]
    doc[where[-1]] = value


@pytest.mark.parametrize("field", BOOLEAN_CASES)
def test_yaml_boolean_rejected_as_number(tmp_path, field):
    where, value, path = BOOLEAN_CASES[field]
    doc = _table5_doc()
    _put(doc, where, value)
    with pytest.raises(ConfigError, match=path + ": .*True"):
        parse_config(write(tmp_path, doc))


def test_observed_p_value_at_unplanned_look_rejected(tmp_path):
    # PFS is tested at IA1 and IA2 only: an FA p-value would be dropped.
    doc = _table5_doc()
    doc["observed"]["p_values"]["gsd"]["sub_pfs"]["FA"] = 0.000000001
    with pytest.raises(ConfigError, match=r"observed\.p_values\.gsd\.sub_pfs\.FA: pfs has no "
                                          r"planned look at FA"):
        parse_config(write(tmp_path, doc))


# -- values no design can use are rejected where they are written ------------


# case -> (bundled config, where in it, the value, error path and message)
UNUSABLE_CASES = {
    # boundaries need strictly increasing information; unchecked, the config
    # builds its arms and fails only when `simulate` solves a boundary
    "fractions_not_increasing": ("setting2.yaml", ("designs", "fractions", "sub", "os"),
                                 [0.73, 0.60, 1.0],
                                 r"designs\.fractions\.sub\.os: fractions must be strictly "
                                 r"increasing"),
    # looks closer than boundaries.MIN_LOOK_GAP; unchecked, their rows were
    # solved up to 0.02 off in z without a word
    "fractions_too_close": ("setting2.yaml", ("designs", "fractions", "full", "os"),
                            [0.5, 0.50002, 1.0],
                            r"designs\.fractions\.full\.os: consecutive fractions must be at "
                            r"least 5e-05 apart"),
    # no hazard ratio passes a zero threshold; unchecked, the futility rule
    # is dropped and the error names no field
    "zero_threshold": ("setting2.yaml", ("designs", "futility", "theta_full"), 0,
                       r"designs\.futility\.theta_full: .*> 0"),
    # a zero hazard ratio is no observed estimate; unchecked, `analyze` would
    # pass it through every threshold
    "zero_observed_hr_full": ("table5_example.yaml", ("observed", "hr_full"), 0,
                              r"observed\.hr_full: .*> 0"),
    "zero_observed_hr_sub": ("table5_example.yaml", ("observed", "hr_sub"), 0,
                             r"observed\.hr_sub: .*> 0"),
    # scenario values ScenarioSpec refuses; unchecked here, the error names
    # only "scenario"
    "zero_sub_prevalence": ("setting2.yaml", ("scenario", "sub_prevalence"), 0,
                            r"scenario\.sub_prevalence: expected a number in \(0, 1\], got 0"),
    "sub_prevalence_above_one": ("setting2.yaml", ("scenario", "sub_prevalence"), 1.5,
                                 r"scenario\.sub_prevalence: expected a number in \(0, 1\], "
                                 r"got 1\.5"),
    "zero_enroll_duration": ("setting2.yaml", ("scenario", "enroll_duration"), 0,
                             r"scenario\.enroll_duration: expected a number > 0, got 0"),
    "negative_median": ("setting2.yaml", ("scenario", "medians", "sub", "pfs"), -4.0,
                        r"scenario\.medians\.sub\.pfs: expected a number > 0, got -4"),
    "negative_hazard_ratio": ("setting2.yaml", ("scenario", "hazard_ratios", "complement", "os"),
                              -0.7, r"scenario\.hazard_ratios\.complement\.os: .*> 0"),
    # a trigger above the sample size can never be met; unchecked, `simulate`
    # fails on the first replication
    "trigger_above_sample_size": ("setting2.yaml", ("scenario", "triggers", 2, "events"), 1000,
                                  r"scenario\.triggers\[2\]\.events: expected at most 924, the "
                                  r"sample size, got 1000"),
    "negative_stage1_cutoff": ("setting2.yaml", ("scenario", "stage1_cutoff"), -3,
                               r"scenario\.stage1_cutoff: expected a number >= 0, got -3"),
    "decreasing_trigger": ("setting2.yaml", ("scenario", "triggers", 1, "events"), 700,
                           r"scenario\.triggers\[1\]\.events: expected at least 747, the "
                           r"previous pfs trigger, got 700"),
    # a dropout rate `generate_trial` refuses; unchecked, the first trial
    # raises with no field path
    "dropout_above_one": ("setting2.yaml", ("scenario", "annual_dropout", "pfs"), 1.5,
                          r"scenario\.annual_dropout\.pfs: expected a rate in \[0, 1\), "
                          r"got 1\.5"),
    "dropout_of_one": ("setting2.yaml", ("scenario", "annual_dropout", "os"), 1.0,
                       r"scenario\.annual_dropout\.os: expected a rate in \[0, 1\), got 1"),
    "negative_dropout": ("setting2.yaml", ("scenario", "annual_dropout", "pfs"), -0.1,
                         r"scenario\.annual_dropout\.pfs: expected a rate in \[0, 1\), "
                         r"got -0\.1"),
    # .nan and .inf are YAML floats but no usable value: unchecked, an infinite
    # seed raised OverflowError, a NaN seed failed with no path, a NaN hazard
    # ratio made `simulate` miss its event triggers, a NaN weight made a
    # combined z that never crosses, and an infinite observed HR broke
    # analysis.json
    "infinite_seed": ("setting2.yaml", ("simulation", "seed"), math.inf,
                      r"simulation\.seed: expected a number, got inf"),
    "nan_seed": ("setting2.yaml", ("simulation", "seed"), math.nan,
                 r"simulation\.seed: expected a number, got nan"),
    "nan_hazard_ratio": ("setting1.yaml", ("scenario", "hazard_ratios", "sub", "os"), math.nan,
                         r"scenario\.hazard_ratios\.sub\.os: expected a number, got nan"),
    "nan_weight": ("setting2.yaml", ("weights", 1, "pfs", 0), [math.nan, 0.8],
                   r"weights\[1\]\.pfs\[0\]: expected \[w1_squared, w2_squared\], "
                   r"got \[nan, 0\.8\]"),
    "infinite_observed_hr": ("table5_example.yaml", ("observed", "hr_sub"), math.inf,
                             r"observed\.hr_sub: expected a number, got inf"),
    # an integer literal too large for a float (401 digits): unchecked, its
    # conversion raised OverflowError with no field path
    "huge_hazard_ratio": ("setting2.yaml", ("scenario", "hazard_ratios", "sub", "os"), 10**400,
                          r"scenario\.hazard_ratios\.sub\.os: expected a number, got 10{400}$"),
    "huge_weight": ("setting2.yaml", ("weights", 1, "pfs", 0), [10**400, 0.8],
                    r"weights\[1\]\.pfs\[0\]: expected \[w1_squared, w2_squared\], got \[10{400}, "),
    "huge_negative_sample_size": ("setting2.yaml", ("scenario", "sample_size"), -10**400,
                                  r"scenario\.sample_size: expected a number, got -10{400}$"),
    # an empty schedule: the errors named the fractions and weights it left
    # misaligned, but not the schedule
    "empty_schedule": ("setting2.yaml", ("designs", "endpoint_analyses", "pfs"), [],
                       r"designs\.endpoint_analyses\.pfs: expected at least one analysis"),
    # squared weights outside [0, 1]: reported as a math domain error, or by
    # weights computed from the first square alone
    "negative_first_square": ("setting2.yaml", ("weights", 1, "pfs", 0), [-0.1, 1.1],
                              r"weights\[1\]\.pfs\[0\]: squared weights \(-0\.1, 1\.1\): "
                              r"expected a number in \[0, 1\], got -0\.1"),
    "negative_second_square": ("setting2.yaml", ("weights", 1, "pfs", 0), [1.1, -0.1],
                               r"weights\[1\]\.pfs\[0\]: squared weights \(1\.1, -0\.1\): "
                               r"expected a number in \[0, 1\], got 1\.1"),
    # a list where an endpoint name belongs: it raised TypeError (unhashable)
    "list_trigger_endpoint": ("setting2.yaml", ("scenario", "triggers", 0, "endpoint"), ["pfs"],
                              r"scenario\.triggers\[0\]\.endpoint: expected pfs\|os, got \['pfs'\]"),
    # a negative seed: numpy refused it when `simulate` ran, naming no field
    "negative_seed": ("setting2.yaml", ("simulation", "seed"), -1,
                      r"simulation\.seed: expected an integer >= 0, got -1"),
}


@pytest.mark.parametrize("case", UNUSABLE_CASES)
def test_unusable_design_value_rejected_with_field_path(tmp_path, case):
    name, where, value, path = UNUSABLE_CASES[case]
    doc = yaml.safe_load((CONFIG_DIR / name).read_text())
    _put(doc, where, value)
    with pytest.raises(ConfigError, match=path):
        parse_config(write(tmp_path, doc))


def test_sample_size_reported_with_other_scenario_errors(tmp_path):
    # Read after the scenario's error check, a bad sample size was reported
    # only once every other scenario error was fixed, and then twice.
    doc = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
    doc["scenario"]["sample_size"] = 1.5
    doc["scenario"]["medians"]["sub"]["pfs"] = -4
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, doc))
    assert err.value.errors == ["scenario.sample_size: expected an integer, got 1.5",
                                "scenario.medians.sub.pfs: expected a number > 0, got -4"]


def test_empty_schedule_rejected_with_its_path(tmp_path):
    # With its fractions and weights emptied too, the file parsed and
    # `build_designs` failed on `max()` of an empty sequence.
    doc = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
    doc["designs"]["endpoint_analyses"]["pfs"] = []
    for pop in ("full", "sub"):
        doc["designs"]["fractions"][pop]["pfs"] = []
    for weights in doc["weights"]:
        if "pfs" in weights:
            weights["pfs"] = []
    with pytest.raises(ConfigError, match=r"designs\.endpoint_analyses\.pfs: expected at least "
                                          r"one analysis"):
        parse_config(write(tmp_path, doc))
    # A refused schedule is reported alone: the fraction, weight-table and
    # trigger counts are not checked against it (each used to add 9 errors).
    for looks in ([], [2, 1], [1, 2, 5]):
        doc = copy.deepcopy(SETTING2)
        doc["designs"]["endpoint_analyses"]["pfs"] = looks
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, doc))
        assert [e.split(":")[0] for e in err.value.errors] == ["designs.endpoint_analyses.pfs"]


def test_trigger_at_sample_size_accepted(tmp_path):
    doc = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
    doc["scenario"]["triggers"][2]["events"] = doc["scenario"]["sample_size"]
    assert parse_config(write(tmp_path, doc)).scenario.triggers[2].events == 924


def test_zero_dropout_accepted(tmp_path):
    doc = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
    doc["scenario"]["annual_dropout"] = {"pfs": 0, "os": 0}
    config = parse_config(write(tmp_path, doc))
    assert set(config.scenario.annual_dropout.values()) == {0}
    generate_trial(config.scenario, (config.seed, 0))


# -- weight sets and observed values that would give a silently wrong answer --


@pytest.mark.parametrize("value", ["no", 1])
def test_event_driven_must_be_boolean(tmp_path, base_doc, value):
    # Read by truthiness, "no" made an event-driven arm and ignored the table.
    base_doc["weights"].append({"label": "bad", "event_driven": value, "pfs": [[0.9, 0.9]]})
    i = len(base_doc["weights"]) - 1
    with pytest.raises(ConfigError, match=rf"weights\[{i}\]\.event_driven: expected true or "
                                          rf"false, got {value!r}"):
        parse_config(write(tmp_path, base_doc))


@pytest.mark.parametrize("slug", ["pfs", "os"])
def test_event_driven_weight_set_takes_no_table(tmp_path, base_doc, slug):
    i = next(i for i, w in enumerate(base_doc["weights"]) if w.get("event_driven"))
    base_doc["weights"][i][slug] = [[0.5, 0.5]] * 3
    with pytest.raises(ConfigError, match=rf"weights\[{i}\]\.{slug}: .*event_driven: true"):
        parse_config(write(tmp_path, base_doc))


def test_observed_values_need_one_arm_per_kind(tmp_path):
    # `analyze` replays one arm per kind: with a second weight set, ad:0.5 and
    # ggsd:0.5 were dropped and the 0.8 arms replayed without a word.
    doc = _table5_doc()
    doc["weights"].append({"label": "0.8", "pfs": [[0.8, 0.2]] * 2, "os": [[0.8, 0.2]] * 3})
    with pytest.raises(ConfigError, match=r"observed\.p_values\.ggsd: 2 weight sets") as err:
        parse_config(write(tmp_path, doc))
    assert not any(e.startswith("observed.p_values.gsd") for e in err.value.errors)
    del doc["observed"]["p_values"]["ggsd"]
    assert len(build_designs(parse_config(write(tmp_path, doc)))) == 5


@pytest.mark.parametrize("key", ["hr_full", "hr_sub"])
def test_gated_replay_needs_both_observed_hrs(tmp_path, key):
    # Without an HR, `analyze` printed the GSD narrative and then failed in
    # the AD arm's futility gate, naming no field and writing no analysis.json.
    doc = _table5_doc()
    del doc["observed"][key]
    with pytest.raises(ConfigError, match=rf"observed\.{key}: missing required key") as err:
        parse_config(write(tmp_path, doc))
    assert len(err.value.errors) == 1
    # GSD has no futility gate: its replay alone needs neither HR.
    del doc["observed"]["p_values"]["ggsd"]
    observed = parse_config(write(tmp_path, doc)).observed
    assert set(observed) == {"gsd"} and getattr(observed["gsd"], key) is None


# -- every interval rule, at and across its bounds ------------------------------


def _scaled(alphas, scale):
    return {key: a * scale for key, a in alphas.items()}


def _ruled_fields():
    """(field path, rule, edit, build) for each field of setting2 that an
    interval rule checks: `edit(doc, v)` puts v in the config file, and
    `build(cfg, v)` constructs what the field configures, with v in place of
    cfg's value, as a direct caller would."""
    fields = [(f"scenario.{key}", rule, None,
               lambda cfg, v, key=key: dataclasses.replace(cfg.scenario, **{key: v}))
              for key, rule in SCENARIO_SCALARS]
    fields += [(f"scenario.{path}.{ep.value}", rule, None,
                lambda cfg, v, key=key, ep=ep: dataclasses.replace(
                    cfg.scenario, **{key: {**getattr(cfg.scenario, key), ep: v}}))
               for key, path, rule in SCENARIO_MAPS for ep in Endpoint]
    fields += [(f"designs.futility.{key}", POSITIVE, None,
                lambda cfg, v, key=key: dataclasses.replace(cfg.futility, **{key: v}))
               for key in ("theta_full", "theta_sub")]

    def edit_alpha(doc, v):  # the per-hypothesis alphas keep summing to it; None goes in as is
        for block in doc["designs"]["alphas"].values():
            block.update(_scaled(block, 1 if v is None else v / doc["alpha"]))
        doc["alpha"] = v

    def build_alpha(cfg, v):
        return [dataclasses.replace(arm, alpha=v, initial_alphas=_scaled(
            arm.initial_alphas, 1 if v is None else v / cfg.alpha)) for arm in build_designs(cfg)]

    return fields + [("config.alpha", ALPHA, edit_alpha, build_alpha)]


RULED_FIELDS = _ruled_fields()
SETTING2 = yaml.safe_load((CONFIG_DIR / "setting2.yaml").read_text())
SETTING2_CONFIG = parse_config(CONFIG_DIR / "setting2.yaml")


def test_constructors_refuse_none():
    # Each used to construct and then fail with a TypeError, in
    # `select_population` or in the arm's boundary plans.
    with pytest.raises(ValueError, match="theta_full: .*got None; theta_sub: .*got None"):
        dataclasses.replace(SETTING2_CONFIG.futility, theta_full=None, theta_sub=None)
    with pytest.raises(ValueError, match=r"^alpha: expected a number in \(0, 0\.5\), got None$"):
        dataclasses.replace(build_designs(SETTING2_CONFIG)[1], alpha=None)


def _edge_values(rule):
    """None, each finite bound of `rule`, one ulp either side, and values inside."""
    ends = (rule.lo,) if rule.hi == math.inf else (rule.lo, rule.hi)
    inside = ((rule.lo + 1, rule.lo + 1000) if rule.hi == math.inf
              else ((rule.lo + rule.hi) / 2, rule.lo + (rule.hi - rule.lo) / 10))
    return [None] + [x for e in ends for x in (
        math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))] + list(inside)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(field=st.sampled_from(RULED_FIELDS), data=st.data())
def test_parse_and_constructors_apply_the_same_rules(field, data):
    path, rule, edit, build = field
    value = data.draw(st.sampled_from(_edge_values(rule)))
    doc = copy.deepcopy(SETTING2)
    if edit:
        edit(doc, value)
    else:
        _put(doc, path.split("."), value)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "cfg.yaml"
        p.write_text(yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper)))
        try:
            parse_config(p)
            parsed = None
        except ConfigError as exc:
            parsed = exc.errors
    try:
        build(SETTING2_CONFIG, value)
        built = None
    except ValueError as exc:
        built = str(exc)
    assert (parsed is None) == (built is None), (path, value, parsed, built)
    if rule(value):
        assert any(e.startswith(f"{path}: ") for e in parsed), (path, value, parsed)
