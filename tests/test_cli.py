import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pba.cli import DOCUMENT, AnalysisConfig, export_curve, load_config, main, run_analysis
from pba.errors import ConfigParseError
from pba.minimal_data import min_max
from pba import models
from pba.models import RegisteredModel
from pba.pbox import build_pbox
from pba.propagate import EmpiricalPBox

CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "pba" / "configs"

BASE_CONFIG = {
    "schema": "pba-analysis/1",
    "pipeline": "psa",
    "model": "four_state_life_expectancy",
    "parameters": {
        "fixed": {"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05},
        "precise": {
            "c1": {"family": "gamma", "mean": 0.05, "std": 0.00033},
            "c6": {"family": "gamma", "mean": 1.0, "std": 0.0167},
        },
    },
    "samples": 50,
    "seed": 7,
}


def test_export_curve_minmax_rows(tmp_path):
    box = build_pbox(min_max(0, 1))
    path = export_curve(box, 3, tmp_path / "curve.csv")
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "theta,lbf,ubf"
    assert rows[1] == "-0.05,0.0,0.0"
    assert rows[2] == "0.5,0.0,1.0"
    assert rows[3] == "1.05,1.0,1.0"


def test_export_curve_orders_columns(tmp_path):
    e = EmpiricalPBox([(0.1, 0.6, 0.5), (0.4, 0.9, 0.5)])
    path = export_curve(e, 33, tmp_path / "curve.csv")
    body = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    for _, lbf, ubf in body:
        assert float(lbf) <= float(ubf) + 1e-12


def test_export_curve_round_trips_precision(tmp_path):
    box = build_pbox(min_max(0, 1 / 3))
    path = export_curve(box, 7, tmp_path / "c.csv")
    for line in path.read_text().strip().splitlines()[1:]:
        theta = line.split(",")[0]
        assert repr(float(theta)) == theta


def test_export_curve_gridsize_validated(tmp_path):
    with pytest.raises(ValueError):
        export_curve(build_pbox(min_max(0, 1)), 1, tmp_path / "x.csv")


def test_unknown_parameter_name_rejected():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["parameters"]["fixed"]["nonexistent"] = 1.0
    with pytest.raises(ConfigParseError):
        AnalysisConfig.from_dict(bad)


def test_missing_parameter_rejected():
    bad = json.loads(json.dumps(BASE_CONFIG))
    del bad["parameters"]["fixed"]["c2"]
    with pytest.raises(ConfigParseError):
        AnalysisConfig.from_dict(bad)


def test_unknown_schema_rejected():
    bad = dict(BASE_CONFIG, schema="pba-analysis/99")
    with pytest.raises(ConfigParseError):
        AnalysisConfig.from_dict(bad)


def test_pipeline_parameter_consistency():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["pipeline"] = "propagate"
    with pytest.raises(ConfigParseError) as err:
        AnalysisConfig.from_dict(bad)
    assert err.value.location == "parameters.precise"



@pytest.mark.parametrize("pipeline", ["propagate", "psa"])
@pytest.mark.parametrize("optimizer", [{"budget": 0}, {"tol": 0.0}, {"tol": 1.5}, {"budget": "many"}])
def test_bad_optimizer_rejected_at_load(pipeline, optimizer, tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    config.update(pipeline=pipeline, optimizer=optimizer)
    if pipeline == "propagate":
        config["parameters"]["boxed"] = {
            name: {"min": 0.5, "max": 2.0} for name in config["parameters"].pop("precise")
        }
    with pytest.raises(ConfigParseError) as err:
        AnalysisConfig.from_dict(config)
    assert err.value.location == "optimizer"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", "optimizer")
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "location, update",
    [
        ("n", {"n": 0}),
        ("samples", {"samples": 0}),
        ("curve_grid", {"curve_grid": 1}),
        ("psa_baseline.samples", {"psa_baseline": {"samples": 0}}),
    ],
)
def test_bad_run_size_rejected_at_load(location, update, tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    config.update(update)
    with pytest.raises(ConfigParseError) as err:
        AnalysisConfig.from_dict(config)
    assert err.value.location == location
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", location)
    assert not (tmp_path / "out" / "summary.json").exists()


def _case1_without_baseline(**update):
    raw = json.loads((CONFIG_DIR / "case1-pba.json").read_text())
    del raw["psa_baseline"]
    return dict(raw, **update)


def test_box_search_cap_checked_at_load(tmp_path, capsys):
    """The bundled case-1 run at n=1001 asks for 1001**2 box searches, over
    the cap of 10**6: it is refused at load, at ``n``, with a message that
    names n, samples and the cap, and no output directory is made."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_case1_without_baseline(n=1001)))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", "n")
    assert all(word in record["message"] for word in ("1002001 box searches", "n=1001", "samples=50", "1000000"))
    assert not (tmp_path / "out").exists()


def test_false_monotone_declaration_gives_an_error_record(tmp_path, capsys, monkeypatch):
    """A registered model marked monotone that is not fails the bundled
    case-1 run with the usual error record, typed ``NonMonotoneModel``."""

    @models.monotone
    def model(p):
        return 1e3 * (p["c1"] - 0.05) ** 2 + p["c6"]

    names = models.REGISTRY["four_state_life_expectancy"].param_names
    monkeypatch.setitem(models.REGISTRY, "four_state_life_expectancy", RegisteredModel(model, names))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_case1_without_baseline(n=5)))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert record["type"] == "NonMonotoneModel" and "'c1'" in record["message"]
    assert not (tmp_path / "out" / "summary.json").exists()


_GAMMA_C2 = {"family": "gamma", "mean": 0.01, "std": 0.001}


@pytest.mark.parametrize(
    "update, refused",
    [
        ({"n": 1000}, None),  # 10**6 searches, at the cap
        ({"n": 1001, "pipeline": "pbox-curve"}, None),  # no searches
        ({"n": 1001, "pipeline": "decide", "actions": [
            {"id": "a", "overrides": {"c1": 0.05}}, {"id": "b", "overrides": {"c6": 1.0}},
        ]}, None),  # each action pins one of the two boxed parameters
        ({"n": 1001, "pipeline": "decide", "actions": [
            {"id": "a", "overrides": {"c1": 0.05}}, {"id": "b", "overrides": {"c2": 0.02}},
        ]}, "box searches for action 'b'"),
        ({"n": 200, "samples": 25, "pipeline": "propagate-mixed"}, None),  # 200**2 * 25 == 10**6
        ({"n": 200, "samples": 26, "pipeline": "propagate-mixed"}, "times samples=26"),
    ],
)
def test_box_search_cap_counts_each_run(update, refused):
    """A run's box searches are n per boxed parameter, times samples when a
    parameter is precise; a ``decide`` run counts each action with its
    overrides pinned, and ``pbox-curve`` runs none."""
    config = _case1_without_baseline(**update)
    if config["pipeline"] == "propagate-mixed":
        fixed = dict(config["parameters"]["fixed"])
        del fixed["c2"]
        config["parameters"] = dict(config["parameters"], fixed=fixed, precise={"c2": _GAMMA_C2})
    if refused is None:
        AnalysisConfig.from_dict(config)
        return
    with pytest.raises(ConfigParseError, match=refused) as err:
        AnalysisConfig.from_dict(config)
    assert err.value.location == "n"


def test_run_twice_identical_outputs(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    for out in ("one", "two"):
        assert main(["run", str(config_path), "--out", str(tmp_path / out)]) == 0
    first = (tmp_path / "one" / "curve.csv").read_bytes()
    second = (tmp_path / "two" / "curve.csv").read_bytes()
    assert first == second
    s1 = json.loads((tmp_path / "one" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "two" / "summary.json").read_text())
    s1.pop("runtime_seconds"), s2.pop("runtime_seconds")
    s1.pop("outputs"), s2.pop("outputs")
    assert s1 == s2


def test_seed_precedence(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    monkeypatch.setenv("PBA_SEED", "99")
    main(["run", str(config_path), "--out", str(tmp_path / "env")])
    env_summary = json.loads((tmp_path / "env" / "summary.json").read_text())
    assert env_summary["seed"] == 99
    main(["run", str(config_path), "--seed", "123", "--out", str(tmp_path / "flag")])
    flag_summary = json.loads((tmp_path / "flag" / "summary.json").read_text())
    assert flag_summary["seed"] == 123


def test_summary_counts_every_model_call(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["pipeline"] = "propagate"
    precise = config["parameters"].pop("precise")
    config["parameters"]["boxed"] = {
        "c1": {"min": 0.0, "max": 10.0, "mean": 0.05, "std": 0.00033},
        "c6": {"min": 0.5, "max": 2.0, "mean": 1.0, "std": 0.0167},
    }
    config.update(n=2, optimizer={"budget": 100, "tol": 1e-4})
    config["psa_baseline"] = {"samples": 30, "families": {k: v["family"] for k, v in precise.items()}}
    analysis = AnalysisConfig.from_dict(config)
    model = analysis.model
    calls = []

    def counted(params):
        calls.append(1)
        return model.fn(params)

    summary = run_analysis(dataclasses.replace(analysis, model=RegisteredModel(counted, model.param_names)), tmp_path)
    assert "baseline" in summary["outputs"]
    assert summary["model_evaluations"] == len(calls)


def test_error_record_on_bad_config(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text("{not json")
    code = main(["run", str(config_path), "--out", str(tmp_path)])
    assert code != 0
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ConfigParseError"
    assert record["error"]["location"]


def test_pbox_subcommand(tmp_path):
    out = tmp_path / "box.csv"
    code = main(
        ["pbox", "--min", "0", "--max", "1", "--median", "0.4", "--grid", "5", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "theta,lbf,ubf"
    assert len(rows) == 6


def test_pbox_subcommand_invalid_stats(tmp_path, capsys):
    code = main(["pbox", "--min", "2", "--max", "1", "--grid", "5", "--out", str(tmp_path / "x.csv")])
    assert code != 0
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ReversedBounds"


def test_pbox_curve_pipeline(tmp_path):
    config = {
        "schema": "pba-analysis/1",
        "pipeline": "pbox-curve",
        "model": "four_state_life_expectancy",
        "parameters": {
            "fixed": {"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05},
            "boxed": {
                "c1": {"min": 0.0, "max": 10.0, "mean": 0.05, "std": 0.00033},
                "c6": {"min": 0.0, "max": 10.0, "mean": 1.0, "std": 0.0167},
            },
        },
        "curve_grid": 11,
    }
    summary = run_analysis(AnalysisConfig.from_dict(config), tmp_path)
    assert (tmp_path / "curve-c1.csv").exists()
    assert (tmp_path / "curve-c6.csv").exists()
    assert set(summary["outputs"]) == {"curve:c1", "curve:c6"}


def test_decide_pipeline(tmp_path):
    config = {
        "schema": "pba-analysis/1",
        "pipeline": "decide",
        "model": "demo_cea_nmb",
        "parameters": {
            "fixed": {
                "p_minor": 0.02,
                "p_serious": 0.006,
                "p_die": 0.002,
                "p_minor_serious": 0.05,
                "p_die_serious": 0.03,
            },
            "boxed": {"rr": {"min": 0.5, "max": 1.1, "mean": 0.8}},
        },
        "n": 4,
        "seed": 3,
        "optimizer": {"budget": 120, "tol": 0.002},
        "actions": [
            {"id": "device", "overrides": {"device_cost": 1500.0}},
            {"id": "conventional", "overrides": {"device_cost": 0.0, "rr": 1.0}},
        ],
        "decision": {"rule": "pessimist"},
    }
    summary = run_analysis(AnalysisConfig.from_dict(config), tmp_path)
    assert {row["id"] for row in summary["actions"]} == {"device", "conventional"}
    rows = {row["id"]: row["expected_interval"] for row in summary["actions"]}
    # The comparator arm is deterministic: its interval collapses to a point.
    assert rows["conventional"][0] == pytest.approx(rows["conventional"][1])
    assert rows["device"][0] < rows["device"][1]
    assert summary["chosen"] == ["conventional"] or summary["chosen"] == ["device"]
    # Unconverged searches are reported per action and in total, as for propagate.
    counts = {row["id"]: row["unconverged_boxes"] for row in summary["actions"]}
    assert counts["conventional"] == 0  # every parameter fixed: one evaluation, no search
    assert all(isinstance(c, int) and c >= 0 for c in counts.values())
    assert summary["unconverged_boxes"] == sum(counts.values())
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["unconverged_boxes"] == summary["unconverged_boxes"]
    assert [row["unconverged_boxes"] for row in written["actions"]] == list(counts.values())
    assert (tmp_path / "curve-device.csv").exists()
    assert (tmp_path / "curve-conventional.csv").exists()
    assert written["rule"] == "pessimist" and "alpha" not in written



def _all_fixed_decide_config(slow_c6: float) -> dict:
    """A decide config whose actions pin every boxed parameter."""
    return {
        "schema": "pba-analysis/1",
        "pipeline": "decide",
        "model": "four_state_life_expectancy",
        "parameters": {
            "fixed": {"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05},
            "boxed": {
                "c1": {"min": 0.0, "max": 10.0, "mean": 0.05},
                "c6": {"min": 0.5, "max": 2.0, "mean": 1.0},
            },
        },
        "n": 3,
        "curve_grid": 11,
        "actions": [
            {"id": "usual", "overrides": {"c1": 0.05, "c6": 1.0}},
            {"id": "slow", "overrides": {"c1": 0.04, "c6": slow_c6}},
        ],
        "decision": {"rule": "pessimist"},
    }


def test_decide_all_fixed_actions(tmp_path):
    analysis = AnalysisConfig.from_dict(_decide_config({"rule": "hurwicz"}))
    model = analysis.model
    calls = []

    def counted(params):
        calls.append(dict(params))
        return model.fn(params)

    summary = run_analysis(dataclasses.replace(analysis, model=RegisteredModel(counted, model.param_names)), tmp_path)
    # One model call per action, at the fixed parameters and its overrides.
    assert summary["model_evaluations"] == len(calls) == 2
    assert [c["c6"] for c in calls] == [1.0, 0.8]
    assert summary["unconverged_boxes"] == 0
    for row, args in zip(summary["actions"], calls):
        assert row["expected_interval"] == [model.fn(args)] * 2
        curve = (tmp_path / f"curve-{row['id']}.csv").read_text().strip().splitlines()[1:]
        assert all(line.split(",")[1] == line.split(",")[2] for line in curve)  # degenerate
    # A hurwicz run reports the alpha it used, the default included.
    written = json.loads((tmp_path / "summary.json").read_text())
    assert (written["rule"], written["alpha"]) == ("hurwicz", 0.5)


def test_decide_all_fixed_model_error_recorded(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_all_fixed_decide_config(slow_c6=0.0)))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert record["type"] == "ModelEvaluationError"
    assert "SingularSystem" in record["message"]

def _minmax_propagate_config(families: dict) -> dict:
    """Min/max-only c1 and c6 boxes with a moment-matched PSA baseline."""
    config = json.loads(json.dumps(BASE_CONFIG))
    config["pipeline"] = "propagate"
    config["parameters"]["boxed"] = {
        name: {"min": 0.5, "max": 2.0} for name in config["parameters"].pop("precise")
    }
    config.update(n=2, psa_baseline={"samples": 20, "families": families})
    return config


ALIVE_TO_DEAD = [{"from": "alive", "to": "dead", "param": "p_die"}]


def _inline_cea_config(transitions: list, **cea) -> dict:
    """A two-state inline CEA model with the given transition entries and fields."""
    return {
        "schema": "pba-analysis/1",
        "pipeline": "propagate",
        "model": {
            "cea": {
                "states": [
                    {"name": "alive", "cost": 100.0, "utility": 0.9},
                    {"name": "dead", "absorbing": True},
                ],
                "transitions": transitions,
                "initial": [1.0, 0.0],
                "cycle_length_years": 1.0,
                "horizon_cycles": 20,
                "discount_rate_annual": 0.035,
                **cea,
            }
        },
        "parameters": {"boxed": {"p_die": {"min": 0.05, "max": 0.3, "mean": 0.1}}},
        "n": 5,
    }


def _with_cea_state_cost(cost) -> dict:
    config = _inline_cea_config(ALIVE_TO_DEAD)
    config["model"]["cea"]["states"][0]["cost"] = cost
    return config


def _with_boxed_mean(mean) -> dict:
    config = _inline_cea_config(ALIVE_TO_DEAD)
    config["parameters"]["boxed"]["p_die"]["mean"] = mean
    return config


def _with_first_overrides(overrides) -> dict:
    config = _all_fixed_decide_config(slow_c6=0.8)
    config["actions"][0]["overrides"] = overrides
    return config


def _decide_config(decision: dict, slow_c6=0.8) -> dict:
    config = _all_fixed_decide_config(slow_c6=slow_c6)
    config["decision"] = decision
    return config


DEAD = {"name": "dead", "absorbing": True}


def _with_cea_states(*states) -> dict:
    return _inline_cea_config(ALIVE_TO_DEAD, states=list(states), initial=[1.0] + [0.0] * (len(states) - 1))


def _with_second_action_id(action_id) -> dict:
    config = _all_fixed_decide_config(slow_c6=0.8)
    config["actions"][1]["id"] = action_id
    return config


def _two_boxed_curve_config(name) -> dict:
    """A pbox-curve run of an inline CEA model whose second boxed input is ``name``."""
    config = _inline_cea_config([{"from": "alive", "to": "dead", "product": ["p_die", name]}])
    config["pipeline"] = "pbox-curve"
    config["parameters"]["boxed"][name] = {"min": 0.5, "max": 1.0, "mean": 0.8}
    return config


@pytest.mark.parametrize(
    "location, config",
    [
        ("psa_baseline.families.c1", _minmax_propagate_config({"c1": "weibull"})),
        ("psa_baseline.families.c6", _minmax_propagate_config({"c6": "gamma"})),
        ("decision.alpha", _decide_config({"rule": "hurwicz", "alpha": 1.5})),
        ("decision.alpha", _decide_config({"rule": "hurwicz", "alpha": "x"})),
        ("seed", dict(BASE_CONFIG, seed="abc")),
        ("actions[1].overrides.c6", _decide_config({"rule": "pessimist"}, slow_c6="slow")),
        ("decision.alpha", _decide_config({"rule": "pessimist", "alpha": 0.3})),
        ("parameters.boxed", dict(BASE_CONFIG, pipeline="pbox-curve")),
        ("parameters.precise", dict(BASE_CONFIG, pipeline="propagate")),
        ("parameters.boxed", dict(_minmax_propagate_config({}), pipeline="psa")),
        ("actions", dict(_all_fixed_decide_config(slow_c6=0.8), actions=[{"id": "usual"}])),
        ("model.cea", _inline_cea_config([{"from": "alive", "to": "gone", "param": "p_die"}])),
        ("model.cea", _inline_cea_config([{"from": "alive", "to": "dead"}])),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, cycle_length_years=math.nan)),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, discount_rate_annual=math.nan)),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, initial=[1.5, -0.5])),
        (
            "parameters.fixed.c2",
            dict(BASE_CONFIG, parameters={**BASE_CONFIG["parameters"], "fixed": {"c2": True}}),
        ),
        ("optimizer", dict(BASE_CONFIG, optimizer={"tol": True})),
        ("parameters.boxed.p_die", _with_boxed_mean(True)),
        ("model.cea", _with_cea_state_cost(True)),
        ("seed", dict(BASE_CONFIG, seed=-1)),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, states=[{"cost": 1.0}, {"name": "dead", "absorbing": True}])),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, states=["alive", "dead"])),
        ("model.cea", _inline_cea_config(["alive->dead"])),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, initial=1.0)),
        ("parameters", dict(BASE_CONFIG, parameters=[BASE_CONFIG["parameters"]])),
        ("optimizer", dict(BASE_CONFIG, optimizer=300)),
        ("actions[0].overrides", _with_first_overrides([["c1", 0.05]])),
        ("parameters.fixed", dict(BASE_CONFIG, parameters={**BASE_CONFIG["parameters"], "fixed": [0.01]})),
        ("parameters.precise.c1", dict(BASE_CONFIG, parameters={"precise": {"c1": 0.05}})),
        ("parameters.boxed.p_die", dict(_inline_cea_config(ALIVE_TO_DEAD), parameters={"boxed": {"p_die": 0.1}})),
        ("decision", dict(_all_fixed_decide_config(slow_c6=0.8), decision="pessimist")),
        ("actions[1]", dict(_all_fixed_decide_config(slow_c6=0.8), actions=[{"id": "usual"}, 2])),
        ("actions", dict(_all_fixed_decide_config(slow_c6=0.8), actions=5)),
        ("decision.rule", _decide_config({"rule": ["pessimist"]})),
        ("psa_baseline.families", _minmax_propagate_config(["uniform"])),
        ("output", dict(BASE_CONFIG, output=5)),
        ("model.cea", _inline_cea_config([{"from": "alive", "to": "dead", "value": True}])),
        ("model.cea", _inline_cea_config([{"from": "alive", "to": "dead", "product": ["p_die", None]}])),
        ("model.cea", _inline_cea_config([{"from": "alive", "to": "dead", "product": "p_die"}])),
        ("config", "x"),
        ("config", 3),
        ("config", [BASE_CONFIG]),
        ("model.cea", _with_cea_states({"name": "alive", "utility": 0.9, "absorbing": "false"}, DEAD)),
        ("model.cea", _with_cea_states({"name": "alive", "utility": 0.9}, DEAD, {"name": "dead", "utility": 1.0})),
        (
            "model.cea",
            _inline_cea_config(
                [{"from": 5, "to": "dead", "param": "p_die"}], states=[{"name": 5, "utility": 0.9}, DEAD]
            ),
        ),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, wtp=-5)),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, wtp=math.inf)),
        ("actions[1].id", _with_second_action_id("usual")),
        ("actions[1].id", _with_second_action_id("a/b")),
        ("output.curve", dict(BASE_CONFIG, output={"curve": 5})),
        ("output.summary", dict(BASE_CONFIG, output={"summary": 5})),
        ("output.curve", dict(BASE_CONFIG, output={"curve": "../curve.csv"})),
        ("psa_baseline.file", dict(_minmax_propagate_config({}), psa_baseline={"file": "x/b.csv"})),
        ("output.summary", dict(BASE_CONFIG, output={"summary": ".."})),
        ("psa_baseline.file", dict(_minmax_propagate_config({}), psa_baseline={"file": "curve.csv"})),
        ("output.summary", dict(_all_fixed_decide_config(slow_c6=0.8), output={"summary": "curve-usual.csv"})),
        ("output.summary", dict(BASE_CONFIG, output={"curve": "summary.json"})),
        ("parameters.boxed.a/b", _two_boxed_curve_config("a/b")),
        ("psa_baseline.families.C6", _minmax_propagate_config({"c1": "uniform", "C6": "uniform"})),
        ("psa_baseline.families.c9", _minmax_propagate_config({"c9": "uniform"})),
        ("optimizer", dict(BASE_CONFIG, optimizer={"tols": 0.1})),
        ("psa_baseline", dict(_all_fixed_decide_config(slow_c6=0.8), psa_baseline={})),
        ("psa_baseline", dict(_minmax_propagate_config({}), pipeline="pbox-curve")),
    ],
)
def test_config_value_rejected_at_load(location, config, tmp_path, capsys):
    with pytest.raises(ConfigParseError) as err:
        AnalysisConfig.from_dict(config)
    assert err.value.location == location
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", str(config_path), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", location)
    assert not any(out.glob("*"))


@pytest.mark.parametrize(
    "config",
    [
        dict(BASE_CONFIG, parameters={**BASE_CONFIG["parameters"], "fixed": {"c2": True}}),
        dict(BASE_CONFIG, optimizer={"tol": True}),
        _with_boxed_mean(True),
        _with_cea_state_cost(False),
    ],
    ids=["fixed", "optimizer", "boxed", "inline-cea"],
)
def test_boolean_refused_in_number_field(config):
    """A JSON boolean is not read as 1.0 or 0.0, also where that would pass the range checks."""
    with pytest.raises(ConfigParseError, match="must be a number, got (True|False)"):
        AnalysisConfig.from_dict(config)


def test_inline_cea_model(tmp_path):
    config = {
        "schema": "pba-analysis/1",
        "pipeline": "propagate",
        "model": {
            "cea": {
                "states": [
                    {"name": "alive", "cost": 100.0, "utility": 0.9},
                    {"name": "dead", "absorbing": True},
                ],
                "transitions": [{"from": "alive", "to": "dead", "param": "p_die"}],
                "initial": [1.0, 0.0],
                "cycle_length_years": 1.0,
                "horizon_cycles": 20,
                "discount_rate_annual": 0.035,
                "outcome": "qaly",
            }
        },
        "parameters": {"boxed": {"p_die": {"min": 0.05, "max": 0.3, "mean": 0.1}}},
        "n": 5,
        "optimizer": {"budget": 100, "tol": 0.001},
    }
    summary = run_analysis(AnalysisConfig.from_dict(config), tmp_path)
    lo, hi = summary["expected_interval"]
    assert 0 < lo <= hi < 20 * 0.9


def test_inline_cea_matches_hand_loop(tmp_path):
    """An inline CEA outcome equals a plain cycle-by-cycle cohort loop."""
    p_sick, p_die, cycle, horizon, rate, wtp = 0.03, 0.004, 1.0 / 12.0, 120, 0.035, 20_000.0
    costs, utilities = (200.0, 5_000.0, 0.0), (0.9, 0.6, 0.0)
    config = {
        "schema": "pba-analysis/1",
        "pipeline": "propagate",
        "model": {
            "cea": {
                "states": [
                    {"name": "well", "cost": costs[0], "utility": utilities[0]},
                    {"name": "sick", "cost": costs[1], "utility": utilities[1]},
                    {"name": "dead", "absorbing": True},
                ],
                "transitions": [
                    {"from": "well", "to": "sick", "param": "p_sick"},
                    {"from": "well", "to": "dead", "param": "p_die"},
                    {"from": "sick", "to": "well", "value": 0.1},
                    {"from": "sick", "to": "dead", "product": ["p_die", 3.0]},
                ],
                "initial": [1.0, 0.0, 0.0],
                "cycle_length_years": cycle,
                "horizon_cycles": horizon,
                "discount_rate_annual": rate,
                "wtp": wtp,
            }
        },
        "parameters": {"fixed": {"p_sick": p_sick, "p_die": p_die}},
    }
    summary = run_analysis(AnalysisConfig.from_dict(config), tmp_path)

    matrix = [
        [1.0 - p_sick - p_die, p_sick, p_die],
        [0.1, 1.0 - 0.1 - 3.0 * p_die, 3.0 * p_die],
        [0.0, 0.0, 1.0],
    ]
    occupancy, cost, qaly = [1.0, 0.0, 0.0], 0.0, 0.0
    for t in range(horizon):
        weight = (1.0 + rate) ** (-t * cycle) * cycle
        cost += weight * sum(o * c for o, c in zip(occupancy, costs))
        qaly += weight * sum(o * u for o, u in zip(occupancy, utilities))
        occupancy = [sum(occupancy[i] * matrix[i][j] for i in range(3)) for j in range(3)]
    expected = wtp * qaly - cost

    assert summary["model_evaluations"] == 1
    for value in summary["expected_interval"]:
        assert value == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "name",
    [
        "case1-psa-gamma.json",
        "demo-cea-inmb.json",
        "case1-minmax-vs-uniform.json",
        "case1-pba.json",
    ],
)
def test_bundled_configs_round_trip(name, tmp_path):
    """Bundled configs parse, run, and produce valid monotone curves."""
    config = load_config(CONFIG_DIR / name)
    summary = run_analysis(config, tmp_path)
    assert (tmp_path / "summary.json").exists()
    curve = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert curve[0] == "theta,lbf,ubf"
    body = np.array([[float(x) for x in line.split(",")] for line in curve[1:]])
    assert np.all(np.diff(body[:, 1]) >= -1e-12)
    assert np.all(np.diff(body[:, 2]) >= -1e-12)
    assert np.all(body[:, 1] <= body[:, 2] + 1e-12)
    assert summary["runtime_seconds"] >= 0


def test_bundled_cea_result_pinned(tmp_path):
    """The bundled CEA run, at two samples, gives the pinned expected
    interval to the last bit, and the same DIRECT trajectory (model
    evaluations) it has given since the cohort evaluator was compiled per
    spec.  The interval was re-pinned when the totals came to be taken by
    doubling: it moved in the 13th digit, from [-1581.6096957697448,
    31609.485147967665].  It was re-pinned again when the expected values
    came to be taken with ``math.fsum``, correctly rounded, in place of a
    BLAS dot product: the lower end moved 1 ulp, from -1581.6096957696518.
    The expected values no longer depend on the BLAS; the model's totals
    still do.  The figures were recorded with numpy 2.4 on x86-64; another
    BLAS may round the small matrix products differently."""
    config = dataclasses.replace(load_config(CONFIG_DIR / "demo-cea-inmb.json"), samples=2)
    summary = run_analysis(config, tmp_path)
    assert [repr(v) for v in summary["expected_interval"]] == [
        "-1581.609695769652",
        "31609.48514796765",
    ]
    assert summary["model_evaluations"] == 10466


def test_prefetch_only_speeds_up(tmp_path):
    """The bundled CEA run at two samples, once with the model's ``prefetch``
    taken away and once as shipped, gives the same summary, curve bytes and
    model evaluations.  The model's round table is emptied before each run,
    so the plain run computes each point alone and the shipped run computes
    its rounds as stacks."""
    config = dataclasses.replace(load_config(CONFIG_DIR / "demo-cea-inmb.json"), samples=2)
    fn = config.model.fn
    announced = []

    def plain(params):
        return fn(params)

    @functools.wraps(fn)  # copies the model's prefetch, which is then counted
    def shipped(params):
        return fn(params)

    shipped.prefetch = lambda points: announced.append(len(points)) or fn.prefetch(points)
    assert not hasattr(plain, "prefetch")
    results = []
    for model in (plain, shipped):
        models.demo_cea_inmb.prefetch.__self__.clear()
        out = tmp_path / str(len(results))
        summary = run_analysis(dataclasses.replace(config, model=RegisteredModel(model, config.model.param_names)), out)
        for key in ("runtime_seconds", "outputs", "summary_path"):
            del summary[key]
        results.append((summary, (out / "curve.csv").read_bytes()))
    assert results[0] == results[1]
    assert results[0][0]["model_evaluations"] == 10466
    assert sum(announced) > 9000



def _stack_sizes(monkeypatch) -> list:
    """The number of points of each transition stack built from here on."""
    sizes = []
    build = models._transition_stack
    monkeypatch.setattr(models, "_transition_stack", lambda spec, points: sizes.append(len(points)) or build(spec, points))
    return sizes


def test_bundled_cea_run_evaluates_no_stack_of_one(tmp_path, monkeypatch):
    """Every point of the bundled CEA run, each search's first centre too,
    reaches the model in a combined round, so no matrix is evaluated alone:
    each transition stack is a round's.  The number of matrices evaluated is
    pinned: each round's distinct arms are evaluated once, and nothing is
    carried over from the round before, so the comparator arms that a round
    repeats are computed again."""
    config = dataclasses.replace(load_config(CONFIG_DIR / "demo-cea-inmb.json"), samples=2)
    sizes = _stack_sizes(monkeypatch)
    models.demo_cea_inmb.prefetch.__self__.clear()
    assert run_analysis(config, tmp_path)["model_evaluations"] == 10466
    assert sizes and min(sizes) > 1
    assert sum(sizes) == 12661


def test_bundled_cea_run_traces_no_matrix(tmp_path, monkeypatch):
    """The bundled CEA run at two samples takes every total by doubling:
    each of its matrices passes the drift bound, so none is traced cycle by
    cycle, and no array over the horizon is built."""
    config = dataclasses.replace(load_config(CONFIG_DIR / "demo-cea-inmb.json"), samples=2)
    traced = []
    traces = models._traces
    monkeypatch.setattr(models, "_traces", lambda spec, stack: traced.append(len(stack)) or traces(spec, stack))
    models.demo_cea_inmb.prefetch.__self__.clear()
    assert run_analysis(config, tmp_path)["model_evaluations"] == 10466
    assert traced == []


def test_bundled_cea_table_holds_the_last_round(tmp_path, monkeypatch):
    """After the bundled CEA run at two samples, the INMB model's table holds
    one entry per distinct point of the last round handed to its
    ``prefetch``, and calls made without a ``prefetch`` leave it as it is."""
    config = dataclasses.replace(load_config(CONFIG_DIR / "demo-cea-inmb.json"), samples=2)
    table, rounds = models.demo_cea_inmb.prefetch.__self__, []

    def recorded(points):
        rounds.append(list(points))
        table.fill(rounds[-1])

    monkeypatch.setattr(models.demo_cea_inmb, "prefetch", recorded)
    table.clear()
    run_analysis(config, tmp_path)
    keys = {table.key(point) for point in rounds[-1]}
    assert len(keys) > 1 and set(table) == keys
    rng = np.random.default_rng(20261019)
    for _ in range(1000):
        models.demo_cea_inmb({**rounds[-1][0], "rr": float(rng.uniform(0.5, 1.0))})
    assert set(table) == keys


def test_bundled_cea_run_is_the_same_in_any_slice(tmp_path, monkeypatch, totals_in_slices):
    """The bundled CEA run at two samples gives the same summary values and
    curve bytes with each stack's totals taken in slices of one matrix, of
    seven, and whole: a matrix's totals do not depend on the stack it is in."""
    config = dataclasses.replace(load_config(CONFIG_DIR / "demo-cea-inmb.json"), samples=2)
    results = []
    for most in (1, 7, None):
        if most is not None:
            totals_in_slices(most)
        models.demo_cea_inmb.prefetch.__self__.clear()
        out = tmp_path / str(most)
        summary = run_analysis(config, out)
        monkeypatch.undo()
        for key in ("runtime_seconds", "outputs", "summary_path"):
            del summary[key]
        results.append((summary, (out / "curve.csv").read_bytes()))
    assert results[0] == results[1] == results[2]


def test_large_inline_spec_totals_agree_with_the_per_cycle_trace(monkeypatch):
    """A 12-state, 1,200-cycle inline model takes a round's totals by
    doubling, tracing no matrix, and each point's cost and QALY agree with
    ``discounted_outcomes`` of its per-cycle ``cohort_trace`` within 1e-12
    relative."""
    chain = [f"s{i}" for i in range(11)]
    transitions = [{"from": a, "to": b, "param": "p"} for a, b in zip(chain, chain[1:])]
    transitions += [{"from": a, "to": "dead", "param": "p_die"} for a in chain]
    document = _inline_cea_config(
        transitions,
        states=[{"name": name, "cost": 100.0 * i, "utility": 0.9} for i, name in enumerate(chain)]
        + [{"name": "dead", "absorbing": True}],
        initial=[1.0] + [0.0] * 11,
        horizon_cycles=1200,
        cycle_length_years=1.0 / 12.0,
    )
    document["parameters"]["fixed"] = {"p": 0.01}
    points = [{"p": 0.001 * k, "p_die": 0.01 + 0.0005 * k} for k in range(40)]
    specs, traced, values = [], [], []
    totals, traces = models._doubled_totals, models._traces
    monkeypatch.setattr(models, "_doubled_totals", lambda s, stack: specs.append(s) or totals(s, stack))
    monkeypatch.setattr(models, "_traces", lambda s, stack: traced.append(len(stack)) or traces(s, stack))
    for outcome in ("cost", "qaly"):
        document["model"]["cea"]["outcome"] = outcome
        model = AnalysisConfig.from_dict(document).model.fn
        model.prefetch(points)
        table = model.prefetch.__self__
        values.append([table[table.key(p)] for p in points])
    monkeypatch.undo()
    assert traced == [] and len(specs) == 2 and specs[0].horizon_cycles == 1200
    judged = [models.discounted_outcomes(models.cohort_trace(specs[0], p), specs[0]) for p in points]
    assert [v for pair in zip(*values) for v in pair] == pytest.approx(
        [v for pair in judged for v in pair], rel=1e-12, abs=0
    )


def test_three_boxed_cea_run_evaluates_no_stack_of_one(tmp_path, monkeypatch):
    """With ``p_minor`` boxed too, every call of a round finds its point in
    the table that round's ``prefetch`` made: no matrix is evaluated alone."""
    raw = json.loads((CONFIG_DIR / "demo-cea-inmb.json").read_text())
    parameters = raw["parameters"]
    del parameters["precise"]["p_minor"]
    parameters["boxed"]["p_minor"] = {"min": 0.01, "max": 0.03, "mean": 0.02}
    config = AnalysisConfig.from_dict(dict(raw, n=3, samples=1))
    sizes = _stack_sizes(monkeypatch)
    models.demo_cea_inmb.prefetch.__self__.clear()
    assert run_analysis(config, tmp_path)["model_evaluations"] == 12391
    assert sizes and min(sizes) > 1


@pytest.mark.parametrize(
    "location, config",
    [
        ("n", dict(BASE_CONFIG, n=2.7)),
        ("n", dict(BASE_CONFIG, n=True)),
        ("samples", dict(BASE_CONFIG, samples=50.5)),
        ("seed", dict(BASE_CONFIG, seed=1.5)),
        ("seed", dict(BASE_CONFIG, seed=False)),
        ("curve_grid", dict(BASE_CONFIG, curve_grid=200.1)),
        ("optimizer", dict(BASE_CONFIG, optimizer={"budget": 300.9})),
        ("optimizer", dict(BASE_CONFIG, optimizer={"budget": True})),
        ("optimizer", dict(BASE_CONFIG, optimizer={"budget": math.inf})),
        ("psa_baseline.samples", dict(_minmax_propagate_config({}), psa_baseline={"samples": 20.5})),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, horizon_cycles=20.5)),
        ("model.cea", _inline_cea_config(ALIVE_TO_DEAD, horizon_cycles=True)),
    ],
)
def test_integer_field_rejects_non_whole_number(location, config):
    with pytest.raises(ConfigParseError, match="must be a whole number") as err:
        AnalysisConfig.from_dict(config)
    assert err.value.location == location


def test_integer_field_takes_whole_float():
    config = AnalysisConfig.from_dict(dict(BASE_CONFIG, n=50.0, samples=20.0, seed=7.0, optimizer={"budget": 300.0}))
    assert (config.n, config.samples, config.seed, config.optimizer.budget) == (50, 20, 7, 300)
    assert all(type(v) is int for v in (config.n, config.samples, config.seed, config.optimizer.budget))
    model = AnalysisConfig.from_dict(_inline_cea_config(ALIVE_TO_DEAD, horizon_cycles=20.0)).model.fn
    assert model({"p_die": 0.1}) == AnalysisConfig.from_dict(_inline_cea_config(ALIVE_TO_DEAD)).model.fn({"p_die": 0.1})


@pytest.mark.parametrize(
    "env, flag, location",
    [("-5", [], "PBA_SEED"), (None, ["--seed", "-3"], "--seed"), ("7", ["--seed", "-3"], "--seed")],
)
def test_negative_seed_refused_before_the_run(env, flag, location, tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    if env is None:
        monkeypatch.delenv("PBA_SEED", raising=False)
    else:
        monkeypatch.setenv("PBA_SEED", env)
    out = tmp_path / "out"
    assert main(["run", str(config_path), *flag, "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", location)
    assert "at least 0" in record["message"]
    assert not out.exists()


def test_bad_pba_seed_gives_error_record(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    monkeypatch.setenv("PBA_SEED", "abc")
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", "PBA_SEED")


@pytest.mark.parametrize("grid", ["1", "0", "-4"])
def test_pbox_grid_below_two_refused_before_the_box(grid, tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr("pba.cli.build_pbox", lambda data: built.append(data))
    out = tmp_path / "box.csv"
    assert main(["pbox", "--min", "0", "--max", "1", "--grid", grid, "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", "--grid")
    assert "at least 2" in record["message"]
    assert built == [] and not out.exists()


def test_pbox_grid_of_two_accepted(tmp_path):
    out = tmp_path / "box.csv"
    assert main(["pbox", "--min", "0", "--max", "1", "--grid", "2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize(
    "triples, first, last",
    [
        ([(2.0, math.inf, 1.0)], None, "inf,1.0,1.0"),  # finite part is one point
        ([(-math.inf, 0.0, 0.5), (1.0, 3.0, 0.5)], "-inf,0.0,0.0", None),
    ],
)
def test_export_curve_infinite_ends(triples, first, last, tmp_path):
    rows = export_curve(EmpiricalPBox(triples), 5, tmp_path / "c.csv").read_text().splitlines()[1:]
    if first:
        assert rows.pop(0) == first
    if last:
        assert rows.pop() == last
    body = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert len(body) == 5 and np.all(np.isfinite(body))
    assert np.all(np.diff(body[:, 0]) > 0)
    assert body[0, 2] == (0.5 if first else 0.0)


def test_unbounded_outcome_in_summary_and_curve(tmp_path):
    """Case 1 at n=10: the upper expected value is +inf on 10 boxes."""
    config = json.loads((CONFIG_DIR / "case1-pba.json").read_text())
    config.update(n=10, psa_baseline={"samples": 20, "families": {"c1": "gamma", "c6": "gamma"}})
    run_analysis(AnalysisConfig.from_dict(config), tmp_path)
    text = (tmp_path / "summary.json").read_text()
    assert "Infinity" in text
    summary = json.loads(text)
    assert summary["expected_interval"][1] == math.inf
    assert summary["outcome_support"][1] == math.inf
    assert (summary["unbounded_boxes"], summary["unconverged_boxes"]) == (10, 0)
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[-1] == "inf,1.0,1.0"
    assert curve[1].split(",")[1:] == ["0.0", "0.0"]


@pytest.mark.parametrize(
    "box",
    [
        {"min": 0.011252101358785849, "max": 4.181297142517946, "mean": 4.111666749105025, "std": 0.5343346190157194},
        {"min": 0.0, "max": 1.0, "mean": 0.44, "std": 0.4963869458396343},
    ],
)
def test_run_with_std_at_or_just_below_the_cap(box, tmp_path):
    """Mean/std boxes at or within ulps of the variance cap slice and propagate."""
    config = json.loads(json.dumps(BASE_CONFIG))
    config.update(pipeline="propagate", n=10, curve_grid=11)
    config["parameters"]["fixed"]["c6"] = config["parameters"]["precise"].pop("c6")["mean"]
    config["parameters"]["boxed"] = {"c1": box}
    del config["parameters"]["precise"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 0
    lo, hi = json.loads((tmp_path / "out" / "summary.json").read_text())["expected_interval"]
    assert 0 < lo <= hi < math.inf


ROOT = CONFIG_DIR.parent.parent.parent
CEA_CONFIG = CONFIG_DIR / "demo-cea-inmb.json"
DECIDE_CONFIG = ROOT / "perfbench" / "configs" / "case1-decide.json"
SHIPPED_CONFIGS = [*sorted(CONFIG_DIR.glob("*.json")), DECIDE_CONFIG]


def _edited(path: Path, edit) -> dict:
    """The config at ``path`` after ``edit`` changed it in place."""
    config = json.loads(path.read_text())
    edit(config)
    return config


@pytest.mark.parametrize(
    "location, config",
    [
        ("parameters.boxed.rr", _edited(CEA_CONFIG, lambda c: c["parameters"]["boxed"]["rr"].update(meen=0.7))),
        ("sample", _edited(CEA_CONFIG, lambda c: c.update(sample=3))),
        ("outputs", _edited(CEA_CONFIG, lambda c: c.update(outputs={"curve": "x.csv"}))),
        ("optimiser", _edited(CEA_CONFIG, lambda c: c.update(optimiser={"budget": 50}))),
        ("threads", _edited(CEA_CONFIG, lambda c: c.update(threads=4))),
        ("decision", _edited(CEA_CONFIG, lambda c: c.update(decision={"rule": "pessimist"}))),
        ("actions", _edited(CEA_CONFIG, lambda c: c.update(actions=[{"id": "a"}, {"id": "b"}]))),
        (
            "parameters.precise.p_minor",
            _edited(CEA_CONFIG, lambda c: c["parameters"]["precise"]["p_minor"].update(sdt=0.004)),
        ),
        ("parameters.fixd", _edited(CEA_CONFIG, lambda c: c["parameters"].update(fixd={"p_die": 0.002}))),
        ("output.curv", _edited(CEA_CONFIG, lambda c: c["output"].update(curv="x.csv"))),
        ("psa_baseline.sample", _edited(CEA_CONFIG, lambda c: c.update(psa_baseline={"sample": 100}))),
        ("decision.alpah", _edited(DECIDE_CONFIG, lambda c: c["decision"].update(alpah=0.3))),
        ("actions[0].overide", _edited(DECIDE_CONFIG, lambda c: c["actions"][0].update(overide={"c2": 0.02}))),
    ],
)
def test_misspelt_or_misplaced_key_refused_at_load(location, config, tmp_path, capsys):
    """Each of these once loaded, its key ignored; a ``propagate-mixed`` run
    once ignored ``actions`` and ``decision`` too."""
    with pytest.raises(ConfigParseError) as err:
        AnalysisConfig.from_dict(config)
    assert err.value.location == location
    if location == "threads":
        assert "removed" in str(err.value)
    if location in ("actions", "decision"):
        assert "'decide'" in str(err.value)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["location"]) == ("ConfigParseError", location)


# Name -> value maps take any name (the model's inputs are checked apart);
# every other object of a config takes only its schema's keys.
MAPS = ("parameters.fixed", "parameters.precise", "parameters.boxed", "psa_baseline.families", ".overrides")
PINNED = ("optimizer", "parameters.boxed.", "parameters.precise.", "model.cea")


def _objects(value, path=""):
    """(path, object) for every JSON object in ``value``, outermost first."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from _objects(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _objects(item, f"{path}[{i}]")


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_unknown_key_refused_in_every_object(path):
    base = json.loads(path.read_text())
    AnalysisConfig.from_dict(base)
    checked = 0
    for location, _ in _objects(base):
        if location.endswith(MAPS):
            continue
        config = json.loads(path.read_text())
        target = dict(_objects(config))[location]
        target["unknown_key"] = 1
        with pytest.raises(ConfigParseError, match="is not a key of") as err:
            AnalysisConfig.from_dict(config)
        pinned = location.startswith(PINNED)
        assert err.value.location == (location if pinned else f"{location}.unknown_key".lstrip(".")), location
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("baseline", [False, 0, "", []])
def test_psa_baseline_must_be_an_object(baseline):
    with pytest.raises(ConfigParseError, match="must be an object") as err:
        AnalysisConfig.from_dict(dict(_minmax_propagate_config({}), psa_baseline=baseline))
    assert err.value.location == "psa_baseline"


def test_empty_psa_baseline_takes_every_default(tmp_path):
    baseline = AnalysisConfig.from_dict(dict(_minmax_propagate_config({}), psa_baseline={})).psa_baseline
    assert (baseline.samples, baseline.file) == (500, "baseline.csv")
    assert {name: spec.family for name, spec in baseline.parameters.precise.items()} == {"c1": "uniform", "c6": "uniform"}
    assert AnalysisConfig.from_dict(dict(_minmax_propagate_config({}), psa_baseline=None)).psa_baseline is None


@pytest.mark.parametrize("action_id", [5, None, ""])
def test_action_id_must_be_a_non_empty_string(action_id):
    with pytest.raises(ConfigParseError) as err:
        AnalysisConfig.from_dict(_with_second_action_id(action_id))
    assert err.value.location == "actions[1].id"


def _schema_paths(kind, path=""):
    """The dotted path of every key in the schema ``kind``: ``[]`` stands for
    any array element and ``<name>`` for any name of a map."""
    if kind is None:
        return
    if kind.name == "either":
        for alternative in kind.item:
            yield from _schema_paths(alternative, path)
    elif kind.name == "object":
        for key, (sub, _) in kind.keys.items():
            child = f"{path}.{key}" if path else key
            yield child
            yield from _schema_paths(sub, child)
    elif kind.name == "array":
        yield from _schema_paths(kind.item, f"{path}[]")
    elif kind.name == "map" and kind.item is not None:
        yield f"{path}.<name>"
        yield from _schema_paths(kind.item, f"{path}.<name>")


def test_readme_key_table_lists_every_schema_key():
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("| key | kind | default | read by |") :].split("\n\n")[0]
    listed = {line.split("`")[1] for line in table.splitlines()[2:]}
    paths = list(_schema_paths(DOCUMENT))
    assert len(paths) == len(set(paths)) > 50
    assert [p for p in paths if p not in listed] == []
    assert sorted(listed - set(paths)) == []
