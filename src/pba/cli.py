"""Configuration-driven command line entry point.

``pba run <config>`` executes one analysis described by a JSON document and
writes plot-ready CSV curves plus a schema-versioned JSON summary.
``pba pbox`` renders a single p-box curve straight from statistics given on
the command line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from ._lazy import np
from . import models
from .decision import INDETERMINATE, DecisionRule, Dominance, Hurwicz, Optimist, Pessimist, UtilityInterval, choose, expected_interval
from .distributions import DistributionSpec
from .errors import ConfigParseError, PbaError
from .minimal_data import MinimalData, validate_minimal_data
from .models import REGISTRY, CohortCeaSpec, RegisteredModel, compile_transitions
from .pbox import Intersection, PBox, build_pbox
from .optimize import OptimizerSettings
from .propagate import EmpiricalPBox, ParameterSet, propagate_mixed, psa_propagate

CONFIG_SCHEMA = "pba-analysis/1"
SUMMARY_SCHEMA = "pba-summary/1"

PIPELINES = ("pbox-curve", "propagate", "propagate-mixed", "psa", "decide")

_RULES = {"dominance": Dominance, "pessimist": Pessimist, "optimist": Optimist, "hurwicz": Hurwicz}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _need(mapping: Mapping, key: str, location: str):
    if key not in mapping:
        raise ConfigParseError(f"missing required key {key!r}", location=location)
    return mapping[key]


def _shaped(value, what: str, location: str, name: str | None = None):
    """``value`` if it is ``what`` ("an object" or "an array"), else a
    ``ConfigParseError`` at ``location`` naming the field ``name``."""
    if not isinstance(value, Mapping if what == "an object" else (list, tuple)):
        raise ConfigParseError(f"{name or location} must be {what}, got {value!r}", location=location)
    return value


def _number(kind: type, value, location: str, name: str | None = None):
    """``kind(value)`` for the config field ``name`` (by default ``location``),
    or a ``ConfigParseError`` at ``location``.

    A JSON boolean is refused for any number field, and an integer field
    takes whole numbers only: a float with a fractional part is refused
    rather than truncated.
    """
    name = name or location
    if isinstance(value, bool) or kind is int and isinstance(value, float) and not value.is_integer():
        what = "a whole number" if kind is int else "a number"
        raise ConfigParseError(f"{name} must be {what}, got {value!r}", location=location)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"{name} must be {kind.__name__}: {exc}", location=location) from exc


def _float_field(value, location: str, key: str) -> float:
    """The float field ``key`` of the config object at ``location``."""
    return _number(float, value, location, f"{location}.{key}")


_SEPARATORS = frozenset(filter(None, ("/", os.sep, os.altsep)))


def _file_name(value, location: str) -> str:
    """``value`` if it names a file in the output directory: a string with no
    path separator, and not ``""``, ``.`` or ``..``."""
    if not isinstance(value, str) or value in ("", ".", "..") or _SEPARATORS & set(value):
        raise ConfigParseError(
            f"{location} must be a file name without a path separator, got {value!r}", location=location
        )
    return value


def _count(cfg: Mapping, key: str, default: int, minimum: int, location: str) -> int:
    """An integer run size of at least ``minimum``, checked when the config loads."""
    value = _number(int, cfg.get(key, default), location)
    if value < minimum:
        raise ConfigParseError(f"{key} must be at least {minimum}, got {value}", location=location)
    return value


def _minimal_data_from(cfg: Mapping, location: str) -> MinimalData:
    cfg = _shaped(cfg, "an object", location)

    def stat(key: str, required: bool = False) -> float | None:
        value = _need(cfg, key, location) if required else cfg.get(key)
        return None if value is None else _float_field(value, location, key)

    try:
        d = MinimalData(
            minimum=stat("min", required=True),
            maximum=stat("max", required=True),
            median=stat("median"),
            mean=stat("mean"),
            std=stat("std"),
        )
        return validate_minimal_data(d)
    except PbaError as exc:
        if isinstance(exc, ConfigParseError):
            raise
        raise ConfigParseError(str(exc), location=location) from exc


def _distribution_from(cfg: Mapping, location: str) -> DistributionSpec:
    cfg = _shaped(cfg, "an object", location)
    family = _need(cfg, "family", location)
    try:
        if family in ("gamma", "beta"):
            if "mean" in cfg:
                mean, std = _float_field(cfg["mean"], location, "mean"), _float_field(cfg["std"], location, "std")
                return DistributionSpec.from_moments(family, MinimalData(-math.inf, math.inf, mean=mean, std=std))
            native = {k: _float_field(v, location, k) for k, v in cfg.items() if k != "family"}
            return getattr(DistributionSpec, family)(**native)
        if family == "uniform":
            low, high = (_float_field(_need(cfg, k, location), location, k) for k in ("min", "max"))
            return DistributionSpec.uniform(low, high)
        if family == "tabulated":
            return DistributionSpec.tabulated(_need(cfg, "values", location), _need(cfg, "cum_probs", location))
    except (PbaError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigParseError):
            raise
        raise ConfigParseError(f"bad distribution: {exc}", location=location) from exc
    raise ConfigParseError(f"unknown distribution family {family!r}", location=location)


def _inline_cea_model(cfg: Mapping, location: str) -> RegisteredModel:
    cfg = _shaped(cfg, "an object", location)

    def array(key: str) -> Sequence:
        return _shaped(_need(cfg, key, location), "an array", location, f"{location}.{key}")

    def objects(key: str) -> list[Mapping]:
        return [_shaped(e, "an object", location, f"{location}.{key}[{i}]") for i, e in enumerate(array(key))]

    state_cfgs = objects("states")
    states = tuple(_need(s, "name", location) for s in state_cfgs)
    absorbing = tuple(s.get("absorbing", False) for s in state_cfgs)
    for i, (name, flag) in enumerate(zip(states, absorbing)):
        if not isinstance(name, str) or name in states[:i]:
            raise ConfigParseError(
                f"{location}.states[{i}].name must be a string naming no other state, got {name!r}", location=location
            )
        if not isinstance(flag, bool):
            raise ConfigParseError(
                f"{location}.states[{i}].absorbing must be true or false, got {flag!r}", location=location
            )
    costs = tuple(_float_field(s.get("cost", 0.0), location, f"states[{i}].cost") for i, s in enumerate(state_cfgs))
    utilities = tuple(
        _float_field(s.get("utility", 0.0), location, f"states[{i}].utility") for i, s in enumerate(state_cfgs)
    )
    transitions = tuple(objects("transitions"))
    initial = tuple(_float_field(x, location, f"initial[{i}]") for i, x in enumerate(array("initial")))
    wtp = _float_field(cfg.get("wtp", models.WTP_PER_QALY), location, "wtp")
    if not 0.0 <= wtp < math.inf:
        raise ConfigParseError(f"{location}.wtp must be finite and at least 0, got {wtp}", location=location)
    outcome = cfg.get("outcome", "nmb")
    if outcome not in ("nmb", "cost", "qaly"):
        raise ConfigParseError(f"unknown outcome {outcome!r}", location=location)

    try:
        builder = compile_transitions(states, absorbing, transitions)
        spec = CohortCeaSpec(
            states=states,
            absorbing=absorbing,
            transition_builder=builder,
            costs=costs,
            utilities=utilities,
            cycle_length_years=_float_field(_need(cfg, "cycle_length_years", location), location, "cycle_length_years"),
            horizon_cycles=_number(
                int, _need(cfg, "horizon_cycles", location), location, f"{location}.horizon_cycles"
            ),
            discount_rate_annual=_float_field(
                _need(cfg, "discount_rate_annual", location), location, "discount_rate_annual"
            ),
            initial=initial,
        )
    except ValueError as exc:
        raise ConfigParseError(str(exc), location=location) from exc

    def model(params: Mapping[str, float]) -> float:
        cost, qaly = spec.outcomes(params)
        if outcome == "cost":
            return cost
        if outcome == "qaly":
            return qaly
        return wtp * qaly - cost

    model.prefetch = spec.prefetch
    return RegisteredModel(model, builder.param_names)


@dataclass(frozen=True)
class ActionSpec:
    id: str
    overrides: Mapping[str, float]


def _action_from(cfg, location: str) -> ActionSpec:
    cfg = _shaped(cfg, "an object", location)
    overrides = _shaped(cfg.get("overrides", {}), "an object", f"{location}.overrides")
    action_id = str(_need(cfg, "id", location))
    if _SEPARATORS & set(action_id):
        raise ConfigParseError(
            f"{location}.id must have no path separator, got {action_id!r}", location=f"{location}.id"
        )
    return ActionSpec(
        action_id,
        {str(k): _number(float, v, f"{location}.overrides.{k}") for k, v in overrides.items()},
    )


@dataclass(frozen=True)
class PsaBaseline:
    """Companion Monte Carlo run with each boxed parameter made precise."""

    parameters: ParameterSet
    samples: int
    file: str


def _psa_baseline_from(cfg, parameters: ParameterSet) -> PsaBaseline:
    cfg = _shaped(cfg, "an object", "psa_baseline")
    samples = _count(cfg, "samples", 500, 1, "psa_baseline.samples")
    families = _shaped(cfg.get("families", {}), "an object", "psa_baseline.families")
    for name in families:
        if name not in parameters.boxed:
            location = f"psa_baseline.families.{name}"
            raise ConfigParseError(f"{location} names no boxed parameter", location=location)
    precise = dict(parameters.precise)
    for name, data in parameters.boxed.items():
        try:
            precise[name] = DistributionSpec.from_moments(families.get(name, "uniform"), data)
        except PbaError as exc:
            raise ConfigParseError(str(exc), location=f"psa_baseline.families.{name}") from exc
    return PsaBaseline(
        ParameterSet(fixed=parameters.fixed, precise=precise),
        samples,
        _file_name(cfg.get("file", "baseline.csv"), "psa_baseline.file"),
    )


def _outputs_from(cfg) -> dict:
    """The ``output`` object, its ``curve`` and ``summary`` checked as file names."""
    outputs = dict(_shaped(cfg, "an object", "output"))
    for key in ("curve", "summary"):
        if key in outputs:
            _file_name(outputs[key], f"output.{key}")
    return outputs


def _rule_from(cfg: Mapping) -> tuple[str, DecisionRule]:
    """The named decision rule, built once; ``alpha`` belongs to ``hurwicz`` alone."""
    cfg = _shaped(cfg, "an object", "decision")
    name = cfg.get("rule", "dominance")
    if not isinstance(name, str) or name not in _RULES:
        raise ConfigParseError(f"unknown decision rule {name!r}", location="decision.rule")
    kwargs = {}
    if cfg.get("alpha") is not None:
        if name != "hurwicz":
            raise ConfigParseError(f"rule {name!r} takes no alpha", location="decision.alpha")
        kwargs["alpha"] = _number(float, cfg["alpha"], "decision.alpha")
    try:
        return name, _RULES[name](**kwargs)
    except ValueError as exc:
        raise ConfigParseError(str(exc), location="decision.alpha") from exc


@dataclass(frozen=True)
class AnalysisConfig:
    pipeline: str
    model_name: str
    model: RegisteredModel
    parameters: ParameterSet
    n: int
    samples: int
    seed: int
    optimizer: OptimizerSettings
    actions: tuple[ActionSpec, ...]
    rule_name: str
    rule: DecisionRule
    curve_grid: int
    psa_baseline: PsaBaseline | None
    outputs: Mapping[str, str]

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "AnalysisConfig":
        schema = _shaped(cfg, "an object", "config").get("schema")
        if schema != CONFIG_SCHEMA:
            raise ConfigParseError(
                f"unsupported schema {schema!r}, expected {CONFIG_SCHEMA!r}", location="schema"
            )
        pipeline = _need(cfg, "pipeline", "pipeline")
        if pipeline not in PIPELINES:
            raise ConfigParseError(f"unknown pipeline {pipeline!r}", location="pipeline")

        model_cfg = _need(cfg, "model", "model")
        if isinstance(model_cfg, str):
            if model_cfg not in REGISTRY:
                raise ConfigParseError(f"unknown model {model_cfg!r}", location="model")
            model_name, model = model_cfg, REGISTRY[model_cfg]
        elif isinstance(model_cfg, Mapping) and "cea" in model_cfg:
            model_name, model = "inline-cea", _inline_cea_model(model_cfg["cea"], "model.cea")
        else:
            raise ConfigParseError("model must be a registry name or {'cea': ...}", location="model")

        pcfg = _shaped(_need(cfg, "parameters", "parameters"), "an object", "parameters")

        def group(name: str) -> Mapping:
            return _shaped(pcfg.get(name, {}), "an object", f"parameters.{name}")

        fixed = {str(k): _number(float, v, f"parameters.fixed.{k}") for k, v in group("fixed").items()}
        precise = {str(k): _distribution_from(v, f"parameters.precise.{k}") for k, v in group("precise").items()}
        boxed = {str(k): _minimal_data_from(v, f"parameters.boxed.{k}") for k, v in group("boxed").items()}
        try:
            parameters = ParameterSet(fixed=fixed, precise=precise, boxed=boxed)
        except ValueError as exc:
            raise ConfigParseError(str(exc), location="parameters") from exc

        actions = tuple(
            _action_from(a, f"actions[{i}]")
            for i, a in enumerate(_shaped(cfg.get("actions", []), "an array", "actions"))
        )
        ids = [a.id for a in actions]
        for i, action_id in enumerate(ids):
            if action_id in ids[:i]:
                raise ConfigParseError(f"action id {action_id!r} is used twice", location=f"actions[{i}].id")
        rule_name, rule = _rule_from(cfg.get("decision", {}))

        opt_cfg = _shaped(cfg.get("optimizer", {}), "an object", "optimizer")
        kinds = {"budget": int, "tol": float}
        if unknown := sorted(set(opt_cfg) - set(kinds)):
            raise ConfigParseError(f"unknown optimizer settings {unknown}", location="optimizer")
        try:
            optimizer = OptimizerSettings(
                **{key: _number(kinds[key], value, "optimizer", f"optimizer.{key}") for key, value in opt_cfg.items()}
            )
        except ValueError as exc:
            raise ConfigParseError(f"bad optimizer settings: {exc}", location="optimizer") from exc
        psa_baseline = cfg.get("psa_baseline")
        if psa_baseline:
            psa_baseline = _psa_baseline_from(psa_baseline, parameters)
        config = cls(
            pipeline=pipeline,
            model_name=model_name,
            model=model,
            parameters=parameters,
            n=_count(cfg, "n", 50, 1, "n"),
            samples=_count(cfg, "samples", 50, 1, "samples"),
            seed=_count(cfg, "seed", 0, 0, "seed"),
            optimizer=optimizer,
            actions=actions,
            rule_name=rule_name,
            rule=rule,
            curve_grid=_count(cfg, "curve_grid", 201, 2, "curve_grid"),
            psa_baseline=psa_baseline,
            outputs=_outputs_from(cfg.get("output", {})),
        )
        config._validate_names()
        config._validate_pipeline()
        config._validate_files()
        return config

    def _validate_names(self):
        declared = self.model.param_names
        given = self.parameters.names
        unknown = sorted(given - declared)
        if unknown:
            raise ConfigParseError(
                f"parameters {unknown} are not inputs of model {self.model_name!r}",
                location="parameters",
            )
        override_names = {name for a in self.actions for name in a.overrides}
        if unknown_overrides := sorted(override_names - declared):
            raise ConfigParseError(
                f"action overrides {unknown_overrides} are not inputs of model {self.model_name!r}",
                location="actions",
            )
        missing = sorted(declared - given - override_names)
        if missing:
            raise ConfigParseError(
                f"model {self.model_name!r} inputs {missing} are not configured",
                location="parameters",
            )

    def _validate_pipeline(self):
        """The parameter groups and actions the pipeline needs, checked at load."""
        params = self.parameters
        if self.pipeline == "pbox-curve" and not params.boxed:
            raise ConfigParseError("pbox-curve needs boxed parameters", location="parameters.boxed")
        if self.pipeline == "propagate" and params.precise:
            raise ConfigParseError(
                "pipeline 'propagate' forbids precise parameters; use propagate-mixed",
                location="parameters.precise",
            )
        if self.pipeline == "psa" and params.boxed:
            raise ConfigParseError("pipeline 'psa' forbids boxed parameters", location="parameters.boxed")
        if self.pipeline == "decide" and len(self.actions) < 2:
            raise ConfigParseError("decide needs at least two actions", location="actions")

    def _validate_files(self):
        """The files ``run_analysis`` writes, in its order, each a plain file
        name of its own; a repeated one is reported at the later key."""
        if self.pipeline == "decide":
            files = [(f"curve-{a.id}.csv", f"actions[{i}].id") for i, a in enumerate(self.actions)]
        elif self.pipeline == "pbox-curve" and len(self.parameters.boxed) > 1:
            files = [(f"curve-{name}.csv", f"parameters.boxed.{name}") for name in sorted(self.parameters.boxed)]
        else:
            files = [(self.outputs.get("curve", "curve.csv"), "output.curve")]
        if self.psa_baseline and self.pipeline not in ("decide", "pbox-curve"):
            files.append((self.psa_baseline.file, "psa_baseline.file"))
        files.append((self.outputs.get("summary", "summary.json"), "output.summary"))
        seen: dict[str, str] = {}
        for name, location in files:
            _file_name(name, location)
            if name in seen:
                raise ConfigParseError(f"{location} writes {name!r}, as {seen[name]} does", location=location)
            seen[name] = location


def load_config(path: str | Path) -> AnalysisConfig:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}", location=str(path)) from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"invalid JSON: {exc.msg}", location=f"{path}:{exc.lineno}:{exc.colno}"
        ) from exc
    return AnalysisConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# Curve export
# ---------------------------------------------------------------------------


def export_curve(p: PBox | Intersection | EmpiricalPBox, gridsize: int, path: str | Path) -> Path:
    """Write a theta,lbf,ubf CSV over the support padded 5% each side.

    Numbers are written with shortest round-trip precision.  An envelope
    with infinite outcomes gets its grid over the finite part of its
    support, then a first row ``-inf,0.0,0.0`` and a last row
    ``inf,1.0,1.0`` for an infinite end.  A finite part that is one point y
    is padded by 5% of |y| (of 1 at y = 0), so theta still increases.
    """
    if gridsize < 2:
        raise ValueError(f"gridsize must be at least 2, got {gridsize}")
    support = p.support() if isinstance(p, EmpiricalPBox) else p.support
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        jumps = np.concatenate([p.upper_steps()[0], p.lower_steps()[0]])
        finite = jumps[np.isfinite(jumps)]
        lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
    pad = 0.05 * ((hi - lo) or abs(lo) or 1.0)
    start, stop = lo - pad, hi + pad
    path = Path(path)
    lines = ["theta,lbf,ubf"]
    if support.lo == -math.inf:
        lines.append("-inf,0.0,0.0")
    for k in range(gridsize):
        theta = start + (stop - start) * k / (gridsize - 1)
        lines.append(f"{theta!r},{p.lower(theta)!r},{p.upper(theta)!r}")
    if support.hi == math.inf:
        lines.append("inf,1.0,1.0")
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _pinned(params: ParameterSet, overrides: Mapping[str, float]) -> ParameterSet:
    """``params`` with each override fixed, displacing any boxed or precise
    uncertainty it carried."""
    return ParameterSet(
        fixed={**params.fixed, **overrides},
        precise={k: v for k, v in params.precise.items() if k not in overrides},
        boxed={k: v for k, v in params.boxed.items() if k not in overrides},
    )


def run_analysis(config: AnalysisConfig, out_dir: str | Path = ".") -> dict:
    """Execute the configured pipeline; write outputs; return the summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs: dict[str, str] = {}
    summary: dict = {
        "schema": SUMMARY_SCHEMA,
        "pipeline": config.pipeline,
        "model": config.model_name,
        "seed": config.seed,
        "n": config.n,
        "samples": config.samples,
    }
    curve_name = config.outputs.get("curve", "curve.csv")

    if config.pipeline == "pbox-curve":
        multiple = len(config.parameters.boxed) > 1
        for name, data in sorted(config.parameters.boxed.items()):
            box = build_pbox(data)
            target = out_dir / (f"curve-{name}.csv" if multiple else curve_name)
            export_curve(box, config.curve_grid, target)
            outputs[f"curve:{name}"] = str(target)
    else:
        params = config.parameters
        if config.pipeline == "decide":
            runs = [(a.id, f"curve-{a.id}.csv", _pinned(params, a.overrides)) for a in config.actions]
        else:
            runs = [("", curve_name, params)]
        intervals: list[UtilityInterval] = []
        action_rows = []
        evals = 0
        unconverged = 0
        unbounded = 0
        for action_id, file_name, run_params in runs:
            result = propagate_mixed(
                config.model.fn, run_params, n=config.n, N=config.samples, seed=config.seed, opt=config.optimizer
            )
            target = out_dir / file_name
            export_curve(result, config.curve_grid, target)
            outputs[f"curve:{action_id}" if action_id else "curve"] = str(target)
            ui = expected_interval(result, action=action_id)
            intervals.append(ui)
            evals += result.model_evaluations
            unconverged += result.unconverged_boxes
            unbounded += result.unbounded_boxes
            action_rows.append({
                "id": action_id,
                "expected_interval": [ui.lo, ui.hi],
                "unconverged_boxes": result.unconverged_boxes,
                "unbounded_boxes": result.unbounded_boxes,
            })
        if config.pipeline == "decide":
            chosen = choose(intervals, config.rule)
            summary["actions"] = action_rows
            summary["rule"] = config.rule_name
            if config.rule_name == "hurwicz":
                summary["alpha"] = config.rule.alpha
            summary["chosen"] = "indeterminate" if chosen is INDETERMINATE else sorted(chosen)
        else:
            summary["expected_interval"] = [ui.lo, ui.hi]
            summary["outcome_support"] = list(result.support())
            if config.psa_baseline:
                baseline = config.psa_baseline
                ecdf = psa_propagate(config.model.fn, baseline.parameters, N=baseline.samples, seed=config.seed)
                target = out_dir / baseline.file
                export_curve(ecdf, config.curve_grid, target)
                outputs["baseline"] = str(target)
                evals += ecdf.model_evaluations
        summary["model_evaluations"] = evals
        summary["unconverged_boxes"] = unconverged
        summary["unbounded_boxes"] = unbounded

    summary["runtime_seconds"] = time.perf_counter() - started
    summary["outputs"] = outputs
    summary_path = out_dir / config.outputs.get("summary", "summary.json")
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    summary["summary_path"] = str(summary_path)
    return summary


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pba", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an analysis config")
    run.add_argument("config", help="path to a JSON analysis config")
    run.add_argument("--seed", type=int, default=None, help="override the random seed")
    run.add_argument("--out", default=".", help="output directory")

    pbox = sub.add_parser("pbox", help="render one p-box curve from statistics")
    pbox.add_argument("--min", type=float, required=True, dest="minimum")
    pbox.add_argument("--max", type=float, required=True, dest="maximum")
    pbox.add_argument("--median", type=float, default=None)
    pbox.add_argument("--mean", type=float, default=None)
    pbox.add_argument("--std", type=float, default=None)
    pbox.add_argument("--grid", type=int, default=201)
    pbox.add_argument("--out", required=True, help="output CSV path")
    return parser


def _resolve_seed(flag_seed: int | None, config_seed: int) -> int:
    """The run's seed: ``--seed``, else ``PBA_SEED``, else the config's; never negative."""
    env = os.environ.get("PBA_SEED")
    if flag_seed is not None:
        seed, location = flag_seed, "--seed"
    elif env is not None:
        seed, location = _number(int, env, "PBA_SEED"), "PBA_SEED"
    else:
        return config_seed
    if seed < 0:
        raise ConfigParseError(f"seed must be at least 0, got {seed}", location=location)
    return seed


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            config = replace(config, seed=_resolve_seed(args.seed, config.seed))
            run_analysis(config, args.out)
            return 0
        if args.command == "pbox":
            data = MinimalData(
                minimum=args.minimum,
                maximum=args.maximum,
                median=args.median,
                mean=args.mean,
                std=args.std,
            )
            export_curve(build_pbox(validate_minimal_data(data)), args.grid, args.out)
            return 0
        raise ConfigParseError(f"unknown command {args.command!r}")
    except (PbaError, OSError, ValueError) as exc:
        record = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "location": getattr(exc, "location", None),
            }
        }
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
