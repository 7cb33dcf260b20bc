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
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ._lazy import np
from . import models
from .decision import INDETERMINATE, DecisionRule, Dominance, Hurwicz, Optimist, Pessimist, UtilityInterval, choose, expected_interval
from .distributions import BETA, GAMMA, MOMENT_FAMILIES, TABULATED, UNIFORM, DistributionSpec
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
# Config schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """What a value of a ``pba-analysis/1`` document must be, for ``_walk``.

    ``name`` is ``number``, ``whole`` (at least ``minimum``, if set),
    ``choice`` (one of ``choices``), ``bool``, ``file`` (a file name in the
    output directory), ``array`` or ``map`` (names to values) of ``item``,
    ``object``, ``either`` (``item[0]`` for a string, else ``item[1]``) or
    ``removed``.  An object's ``keys`` map to (kind, default): ``_REQUIRED``
    must be given, ``None`` may be absent, and any other default is read as
    if given.  A JSON null is absent; a kind of ``None`` takes any value.
    ``build`` makes the checked value into what the config holds, and a
    ``PbaError`` or ``ValueError`` it raises is reported at the value.  A
    ``pinned`` value reports every error inside it at its own location.
    """

    name: str
    keys: Mapping[str, tuple] | None = None
    item: "Kind | tuple | None" = None
    choices: tuple = ()
    minimum: int | None = None
    build: Callable | None = None
    pinned: bool = False


_REQUIRED = object()
_SEPARATORS = frozenset(filter(None, ("/", os.sep, os.altsep)))


def _fail(path: str, pin: str | None, message: str):
    raise ConfigParseError(f"{path or 'config'} {message}", location=pin or path or "config")


def _walk(kind: Kind | None, value, path: str = "", pin: str | None = None):
    """``value``, found at ``path``, checked against ``kind``, its defaults
    filled in, and built; a ``ConfigParseError`` at the first bad or unknown
    key, located at ``pin`` when that is set."""
    if kind is None:
        return value
    what = kind.name
    pin = pin or (path if kind.pinned else None)
    if what == "either":
        return _walk(kind.item[isinstance(value, Mapping)], value, path, pin)
    if what == "removed":
        _fail(path, pin, "was removed; delete it")
    if what in ("number", "whole"):
        whole = what == "whole"
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or whole and isinstance(value, float) and not value.is_integer()
        ):
            _fail(path, pin, f"must be {'a whole number' if whole else 'a number'}, got {value!r}")
        value = int(value) if whole else float(value)
        if kind.minimum is not None and value < kind.minimum:
            _fail(path, pin, f"must be at least {kind.minimum}, got {value}")
    elif what == "choice" and (not isinstance(value, str) or value not in kind.choices):
        _fail(path, pin, f"must be one of {list(kind.choices)}, got {value!r}")
    elif what == "bool" and not isinstance(value, bool):
        _fail(path, pin, f"must be true or false, got {value!r}")
    elif what == "file" and (not isinstance(value, str) or value in ("", ".", "..") or _SEPARATORS & set(value)):
        _fail(path, pin, f"must be a file name without a path separator, got {value!r}")
    elif what == "array":
        if not isinstance(value, (list, tuple)):
            _fail(path, pin, f"must be an array, got {value!r}")
        value = [_walk(kind.item, v, f"{path}[{i}]", pin) for i, v in enumerate(value)]
    elif what in ("map", "object"):
        if not isinstance(value, Mapping):
            _fail(path, pin, f"must be an object, got {value!r}")
        if what == "map":
            value = {k: _walk(kind.item, v, f"{path}.{k}", pin) for k, v in value.items()}
        else:
            value = _walk_keys(kind, value, path, pin)
    if kind.build is None:
        return value
    try:
        return kind.build(value)
    except ConfigParseError:
        raise
    except (PbaError, ValueError) as exc:
        raise ConfigParseError(str(exc), location=pin or path) from exc


def _walk_keys(kind: Kind, value: Mapping, path: str, pin: str | None) -> dict:
    """The object ``value`` with each of ``kind.keys`` walked in order, or
    given its default; then its first unknown key, if any, is refused."""
    out = {}
    for key, (sub, default) in kind.keys.items():
        child = f"{path}.{key}" if path else key
        given = default if value.get(key) is None else value[key]
        if given is _REQUIRED:
            _fail(child, pin, "is required")
        out[key] = None if given is None else _walk(sub, given, child, pin)
    for key in value:
        if key not in kind.keys:
            known = ", ".join(k for k, (sub, _) in kind.keys.items() if sub is not _REMOVED)
            _fail(f"{path}.{key}" if path else key, pin, f"is not a key of {path or 'the config'}, which takes {known}")
    return out


def _inline_cea_model(cfg: Mapping) -> RegisteredModel:
    """The model of a checked ``model.cea`` object."""
    state_cfgs = cfg["states"]
    states = tuple(s["name"] for s in state_cfgs)
    for i, name in enumerate(states):
        if not isinstance(name, str) or name in states[:i]:
            raise ValueError(f"model.cea.states[{i}].name must be a string naming no other state, got {name!r}")
    outcome, wtp = cfg["outcome"], cfg["wtp"]
    if not 0.0 <= wtp < math.inf:
        raise ValueError(f"model.cea.wtp must be finite and at least 0, got {wtp}")
    absorbing = tuple(s["absorbing"] for s in state_cfgs)
    builder = compile_transitions(states, absorbing, cfg["transitions"])
    spec = CohortCeaSpec(
        states=states,
        absorbing=absorbing,
        transition_builder=builder,
        costs=tuple(s["cost"] for s in state_cfgs),
        utilities=tuple(s["utility"] for s in state_cfgs),
        cycle_length_years=cfg["cycle_length_years"],
        horizon_cycles=cfg["horizon_cycles"],
        discount_rate_annual=cfg["discount_rate_annual"],
        initial=tuple(cfg["initial"]),
    )

    def model(params: Mapping[str, float]) -> float:
        cost, qaly = spec.outcomes(params)
        if outcome == "cost":
            return cost
        if outcome == "qaly":
            return qaly
        return wtp * qaly - cost

    model.prefetch = spec.prefetch
    return RegisteredModel(model, builder.param_names)


# The key sets of each precise family, each in its constructor's argument
# order; a precise parameter gives exactly one set of its family's.
_FAMILY_KEYS = {
    GAMMA: (("mean", "std"), ("shape", "rate")),
    BETA: (("mean", "std"), ("alpha", "beta")),
    UNIFORM: (("min", "max"),),
    TABULATED: (("values", "cum_probs"),),
}


def _distribution(cfg: Mapping) -> DistributionSpec:
    """The distribution of a checked precise parameter: mean and std are
    moment-matched, another key set goes to the family's constructor."""
    family = cfg["family"]
    given = {k: v for k, v in cfg.items() if k != "family" and v is not None}
    if not any(set(given) == set(keys) for keys in _FAMILY_KEYS[family]):
        options = " or ".join("+".join(keys) for keys in _FAMILY_KEYS[family])
        raise ValueError(f"{family} takes {options}, got {'+'.join(given) or 'no parameters'}")
    if "mean" in given:
        return DistributionSpec.from_moments(family, MinimalData(-math.inf, math.inf, **given))
    return getattr(DistributionSpec, family)(*given.values())


@dataclass(frozen=True)
class ActionSpec:
    id: str
    overrides: Mapping[str, float]


@dataclass(frozen=True)
class PsaBaseline:
    """Companion Monte Carlo run with each boxed parameter made precise."""

    parameters: ParameterSet
    samples: int
    file: str


def _psa_baseline_from(cfg: Mapping, parameters: ParameterSet) -> PsaBaseline:
    """The checked ``psa_baseline`` object, with each boxed parameter
    moment-matched to its family; each family must name a boxed parameter."""
    families = cfg["families"]
    for name in families:
        if name not in parameters.boxed:
            location = f"psa_baseline.families.{name}"
            raise ConfigParseError(f"{location} names no boxed parameter", location=location)
    precise = dict(parameters.precise)
    for name, data in parameters.boxed.items():
        try:
            precise[name] = DistributionSpec.from_moments(families.get(name, UNIFORM), data)
        except PbaError as exc:
            raise ConfigParseError(str(exc), location=f"psa_baseline.families.{name}") from exc
    return PsaBaseline(
        ParameterSet(fixed=parameters.fixed, precise=precise),
        cfg["samples"],
        cfg["file"],
    )


def _rule_from(cfg: Mapping) -> tuple[str, DecisionRule]:
    """The checked ``decision`` object's rule, built once; ``alpha`` belongs
    to ``hurwicz`` alone."""
    name, alpha = cfg["rule"], cfg["alpha"]
    if alpha is None:
        return name, _RULES[name]()
    if name != "hurwicz":
        raise ConfigParseError(f"rule {name!r} takes no alpha", location="decision.alpha")
    try:
        return name, Hurwicz(alpha)
    except ValueError as exc:
        raise ConfigParseError(str(exc), location="decision.alpha") from exc


_NUMBER = Kind("number")
_NUMBERS = Kind("array", item=_NUMBER)
_FILE = Kind("file")
_REMOVED = Kind("removed")
_SEED = Kind("whole", minimum=0)
_STAT_KEYS = {"minimum": "min", "maximum": "max"}  # MinimalData fields named otherwise in a config

_CEA = Kind("object", pinned=True, build=_inline_cea_model, keys={
    "states": (Kind("array", item=Kind("object", keys={
        "name": (None, _REQUIRED),  # a string naming no other state, checked by _inline_cea_model
        "absorbing": (Kind("bool"), False),
        "cost": (_NUMBER, 0.0),
        "utility": (_NUMBER, 0.0),
    })), _REQUIRED),
    "transitions": (Kind("array", item=Kind("map")), _REQUIRED),  # an entry's keys: compile_transitions
    "initial": (_NUMBERS, _REQUIRED),
    "cycle_length_years": (_NUMBER, _REQUIRED),
    "horizon_cycles": (Kind("whole"), _REQUIRED),
    "discount_rate_annual": (_NUMBER, _REQUIRED),
    "wtp": (_NUMBER, models.WTP_PER_QALY),
    "outcome": (Kind("choice", choices=("nmb", "cost", "qaly")), "nmb"),
})

_PRECISE = Kind("object", pinned=True, build=_distribution, keys={
    "family": (Kind("choice", choices=tuple(_FAMILY_KEYS)), _REQUIRED),
    **{key: (_NUMBER, None) for sets in _FAMILY_KEYS.values() for keys in sets for key in keys},
    **{key: (_NUMBERS, None) for key in _FAMILY_KEYS[TABULATED][0]},
})

_BOXED = Kind("object", pinned=True, build=lambda stats: validate_minimal_data(MinimalData(*stats.values())), keys={
    _STAT_KEYS.get(f.name, f.name): (_NUMBER, _REQUIRED if f.default is MISSING else None) for f in fields(MinimalData)
})

# The pba-analysis/1 document.  README.md lists every key, and a test keeps
# that table in step with this one.
DOCUMENT = Kind("object", keys={
    "schema": (Kind("choice", choices=(CONFIG_SCHEMA,)), _REQUIRED),
    "pipeline": (Kind("choice", choices=PIPELINES), _REQUIRED),
    "model": (Kind("either", item=(
        Kind("choice", choices=tuple(REGISTRY), build=REGISTRY.__getitem__),
        Kind("object", build=lambda model: model["cea"], keys={"cea": (_CEA, _REQUIRED)}),
    )), _REQUIRED),
    "parameters": (Kind("object", build=lambda groups: ParameterSet(**groups), keys={
        "fixed": (Kind("map", item=_NUMBER), {}),
        "precise": (Kind("map", item=_PRECISE), {}),
        "boxed": (Kind("map", item=_BOXED), {}),
    }), _REQUIRED),
    "n": (Kind("whole", minimum=1), 50),
    "samples": (Kind("whole", minimum=1), 50),
    "seed": (_SEED, 0),
    "curve_grid": (Kind("whole", minimum=2), 201),
    "optimizer": (Kind("object", pinned=True, build=lambda settings: OptimizerSettings(**settings), keys={
        "budget": (Kind("whole"), OptimizerSettings.budget),
        "tol": (_NUMBER, OptimizerSettings.tol),
    }), {}),
    "actions": (Kind("array", item=Kind("object", build=lambda action: ActionSpec(**action), keys={
        "id": (_FILE, _REQUIRED),
        "overrides": (Kind("map", item=_NUMBER), {}),
    })), []),
    "decision": (Kind("object", build=_rule_from, keys={
        "rule": (Kind("choice", choices=tuple(_RULES)), "dominance"),
        "alpha": (_NUMBER, None),
    }), {}),
    "psa_baseline": (Kind("object", keys={
        "samples": (Kind("whole", minimum=1), 500),
        "families": (Kind("map", item=Kind("choice", choices=MOMENT_FAMILIES)), {}),
        "file": (_FILE, "baseline.csv"),
    }), None),
    "output": (Kind("object", keys={"curve": (_FILE, "curve.csv"), "summary": (_FILE, "summary.json")}), {}),
    "threads": (_REMOVED, None),
})


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
        doc = _walk(DOCUMENT, cfg)
        pipeline = doc["pipeline"]
        for key in ("actions", "decision"):
            if pipeline != "decide" and cfg.get(key) is not None:
                raise ConfigParseError(f"{key} belongs to the 'decide' pipeline, not {pipeline!r}", location=key)
        rule_name, rule = doc["decision"]
        psa_baseline = doc["psa_baseline"]
        config = cls(
            pipeline=pipeline,
            model_name=cfg["model"] if isinstance(cfg["model"], str) else "inline-cea",
            model=doc["model"],
            parameters=doc["parameters"],
            n=doc["n"],
            samples=doc["samples"],
            seed=doc["seed"],
            optimizer=doc["optimizer"],
            actions=tuple(doc["actions"]),
            rule_name=rule_name,
            rule=rule,
            curve_grid=doc["curve_grid"],
            psa_baseline=None if psa_baseline is None else _psa_baseline_from(psa_baseline, doc["parameters"]),
            outputs=doc["output"],
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
            files = [(self.outputs["curve"], "output.curve")]
        if self.psa_baseline and self.pipeline not in ("decide", "pbox-curve"):
            files.append((self.psa_baseline.file, "psa_baseline.file"))
        files.append((self.outputs["summary"], "output.summary"))
        seen: dict[str, str] = {}
        for name, location in files:
            _walk(_FILE, name, location)
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
    curve_name = config.outputs["curve"]

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
    summary_path = out_dir / config.outputs["summary"]
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
        return _walk(_SEED, flag_seed, "--seed")
    if env is None:
        return config_seed
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigParseError(f"PBA_SEED must be a whole number, got {env!r}", location="PBA_SEED") from exc
    return _walk(_SEED, seed, "PBA_SEED")


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
