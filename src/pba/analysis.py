"""The ``pba-analysis/1`` document: its schema and the checked config.

``DOCUMENT`` declares every key of an analysis config as a ``pba.schema``
kind, and ``AnalysisConfig.from_dict`` walks a parsed document against it,
building the model, the parameter groups, the optimizer settings, the
actions and the decision rule, then checks what the keys say together.
Importing this module loads the analysis stack: models, distributions,
optimizer, slicing, propagation and decision rules.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Mapping

from . import models
from .decision import DecisionRule, Dominance, Hurwicz, Optimist, Pessimist
from .distributions import BETA, GAMMA, MOMENT_FAMILIES, TABULATED, UNIFORM, DistributionSpec
from .errors import ConfigParseError, PbaError
from .minimal_data import MinimalData, validate_minimal_data
from .models import REGISTRY, CohortCeaSpec, RegisteredModel, cea_model, compile_transitions
from .optimize import OptimizerSettings
from .propagate import DEFAULT_HYPERRECT_CAP, ParameterSet
from .schema import GRID, REMOVED, REQUIRED, SEED, Kind, walk

CONFIG_SCHEMA = "pba-analysis/1"

PIPELINES = ("pbox-curve", "propagate", "propagate-mixed", "psa", "decide")

_RULES = {"dominance": Dominance, "pessimist": Pessimist, "optimist": Optimist, "hurwicz": Hurwicz}


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
    return RegisteredModel(cea_model(spec, outcome, wtp), builder.param_names)


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
_STAT_KEYS = {"minimum": "min", "maximum": "max"}  # MinimalData fields named otherwise in a config

_CEA = Kind("object", pinned=True, build=_inline_cea_model, keys={
    "states": (Kind("array", item=Kind("object", keys={
        "name": (None, REQUIRED),  # a string naming no other state, checked by _inline_cea_model
        "absorbing": (Kind("bool"), False),
        "cost": (_NUMBER, 0.0),
        "utility": (_NUMBER, 0.0),
    })), REQUIRED),
    "transitions": (Kind("array", item=Kind("map")), REQUIRED),  # an entry's keys: compile_transitions
    "initial": (_NUMBERS, REQUIRED),
    "cycle_length_years": (_NUMBER, REQUIRED),
    "horizon_cycles": (Kind("whole"), REQUIRED),
    "discount_rate_annual": (_NUMBER, REQUIRED),
    "wtp": (_NUMBER, models.WTP_PER_QALY),
    "outcome": (Kind("choice", choices=("nmb", "cost", "qaly")), "nmb"),
})

_PRECISE = Kind("object", pinned=True, build=_distribution, keys={
    "family": (Kind("choice", choices=tuple(_FAMILY_KEYS)), REQUIRED),
    **{key: (_NUMBER, None) for sets in _FAMILY_KEYS.values() for keys in sets for key in keys},
    **{key: (_NUMBERS, None) for key in _FAMILY_KEYS[TABULATED][0]},
})

_BOXED = Kind("object", pinned=True, build=lambda stats: validate_minimal_data(MinimalData(*stats.values())), keys={
    _STAT_KEYS.get(f.name, f.name): (_NUMBER, REQUIRED if f.default is MISSING else None) for f in fields(MinimalData)
})

# The pba-analysis/1 document.  README.md lists every key, and a test keeps
# that table in step with this one.
DOCUMENT = Kind("object", keys={
    "schema": (Kind("choice", choices=(CONFIG_SCHEMA,)), REQUIRED),
    "pipeline": (Kind("choice", choices=PIPELINES), REQUIRED),
    "model": (Kind("either", item=(
        Kind("choice", choices=tuple(REGISTRY), build=REGISTRY.__getitem__),
        Kind("object", build=lambda model: model["cea"], keys={"cea": (_CEA, REQUIRED)}),
    )), REQUIRED),
    "parameters": (Kind("object", build=lambda groups: ParameterSet(**groups), keys={
        "fixed": (Kind("map", item=_NUMBER), {}),
        "precise": (Kind("map", item=_PRECISE), {}),
        "boxed": (Kind("map", item=_BOXED), {}),
    }), REQUIRED),
    "n": (Kind("whole", minimum=1), 50),
    "samples": (Kind("whole", minimum=1), 50),
    "seed": (SEED, 0),
    "curve_grid": (GRID, 201),
    "optimizer": (Kind("object", pinned=True, build=lambda settings: OptimizerSettings(**settings), keys={
        "budget": (Kind("whole"), OptimizerSettings.budget),
        "tol": (_NUMBER, OptimizerSettings.tol),
    }), {}),
    "actions": (Kind("array", item=Kind("object", build=lambda action: ActionSpec(**action), keys={
        "id": (_FILE, REQUIRED),
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
    "threads": (REMOVED, None),
})


# The keys only some pipelines read, with those pipelines; any other refuses them.
_PIPELINE_KEYS = {
    "actions": ("decide",),
    "decision": ("decide",),
    "psa_baseline": ("propagate", "propagate-mixed", "psa"),
}


def _pinned(params: ParameterSet, overrides: Mapping[str, float]) -> ParameterSet:
    """``params`` with each override fixed, displacing any boxed or precise
    uncertainty it carried."""
    return ParameterSet(
        fixed={**params.fixed, **overrides},
        precise={k: v for k, v in params.precise.items() if k not in overrides},
        boxed={k: v for k, v in params.boxed.items() if k not in overrides},
    )


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
        doc = walk(DOCUMENT, cfg)
        pipeline = doc["pipeline"]
        for key, readers in _PIPELINE_KEYS.items():
            if pipeline not in readers and cfg.get(key) is not None:
                message = f"{key} is read only in {', '.join(map(repr, readers))} runs, not {pipeline!r}"
                raise ConfigParseError(message, location=key)
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
        config._validate_searches()
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

    def runs(self) -> list[tuple[str, str, ParameterSet]]:
        """The propagations a ``propagate``, ``propagate-mixed``, ``psa`` or
        ``decide`` config runs, each as (action id, curve file name,
        parameters): one with no action id, or one per action with its
        overrides fixed, displacing any uncertainty they carried."""
        params = self.parameters
        if self.pipeline != "decide":
            return [("", self.outputs["curve"], params)]
        return [(a.id, f"curve-{a.id}.csv", _pinned(params, a.overrides)) for a in self.actions]

    def _validate_searches(self):
        """Each run's box searches, ``n`` per boxed parameter and one set per
        draw of the precise group, within ``DEFAULT_HYPERRECT_CAP``."""
        if self.pipeline == "pbox-curve":
            return
        for action_id, _, params in self.runs():
            searches = self.n ** len(params.boxed) * (self.samples if params.precise else 1)
            if params.boxed and searches > DEFAULT_HYPERRECT_CAP:
                where = f" for action {action_id!r}" if action_id else ""
                draws = f"times samples={self.samples}" if params.precise else f"and samples={self.samples} adds none"
                raise ConfigParseError(
                    f"{searches} box searches{where} exceed the cap of {DEFAULT_HYPERRECT_CAP}: "
                    f"n={self.n} for each of {len(params.boxed)} boxed parameters, {draws}",
                    location="n",
                )

    def _validate_files(self):
        """The files ``run_analysis`` writes, in its order, each a plain file
        name of its own; a repeated one is reported at the later key."""
        if self.pipeline == "pbox-curve" and len(self.parameters.boxed) > 1:
            files = [(f"curve-{name}.csv", f"parameters.boxed.{name}") for name in sorted(self.parameters.boxed)]
        else:
            files = [
                (file, f"actions[{i}].id" if action_id else "output.curve")
                for i, (action_id, file, _) in enumerate(self.runs())
            ]
        if self.psa_baseline:
            files.append((self.psa_baseline.file, "psa_baseline.file"))
        files.append((self.outputs["summary"], "output.summary"))
        seen: dict[str, str] = {}
        for name, location in files:
            walk(_FILE, name, location)
            if name in seen:
                raise ConfigParseError(f"{location} writes {name!r}, as {seen[name]} does", location=location)
            seen[name] = location
