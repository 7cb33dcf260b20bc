"""Configuration-driven command line entry point.

``pba run <config>`` executes one analysis described by a JSON document and
writes plot-ready CSV curves plus a schema-versioned JSON summary.
``pba pbox`` renders a single p-box curve straight from statistics given on
the command line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigParseError, PbaError
from .minimal_data import MinimalData, validate_minimal_data
from .pbox import Intersection, PBox, build_pbox
from .schema import GRID, SEED, walk

if TYPE_CHECKING:
    from .propagate import EmpiricalPBox

SUMMARY_SCHEMA = "pba-summary/1"

# The analysis stack's names used here, by module.  ``pba pbox`` and
# ``--help`` need none of them; they are bound into this module on the first
# ``load_config`` or ``run_analysis`` call, or on the first outside lookup of
# one of them (``pba.cli.propagate_mixed``).  A value already set here, such
# as a stand-in a caller put in place, is kept.
_ANALYSIS = {
    "AnalysisConfig": "analysis",
    "DOCUMENT": "analysis",
    "INDETERMINATE": "decision",
    "choose": "decision",
    "expected_interval": "decision",
    "propagate_mixed": "propagate",
    "psa_propagate": "propagate",
}


def _load_analysis():
    names = globals()
    for name, module in _ANALYSIS.items():
        if name not in names:
            names[name] = getattr(importlib.import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    if name not in _ANALYSIS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_analysis()
    return globals()[name]


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


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
    _load_analysis()
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
    support = p.support
    if callable(support):  # an envelope's support is a method, a p-box's a field
        support = support()
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        finite = [y for y in (*p.upper_steps()[0], *p.lower_steps()[0]) if math.isfinite(y)]
        lo, hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
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


def run_analysis(config: AnalysisConfig, out_dir: str | Path = ".") -> dict:
    """Execute the configured pipeline; write outputs; return the summary."""
    _load_analysis()
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
        intervals = []
        action_rows = []
        evals = 0
        unconverged = 0
        unbounded = 0
        for action_id, file_name, run_params in config.runs():
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
        return walk(SEED, flag_seed, "--seed")
    if env is None:
        return config_seed
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigParseError(f"PBA_SEED must be a whole number, got {env!r}", location="PBA_SEED") from exc
    return walk(SEED, seed, "PBA_SEED")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            config = replace(config, seed=_resolve_seed(args.seed, config.seed))
            run_analysis(config, args.out)
            return 0
        if args.command == "pbox":
            grid = walk(GRID, args.grid, "--grid")
            data = MinimalData(
                minimum=args.minimum,
                maximum=args.maximum,
                median=args.median,
                mean=args.mean,
                std=args.std,
            )
            export_curve(build_pbox(validate_minimal_data(data)), grid, args.out)
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
