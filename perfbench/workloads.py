"""The benchmark's workloads: the analyses of one pass and their checks.

An operation is one `pba` command line, run in a fresh process, together
with the checks of what it wrote.  Inputs come from the workload seed; the
program sees only the configs and arguments made from it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    cea_inmb,
    check_curve,
    check_four_state_interval,
    check_inside_envelope,
    check_oracle,
    precise_draws,
    psa_moments,
)

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "src" / "pba" / "configs"

CASE1_N = 10  # bundled case1-pba.json has n=50 (2500 boxes); 100 boxes size one pass
CEA_SAMPLES = 5  # as bundled in demo-cea-inmb.json


@dataclass
class Op:
    """One analysis: ``argv`` may name ``{out}``, the operation's output directory."""

    name: str
    argv: list
    check: Callable[[Path], list]
    known_fault: str | None = None  # label of a check that fails until the program is mended


def _seed_for(seed: int, name: str) -> int:
    return random.Random(f"{seed}:{name}").randrange(2**31)


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _summary(out: Path) -> dict:
    return _load(out / "summary.json")


def _four_state_run_checks(cfg: dict, out: Path, label: str) -> list:
    s = _summary(out)
    params = cfg["parameters"]
    return check_curve(out / "curve.csv") + check_four_state_interval(
        label, s["expected_interval"], params["fixed"], params["boxed"], cfg["n"]
    )


def case1_pba(seed: int, work: Path) -> list[Op]:
    cfg = _load(CONFIGS / "case1-pba.json")
    cfg["n"] = CASE1_N
    cfg["seed"] = _seed_for(seed, "case1-pba")
    path = _write(work, "case1-pba.json", cfg)
    baseline = cfg["psa_baseline"]["file"]

    def check(out: Path) -> list:
        return (
            _four_state_run_checks(cfg, out, "expected")
            + check_curve(out / baseline)
            + check_inside_envelope(out / "curve.csv", out / baseline, 2.0 / cfg["n"])
        )

    return [Op("case1-pba", ["run", path, "--out", "{out}"], check)]


def cea_mixed(seed: int, work: Path) -> list[Op]:
    cfg = _load(CONFIGS / "demo-cea-inmb.json")
    cfg["samples"] = CEA_SAMPLES
    cfg["seed"] = _seed_for(seed, "cea-mixed")
    path = _write(work, "demo-cea-inmb.json", cfg)
    params = cfg["parameters"]
    boxed = params["boxed"]
    draws = precise_draws(params["precise"], cfg["samples"], cfg["seed"])
    pinned = {name: b["mean"] for name, b in boxed.items()}
    reference = sum(cea_inmb({**params["fixed"], **d, **pinned}) for d in draws) / len(draws)

    def check(out: Path) -> list:
        failures = check_curve(out / "curve.csv")
        for name, b in boxed.items():
            if not b["min"] <= b["mean"] <= b["max"]:
                failures.append(("pinned", f"{name} mean {b['mean']} outside [{b['min']}, {b['max']}]"))
        lo, hi = _summary(out)["expected_interval"]
        slack = cfg["optimizer"]["tol"] * (hi - lo)
        if not lo - slack <= reference <= hi + slack:
            failures.append(("pinned", f"INMB at the boxed means {reference!r} outside [{lo!r}, {hi!r}]"))
        return failures

    return [Op("cea-mixed", ["run", path, "--out", "{out}"], check)]


def _pbox_statistics(seed: int) -> dict[str, dict]:
    """One consistent set of statistics per kind, on [0, b]."""
    rng = random.Random(_seed_for(seed, "pbox"))
    b = round(rng.uniform(5.0, 20.0), 3)
    median = round(b * rng.uniform(0.25, 0.75), 3)
    mean = round(b * rng.uniform(0.25, 0.75), 3)
    std = round(rng.uniform(0.2, 0.6) * math.sqrt(mean * (b - mean)), 3)
    lo_mean, hi_mean = median / 2.0, (median + b) / 2.0  # means a median allows
    median_mean = round(lo_mean + rng.uniform(0.2, 0.8) * (hi_mean - lo_mean), 3)
    return {
        "minmax": {"min": 0.0, "max": b},
        "median": {"min": 0.0, "max": b, "median": median},
        "mean": {"min": 0.0, "max": b, "mean": mean},
        "mean-std": {"min": 0.0, "max": b, "mean": mean, "std": std},
        "median-mean": {"min": 0.0, "max": b, "median": median, "mean": median_mean},
    }


def cli_batch(seed: int, work: Path) -> list[Op]:
    ops = []
    for kind, st in _pbox_statistics(seed).items():
        argv = ["pbox"] + [a for key, v in st.items() for a in (f"--{key}", repr(v))]
        argv += ["--grid", "201", "--out", "{out}/box.csv"]
        ops.append(Op(f"pbox-{kind}", argv, lambda out, st=st: check_curve(out / "box.csv") + check_oracle(out / "box.csv", st)))

    psa = _load(CONFIGS / "case1-psa-gamma.json")
    psa["seed"] = _seed_for(seed, "case1-psa-gamma")
    psa_path = _write(work, "case1-psa-gamma.json", psa)
    gammas = {k: (v["mean"], v["std"]) for k, v in psa["parameters"]["precise"].items()}
    mean, var = psa_moments(psa["parameters"]["fixed"], gammas)
    se = math.sqrt(var / psa["samples"])

    def check_psa(out: Path) -> list:
        lo, hi = _summary(out)["expected_interval"]
        failures = check_curve(out / "curve.csv")
        if lo != hi or abs(lo - mean) > 4.0 * se:
            failures.append(("psa-mean", f"PSA mean [{lo!r}, {hi!r}] vs quadrature {mean!r} +- 4 x {se:.3g}"))
        return failures

    ops.append(Op("case1-psa-gamma", ["run", psa_path, "--out", "{out}"], check_psa))

    # Bundled as is: this operation's inputs do not depend on the seed.
    minmax_path = CONFIGS / "case1-minmax-vs-uniform.json"
    minmax = _load(minmax_path)

    def check_minmax(out: Path) -> list:
        s = _summary(out)
        failures = _four_state_run_checks(minmax, out, "expected")
        failures += check_curve(out / minmax["psa_baseline"]["file"])
        hi = s["expected_interval"][1]
        flagged = any("unbounded" in key and value for key, value in s.items())
        if not (hi == math.inf or flagged):
            failures.append(("upper-unbounded", f"exact upper expected value is +inf (c6 -> 0); reported {hi!r}, not flagged"))
        return failures

    ops.append(Op("case1-minmax", ["run", str(minmax_path), "--out", "{out}"], check_minmax, known_fault="upper-unbounded"))

    decide = _load(HERE / "configs" / "case1-decide.json")
    decide["decision"]["alpha"] = round(random.Random(_seed_for(seed, "decide")).uniform(0.2, 0.8), 3)
    decide_path = _write(work, "case1-decide.json", decide)

    def check_decide(out: Path) -> list:
        s = _summary(out)
        params = decide["parameters"]
        failures = []
        rows = {row["id"]: row["expected_interval"] for row in s["actions"]}
        for action in decide["actions"]:
            fixed = {**params["fixed"], **action["overrides"]}
            boxed = {k: v for k, v in params["boxed"].items() if k not in action["overrides"]}
            failures += check_curve(out / f"curve-{action['id']}.csv")
            failures += check_four_state_interval(action["id"], rows[action["id"]], fixed, boxed, decide["n"])
        alpha = decide["decision"]["alpha"]
        scores = {a: alpha * lo + (1.0 - alpha) * hi for a, (lo, hi) in rows.items()}
        best = max(scores.values())
        expected = sorted(a for a, v in scores.items() if v == best)
        if s["chosen"] != expected:
            failures.append(("hurwicz", f"chose {s['chosen']}, the rule gives {expected}"))
        return failures

    ops.append(Op("case1-decide", ["run", decide_path, "--out", "{out}"], check_decide))
    return ops


WORKLOADS = {"case1-pba": case1_pba, "cea-mixed": cea_mixed, "cli-batch": cli_batch}
