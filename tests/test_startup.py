"""Start-up cost: scipy stays unloaded until a gamma or beta quantile is drawn.

Each check runs in a fresh interpreter, since this test session itself has
imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_DIR = SRC / "pba" / "configs"

FOUR_STATE_FIXED = {"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05}

PBOX_ONLY = {
    "schema": "pba-analysis/1",
    "pipeline": "propagate",
    "model": "four_state_life_expectancy",
    "parameters": {
        "fixed": FOUR_STATE_FIXED,
        "boxed": {
            "c1": {"min": 0.0, "max": 10.0, "mean": 0.05, "std": 0.00033},
            "c6": {"min": 0.5, "max": 2.0, "mean": 1.0, "std": 0.0167},
        },
    },
    "n": 2,
    "optimizer": {"budget": 100, "tol": 1e-4},
    "psa_baseline": {"samples": 20, "families": {"c1": "uniform", "c6": "uniform"}},
}

UNIFORM_PSA = {
    "schema": "pba-analysis/1",
    "pipeline": "psa",
    "model": "four_state_life_expectancy",
    "parameters": {
        "fixed": FOUR_STATE_FIXED,
        "precise": {
            "c1": {"family": "uniform", "min": 0.04, "max": 0.06},
            "c6": {"family": "uniform", "min": 0.9, "max": 1.1},
        },
    },
    "samples": 20,
}

PROBE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import pba.cli
loaded = {"import": scipy_modules()}
for step, argv in ARGV:
    assert pba.cli.main(argv) == 0, step
    loaded[step] = scipy_modules()
print(json.dumps(loaded))
"""


def _probe(steps: list) -> dict:
    """scipy modules loaded after importing pba.cli and after each CLI step."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PBA_SEED", None)
    script = f"import json\nARGV = {json.dumps(steps)}\n" + PROBE
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_pbox_and_uniform_runs_never_load_scipy(tmp_path):
    pbox = ["pbox", "--min", "0", "--max", "1", "--mean", "0.3", "--out", str(tmp_path / "box.csv")]
    steps = [["pbox", pbox]]
    for name, config in (("pbox-only", PBOX_ONLY), ("uniform-psa", UNIFORM_PSA)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        steps.append([name, ["run", str(path), "--out", str(tmp_path / name)]])
    loaded = _probe(steps)
    assert loaded == {"import": [], "pbox": [], "pbox-only": [], "uniform-psa": []}
    assert (tmp_path / "pbox-only" / "baseline.csv").exists()


def test_gamma_draws_load_scipy_special_not_stats(tmp_path):
    config = CONFIG_DIR / "case1-psa-gamma.json"
    loaded = _probe([["gamma-psa", ["run", str(config), "--out", str(tmp_path)]]])
    assert loaded["import"] == []
    assert "scipy.special" in loaded["gamma-psa"]
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in loaded["gamma-psa"])
