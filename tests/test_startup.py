"""Start-up cost: numpy and scipy stay unloaded until a command computes with them.

numpy is imported on its first numeric use, so importing ``pba``, ``pba --help``,
``pba pbox``, a config that fails at load and a four-state run with no draws
or uniform draws only never load it.  The lazy module
is registered as ``sys.modules["numpy"]`` at import, so the checks look for
``numpy._core``, which only numpy's own import brings in.  scipy stays
unloaded until a gamma or beta quantile is drawn, and then only its compiled
special-function modules load, not the ``scipy.special`` package.  A draw
loads no ``numpy.random`` module at all, nor the OpenSSL bindings that its
``bit_generator`` brings in through ``secrets``.

Each check runs in a fresh interpreter, since this test session itself has
imported numpy and scipy.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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

def watched_modules():
    return sorted(m for m in sys.modules if m in WATCHED or m.startswith(tuple(p + "." for p in WATCHED)))

import pba.cli
loaded = {"import": watched_modules()}
for step, argv in ARGV:
    assert pba.cli.main(argv) == 0, step
    loaded[step] = watched_modules()
print(json.dumps(loaded))
"""


def _fresh(script: str):
    """The JSON that ``script`` prints last, run in a fresh interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PBA_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Never loaded by a run: ``numpy.random``, and ``secrets`` with the ``hmac``
# and OpenSSL ``_hashlib`` modules it imports.
RANDOM_AND_OPENSSL = ("numpy.random", "secrets", "hmac", "_hashlib")


def _probe(steps: list, watched=("scipy", "numpy.f2py", "numpy.testing")) -> dict:
    """The modules of the ``watched`` packages loaded after importing pba.cli
    and after each CLI step."""
    return _fresh(f"WATCHED = {list(watched)!r}\nARGV = {json.dumps(steps)}\n" + PROBE)


def test_pbox_and_uniform_runs_never_load_scipy(tmp_path):
    pbox = ["pbox", "--min", "0", "--max", "1", "--mean", "0.3", "--out", str(tmp_path / "box.csv")]
    steps = [["pbox", pbox]]
    for name, config in (("pbox-only", PBOX_ONLY), ("uniform-psa", UNIFORM_PSA)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        steps.append([name, ["run", str(path), "--out", str(tmp_path / name)]])
    loaded = _probe(steps, watched=("scipy", "numpy.f2py", "numpy.testing") + RANDOM_AND_OPENSSL)
    assert loaded == {"import": [], "pbox": [], "pbox-only": [], "uniform-psa": []}
    assert (tmp_path / "pbox-only" / "baseline.csv").exists()


# Never loaded by a draw: scipy.stats, and the array-API layer that the
# ``scipy.special`` package's own import builds.
ARRAY_API_AND_STATS = (
    "scipy.stats",
    "scipy._lib._array_api",
    "scipy._lib.array_api_compat",
    "numpy.f2py",
    "numpy.testing",
)


def _under(modules: list, *packages: str) -> list:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_gamma_draws_load_scipy_special_not_stats(tmp_path):
    """Of ``scipy.special``, a gamma run loads ``_special_ufuncs`` but not
    ``_ufuncs``, and a beta run ``_ufuncs`` too; neither loads any
    ``numpy.random`` module, ``secrets``, ``hmac`` or ``_hashlib``.  The beta
    run follows the gamma run in the same process."""
    cea = json.loads((CONFIG_DIR / "demo-cea-inmb.json").read_text())
    cea.update(samples=1, n=1)
    (tmp_path / "cea.json").write_text(json.dumps(cea))
    loaded = _probe(
        [
            ["gamma-psa", ["run", str(CONFIG_DIR / "case1-psa-gamma.json"), "--out", str(tmp_path / "gamma")]],
            ["beta-cea", ["run", str(tmp_path / "cea.json"), "--out", str(tmp_path / "beta")]],
        ],
        watched=("scipy", "numpy.f2py", "numpy.testing") + RANDOM_AND_OPENSSL,
    )
    assert loaded["import"] == []
    assert "scipy.special._special_ufuncs" in loaded["gamma-psa"]
    assert "scipy.special._ufuncs" not in loaded["gamma-psa"]
    assert "scipy.special._ellip_harm_2" not in loaded["gamma-psa"]
    assert "scipy.special._ufuncs" in loaded["beta-cea"]
    for step in ("gamma-psa", "beta-cea"):
        assert "scipy.special" not in loaded[step], step
        assert _under(loaded[step], *RANDOM_AND_OPENSSL) == [], step
        assert _under(loaded[step], *ARRAY_API_AND_STATS) == [], step


ORDER_PROBE = """
import sys

from pba import _lazy
from pba.distributions import DistributionSpec
from pba.propagate import ParameterSet, _draw_precise, _sample_streams

if FIRST:
    import numpy.random
    import scipy.special
u = _lazy.np.array([0.0, 2.0**-53, 1e-3, 0.25, 0.5, 0.9, 1.0 - 2.0**-53, 1.0])
gamma = DistributionSpec.gamma(2.5, 3.0).ppf(u)
beta = DistributionSpec.beta(2.0, 5.0).ppf(u)
unit = ParameterSet(precise={name: DistributionSpec.uniform(0.0, 1.0) for name in ("a", "b", "c")})
draws = [list(_draw_precise(unit, stream).values()) for stream in _sample_streams(7, 5)]
imported = ["numpy.random" in sys.modules, "scipy.special" in sys.modules]
import numpy.random
import scipy.special
from scipy import stats

print(json.dumps({
    "packages imported before the draws": imported,
    "real packages": all(hasattr(m, "__file__") for m in (numpy.random, scipy.special))
    and hasattr(numpy.random, "default_rng") and hasattr(scipy.special, "logsumexp"),
    "submodules bound on the package": hasattr(numpy.random, "_pcg64") and hasattr(numpy.random, "bit_generator"),
    "scipy submodule bound on the package": hasattr(scipy.special, "_special_ufuncs"),
    "same ufuncs": _lazy.betaincinv is scipy.special.betaincinv and _lazy.gammaincinv is scipy.special.gammaincinv,
    "gamma bits": gamma.tobytes() == stats.gamma.ppf(u, a=2.5, scale=1.0 / 3.0).tobytes(),
    "beta bits": beta.tobytes() == stats.beta.ppf(u, 2.0, 5.0).tobytes(),
    "draw bits": draws == [
        numpy.random.default_rng(stream).random(3).tolist() for stream in numpy.random.SeedSequence(7).spawn(5)
    ],
}))
"""


@pytest.mark.parametrize("first", [False, True], ids=["pba-first", "scipy-first"])
def test_special_ufuncs_are_scipy_specials_own(first):
    """Draws made before or after ``import numpy.random`` and ``import
    scipy.special`` use scipy's own ufuncs, match numpy's generator bit for
    bit and leave both working packages.  pba loads nothing of
    ``numpy.random``, so its submodules are bound either way; only drawing
    first leaves ``scipy.special._special_ufuncs`` unbound on its package."""
    checks = _fresh(f"FIRST = {first}\n" + ORDER_PROBE)
    assert checks == {
        "packages imported before the draws": [first, first],
        "real packages": True,
        "submodules bound on the package": True,
        "scipy submodule bound on the package": first,
        "same ufuncs": True,
        "gamma bits": True,
        "beta bits": True,
        "draw bits": True,
    }


def test_gammaincinv_falls_back_to_ufuncs(monkeypatch):
    """On a scipy whose ``_special_ufuncs`` lacks ``gammaincinv``, it comes from ``_ufuncs``, with the same bits."""
    from scipy import stats
    from scipy.special import _special_ufuncs, _ufuncs

    from pba import _lazy
    from pba.distributions import DistributionSpec

    u = _lazy.np.array([0.0, 2.0**-53, 1e-3, 0.25, 0.5, 0.9, 1.0 - 2.0**-53, 1.0])
    _lazy.gammaincinv  # bound now, so that the binding is put back afterwards
    monkeypatch.delattr(_special_ufuncs, "gammaincinv")
    monkeypatch.delitem(vars(_lazy), "gammaincinv")
    assert _lazy.gammaincinv is _ufuncs.gammaincinv
    gamma = DistributionSpec.gamma(2.5, 3.0).ppf(u)
    assert gamma.tobytes() == stats.gamma.ppf(u, a=2.5, scale=1.0 / 3.0).tobytes()


NUMPY_PROBE = """
import contextlib, io, sys

import pba
import pba.models
loaded = {"import": [0, "numpy._core" in sys.modules, ""]}
import pba.cli
for step, argv in ARGV:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = pba.cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    loaded[step] = [code, "numpy._core" in sys.modules, err.getvalue()]
print(json.dumps(loaded))
"""


DECIDE = {
    "schema": "pba-analysis/1",
    "pipeline": "decide",
    "model": "four_state_life_expectancy",
    "parameters": {"fixed": FOUR_STATE_FIXED, "boxed": PBOX_ONLY["parameters"]["boxed"]},
    "n": 3,
    "actions": [{"id": "usual-care", "overrides": {"c2": 0.01}}, {"id": "slower", "overrides": {"c2": 0.005}}],
    "decision": {"rule": "hurwicz", "alpha": 0.5},
}


def test_numpy_loads_on_first_numeric_use(tmp_path):
    """Four-state runs whose draws are uniform or absent never load numpy:
    the model, the envelope, the expected values and the curves are plain
    Python.  A gamma draw is the first numeric use, in the last step."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**PBOX_ONLY, "model": "no_such_model"}))
    good = tmp_path / "pbox-only.json"
    good.write_text(json.dumps(PBOX_ONLY))
    decide = tmp_path / "decide.json"
    decide.write_text(json.dumps(DECIDE))
    pbox = ["pbox", "--min", "0", "--max", "1", "--mean", "0.3", "--out", str(tmp_path / "box.csv")]
    steps = [
        ["help", ["--help"]],
        ["pbox", pbox],
        ["bad-config", ["run", str(bad), "--out", str(tmp_path / "bad")]],
        ["run", ["run", str(good), "--out", str(tmp_path / "good")]],
        ["decide", ["run", str(decide), "--out", str(tmp_path / "decide")]],
        ["uniform-baseline", ["run", str(CONFIG_DIR / "case1-minmax-vs-uniform.json"), "--out", str(tmp_path / "minmax")]],
        ["gamma-baseline", ["run", str(CONFIG_DIR / "case1-pba.json"), "--out", str(tmp_path / "pba")]],
    ]
    loaded = _fresh(f"ARGV = {json.dumps(steps)}\n" + NUMPY_PROBE)
    assert {step: (code, numpy) for step, (code, numpy, _) in loaded.items()} == {
        "import": (0, False),
        "help": (0, False),
        "pbox": (0, False),
        "bad-config": (2, False),
        "run": (0, False),
        "decide": (0, False),
        "uniform-baseline": (0, False),
        "gamma-baseline": (0, True),
    }
    error = json.loads(loaded["bad-config"][2])["error"]
    assert error["type"] == "ConfigParseError" and error["location"] == "model"
    assert (tmp_path / "box.csv").exists()


def test_numpy_imported_before_pba_is_used_as_is():
    plain = _fresh(
        "import sys, types\nimport numpy\nimport pba.models\n"
        "print(json.dumps([pba.models.np is sys.modules['numpy'] is numpy, type(numpy) is types.ModuleType]))"
    )
    assert plain == [True, True]


HIDE_NUMPY = """
import sys

class Hide:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, Hide())
try:
    import pba
except ModuleNotFoundError as error:
    print(json.dumps([error.name, "pba" in sys.modules]))
"""


def test_missing_numpy_fails_at_import():
    assert _fresh(HIDE_NUMPY) == ["numpy", False]


# pba's own analysis stack: ``pba --help`` and ``pba pbox`` load none of it, and
# a run whose model is monotone searches no box by DIRECT, so it loads no ``pba._direct``.
ANALYSIS_MODULES = [
    "pba._direct",
    "pba.decision",
    "pba.distributions",
    "pba.models",
    "pba.optimize",
    "pba.oracle",
    "pba.propagate",
    "pba.slicing",
]

MODULES_PROBE = """
import contextlib, io, sys

def analysis_loaded():
    return sorted(m for m in sys.modules if m in ANALYSIS)

import pba
loaded = {"import pba": [0, analysis_loaded()]}
import pba.cli
loaded["import pba.cli"] = [0, analysis_loaded()]
for step, argv in ARGV:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = pba.cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    loaded[step] = [code, analysis_loaded()]
print(json.dumps(loaded))
"""


def test_help_and_pbox_load_no_analysis_module(tmp_path):
    pbox = ["pbox", "--min", "0", "--max", "1", "--median", "0.4", "--out", str(tmp_path / "box.csv")]
    run = ["run", str(CONFIG_DIR / "case1-minmax-vs-uniform.json"), "--out", str(tmp_path / "run")]
    steps = [["help", ["--help"]], ["pbox", pbox], ["run", run]]
    loaded = _fresh(f"ANALYSIS = {ANALYSIS_MODULES!r}\nARGV = {json.dumps(steps)}\n" + MODULES_PROBE)
    assert loaded == {
        "import pba": [0, []],
        "import pba.cli": [0, []],
        "help": [0, []],
        "pbox": [0, []],
        "run": [0, [m for m in ANALYSIS_MODULES if m not in ("pba._direct", "pba.oracle")]],
    }


EXPORTS_PROBE = """
import sys

import pba

listed = dir(pba)
values = {name: getattr(pba, name) for name in pba.__all__}
modules = {name: module for name, module in sys.modules.items() if name.startswith("pba.")}
problems = []
for name, value in values.items():
    owners = [m for m, module in modules.items() if vars(module).get(name) is value]
    home = getattr(value, "__module__", None)
    if not owners or home in modules and home not in owners:
        problems.append(f"{name}: defined in {home}, found in {owners}")
    if name not in listed:
        problems.append(f"{name}: not in dir(pba)")
try:
    pba.no_such_name
    problems.append("no_such_name resolved")
except AttributeError:
    pass
print(json.dumps([len(values), problems]))
"""


def test_every_public_name_resolves_after_a_bare_import():
    """Each name of ``pba.__all__`` is the object its defining module binds, and ``dir(pba)`` lists it."""
    count, problems = _fresh(EXPORTS_PROBE)
    assert problems == []
    assert count > 40


# The names ``perfbench/child.py`` patches on ``pba.cli``; it skips a name
# that does not resolve, so a name lost here would silently drop its span.
PATCH_POINTS = ["load_config", "export_curve", "build_pbox", "psa_propagate", "propagate_mixed", "expected_interval", "choose"]

PATCH_PROBE = """
import pba.cli as cli
import pba.decision, pba.propagate

calls = {}

def stand_in(name, original):
    def called(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)
    return called

# Set before pba.cli binds its analysis names: the stand-ins must be kept.
stand_ins = {
    "load_config": stand_in("load_config", cli.load_config),
    "export_curve": stand_in("export_curve", cli.export_curve),
    "propagate_mixed": stand_in("propagate_mixed", pba.propagate.propagate_mixed),
    "expected_interval": stand_in("expected_interval", pba.decision.expected_interval),
}
for name, fn in stand_ins.items():
    setattr(cli, name, fn)
resolved = {name: callable(getattr(cli, name, None)) for name in PATCH_POINTS}
try:
    cli.propagate_pboxes
    never_had = "resolved"
except AttributeError:
    never_had = "AttributeError"
code = cli.main(ARGV)
kept = {name: getattr(cli, name) is fn for name, fn in stand_ins.items()}
print(json.dumps({"resolved": resolved, "never had": never_had, "code": code, "kept": kept, "calls": sorted(calls)}))
"""


def test_benchmark_patch_points_resolve_and_stand_ins_are_called(tmp_path):
    argv = ["run", str(CONFIG_DIR / "case1-minmax-vs-uniform.json"), "--out", str(tmp_path / "run")]
    probe = _fresh(f"PATCH_POINTS = {PATCH_POINTS!r}\nARGV = {json.dumps(argv)}\n" + PATCH_PROBE)
    assert probe == {
        "resolved": dict.fromkeys(PATCH_POINTS, True),
        "never had": "AttributeError",
        "code": 0,
        "kept": dict.fromkeys(["load_config", "export_curve", "propagate_mixed", "expected_interval"], True),
        "calls": ["expected_interval", "export_curve", "load_config", "propagate_mixed"],
    }


README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    assert _fresh(block + "\nprint(json.dumps('done'))") == "done"


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2
