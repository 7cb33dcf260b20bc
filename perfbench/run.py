"""Benchmark of `pba` as a user runs it: one analysis per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, nothing is installed.  A run repeats whole passes over
the workload's operations for about S seconds, checks every output, and
prints one JSON object as its last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over the passes); with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones from the traced passes, with the tracing overhead.  The full
result, with the machine and library versions, goes to
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

CHILD_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PBA_SEED", None)  # the seed goes in through the generated configs
    return env


def spawn(argv: list, record: Path, mode: str, env: dict) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one `pba` command line in a fresh interpreter: (spawn time, exit time, process)."""
    cmd = [sys.executable, str(CHILD), str(record), mode, "--"] + argv
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return start, time.perf_counter(), proc


def read_record(path: Path, proc: subprocess.CompletedProcess) -> dict:
    """The child's record, with its exit code and the tail of its stderr."""
    try:
        with open(path, "rb") as fh:
            rec = marshal.load(fh)
    except (OSError, EOFError, ValueError, TypeError):
        rec = {}
    rec["exit_code"] = proc.returncode
    rec["stderr"] = proc.stderr.strip()[-400:]
    return rec


def run_pass(ops: list, work: Path, index: int, traced: bool, env: dict) -> dict:
    dirs = []
    for op in ops:
        out = work / f"pass{index}" / op.name
        out.mkdir(parents=True)
        dirs.append(out)
    spawned = []
    start = time.perf_counter()
    for op, out in zip(ops, dirs):
        argv = [a.replace("{out}", str(out)) for a in op.argv]
        spawned.append(spawn(argv, out / "record.bin", "1" if traced else "0", env))
    end = time.perf_counter()
    processes, results = [], []
    for op, out, (t0, t1, proc) in zip(ops, dirs, spawned):
        rec = read_record(out / "record.bin", proc)
        processes.append((t0, t1, rec))
        if rec["exit_code"] != 0:
            failures = [("exit", f"exit code {rec['exit_code']}: {rec['stderr']}")]
        else:
            try:
                failures = op.check(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                failures = [("check", f"{type(exc).__name__}: {exc}")]
        results.append({"op": op.name, "known_fault": op.known_fault, "failures": failures})
    shutil.rmtree(work / f"pass{index}")
    return {"traced": traced, "span": (start, end), "processes": processes, "results": results}


def _quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(passes: list, setups: list) -> dict:
    """End-to-end metrics: medians over untraced passes, set-up over their processes."""
    untraced = [p for p in passes if not p["traced"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["span"][1] - p["span"][0] for p in untraced),
        "model_calls": statistics.median(
            sum(r.get("counts", {}).get("model_calls", 0) for _, _, r in p["processes"]) for p in untraced
        ),
        "peak_rss_mb": statistics.median(max(r["maxrss_kb"] for _, _, r in p["processes"]) / 1024.0 for p in untraced),
    }


def per_layer(passes: list) -> tuple[dict, list]:
    """Per-layer metrics: medians over traced passes, box percentiles pooled."""
    from layers import pass_layers

    traced = [pass_layers(p["span"], p["processes"]) for p in passes if p["traced"]]
    untraced = [p["span"][1] - p["span"][0] for p in passes if not p["traced"]]
    metrics = {name: statistics.median(t["metrics"][name] for t in traced) for name in traced[0]["metrics"]}
    box_s = [x for t in traced for x in t["box_s"]]
    box_evals = [x for t in traced for x in t["box_evals"]]
    metrics["optimize.box_ms.p50"] = 1e3 * _quantile(box_s, 0.5) if box_s else 0.0
    metrics["optimize.box_ms.p99"] = 1e3 * _quantile(box_s, 0.99) if box_s else 0.0
    metrics["optimize.evals_per_box.p50"] = _quantile(box_evals, 0.5) if box_evals else 0.0
    traced_wall = statistics.median(t["wall"] for t in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / statistics.median(untraced) - 1.0)
    return metrics, traced


def with_units(values: dict, declared: list) -> dict:
    """Attach the units that BENCHMARK.json declares, in its order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_self_times(traced: list) -> None:
    """Table of self time by span over the first traced pass; rows add up to its wall."""
    t = traced[0]
    print(f"{'span':32s} {'self s':>10s} {'share':>7s}")
    for name, value in sorted(t["self"].items(), key=lambda kv: -kv[1]):
        print(f"{name:32s} {value:10.4f} {value / t['wall']:7.1%}")
    print(f"{'sum of self times':32s} {t['self_sum']:10.4f}")
    print(f"{'traced pass wall':32s} {t['wall']:10.4f}")


def machine() -> dict:
    import numpy
    import scipy

    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pba" / "cli.py").is_file():
        print(f"no pba sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = _env()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, work)
        # Untimed: compile bytecode and warm the file cache, as any repeat user has.
        warm = work / "warm"
        warm.mkdir()
        _, _, proc = spawn(["--help"], warm / "record.bin", "0", env)
        if proc.returncode != 0:
            print(f"pba does not start: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
            return 1

        passes = []
        started = time.perf_counter()
        longest = 0.0
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            p = run_pass(ops, work, len(passes), traced, env)
            passes.append(p)
            longest = max(longest, p["span"][1] - p["span"][0])
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - started + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in passes for r in p["results"]]
    failed = [r for r in results if r["failures"]]
    unexpected = [
        (r["op"], label, msg) for r in results for label, msg in r["failures"] if label != r["known_fault"]
    ]
    setups = [
        rec["setup_end"] - spawned
        for p in passes if not p["traced"]
        for spawned, _, rec in p["processes"] if "setup_end" in rec
    ]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, traced = per_layer(passes)
        metrics = with_units(values, declared["per_layer"])
        print_self_times(traced)
        if any(t["worst_self"] < -1e-6 for t in traced):
            unexpected.append(("trace", "spans", "a child span outlasts its parent"))
    else:
        metrics = with_units(end_to_end(passes, setups), declared["end_to_end"])
    for op, label, msg in unexpected:
        print(f"FAIL {op} {label}: {msg}", file=sys.stderr)
    for r in failed:
        if not any(label != r["known_fault"] for label, _ in r["failures"]):
            print(f"known fault {r['op']}: {r['failures'][0][1]}", file=sys.stderr)

    result = {"correct": not unexpected, "attempted": len(results), "failed": len(failed), "metrics": metrics}
    report.update(
        machine=machine(),
        passes=[
            {
                "traced": p["traced"],
                "wall_s": p["span"][1] - p["span"][0],
                "processes": [
                    {k: v for k, v in rec.items() if k not in ("spans", "optimizer")}
                    | {"spawn": s, "exit": e}
                    for s, e, rec in p["processes"]
                ],
                "results": p["results"],
            }
            for p in passes
        ],
        setup_samples_s=setups,
        result=result,
    )
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
